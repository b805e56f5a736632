//! BCube path enumeration must be identical across *processes*, not just
//! across calls: the enumeration once flowed through a hash container, and
//! `std`'s `RandomState` is seeded per process, so any hash-order
//! dependence shows up exactly as a cross-process divergence (the
//! Heisenbug class clippy.toml's `HashMap`/`HashSet` ban exists to kill).
//!
//! The test re-executes itself as two child processes with different
//! `RUST_MIN_STACK` values (each child also gets a fresh, independent
//! `RandomState` hasher seed from the OS) and requires the full path-set
//! enumeration digest to be bit-identical in both — and equal to the
//! digest computed in-process.

use mptcp_netsim::{DetDigest, DigestWriter, LinkSpec, SimTime, Simulator};
use mptcp_topology::BCube;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;

const CHILD_ENV: &str = "BCUBE_DIGEST_CHILD";

/// Digest the complete ordered path enumeration for a spread of host pairs
/// in the paper's BCube(5, 2).
fn enumeration_digest() -> u64 {
    let mut sim = Simulator::new(0);
    let b = BCube::build(&mut sim, 5, 2, LinkSpec::mbps(100.0, SimTime::from_micros(10), 100));
    let mut rng = StdRng::seed_from_u64(42);
    let mut w = DigestWriter::new();
    for &(s, d) in &[(0usize, 124usize), (0, 1), (3, 78), (10, 35), (50, 55), (111, 7)] {
        for path in b.path_set(s, d, &mut rng) {
            // Order-sensitive fold: both the per-path link order and the
            // path order across the set are pinned.
            path.det_digest(&mut w);
        }
        b.single_path(s, d).det_digest(&mut w);
    }
    w.finish()
}

fn child_digest(min_stack: &str) -> u64 {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--test-threads", "1", "--nocapture", "--exact", "path_enumeration_order_is_process_invariant"])
        .env(CHILD_ENV, "1")
        .env("RUST_MIN_STACK", min_stack)
        .output()
        .expect("re-exec test binary");
    assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest may interleave its own status text on the same line; locate
    // the marker anywhere and take the 16 hex digits after it.
    let at = stdout.find("BCUBE_DIGEST=").unwrap_or_else(|| panic!("no digest in child output:\n{stdout}"));
    let hex = &stdout[at + "BCUBE_DIGEST=".len()..][..16];
    u64::from_str_radix(hex, 16).expect("hex digest")
}

#[test]
fn path_enumeration_order_is_process_invariant() {
    if std::env::var_os(CHILD_ENV).is_some() {
        // Child mode: print the digest for the parent and stop.
        println!("BCUBE_DIGEST={:016x}", enumeration_digest());
        return;
    }
    let local = enumeration_digest();
    let a = child_digest("1048576");
    let b = child_digest("8388608");
    assert_eq!(a, b, "enumeration depends on per-process state (hasher seed / stack size)");
    assert_eq!(a, local, "child enumeration differs from in-process enumeration");
}
