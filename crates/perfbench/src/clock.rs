//! The stopwatch of a timed window: host time read two ways.
//!
//! `wall_s` is what a clock on the wall reads. `cpu_s` is the time the
//! calling thread spent on a CPU. The two agree within 1% for a
//! single-threaded window when nothing else wants the core; they part when
//! something does: another process of this machine, or, on a shared host,
//! another guest the hypervisor gives the core to (a kernel built with
//! `PARAVIRT_TIME_ACCOUNTING`, as the reference host's is, leaves that
//! stolen time out of a thread's run time). The reference host is such a
//! guest: ten runs of `fattree_k8` in one ten-minute stretch read 4.7 to
//! 17.8 s on the wall, against 3.5 s before and after. The bounded
//! end-to-end timings therefore read `cpu_s`. Contention for what cores
//! share (cache, memory, the other hardware thread) slows the thread while
//! it is on the CPU and shows in both clocks.
//!
//! `cpu_s` counts the calling thread only, so a window that runs on spawned
//! worker threads (the two-thread legs) is read by `wall_s`.

use std::time::Instant;

/// Nanoseconds the calling thread has run on a CPU, or `None` where the
/// kernel does not say. The counter moves at context switches and timer
/// ticks (4 ms), so yield first to bring it up to date.
fn thread_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// A running stopwatch.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: Option<u64>,
}

/// What a stopwatch read when it was stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Elapsed {
    /// Seconds on the wall clock.
    pub wall_s: f64,
    /// Seconds the calling thread ran on a CPU (`wall_s` where the kernel
    /// does not report it).
    pub cpu_s: f64,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        let cpu_ns = thread_cpu_ns();
        Self { wall: mptcp_netsim::wall_clock(), cpu_ns }
    }

    /// Read both clocks.
    pub fn stop(&self) -> Elapsed {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = match (self.cpu_ns, thread_cpu_ns()) {
            (Some(from), Some(to)) => to.saturating_sub(from) as f64 / 1e9,
            _ => wall_s,
        };
        Elapsed { wall_s, cpu_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_busy_thread_is_on_the_cpu_and_a_sleeping_one_is_not() {
        let busy = Stopwatch::start();
        let mut x = 0u64;
        while busy.wall.elapsed().as_millis() < 40 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let busy = busy.stop();
        assert!(busy.cpu_s > 0.5 * busy.wall_s && busy.cpu_s < 1.1 * busy.wall_s, "{busy:?}");

        let idle = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(40));
        let idle = idle.stop();
        if std::path::Path::new("/proc/thread-self/schedstat").exists() {
            assert!(idle.cpu_s < 0.5 * idle.wall_s, "{idle:?}");
        }
    }
}
