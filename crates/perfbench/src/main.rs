//! The `mptcp-perfbench` command; everything lives in the library so the
//! crate's tests can drive it.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mptcp_perfbench::run(&args)
}
