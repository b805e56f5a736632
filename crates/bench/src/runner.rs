//! A parallel experiment runner.
//!
//! The paper's evaluation sweeps (algorithm × parameter × seed) over many
//! independent simulations; each simulation is single-threaded and fully
//! deterministic, so the sweep is embarrassingly parallel. [`run_parallel`]
//! fans the jobs out over a worker pool and returns results **in job
//! order**, so converting a serial `for` loop to the runner changes wall
//! time only — the output bytes are identical (determinism is per-job, via
//! each job's own seed; nothing is shared between jobs).
//!
//! The pool uses `std::thread::scope` workers pulling job indices from an
//! atomic counter — no external dependencies. Thread count defaults to the
//! number of available cores, capped by the job count, and can be pinned
//! with `MPTCP_JOBS=<n>` (`MPTCP_JOBS=1` gives a serial run for A/B
//! checking the determinism claim).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use for `n_jobs` jobs: `MPTCP_JOBS` if set,
/// else the available parallelism, capped by the job count.
pub fn worker_count(n_jobs: usize) -> usize {
    let def = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = match std::env::var("MPTCP_JOBS") {
        Ok(v) => v.trim().parse::<usize>().map_or_else(|_| def(), |n| n.max(1)),
        Err(_) => def(),
    };
    n.min(n_jobs).max(1)
}

/// Run `f` over every job, in parallel, returning results in job order.
///
/// `f` must be a pure function of the job (plus its own internal seeds) for
/// the sequential/parallel equivalence to hold; all the experiment runners
/// in this crate are.
pub fn run_parallel<I, R, F>(jobs: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    run_parallel_on(worker_count(jobs.len()), jobs, f)
}

/// [`run_parallel`] on exactly `workers` threads (capped by the job count),
/// whatever `MPTCP_JOBS` says.
pub fn run_parallel_on<I, R, F>(workers: usize, jobs: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let r = f(job);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = run_parallel(&jobs, |&j| {
            // Unequal job durations scramble completion order.
            std::thread::sleep(std::time::Duration::from_micros(1 + (j % 7) * 50));
            j * 10
        });
        assert_eq!(out, (0..64).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let jobs: Vec<u64> = (0..40).collect();
        let f = |&j: &u64| j.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
        let serial: Vec<u64> = jobs.iter().map(f).collect();
        assert_eq!(run_parallel(&jobs, f), serial);
        assert_eq!(run_parallel_on(4, &jobs, f), serial);
    }

    #[test]
    fn empty_job_list() {
        let out: Vec<u64> = run_parallel(&[] as &[u64], |&j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_respects_job_cap() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
    }
}
