//! The one worker pool: the scenario matrix runs its cells on it, and the
//! sweep server (`dd-server`) its admitted jobs.
//!
//! Workers take the next job index from one shared counter, so every
//! index runs exactly once and a worker that finishes early simply takes
//! more. The pool runs on `std::thread::scope` (the build environment has
//! no rayon, see `vendor/`), so jobs may borrow and the pool never
//! outlives its call.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `job(worker, index)` for every `index` in `0..jobs` on up to
/// `workers` threads and return the results in index order.
///
/// Worker 0 is the calling thread; only the other workers get a thread
/// of their own, so a one-worker run spawns none. `worker` is always
/// below `min(workers, jobs)`.
///
/// # Panics
///
/// Re-raises a panic of `job` once every worker has stopped.
pub fn run_indexed<T, F>(jobs: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = workers.clamp(1, jobs.max(1));
    let next = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= jobs {
                return done;
            }
            done.push((index, job(worker, index)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let work = &work;
        let helpers: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        let mut done = work(0);
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_runs_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_indexed(9, 1, |worker, _| (worker, std::thread::current().id()));
        assert_eq!(out.len(), 9);
        assert!(out.iter().all(|&(worker, id)| worker == 0 && id == caller));
    }
}
