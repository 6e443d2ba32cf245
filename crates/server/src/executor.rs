//! Panic-isolated job execution on the shared worker pool.
//!
//! Admitted jobs run on [`dd_baselines::run_indexed`], the pool the
//! scenario matrix runs its cells on: workers take the next job index from
//! one shared counter, worker 0 is the calling thread, and outputs come
//! back in job-index order. This wrapper adds only what the server needs
//! per job: the `executor.job` span, queue and wall timing, and *panic
//! isolation*. Each execution runs under [`std::panic::catch_unwind`], so
//! a panicking job (real bug or a `dd-chaos` injected fault) can never
//! take down the worker thread, poison the pool, or kill the server
//! process. A panicked job is retried a bounded number of times on the
//! same worker and its terminal outcome surfaces as
//! [`JobOutcome::Panicked`] for the caller to turn into a structured error
//! (the sweep server answers `job_failed` and refunds the charge).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Outcome of one executed job.
#[derive(Debug, Clone)]
pub struct JobRun<T> {
    /// Index of the job in the submitted batch.
    pub index: usize,
    /// Worker that executed it.
    pub worker: usize,
    /// Microseconds from the batch's start until the job started.
    pub queue_micros: u64,
    /// Microseconds the job took to run (all attempts).
    pub wall_micros: u64,
    /// Number of attempts the job consumed (1 unless earlier attempts
    /// panicked).
    pub attempts: u32,
    /// The job's output.
    pub output: T,
}

/// What a panic-isolated job produced.
#[derive(Debug, Clone)]
pub enum JobOutcome<T> {
    /// The job returned a value (possibly after retries; see
    /// [`JobRun::attempts`]).
    Ok(T),
    /// Every attempt panicked; the job is terminally failed.
    Panicked {
        /// Panic payload of the final attempt, stringified.
        message: String,
    },
}

impl<T> JobOutcome<T> {
    /// The value, if the job succeeded.
    pub fn ok(self) -> Option<T> {
        match self {
            JobOutcome::Ok(value) => Some(value),
            JobOutcome::Panicked { .. } => None,
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

fn micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Execute `jobs` jobs on up to `workers` threads of the shared pool;
/// outcomes come back in job-index order.
///
/// A panicking job is caught and retried up to `attempts` times (total)
/// on the same worker before surfacing as [`JobOutcome::Panicked`]. `run`
/// receives `(job_index, attempt)` with attempts counted from 1 so retry
/// behaviour (and deterministic fault keys) can depend on the attempt;
/// it must be safe to call from several threads at once (it receives
/// distinct indices).
pub fn run_isolated<T, F>(
    jobs: usize,
    workers: usize,
    attempts: u32,
    run: F,
) -> Vec<JobRun<JobOutcome<T>>>
where
    T: Send,
    F: Fn(usize, u32) -> T + Sync,
{
    let attempts = attempts.max(1);
    let started = Instant::now();
    dd_baselines::run_indexed(jobs, workers, |worker, index| {
        let queue_micros = micros(started);
        let job_started = Instant::now();
        let span = dd_obs::span_with("executor.job", || format!("job={index} worker={worker}"));
        let mut used = 0;
        let mut output = None;
        let mut last_panic = String::new();
        while used < attempts {
            used += 1;
            match catch_unwind(AssertUnwindSafe(|| run(index, used))) {
                Ok(value) => {
                    output = Some(JobOutcome::Ok(value));
                    break;
                }
                Err(payload) => last_panic = panic_message(payload),
            }
        }
        drop(span);
        JobRun {
            index,
            worker,
            queue_micros,
            wall_micros: micros(job_started),
            attempts: used,
            output: output.unwrap_or(JobOutcome::Panicked {
                message: last_panic,
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One attempt per job.
    fn run_once<T: Send>(
        jobs: usize,
        workers: usize,
        run: impl Fn(usize) -> T + Sync,
    ) -> Vec<JobRun<JobOutcome<T>>> {
        run_isolated(jobs, workers, 1, |index, _attempt| run(index))
    }

    #[test]
    fn executes_every_job_exactly_once() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let runs = run_once(100, 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(runs.len(), 100);
        for (i, run) in runs.into_iter().enumerate() {
            assert_eq!(run.index, i);
            assert!(run.worker < 7);
            assert_eq!(run.output.ok(), Some(i * 2));
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn empty_batch_and_oversized_worker_count() {
        let none = run_once(0, 8, |_| ());
        assert!(none.is_empty());
        let one = run_once(1, 64, |i| i);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].worker, 0);
    }

    #[test]
    fn panicking_job_is_isolated_and_reported_not_fatal() {
        let runs = run_once(8, 3, |i| {
            if i == 5 {
                panic!("boom on job {i}");
            }
            i * 2
        });
        assert_eq!(runs.len(), 8);
        for (i, run) in runs.iter().enumerate() {
            match &run.output {
                JobOutcome::Ok(v) => {
                    assert_ne!(i, 5);
                    assert_eq!(*v, i * 2);
                }
                JobOutcome::Panicked { message } => {
                    assert_eq!(i, 5);
                    assert!(message.contains("boom on job 5"), "{message}");
                }
            }
        }
    }

    #[test]
    fn panicked_job_retries_up_to_budget_then_fails() {
        // Fails on attempts 1 and 2, succeeds on 3.
        let runs = run_isolated(1, 1, 3, |_i, attempt| {
            if attempt < 3 {
                panic!("transient");
            }
            attempt
        });
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].attempts, 3);
        assert!(matches!(runs[0].output, JobOutcome::Ok(3)));

        // Always fails: attempts are bounded.
        let runs = run_isolated(1, 1, 2, |_i, _attempt| -> usize { panic!("permanent") });
        assert_eq!(runs[0].attempts, 2);
        assert!(matches!(
            &runs[0].output,
            JobOutcome::Panicked { message } if message.contains("permanent")
        ));
    }

    #[test]
    fn worker_pool_survives_many_panics_without_losing_jobs() {
        let hits: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        let runs = run_once(40, 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i % 3 == 0 {
                panic!("chaos {i}");
            }
            i
        });
        assert_eq!(runs.len(), 40);
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
        let failed = runs
            .iter()
            .filter(|r| matches!(r.output, JobOutcome::Panicked { .. }))
            .count();
        assert_eq!(failed, (0..40).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn uneven_jobs_keep_outputs_index_aligned() {
        // Every fourth job is slow; with several workers the batch still
        // completes and outputs stay index-aligned.
        let runs = run_once(32, 4, |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i + 1
        });
        for (i, run) in runs.into_iter().enumerate() {
            assert_eq!(run.output.ok(), Some(i + 1));
        }
    }
}
