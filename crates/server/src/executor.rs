//! Work-stealing threaded executor with geometry affinity.
//!
//! Admitted jobs are dealt into per-worker deques, grouped by an affinity
//! key so same-geometry cells run back to back on one worker
//! ([`run_work_stealing_grouped_isolated`]; one key per job deals them
//! round-robin); each worker pops from the *front* of its own deque and,
//! when empty, steals from the *back* of the others. The pool runs on
//! `std::thread::scope`, so borrowed job data needs no `'static` bound and
//! the pool can never outlive a request. Every job is executed exactly
//! once: a job index exists in exactly one deque, and popping happens
//! under that deque's mutex (a property test in `tests/scheduler_props.rs`
//! drives this under random worker counts and interleavings).
//!
//! Jobs are *panic-isolated*: each execution runs under
//! [`std::panic::catch_unwind`], so a panicking job (real bug or a
//! `dd-chaos` injected fault) can never take down the worker thread, poison
//! the pool, or kill the server process. A panicked job is retried a
//! bounded number of times on the same worker and its terminal outcome
//! surfaces as [`JobOutcome::Panicked`] for the caller to turn into a
//! structured error (the sweep server answers `job_failed` and refunds
//! the charge).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Outcome of one executed job.
#[derive(Debug, Clone)]
pub struct JobRun<T> {
    /// Index of the job in the submitted batch.
    pub index: usize,
    /// Worker that executed it.
    pub worker: usize,
    /// Whether the job was stolen from another worker's deque.
    pub stolen: bool,
    /// Microseconds the job waited in a deque before starting.
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

/// Execute one job per entry of `keys` on up to `workers` threads with
/// work stealing; outcomes come back in job-index order. Jobs sharing an
/// affinity key are dealt to the same worker's deque, back to back, so a
/// worker runs a whole same-geometry run of cells consecutively, on warm
/// device tables. Work stealing still rebalances when a group turns out
/// slow, so affinity is a hint, never a stall.
///
/// A panicking job is caught and retried up to `attempts` times (total)
/// on the same worker before surfacing as [`JobOutcome::Panicked`]. `run`
/// receives `(job_index, attempt)` with attempts counted from 1 so retry
/// behaviour (and deterministic fault keys) can depend on the attempt;
/// it must be safe to call from several threads at once (it receives
/// distinct indices).
pub fn run_work_stealing_grouped_isolated<T, F>(
    keys: &[u64],
    workers: usize,
    attempts: u32,
    run: F,
) -> Vec<JobRun<JobOutcome<T>>>
where
    T: Send,
    F: Fn(usize, u32) -> T + Sync,
{
    if keys.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, keys.len());
    execute(deal_grouped(keys, workers), attempts.max(1), run)
}

/// Deal job indices into `workers` deques: one contiguous run per
/// distinct key, largest groups placed first onto the least-loaded deque
/// (greedy LPT by job count), groups in first-seen key order for
/// determinism.
fn deal_grouped(keys: &[u64], workers: usize) -> Vec<VecDeque<usize>> {
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    for (index, &key) in keys.iter().enumerate() {
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(index),
            None => groups.push((key, vec![index])),
        }
    }
    // Stable: size descending, then first appearance.
    groups.sort_by_key(|(_, members)| std::cmp::Reverse(members.len()));
    let mut deal: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
    for (_, members) in groups {
        let lightest = (0..workers)
            .min_by_key(|&w| deal[w].len())
            .expect("at least one worker");
        deal[lightest].extend(members);
    }
    deal
}

/// The worker pool. Every job runs
/// under `catch_unwind`, retried up to `attempts` times; worker threads
/// never die to a job panic.
fn execute<T, F>(deal: Vec<VecDeque<usize>>, attempts: u32, run: F) -> Vec<JobRun<JobOutcome<T>>>
where
    T: Send,
    F: Fn(usize, u32) -> T + Sync,
{
    let workers = deal.len();
    let jobs: usize = deal.iter().map(VecDeque::len).sum();
    let deques: Vec<Mutex<VecDeque<usize>>> = deal.into_iter().map(Mutex::new).collect();
    // Count of jobs not yet popped; decremented under the owning deque's
    // pop, so `remaining == 0` means every job has (at least started) its
    // one execution and idle workers can exit.
    let remaining = AtomicUsize::new(jobs);
    let slots: Vec<Mutex<Option<JobRun<JobOutcome<T>>>>> =
        (0..jobs).map(|_| Mutex::new(None)).collect();
    let started = Instant::now();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let remaining = &remaining;
            let run = &run;
            scope.spawn(move || loop {
                // Bind each pop as its own statement: an `if let` on the
                // locked deque would keep the guard alive through the
                // else branch (edition-2021 scrutinee lifetimes), and a
                // worker that scans for steal victims while holding its
                // own deque's lock deadlocks the pool the moment the
                // scans form a cycle.
                let own = deques[w]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .pop_front();
                let mut grabbed = own.map(|index| (index, false));
                if grabbed.is_none() {
                    for step in 1..workers {
                        let victim = (w + step) % workers;
                        let stolen = deques[victim]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop_back();
                        if let Some(index) = stolen {
                            grabbed = Some((index, true));
                            break;
                        }
                    }
                }
                let Some((index, stolen)) = grabbed else {
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    // Someone popped between our scans; jobs may still be
                    // re-checkable soon — spin politely.
                    std::thread::yield_now();
                    continue;
                };
                remaining.fetch_sub(1, Ordering::AcqRel);
                let queue_micros = micros(started);
                let job_started = Instant::now();
                // Per-job span: worker/steal attribution belongs in the
                // label (timing view), never in deterministic aggregates
                // — steal outcomes vary run to run.
                let span = dd_obs::span_with("executor.job", || {
                    format!("job={index} worker={w} stolen={stolen}")
                });
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
                let output = output.unwrap_or(JobOutcome::Panicked {
                    message: last_panic,
                });
                drop(span);
                let wall_micros = micros(job_started);
                *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(JobRun {
                    index,
                    worker: w,
                    stolen,
                    queue_micros,
                    wall_micros,
                    attempts: used,
                    output,
                });
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every job executes exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// One key per job, one attempt: jobs are dealt round-robin.
    fn run_round_robin<T: Send>(
        jobs: usize,
        workers: usize,
        run: impl Fn(usize) -> T + Sync,
    ) -> Vec<JobRun<JobOutcome<T>>> {
        let keys: Vec<u64> = (0..jobs as u64).collect();
        run_work_stealing_grouped_isolated(&keys, workers, 1, |index, _attempt| run(index))
    }

    #[test]
    fn one_key_per_job_deals_round_robin() {
        let keys: Vec<u64> = (0..8).collect();
        let deal: Vec<Vec<usize>> = deal_grouped(&keys, 3).into_iter().map(Vec::from).collect();
        assert_eq!(deal, [vec![0, 3, 6], vec![1, 4, 7], vec![2, 5]]);
    }

    #[test]
    fn executes_every_job_exactly_once() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let runs = run_round_robin(100, 7, |i| {
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
        let none = run_round_robin(0, 8, |_| ());
        assert!(none.is_empty());
        let one = run_round_robin(1, 64, |i| i);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].worker, 0);
        assert!(!one[0].stolen);
    }

    #[test]
    fn grouped_dealing_keeps_same_key_jobs_contiguous_on_one_worker() {
        // Three geometries, interleaved in submission order. Each key's
        // jobs must land in one deque, back to back, in index order.
        let keys = [7u64, 3, 7, 9, 3, 7, 9, 3];
        let deal = deal_grouped(&keys, 3);
        assert_eq!(deal.iter().map(VecDeque::len).sum::<usize>(), keys.len());
        for key in [7u64, 3, 9] {
            let members: Vec<usize> = (0..keys.len()).filter(|&i| keys[i] == key).collect();
            let home: Vec<usize> = deal
                .iter()
                .enumerate()
                .filter(|(_, d)| d.iter().any(|i| keys[*i] == key))
                .map(|(w, _)| w)
                .collect();
            assert_eq!(home.len(), 1, "key {key} split across deques {home:?}");
            let deque = &deal[home[0]];
            let run: Vec<usize> = deque.iter().copied().filter(|&i| keys[i] == key).collect();
            assert_eq!(run, members, "key {key} not in index order");
            // Contiguity: the group's positions inside the deque form a
            // single run.
            let positions: Vec<usize> = deque
                .iter()
                .enumerate()
                .filter(|(_, &i)| keys[i] == key)
                .map(|(p, _)| p)
                .collect();
            assert!(
                positions.windows(2).all(|p| p[1] == p[0] + 1),
                "key {key} fragmented at {positions:?}"
            );
        }
        // Balance: no deque holds everything when three keys meet three
        // workers.
        assert!(deal.iter().all(|d| !d.is_empty()));
    }

    #[test]
    fn grouped_executor_runs_every_job_exactly_once_in_index_order() {
        let keys: Vec<u64> = (0..60).map(|i| (i % 5) as u64).collect();
        let hits: Vec<AtomicU64> = (0..60).map(|_| AtomicU64::new(0)).collect();
        let runs = run_work_stealing_grouped_isolated(&keys, 4, 1, |i, _attempt| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert_eq!(runs.len(), 60);
        for (i, run) in runs.into_iter().enumerate() {
            assert_eq!(run.index, i);
            assert_eq!(run.output.ok(), Some(i * 3));
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
        assert!(run_work_stealing_grouped_isolated(&[], 4, 1, |i, _attempt| i).is_empty());
    }

    #[test]
    fn panicking_job_is_isolated_and_reported_not_fatal() {
        let keys: Vec<u64> = (0..8).collect();
        let runs = run_work_stealing_grouped_isolated(&keys, 3, 1, |i, _attempt| {
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
        let runs = run_work_stealing_grouped_isolated(&[0u64], 1, 3, |_i, attempt| {
            if attempt < 3 {
                panic!("transient");
            }
            attempt
        });
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].attempts, 3);
        assert!(matches!(runs[0].output, JobOutcome::Ok(3)));

        // Always fails: attempts are bounded.
        let runs = run_work_stealing_grouped_isolated(&[0u64], 1, 2, |_i, _attempt| -> usize {
            panic!("permanent")
        });
        assert_eq!(runs[0].attempts, 2);
        assert!(matches!(
            &runs[0].output,
            JobOutcome::Panicked { message } if message.contains("permanent")
        ));
    }

    #[test]
    fn worker_pool_survives_many_panics_without_losing_jobs() {
        let hits: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        let runs = run_work_stealing_grouped_isolated(
            &(0..40u64).map(|i| i % 4).collect::<Vec<_>>(),
            4,
            1,
            |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if i % 3 == 0 {
                    panic!("chaos {i}");
                }
                i
            },
        );
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
    fn uneven_jobs_get_stolen() {
        // One worker's deque gets all the slow jobs; with several workers
        // at least the batch completes and outputs stay index-aligned.
        let runs = run_round_robin(32, 4, |i| {
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
