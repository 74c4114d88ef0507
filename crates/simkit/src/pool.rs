//! Bounded job queue for embarrassingly parallel runs.
//!
//! The experiment grid of the paper is hundreds of independent simulation
//! runs (figures × sweep points × protocols × replications). [`run`]
//! executes such a job list on a fixed set of scoped worker threads:
//!
//! * **Bounded** — `min(workers, jobs)` threads (at least one), never one
//!   OS thread per job. The caller only waits.
//! * **One shared queue** — every worker pulls the next job from one
//!   `Mutex`-guarded iterator. One lock per job is plenty: jobs here are
//!   whole simulation runs (milliseconds each), not microtasks.
//! * **Deterministic collection** — results are returned in job submission
//!   order no matter which worker ran what, so replication summaries are
//!   independent of the worker count.
//! * **Panic capture** — a panicking job does not abort the process via a
//!   bare `join().expect`; the payload is caught together with the job's
//!   context string (e.g. `"tp t_switch=500 seed=42"`) so the caller can
//!   report *which* configuration failed before propagating.
//!
//! Determinism contract: jobs never share mutable state; each job owns its
//! RNG (seeded from the job description), so the output of [`run`] is a
//! pure function of the job list regardless of `workers`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// One unit of work: a context label (for panic reports) plus a closure.
pub struct Job<'a, T> {
    /// Human-readable description of the job, echoed in panic reports.
    pub context: String,
    /// The work itself; runs on exactly one worker thread.
    pub work: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Job<'a, T> {
    /// Builds a job from a context label and a closure.
    pub fn new(context: impl Into<String>, work: impl FnOnce() -> T + Send + 'a) -> Self {
        Job {
            context: context.into(),
            work: Box::new(work),
        }
    }
}

/// A captured panic from one job, with enough context to identify it.
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// Submission index of the failing job.
    pub index: usize,
    /// The job's context label (seed/config description).
    pub context: String,
    /// Stringified panic payload (`&str`/`String` payloads; otherwise a
    /// placeholder).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job #{} [{}] panicked: {}",
            self.index, self.context, self.message
        )
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs every job on `min(workers, jobs.len())` scoped threads (at least
/// one), returning results in submission order.
///
/// After the first panic no job starts: the rest of the queue is
/// abandoned (in-flight jobs finish), and every captured panic is returned
/// in submission order so the caller can report them before propagating.
pub fn run<'a, T: Send>(workers: usize, jobs: Vec<Job<'a, T>>) -> Result<Vec<T>, Vec<JobPanic>> {
    let n_jobs = jobs.len();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n_jobs).map(|_| None).collect());
    let panics: Mutex<Vec<JobPanic>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n_jobs).max(1) {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue lock").next();
                let Some((index, Job { context, work })) = next else {
                    break;
                };
                match catch_unwind(AssertUnwindSafe(work)) {
                    Ok(value) => results.lock().expect("results lock")[index] = Some(value),
                    Err(payload) => {
                        panics.lock().expect("panics lock").push(JobPanic {
                            index,
                            context,
                            message: payload_message(payload.as_ref()),
                        });
                        // Abandon the rest of the queue: no job starts after a panic.
                        queue.lock().expect("queue lock").by_ref().for_each(drop);
                    }
                }
            });
        }
    });

    let mut panics = panics.into_inner().expect("panics lock");
    if panics.is_empty() {
        let results = results.into_inner().expect("results lock");
        Ok(results
            .into_iter()
            .map(|r| r.expect("every job ran exactly once"))
            .collect())
    } else {
        panics.sort_by_key(|p| p.index);
        Err(panics)
    }
}

/// Host parallelism: `available_parallelism` with a floor of 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_submission_order() {
        let jobs: Vec<Job<'_, usize>> = (0..64)
            .map(|i| Job::new(format!("job {i}"), move || i * 10))
            .collect();
        let out = run(4, jobs).expect("no panics");
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_multi_worker() {
        let jobs = |n: usize| -> Vec<Job<'static, u64>> {
            (0..n)
                .map(|i| Job::new(format!("j{i}"), move || (i as u64).wrapping_mul(2654435761)))
                .collect()
        };
        let seq = run(1, jobs(40)).unwrap();
        let par = run(8, jobs(40)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn jobs_can_borrow_from_caller() {
        let inputs: Vec<u32> = (0..32).collect();
        let jobs: Vec<Job<'_, u32>> = inputs
            .iter()
            .map(|x| Job::new("borrow", move || x + 1))
            .collect();
        let out = run(3, jobs).unwrap();
        assert_eq!(out.iter().sum::<u32>(), inputs.iter().sum::<u32>() + 32);
    }

    #[test]
    fn panic_reports_context() {
        let jobs: Vec<Job<'_, ()>> = (0..8)
            .map(|i| {
                Job::new(format!("seed={i}"), move || {
                    if i == 5 {
                        panic!("boom at {i}");
                    }
                })
            })
            .collect();
        let err = run(4, jobs).unwrap_err();
        assert!(!err.is_empty());
        let p = err.iter().find(|p| p.index == 5).expect("job 5 captured");
        assert_eq!(p.context, "seed=5");
        assert!(p.message.contains("boom at 5"));
        assert!(p.to_string().contains("seed=5"));
    }

    #[test]
    fn one_worker_stops_at_the_first_panic() {
        let started = Mutex::new(Vec::new());
        let jobs: Vec<Job<'_, ()>> = vec![
            Job::new("ok", || started.lock().unwrap().push(0)),
            Job::new("bad seed=7", || panic!("kaput")),
            Job::new("after", || started.lock().unwrap().push(2)),
        ];
        let err = run(1, jobs).unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].index, 1);
        assert_eq!(err[0].context, "bad seed=7");
        assert_eq!(err[0].message, "kaput");
        assert_eq!(
            *started.lock().unwrap(),
            vec![0],
            "a job queued after the panic ran"
        );
    }

    #[test]
    fn empty_job_list_is_ok() {
        assert!(default_workers() >= 1);
        let out: Vec<u8> = run(default_workers(), Vec::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run(16, vec![Job::new("a", || 1), Job::new("b", || 2)]).unwrap();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn zero_workers_still_runs_every_job() {
        let out = run(0, (0..5).map(|i| Job::new("z", move || i)).collect()).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }
}
