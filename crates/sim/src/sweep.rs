//! Parameter sweeps over experiments, and the one scoped thread pool that
//! both sweeps and experiment rosters run on.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::experiment::{ExperimentError, ExperimentReport};

thread_local! {
    /// Set while this thread runs [`par_map`] tasks, so nested calls run
    /// inline instead of spawning a second pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The machine's available parallelism, or 1 when it cannot be read.
pub(crate) fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Marks the current thread as a pool worker until dropped, restoring the
/// previous mark (also on unwind).
struct PoolWorker(bool);

impl PoolWorker {
    fn enter() -> Self {
        PoolWorker(IN_POOL.with(|c| c.replace(true)))
    }
}

impl Drop for PoolWorker {
    fn drop(&mut self) {
        IN_POOL.with(|c| c.set(self.0));
    }
}

/// Runs `f(0)`, ..., `f(n - 1)` on up to `jobs` scoped worker threads
/// (clamped to `1..=n`) that claim indices from a shared counter, and
/// returns the results in index order.
///
/// A width-1 pool runs on the calling thread. A call made while the
/// calling thread is already running `par_map` tasks (at any width) runs
/// inline on that thread, so nested pools never oversubscribe and a width
/// given at the outermost call bounds the total number of threads.
pub(crate) fn par_map<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = jobs.clamp(1, n.max(1));
    if threads == 1 || IN_POOL.with(Cell::get) {
        let _worker = PoolWorker::enter();
        return (0..n).map(f).collect();
    }
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _worker = PoolWorker::enter();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    results.lock().expect("no panics hold the lock")[i] = Some(r);
                }
            });
        }
    });
    results
        .into_inner()
        .expect("threads joined")
        .into_iter()
        .map(|r| r.expect("every index was visited"))
        .collect()
}

/// One point of a sweep: the swept parameter's value and the experiment
/// report measured there.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter (k, B, or C in Fig. 5).
    pub x: f64,
    /// The report at this point.
    pub report: ExperimentReport,
}

/// Runs `measure` at every `x`, in parallel, returning points in input
/// order. `measure` builds and runs a full experiment for one parameter
/// value; any error aborts the sweep.
///
/// # Errors
///
/// Returns the first [`ExperimentError`] any point produced.
///
/// ```
/// use smbm_sim::sweep;
/// use smbm_sim::{ExperimentReport};
///
/// let points = sweep(&[1.0, 2.0], |x| {
///     Ok(ExperimentReport { opt_score: x as u64, rows: vec![] })
/// })?;
/// assert_eq!(points.len(), 2);
/// assert_eq!(points[1].report.opt_score, 2);
/// # Ok::<(), smbm_sim::ExperimentError>(())
/// ```
pub fn sweep<F>(xs: &[f64], measure: F) -> Result<Vec<SweepPoint>, ExperimentError>
where
    F: Fn(f64) -> Result<ExperimentReport, ExperimentError> + Sync,
{
    sweep_with_jobs(xs, measure, None)
}

/// Like [`sweep`], with an explicit worker-thread cap. `jobs = None` uses
/// the machine's available parallelism; `Some(n)` caps the pool at `n`
/// threads (`Some(1)` runs the sweep sequentially on the calling thread,
/// useful for reproducible timing or constrained CI runners). The cap is
/// clamped to at least one thread and at most one per sweep point.
///
/// Points run on the same scoped pool that experiment rosters use (see
/// [`Experiment::run`](crate::Experiment::run)). An experiment run
/// inside `measure` sees it is already on a pool worker and runs its roster
/// inline, so `jobs` caps the total number of worker threads, nested rosters
/// included. A sweep started from inside a pool worker runs inline too.
///
/// # Errors
///
/// Returns the first [`ExperimentError`] any point produced.
pub fn sweep_with_jobs<F>(
    xs: &[f64],
    measure: F,
    jobs: Option<usize>,
) -> Result<Vec<SweepPoint>, ExperimentError>
where
    F: Fn(f64) -> Result<ExperimentReport, ExperimentError> + Sync,
{
    let jobs = jobs.unwrap_or_else(available_parallelism);
    par_map(xs.len(), jobs, |i| measure(xs[i]))
        .into_iter()
        .zip(xs)
        .map(|(r, &x)| r.map(|report| SweepPoint { x, report }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PolicyRow;
    use std::thread;

    fn fake_report(x: f64) -> ExperimentReport {
        ExperimentReport {
            opt_score: (x * 10.0) as u64,
            rows: vec![PolicyRow {
                policy: "X".into(),
                score: x as u64,
                ratio: 1.0,
                mean_latency: 0.0,
                goodput: 1.0,
            }],
        }
    }

    #[test]
    fn par_map_returns_results_in_index_order() {
        for jobs in [1, 2, 64] {
            for n in [0, 1, 7, 100] {
                let got = par_map(n, jobs, |i| i * i);
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(got, want, "n={n} jobs={jobs}");
            }
        }
        // jobs = 0 is clamped to one worker rather than deadlocking.
        assert_eq!(par_map(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn width_one_runs_on_the_calling_thread() {
        let me = thread::current().id();
        assert!(par_map(5, 1, |_| thread::current().id())
            .iter()
            .all(|&id| id == me));
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker() {
        for jobs in [1, 2, 4] {
            let outer = par_map(8, jobs, |_| {
                let worker = thread::current().id();
                let inner = par_map(6, 64, |_| thread::current().id());
                (worker, inner)
            });
            for (worker, inner) in outer {
                assert_eq!(inner.len(), 6);
                assert!(inner.iter().all(|&id| id == worker), "jobs={jobs}");
            }
        }
        // The mark is cleared once the outer call returns.
        assert!(!IN_POOL.with(Cell::get));
    }

    #[test]
    fn preserves_input_order() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let points = sweep(&xs, |x| Ok(fake_report(x))).unwrap();
        assert_eq!(points.len(), 20);
        for (p, x) in points.iter().zip(&xs) {
            assert_eq!(p.x, *x);
            assert_eq!(p.report.opt_score, (*x * 10.0) as u64);
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let points = sweep(&[], |x| Ok(fake_report(x))).unwrap();
        assert!(points.is_empty());
    }

    #[test]
    fn explicit_job_counts_match_default() {
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        let default = sweep(&xs, |x| Ok(fake_report(x))).unwrap();
        for jobs in [1, 2, 64] {
            let capped = sweep_with_jobs(&xs, |x| Ok(fake_report(x)), Some(jobs)).unwrap();
            assert_eq!(capped.len(), default.len());
            for (a, b) in capped.iter().zip(&default) {
                assert_eq!(a.x, b.x);
                assert_eq!(a.report.opt_score, b.report.opt_score);
            }
        }
        // jobs = 0 is clamped to one worker rather than deadlocking.
        let clamped = sweep_with_jobs(&xs, |x| Ok(fake_report(x)), Some(0)).unwrap();
        assert_eq!(clamped.len(), xs.len());
    }

    #[test]
    fn errors_abort() {
        let r = sweep(&[1.0, 2.0], |x| {
            if x > 1.5 {
                Err(ExperimentError::UnknownPolicy("boom".into()))
            } else {
                Ok(fake_report(x))
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn actually_runs_in_parallel_threads() {
        // Smoke test: heavy closure across many points completes.
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let points = sweep(&xs, |x| {
            let mut acc = 0u64;
            for i in 0..10_000 {
                acc = acc.wrapping_add(i * x as u64);
            }
            let mut r = fake_report(x);
            r.opt_score = acc.max(1);
            Ok(r)
        })
        .unwrap();
        assert_eq!(points.len(), 50);
    }
}
