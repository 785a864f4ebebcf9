//! Experiments: run a roster of policies plus the OPT surrogate over one
//! trace and report empirical competitive ratios.

use std::sync::Mutex;

use smbm_core::{
    combined_policy_by_name, value_policy_by_name, work_policy_by_name, CappedValue, CappedWork,
    CombinedPqOpt, CombinedRunner, CompetitiveRatio, ValuePqOpt, ValueRunner, WorkPqOpt,
    WorkRunner,
};
use smbm_switch::{
    AdmitError, CombinedPacket, Counters, ValuePacket, ValueSwitchConfig, WorkPacket,
    WorkSwitchConfig,
};
use smbm_traffic::adversarial::{ValueConstruction, WorkConstruction};
use smbm_traffic::Trace;

use smbm_obs::{NullObserver, Observer};

use crate::engine::{run, run_observed, EngineConfig, RunSummary};
use crate::sweep::{available_parallelism, par_map};

/// One policy's outcome on a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Policy name (registry key).
    pub policy: String,
    /// Objective score: packets (work model) or value (value model).
    pub score: u64,
    /// Empirical competitive ratio against the experiment's OPT reference.
    pub ratio: f64,
    /// Mean sojourn time of transmitted packets, in slots.
    pub mean_latency: f64,
    /// Fraction of offered packets eventually transmitted.
    pub goodput: f64,
}

/// Result of running a roster of policies against the OPT surrogate.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// OPT surrogate's score.
    pub opt_score: u64,
    /// Per-policy outcomes, in roster order.
    pub rows: Vec<PolicyRow>,
}

impl ExperimentReport {
    /// The row for `policy`, if it was in the roster.
    pub fn row(&self, policy: &str) -> Option<&PolicyRow> {
        self.rows.iter().find(|r| r.policy == policy)
    }
}

/// Error running an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// A roster entry is not in the policy registry.
    UnknownPolicy(String),
    /// A policy made a decision the switch rejected.
    Admit(AdmitError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::UnknownPolicy(p) => write!(f, "unknown policy {p:?}"),
            ExperimentError::Admit(e) => write!(f, "policy decision rejected: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<AdmitError> for ExperimentError {
    fn from(e: AdmitError) -> Self {
        ExperimentError::Admit(e)
    }
}

/// A work-model experiment: a switch configuration, a speedup, and a roster
/// of policies compared against the paper's single-PQ OPT surrogate with
/// `ports * speedup` cores.
#[derive(Debug, Clone)]
pub struct WorkExperiment {
    /// Switch configuration shared by every contender.
    pub config: WorkSwitchConfig,
    /// Cores per queue (`C` in Fig. 5).
    pub speedup: u32,
    /// Policy roster (registry keys).
    pub policies: Vec<String>,
    /// Engine settings (flushouts, final drain).
    pub engine: EngineConfig,
}

impl WorkExperiment {
    /// Creates an experiment with the paper's full work-model roster.
    pub fn full_roster(config: WorkSwitchConfig, speedup: u32) -> Self {
        WorkExperiment {
            config,
            speedup,
            policies: smbm_core::WORK_POLICY_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            engine: EngineConfig::draining(),
        }
    }

    /// Runs every policy and the OPT surrogate over `trace`.
    ///
    /// The roster entries, OPT included, are independent runs over the
    /// shared trace, so they run as tasks on a scoped pool sized by
    /// [`std::thread::available_parallelism`], the same pool that
    /// [`sweep_with_jobs`](crate::sweep_with_jobs) uses. Results are
    /// collected in roster order, so the report equals a serial run's. A
    /// run made from inside a pool worker (for example, inside a sweep's
    /// `measure`) runs its roster inline on that worker, so nested pools
    /// never oversubscribe.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] for unknown roster entries (checked
    /// before any entry runs) or invalid policy decisions (the first in
    /// roster order, OPT first).
    pub fn run(&self, trace: &Trace<WorkPacket>) -> Result<ExperimentReport, ExperimentError> {
        let mut nulls = vec![NullObserver; self.policies.len()];
        self.run_observed(trace, &mut nulls)
    }

    /// Like [`WorkExperiment::run`], attaching `observers[i]` to the run of
    /// `policies[i]` (the OPT surrogate is never instrumented — it is the
    /// yardstick, not the subject). Observation does not change scores.
    ///
    /// # Panics
    ///
    /// Panics if `observers` and the roster differ in length.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] for unknown roster entries or invalid
    /// policy decisions.
    pub fn run_observed<O: Observer + Send>(
        &self,
        trace: &Trace<WorkPacket>,
        observers: &mut [O],
    ) -> Result<ExperimentReport, ExperimentError> {
        let cores = self.config.ports() as u32 * self.speedup;
        run_roster(
            &self.policies,
            observers,
            work_policy_by_name,
            || {
                run(
                    &mut WorkPqOpt::new(self.config.buffer(), cores),
                    trace,
                    &self.engine,
                )
            },
            |policy, obs| {
                let mut runner = WorkRunner::new(self.config.clone(), policy, self.speedup);
                let score = run_observed(&mut runner, trace, &self.engine, obs)?.score;
                Ok((score, *runner.switch().counters()))
            },
        )
    }
}

/// A value-model experiment, mirroring [`WorkExperiment`].
#[derive(Debug, Clone)]
pub struct ValueExperiment {
    /// Switch configuration shared by every contender.
    pub config: ValueSwitchConfig,
    /// Packets each port transmits per slot (`C` in Fig. 5).
    pub speedup: u32,
    /// Policy roster (registry keys).
    pub policies: Vec<String>,
    /// Engine settings (flushouts, final drain).
    pub engine: EngineConfig,
}

impl ValueExperiment {
    /// Creates an experiment with the paper's full value-model roster.
    pub fn full_roster(config: ValueSwitchConfig, speedup: u32) -> Self {
        ValueExperiment {
            config,
            speedup,
            policies: smbm_core::VALUE_POLICY_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            engine: EngineConfig::draining(),
        }
    }

    /// Runs every policy and the OPT surrogate over `trace`, in parallel
    /// on the roster pool; see [`WorkExperiment::run`].
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] for unknown roster entries or invalid
    /// policy decisions.
    pub fn run(&self, trace: &Trace<ValuePacket>) -> Result<ExperimentReport, ExperimentError> {
        let mut nulls = vec![NullObserver; self.policies.len()];
        self.run_observed(trace, &mut nulls)
    }

    /// Like [`ValueExperiment::run`], attaching `observers[i]` to the run of
    /// `policies[i]`; see [`WorkExperiment::run_observed`].
    ///
    /// # Panics
    ///
    /// Panics if `observers` and the roster differ in length.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] for unknown roster entries or invalid
    /// policy decisions.
    pub fn run_observed<O: Observer + Send>(
        &self,
        trace: &Trace<ValuePacket>,
        observers: &mut [O],
    ) -> Result<ExperimentReport, ExperimentError> {
        let cores = self.config.ports() as u32 * self.speedup;
        run_roster(
            &self.policies,
            observers,
            value_policy_by_name,
            || {
                run(
                    &mut ValuePqOpt::new(self.config.buffer(), cores),
                    trace,
                    &self.engine,
                )
            },
            |policy, obs| {
                let mut runner = ValueRunner::new(self.config, policy, self.speedup);
                let score = run_observed(&mut runner, trace, &self.engine, obs)?.score;
                Ok((score, *runner.switch().counters()))
            },
        )
    }
}

/// A combined-model experiment (extension), mirroring [`WorkExperiment`]:
/// roster versus the density-greedy OPT surrogate.
#[derive(Debug, Clone)]
pub struct CombinedExperiment {
    /// Switch configuration (buffer + per-port works) shared by every
    /// contender.
    pub config: WorkSwitchConfig,
    /// Cores per queue.
    pub speedup: u32,
    /// Policy roster (combined registry keys).
    pub policies: Vec<String>,
    /// Engine settings.
    pub engine: EngineConfig,
}

impl CombinedExperiment {
    /// Creates an experiment with the full combined-model roster.
    pub fn full_roster(config: WorkSwitchConfig, speedup: u32) -> Self {
        CombinedExperiment {
            config,
            speedup,
            policies: smbm_core::COMBINED_POLICY_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            engine: EngineConfig::draining(),
        }
    }

    /// Runs every policy and the density OPT surrogate over `trace`, in
    /// parallel on the roster pool; see [`WorkExperiment::run`].
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] for unknown roster entries or invalid
    /// policy decisions.
    pub fn run(&self, trace: &Trace<CombinedPacket>) -> Result<ExperimentReport, ExperimentError> {
        let mut nulls = vec![NullObserver; self.policies.len()];
        self.run_observed(trace, &mut nulls)
    }

    /// Like [`CombinedExperiment::run`], attaching `observers[i]` to the run
    /// of `policies[i]`; see [`WorkExperiment::run_observed`].
    ///
    /// # Panics
    ///
    /// Panics if `observers` and the roster differ in length.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] for unknown roster entries or invalid
    /// policy decisions.
    pub fn run_observed<O: Observer + Send>(
        &self,
        trace: &Trace<CombinedPacket>,
        observers: &mut [O],
    ) -> Result<ExperimentReport, ExperimentError> {
        let cores = self.config.ports() as u32 * self.speedup;
        run_roster(
            &self.policies,
            observers,
            combined_policy_by_name,
            || {
                let mut opt = CombinedPqOpt::new(self.config.buffer(), cores);
                run(&mut opt, trace, &self.engine)
            },
            |policy, obs| {
                let mut runner = CombinedRunner::new(self.config.clone(), policy, self.speedup);
                let score = run_observed(&mut runner, trace, &self.engine, obs)?.score;
                Ok((score, *runner.switch().counters()))
            },
        )
    }
}

/// Runs one experiment's roster: the OPT surrogate (`opt`) as entry 0 and
/// `entry(policy, observer)` for every policy in `names`, as independent
/// tasks on the scoped pool (see [`par_map`]), sized by the machine's
/// available parallelism. Every name is resolved before any entry runs;
/// results are collected in roster order, so the report is the serial one.
fn run_roster<P, O, Opt, Entry>(
    names: &[String],
    observers: &mut [O],
    resolve: fn(&str) -> Option<P>,
    opt: Opt,
    entry: Entry,
) -> Result<ExperimentReport, ExperimentError>
where
    P: Send,
    O: Observer + Send,
    Opt: Fn() -> Result<RunSummary, AdmitError> + Sync,
    Entry: Fn(P, &mut O) -> Result<(u64, Counters), AdmitError> + Sync,
{
    assert_eq!(
        observers.len(),
        names.len(),
        "one observer per roster policy"
    );
    // Each task takes its policy and observer out of its own slot; the
    // locks are never contended.
    let tasks = names
        .iter()
        .zip(observers.iter_mut())
        .map(|(name, obs)| {
            let policy =
                resolve(name).ok_or_else(|| ExperimentError::UnknownPolicy(name.clone()))?;
            Ok(Mutex::new(Some((policy, obs))))
        })
        .collect::<Result<Vec<_>, ExperimentError>>()?;
    let mut results = par_map(names.len() + 1, available_parallelism(), |i| match i {
        0 => opt().map(|summary| (summary.score, Counters::new())),
        _ => {
            let (policy, obs) = tasks[i - 1]
                .lock()
                .expect("no panics hold the lock")
                .take()
                .expect("each entry runs once");
            entry(policy, obs)
        }
    })
    .into_iter();
    let (opt_score, _) = results.next().expect("the OPT entry ran")?;
    let rows = names
        .iter()
        .zip(results)
        .map(|(name, result)| {
            let (score, counters) = result?;
            Ok(PolicyRow {
                policy: name.clone(),
                score,
                ratio: CompetitiveRatio::new(opt_score, score).ratio(),
                mean_latency: counters.mean_latency(),
                goodput: counters.goodput(),
            })
        })
        .collect::<Result<_, ExperimentError>>()?;
    Ok(ExperimentReport { opt_score, rows })
}

/// Outcome of replaying a theorem's adversarial construction.
#[derive(Debug, Clone)]
pub struct ConstructionReport {
    /// The construction's name (theorem + parameters).
    pub name: String,
    /// The targeted policy.
    pub policy: String,
    /// Ratio of the scripted OPT's score to the policy's score.
    pub measured: CompetitiveRatio,
    /// The theorem's bound at these parameters.
    pub predicted: f64,
}

impl ConstructionReport {
    /// The measured competitive ratio.
    pub fn ratio(&self) -> f64 {
        self.measured.ratio()
    }
}

/// Replays a work-model lower-bound construction: the target policy versus
/// the proof's scripted OPT (per-queue caps), over the same trace, counting
/// only in-horizon transmissions (no final drain — the constructions are
/// built to leave the policy clogged).
///
/// # Errors
///
/// Returns [`ExperimentError`] for unknown target policies or invalid
/// decisions.
pub fn measure_work_construction(
    c: &WorkConstruction,
) -> Result<ConstructionReport, ExperimentError> {
    let engine = EngineConfig::horizon_only();
    let policy = work_policy_by_name(c.target_policy)
        .ok_or_else(|| ExperimentError::UnknownPolicy(c.target_policy.to_string()))?;
    let mut alg = WorkRunner::new(c.config.clone(), policy, 1);
    let alg_score = run(&mut alg, &c.trace, &engine)?.score;
    let mut opt = WorkRunner::new(c.config.clone(), CappedWork::new(c.opt_caps.clone()), 1);
    let opt_score = run(&mut opt, &c.trace, &engine)?.score;
    Ok(ConstructionReport {
        name: c.name.clone(),
        policy: c.target_policy.to_string(),
        measured: CompetitiveRatio::new(opt_score, alg_score),
        predicted: c.predicted_ratio,
    })
}

/// Replays a value-model lower-bound construction; see
/// [`measure_work_construction`].
///
/// # Errors
///
/// Returns [`ExperimentError`] for unknown target policies or invalid
/// decisions.
pub fn measure_value_construction(
    c: &ValueConstruction,
) -> Result<ConstructionReport, ExperimentError> {
    let engine = EngineConfig::horizon_only();
    let policy = value_policy_by_name(c.target_policy)
        .ok_or_else(|| ExperimentError::UnknownPolicy(c.target_policy.to_string()))?;
    let mut alg = ValueRunner::new(c.config, policy, 1);
    let alg_score = run(&mut alg, &c.trace, &engine)?.score;
    let mut opt = ValueRunner::new(c.config, CappedValue::new(c.opt_caps.clone()), 1);
    let opt_score = run(&mut opt, &c.trace, &engine)?.score;
    Ok(ConstructionReport {
        name: c.name.clone(),
        policy: c.target_policy.to_string(),
        measured: CompetitiveRatio::new(opt_score, alg_score),
        predicted: c.predicted_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_obs::HistogramRecorder;
    use smbm_switch::{PortId, Work};
    use smbm_traffic::{MmppScenario, PortMix, ValueMix};

    #[test]
    fn work_experiment_ranks_policies() {
        let config = WorkSwitchConfig::contiguous(3, 9).unwrap();
        let exp = WorkExperiment::full_roster(config.clone(), 1);
        let mut trace = Trace::new();
        // A congested burst toward the heavy port plus cheap traffic.
        for _ in 0..5 {
            let mut burst = Vec::new();
            for _ in 0..6 {
                burst.push(WorkPacket::new(PortId::new(2), Work::new(3)));
            }
            for _ in 0..6 {
                burst.push(WorkPacket::new(PortId::new(0), Work::new(1)));
            }
            trace.push_slot(burst);
        }
        let report = exp.run(&trace).unwrap();
        assert_eq!(report.rows.len(), smbm_core::WORK_POLICY_NAMES.len());
        assert!(report.opt_score > 0);
        for row in &report.rows {
            assert!(row.score > 0, "{} scored zero", row.policy);
            assert!(row.ratio >= 0.9, "{} ratio {}", row.policy, row.ratio);
        }
        assert!(report.row("LWD").is_some());
        assert!(report.row("nope").is_none());
    }

    #[test]
    fn unknown_policy_is_reported() {
        let config = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut exp = WorkExperiment::full_roster(config, 1);
        exp.policies.push("BOGUS".into());
        let trace = Trace::from_slots(vec![vec![]]);
        let err = exp.run(&trace).unwrap_err();
        assert_eq!(err, ExperimentError::UnknownPolicy("BOGUS".into()));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn unknown_policy_is_reported_before_any_entry_runs() {
        let config = WorkSwitchConfig::contiguous(4, 16).unwrap();
        let trace = mmpp().work_trace(&config, &PortMix::Uniform).unwrap();
        let mut exp = WorkExperiment::full_roster(config, 1);
        exp.policies = ["LWD", "BOGUS", "LQD", "ALSO-BOGUS"]
            .map(String::from)
            .to_vec();
        let mut hists = vec![HistogramRecorder::new(); exp.policies.len()];
        let err = exp.run_observed(&trace, &mut hists).unwrap_err();
        assert_eq!(err, ExperimentError::UnknownPolicy("BOGUS".into()));
        assert!(hists.iter().all(|h| *h == HistogramRecorder::new()));
    }

    fn mmpp() -> MmppScenario {
        MmppScenario {
            sources: 16,
            slots: 2_000,
            seed: 5,
            ..Default::default()
        }
    }

    /// Runs a roster at top level (on the pool) and nested in a width-1
    /// sweep (inline on the calling thread) and checks that the reports
    /// and every per-entry histogram are identical.
    fn assert_pool_matches_inline<F>(entries: usize, run: F)
    where
        F: Fn(&mut [HistogramRecorder]) -> ExperimentReport + Sync,
    {
        let mut top = vec![HistogramRecorder::new(); entries];
        let report = run(&mut top);
        let nested = Mutex::new(vec![HistogramRecorder::new(); entries]);
        let points =
            crate::sweep_with_jobs(&[0.0], |_| Ok(run(&mut nested.lock().unwrap())), Some(1))
                .unwrap();
        assert_eq!(points[0].report, report);
        assert_eq!(nested.into_inner().unwrap(), top);
        assert!(top.iter().all(|h| h.arrivals() > 0));
    }

    #[test]
    fn work_roster_on_the_pool_matches_inline_run() {
        let config = WorkSwitchConfig::contiguous(4, 16).unwrap();
        let trace = mmpp().work_trace(&config, &PortMix::Uniform).unwrap();
        let exp = WorkExperiment::full_roster(config, 1);
        assert_pool_matches_inline(exp.policies.len(), |obs| {
            exp.run_observed(&trace, obs).unwrap()
        });
    }

    #[test]
    fn value_roster_on_the_pool_matches_inline_run() {
        let config = ValueSwitchConfig::new(16, 4).unwrap();
        let trace = mmpp()
            .value_trace(4, &PortMix::Uniform, &ValueMix::Uniform { max: 16 })
            .unwrap();
        let exp = ValueExperiment::full_roster(config, 1);
        assert_pool_matches_inline(exp.policies.len(), |obs| {
            exp.run_observed(&trace, obs).unwrap()
        });
    }

    #[test]
    fn combined_roster_on_the_pool_matches_inline_run() {
        let config = WorkSwitchConfig::contiguous(4, 16).unwrap();
        let trace = mmpp()
            .combined_trace(&config, &PortMix::Uniform, &ValueMix::Uniform { max: 16 })
            .unwrap();
        let exp = CombinedExperiment::full_roster(config, 1);
        assert_pool_matches_inline(exp.policies.len(), |obs| {
            exp.run_observed(&trace, obs).unwrap()
        });
    }

    #[test]
    fn value_experiment_runs_roster() {
        let config = ValueSwitchConfig::new(8, 4).unwrap();
        let exp = ValueExperiment::full_roster(config, 1);
        let mut trace = Trace::new();
        for _ in 0..4 {
            let burst: Vec<ValuePacket> = (0..8)
                .map(|i| {
                    ValuePacket::new(
                        PortId::new(i % 4),
                        smbm_switch::Value::new((i % 4) as u64 + 1),
                    )
                })
                .collect();
            trace.push_slot(burst);
        }
        let report = exp.run(&trace).unwrap();
        assert_eq!(report.rows.len(), smbm_core::VALUE_POLICY_NAMES.len());
        for row in &report.rows {
            assert!(row.score > 0, "{} scored zero", row.policy);
        }
    }

    #[test]
    fn combined_experiment_runs_roster() {
        use smbm_switch::{Value, Work};
        let config = WorkSwitchConfig::contiguous(3, 9).unwrap();
        let exp = CombinedExperiment::full_roster(config.clone(), 1);
        let mut trace = Trace::new();
        for _ in 0..4 {
            let burst: Vec<CombinedPacket> = (0..6)
                .map(|i| {
                    let p = PortId::new(i % 3);
                    CombinedPacket::new(p, config.work(p), Value::new((i % 4) as u64 + 1))
                })
                .collect();
            trace.push_slot(burst);
        }
        let _ = Work::new(1); // keep import used in both cfg layouts
        let report = exp.run(&trace).unwrap();
        assert_eq!(report.rows.len(), smbm_core::COMBINED_POLICY_NAMES.len());
        for row in &report.rows {
            assert!(row.score > 0, "{} scored zero", row.policy);
        }
        assert!(report.row("WVD").is_some());
    }

    #[test]
    fn construction_measurement_runs() {
        let c = smbm_traffic::adversarial::bpd_lower_bound(4, 16, 200);
        let r = measure_work_construction(&c).unwrap();
        assert!(r.ratio() > 1.0, "BPD should lose: {}", r.ratio());
        assert!(r.predicted > 1.0);
        assert_eq!(r.policy, "BPD");
    }

    #[test]
    fn value_construction_measurement_runs() {
        let c = smbm_traffic::adversarial::mvd_lower_bound(4, 16, 200);
        let r = measure_value_construction(&c).unwrap();
        assert!(r.ratio() > 1.0, "MVD should lose: {}", r.ratio());
    }
}
