//! Experiments: run a roster of policies plus the OPT surrogate over one
//! trace and report empirical competitive ratios.

use std::sync::Mutex;

use smbm_core::{Capped, CompetitiveRatio, DatapathSystem, PacketModel, Runner};
use smbm_switch::{AdmitError, CombinedQueue, Counters, ValueQueue, WorkQueue};
use smbm_traffic::adversarial::Construction;
use smbm_traffic::Trace;

use smbm_obs::{NullObserver, Observer};

use crate::engine::{run, run_observed, EngineConfig};
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

/// An experiment in the packet model `Q`: a switch configuration, a
/// speedup, and a roster of policies compared against the model's OPT
/// surrogate ([`PacketModel::opt`]) with `ports * speedup` cores, the
/// paper's yardstick (§V).
#[derive(Debug, Clone)]
pub struct Experiment<Q: PacketModel> {
    /// Switch configuration shared by every contender.
    pub config: Q::Config,
    /// Cores per queue (`C` in Fig. 5).
    pub speedup: u32,
    /// Policy roster (registry keys).
    pub policies: Vec<String>,
    /// Engine settings (flushouts, final drain).
    pub engine: EngineConfig,
}

/// A work-model experiment.
pub type WorkExperiment = Experiment<WorkQueue>;

/// A value-model experiment.
pub type ValueExperiment = Experiment<ValueQueue>;

/// A combined-model experiment (extension): roster versus the density-greedy
/// OPT surrogate.
pub type CombinedExperiment = Experiment<CombinedQueue>;

impl<Q: PacketModel> Experiment<Q> {
    /// Creates an experiment with the model's full paper roster
    /// ([`PacketModel::POLICY_NAMES`]).
    pub fn full_roster(config: Q::Config, speedup: u32) -> Self {
        Experiment {
            config,
            speedup,
            policies: Q::POLICY_NAMES.iter().map(|s| s.to_string()).collect(),
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
    pub fn run(&self, trace: &Trace<Q::Packet>) -> Result<ExperimentReport, ExperimentError> {
        let mut nulls = vec![NullObserver; self.policies.len()];
        self.run_observed(trace, &mut nulls)
    }

    /// Like [`Experiment::run`], attaching `observers[i]` to the run of
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
        trace: &Trace<Q::Packet>,
        observers: &mut [O],
    ) -> Result<ExperimentReport, ExperimentError> {
        let names = &self.policies;
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
                let policy = Q::policy_by_name(name)
                    .ok_or_else(|| ExperimentError::UnknownPolicy(name.clone()))?;
                Ok(Mutex::new(Some((policy, obs))))
            })
            .collect::<Result<Vec<_>, ExperimentError>>()?;
        let cores = Q::ports(&self.config) as u32 * self.speedup;
        // Entry 0 is the OPT surrogate; entry `i` runs `names[i - 1]`.
        let mut results = par_map(names.len() + 1, available_parallelism(), |i| {
            if i == 0 {
                let mut opt = Q::opt(Q::buffer(&self.config), cores);
                return tally(&mut opt, trace, &self.engine, &mut NullObserver);
            }
            let (policy, obs) = tasks[i - 1]
                .lock()
                .expect("no panics hold the lock")
                .take()
                .expect("each entry runs once");
            let mut runner = Runner::new(self.config.clone(), policy, self.speedup);
            tally(&mut runner, trace, &self.engine, obs)
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
}

/// Runs one roster entry over `trace`: its score and the counters it kept.
fn tally<S: DatapathSystem, O: Observer>(
    sys: &mut S,
    trace: &Trace<S::Packet>,
    engine: &EngineConfig,
    obs: &mut O,
) -> Result<(u64, Counters), AdmitError> {
    let score = run_observed(&mut *sys, trace, engine, obs)?.score;
    Ok((score, sys.counters()))
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

/// Replays a lower-bound construction: the target policy versus the
/// proof's scripted OPT ([`Capped`] at the per-queue caps), over the same
/// trace, counting only in-horizon transmissions (no final drain — the
/// constructions are built to leave the policy clogged).
///
/// # Errors
///
/// Returns [`ExperimentError`] for unknown target policies or invalid
/// decisions.
pub fn measure_construction<Q: PacketModel>(
    c: &Construction<Q>,
) -> Result<ConstructionReport, ExperimentError> {
    let engine = EngineConfig::horizon_only();
    let policy = Q::policy_by_name(c.target_policy)
        .ok_or_else(|| ExperimentError::UnknownPolicy(c.target_policy.to_string()))?;
    let mut alg = Runner::new(c.config.clone(), policy, 1);
    let alg_score = run(&mut alg, &c.trace, &engine)?.score;
    let mut opt = Runner::<Q, _>::new(c.config.clone(), Capped::new(c.opt_caps.clone()), 1);
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
    use smbm_switch::{
        CombinedPacket, PortId, ValuePacket, ValueSwitchConfig, Work, WorkPacket, WorkSwitchConfig,
    };
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
        let r = measure_construction(&c).unwrap();
        assert!(r.ratio() > 1.0, "BPD should lose: {}", r.ratio());
        assert!(r.predicted > 1.0);
        assert_eq!(r.policy, "BPD");
    }

    #[test]
    fn value_construction_measurement_runs() {
        let c = smbm_traffic::adversarial::mvd_lower_bound(4, 16, 200);
        let r = measure_construction(&c).unwrap();
        assert!(r.ratio() > 1.0, "MVD should lose: {}", r.ratio());
    }
}
