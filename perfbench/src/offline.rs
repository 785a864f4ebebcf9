//! The offline Fig. 5 workload: the full work, value and combined rosters
//! (plus their OPT surrogates) over one pregenerated MMPP trace each, at the
//! default-scale Fig. 5 point with `B = 64`, on one thread.

use std::time::Instant;

use smbm_core::{
    combined_policy_by_name, value_policy_by_name, work_policy_by_name, CombinedPqOpt,
    CombinedRunner, CombinedSystem, ValuePqOpt, ValueRunner, ValueSystem, WorkPqOpt, WorkRunner,
    WorkSystem,
};
use smbm_sim::{
    run_combined, run_value, run_work, CombinedExperiment, EngineConfig, ExperimentReport,
    FlushPolicy, RunSummary, ValueExperiment, WorkExperiment,
};
use smbm_switch::{
    CombinedPacket, Counters, ValuePacket, ValueSwitchConfig, WorkPacket, WorkSwitchConfig,
};
use smbm_traffic::{MmppParams, MmppScenario, PortMix, Trace, ValueMix};

use crate::probe::{SpanId, Tracer};

/// Slots per trace at Fig. 5's default scale.
pub const SLOTS: usize = 50_000;
/// The Fig. 5 default-scale point: `k = n = 8` ports, `B = 64`, `C = 1`,
/// values uniform in `1..=16`, flushout every 10,000 slots.
const PORTS: usize = 8;
const BUFFER: usize = 64;
const MAX_VALUE: u64 = 16;
const FLUSH_PERIOD: u64 = 10_000;
const WORK_SOURCES: usize = 12;
const VALUE_SOURCES: usize = 32;

/// The three experiments and their traces.
pub struct Fig5 {
    pub work: WorkExperiment,
    pub work_trace: Trace<WorkPacket>,
    pub value: ValueExperiment,
    pub value_trace: Trace<ValuePacket>,
    pub combined: CombinedExperiment,
    pub combined_trace: Trace<CombinedPacket>,
}

fn scenario(sources: usize, slots: usize, seed: u64) -> MmppScenario {
    MmppScenario {
        sources,
        params: MmppParams {
            lambda_on: 2.0,
            p_on_to_off: 0.1,
            p_off_to_on: 1.0 / 30.0,
        },
        slots,
        seed,
    }
}

fn engine() -> EngineConfig {
    EngineConfig {
        flush: Some(FlushPolicy::every(FLUSH_PERIOD)),
        drain_at_end: true,
    }
}

impl Fig5 {
    /// Generates the three traces from `seed` and builds the rosters.
    pub fn setup(seed: u64, slots: usize, tracer: &Tracer, parent: Option<SpanId>) -> Fig5 {
        let work_cfg = WorkSwitchConfig::contiguous(PORTS as u32, BUFFER).expect("valid point");
        let value_cfg = ValueSwitchConfig::new(BUFFER, PORTS).expect("valid point");
        let values = ValueMix::Uniform { max: MAX_VALUE };
        let span = tracer.begin("traffic.mmpp_trace", parent);
        let work_trace = scenario(WORK_SOURCES, slots, seed)
            .work_trace(&work_cfg, &PortMix::Uniform)
            .expect("valid work scenario");
        let value_trace = scenario(VALUE_SOURCES, slots, seed)
            .value_trace(PORTS, &PortMix::Uniform, &values)
            .expect("valid value scenario");
        let combined_trace = scenario(WORK_SOURCES, slots, seed)
            .combined_trace(&work_cfg, &PortMix::Uniform, &values)
            .expect("valid combined scenario");
        tracer.end(span);
        let mut work = WorkExperiment::full_roster(work_cfg.clone(), 1);
        work.engine = engine();
        let mut value = ValueExperiment::full_roster(value_cfg, 1);
        value.engine = engine();
        let mut combined = CombinedExperiment::full_roster(work_cfg, 1);
        combined.engine = engine();
        Fig5 {
            work,
            work_trace,
            value,
            value_trace,
            combined,
            combined_trace,
        }
    }

    /// Packets offered per full pass: every trace's arrivals once per
    /// roster entry, the OPT surrogate included.
    pub fn packets_per_pass(&self) -> u64 {
        let entries = |n: usize| n as u64 + 1;
        self.work_trace.arrivals() as u64 * entries(self.work.policies.len())
            + self.value_trace.arrivals() as u64 * entries(self.value.policies.len())
            + self.combined_trace.arrivals() as u64 * entries(self.combined.policies.len())
    }

    /// Runs the three experiments once; returns their reports and wall
    /// times in seconds.
    pub fn pass(
        &self,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> ([ExperimentReport; 3], [f64; 3]) {
        let timed = |name, f: &dyn Fn() -> ExperimentReport| {
            let span = tracer.begin(name, parent);
            let t = Instant::now();
            let r = f();
            let s = t.elapsed().as_secs_f64();
            tracer.end(span);
            (r, s)
        };
        let (w, ws) = timed("sim.work_experiment", &|| {
            self.work.run(&self.work_trace).expect("work roster runs")
        });
        let (v, vs) = timed("sim.value_experiment", &|| {
            self.value
                .run(&self.value_trace)
                .expect("value roster runs")
        });
        let (c, cs) = timed("sim.combined_experiment", &|| {
            self.combined
                .run(&self.combined_trace)
                .expect("combined roster runs")
        });
        ([w, v, c], [ws, vs, cs])
    }

    /// Runs every roster entry and OPT surrogate on its own through the sim
    /// engine: checks each policy's counters for conservation and its score
    /// against `reports`, and times each entry. Returns
    /// `(metric name, ns per slot)` pairs and the failed checks.
    pub fn roster_replay(
        &self,
        reports: &[ExperimentReport; 3],
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> (Vec<(String, f64)>, Vec<String>) {
        let mut times = Vec::new();
        let mut failures = Vec::new();
        let engine = engine();
        // One roster entry: `run` builds the system, runs it and returns its
        // label, run summary and (for policies) switch counters.
        let mut entry =
            |model: &str,
             want: u64,
             run: &mut dyn FnMut() -> (String, RunSummary, Option<Counters>)| {
                let span = tracer.begin("sim.roster_entry", parent);
                let t = Instant::now();
                let (label, summary, counters) = run();
                let ns = t.elapsed().as_nanos() as f64 / summary.slots.max(1) as f64;
                tracer.end(span);
                times.push((
                    format!("sim.{model}.{}.ns_per_slot", metric_label(&label)),
                    ns,
                ));
                if summary.score != want {
                    failures.push(format!(
                        "{model} {label}: score {} alone, {want} in its roster",
                        summary.score
                    ));
                }
                if let Some(c) = counters {
                    let value_law = if model == "work" {
                        Ok(())
                    } else {
                        c.check_value_conservation(0)
                    };
                    if let Err(e) = c.check_conservation(0).and(value_law) {
                        failures.push(format!("{model} {label}: {e:?}"));
                    }
                }
            };

        let (cfg, trace) = (&self.work.config, &self.work_trace);
        entry("work", reports[0].opt_score, &mut || {
            let mut opt = WorkPqOpt::new(cfg.buffer(), cfg.ports() as u32);
            let r = run_work(&mut opt, trace, &engine).expect("OPT runs");
            (opt.label(), r, None)
        });
        for (name, row) in self.work.policies.iter().zip(&reports[0].rows) {
            entry("work", row.score, &mut || {
                let policy = work_policy_by_name(name).expect("registered");
                let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
                let r = run_work(&mut runner, trace, &engine).expect("policy runs");
                (runner.label(), r, Some(*runner.switch().counters()))
            });
        }

        let (cfg, trace) = (self.value.config, &self.value_trace);
        entry("value", reports[1].opt_score, &mut || {
            let mut opt = ValuePqOpt::new(cfg.buffer(), cfg.ports() as u32);
            let r = run_value(&mut opt, trace, &engine).expect("OPT runs");
            (opt.label(), r, None)
        });
        for (name, row) in self.value.policies.iter().zip(&reports[1].rows) {
            entry("value", row.score, &mut || {
                let policy = value_policy_by_name(name).expect("registered");
                let mut runner = ValueRunner::new(cfg, policy, 1);
                let r = run_value(&mut runner, trace, &engine).expect("policy runs");
                (runner.label(), r, Some(*runner.switch().counters()))
            });
        }

        let (cfg, trace) = (&self.combined.config, &self.combined_trace);
        entry("combined", reports[2].opt_score, &mut || {
            let mut opt = CombinedPqOpt::new(cfg.buffer(), cfg.ports() as u32);
            let r = run_combined(&mut opt, trace, &engine).expect("OPT runs");
            (opt.label(), r, None)
        });
        for (name, row) in self.combined.policies.iter().zip(&reports[2].rows) {
            entry("combined", row.score, &mut || {
                let policy = combined_policy_by_name(name).expect("registered");
                let mut runner = CombinedRunner::new(cfg.clone(), policy, 1);
                let r = run_combined(&mut runner, trace, &engine).expect("policy runs");
                (runner.label(), r, Some(*runner.switch().counters()))
            });
        }
        (times, failures)
    }
}

/// A roster label as a metric name component: lowercase, with every
/// character outside `[a-z0-9_.-]` mapped to `-` and trailing dashes cut
/// (`OPT(pq,8cores)` becomes `opt-pq-8cores`).
fn metric_label(label: &str) -> String {
    let mapped: String = label
        .to_ascii_lowercase()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    mapped.trim_end_matches('-').to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_become_metric_names() {
        assert_eq!(metric_label("OPT(pq,8cores)"), "opt-pq-8cores");
        assert_eq!(metric_label("MVD-D"), "mvd-d");
        assert_eq!(metric_label("NEST-V"), "nest-v");
    }
}
