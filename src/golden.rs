//! The seeded runs pinned by `tests/golden.rs` and printed by
//! `examples/regen_golden.rs`.
//!
//! Each model runs its whole policy roster over one fixed MMPP trace in two
//! settings: the plain one ([`Setting::Plain`]: speedup 1, no flushouts)
//! and a stressed one ([`Setting::Stressed`]: speedup 2 with a dropping
//! flushout every 2,000 slots), so multi-cycle transmission and flush
//! accounting are pinned as well as the score. Every run ends with a final
//! drain.

use smbm_core::{
    combined_policy_by_name, value_policy_by_name, work_policy_by_name, CombinedRunner,
    ValueRunner, WorkRunner,
};
use smbm_sim::{run, EngineConfig, FlushPolicy};
use smbm_switch::{Counters, QueueDiscipline, Switch, ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

/// Seed of every golden trace.
const SEED: u64 = 0xC0FFEE;

/// The work-model roster, in table order.
const WORK_ROSTER: [&str; 7] = ["NHST", "NEST", "NHDT", "LQD", "BPD", "BPD1", "LWD"];
/// The value-model roster, in table order.
const VALUE_ROSTER: [&str; 7] = ["GREEDY", "NEST-V", "NHST-V", "LQD", "MVD", "MVD1", "MRD"];
/// The combined-model roster, in table order.
const COMBINED_ROSTER: [&str; 5] = ["GREEDY", "LQD", "LWD", "MVD-D", "WVD"];

/// The two engine settings every roster runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// Speedup 1, no flushouts.
    Plain,
    /// Speedup 2, a dropping flushout every 2,000 slots.
    Stressed,
}

impl Setting {
    fn speedup(self) -> u32 {
        match self {
            Setting::Plain => 1,
            Setting::Stressed => 2,
        }
    }

    fn engine(self) -> EngineConfig {
        let flush = match self {
            Setting::Plain => None,
            Setting::Stressed => Some(FlushPolicy::every(2_000).dropping()),
        };
        EngineConfig {
            flush,
            ..EngineConfig::draining()
        }
    }
}

/// What one policy's run pins: its score, every [`Counters`] field, and
/// the packets transmitted per output port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRow {
    /// Policy name.
    pub name: &'static str,
    /// Final score: packets (work model) or value (value, combined).
    pub score: u64,
    /// Every `Counters` field, in declaration order.
    pub counters: Vec<u64>,
    /// `transmitted_per_port`, indexed by port.
    pub per_port: Vec<u64>,
}

impl GoldenRow {
    /// The row as a Rust tuple literal, the form `tests/golden.rs` pins.
    pub fn literal(&self) -> String {
        format!(
            "(\"{}\", {}, {:?}, {:?}),",
            self.name, self.score, self.counters, self.per_port
        )
    }
}

/// Every field of `c`, in declaration order, read off its `Debug` form so a
/// field added later is pinned too.
fn counter_fields(c: &Counters) -> Vec<u64> {
    format!("{c:?}")
        .split(|ch: char| !ch.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("digit run"))
        .collect()
}

fn scenario(sources: usize) -> MmppScenario {
    MmppScenario {
        sources,
        slots: 8_000,
        seed: SEED,
        ..Default::default()
    }
}

/// The work-model configuration: six ports with works `1..=6`, `B = 32`.
fn work_config() -> WorkSwitchConfig {
    WorkSwitchConfig::contiguous(6, 32).expect("valid golden config")
}

fn row<Q: QueueDiscipline>(name: &'static str, score: u64, sw: &Switch<Q>) -> GoldenRow {
    GoldenRow {
        name,
        score,
        counters: counter_fields(sw.counters()),
        per_port: sw.transmitted_per_port().to_vec(),
    }
}

/// Runs the work roster under `setting`.
pub fn work_rows(setting: Setting) -> Vec<GoldenRow> {
    let cfg = work_config();
    let trace = scenario(10)
        .work_trace(&cfg, &PortMix::Uniform)
        .expect("valid golden scenario");
    WORK_ROSTER
        .iter()
        .map(|&name| {
            let policy = work_policy_by_name(name).expect("roster policy");
            let mut runner = WorkRunner::new(cfg.clone(), policy, setting.speedup());
            let run = run(&mut runner, &trace, &setting.engine()).expect("valid decisions");
            row(name, run.score, runner.switch())
        })
        .collect()
}

/// Runs the value roster under `setting`: six ports, `B = 32`.
pub fn value_rows(setting: Setting) -> Vec<GoldenRow> {
    let cfg = ValueSwitchConfig::new(32, 6).expect("valid golden config");
    let trace = scenario(24)
        .value_trace(6, &PortMix::Uniform, &ValueMix::Uniform { max: 12 })
        .expect("valid golden scenario");
    VALUE_ROSTER
        .iter()
        .map(|&name| {
            let policy = value_policy_by_name(name).expect("roster policy");
            let mut runner = ValueRunner::new(cfg, policy, setting.speedup());
            let run = run(&mut runner, &trace, &setting.engine()).expect("valid decisions");
            row(name, run.score, runner.switch())
        })
        .collect()
}

/// Runs the combined roster under `setting`, on the work-model
/// configuration.
pub fn combined_rows(setting: Setting) -> Vec<GoldenRow> {
    let cfg = work_config();
    let trace = scenario(10)
        .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::Uniform { max: 12 })
        .expect("valid golden scenario");
    COMBINED_ROSTER
        .iter()
        .map(|&name| {
            let policy = combined_policy_by_name(name).expect("roster policy");
            let mut runner = CombinedRunner::new(cfg.clone(), policy, setting.speedup());
            let run = run(&mut runner, &trace, &setting.engine()).expect("valid decisions");
            row(name, run.score, runner.switch())
        })
        .collect()
}
