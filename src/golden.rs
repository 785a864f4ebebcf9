//! The seeded runs pinned by `tests/golden.rs` and printed by
//! `examples/regen_golden.rs`.
//!
//! Each model runs its whole policy roster over one fixed MMPP trace in two
//! settings: the plain one ([`Setting::Plain`]: speedup 1, no flushouts)
//! and a stressed one ([`Setting::Stressed`]: speedup 2 with a dropping
//! flushout every 2,000 slots), so multi-cycle transmission and flush
//! accounting are pinned as well as the score. Every run ends with a final
//! drain.

use smbm_core::{PacketModel, Runner};
use smbm_sim::{run, EngineConfig, FlushPolicy};
use smbm_switch::{
    CombinedQueue, Counters, QueueDiscipline, Switch, ValueQueue, ValueSwitchConfig, WorkQueue,
    WorkSwitchConfig,
};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

/// Seed of every golden trace.
const SEED: u64 = 0xC0FFEE;

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

/// Runs the roster of the model `Q` ([`PacketModel::POLICY_NAMES`], in table
/// order) under `setting` on `cfg`, over one MMPP trace from `sources`
/// sources with values uniform in `1..=12` where packets carry them.
fn rows<Q: PacketModel>(setting: Setting, cfg: Q::Config, sources: usize) -> Vec<GoldenRow> {
    let trace = scenario(sources)
        .trace::<Q>(&cfg, &PortMix::Uniform, &ValueMix::Uniform { max: 12 })
        .expect("valid golden scenario");
    Q::POLICY_NAMES
        .iter()
        .map(|&name| {
            let policy = Q::policy_by_name(name).expect("roster policy");
            let mut runner = Runner::<Q, _>::new(cfg.clone(), policy, setting.speedup());
            let run = run(&mut runner, &trace, &setting.engine()).expect("valid decisions");
            row(name, run.score, runner.switch())
        })
        .collect()
}

/// Runs the work roster under `setting`.
pub fn work_rows(setting: Setting) -> Vec<GoldenRow> {
    rows::<WorkQueue>(setting, work_config(), 10)
}

/// Runs the value roster under `setting`: six ports, `B = 32`.
pub fn value_rows(setting: Setting) -> Vec<GoldenRow> {
    let cfg = ValueSwitchConfig::new(32, 6).expect("valid golden config");
    rows::<ValueQueue>(setting, cfg, 24)
}

/// Runs the combined roster under `setting`, on the work-model
/// configuration.
pub fn combined_rows(setting: Setting) -> Vec<GoldenRow> {
    rows::<CombinedQueue>(setting, work_config(), 10)
}
