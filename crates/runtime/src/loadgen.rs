//! Load generation: feeds the live datapath from MMPP scenario traffic and
//! reports throughput, the drop breakdown, and ingress latency percentiles.
//!
//! Traces are pregenerated *before* the runtime starts, so the measured
//! window contains only datapath work — ring transfer, admission control,
//! transmission — never trace synthesis.

use std::fmt;

use smbm_core::{
    combined_policy_by_name, value_policy_by_name, work_policy_by_name, DatapathSystem,
};
use smbm_obs::{LogHistogram, TelemetryConfig};
use smbm_switch::{FlushPolicy, ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

use crate::clock::{AnyClock, VirtualClock, WallClock};
use crate::faults::FaultPlan;
use crate::runtime::{
    FlightConfig, RuntimeBuilder, RuntimeConfig, RuntimeReport, SupervisionConfig,
};
use crate::shard::{IngestMode, ShardConfig};

/// Which packet model the datapath serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Heterogeneous processing (Section III): throughput objective.
    Work,
    /// Heterogeneous values (Section IV): value objective.
    Value,
    /// Combined model (extension): per-port work and per-packet value.
    Combined,
}

impl Model {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            Model::Work => "work",
            Model::Value => "value",
            Model::Combined => "combined",
        }
    }

    /// Parses a lowercase label.
    pub fn parse(s: &str) -> Option<Model> {
        match s {
            "work" => Some(Model::Work),
            "value" => Some(Model::Value),
            "combined" => Some(Model::Combined),
            _ => None,
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything the load generator needs to know.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Packet model.
    pub model: Model,
    /// Policy name, resolved through the model's registry
    /// (case-insensitive).
    pub policy: String,
    /// Output ports per shard (`n`; also the paper's `k` under the
    /// contiguous work configuration).
    pub ports: usize,
    /// Shared buffer capacity per shard (`B`).
    pub buffer: usize,
    /// Transmission speedup (`C`).
    pub speedup: u32,
    /// Number of switch shards, each fed by its own producer.
    pub shards: usize,
    /// MMPP trace length per shard, in slots.
    pub slots: usize,
    /// MMPP sources per shard.
    pub sources: usize,
    /// Base RNG seed; shard `s` uses `seed + s`.
    pub seed: u64,
    /// Packets per ingress batch.
    pub batch: usize,
    /// Ingress ring depth, in batches.
    pub ring_capacity: usize,
    /// Pace shard cycles at this rate; `None` runs unpaced (throughput
    /// measurement).
    pub pace_hz: Option<f64>,
    /// Largest packet value (value/combined models).
    pub max_value: u64,
    /// Periodic flushouts, keyed on ingested bursts.
    pub flush: Option<FlushPolicy>,
    /// Use non-blocking sends: a full ring rejects the batch as
    /// backpressure instead of stalling the producer.
    pub lossy: bool,
    /// Attach per-shard histogram metrics to the report.
    pub record_metrics: bool,
    /// Faults to inject during the run (chaos mode); empty injects nothing.
    pub faults: FaultPlan,
    /// Restarts allowed per shard before its supervisor gives up.
    pub restart_budget: u32,
    /// Run the live telemetry plane (per-shard stat cells + background
    /// sampler with optional JSONL/Prometheus sinks) alongside the datapath.
    pub telemetry: Option<TelemetryConfig>,
    /// Attach crash flight recorders and write post-mortem dumps here on
    /// shard deaths.
    pub flight: Option<FlightConfig>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            model: Model::Work,
            policy: "LWD".to_owned(),
            ports: 64,
            buffer: 256,
            speedup: 1,
            shards: 1,
            slots: 20_000,
            sources: 100,
            seed: 0xB0FFE2,
            batch: 256,
            ring_capacity: 64,
            pace_hz: None,
            max_value: 100,
            flush: None,
            lossy: false,
            record_metrics: false,
            faults: FaultPlan::none(),
            restart_budget: 3,
            telemetry: None,
            flight: None,
        }
    }
}

/// A rejected [`LoadgenConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadgenError {
    /// The policy name is not in the model's registry.
    UnknownPolicy {
        /// The model whose registry was consulted.
        model: Model,
        /// The offending name.
        policy: String,
    },
    /// A structural parameter was invalid (ports, buffer, MMPP settings...).
    InvalidConfig(String),
}

impl fmt::Display for LoadgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadgenError::UnknownPolicy { model, policy } => {
                write!(f, "unknown {model}-model policy {policy:?}")
            }
            LoadgenError::InvalidConfig(msg) => write!(f, "invalid loadgen config: {msg}"),
        }
    }
}

impl std::error::Error for LoadgenError {}

/// What a loadgen run produced.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// The model served.
    pub model: Model,
    /// Canonical policy name (registry casing).
    pub policy: String,
    /// Packets pregenerated across all shards' traces.
    pub generated_packets: u64,
    /// The underlying datapath report.
    pub runtime: RuntimeReport,
}

impl LoadgenReport {
    /// Datapath-wide counters (see [`RuntimeReport::counters`]).
    pub fn counters(&self) -> smbm_switch::Counters {
        self.runtime.counters()
    }

    /// Sum of every shard's objective.
    pub fn score(&self) -> u64 {
        self.runtime.score()
    }

    /// Packets through admission control per second of wall time.
    pub fn processed_per_sec(&self) -> f64 {
        self.runtime.processed_per_sec()
    }

    /// All shards' ingress-latency histograms merged (nanoseconds a batch
    /// waited in its ring).
    pub fn ingress_latency_ns(&self) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for shard in &self.runtime.shards {
            merged.merge(&shard.ingress_latency_ns);
        }
        merged
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let c = self.counters();
        let lat = self.ingress_latency_ns();
        let telemetry_samples = self
            .runtime
            .telemetry
            .as_ref()
            .map_or(0, |t| t.samples.len());
        format!(
            "{{\"model\":\"{}\",\"policy\":\"{}\",\"shards\":{},\"generated\":{},\
             \"arrived\":{},\"admitted\":{},\"transmitted\":{},\"score\":{},\
             \"drops\":{{\"switch\":{},\"backpressure\":{},\"shard_failure\":{}}},\
             \"lost\":{},\"restarts\":{},\"orphans\":{},\"gave_up\":{},\
             \"telemetry_samples\":{},\"flight_dumps\":{},\
             \"elapsed_ms\":{:.3},\"packets_per_sec\":{:.0},\
             \"ingress_latency_ns\":{}}}",
            self.model,
            self.policy,
            self.runtime.shards.len(),
            self.generated_packets,
            c.arrived(),
            c.admitted(),
            c.transmitted(),
            self.score(),
            c.dropped_at_switch(),
            c.dropped_backpressure(),
            c.dropped_shard_failure(),
            self.runtime.lost_packets(),
            self.runtime.restarts(),
            self.runtime.orphaned_packets(),
            self.runtime.shards_gave_up(),
            telemetry_samples,
            self.runtime.flight_dumps(),
            self.runtime.elapsed.as_secs_f64() * 1e3,
            self.processed_per_sec(),
            lat.to_json(),
        )
    }
}

impl fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.counters();
        let lat = self.ingress_latency_ns();
        writeln!(
            f,
            "loadgen {} model, policy {}, {} shard(s): {} packets in {:.1} ms \
             ({:.0} packets/sec)",
            self.model,
            self.policy,
            self.runtime.shards.len(),
            c.arrived(),
            self.runtime.elapsed.as_secs_f64() * 1e3,
            self.processed_per_sec(),
        )?;
        writeln!(
            f,
            "  admitted {} | dropped at switch {} | backpressure {} | score {}",
            c.admitted(),
            c.dropped_at_switch(),
            c.dropped_backpressure(),
            self.score(),
        )?;
        if self.runtime.shard_panics > 0 {
            writeln!(
                f,
                "  supervision: {} panic(s), {} restart(s), {} orphaned packet(s), \
                 {} shard-failure drop(s), {} shard(s) abandoned",
                self.runtime.shard_panics,
                self.runtime.restarts(),
                self.runtime.orphaned_packets(),
                c.dropped_shard_failure(),
                self.runtime.shards_gave_up(),
            )?;
            for shard in self
                .runtime
                .shards
                .iter()
                .filter(|s| s.restarts > 0 || s.gave_up)
            {
                writeln!(
                    f,
                    "    shard {}: {} restart(s), {} orphaned packet(s){}",
                    shard.shard,
                    shard.restarts,
                    shard.orphaned_packets,
                    if shard.gave_up { ", gave up" } else { "" },
                )?;
            }
        }
        if let Some(t) = &self.runtime.telemetry {
            writeln!(
                f,
                "  telemetry: {} sample(s) retained over {} tick(s)",
                t.samples.len(),
                t.ticks,
            )?;
        }
        if self.runtime.flight_dumps() > 0 {
            writeln!(
                f,
                "  flight recorder: {} post-mortem dump(s)",
                self.runtime.flight_dumps(),
            )?;
        }
        for err in &self.runtime.obs_errors {
            writeln!(f, "  observability error: {err}")?;
        }
        write!(
            f,
            "  ingress latency p50 {} ns, p99 {} ns, max {} ns",
            lat.p50(),
            lat.p99(),
            lat.max(),
        )
    }
}

fn validate(config: &LoadgenConfig) -> Result<(), LoadgenError> {
    if config.ports == 0 {
        return Err(LoadgenError::InvalidConfig("ports must be positive".into()));
    }
    if config.buffer < config.ports {
        return Err(LoadgenError::InvalidConfig(format!(
            "buffer {} smaller than ports {}",
            config.buffer, config.ports
        )));
    }
    if config.shards == 0 {
        return Err(LoadgenError::InvalidConfig(
            "at least one shard required".into(),
        ));
    }
    if config.batch == 0 {
        return Err(LoadgenError::InvalidConfig("batch must be positive".into()));
    }
    if config.speedup == 0 {
        return Err(LoadgenError::InvalidConfig(
            "speedup must be positive".into(),
        ));
    }
    if let Some(hz) = config.pace_hz {
        if !(hz.is_finite() && hz > 0.0) {
            return Err(LoadgenError::InvalidConfig(
                "pace rate must be positive".into(),
            ));
        }
    }
    Ok(())
}

fn scenario_for(config: &LoadgenConfig, shard: usize) -> MmppScenario {
    MmppScenario {
        sources: config.sources,
        slots: config.slots,
        seed: config.seed.wrapping_add(shard as u64),
        ..MmppScenario::default()
    }
}

/// Builds the datapath from per-shard service factories and pregenerated
/// batch feeds, runs it, and wraps the report.
fn drive<S: DatapathSystem + 'static>(
    config: &LoadgenConfig,
    policy: String,
    factories: Vec<Box<dyn Fn() -> S + Send>>,
    feeds: Vec<Vec<Vec<S::Packet>>>,
) -> LoadgenReport {
    let generated_packets: u64 = feeds.iter().flatten().map(|batch| batch.len() as u64).sum();
    let mut builder = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: config.ring_capacity,
        shard: ShardConfig {
            mode: IngestMode::Freerun,
            flush: config.flush,
            drain_at_end: true,
        },
        record_metrics: config.record_metrics,
        faults: config.faults.clone(),
        supervision: SupervisionConfig {
            restart_budget: config.restart_budget,
            ..SupervisionConfig::default()
        },
        telemetry: config.telemetry.clone(),
        flight: config.flight.clone(),
    });
    let lossy = config.lossy;
    for (factory, batches) in factories.into_iter().zip(feeds) {
        let id = builder.add_shard(factory);
        builder.add_producer(id, move |handle| {
            for batch in batches {
                if lossy {
                    handle.try_send(batch);
                } else if !handle.send(batch) {
                    break;
                }
            }
        });
    }
    let pace_hz = config.pace_hz;
    let runtime = builder.run(|_| match pace_hz {
        Some(hz) => AnyClock::Wall(WallClock::from_hz(hz)),
        None => AnyClock::Virtual(VirtualClock::new()),
    });
    LoadgenReport {
        model: config.model,
        policy,
        generated_packets,
        runtime,
    }
}

/// Runs one load-generation experiment: per shard, pregenerate an MMPP
/// trace, then feed it through the live datapath and measure.
///
/// # Errors
///
/// Returns [`LoadgenError`] for an unknown policy or invalid parameters;
/// nothing is spawned in that case.
pub fn run_loadgen(config: &LoadgenConfig) -> Result<LoadgenReport, LoadgenError> {
    validate(config)?;
    let invalid = |e: &dyn fmt::Display| LoadgenError::InvalidConfig(e.to_string());
    match config.model {
        Model::Work => {
            let canonical = work_policy_by_name(&config.policy)
                .ok_or_else(|| LoadgenError::UnknownPolicy {
                    model: config.model,
                    policy: config.policy.clone(),
                })?
                .name()
                .to_owned();
            let switch_cfg = WorkSwitchConfig::contiguous(config.ports as u32, config.buffer)
                .map_err(|e| invalid(&e))?;
            let mut factories: Vec<Box<dyn Fn() -> _ + Send>> = Vec::new();
            let mut feeds = Vec::new();
            for shard in 0..config.shards {
                let trace = scenario_for(config, shard)
                    .work_trace(&switch_cfg, &PortMix::Uniform)
                    .map_err(|e| invalid(&e))?;
                feeds.push(trace.batches(config.batch).collect::<Vec<_>>());
                let cfg = switch_cfg.clone();
                let name = canonical.clone();
                let speedup = config.speedup;
                factories.push(Box::new(move || {
                    let policy = work_policy_by_name(&name).expect("validated above");
                    smbm_core::WorkRunner::new(cfg.clone(), policy, speedup)
                }));
            }
            Ok(drive(config, canonical, factories, feeds))
        }
        Model::Value => {
            let canonical = value_policy_by_name(&config.policy)
                .ok_or_else(|| LoadgenError::UnknownPolicy {
                    model: config.model,
                    policy: config.policy.clone(),
                })?
                .name()
                .to_owned();
            let switch_cfg =
                ValueSwitchConfig::new(config.buffer, config.ports).map_err(|e| invalid(&e))?;
            let value_mix = ValueMix::Uniform {
                max: config.max_value,
            };
            let mut factories: Vec<Box<dyn Fn() -> _ + Send>> = Vec::new();
            let mut feeds = Vec::new();
            for shard in 0..config.shards {
                let trace = scenario_for(config, shard)
                    .value_trace(config.ports, &PortMix::Uniform, &value_mix)
                    .map_err(|e| invalid(&e))?;
                feeds.push(trace.batches(config.batch).collect::<Vec<_>>());
                let name = canonical.clone();
                let speedup = config.speedup;
                factories.push(Box::new(move || {
                    let policy = value_policy_by_name(&name).expect("validated above");
                    smbm_core::ValueRunner::new(switch_cfg, policy, speedup)
                }));
            }
            Ok(drive(config, canonical, factories, feeds))
        }
        Model::Combined => {
            let canonical = combined_policy_by_name(&config.policy)
                .ok_or_else(|| LoadgenError::UnknownPolicy {
                    model: config.model,
                    policy: config.policy.clone(),
                })?
                .name()
                .to_owned();
            let switch_cfg = WorkSwitchConfig::contiguous(config.ports as u32, config.buffer)
                .map_err(|e| invalid(&e))?;
            let value_mix = ValueMix::Uniform {
                max: config.max_value,
            };
            let mut factories: Vec<Box<dyn Fn() -> _ + Send>> = Vec::new();
            let mut feeds = Vec::new();
            for shard in 0..config.shards {
                let trace = scenario_for(config, shard)
                    .combined_trace(&switch_cfg, &PortMix::Uniform, &value_mix)
                    .map_err(|e| invalid(&e))?;
                feeds.push(trace.batches(config.batch).collect::<Vec<_>>());
                let cfg = switch_cfg.clone();
                let name = canonical.clone();
                let speedup = config.speedup;
                factories.push(Box::new(move || {
                    let policy = combined_policy_by_name(&name).expect("validated above");
                    smbm_core::CombinedRunner::new(cfg.clone(), policy, speedup)
                }));
            }
            Ok(drive(config, canonical, factories, feeds))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(model: Model, policy: &str) -> LoadgenConfig {
        LoadgenConfig {
            model,
            policy: policy.to_owned(),
            ports: 4,
            buffer: 16,
            slots: 200,
            sources: 10,
            batch: 16,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn work_loadgen_conserves_packets() {
        let report = run_loadgen(&small(Model::Work, "lwd")).unwrap();
        assert_eq!(report.policy, "LWD");
        let c = report.counters();
        assert!(c.arrived() > 0);
        assert_eq!(c.arrived(), report.generated_packets, "lossless mode");
        assert!(c.check_conservation(0).is_ok());
        assert_eq!(report.runtime.shard_panics, 0);
    }

    #[test]
    fn value_loadgen_scores_value() {
        let report = run_loadgen(&small(Model::Value, "mrd")).unwrap();
        assert!(report.score() > 0);
        assert!(report.counters().check_conservation(0).is_ok());
    }

    #[test]
    fn combined_loadgen_runs() {
        let report = run_loadgen(&small(Model::Combined, "wvd")).unwrap();
        assert!(report.score() > 0);
    }

    #[test]
    fn sharded_loadgen_partitions_traffic() {
        let mut cfg = small(Model::Work, "lwd");
        cfg.shards = 2;
        let report = run_loadgen(&cfg).unwrap();
        assert_eq!(report.runtime.shards.len(), 2);
        assert_eq!(report.counters().arrived(), report.generated_packets);
        // Different per-shard seeds: the shards should not see identical
        // traffic.
        let a = &report.runtime.shards[0];
        let b = &report.runtime.shards[1];
        assert_ne!(
            (a.counters.arrived(), a.score),
            (b.counters.arrived(), b.score)
        );
    }

    #[test]
    fn unknown_policy_is_rejected_upfront() {
        let err = run_loadgen(&small(Model::Work, "mrd")).unwrap_err();
        assert!(matches!(err, LoadgenError::UnknownPolicy { .. }));
        assert!(err.to_string().contains("mrd"));
    }

    #[test]
    fn invalid_shape_is_rejected() {
        let mut cfg = small(Model::Work, "lwd");
        cfg.buffer = 1;
        assert!(matches!(
            run_loadgen(&cfg),
            Err(LoadgenError::InvalidConfig(_))
        ));
    }

    #[test]
    fn loadgen_passes_telemetry_through_to_the_runtime() {
        let mut cfg = small(Model::Work, "lwd");
        cfg.telemetry = Some(TelemetryConfig {
            interval: std::time::Duration::from_secs(3600),
            ..TelemetryConfig::default()
        });
        let report = run_loadgen(&cfg).unwrap();
        assert!(report.runtime.obs_errors.is_empty());
        let t = report.runtime.telemetry.as_ref().expect("telemetry ran");
        let last = t.last().expect("final sample");
        assert_eq!(last.total.arrived, report.counters().arrived());
        let json = report.to_json();
        assert!(json.contains("\"telemetry_samples\":"), "{json}");
        assert!(json.contains("\"flight_dumps\":0"), "{json}");
        assert!(report.to_string().contains("telemetry:"));
    }

    #[test]
    fn report_json_has_throughput_fields() {
        let report = run_loadgen(&small(Model::Work, "lwd")).unwrap();
        let json = report.to_json();
        for key in [
            "\"model\":\"work\"",
            "\"policy\":\"LWD\"",
            "\"packets_per_sec\"",
            "\"backpressure\"",
            "\"ingress_latency_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!report.to_string().is_empty());
    }
}
