//! The `smbm` commands as pure functions: parsed arguments in, report text
//! out.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use smbm_obs::{HistogramRecorder, PhaseProfiler, RingEventLog, TelemetryConfig};
use smbm_runtime::{FaultPlan, FlightConfig};
use smbm_sim::{
    measure_value_construction, measure_work_construction, CombinedExperiment, ValueExperiment,
    WorkExperiment,
};
use smbm_switch::{ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{adversarial, MmppScenario, PortMix, Summarize, Trace, ValueMix};

use crate::args::Args;

/// The top-level help text.
pub const HELP: &str = "\
smbm — shared-memory buffer management simulator (ICDCS 2014 reproduction)

commands:
  work-run    run the heterogeneous-processing roster on MMPP traffic
  value-run   run the heterogeneous-value roster on MMPP traffic
  bounds      replay theorem lower-bound constructions
  combined-run run the combined work+value roster (extension)
  panel       regenerate a Fig. 5 panel as CSV (--panel 1..9; --jobs N caps
              the total number of worker threads, default: all CPUs)
  trace-gen   generate a work-model MMPP trace (text format) on stdout
  trace-stats summarize a work-model trace (--file PATH, or text via stdin)
  serve       replay a trace through the live datapath, lockstep with the
              sim engine (--file PATH or text via stdin; --model work|value)
              — or, with --listen ADDR[,ADDR...], serve the datapath over
              real UDP sockets until every expected client has FINed
  netgen      drive MMPP traffic at a `serve --listen` server over UDP
              (--targets HOST:PORT[,..], --clients N, --json)
  loadgen     drive the live sharded datapath with MMPP traffic and report
              throughput, drop breakdown, and ingress latency percentiles
  help        show this message

flags are `--name value`; see the crate README for the full list.
observability (work-run, value-run, combined-run):
  --events-out PATH   write per-policy engine events as JSON Lines
  --metrics-out PATH  write per-policy histogram metrics as JSON
  --profile           print per-phase wall-clock profiles
runtime (serve, loadgen):
  --hz RATE           pace shard cycles at RATE per second (default unpaced)
  --lossy             loadgen: full rings reject batches as backpressure
  --json              loadgen: emit the report as one JSON object
  --faults SPEC       inject faults: comma-separated KIND@SLOT[*PARAM][#SHARD]
                      with KIND one of panic, stall, sat, skew — or
                      random:SEED for one generated fault per shard
  --restarts N        shard restart budget before the supervisor gives up
                      (default 3)
network (serve --listen, netgen):
  --listen ADDR       serve: bind ADDR[,ADDR...]; one receive thread each
  --targets ADDRS     netgen: server sockets; client i targets the i-th,
                      round-robin
  --clients N         serve: clients expected before shutdown; netgen:
                      concurrent client threads (default 1)
  --fanout MODE       serve: packet-to-shard routing, port|hash
                      (default port)
  --idle-timeout S    serve: exit a receive loop idle for S seconds
                      (default 10)
  --net-batch N       serve: decoded packets buffered per shard before being
                      published as one ring batch (default 256)
  --window N          netgen: data datagrams between SYNC flow-control
                      barriers (default 32)
  --garbage N         netgen: header-corrupt datagrams per client (decode
                      errors on the server, no declared frames)
telemetry (serve, loadgen):
  --stats-out PATH    append one telemetry snapshot per sample as JSON Lines
  --stats-interval S  sampling cadence in seconds (default 0.25)
  --prom-out PATH     rewrite PATH with a Prometheus text-format dump each
                      sample (atomic rename; point a scraper at the file)
  --stats-ring N      in-memory samples retained in the report (default 1024)
  --flight-out PATH   write flight-recorder post-mortem dumps (JSONL) on
                      every shard death
  --flight-cap N      events retained per shard's flight ring (default 256)";

/// Executes one command. `stdin` supplies the input text for commands that
/// read a stream (currently `trace-stats` without `--file`).
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or failed runs.
pub fn execute(args: &Args, stdin: &str) -> Result<String, String> {
    match args.positional().first().map(String::as_str) {
        Some("work-run") => work_run(args),
        Some("value-run") => value_run(args),
        Some("combined-run") => combined_run(args),
        Some("bounds") => bounds(args),
        Some("panel") => panel(args),
        Some("trace-gen") => trace_gen(args),
        Some("trace-stats") => trace_stats(args, stdin),
        Some("serve") => serve(args, stdin),
        Some("netgen") => netgen(args),
        Some("loadgen") => loadgen(args),
        Some("help") | None => Ok(HELP.to_string()),
        Some(other) => Err(format!("unknown command {other:?}; try `smbm help`")),
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn scenario_from(args: &Args, default_sources: usize) -> Result<MmppScenario, String> {
    Ok(MmppScenario {
        sources: args.get_or("sources", default_sources).map_err(err)?,
        slots: args.get_or("slots", 50_000usize).map_err(err)?,
        seed: args.get_or("seed", 1u64).map_err(err)?,
        ..Default::default()
    })
}

fn roster(args: &Args, default: &[&str]) -> Vec<String> {
    match args.get("policies") {
        Some(spec) => spec.split(',').map(|s| s.trim().to_string()).collect(),
        None => default.iter().map(|s| s.to_string()).collect(),
    }
}

/// Events retained per policy when `--events-out` is set: enough to keep the
/// interesting tail of a long run without unbounded memory.
const EVENT_CAPACITY: usize = 1 << 16;

/// The per-policy observer stack behind the observability flags. Each layer
/// is `Some` only when its flag was supplied, so unrequested instrumentation
/// costs nothing.
type CliObserver = (
    Option<RingEventLog>,
    (Option<HistogramRecorder>, Option<PhaseProfiler>),
);

/// The observability flags of a run command, parsed once.
struct ObsFlags {
    events_out: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
}

impl ObsFlags {
    fn from(args: &Args) -> Self {
        ObsFlags {
            events_out: args.get("events-out").map(str::to_string),
            metrics_out: args.get("metrics-out").map(str::to_string),
            profile: args.has("profile"),
        }
    }

    fn observers(&self, n: usize) -> Vec<CliObserver> {
        (0..n)
            .map(|_| {
                (
                    self.events_out
                        .as_ref()
                        .map(|_| RingEventLog::new(EVENT_CAPACITY)),
                    (
                        self.metrics_out.as_ref().map(|_| HistogramRecorder::new()),
                        self.profile.then(PhaseProfiler::new),
                    ),
                )
            })
            .collect()
    }

    /// Writes the requested artifacts and appends any inline report lines to
    /// `out`. `model` tags the metrics file; `names` parallels `observers`.
    fn finish(
        &self,
        model: &str,
        names: &[String],
        observers: &[CliObserver],
        out: &mut String,
    ) -> Result<(), String> {
        if let Some(path) = &self.events_out {
            let mut jsonl = String::new();
            for (name, (log, _)) in names.iter().zip(observers) {
                let log = log.as_ref().expect("events flag implies a log");
                jsonl.push_str(&log.to_jsonl_with(&[("policy", name)]));
            }
            std::fs::write(path, jsonl).map_err(|e| format!("writing {path}: {e}"))?;
            let _ = writeln!(out, "# events written to {path}");
        }
        if let Some(path) = &self.metrics_out {
            let mut json = format!("{{\"model\":\"{model}\",\"policies\":{{");
            for (i, (name, (_, (hist, _)))) in names.iter().zip(observers).enumerate() {
                let hist = hist.as_ref().expect("metrics flag implies a recorder");
                if i > 0 {
                    json.push(',');
                }
                let _ = write!(json, "\"{name}\":{}", hist.to_json());
            }
            json.push_str("}}\n");
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            let _ = writeln!(out, "# metrics written to {path}");
        }
        if self.profile {
            for (name, (_, (_, prof))) in names.iter().zip(observers) {
                let prof = prof.as_ref().expect("profile flag implies a profiler");
                let _ = writeln!(out, "# profile {name}: {}", prof.report());
            }
        }
        Ok(())
    }
}

fn work_run(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "k",
        "buffer",
        "speedup",
        "slots",
        "sources",
        "seed",
        "policies",
        "events-out",
        "metrics-out",
        "profile",
    ])
    .map_err(err)?;
    let k: u32 = args.get_or("k", 8).map_err(err)?;
    let buffer: usize = args.get_or("buffer", 64).map_err(err)?;
    let speedup: u32 = args.get_or("speedup", 1).map_err(err)?;
    let cfg = WorkSwitchConfig::contiguous(k, buffer).map_err(err)?;
    let trace = scenario_from(args, 12)?
        .work_trace(&cfg, &PortMix::Uniform)
        .map_err(err)?;
    let mut exp = WorkExperiment::full_roster(cfg, speedup);
    exp.policies = roster(args, smbm_core::WORK_POLICY_NAMES);
    let obs_flags = ObsFlags::from(args);
    let mut observers = obs_flags.observers(exp.policies.len());
    let report = exp.run_observed(&trace, &mut observers).map_err(err)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# work model: k={k} B={buffer} C={speedup} arrivals={}",
        trace.arrivals()
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>10} {:>10} {:>9}",
        "policy", "packets", "ratio", "latency", "goodput"
    );
    let _ = writeln!(out, "{:<8} {:>12} {:>10}", "OPT(pq)", report.opt_score, 1.0);
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>10.4} {:>10.2} {:>9.4}",
            row.policy, row.score, row.ratio, row.mean_latency, row.goodput
        );
    }
    obs_flags.finish("work", &exp.policies, &observers, &mut out)?;
    Ok(out)
}

fn value_run(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "ports",
        "buffer",
        "max-value",
        "speedup",
        "mix",
        "slots",
        "sources",
        "seed",
        "policies",
        "events-out",
        "metrics-out",
        "profile",
    ])
    .map_err(err)?;
    let ports: usize = args.get_or("ports", 8).map_err(err)?;
    let buffer: usize = args.get_or("buffer", 64).map_err(err)?;
    let max_value: u64 = args.get_or("max-value", 16).map_err(err)?;
    let speedup: u32 = args.get_or("speedup", 1).map_err(err)?;
    let mix = match args.get("mix").unwrap_or("uniform") {
        "uniform" => ValueMix::Uniform { max: max_value },
        "port" => ValueMix::EqualsPort,
        other => return Err(format!("unknown --mix {other:?}; use uniform|port")),
    };
    let cfg = ValueSwitchConfig::new(buffer, ports).map_err(err)?;
    let trace = scenario_from(args, 32)?
        .value_trace(ports, &PortMix::Uniform, &mix)
        .map_err(err)?;
    let mut exp = ValueExperiment::full_roster(cfg, speedup);
    exp.policies = roster(args, smbm_core::VALUE_POLICY_NAMES);
    let obs_flags = ObsFlags::from(args);
    let mut observers = obs_flags.observers(exp.policies.len());
    let report = exp.run_observed(&trace, &mut observers).map_err(err)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# value model: n={ports} B={buffer} C={speedup} mix={} arrivals={}",
        args.get("mix").unwrap_or("uniform"),
        trace.arrivals()
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>10} {:>10} {:>9}",
        "policy", "value", "ratio", "latency", "goodput"
    );
    let _ = writeln!(out, "{:<8} {:>12} {:>10}", "OPT(pq)", report.opt_score, 1.0);
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>10.4} {:>10.2} {:>9.4}",
            row.policy, row.score, row.ratio, row.mean_latency, row.goodput
        );
    }
    obs_flags.finish("value", &exp.policies, &observers, &mut out)?;
    Ok(out)
}

fn combined_run(args: &Args) -> Result<String, String> {
    args.expect_only(&[
        "k",
        "buffer",
        "max-value",
        "speedup",
        "mix",
        "slots",
        "sources",
        "seed",
        "policies",
        "events-out",
        "metrics-out",
        "profile",
    ])
    .map_err(err)?;
    let k: u32 = args.get_or("k", 8).map_err(err)?;
    let buffer: usize = args.get_or("buffer", 64).map_err(err)?;
    let max_value: u64 = args.get_or("max-value", 16).map_err(err)?;
    let speedup: u32 = args.get_or("speedup", 1).map_err(err)?;
    let mix = match args.get("mix").unwrap_or("uniform") {
        "uniform" => ValueMix::Uniform { max: max_value },
        "port" => ValueMix::EqualsPort,
        other => return Err(format!("unknown --mix {other:?}; use uniform|port")),
    };
    let cfg = WorkSwitchConfig::contiguous(k, buffer).map_err(err)?;
    let trace = scenario_from(args, 12)?
        .combined_trace(&cfg, &PortMix::Uniform, &mix)
        .map_err(err)?;
    let mut exp = CombinedExperiment::full_roster(cfg, speedup);
    exp.policies = roster(args, smbm_core::COMBINED_POLICY_NAMES);
    let obs_flags = ObsFlags::from(args);
    let mut observers = obs_flags.observers(exp.policies.len());
    let report = exp.run_observed(&trace, &mut observers).map_err(err)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# combined model: k={k} B={buffer} C={speedup} arrivals={}",
        trace.arrivals()
    );
    let _ = writeln!(out, "{:<8} {:>14} {:>8}", "policy", "value", "ratio");
    let _ = writeln!(out, "{:<8} {:>14} {:>8}", "OPT(den)", report.opt_score, 1.0);
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{:<8} {:>14} {:>8.4}",
            row.policy, row.score, row.ratio
        );
    }
    obs_flags.finish("combined", &exp.policies, &observers, &mut out)?;
    Ok(out)
}

fn bounds(args: &Args) -> Result<String, String> {
    args.expect_only(&[]).map_err(err)?;
    let selected: Vec<&str> = args.positional()[1..].iter().map(String::as_str).collect();
    let all = [
        "nhst",
        "nest",
        "nhdt",
        "lqd-work",
        "bpd",
        "lwd",
        "lqd-value",
        "mvd",
        "mrd",
    ];
    let names: Vec<&str> = if selected.is_empty() {
        all.to_vec()
    } else {
        selected
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<30} {:>8} {:>10} {:>10}",
        "construction", "policy", "measured", "predicted"
    );
    for name in names {
        let report = match name {
            "nhst" => measure_work_construction(&adversarial::nhst_lower_bound(8, 192, 10)),
            "nest" => measure_work_construction(&adversarial::nest_lower_bound(8, 48, 10)),
            "nhdt" => measure_work_construction(&adversarial::nhdt_lower_bound(64, 512, 4)),
            "lqd-work" => measure_work_construction(&adversarial::lqd_work_lower_bound(64, 256, 4)),
            "bpd" => measure_work_construction(&adversarial::bpd_lower_bound(16, 64, 10_000)),
            "lwd" => measure_work_construction(&adversarial::lwd_lower_bound(120, 20)),
            "lqd-value" => {
                measure_value_construction(&adversarial::lqd_value_lower_bound(64, 128, 10))
            }
            "mvd" => measure_value_construction(&adversarial::mvd_lower_bound(16, 64, 10_000)),
            "mrd" => measure_value_construction(&adversarial::mrd_lower_bound(120, 20)),
            other => return Err(format!("unknown construction {other:?}")),
        }
        .map_err(err)?;
        let _ = writeln!(
            out,
            "{:<30} {:>8} {:>10.3} {:>10.3}",
            report.name,
            report.policy,
            report.ratio(),
            report.predicted
        );
    }
    Ok(out)
}

fn panel(args: &Args) -> Result<String, String> {
    use smbm_bench::{Panel, PanelScale};
    args.expect_only(&["panel", "scale", "seed", "repeats", "jobs"])
        .map_err(err)?;
    let number: u8 = args.get_or("panel", 1).map_err(err)?;
    let p = Panel::new(number).ok_or_else(|| format!("--panel must be 1..9, got {number}"))?;
    let scale = match args.get("scale").unwrap_or("default") {
        "smoke" => PanelScale::Smoke,
        "default" => PanelScale::Default,
        "paper" => PanelScale::Paper,
        other => {
            return Err(format!(
                "unknown --scale {other:?}; use smoke|default|paper"
            ))
        }
    };
    let seed: u64 = args.get_or("seed", 0xB0FFE2u64).map_err(err)?;
    let repeats = u32::try_from(args.get_positive_u64("repeats", 1).map_err(err)?)
        .map_err(|_| "--repeats is out of range".to_string())?;
    let jobs: Option<usize> = match args.get("jobs") {
        Some(_) => Some(args.get_positive_u64("jobs", 1).map_err(err)? as usize),
        None => None,
    };
    let (series, spread) =
        smbm_bench::run_panel_averaged_with_jobs(p, scale, seed, repeats, jobs).map_err(err)?;
    let mut out = format!(
        "# Fig.5({}) {} [scale {:?}, seed {}, repeats {}, max half-spread {:.4}]\n",
        p.number(),
        p.caption(),
        scale,
        seed,
        repeats,
        spread
    );
    out.push_str(&smbm_sim::series_to_csv(p.x_label(), &series));
    Ok(out)
}

fn trace_gen(args: &Args) -> Result<String, String> {
    args.expect_only(&["k", "buffer", "slots", "sources", "seed"])
        .map_err(err)?;
    let k: u32 = args.get_or("k", 8).map_err(err)?;
    let buffer: usize = args.get_or("buffer", 64).map_err(err)?;
    let cfg = WorkSwitchConfig::contiguous(k, buffer).map_err(err)?;
    let mut scenario = scenario_from(args, 12)?;
    scenario.slots = args.get_or("slots", 1_000usize).map_err(err)?;
    let trace = scenario.work_trace(&cfg, &PortMix::Uniform).map_err(err)?;
    Ok(trace.to_text())
}

/// Parses the optional `--hz` pacing rate shared by `serve` and `loadgen`,
/// rejecting zero/negative/non-finite rates here so they surface as CLI
/// errors rather than `WallClock::from_hz` panics.
fn pace_from(args: &Args) -> Result<Option<f64>, String> {
    args.get_positive_f64("hz").map_err(|_| {
        format!(
            "--hz must be a positive rate, got {:?}",
            args.get("hz").unwrap_or_default()
        )
    })
}

/// Parses the telemetry-plane flags shared by `serve` and `loadgen`. The
/// plane is enabled when any of them is supplied; numeric values are
/// validated here so `--stats-interval 0` is a CLI error, not a clamped
/// surprise or a library panic.
fn telemetry_from(args: &Args) -> Result<Option<TelemetryConfig>, String> {
    let stats_out = args.get("stats-out").map(PathBuf::from);
    let prom_out = args.get("prom-out").map(PathBuf::from);
    let interval = args.get_positive_f64("stats-interval").map_err(|_| {
        format!(
            "--stats-interval must be a positive number of seconds, got {:?}",
            args.get("stats-interval").unwrap_or_default()
        )
    })?;
    let has_ring = args.get("stats-ring").is_some();
    let mut cfg = TelemetryConfig {
        stats_out,
        prom_out,
        ..TelemetryConfig::default()
    };
    cfg.ring_capacity = args
        .get_positive_u64("stats-ring", cfg.ring_capacity as u64)
        .map_err(err)? as usize;
    if cfg.stats_out.is_none() && cfg.prom_out.is_none() && interval.is_none() && !has_ring {
        return Ok(None);
    }
    if let Some(secs) = interval {
        cfg.interval = Duration::from_secs_f64(secs);
    }
    Ok(Some(cfg))
}

/// Parses the flight-recorder flags shared by `serve` and `loadgen`.
fn flight_from(args: &Args) -> Result<Option<FlightConfig>, String> {
    let Some(path) = args.get("flight-out") else {
        if args.get("flight-cap").is_some() {
            return Err("--flight-cap requires --flight-out".into());
        }
        return Ok(None);
    };
    let mut cfg = FlightConfig::new(path);
    cfg.capacity = args
        .get_positive_u64("flight-cap", cfg.capacity as u64)
        .map_err(err)? as usize;
    Ok(Some(cfg))
}

/// The sink-location summary lines appended to human-readable runtime
/// reports, so users see where their telemetry artifacts landed.
fn sink_summary(telemetry: &Option<TelemetryConfig>, flight: &Option<FlightConfig>) -> String {
    let mut out = String::new();
    if let Some(t) = telemetry {
        if let Some(p) = &t.stats_out {
            let _ = writeln!(out, "# live stats (JSONL) -> {}", p.display());
        }
        if let Some(p) = &t.prom_out {
            let _ = writeln!(out, "# prometheus dump -> {}", p.display());
        }
    }
    if let Some(f) = flight {
        let _ = writeln!(out, "# flight post-mortem -> {}", f.path.display());
    }
    out
}

/// Parses `--faults` for `serve` and `loadgen`: the scripted grammar
/// (`panic@100,stall@50*200#1`) or `random:SEED`, which generates one
/// deterministic fault per shard within the first `horizon` slots.
fn faults_from(args: &Args, shards: usize, horizon: u64) -> Result<FaultPlan, String> {
    match args.get("faults") {
        None => Ok(FaultPlan::none()),
        Some(spec) => match spec.strip_prefix("random:") {
            Some(seed) => {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("--faults random:SEED expects a number, got {seed:?}"))?;
                Ok(FaultPlan::random(seed, shards, horizon))
            }
            None => FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}")),
        },
    }
}

/// Runs one lockstep shard over per-slot bursts — the live replica of the
/// offline engine's slot loop (empty slots included, so flush schedules and
/// counters line up exactly).
fn serve_trace<S: smbm_core::DatapathSystem + 'static>(
    slots: Vec<Vec<S::Packet>>,
    hz: Option<f64>,
    faults: FaultPlan,
    restart_budget: u32,
    telemetry: Option<TelemetryConfig>,
    flight: Option<FlightConfig>,
    factory: impl Fn() -> S + Send + 'static,
) -> smbm_runtime::RuntimeReport {
    use smbm_runtime::{
        AnyClock, RuntimeBuilder, RuntimeConfig, ShardConfig, SupervisionConfig, VirtualClock,
        WallClock,
    };
    let mut builder = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: 64,
        shard: ShardConfig::lockstep(),
        faults,
        supervision: SupervisionConfig {
            restart_budget,
            ..SupervisionConfig::default()
        },
        telemetry,
        flight,
        ..RuntimeConfig::default()
    });
    let id = builder.add_shard(factory);
    builder.add_producer(id, move |handle| {
        for burst in slots {
            if !handle.send(burst) {
                break;
            }
        }
    });
    builder.run(move |_| match hz {
        Some(hz) => AnyClock::Wall(WallClock::from_hz(hz)),
        None => AnyClock::Virtual(VirtualClock::new()),
    })
}

/// Formats a serve run: the shard's counters plus datapath throughput.
fn render_serve(
    header: String,
    score_label: &str,
    report: &smbm_runtime::RuntimeReport,
) -> Result<String, String> {
    let shard = report
        .shards
        .first()
        .ok_or("the shard thread panicked without a report")?;
    if let Some(e) = &shard.error {
        return Err(format!("datapath rejected the trace: {e}"));
    }
    if shard.drain_stalled {
        return Err("final drain stalled: packets left that never transmit".into());
    }
    let c = &shard.counters;
    let mut out = header;
    out.push('\n');
    let _ = writeln!(
        out,
        "slots={} arrived={} admitted={} dropped={} pushed_out={} transmitted={}",
        shard.slots,
        c.arrived(),
        c.admitted(),
        c.dropped(),
        c.pushed_out(),
        c.transmitted()
    );
    let _ = writeln!(
        out,
        "score={} ({score_label}) mean_latency={:.2} occupancy mean={:.1} max={}",
        shard.score,
        c.mean_latency(),
        shard.mean_occupancy,
        shard.max_occupancy
    );
    let _ = writeln!(
        out,
        "throughput={:.0} packets/sec elapsed={:.3} ms",
        report.processed_per_sec(),
        report.elapsed.as_secs_f64() * 1e3
    );
    if shard.restarts > 0 || shard.gave_up {
        let _ = writeln!(
            out,
            "# supervision: shard {} panicked; {} restart(s), {} orphaned packet(s), \
             {} shard-failure drop(s){}",
            shard.shard,
            shard.restarts,
            shard.orphaned_packets,
            c.dropped_shard_failure(),
            if shard.gave_up { "; gave up" } else { "" }
        );
    }
    if report.lost_packets() > 0 {
        let _ = writeln!(out, "# {} packets lost mid-send", report.lost_packets());
    }
    if let Some(t) = &report.telemetry {
        let _ = writeln!(
            out,
            "# telemetry: {} sample(s) retained over {} tick(s)",
            t.samples.len(),
            t.ticks
        );
    }
    if report.flight_dumps() > 0 {
        let _ = writeln!(
            out,
            "# flight recorder: {} post-mortem dump(s)",
            report.flight_dumps()
        );
    }
    for e in &report.obs_errors {
        let _ = writeln!(out, "# observability error: {e}");
    }
    Ok(out)
}

fn serve(args: &Args, stdin: &str) -> Result<String, String> {
    if args.get("listen").is_some() {
        return serve_listen(args);
    }
    args.expect_only(&[
        "model",
        "file",
        "policy",
        "k",
        "ports",
        "buffer",
        "speedup",
        "hz",
        "faults",
        "restarts",
        "stats-out",
        "stats-interval",
        "prom-out",
        "stats-ring",
        "flight-out",
        "flight-cap",
    ])
    .map_err(err)?;
    let text = match args.get("file") {
        Some(path) => std::fs::read_to_string(path).map_err(err)?,
        None => stdin.to_string(),
    };
    let buffer: usize = args.get_or("buffer", 64).map_err(err)?;
    let speedup = u32::try_from(args.get_positive_u64("speedup", 1).map_err(err)?)
        .map_err(|_| "--speedup is out of range".to_string())?;
    let hz = pace_from(args)?;
    let restart_budget: u32 = args.get_or("restarts", 3).map_err(err)?;
    let telemetry = telemetry_from(args)?;
    let flight = flight_from(args)?;
    let sinks = sink_summary(&telemetry, &flight);
    let pacing = match hz {
        Some(hz) => format!(" paced at {hz} Hz"),
        None => String::new(),
    };
    match args.get("model").unwrap_or("work") {
        "work" => {
            let k: u32 = args.get_or("k", 8).map_err(err)?;
            let trace: Trace<smbm_switch::WorkPacket> = Trace::from_text(&text).map_err(err)?;
            let name = args.get("policy").unwrap_or("LWD");
            let canonical = smbm_core::work_policy_by_name(name)
                .ok_or_else(|| format!("unknown work policy {name:?}"))?
                .name()
                .to_owned();
            let cfg = WorkSwitchConfig::contiguous(k, buffer).map_err(err)?;
            let header = format!(
                "# serve work model: policy {canonical} k={k} B={buffer} C={speedup}{pacing}"
            );
            let faults = faults_from(args, 1, trace.as_slots().len() as u64)?;
            let factory_name = canonical.clone();
            let report = serve_trace(
                trace.as_slots().to_vec(),
                hz,
                faults,
                restart_budget,
                telemetry,
                flight,
                move || {
                    let policy = smbm_core::work_policy_by_name(&factory_name).expect("validated");
                    smbm_core::WorkRunner::new(cfg.clone(), policy, speedup)
                },
            );
            render_serve(header, "packets", &report).map(|out| out + &sinks)
        }
        "value" => {
            let ports: usize = args.get_or("ports", 8).map_err(err)?;
            let trace: Trace<smbm_switch::ValuePacket> = Trace::from_text(&text).map_err(err)?;
            let name = args.get("policy").unwrap_or("MRD");
            let canonical = smbm_core::value_policy_by_name(name)
                .ok_or_else(|| format!("unknown value policy {name:?}"))?
                .name()
                .to_owned();
            let cfg = ValueSwitchConfig::new(buffer, ports).map_err(err)?;
            let header = format!(
                "# serve value model: policy {canonical} n={ports} B={buffer} C={speedup}{pacing}"
            );
            let faults = faults_from(args, 1, trace.as_slots().len() as u64)?;
            let factory_name = canonical.clone();
            let report = serve_trace(
                trace.as_slots().to_vec(),
                hz,
                faults,
                restart_budget,
                telemetry,
                flight,
                move || {
                    let policy = smbm_core::value_policy_by_name(&factory_name).expect("validated");
                    smbm_core::ValueRunner::new(cfg, policy, speedup)
                },
            );
            render_serve(header, "value", &report).map(|out| out + &sinks)
        }
        other => Err(format!("unknown --model {other:?}; use work|value")),
    }
}

/// Parses a comma-separated `HOST:PORT[,HOST:PORT...]` list, resolving
/// names through the system resolver (first address wins).
fn parse_addrs(flag: &str, spec: &str) -> Result<Vec<std::net::SocketAddr>, String> {
    use std::net::ToSocketAddrs;
    spec.split(',')
        .map(str::trim)
        .map(|part| {
            part.to_socket_addrs()
                .map_err(|e| format!("--{flag}: bad address {part:?}: {e}"))?
                .next()
                .ok_or_else(|| format!("--{flag}: {part:?} resolved to no address"))
        })
        .collect()
}

/// `serve --listen`: the datapath served over real UDP sockets. Runs until
/// every expected client has FINed (or the ingress idles out).
fn serve_listen(args: &Args) -> Result<String, String> {
    use smbm_net::{run_server, Fanout, NetConfig, ServeConfig};
    use smbm_runtime::Model;
    args.expect_only(&[
        "listen",
        "model",
        "policy",
        "ports",
        "buffer",
        "speedup",
        "shards",
        "ring",
        "clients",
        "fanout",
        "idle-timeout",
        "net-batch",
        "lossy",
        "json",
        "faults",
        "restarts",
        "stats-out",
        "stats-interval",
        "prom-out",
        "stats-ring",
        "flight-out",
        "flight-cap",
    ])
    .map_err(err)?;
    let listen = parse_addrs(
        "listen",
        args.get("listen").expect("dispatched on presence"),
    )?;
    let model_name = args.get_nonempty_str("model", "work").map_err(err)?;
    let model = Model::parse(&model_name)
        .ok_or_else(|| format!("unknown --model {model_name:?}; use work|value"))?;
    let default_policy = match model {
        Model::Work => "LWD",
        Model::Value => "MRD",
        Model::Combined => "WVD",
    };
    let defaults = ServeConfig::default();
    let shards = args
        .get_positive_u64("shards", defaults.shards as u64)
        .map_err(err)? as usize;
    let fanout_label = args.get_nonempty_str("fanout", "port").map_err(err)?;
    let fanout = Fanout::parse(&fanout_label)
        .ok_or_else(|| format!("unknown --fanout {fanout_label:?}; use port|hash"))?;
    let mut net = NetConfig {
        listen,
        fanout,
        expected_clients: args.get_positive_u64("clients", 1).map_err(err)? as usize,
        lossy: args.has("lossy"),
        ..NetConfig::default()
    };
    net.batch = args
        .get_positive_u64("net-batch", net.batch as u64)
        .map_err(err)? as usize;
    if let Some(secs) = args.get_positive_f64("idle-timeout").map_err(err)? {
        net.idle_timeout = Duration::from_secs_f64(secs);
    }
    let config = ServeConfig {
        model,
        policy: args
            .get_nonempty_str("policy", default_policy)
            .map_err(err)?,
        ports: args
            .get_positive_u64("ports", defaults.ports as u64)
            .map_err(err)? as usize,
        buffer: args
            .get_positive_u64("buffer", defaults.buffer as u64)
            .map_err(err)? as usize,
        speedup: u32::try_from(
            args.get_positive_u64("speedup", u64::from(defaults.speedup))
                .map_err(err)?,
        )
        .map_err(|_| "--speedup is out of range".to_string())?,
        shards,
        ring_capacity: args
            .get_positive_u64("ring", defaults.ring_capacity as u64)
            .map_err(err)? as usize,
        net,
        // Net serve has no trace length; give `--faults random:SEED` the
        // same horizon loadgen's default slot count would.
        faults: faults_from(args, shards, 2_000)?,
        restart_budget: args
            .get_or("restarts", defaults.restart_budget)
            .map_err(err)?,
        telemetry: telemetry_from(args)?,
        flight: flight_from(args)?,
    };
    let report = run_server(&config).map_err(err)?;
    if args.has("json") {
        Ok(report.to_json())
    } else {
        let mut out = report.to_string();
        let sinks = sink_summary(&config.telemetry, &config.flight);
        if !sinks.is_empty() {
            out.push_str(sinks.trim_end());
            out.push('\n');
        }
        Ok(out)
    }
}

/// `netgen`: drive MMPP traffic at a `serve --listen` server over UDP.
fn netgen(args: &Args) -> Result<String, String> {
    use smbm_net::{run_netgen, NetGenConfig};
    use smbm_runtime::Model;
    args.expect_only(&[
        "targets",
        "model",
        "clients",
        "ports",
        "slots",
        "sources",
        "seed",
        "max-value",
        "batch",
        "window",
        "bad-frames",
        "truncated",
        "garbage",
        "json",
    ])
    .map_err(err)?;
    let spec = args
        .get("targets")
        .ok_or("netgen requires --targets HOST:PORT[,HOST:PORT...]")?;
    let model_name = args.get_nonempty_str("model", "work").map_err(err)?;
    let model = Model::parse(&model_name)
        .ok_or_else(|| format!("unknown --model {model_name:?}; use work|value"))?;
    let defaults = NetGenConfig::default();
    let config = NetGenConfig {
        model,
        targets: parse_addrs("targets", spec)?,
        clients: args
            .get_positive_u64("clients", defaults.clients as u64)
            .map_err(err)? as usize,
        ports: args
            .get_positive_u64("ports", defaults.ports as u64)
            .map_err(err)? as usize,
        slots: args
            .get_positive_u64("slots", defaults.slots as u64)
            .map_err(err)? as usize,
        sources: args
            .get_positive_u64("sources", defaults.sources as u64)
            .map_err(err)? as usize,
        seed: args.get_or("seed", defaults.seed).map_err(err)?,
        max_value: args
            .get_positive_u64("max-value", defaults.max_value)
            .map_err(err)?,
        batch: args
            .get_positive_u64("batch", defaults.batch as u64)
            .map_err(err)? as usize,
        window: args
            .get_positive_u64("window", defaults.window as u64)
            .map_err(err)? as usize,
        bad_frames: args.get_or("bad-frames", 0usize).map_err(err)?,
        truncated_datagrams: args.get_or("truncated", 0usize).map_err(err)?,
        garbage_datagrams: args.get_or("garbage", 0usize).map_err(err)?,
        ..defaults
    };
    let report = run_netgen(&config).map_err(err)?;
    let rendered = if args.has("json") {
        report.to_json()
    } else {
        report.to_string()
    };
    if report.all_completed() {
        Ok(rendered)
    } else {
        // An unfinished handshake means the server never accounted some
        // frames; surface it as a failing exit.
        Err(format!("netgen did not complete every client\n{rendered}"))
    }
}

fn loadgen(args: &Args) -> Result<String, String> {
    use smbm_runtime::{run_loadgen, LoadgenConfig, Model};
    args.expect_only(&[
        "model",
        "policy",
        "ports",
        "buffer",
        "speedup",
        "shards",
        "slots",
        "sources",
        "seed",
        "batch",
        "ring",
        "hz",
        "max-value",
        "lossy",
        "json",
        "faults",
        "restarts",
        "stats-out",
        "stats-interval",
        "prom-out",
        "stats-ring",
        "flight-out",
        "flight-cap",
    ])
    .map_err(err)?;
    let model_name = args.get("model").unwrap_or("work");
    let model = Model::parse(model_name)
        .ok_or_else(|| format!("unknown --model {model_name:?}; use work|value|combined"))?;
    let default_policy = match model {
        Model::Work => "LWD",
        Model::Value => "MRD",
        Model::Combined => "WVD",
    };
    let defaults = LoadgenConfig::default();
    let shards: usize = args.get_or("shards", defaults.shards).map_err(err)?;
    let slots: usize = args.get_or("slots", defaults.slots).map_err(err)?;
    let config = LoadgenConfig {
        model,
        policy: args.get("policy").unwrap_or(default_policy).to_owned(),
        ports: args.get_or("ports", defaults.ports).map_err(err)?,
        buffer: args.get_or("buffer", defaults.buffer).map_err(err)?,
        speedup: args.get_or("speedup", defaults.speedup).map_err(err)?,
        shards,
        slots,
        sources: args.get_or("sources", defaults.sources).map_err(err)?,
        seed: args.get_or("seed", defaults.seed).map_err(err)?,
        batch: args.get_or("batch", defaults.batch).map_err(err)?,
        ring_capacity: args.get_or("ring", defaults.ring_capacity).map_err(err)?,
        pace_hz: pace_from(args)?,
        max_value: args.get_or("max-value", defaults.max_value).map_err(err)?,
        flush: None,
        lossy: args.has("lossy"),
        record_metrics: false,
        faults: faults_from(args, shards, slots as u64)?,
        restart_budget: args
            .get_or("restarts", defaults.restart_budget)
            .map_err(err)?,
        telemetry: telemetry_from(args)?,
        flight: flight_from(args)?,
    };
    let report = run_loadgen(&config).map_err(err)?;
    for shard in &report.runtime.shards {
        if let Some(e) = &shard.error {
            return Err(format!("shard {:?} failed: {e}", shard.label));
        }
    }
    if args.has("json") {
        Ok(report.to_json())
    } else {
        let mut out = report.to_string();
        let sinks = sink_summary(&config.telemetry, &config.flight);
        if !sinks.is_empty() {
            out.push('\n');
            out.push_str(sinks.trim_end());
        }
        Ok(out)
    }
}

fn trace_stats(args: &Args, stdin: &str) -> Result<String, String> {
    args.expect_only(&["file"]).map_err(err)?;
    let text = match args.get("file") {
        Some(path) => std::fs::read_to_string(path).map_err(err)?,
        None => stdin.to_string(),
    };
    let trace: Trace<smbm_switch::WorkPacket> = Trace::from_text(&text).map_err(err)?;
    Ok(trace.stats().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<String, String> {
        run_with_stdin(argv, "")
    }

    fn run_with_stdin(argv: &[&str], stdin: &str) -> Result<String, String> {
        let args = Args::parse(argv.iter().map(|s| s.to_string())).map_err(err)?;
        execute(&args, stdin)
    }

    #[test]
    fn help_on_empty_and_help() {
        assert!(run(&[]).unwrap().contains("commands:"));
        assert!(run(&["help"]).unwrap().contains("work-run"));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let e = run(&["frobnicate"]).unwrap_err();
        assert!(e.contains("frobnicate"));
    }

    #[test]
    fn work_run_small() {
        let out = run(&["work-run", "--slots", "500", "--k", "4", "--buffer", "16"]).unwrap();
        assert!(out.contains("# work model: k=4 B=16"));
        assert!(out.contains("LWD"));
        assert!(out.contains("OPT(pq)"));
    }

    #[test]
    fn work_run_policy_subset() {
        let out = run(&["work-run", "--slots", "500", "--policies", "LWD,LQD"]).unwrap();
        assert!(out.contains("LWD"));
        assert!(out.contains("LQD"));
        assert!(!out.contains("NHDT"));
    }

    #[test]
    fn work_run_rejects_unknown_flag() {
        let e = run(&["work-run", "--bogus", "1"]).unwrap_err();
        assert!(e.contains("bogus"));
    }

    #[test]
    fn value_run_small_port_mix() {
        let out = run(&[
            "value-run",
            "--slots",
            "500",
            "--ports",
            "4",
            "--buffer",
            "16",
            "--mix",
            "port",
        ])
        .unwrap();
        assert!(out.contains("mix=port"));
        assert!(out.contains("MRD"));
    }

    #[test]
    fn value_run_rejects_bad_mix() {
        let e = run(&["value-run", "--mix", "sideways"]).unwrap_err();
        assert!(e.contains("sideways"));
    }

    #[test]
    fn combined_run_small() {
        let out = run(&[
            "combined-run",
            "--slots",
            "500",
            "--k",
            "4",
            "--buffer",
            "16",
            "--mix",
            "port",
        ])
        .unwrap();
        assert!(out.contains("# combined model: k=4 B=16"));
        assert!(out.contains("WVD"));
        assert!(out.contains("OPT(den)"));
    }

    #[test]
    fn combined_run_rejects_unknown_policy() {
        let e = run(&["combined-run", "--slots", "100", "--policies", "ZZZ"]).unwrap_err();
        assert!(e.contains("ZZZ"));
    }

    #[test]
    fn bounds_single_construction() {
        let out = run(&["bounds", "nest"]).unwrap();
        assert!(out.contains("Thm2 NEST"));
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn bounds_rejects_unknown() {
        let e = run(&["bounds", "thmX"]).unwrap_err();
        assert!(e.contains("thmX"));
    }

    #[test]
    fn work_run_writes_events_and_metrics_and_profiles() {
        let dir = std::env::temp_dir();
        let events = dir.join("smbm_cli_test_events.jsonl");
        let metrics = dir.join("smbm_cli_test_metrics.json");
        let out = run(&[
            "work-run",
            "--slots",
            "200",
            "--k",
            "4",
            "--buffer",
            "16",
            "--policies",
            "LWD,LQD",
            "--events-out",
            events.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--profile",
        ])
        .unwrap();
        assert!(out.contains("# events written to"));
        assert!(out.contains("# metrics written to"));
        assert!(out.contains("# profile LWD:"), "{out}");
        assert!(out.contains("slots/s"));

        let jsonl = std::fs::read_to_string(&events).unwrap();
        assert!(jsonl.lines().count() > 10);
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"policy\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\""), "{line}");
        }
        assert!(jsonl.contains("\"policy\":\"LQD\""));

        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.starts_with("{\"model\":\"work\""), "{json}");
        assert!(json.contains("\"LWD\":{"));
        assert!(json.contains("\"p99\":"));
        assert!(json.contains("\"drops\":{\"buffer_full\":"));
        let _ = std::fs::remove_file(events);
        let _ = std::fs::remove_file(metrics);
    }

    #[test]
    fn observability_flags_do_not_change_scores() {
        let base = run(&["work-run", "--slots", "300", "--policies", "LWD"]).unwrap();
        let metrics = std::env::temp_dir().join("smbm_cli_test_scores.json");
        let observed = run(&[
            "work-run",
            "--slots",
            "300",
            "--policies",
            "LWD",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        let _ = std::fs::remove_file(metrics);
        let base_row = base.lines().find(|l| l.starts_with("LWD")).unwrap();
        let obs_row = observed.lines().find(|l| l.starts_with("LWD")).unwrap();
        assert_eq!(base_row, obs_row);
    }

    #[test]
    fn combined_run_metrics_sidecar() {
        let metrics = std::env::temp_dir().join("smbm_cli_test_combined.json");
        let out = run(&[
            "combined-run",
            "--slots",
            "200",
            "--k",
            "4",
            "--buffer",
            "16",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("# metrics written to"));
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.starts_with("{\"model\":\"combined\""));
        assert!(json.contains("\"WVD\":{"));
        let _ = std::fs::remove_file(metrics);
    }

    #[test]
    fn panel_smoke_renders_csv() {
        let out = run(&["panel", "--panel", "1", "--scale", "smoke", "--jobs", "2"]).unwrap();
        assert!(out.starts_with("# Fig.5(1)"), "{out}");
        assert!(out.contains("k,"), "{out}");
        assert!(out.contains("LWD"), "{out}");
    }

    #[test]
    fn panel_jobs_cap_is_deterministic() {
        let a = run(&["panel", "--panel", "7", "--scale", "smoke", "--jobs", "1"]).unwrap();
        let b = run(&["panel", "--panel", "7", "--scale", "smoke", "--jobs", "4"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn panel_rejects_bad_arguments() {
        assert!(run(&["panel", "--panel", "0"])
            .unwrap_err()
            .contains("1..9"));
        assert!(run(&["panel", "--jobs", "0"])
            .unwrap_err()
            .contains("--jobs"));
        assert!(run(&["panel", "--scale", "huge"])
            .unwrap_err()
            .contains("huge"));
    }

    #[test]
    fn trace_gen_then_stats_roundtrip() {
        let text = run(&["trace-gen", "--slots", "40", "--seed", "9"]).unwrap();
        assert!(text.lines().count() == 40);
        let stats = run_with_stdin(&["trace-stats"], &text).unwrap();
        assert!(stats.contains("slots=40"), "{stats}");
        assert!(stats.contains("port#1"));
    }

    #[test]
    fn trace_stats_rejects_garbage() {
        let e = run_with_stdin(&["trace-stats"], "not a trace").unwrap_err();
        assert!(e.contains("line 1"));
    }

    #[test]
    fn serve_replays_a_generated_trace() {
        let text = run(&["trace-gen", "--slots", "200", "--seed", "7"]).unwrap();
        let out = run_with_stdin(&["serve"], &text).unwrap();
        assert!(
            out.contains("# serve work model: policy LWD k=8 B=64 C=1"),
            "{out}"
        );
        // The slot count includes the final drain, so it exceeds the trace.
        assert!(out.contains("slots=2"), "{out}");
        assert!(out.contains("score="), "{out}");
        assert!(out.contains("packets/sec"), "{out}");
    }

    #[test]
    fn serve_accepts_policy_and_rejects_unknowns() {
        let text = run(&["trace-gen", "--slots", "50", "--seed", "3"]).unwrap();
        let out = run_with_stdin(&["serve", "--policy", "lqd"], &text).unwrap();
        assert!(out.contains("policy LQD"), "{out}");
        let e = run_with_stdin(&["serve", "--policy", "zzz"], &text).unwrap_err();
        assert!(e.contains("zzz"));
        let e = run_with_stdin(&["serve", "--model", "sideways"], "").unwrap_err();
        assert!(e.contains("sideways"));
    }

    #[test]
    fn serve_value_model_round_trips() {
        // One 2-slot value trace in the text format: one-based port:value.
        let text = "1:5 2:9\n2:2\n";
        let out = run_with_stdin(&["serve", "--model", "value", "--ports", "4"], text).unwrap();
        assert!(out.contains("# serve value model: policy MRD n=4"), "{out}");
        assert!(out.contains("arrived=3"), "{out}");
        assert!(out.contains("score=16 (value)"), "{out}");
    }

    #[test]
    fn loadgen_reports_throughput() {
        let out = run(&[
            "loadgen",
            "--policy",
            "lwd",
            "--ports",
            "4",
            "--buffer",
            "16",
            "--slots",
            "300",
            "--sources",
            "10",
        ])
        .unwrap();
        assert!(out.contains("policy LWD"), "{out}");
        assert!(out.contains("packets/sec"), "{out}");
        assert!(out.contains("backpressure"), "{out}");
    }

    #[test]
    fn loadgen_json_and_lossy_mode() {
        let out = run(&[
            "loadgen",
            "--model",
            "value",
            "--ports",
            "4",
            "--buffer",
            "16",
            "--slots",
            "200",
            "--sources",
            "8",
            "--shards",
            "2",
            "--lossy",
            "--json",
        ])
        .unwrap();
        assert!(out.starts_with("{\"model\":\"value\""), "{out}");
        assert!(out.contains("\"policy\":\"MRD\""), "{out}");
        assert!(out.contains("\"shards\":2"), "{out}");
        assert!(out.contains("\"packets_per_sec\""), "{out}");
    }

    #[test]
    fn loadgen_rejects_bad_arguments() {
        let e = run(&["loadgen", "--policy", "zzz"]).unwrap_err();
        assert!(e.contains("zzz"));
        let e = run(&["loadgen", "--model", "bogus"]).unwrap_err();
        assert!(e.contains("bogus"));
        let e = run(&["loadgen", "--hz", "-3"]).unwrap_err();
        assert!(e.contains("--hz"));
    }

    #[test]
    fn telemetry_flags_reject_zero_and_garbage_values() {
        // Mirrors the --hz 0 fix: bad durations/sizes are CLI errors, never
        // clamps or library panics. All of these fail before anything runs.
        for bad in ["0", "-0.5", "nan", "soon"] {
            let e = run(&["loadgen", "--stats-interval", bad]).unwrap_err();
            assert!(e.contains("--stats-interval"), "{bad:?} -> {e}");
            let e = run_with_stdin(&["serve", "--stats-interval", bad], "").unwrap_err();
            assert!(e.contains("--stats-interval"), "{bad:?} -> {e}");
        }
        let e = run(&["loadgen", "--stats-ring", "0"]).unwrap_err();
        assert!(e.contains("--stats-ring"));
        let e = run(&["loadgen", "--stats-ring", "many"]).unwrap_err();
        assert!(e.contains("many"));
        let e = run(&["loadgen", "--flight-out", "/tmp/x", "--flight-cap", "0"]).unwrap_err();
        assert!(e.contains("--flight-cap"));
        let e = run(&["loadgen", "--flight-cap", "8"]).unwrap_err();
        assert!(e.contains("requires --flight-out"));
    }

    #[test]
    fn loadgen_telemetry_flags_write_both_sinks() {
        let dir = std::env::temp_dir();
        let stats = dir.join("smbm_cli_test_stats.jsonl");
        let prom = dir.join("smbm_cli_test_prom.txt");
        let out = run(&[
            "loadgen",
            "--ports",
            "4",
            "--buffer",
            "16",
            "--slots",
            "300",
            "--sources",
            "10",
            "--stats-interval",
            "0.01",
            "--stats-out",
            stats.to_str().unwrap(),
            "--prom-out",
            prom.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("telemetry:"), "{out}");
        assert!(out.contains("# live stats (JSONL) ->"), "{out}");
        assert!(out.contains("# prometheus dump ->"), "{out}");

        let jsonl = std::fs::read_to_string(&stats).unwrap();
        assert!(jsonl.lines().count() >= 2, "initial + final sample");
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"type\":\"telemetry\""), "{line}");
        }
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE smbm_packets_total counter"), "{text}");
        assert!(text.contains("smbm_latency_slots{"), "{text}");
        let _ = std::fs::remove_file(stats);
        let _ = std::fs::remove_file(prom);
    }

    #[test]
    fn serve_listen_and_netgen_round_trip_over_loopback() {
        // A fixed loopback port: CLI strings cannot carry an ephemeral
        // port back, so pick one unlikely to clash (distinct per test).
        let addr = "127.0.0.1:47631";
        let server = std::thread::spawn(move || {
            run(&[
                "serve",
                "--listen",
                addr,
                "--clients",
                "2",
                "--shards",
                "2",
                "--ports",
                "8",
                "--buffer",
                "32",
                "--json",
            ])
        });
        let gen = run(&[
            "netgen",
            "--targets",
            addr,
            "--clients",
            "2",
            "--ports",
            "8",
            "--slots",
            "200",
            "--sources",
            "8",
            "--batch",
            "32",
            "--window",
            "8",
            "--json",
        ])
        .unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(gen.starts_with("{\"model\":\"work\""), "{gen}");
        assert!(gen.contains("\"completed\":true"), "{gen}");
        assert!(
            out.starts_with("{\"model\":\"work\",\"policy\":\"LWD\""),
            "{out}"
        );
        assert!(out.contains("\"shards\":2"), "{out}");
        assert!(out.contains("\"net\":{\"datagrams\":"), "{out}");
        assert!(out.contains("\"net_decode\":0"), "{out}");
    }

    #[test]
    fn serve_listen_rejects_bad_arguments() {
        let e = run(&["serve", "--listen", "not-an-address"]).unwrap_err();
        assert!(e.contains("not-an-address"), "{e}");
        let e = run(&["serve", "--listen", "127.0.0.1:0", "--fanout", "spiral"]).unwrap_err();
        assert!(e.contains("spiral"), "{e}");
        let e = run(&["serve", "--listen", "127.0.0.1:0", "--policy", "zzz"]).unwrap_err();
        assert!(e.contains("zzz"), "{e}");
        let e = run(&["serve", "--listen", "127.0.0.1:0", "--clients", "0"]).unwrap_err();
        assert!(e.contains("--clients"), "{e}");
        let e = run(&["serve", "--listen", "127.0.0.1:0", "--model", "combined"]).unwrap_err();
        assert!(e.contains("wire format"), "{e}");
    }

    #[test]
    fn netgen_rejects_bad_arguments() {
        let e = run(&["netgen"]).unwrap_err();
        assert!(e.contains("--targets"), "{e}");
        let e = run(&["netgen", "--targets", "nowhere"]).unwrap_err();
        assert!(e.contains("nowhere"), "{e}");
        let e = run(&["netgen", "--targets", "127.0.0.1:9", "--model", "sideways"]).unwrap_err();
        assert!(e.contains("sideways"), "{e}");
        let e = run(&["netgen", "--targets", "127.0.0.1:9", "--window", "0"]).unwrap_err();
        assert!(e.contains("--window"), "{e}");
    }

    #[test]
    fn serve_flight_out_dumps_on_injected_panic() {
        let dir = std::env::temp_dir();
        let flight = dir.join("smbm_cli_test_flight.jsonl");
        let text = run(&["trace-gen", "--slots", "50", "--seed", "3"]).unwrap();
        let out = run_with_stdin(
            &[
                "serve",
                "--faults",
                "panic@5",
                "--restarts",
                "1",
                "--flight-out",
                flight.to_str().unwrap(),
                "--flight-cap",
                "32",
            ],
            &text,
        )
        .unwrap();
        assert!(
            out.contains("# flight recorder: 1 post-mortem dump(s)"),
            "{out}"
        );
        assert!(out.contains("# flight post-mortem ->"), "{out}");
        let dump = std::fs::read_to_string(&flight).unwrap();
        let _ = std::fs::remove_file(flight);
        assert!(dump.starts_with("{\"type\":\"flight_dump\""), "{dump}");
        assert!(dump.contains("\"shard\":0"), "{dump}");
        assert!(dump.contains("\"reason\":\"panic\""), "{dump}");
    }
}
