//! The smbm benchmark: one loopback UDP flood, one paced value-serving run
//! and the offline Fig. 5 rosters, each timed end to end and checked for
//! correct output; `--trace 1` adds the per-layer budget from spans and
//! layer replays.
//!
//! ```text
//! perfbench --workload <udp-flood-work|udp-paced-value|offline-fig5>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--scale smoke] [--under-declare <frames>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The process exits 1 when any output check failed.

mod layers;
mod live;
mod offline;
mod probe;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use smbm_runtime::Model;

use live::{LiveSpec, Load, Session};
use offline::Fig5;
use probe::Tracer;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Live workloads split their measured time into sessions of this length,
/// each with its own set-up and server; every end-to-end figure is the
/// interquartile mean over the sessions. Thread placement on a small host
/// moves one session's latency by half, so a run needs many short,
/// independent sessions rather than one long one.
const SESSION_SECONDS: f64 = 0.5;
/// The offline workload sets up this many times; set-up time is their
/// interquartile mean.
const OFFLINE_SETUPS: usize = 7;
/// Result lines and span logs go here, relative to the checkout root.
const OUT_DIR: &str = ".bench_build/perfbench";
/// Slots of the Fig. 5 traces replayed per roster entry in the traced run
/// of a live workload (the offline workload replays its full traces).
const SIM_REPLAY_SLOTS: usize = 5_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    under_declare: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        under_declare: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--scale" => args.smoke = value == "smoke",
            "--under-declare" => args.under_declare = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// The closed-loop flood: 8-byte work frames, 256 per datagram, 16
/// datagrams per SYNC window, into LWD with 64 ports and `B = 256`.
fn flood_spec(smoke: bool) -> LiveSpec {
    LiveSpec {
        model: Model::Work,
        policy: "LWD",
        ports: 64,
        buffer: 256,
        frames_per_datagram: 256,
        load: Load::Closed { window: 16 },
        telemetry: false,
        pool_frames: if smoke { 1 << 16 } else { 1 << 20 },
        one_cpu: false,
    }
}

/// The open loop: 16 value frames plus a SYNC every 500 us (32k frames/s,
/// far below what the server sustains), into MRD with telemetry on.
///
/// The process runs on one CPU. With two vCPUs, each datagram's wake-ups
/// cross vCPUs through the hypervisor, whose latency drifts with other
/// tenants' load: unpinned, a run's median ack latency flips between about
/// 12 and 18 us over 10-30 s spells. On one CPU the wake and park path is
/// the kernel scheduler's alone, and a thread that spins instead of parking
/// starves the others outright.
fn paced_spec(smoke: bool) -> LiveSpec {
    LiveSpec {
        model: Model::Value,
        policy: "MRD",
        ports: 64,
        buffer: 256,
        frames_per_datagram: 16,
        load: Load::Paced { per_sec: 2_000.0 },
        telemetry: true,
        pool_frames: if smoke { 1 << 12 } else { 1 << 16 },
        one_cpu: true,
    }
}

/// The live probe behind the offline workload's traced run: its Fig. 5
/// point (8 ports, `B = 64`) served over loopback, so every live layer
/// metric is measured on every workload.
fn offline_probe_spec(smoke: bool) -> LiveSpec {
    LiveSpec {
        ports: 8,
        buffer: 64,
        ..flood_spec(smoke)
    }
}

/// Collected metrics, in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

struct Outcome {
    end_to_end: Metrics,
    per_layer: Metrics,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of `values` (the interquartile mean). Run-level
/// figures aggregate sessions or passes with it: it ignores a few outlying
/// sessions like a median does, but averages over the host's slow and fast
/// spells instead of landing on one of them.
fn iq_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn session_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// End-to-end figures over a set of sessions: interquartile means across
/// sessions.
fn live_end_to_end(sessions: &[Session]) -> Metrics {
    let per = |f: &dyn Fn(&Session) -> f64| iq_mean(&sessions.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.put("setup_s", per(&|s| s.setup_s), "s");
    m.put(
        "pkts_per_s",
        per(&|s| ratio(s.decided() as f64, s.serve_s)),
        "1/s",
    );
    m.put("ack_p50_us", per(&|s| percentile(&s.ack_us, 0.50)), "us");
    // p90, not p99, is gated: on a shared host a session's p99 is set by a
    // few vCPU stalls, which come in spells, so it swings by half between
    // runs. p99 stays visible, ungated, as the per-layer `gen.ack_p99_us`.
    m.put("ack_p90_us", per(&|s| percentile(&s.ack_us, 0.90)), "us");
    m.put(
        "cpu_us_per_pkt",
        per(&|s| {
            ratio(
                s.proc_cpu_ns.saturating_sub(s.gen_cpu_ns) as f64 / 1e3,
                s.decided() as f64,
            )
        }),
        "us",
    );
    m.put("peak_rss_mb", per(&|s| s.peak_rss_mb), "MB");
    m
}

/// Per-layer figures from traced sessions (sums across them, then ratios).
fn live_per_layer(traced: &[Session], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&Session) -> f64| traced.iter().map(f).sum::<f64>();
    let report_sum = |f: &dyn Fn(&smbm_net::ServeReport) -> f64| {
        traced
            .iter()
            .filter_map(|s| s.report.as_ref())
            .map(f)
            .sum::<f64>()
    };
    let shard_sum = |f: &dyn Fn(&smbm_runtime::ShardReport) -> f64| {
        report_sum(&|r| r.runtime.shards.iter().map(f).sum())
    };
    let load_s = sum(&|s| s.load_s);
    let serve_s = sum(&|s| s.serve_s);
    let (arrived, admitted, pushed, sent) = (
        report_sum(&|r| r.counters().arrived() as f64),
        report_sum(&|r| r.counters().admitted() as f64),
        report_sum(&|r| r.counters().pushed_out() as f64),
        report_sum(&|r| r.counters().transmitted() as f64),
    );
    let n = traced.len().max(1) as f64;
    m.put(
        "net.send_ns_per_datagram",
        ratio(
            sum(&|s| s.send_ns as f64),
            sum(&|s| s.datagrams_sent as f64),
        ),
        "ns",
    );
    m.put(
        "net.ack_wait_share",
        ratio(sum(&|s| s.ack_wait_ns as f64) / 1e9, load_s),
        "ratio",
    );
    m.put(
        "net.frames_per_datagram",
        ratio(
            report_sum(&|r| r.net_counts().frames as f64),
            report_sum(&|r| r.net_counts().datagrams as f64),
        ),
        "count",
    );
    m.put("net.recv_cpu_util", sum(&|s| s.recv_cpu_util) / n, "ratio");
    m.put(
        "net.decode_errors",
        report_sum(&|r| r.net_counts().decode_errors as f64),
        "count",
    );
    m.put("net.retries", sum(&|s| s.retries as f64), "count");
    m.put("net.unacked_syncs", sum(&|s| s.unacked as f64), "count");
    m.put(
        "gen.cpu_util",
        ratio(sum(&|s| s.gen_cpu_ns as f64) / 1e9, load_s),
        "ratio",
    );
    m.put(
        "gen.ack_p99_us",
        median(
            &traced
                .iter()
                .map(|s| percentile(&s.ack_us, 0.99))
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    m.put(
        "gen.late_p99_us",
        median(
            &traced
                .iter()
                .map(|s| percentile(&s.late_us, 0.99))
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    m.put(
        "runtime.shard_cpu_util",
        sum(&|s| s.shard_cpu_util) / n,
        "ratio",
    );
    m.put(
        "runtime.slots_per_s",
        ratio(shard_sum(&|r| r.slots as f64), serve_s),
        "1/s",
    );
    m.put(
        "runtime.arrivals_per_slot",
        ratio(arrived, shard_sum(&|r| r.bursts as f64)),
        "count",
    );
    m.put(
        "runtime.idle_cycle_ratio",
        ratio(
            shard_sum(&|r| r.cycles.saturating_sub(r.slots) as f64),
            shard_sum(&|r| r.cycles as f64),
        ),
        "ratio",
    );
    m.put(
        "runtime.allocs_per_pkt",
        ratio(sum(&|s| s.allocs as f64), arrived),
        "count",
    );
    m.put("switch.admit_ratio", ratio(admitted, arrived), "ratio");
    m.put("switch.pushout_ratio", ratio(pushed, admitted), "ratio");
    m.put("switch.tx_ratio", ratio(sent, arrived), "ratio");
    m.put("switch.tx_per_s", ratio(sent, serve_s), "1/s");
    m.put(
        "switch.mean_occupancy",
        shard_sum(&|r| r.mean_occupancy) / n,
        "count",
    );
}

/// Layer metrics common to every traced run: replays, roster entries,
/// self time per layer and tracing overhead.
#[allow(clippy::too_many_arguments)]
fn common_per_layer(
    m: &mut Metrics,
    gen_s: f64,
    encode_ns: f64,
    replays: &layers::Replays,
    roster: &[(String, f64)],
    tracer: &Tracer,
    overhead: (f64, f64),
) {
    m.put("traffic.gen_s", gen_s, "s");
    m.put("net.encode_ns_per_frame", encode_ns, "ns");
    m.put("net.decode_ns_per_frame", replays.decode_ns_per_frame, "ns");
    m.put("ring.ns_per_batch", replays.ring_ns_per_batch, "ns");
    m.put("datapath.step_ns_per_pkt", replays.step_ns_per_pkt, "ns");
    m.put("datapath.slot_ns", replays.slot_ns, "ns");
    m.put("obs.fold_ns_per_pkt", replays.fold_ns_per_pkt, "ns");
    for (name, ns) in roster {
        m.put(name.clone(), *ns, "ns");
    }
    let self_ms = tracer.self_ms_by_layer();
    for layer in [
        "traffic", "net", "spsc", "runtime", "datapath", "obs", "sim",
    ] {
        m.put(
            format!("self_ms.{layer}"),
            self_ms.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    m.put("trace.overhead.pkts_per_s", overhead.0, "ratio");
    m.put("trace.overhead.ack_p50_us", overhead.1, "ratio");
}

/// Tracing overhead as a cost share: the relative loss of `pkts_per_s`
/// and the relative growth of `ack_p50_us`, traced against untraced.
fn overhead(untraced: &Metrics, traced: &Metrics) -> (f64, f64) {
    let get = |m: &Metrics, name: &str| {
        m.0.iter()
            .find(|(n, ..)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let rel = |name: &str| ratio(get(traced, name), get(untraced, name));
    (1.0 - rel("pkts_per_s"), rel("ack_p50_us") - 1.0)
}

fn run_live(spec: &LiveSpec, args: &Args, tracer: &Tracer) -> Outcome {
    let mut notes = Vec::new();
    if spec.one_cpu {
        match probe::pin_to_one_cpu() {
            Ok(cpu) => notes.push(format!("pinned to CPU {cpu}")),
            Err(e) => notes.push(format!("could not pin to one CPU: {e}")),
        }
    }
    let sessions = ((args.seconds / SESSION_SECONDS).round() as usize).max(2);
    let seconds = args.seconds / sessions as f64;
    let off = Tracer::new(false, String::new());
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last_pool = None;
    let mut encode_ns = Vec::new();
    for i in 0..sessions {
        // Traced runs alternate untraced and traced sessions; the untraced
        // ones are the baseline of the tracing overhead.
        let tracing = args.trace && i % 2 == 1;
        let t = if tracing { tracer } else { &off };
        let root = t.begin("bench.session", None);
        let (s, pool) = live::run_session(
            spec,
            session_seed(args.seed, i),
            seconds,
            t,
            root,
            args.under_declare,
        );
        t.end(root);
        if tracing {
            encode_ns.push(pool.encode_ns_per_frame);
            last_pool = Some(pool);
            traced.push(s);
        } else {
            plain.push(s);
        }
    }
    let all: Vec<&Session> = plain.iter().chain(&traced).collect();
    let mut failures = Vec::new();
    for (i, s) in all.iter().enumerate() {
        failures.extend(s.failures.iter().map(|f| format!("session {i}: {f}")));
    }
    let attempted = all.iter().map(|s| s.declared + s.barriers).sum();
    let failed = all.iter().map(|s| s.failed_frames + s.unacked).sum();
    for (i, s) in all.iter().enumerate() {
        notes.push(format!(
            "session {i}: setup {:.4}s, {} frames declared, {} decided in {:.4}s, {} acks, p50 {:.1}us p90 {:.1}us",
            s.setup_s,
            s.declared,
            s.decided(),
            s.serve_s,
            s.ack_us.len(),
            percentile(&s.ack_us, 0.50),
            percentile(&s.ack_us, 0.90),
        ));
    }
    let end_to_end = live_end_to_end(&plain);
    let mut per_layer = Metrics::default();
    if let Some(pool) = last_pool {
        live_per_layer(&traced, &mut per_layer);
        let root = tracer.begin("bench.replay", None);
        let replays = layers::replay(spec, &pool, tracer, root);
        let fig5 = Fig5::setup(args.seed, SIM_REPLAY_SLOTS, tracer, root);
        let reports = fig5.pass(tracer, root).0;
        let (roster, roster_failures) = fig5.roster_replay(&reports, tracer, root);
        tracer.end(root);
        failures.extend(roster_failures);
        let gen_s = median(&traced.iter().map(|s| s.gen_s).collect::<Vec<_>>());
        let overhead = overhead(&end_to_end, &live_end_to_end(&traced));
        common_per_layer(
            &mut per_layer,
            gen_s,
            median(&encode_ns),
            &replays,
            &roster,
            tracer,
            overhead,
        );
    }
    Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
        failures,
        notes,
    }
}

fn run_offline(args: &Args, tracer: &Tracer) -> Outcome {
    let slots = if args.smoke { 2_000 } else { offline::SLOTS };
    let off = Tracer::new(false, String::new());
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let mut setups = Vec::new();
    let mut fig5 = None;
    for _ in 0..OFFLINE_SETUPS {
        drop(fig5.take());
        let t = Instant::now();
        fig5 = Some(Fig5::setup(args.seed, slots, &off, None));
        setups.push(t.elapsed().as_secs_f64());
    }
    let fig5 = fig5.expect("set-up ran");
    let per_pass = fig5.packets_per_pass();
    let (reference, _) = fig5.pass(&off, None);
    let mut plain_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut plain_p50 = Vec::new();
    let mut plain_p90 = Vec::new();
    let mut traced_p50 = Vec::new();
    let mut cpu_us = Vec::new();
    let mut passes = 0u64;
    let mut mismatches = 0u64;
    let started = Instant::now();
    while passes < 3 || started.elapsed().as_secs_f64() < args.seconds {
        let tracing = args.trace && passes % 2 == 1;
        let t = if tracing { tracer } else { &off };
        let root = t.begin("bench.pass", None);
        let cpu0 = probe::process_cpu_ns();
        let wall = Instant::now();
        let (reports, times) = fig5.pass(t, root);
        let wall = wall.elapsed().as_secs_f64();
        let cpu = probe::process_cpu_ns() - cpu0;
        t.end(root);
        let lat: Vec<f64> = times.iter().map(|s| s * 1e6).collect();
        if tracing {
            traced_rates.push(per_pass as f64 / wall);
            traced_p50.push(percentile(&lat, 0.50));
        } else {
            plain_rates.push(per_pass as f64 / wall);
            plain_p50.push(percentile(&lat, 0.50));
            plain_p90.push(percentile(&lat, 0.90));
            cpu_us.push(cpu as f64 / 1e3 / per_pass as f64);
        }
        if reports != reference {
            mismatches += 1;
            failures.push(format!("pass {passes}: scores differ from the first pass"));
        }
        passes += 1;
    }
    // Conservation and roster-versus-solo scores, outside the timed passes.
    let root = tracer.begin("bench.replay", None);
    let (roster, roster_failures) = fig5.roster_replay(&reference, tracer, root);
    let conservation_failures = roster_failures.len() as u64;
    failures.extend(roster_failures);
    let entries =
        (fig5.work.policies.len() + fig5.value.policies.len() + fig5.combined.policies.len() + 3)
            as u64;
    let digest: u64 = reference
        .iter()
        .flat_map(|r| std::iter::once(r.opt_score).chain(r.rows.iter().map(|row| row.score)))
        .fold(0xcbf2_9ce4_8422_2325, |h, s| {
            (h ^ s).wrapping_mul(0x1000_0000_01b3)
        });
    notes.push(format!(
        "{passes} passes of {per_pass} packets; score digest {digest:016x}; arrivals work {} value {} combined {}",
        fig5.work_trace.arrivals(),
        fig5.value_trace.arrivals(),
        fig5.combined_trace.arrivals()
    ));
    let mut end_to_end = Metrics::default();
    end_to_end.put("setup_s", iq_mean(&setups), "s");
    end_to_end.put("pkts_per_s", iq_mean(&plain_rates), "1/s");
    // A pass answers three requests (one per model), so its p90 is its
    // slowest experiment; as for sessions, the figure is the interquartile
    // mean over passes.
    end_to_end.put("ack_p50_us", iq_mean(&plain_p50), "us");
    end_to_end.put("ack_p90_us", iq_mean(&plain_p90), "us");
    end_to_end.put("cpu_us_per_pkt", iq_mean(&cpu_us), "us");
    end_to_end.put("peak_rss_mb", probe::peak_rss_mb(), "MB");
    let mut per_layer = Metrics::default();
    if args.trace {
        // The offline path has no sockets, rings or shard threads; a short
        // traced loopback probe at its Fig. 5 point fills those rows.
        let spec = offline_probe_spec(args.smoke);
        let probe_root = tracer.begin("bench.session", None);
        let (s, pool) = live::run_session(&spec, args.seed, 1.0, tracer, probe_root, 0);
        tracer.end(probe_root);
        failures.extend(s.failures.iter().map(|f| format!("loopback probe: {f}")));
        let replays = layers::replay(&spec, &pool, tracer, root);
        tracer.end(root);
        live_per_layer(std::slice::from_ref(&s), &mut per_layer);
        let mut traced = Metrics::default();
        traced.put("pkts_per_s", iq_mean(&traced_rates), "1/s");
        traced.put("ack_p50_us", iq_mean(&traced_p50), "us");
        let overhead = overhead(&end_to_end, &traced);
        common_per_layer(
            &mut per_layer,
            median(&setups),
            pool.encode_ns_per_frame,
            &replays,
            &roster,
            tracer,
            overhead,
        );
    }
    Outcome {
        end_to_end,
        per_layer,
        attempted: passes * entries + entries,
        failed: mismatches * entries + conservation_failures,
        failures,
        notes,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_id = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let tracer = Tracer::new(args.trace, run_id.clone());
    let outcome = match args.workload.as_str() {
        "udp-flood-work" => run_live(&flood_spec(args.smoke), &args, &tracer),
        "udp-paced-value" => run_live(&paced_spec(args.smoke), &args, &tracer),
        "offline-fig5" => run_offline(&args, &tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for f in &outcome.failures {
        println!("# CHECK FAILED: {f}");
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let mut body = String::new();
    for (name, value, unit) in &metrics.0 {
        println!("# {name:<40} {value:>16.4} {unit}");
        if !body.is_empty() {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*value)
        );
    }
    let nonfinite = metrics.0.iter().any(|(_, v, _)| !v.is_finite());
    let correct = outcome.failures.is_empty() && !nonfinite;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    let out_dir = Path::new(OUT_DIR);
    if args.trace {
        let path = out_dir.join(format!("spans-{run_id}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let _ = std::fs::create_dir_all(out_dir);
    let _ = std::fs::write(
        out_dir.join(format!("result-{run_id}.json")),
        format!("{line}\n"),
    );
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(iq_mean(&[100.0, 2.0, 4.0, 0.0, 3.0, 5.0, 1.0, 6.0]), 3.5);
    }
}
