//! Integration tests for the observability layer: attaching any observer
//! stack must be a pure read-only tap — run summaries and switch counters
//! stay byte-identical — and the exported JSONL/JSON must be well formed.

use smbm_core::{combined_policy_by_name, CombinedRunner, Lwd, Mrd, ValueRunner, WorkRunner};
use smbm_obs::{DropReason, HistogramRecorder, PhaseProfiler, RingEventLog};
use smbm_sim::{run, run_observed, EngineConfig, FlushPolicy};
use smbm_switch::{ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

fn engine() -> EngineConfig {
    EngineConfig {
        flush: Some(FlushPolicy::every(64)),
        drain_at_end: true,
    }
}

fn scenario(seed: u64) -> MmppScenario {
    MmppScenario {
        sources: 12,
        slots: 400,
        seed,
        ..Default::default()
    }
}

#[test]
fn work_run_is_unchanged_by_full_observer_stack() {
    let cfg = WorkSwitchConfig::contiguous(4, 16).unwrap();
    let trace = scenario(11).work_trace(&cfg, &PortMix::Uniform).unwrap();

    let mut plain = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
    let baseline = run(&mut plain, &trace, &engine()).unwrap();

    let mut log = RingEventLog::new(1 << 12);
    let mut hist = HistogramRecorder::new();
    let mut prof = PhaseProfiler::new();
    let mut observed = WorkRunner::new(cfg, Lwd::new(), 1);
    let summary = run_observed(
        &mut observed,
        &trace,
        &engine(),
        &mut (&mut log, (&mut hist, &mut prof)),
    )
    .unwrap();

    assert_eq!(summary, baseline);
    assert_eq!(observed.switch().counters(), plain.switch().counters());
    // The recorder agrees with the engine on the headline numbers.
    assert_eq!(hist.arrivals(), trace.arrivals() as u64);
    assert_eq!(hist.transmitted_packets(), summary.score);
    assert_eq!(
        hist.arrivals(),
        hist.admitted_packets()
            + hist.drop_count(DropReason::BufferFull)
            + hist.drop_count(DropReason::Policy),
        "every offered packet is admitted or dropped"
    );
    assert_eq!(prof.report().slots, summary.slots);
    assert!(log.total_recorded() > 0);
}

#[test]
fn value_run_is_unchanged_by_full_observer_stack() {
    let cfg = ValueSwitchConfig::new(16, 4).unwrap();
    let trace = scenario(12)
        .value_trace(
            cfg.ports(),
            &PortMix::Uniform,
            &ValueMix::Uniform { max: 8 },
        )
        .unwrap();

    let mut plain = ValueRunner::new(cfg, Mrd::new(), 1);
    let baseline = run(&mut plain, &trace, &engine()).unwrap();

    let mut log = RingEventLog::new(1 << 12);
    let mut hist = HistogramRecorder::new();
    let mut prof = PhaseProfiler::new();
    let mut observed = ValueRunner::new(cfg, Mrd::new(), 1);
    let summary = run_observed(
        &mut observed,
        &trace,
        &engine(),
        &mut (&mut log, (&mut hist, &mut prof)),
    )
    .unwrap();

    assert_eq!(summary, baseline);
    assert_eq!(observed.switch().counters(), plain.switch().counters());
    assert_eq!(hist.arrivals(), trace.arrivals() as u64);
    assert_eq!(hist.transmitted_value(), summary.score);
    assert_eq!(prof.report().slots, summary.slots);
}

#[test]
fn combined_run_is_unchanged_by_full_observer_stack() {
    let cfg = WorkSwitchConfig::contiguous(3, 12).unwrap();
    let trace = scenario(13)
        .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::Uniform { max: 8 })
        .unwrap();

    let policy = combined_policy_by_name("WVD").unwrap();
    let mut plain = CombinedRunner::new(cfg.clone(), policy, 1);
    let baseline = run(&mut plain, &trace, &engine()).unwrap();

    let policy = combined_policy_by_name("WVD").unwrap();
    let mut log = RingEventLog::new(1 << 12);
    let mut hist = HistogramRecorder::new();
    let mut prof = PhaseProfiler::new();
    let mut observed = CombinedRunner::new(cfg, policy, 1);
    let summary = run_observed(
        &mut observed,
        &trace,
        &engine(),
        &mut (&mut log, (&mut hist, &mut prof)),
    )
    .unwrap();

    assert_eq!(summary, baseline);
    assert_eq!(observed.switch().counters(), plain.switch().counters());
    assert_eq!(hist.transmitted_value(), summary.score);
    assert_eq!(prof.report().slots, summary.slots);
}

#[test]
fn event_log_exports_parseable_jsonl() {
    // A small buffer under MMPP load guarantees drops alongside the usual
    // arrival/admission/transmission flow.
    let cfg = WorkSwitchConfig::contiguous(4, 8).unwrap();
    let trace = scenario(14).work_trace(&cfg, &PortMix::Uniform).unwrap();
    let mut log = RingEventLog::new(1 << 14);
    let mut runner = WorkRunner::new(cfg, Lwd::new(), 1);
    run_observed(&mut runner, &trace, &engine(), &mut log).unwrap();

    let jsonl = log.to_jsonl_with(&[("policy", "LWD")]);
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"policy\":\"LWD\",\"type\":\""),
            "{line}"
        );
        assert!(line.ends_with('}'), "{line}");
        assert_eq!(line.matches('{').count(), 1, "{line}");
        assert_eq!(line.matches('}').count(), 1, "{line}");
        assert_eq!(line.matches('"').count() % 2, 0, "{line}");
        assert!(line.contains("\"slot\":"), "{line}");
    }
    for kind in ["arrival", "admitted", "dropped", "transmitted", "slot_end"] {
        assert!(
            jsonl.contains(&format!("\"type\":\"{kind}\"")),
            "missing event kind {kind}"
        );
    }
}

#[test]
fn event_ring_bounds_long_runs() {
    let cfg = WorkSwitchConfig::contiguous(4, 16).unwrap();
    let trace = scenario(15).work_trace(&cfg, &PortMix::Uniform).unwrap();
    let mut log = RingEventLog::new(64);
    let mut runner = WorkRunner::new(cfg, Lwd::new(), 1);
    run_observed(&mut runner, &trace, &engine(), &mut log).unwrap();

    assert_eq!(log.len(), 64, "the ring stays at capacity");
    assert!(log.total_recorded() > 64, "older events were overwritten");
    // The retained tail still renders one JSON object per line.
    assert_eq!(log.to_jsonl().lines().count(), 64);
}

#[test]
fn histogram_json_reports_ordered_percentiles() {
    let cfg = WorkSwitchConfig::contiguous(4, 16).unwrap();
    let trace = scenario(16).work_trace(&cfg, &PortMix::Uniform).unwrap();
    let mut hist = HistogramRecorder::new();
    let mut runner = WorkRunner::new(cfg, Lwd::new(), 1);
    run_observed(&mut runner, &trace, &engine(), &mut hist).unwrap();

    let lat = hist.latency();
    assert!(lat.p50() <= lat.p90());
    assert!(lat.p90() <= lat.p99());
    assert!(lat.p99() <= lat.max());
    let json = hist.to_json();
    for key in [
        "\"arrived\":",
        "\"drops\":{\"buffer_full\":",
        "\"latency\":{",
        "\"occupancy\":{",
        "\"p50\":",
        "\"p99\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
