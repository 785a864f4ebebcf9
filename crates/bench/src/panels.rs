//! The nine panels of Fig. 5.
//!
//! Panel layout (matching the paper's Fig. 5 numbering):
//!
//! | # | model | swept | fixed |
//! |---|---|---|---|
//! | 1 | heterogeneous processing | `k` | `B = 64, C = 1` |
//! | 2 | heterogeneous processing | `B` | `k = 8, C = 1` |
//! | 3 | heterogeneous processing | `C` | `k = 8, B = 64` |
//! | 4 | values, uniform | `k` (max value) | `n = 8, B = 64, C = 1` |
//! | 5 | values, uniform | `B` | `k = 16, n = 8, C = 1` |
//! | 6 | values, uniform | `C` | `k = 16, n = 8, B = 64` |
//! | 7 | values == port | `k = n` | `B = 64, C = 1` |
//! | 8 | values == port | `B` | `k = n = 8, C = 1` |
//! | 9 | values == port | `C` | `k = n = 8, B = 64` |

use std::any::Any;
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError};

use smbm_core::PacketModel;
use smbm_obs::{HistogramRecorder, NullObserver, Observer};
use smbm_sim::{
    series_from_sweep, series_to_csv, sweep_with_jobs, EngineConfig, Experiment, ExperimentError,
    ExperimentReport, FlushPolicy, Series,
};
use smbm_switch::{
    PortId, Value, ValueQueue, ValueSwitchConfig, Work, WorkQueue, WorkSwitchConfig,
};
use smbm_traffic::{MmppParams, MmppScenario, PortMix, ValueMix};

/// One of the nine Fig. 5 panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Panel(u8);

impl Panel {
    /// Creates a panel handle from its Fig. 5 number.
    ///
    /// # Errors
    ///
    /// Returns `None` unless `1 <= n <= 9`.
    pub fn new(n: u8) -> Option<Panel> {
        (1..=9).contains(&n).then_some(Panel(n))
    }

    /// All nine panels.
    pub fn all() -> impl Iterator<Item = Panel> {
        (1..=9).map(Panel)
    }

    /// The Fig. 5 panel number.
    pub fn number(&self) -> u8 {
        self.0
    }

    /// The swept parameter's axis label.
    pub fn x_label(&self) -> &'static str {
        match self.0 {
            1 | 4 | 7 => "k",
            2 | 5 | 8 => "B",
            _ => "C",
        }
    }

    /// A one-line description matching the paper's caption.
    pub fn caption(&self) -> &'static str {
        match self.0 {
            1 => "required processing model: ratio vs max processing k",
            2 => "required processing model: ratio vs buffer size B",
            3 => "required processing model: ratio vs speedup C",
            4 => "value model (uniform values): ratio vs max value k",
            5 => "value model (uniform values): ratio vs buffer size B",
            6 => "value model (uniform values): ratio vs speedup C",
            7 => "value model (value==port): ratio vs max value k",
            8 => "value model (value==port): ratio vs buffer size B",
            _ => "value model (value==port): ratio vs speedup C",
        }
    }
}

/// Simulation scale: how many sources and slots back each point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelScale {
    /// A sub-second smoke scale, used by tests.
    Smoke,
    /// The default: seconds per panel, ratios within a few percent of the
    /// paper-scale run.
    Default,
    /// The paper's setting: 500 sources, 2,000,000 slots per point.
    Paper,
}

impl PanelScale {
    fn slots(&self) -> usize {
        match self {
            PanelScale::Smoke => 2_000,
            PanelScale::Default => 50_000,
            PanelScale::Paper => 2_000_000,
        }
    }

    /// MMPP sources backing the *work-model* panels. The per-source rate is
    /// fixed ([`mmpp_params`]); the source count sets the offered load
    /// relative to the switch's service capacity (`H_k` packets/slot for a
    /// contiguous work switch, `n*C` for a value switch), so the two models
    /// use different counts.
    fn work_sources(&self) -> usize {
        match self {
            PanelScale::Paper => 500,
            _ => 12,
        }
    }

    fn value_sources(&self) -> usize {
        match self {
            PanelScale::Paper => 500,
            _ => 32,
        }
    }

    /// Per-source parameters. At paper scale the per-source rate is reduced
    /// so the *aggregate* offered load stays comparable with 500 sources.
    fn mmpp_params(&self, sources_default: usize) -> MmppParams {
        let base = MmppParams {
            lambda_on: 2.0,
            p_on_to_off: 0.1,
            p_off_to_on: 1.0 / 30.0,
        };
        match self {
            PanelScale::Paper => MmppParams {
                lambda_on: base.lambda_on * sources_default as f64 / 500.0,
                ..base
            },
            _ => base,
        }
    }
}

/// Flushout period used by every panel (the paper flushes periodically but
/// does not give the period).
const FLUSH_PERIOD: u64 = 10_000;

fn engine() -> EngineConfig {
    EngineConfig {
        flush: Some(FlushPolicy::every(FLUSH_PERIOD)),
        drain_at_end: true,
    }
}

fn work_scenario(scale: PanelScale, seed: u64) -> MmppScenario {
    MmppScenario {
        sources: scale.work_sources(),
        params: scale.mmpp_params(PanelScale::Default.work_sources()),
        slots: scale.slots(),
        seed,
    }
}

fn value_scenario(scale: PanelScale, seed: u64) -> MmppScenario {
    MmppScenario {
        sources: scale.value_sources(),
        params: scale.mmpp_params(PanelScale::Default.value_sources()),
        slots: scale.slots(),
        seed,
    }
}

/// The swept x values of each panel.
pub fn panel_xs(panel: Panel, scale: PanelScale) -> Vec<f64> {
    let full: Vec<f64> = match panel.number() {
        1 => vec![2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0],
        2 | 5 | 8 => vec![16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
        3 | 6 | 9 => vec![1.0, 2.0, 3.0, 4.0, 6.0, 8.0],
        4 => vec![2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        7 => vec![2.0, 4.0, 8.0, 16.0, 32.0],
        _ => unreachable!("panel numbers validated"),
    };
    if scale == PanelScale::Smoke {
        full.into_iter().take(3).collect()
    } else {
        full
    }
}

/// Runs one panel at the given scale, returning one ratio series per policy.
///
/// # Errors
///
/// Propagates [`ExperimentError`] (registry or policy-decision failures) and
/// panics on invalid internal configurations (which would be a bug in the
/// panel definitions).
pub fn run_panel(
    panel: Panel,
    scale: PanelScale,
    seed: u64,
) -> Result<Vec<Series>, ExperimentError> {
    run_panel_with_jobs(panel, scale, seed, None)
}

/// Like [`run_panel`], with an explicit cap on sweep worker threads
/// (`None` uses the machine's available parallelism; see
/// [`smbm_sim::sweep_with_jobs`]).
///
/// # Errors
///
/// See [`run_panel`].
pub fn run_panel_with_jobs(
    panel: Panel,
    scale: PanelScale,
    seed: u64,
    jobs: Option<usize>,
) -> Result<Vec<Series>, ExperimentError> {
    let xs = panel_xs(panel, scale);
    let traces = SharedTraces::new(xs.iter().map(|&x| panel_point(panel, x).trace_key()));
    let points = sweep_with_jobs(
        &xs,
        |x| Ok(run_point(panel, x, scale, seed, &traces, NullObserver)?.0),
        jobs,
    )?;
    Ok(series_from_sweep(&points))
}

/// The experiment configuration a panel uses at one swept x value.
enum PanelPoint {
    Work {
        config: WorkSwitchConfig,
        speedup: u32,
    },
    Value {
        config: ValueSwitchConfig,
        speedup: u32,
        mix: ValueMix,
    },
}

/// The value mix the work panels pass to the trace generator, which draws
/// no values for work packets.
const WORK_MIX: ValueMix = ValueMix::EqualsPort;

impl PanelPoint {
    /// The inputs this point's arrival trace is generated from.
    fn trace_key(&self) -> TraceKey {
        match self {
            PanelPoint::Work { config, .. } => TraceKey::of::<WorkQueue>(config, &WORK_MIX),
            PanelPoint::Value { config, mix, .. } => TraceKey::of::<ValueQueue>(config, mix),
        }
    }
}

/// Everything a panel point's trace depends on besides the panel-wide
/// scenario (scale and seed): the packet model, each port's work label
/// (their count is the port count) and, where a port does not determine its
/// packets, the value mix. Points with equal keys replay the same trace.
#[derive(Debug, Clone, PartialEq)]
struct TraceKey {
    model: &'static str,
    works: Vec<Work>,
    values: Option<ValueMix>,
}

impl TraceKey {
    fn of<Q: PacketModel>(config: &Q::Config, mix: &ValueMix) -> TraceKey {
        TraceKey {
            model: Q::LABEL,
            works: (0..Q::ports(config))
                .map(|p| Q::work(Q::packet(config, PortId::new(p), Value::ONE)))
                .collect(),
            values: (!Q::PORT_DETERMINES_PACKET).then(|| mix.clone()),
        }
    }
}

/// The arrival traces of one panel run: one per distinct [`TraceKey`],
/// generated by the first point that asks for it and dropped when the last
/// point using it is done. A panel whose points share their trace inputs
/// (a `B` or `C` sweep) thus generates and holds one trace, however many
/// points and sweep workers it has; a panel whose every point differs (a
/// `k` sweep) holds only the traces of the points running.
struct SharedTraces {
    entries: Vec<(TraceKey, Mutex<SharedTrace>)>,
}

struct SharedTrace {
    trace: Option<Arc<dyn Any + Send + Sync>>,
    /// Points that have yet to finish with this trace.
    users: usize,
}

impl SharedTraces {
    /// Counts the users of each distinct key among `keys`, one per point.
    fn new(keys: impl IntoIterator<Item = TraceKey>) -> SharedTraces {
        let mut entries: Vec<(TraceKey, Mutex<SharedTrace>)> = Vec::new();
        for key in keys {
            match entries.iter_mut().find(|(k, _)| *k == key) {
                Some((_, entry)) => entry.get_mut().expect("not yet shared").users += 1,
                None => entries.push((
                    key,
                    Mutex::new(SharedTrace {
                        trace: None,
                        users: 1,
                    }),
                )),
            }
        }
        SharedTraces { entries }
    }

    /// Lends the trace of `key`, generating it with `generate` if no point
    /// holds it yet. Concurrent callers with the same key wait for the one
    /// generation.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not among the keys counted by [`SharedTraces::new`].
    fn lease<T: Any + Send + Sync>(
        &self,
        key: &TraceKey,
        generate: impl FnOnce() -> T,
    ) -> Lease<'_, T> {
        let (_, entry) = self
            .entries
            .iter()
            .find(|(k, _)| k == key)
            .expect("every point's trace key was counted");
        let trace = entry
            .lock()
            .expect("trace generation does not panic")
            .trace
            .get_or_insert_with(|| Arc::new(generate()))
            .clone();
        Lease {
            trace: trace.downcast().expect("a key names one packet model"),
            entry,
        }
    }
}

/// One point's loan of a shared trace; the last loan of a key frees it.
struct Lease<'a, T> {
    trace: Arc<T>,
    entry: &'a Mutex<SharedTrace>,
}

impl<T> Deref for Lease<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.trace
    }
}

impl<T> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        // A generation that panicked left the entry without a trace, which
        // is valid, so a poisoned lock is taken as is.
        let mut entry = self.entry.lock().unwrap_or_else(PoisonError::into_inner);
        entry.users -= 1;
        if entry.users == 0 {
            entry.trace = None;
        }
    }
}

fn panel_point(panel: Panel, x: f64) -> PanelPoint {
    match panel.number() {
        1 => {
            let k = x as u32;
            PanelPoint::Work {
                config: WorkSwitchConfig::contiguous(k, 64.max(k as usize)).expect("valid"),
                speedup: 1,
            }
        }
        2 => PanelPoint::Work {
            config: WorkSwitchConfig::contiguous(8, x as usize).expect("valid"),
            speedup: 1,
        },
        3 => PanelPoint::Work {
            config: WorkSwitchConfig::contiguous(8, 64).expect("valid"),
            speedup: x as u32,
        },
        4 => PanelPoint::Value {
            config: ValueSwitchConfig::new(64, 8).expect("valid"),
            speedup: 1,
            mix: ValueMix::Uniform { max: x as u64 },
        },
        5 => PanelPoint::Value {
            config: ValueSwitchConfig::new(x as usize, 8).expect("valid"),
            speedup: 1,
            mix: ValueMix::Uniform { max: 16 },
        },
        6 => PanelPoint::Value {
            config: ValueSwitchConfig::new(64, 8).expect("valid"),
            speedup: x as u32,
            mix: ValueMix::Uniform { max: 16 },
        },
        7 => PanelPoint::Value {
            config: ValueSwitchConfig::new(64.max(x as usize), x as usize).expect("valid"),
            speedup: 1,
            mix: ValueMix::EqualsPort,
        },
        8 => PanelPoint::Value {
            config: ValueSwitchConfig::new(x as usize, 8).expect("valid"),
            speedup: 1,
            mix: ValueMix::EqualsPort,
        },
        9 => PanelPoint::Value {
            config: ValueSwitchConfig::new(64, 8).expect("valid"),
            speedup: x as u32,
            mix: ValueMix::EqualsPort,
        },
        _ => unreachable!("panel numbers validated"),
    }
}

/// Runs one *representative* point of a panel (the median swept x) with a
/// [`HistogramRecorder`] attached to every roster policy and returns
/// `(policy, metrics JSON)` pairs in roster order — the per-policy metric
/// sidecars behind `fig5 --metrics-dir`. Observation does not change scores,
/// so this is a diagnostics add-on, not part of the ratio pipeline.
///
/// # Errors
///
/// See [`run_panel`].
pub fn panel_point_metrics(
    panel: Panel,
    scale: PanelScale,
    seed: u64,
) -> Result<Vec<(String, String)>, ExperimentError> {
    let xs = panel_xs(panel, scale);
    let x = xs[xs.len() / 2];
    let traces = SharedTraces::new([panel_point(panel, x).trace_key()]);
    let (_, policies, hists) = run_point(panel, x, scale, seed, &traces, HistogramRecorder::new())?;
    Ok(policies
        .into_iter()
        .zip(hists.iter().map(HistogramRecorder::to_json))
        .collect())
}

/// Runs the full roster of a panel at one swept x value on its trace from
/// `traces`, with a copy of `observer` attached to every policy: the
/// report, the roster and the observers, in roster order. The one match on
/// the panel's model.
fn run_point<O: Observer + Clone + Send>(
    panel: Panel,
    x: f64,
    scale: PanelScale,
    seed: u64,
    traces: &SharedTraces,
    observer: O,
) -> Result<(ExperimentReport, Vec<String>, Vec<O>), ExperimentError> {
    match panel_point(panel, x) {
        PanelPoint::Work { config, speedup } => {
            let scenario = work_scenario(scale, seed);
            run_roster::<WorkQueue, O>(config, speedup, &scenario, &WORK_MIX, traces, observer)
        }
        PanelPoint::Value {
            config,
            speedup,
            mix,
        } => {
            let scenario = value_scenario(scale, seed);
            run_roster::<ValueQueue, O>(config, speedup, &scenario, &mix, traces, observer)
        }
    }
}

/// One generic panel point: the MMPP trace, shared with every point of the
/// panel whose trace inputs match, then the model's full roster under the
/// panels' flushout engine.
fn run_roster<Q: PacketModel, O: Observer + Clone + Send>(
    config: Q::Config,
    speedup: u32,
    scenario: &MmppScenario,
    mix: &ValueMix,
    traces: &SharedTraces,
    observer: O,
) -> Result<(ExperimentReport, Vec<String>, Vec<O>), ExperimentError> {
    let trace = traces.lease(&TraceKey::of::<Q>(&config, mix), || {
        scenario
            .trace::<Q>(&config, &PortMix::Uniform, mix)
            .expect("valid scenario parameters")
    });
    let mut exp = Experiment::<Q>::full_roster(config, speedup);
    exp.engine = engine();
    let mut observers = vec![observer; exp.policies.len()];
    let report = exp.run_observed(&trace, &mut observers)?;
    Ok((report, exp.policies, observers))
}

/// Runs a panel `repeats` times with consecutive seeds and returns the
/// per-policy series of *mean* ratios, plus the largest observed relative
/// half-spread `(max-min)/(2*mean)` across all points (a cheap dispersion
/// diagnostic reported in the CSV header).
///
/// # Errors
///
/// See [`run_panel`].
pub fn run_panel_averaged(
    panel: Panel,
    scale: PanelScale,
    seed: u64,
    repeats: u32,
) -> Result<(Vec<Series>, f64), ExperimentError> {
    run_panel_averaged_with_jobs(panel, scale, seed, repeats, None)
}

/// Like [`run_panel_averaged`], with an explicit cap on sweep worker
/// threads (`None` uses the machine's available parallelism).
///
/// # Errors
///
/// See [`run_panel`].
pub fn run_panel_averaged_with_jobs(
    panel: Panel,
    scale: PanelScale,
    seed: u64,
    repeats: u32,
    jobs: Option<usize>,
) -> Result<(Vec<Series>, f64), ExperimentError> {
    assert!(repeats >= 1, "need at least one repeat");
    let mut runs: Vec<Vec<Series>> = Vec::with_capacity(repeats as usize);
    for r in 0..repeats {
        runs.push(run_panel_with_jobs(
            panel,
            scale,
            seed.wrapping_add(u64::from(r)),
            jobs,
        )?);
    }
    let first = &runs[0];
    let mut spread_max = 0.0f64;
    let averaged = first
        .iter()
        .enumerate()
        .map(|(si, s)| Series {
            label: s.label.clone(),
            points: s
                .points
                .iter()
                .enumerate()
                .map(|(pi, &(x, _))| {
                    let ys: Vec<f64> = runs.iter().map(|run| run[si].points[pi].1).collect();
                    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
                    let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
                    let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    if mean > 0.0 {
                        spread_max = spread_max.max((hi - lo) / (2.0 * mean));
                    }
                    (x, mean)
                })
                .collect(),
        })
        .collect();
    Ok((averaged, spread_max))
}

/// The seed the `fig5` binary uses when `--seed` is not given.
pub const FIG5_DEFAULT_SEED: u64 = 0xB0FFE2;

/// One panel exactly as the `fig5` binary prints it to stdout: a caption
/// comment line, the CSV, and a blank separator line.
pub fn fig5_block(
    panel: Panel,
    scale: PanelScale,
    seed: u64,
    repeats: u32,
    series: &[Series],
) -> String {
    format!(
        "# Fig.5({}) {} [scale {:?}, seed {}, repeats {}]\n{}\n",
        panel.number(),
        panel.caption(),
        scale,
        seed,
        repeats,
        series_to_csv(panel.x_label(), series)
    )
}

/// Runs a panel and renders it as CSV with a caption header comment.
/// With `repeats > 1` the values are means over consecutive seeds and the
/// header reports the worst relative half-spread observed.
///
/// # Errors
///
/// See [`run_panel`].
pub fn render_panel_averaged(
    panel: Panel,
    scale: PanelScale,
    seed: u64,
    repeats: u32,
) -> Result<String, ExperimentError> {
    let (series, spread) = run_panel_averaged(panel, scale, seed, repeats)?;
    let mut out = format!(
        "# Fig.5({}) {} [scale {:?}, seed {}, repeats {}, max half-spread {:.4}]\n",
        panel.number(),
        panel.caption(),
        scale,
        seed,
        repeats,
        spread
    );
    out.push_str(&series_to_csv(panel.x_label(), &series));
    Ok(out)
}

/// Runs a panel and renders it as CSV with a caption header comment.
///
/// # Errors
///
/// See [`run_panel`].
pub fn render_panel(panel: Panel, scale: PanelScale, seed: u64) -> Result<String, ExperimentError> {
    let series = run_panel(panel, scale, seed)?;
    let mut out = format!(
        "# Fig.5({}) {} [scale {:?}, seed {}]\n",
        panel.number(),
        panel.caption(),
        scale,
        seed
    );
    out.push_str(&series_to_csv(panel.x_label(), &series));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_validation() {
        assert!(Panel::new(0).is_none());
        assert!(Panel::new(10).is_none());
        assert_eq!(Panel::new(5).unwrap().number(), 5);
        assert_eq!(Panel::all().count(), 9);
    }

    #[test]
    fn labels_and_captions() {
        assert_eq!(Panel::new(1).unwrap().x_label(), "k");
        assert_eq!(Panel::new(5).unwrap().x_label(), "B");
        assert_eq!(Panel::new(9).unwrap().x_label(), "C");
        for p in Panel::all() {
            assert!(!p.caption().is_empty());
        }
    }

    #[test]
    fn xs_are_nonempty_and_increasing() {
        for p in Panel::all() {
            for scale in [PanelScale::Smoke, PanelScale::Default] {
                let xs = panel_xs(p, scale);
                assert!(!xs.is_empty());
                assert!(xs.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn smoke_scale_truncates() {
        assert_eq!(panel_xs(Panel::new(2).unwrap(), PanelScale::Smoke).len(), 3);
    }

    #[test]
    fn work_panel_smoke_runs() {
        let series = run_panel(Panel::new(1).unwrap(), PanelScale::Smoke, 7).unwrap();
        assert_eq!(series.len(), smbm_core::WORK_POLICY_NAMES.len());
        for s in &series {
            assert_eq!(s.points.len(), 3);
            for &(_, ratio) in &s.points {
                assert!(ratio.is_finite() && ratio > 0.5, "{}: {ratio}", s.label);
            }
        }
    }

    #[test]
    fn value_panel_smoke_runs() {
        let series = run_panel(Panel::new(7).unwrap(), PanelScale::Smoke, 7).unwrap();
        assert_eq!(series.len(), smbm_core::VALUE_POLICY_NAMES.len());
    }

    #[test]
    fn job_cap_does_not_change_results() {
        // Panel 2's points share one trace; two workers must wait for its
        // one generation and read the same packets as one worker does.
        let shared = Panel::new(2).unwrap();
        assert_eq!(
            run_panel_with_jobs(shared, PanelScale::Smoke, 7, Some(2)).unwrap(),
            run_panel_with_jobs(shared, PanelScale::Smoke, 7, Some(1)).unwrap()
        );
        let p = Panel::new(1).unwrap();
        let default = run_panel(p, PanelScale::Smoke, 7).unwrap();
        let single = run_panel_with_jobs(p, PanelScale::Smoke, 7, Some(1)).unwrap();
        assert_eq!(default, single);
        let (avg_default, _) = run_panel_averaged(p, PanelScale::Smoke, 7, 2).unwrap();
        let (avg_single, _) =
            run_panel_averaged_with_jobs(p, PanelScale::Smoke, 7, 2, Some(1)).unwrap();
        assert_eq!(avg_default, avg_single);
    }

    #[test]
    fn averaging_reduces_to_single_run_for_one_repeat() {
        let p = Panel::new(1).unwrap();
        let single = run_panel(p, PanelScale::Smoke, 7).unwrap();
        let (avg, spread) = run_panel_averaged(p, PanelScale::Smoke, 7, 1).unwrap();
        assert_eq!(avg, single);
        assert_eq!(spread, 0.0);
    }

    #[test]
    fn averaging_over_seeds_stays_near_each_run() {
        let p = Panel::new(1).unwrap();
        let (avg, spread) = run_panel_averaged(p, PanelScale::Smoke, 7, 3).unwrap();
        assert_eq!(avg.len(), smbm_core::WORK_POLICY_NAMES.len());
        assert!((0.0..0.5).contains(&spread), "spread {spread}");
        for s in &avg {
            for &(_, y) in &s.points {
                assert!(y.is_finite() && y > 0.5);
            }
        }
    }

    #[test]
    fn point_metrics_cover_the_roster() {
        // One work panel and one value panel; every policy gets a sidecar.
        for (panel, names) in [
            (1u8, smbm_core::WORK_POLICY_NAMES),
            (7, smbm_core::VALUE_POLICY_NAMES),
        ] {
            let metrics =
                panel_point_metrics(Panel::new(panel).unwrap(), PanelScale::Smoke, 7).unwrap();
            assert_eq!(metrics.len(), names.len());
            for ((policy, json), expect) in metrics.iter().zip(names) {
                assert_eq!(policy, expect);
                assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
                for key in ["\"drops\"", "\"latency\"", "\"p99\"", "\"occupancy\""] {
                    assert!(json.contains(key), "missing {key} in {json}");
                }
            }
        }
    }

    #[test]
    fn sweeps_over_b_and_c_share_one_trace_and_sweeps_over_k_do_not() {
        for panel in Panel::all() {
            let xs = panel_xs(panel, PanelScale::Default);
            let keys: Vec<TraceKey> = xs
                .iter()
                .map(|&x| panel_point(panel, x).trace_key())
                .collect();
            let distinct = SharedTraces::new(keys).entries.len();
            let expected = match panel.number() {
                1 | 4 | 7 => xs.len(),
                _ => 1,
            };
            assert_eq!(distinct, expected, "panel {}", panel.number());
        }
    }

    #[test]
    fn a_shared_trace_is_generated_once_and_freed_by_its_last_user() {
        let key = panel_point(Panel::new(2).unwrap(), 16.0).trace_key();
        let traces = SharedTraces::new([key.clone(), key.clone(), key.clone()]);
        let generated = std::sync::atomic::AtomicUsize::new(0);
        let generate = || {
            generated.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            vec![7u8]
        };
        let first = traces.lease(&key, generate);
        let second = traces.lease(&key, generate);
        assert!(Arc::ptr_eq(&first.trace, &second.trace));
        drop((first, second));
        let third = traces.lease(&key, generate);
        assert_eq!(*third, vec![7u8]);
        assert_eq!(generated.into_inner(), 1);
        drop(third);
        assert!(traces.entries[0].1.lock().unwrap().trace.is_none());
    }

    #[test]
    fn render_includes_caption() {
        let csv = render_panel(Panel::new(4).unwrap(), PanelScale::Smoke, 7).unwrap();
        assert!(csv.starts_with("# Fig.5(4)"));
        assert!(csv.contains("k,"));
    }
}
