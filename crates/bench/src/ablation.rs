//! Ablations of the design choices DESIGN.md documents as deviations or
//! unspecified details (flush mode, LWD tie-breaking, OPT core count) and
//! of the extension policies (AWD(α), NHDT-W, MRD-strict).

use smbm_core::{
    value_policy_by_name, work_policy_by_name, AlphaWd, Capped, Lwd, LwdTieBreak, Policy,
    ValuePqOpt, ValueRunner, WorkPqOpt, WorkRunner,
};
use smbm_sim::{run, EngineConfig, ExperimentError, FlushMode, FlushPolicy};
use smbm_switch::{ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{adversarial, MmppScenario, PortMix, Trace, ValueMix};

/// One ablation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The varied setting.
    pub variant: String,
    /// Objective score under that setting.
    pub score: u64,
    /// Ratio to the first (baseline) variant's score.
    pub relative: f64,
}

fn rows_from_scores(variants: Vec<(String, u64)>) -> Vec<AblationRow> {
    let base = variants.first().map(|&(_, s)| s).unwrap_or(1).max(1);
    variants
        .into_iter()
        .map(|(variant, score)| AblationRow {
            variant,
            score,
            relative: score as f64 / base as f64,
        })
        .collect()
}

fn standard_trace(slots: usize, seed: u64) -> (WorkSwitchConfig, Trace<smbm_switch::WorkPacket>) {
    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let scenario = MmppScenario {
        sources: 12,
        slots,
        seed,
        ..Default::default()
    };
    let trace = scenario
        .work_trace(&cfg, &PortMix::Uniform)
        .expect("valid scenario");
    (cfg, trace)
}

/// Flush-mode ablation: LWD's throughput under no flush, draining flushes,
/// and dropping flushes (period 5,000 slots).
///
/// # Errors
///
/// Propagates engine failures (none for well-formed inputs).
pub fn flush_ablation(slots: usize, seed: u64) -> Result<Vec<AblationRow>, ExperimentError> {
    let (cfg, trace) = standard_trace(slots, seed);
    let variants: [(&str, EngineConfig); 3] = [
        ("no-flush", EngineConfig::draining()),
        (
            "flush-drain",
            EngineConfig {
                flush: Some(FlushPolicy {
                    period: 5_000,
                    mode: FlushMode::Drain,
                }),
                drain_at_end: true,
            },
        ),
        (
            "flush-drop",
            EngineConfig {
                flush: Some(FlushPolicy {
                    period: 5_000,
                    mode: FlushMode::Drop,
                }),
                drain_at_end: true,
            },
        ),
    ];
    let mut scores = Vec::new();
    for (name, engine) in variants {
        let mut runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
        let score = run(&mut runner, &trace, &engine)?.score;
        scores.push((name.to_string(), score));
    }
    Ok(rows_from_scores(scores))
}

/// LWD tie-break ablation: max-work (paper), max-length, min-work.
///
/// # Errors
///
/// Propagates engine failures (none for well-formed inputs).
pub fn lwd_tie_break_ablation(
    slots: usize,
    seed: u64,
) -> Result<Vec<AblationRow>, ExperimentError> {
    let (cfg, trace) = standard_trace(slots, seed);
    let mut scores = Vec::new();
    for tie in [
        LwdTieBreak::MaxWork,
        LwdTieBreak::MaxLen,
        LwdTieBreak::MinWork,
    ] {
        let policy = Lwd::with_tie_break(tie);
        let name = policy.name().to_string();
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        let score = run(&mut runner, &trace, &EngineConfig::draining())?.score;
        scores.push((name, score));
    }
    Ok(rows_from_scores(scores))
}

/// OPT-surrogate sensitivity: the PQ yardstick's throughput with `n*C`
/// cores (the paper's choice) versus half and double that, showing how much
/// the reported "competitive ratio" depends on the surrogate's strength.
///
/// # Errors
///
/// Propagates engine failures (none for well-formed inputs).
pub fn opt_cores_ablation(slots: usize, seed: u64) -> Result<Vec<AblationRow>, ExperimentError> {
    let (cfg, trace) = standard_trace(slots, seed);
    let n = cfg.ports() as u32;
    let mut scores = Vec::new();
    for (name, cores) in [("nC", n), ("nC/2", (n / 2).max(1)), ("2nC", 2 * n)] {
        let mut opt = WorkPqOpt::new(cfg.buffer(), cores);
        let score = run(&mut opt, &trace, &EngineConfig::draining())?.score;
        scores.push((name.to_string(), score));
    }
    Ok(rows_from_scores(scores))
}

/// AWD(α) interpolation sweep: how throughput moves as the push-out score
/// slides from pure queue length (LQD, α = 0) to pure outstanding work
/// (LWD, α = 1) on congested heterogeneous traffic. Supports the paper's
/// Section III-B argument that accounting for work explicitly is what wins.
///
/// # Errors
///
/// Propagates engine failures (none for well-formed inputs).
pub fn awd_alpha_ablation(slots: usize, seed: u64) -> Result<Vec<AblationRow>, ExperimentError> {
    let (cfg, trace) = standard_trace(slots, seed);
    let mut scores = Vec::new();
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut runner = WorkRunner::new(cfg.clone(), AlphaWd::new(alpha), 1);
        let score = run(&mut runner, &trace, &EngineConfig::draining())?.score;
        scores.push((format!("AWD({alpha})"), score));
    }
    Ok(rows_from_scores(scores))
}

/// The paper's open problem, executed: plain NHDT versus the work-aware
/// NHDT-W on Theorem 3's adversarial trace (where NHDT collapses) and on
/// statistical MMPP traffic (where both should be comparable). Scores are
/// packets; `relative` is versus NHDT on the same trace.
///
/// # Errors
///
/// Propagates engine failures (none for well-formed inputs).
pub fn nhdt_generalization_ablation(seed: u64) -> Result<Vec<AblationRow>, ExperimentError> {
    let mut rows = Vec::new();
    // Adversarial: Theorem 3's construction.
    let c = adversarial::nhdt_lower_bound(64, 512, 4);
    let mut opt = WorkRunner::new(c.config.clone(), Capped::new(c.opt_caps.clone()), 1);
    let opt_score = run(&mut opt, &c.trace, &EngineConfig::horizon_only())?.score;
    let mut scores = vec![("thm3:OPT-script".to_string(), opt_score)];
    for name in ["NHDT", "NHDT-W", "LWD"] {
        let policy = work_policy_by_name(name).expect("registry name");
        let mut runner = WorkRunner::new(c.config.clone(), policy, 1);
        let score = run(&mut runner, &c.trace, &EngineConfig::horizon_only())?.score;
        scores.push((format!("thm3:{name}"), score));
    }
    rows.extend(rows_from_scores(scores));
    // Statistical: the standard MMPP point.
    let (cfg, trace) = standard_trace(50_000, seed);
    let mut scores = Vec::new();
    for name in ["NHDT", "NHDT-W", "LWD"] {
        let policy = work_policy_by_name(name).expect("registry name");
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        let score = run(&mut runner, &trace, &EngineConfig::draining())?.score;
        scores.push((format!("mmpp:{name}"), score));
    }
    rows.extend(rows_from_scores(scores));
    Ok(rows)
}

/// MRD reading ablation: the virtual-add MRD used in this reproduction
/// versus the paper-literal MRD-strict and LQD, across three value==port
/// traffic mixes (uniform ports, cheap-heavy, value-heavy). MRD-strict's
/// buffer freeze shows up as a large score deficit.
///
/// # Errors
///
/// Propagates engine failures (none for well-formed inputs).
pub fn mrd_variants_ablation(slots: usize, seed: u64) -> Result<Vec<AblationRow>, ExperimentError> {
    let ports = 8usize;
    let buffer = 16usize;
    let cfg = ValueSwitchConfig::new(buffer, ports).expect("valid");
    let mixes: [(&str, PortMix); 3] = [
        ("uniform", PortMix::Uniform),
        (
            "cheap-heavy",
            PortMix::Weighted((1..=ports).map(|v| 1.0 / v as f64).collect()),
        ),
        (
            "value-heavy",
            PortMix::Weighted((1..=ports).map(|v| (v * v) as f64).collect()),
        ),
    ];
    let mut rows = Vec::new();
    for (label, mix) in mixes {
        let scenario = MmppScenario {
            sources: 32,
            slots,
            seed,
            ..Default::default()
        };
        let trace = scenario
            .value_trace(ports, &mix, &ValueMix::EqualsPort)
            .expect("valid scenario");
        let mut opt = ValuePqOpt::new(buffer, ports as u32);
        let opt_score = run(&mut opt, &trace, &EngineConfig::draining())?.score;
        let mut scores = vec![(format!("{label}:OPT(pq)"), opt_score)];
        for name in ["LQD", "MRD", "MRD-STRICT"] {
            let policy = value_policy_by_name(name).expect("registry name");
            let mut runner = ValueRunner::new(cfg, policy, 1);
            let score = run(&mut runner, &trace, &EngineConfig::draining())?.score;
            scores.push((format!("{label}:{name}"), score));
        }
        rows.extend(rows_from_scores(scores));
    }
    Ok(rows)
}

/// Renders ablation rows as an aligned table.
pub fn render_ablation(title: &str, rows: &[AblationRow]) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>10}\n",
        "variant", "score", "relative"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>12} {:>10.4}\n",
            r.variant, r.score, r.relative
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_ablation_runs() {
        let rows = flush_ablation(4_000, 5).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].relative, 1.0);
        // Dropping flushes can only lose packets relative to draining.
        assert!(rows[2].score <= rows[1].score);
    }

    #[test]
    fn tie_break_ablation_runs() {
        let rows = lwd_tie_break_ablation(4_000, 5).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].variant, "LWD");
        for r in &rows {
            assert!(r.score > 0);
        }
    }

    #[test]
    fn opt_cores_monotone() {
        let rows = opt_cores_ablation(4_000, 5).unwrap();
        assert_eq!(rows.len(), 3);
        // More cores never transmit less.
        assert!(rows[1].score <= rows[0].score, "half cores beat nC");
        assert!(rows[2].score >= rows[0].score, "double cores lost to nC");
    }

    #[test]
    fn awd_sweep_runs_and_work_end_wins_under_heterogeneity() {
        let rows = awd_alpha_ablation(6_000, 5).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].variant, "AWD(0)");
        // The LWD end must not lose to the LQD end on heterogeneous traffic.
        assert!(rows[4].score >= rows[0].score * 99 / 100);
    }

    #[test]
    fn nhdt_generalization_repairs_theorem3() {
        let rows = nhdt_generalization_ablation(5).unwrap();
        let get = |v: &str| rows.iter().find(|r| r.variant == v).unwrap().score;
        assert!(
            get("thm3:NHDT-W") > 3 * get("thm3:NHDT"),
            "NHDT-W did not repair the Theorem 3 attack"
        );
        // No significant regression on statistical traffic.
        assert!(get("mmpp:NHDT-W") * 100 >= get("mmpp:NHDT") * 95);
    }

    #[test]
    fn mrd_strict_freezes() {
        let rows = mrd_variants_ablation(6_000, 5).unwrap();
        let get = |v: &str| rows.iter().find(|r| r.variant == v).unwrap().score;
        // The paper-literal rule loses badly against the virtual-add MRD.
        assert!(get("uniform:MRD-STRICT") < get("uniform:MRD"));
    }

    #[test]
    fn render_is_aligned() {
        let rows = vec![AblationRow {
            variant: "x".into(),
            score: 10,
            relative: 1.0,
        }];
        let s = render_ablation("t", &rows);
        assert!(s.contains("== t =="));
        assert!(s.contains("relative"));
    }
}
