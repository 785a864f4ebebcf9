//! The theorem lower-bound table: replay every adversarial construction and
//! compare the measured ratio with the theorem's bound.

use smbm_sim::{measure_construction, ConstructionReport, ExperimentError};
use smbm_traffic::adversarial;

/// Registry keys accepted by [`lower_bound_by_name`].
pub const LOWER_BOUND_NAMES: &[&str] = &[
    "nhst",
    "nest",
    "nhdt",
    "lqd-work",
    "bpd",
    "lwd",
    "lwd-upper",
    "greedy-value",
    "lqd-value",
    "mvd",
    "mrd",
];

/// Theorem 7 stress: runs **LWD** on every *work-model* attack trace
/// (including the ones designed for other policies) against each trace's
/// scripted OPT, and reports the worst ratio observed. Theorem 7 guarantees
/// it stays below 2 on any arrival sequence.
///
/// # Errors
///
/// Propagates [`ExperimentError`] from a replay.
pub fn lwd_upper_bound_stress() -> Result<ConstructionReport, ExperimentError> {
    let mut constructions = vec![
        adversarial::nhst_lower_bound(8, 96, 5),
        adversarial::nest_lower_bound(8, 48, 5),
        adversarial::nhdt_lower_bound(32, 256, 3),
        adversarial::lqd_work_lower_bound(36, 144, 4),
        adversarial::bpd_lower_bound(16, 64, 5_000),
        adversarial::lwd_lower_bound(120, 20),
    ];
    let mut worst: Option<ConstructionReport> = None;
    for c in &mut constructions {
        c.target_policy = "LWD";
        let r = measure_construction(c)?;
        if worst.as_ref().is_none_or(|w| r.ratio() > w.ratio()) {
            worst = Some(r);
        }
    }
    let mut worst = worst.expect("at least one construction ran");
    worst.name = format!("Thm7 LWD worst-of-6 ({})", worst.name);
    worst.predicted = 2.0; // the upper bound it must stay below
    Ok(worst)
}

/// Runs one theorem's construction at its default parameters.
///
/// # Errors
///
/// Returns `None` for unknown names; propagates [`ExperimentError`] from the
/// replay.
pub fn lower_bound_by_name(name: &str) -> Option<Result<ConstructionReport, ExperimentError>> {
    let report = match name.to_ascii_lowercase().as_str() {
        // Parameters are chosen so each bound is visible but the replay
        // stays fast; the binaries accept overrides.
        "nhst" => measure_construction(&adversarial::nhst_lower_bound(8, 48, 20)),
        "nest" => measure_construction(&adversarial::nest_lower_bound(8, 48, 20)),
        "nhdt" => measure_construction(&adversarial::nhdt_lower_bound(64, 512, 6)),
        "lqd-work" => measure_construction(&adversarial::lqd_work_lower_bound(64, 256, 8)),
        "bpd" => measure_construction(&adversarial::bpd_lower_bound(16, 64, 20_000)),
        "lwd" => measure_construction(&adversarial::lwd_lower_bound(120, 40)),
        "lwd-upper" => lwd_upper_bound_stress(),
        "greedy-value" => measure_construction(&adversarial::greedy_value_lower_bound(16, 64, 10)),
        "lqd-value" => measure_construction(&adversarial::lqd_value_lower_bound(64, 128, 20)),
        "mvd" => measure_construction(&adversarial::mvd_lower_bound(16, 64, 20_000)),
        "mrd" => measure_construction(&adversarial::mrd_lower_bound(120, 40)),
        _ => return None,
    };
    Some(report)
}

/// Runs the full table.
///
/// # Errors
///
/// Propagates the first replay failure.
pub fn all_lower_bounds() -> Result<Vec<ConstructionReport>, ExperimentError> {
    LOWER_BOUND_NAMES
        .iter()
        .map(|n| lower_bound_by_name(n).expect("registry names are valid"))
        .collect()
}

/// Renders construction reports as an aligned text table.
pub fn render_table(reports: &[ConstructionReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<30} {:>8} {:>10} {:>10}\n",
        "construction", "policy", "measured", "predicted"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<30} {:>8} {:>10.3} {:>10.3}\n",
            r.name,
            r.policy,
            r.ratio(),
            r.predicted
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_names() {
        for name in LOWER_BOUND_NAMES {
            assert!(lower_bound_by_name(name).is_some(), "{name}");
        }
        assert!(lower_bound_by_name("nope").is_none());
    }

    #[test]
    fn small_constructions_beat_one() {
        // Small/fast variants of a few constructions: the scripted OPT must
        // beat the target policy.
        let r = measure_construction(&adversarial::nest_lower_bound(4, 16, 4)).unwrap();
        assert!(r.ratio() > 1.5, "NEST ratio {}", r.ratio());
        let r = measure_construction(&adversarial::bpd_lower_bound(4, 16, 500)).unwrap();
        assert!(r.ratio() > 1.3, "BPD ratio {}", r.ratio());
        let r = measure_construction(&adversarial::mvd_lower_bound(8, 32, 500)).unwrap();
        assert!(r.ratio() > 2.0, "MVD ratio {}", r.ratio());
    }

    #[test]
    fn lwd_upper_stress_stays_below_two() {
        let r = lwd_upper_bound_stress().unwrap();
        assert!(r.ratio() < 2.0, "Theorem 7 violated: {}", r.ratio());
        assert!(r.ratio() > 1.0);
        assert_eq!(r.predicted, 2.0);
        assert!(r.name.contains("Thm7"));
    }

    #[test]
    fn table_renders_all_rows() {
        let r = measure_construction(&adversarial::nest_lower_bound(4, 16, 2)).unwrap();
        let table = render_table(&[r]);
        assert!(table.contains("NEST"));
        assert!(table.contains("predicted"));
        assert_eq!(table.lines().count(), 2);
    }
}
