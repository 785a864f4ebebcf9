//! End-to-end regression tests for every theorem's lower-bound replay: the
//! measured ratio must land near the theorem's formula and the ranking of
//! the constructions must hold.

use smbm_sim::measure_construction;
use smbm_traffic::adversarial;

/// Asserts `measured` is within `tol` (relative) of `predicted`.
fn assert_close(name: &str, measured: f64, predicted: f64, tol: f64) {
    let rel = (measured - predicted).abs() / predicted;
    assert!(
        rel <= tol,
        "{name}: measured {measured:.3} vs predicted {predicted:.3} (rel err {rel:.3} > {tol})"
    );
}

#[test]
fn theorem1_nhst_matches_kz() {
    let c = adversarial::nhst_lower_bound(8, 192, 5);
    let r = measure_construction(&c).unwrap();
    assert_close("Thm1", r.ratio(), r.predicted, 0.02);
}

#[test]
fn theorem1_ratio_grows_with_k() {
    let small = measure_construction(&adversarial::nhst_lower_bound(4, 96, 3)).unwrap();
    let large = measure_construction(&adversarial::nhst_lower_bound(8, 96, 3)).unwrap();
    assert!(large.ratio() > small.ratio());
}

#[test]
fn theorem2_nest_matches_n() {
    let c = adversarial::nest_lower_bound(8, 48, 5);
    let r = measure_construction(&c).unwrap();
    assert_close("Thm2", r.ratio(), 8.0, 0.01);
}

#[test]
fn theorem3_nhdt_matches_formula() {
    let c = adversarial::nhdt_lower_bound(32, 256, 3);
    let r = measure_construction(&c).unwrap();
    assert_close("Thm3", r.ratio(), r.predicted, 0.15);
    assert!(r.ratio() > 3.0, "NHDT must degrade badly: {}", r.ratio());
}

#[test]
fn theorem4_lqd_matches_formula() {
    let c = adversarial::lqd_work_lower_bound(36, 144, 4);
    let r = measure_construction(&c).unwrap();
    assert_close("Thm4", r.ratio(), r.predicted, 0.15);
}

#[test]
fn theorem5_bpd_matches_harmonic() {
    let c = adversarial::bpd_lower_bound(16, 64, 10_000);
    let r = measure_construction(&c).unwrap();
    // H_16 = 3.3807...
    assert_close("Thm5", r.ratio(), 3.3807, 0.02);
}

#[test]
fn theorem6_lwd_near_four_thirds_but_below_two() {
    let c = adversarial::lwd_lower_bound(120, 20);
    let r = measure_construction(&c).unwrap();
    assert!(r.ratio() > 1.2, "LWD trace too weak: {}", r.ratio());
    assert!(r.ratio() < 2.0, "Theorem 7 violated: {}", r.ratio());
    assert_close("Thm6", r.ratio(), r.predicted, 0.1);
}

#[test]
fn theorem9_lqd_value_matches_formula() {
    let c = adversarial::lqd_value_lower_bound(64, 128, 10);
    let r = measure_construction(&c).unwrap();
    assert_close("Thm9", r.ratio(), r.predicted, 0.1);
}

#[test]
fn theorem10_mvd_matches_half_m() {
    let c = adversarial::mvd_lower_bound(16, 64, 10_000);
    let r = measure_construction(&c).unwrap();
    assert_close("Thm10", r.ratio(), 8.5, 0.02);
}

#[test]
fn theorem10_ratio_grows_with_m() {
    let small = measure_construction(&adversarial::mvd_lower_bound(4, 64, 2_000)).unwrap();
    let large = measure_construction(&adversarial::mvd_lower_bound(12, 64, 2_000)).unwrap();
    assert!(large.ratio() > small.ratio() + 2.0);
}

#[test]
fn theorem11_mrd_near_four_thirds() {
    let c = adversarial::mrd_lower_bound(120, 20);
    let r = measure_construction(&c).unwrap();
    assert_close("Thm11", r.ratio(), 4.0 / 3.0, 0.05);
}

#[test]
fn lwd_survives_every_other_works_construction() {
    // The decisive comparison: run LWD on the traces designed to break the
    // *other* work policies; it must stay below 2 on all of them (Theorem 7
    // holds for any arrival sequence).
    let mut constructions = vec![
        adversarial::nhst_lower_bound(8, 96, 5),
        adversarial::nest_lower_bound(8, 48, 5),
        adversarial::nhdt_lower_bound(32, 256, 3),
        adversarial::lqd_work_lower_bound(36, 144, 4),
        adversarial::bpd_lower_bound(16, 64, 5_000),
    ];
    for c in &mut constructions {
        c.target_policy = "LWD";
        let r = measure_construction(c).unwrap();
        assert!(r.ratio() < 2.0, "LWD beyond 2 on {}: {}", r.name, r.ratio());
    }
}
