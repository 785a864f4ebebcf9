//! Pins Fig. 5 at smoke scale: regenerates every panel through the
//! `smbm-bench` library, exactly as `fig5 --scale smoke` prints it with the
//! default seed, and compares the result byte for byte with
//! `results/fig5_smoke.csv`.
//!
//! A change that moves any published ratio fails here. If the move is
//! intended, regenerate the file with
//! `cargo run --release -p smbm-bench --bin fig5 -- --scale smoke > results/fig5_smoke.csv`
//! and say why in the commit.

use smbm_bench::{fig5_block, run_panel_averaged, Panel, PanelScale, FIG5_DEFAULT_SEED};

#[test]
fn fig5_smoke_output_is_byte_identical() {
    let mut out = String::new();
    for panel in Panel::all() {
        let (series, _) =
            run_panel_averaged(panel, PanelScale::Smoke, FIG5_DEFAULT_SEED, 1).unwrap();
        out.push_str(&fig5_block(
            panel,
            PanelScale::Smoke,
            FIG5_DEFAULT_SEED,
            1,
            &series,
        ));
    }
    let pinned = include_str!("../results/fig5_smoke.csv");
    for (i, (got, want)) in out.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(got, want, "results/fig5_smoke.csv line {} differs", i + 1);
    }
    assert_eq!(out, pinned);
}
