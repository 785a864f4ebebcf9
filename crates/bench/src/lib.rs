//! # smbm-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! Fig. 5 (all nine panels) and the theorem lower-bound table, shared by the
//! `fig5`, `lower_bounds` and `ablations` binaries and by the integration
//! tests.
//!
//! The paper runs 500 MMPP sources for 2·10⁶ slots per point; the defaults
//! here are scaled down (see [`PanelScale`]) so a full panel regenerates in
//! seconds on a laptop — pass `--scale paper` to the binaries for the full
//! setting. EXPERIMENTS.md records the parameters used for the committed
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod lower_bounds;
pub mod panels;

pub use ablation::{
    awd_alpha_ablation, flush_ablation, lwd_tie_break_ablation, mrd_variants_ablation,
    nhdt_generalization_ablation, opt_cores_ablation, render_ablation, AblationRow,
};
pub use lower_bounds::{
    all_lower_bounds, lower_bound_by_name, lwd_upper_bound_stress, render_table, LOWER_BOUND_NAMES,
};
pub use panels::{
    fig5_block, panel_point_metrics, render_panel, render_panel_averaged, run_panel,
    run_panel_averaged, run_panel_averaged_with_jobs, run_panel_with_jobs, Panel, PanelScale,
    FIG5_DEFAULT_SEED,
};
