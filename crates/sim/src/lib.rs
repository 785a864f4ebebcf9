//! # smbm-sim
//!
//! Simulation engine and experiment harness for the shared-memory
//! buffer-management reproduction:
//!
//! * [`run_work`] / [`run_value`] — the two-phase slot loop over a trace,
//!   with the paper's periodic flushouts ([`FlushPolicy`]) and optional
//!   final drain;
//! * [`WorkExperiment`] / [`ValueExperiment`] — a policy roster compared
//!   against the paper's single-PQ OPT surrogate on one trace, the entries
//!   run in parallel on the pool that sweeps use;
//! * [`measure_work_construction`] / [`measure_value_construction`] —
//!   replay a theorem's adversarial trace: target policy vs. the proof's
//!   scripted OPT;
//! * [`sweep`] — parallel parameter sweeps, and [`series_to_csv`] to render
//!   the Fig. 5 panels.
//!
//! ## Example
//!
//! ```
//! use smbm_sim::{run_work, EngineConfig};
//! use smbm_core::{GreedyWork, WorkRunner};
//! use smbm_switch::{PortId, Work, WorkPacket, WorkSwitchConfig};
//! use smbm_traffic::Trace;
//!
//! let cfg = WorkSwitchConfig::contiguous(2, 4)?;
//! let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
//! let mut trace = Trace::new();
//! trace.push_slot(vec![WorkPacket::new(PortId::new(0), Work::new(1))]);
//! let summary = run_work(&mut sys, &trace, &EngineConfig::draining())?;
//! assert_eq!(summary.score, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod experiment;
mod fairness;
mod flush;
mod metrics;
mod sweep;

pub use engine::{
    run_combined, run_combined_observed, run_value, run_value_observed, run_work,
    run_work_observed, EngineConfig, RunSummary,
};
pub use experiment::{
    measure_value_construction, measure_work_construction, CombinedExperiment, ConstructionReport,
    ExperimentError, ExperimentReport, PolicyRow, ValueExperiment, WorkExperiment,
};
pub use fairness::{jain_index, max_port_share};
pub use flush::{FlushMode, FlushPolicy};
pub use metrics::{series_from_sweep, series_to_csv, series_to_gnuplot, Series};
pub use sweep::{sweep, sweep_with_jobs, SweepPoint};
