//! # smbm-traffic
//!
//! Traffic substrate for the shared-memory buffer-management reproduction:
//!
//! * [`Trace`] — per-slot arrival sequences with record/replay and a
//!   line-oriented text format, stored as one flat packet array plus one
//!   4-byte end offset per slot (two allocations per trace, not one per
//!   slot; at most `u32::MAX` packets, past which appending panics);
//! * [`MmppSource`] / [`MmppBank`] — the paper's on-off Markov-modulated
//!   Poisson sources (Section V-A);
//! * [`MmppScenario`] — builders for the three Fig. 5 traffic settings
//!   (heterogeneous work, uniform values, value==port);
//! * [`adversarial`] — the arrival constructions from every lower-bound
//!   theorem, paired with the proof's scripted OPT admission caps;
//! * samplers ([`Poisson`], [`Geometric`], [`Zipf`], [`Categorical`]) built
//!   on `rand`, since the paper's parameters don't map onto any stock
//!   distribution crate.
//!
//! ## Example
//!
//! ```
//! use smbm_switch::WorkSwitchConfig;
//! use smbm_traffic::{MmppScenario, PortMix};
//!
//! let cfg = WorkSwitchConfig::contiguous(4, 16)?;
//! let scenario = MmppScenario { slots: 100, sources: 10, ..Default::default() };
//! let trace = scenario.work_trace(&cfg, &PortMix::Uniform)?;
//! assert_eq!(trace.slots(), 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
mod dist {
    pub mod categorical;
    pub mod geometric;
    pub mod poisson;
    pub mod zipf;
}
mod mmpp;
mod scenario;
mod stats;
mod trace;

pub use dist::categorical::Categorical;
pub use dist::geometric::Geometric;
pub use dist::poisson::{ParamError, Poisson};
pub use dist::zipf::Zipf;
pub use mmpp::{MmppBank, MmppParams, MmppSource};
pub use scenario::{MmppScenario, PortMix, ValueMix};
pub use stats::{Summarize, TraceStats};
pub use trace::{ParseTraceError, Trace, TracePacket};
