//! Adversarial arrival constructions from the paper's lower-bound proofs.
//!
//! Each theorem's proof builds an explicit arrival sequence together with a
//! description of what OPT admits on it. We reify both: the arrival sequence
//! as a [`Trace`], and the proof's OPT as a vector of static per-queue
//! admission caps (executable via `smbm_core::Capped`). Running the target
//! policy and the scripted OPT on the same trace reproduces each theorem's
//! bound empirically.

mod value;
mod work;

pub use value::{
    greedy_value_lower_bound, lqd_value_lower_bound, mrd_lower_bound, mvd_lower_bound,
};
pub use work::{
    bpd_lower_bound, lqd_work_lower_bound, lwd_lower_bound, nest_lower_bound, nhdt_lower_bound,
    nhst_lower_bound,
};

use smbm_switch::{QueueDiscipline, ValueQueue, WorkQueue};

use crate::Trace;

/// A packaged lower-bound instance for the packet model `Q`.
#[derive(Debug, Clone)]
pub struct Construction<Q: QueueDiscipline> {
    /// Which theorem and parameters this instance realizes.
    pub name: String,
    /// Name of the policy the construction targets (registry key).
    pub target_policy: &'static str,
    /// Switch configuration (B and the ports).
    pub config: Q::Config,
    /// The adversarial arrival sequence.
    pub trace: Trace<Q::Packet>,
    /// Per-queue admission caps scripting the proof's OPT.
    pub opt_caps: Vec<usize>,
    /// The theorem's (asymptotic) competitive-ratio bound at these
    /// parameters.
    pub predicted_ratio: f64,
}

/// A lower-bound instance for the heterogeneous-processing model.
pub type WorkConstruction = Construction<WorkQueue>;

/// A lower-bound instance for the heterogeneous-value model.
pub type ValueConstruction = Construction<ValueQueue>;

/// The `m`-th harmonic number.
pub(crate) fn harmonic(m: u32) -> f64 {
    (1..=m).map(|i| 1.0 / f64::from(i)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(3) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
    }
}
