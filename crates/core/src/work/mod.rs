//! Buffer-management policies for the heterogeneous-processing model
//! (Section III of the paper).

mod alpha;
mod bpd;
mod capped;
mod lqd;
mod lwd;
mod nest;
mod nhdt;
mod nhdt_w;
mod nhst;

pub use alpha::AlphaWd;
pub use bpd::Bpd;
pub use capped::{CappedWork, GreedyWork};
pub use lqd::Lqd;
pub use lwd::{Lwd, LwdTieBreak};
pub use nest::Nest;
pub use nhdt::{harmonic, Nhdt};
pub use nhdt_w::NhdtW;
pub use nhst::Nhst;

use crate::WorkPolicy;

/// Names of all bundled work-model policies, in presentation order.
pub const WORK_POLICY_NAMES: &[&str] = &["NHST", "NEST", "NHDT", "LQD", "BPD", "BPD1", "LWD"];

/// Instantiates a bundled work-model policy by name (case-insensitive).
///
/// Returns `None` for unknown names. See [`WORK_POLICY_NAMES`].
///
/// ```
/// use smbm_core::work_policy_by_name;
/// assert!(work_policy_by_name("lwd").is_some());
/// assert!(work_policy_by_name("nope").is_none());
/// ```
pub fn work_policy_by_name(name: &str) -> Option<Box<dyn WorkPolicy>> {
    match name.to_ascii_uppercase().as_str() {
        "NHST" => Some(Box::new(Nhst::new())),
        "NEST" => Some(Box::new(Nest::new())),
        "NHDT" => Some(Box::new(Nhdt::new())),
        "LQD" => Some(Box::new(Lqd::new())),
        "BPD" => Some(Box::new(Bpd::new())),
        "BPD1" => Some(Box::new(Bpd::sparing_singletons())),
        "LWD" => Some(Box::new(Lwd::new())),
        // Extensions beyond the paper's roster (see DESIGN.md):
        "GREEDY" => Some(Box::new(GreedyWork::new())),
        "NHDT-W" => Some(Box::new(NhdtW::new())),
        "LWD-MAXLEN" => Some(Box::new(Lwd::with_tie_break(LwdTieBreak::MaxLen))),
        "LWD-MINWORK" => Some(Box::new(Lwd::with_tie_break(LwdTieBreak::MinWork))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_every_listed_policy() {
        for name in WORK_POLICY_NAMES {
            let p = work_policy_by_name(name).unwrap_or_else(|| panic!("registry missing {name}"));
            assert_eq!(p.name(), *name);
        }
    }

    #[test]
    fn registry_is_case_insensitive() {
        assert_eq!(work_policy_by_name("lwd").unwrap().name(), "LWD");
        assert_eq!(work_policy_by_name("Bpd1").unwrap().name(), "BPD1");
    }

    #[test]
    fn registry_rejects_unknown() {
        assert!(work_policy_by_name("MRD").is_none()); // value-model policy
    }
}
