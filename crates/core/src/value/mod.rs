//! Buffer-management policies for the heterogeneous-value model
//! (Section IV of the paper).

mod capped;
mod greedy;
mod lqd;
mod mrd;
mod mrd_strict;
mod mvd;
mod nest;
mod nhst;

pub use capped::CappedValue;
pub use greedy::GreedyValue;
pub use lqd::LqdValue;
pub use mrd::Mrd;
pub use mrd_strict::MrdStrict;
pub use mvd::Mvd;
pub use nest::NestValue;
pub use nhst::NhstValue;

use crate::ValuePolicy;

/// Names of all bundled value-model policies, in presentation order.
pub const VALUE_POLICY_NAMES: &[&str] =
    &["GREEDY", "NEST-V", "NHST-V", "LQD", "MVD", "MVD1", "MRD"];

/// Instantiates a bundled value-model policy by name (case-insensitive).
///
/// Returns `None` for unknown names. See [`VALUE_POLICY_NAMES`].
pub fn value_policy_by_name(name: &str) -> Option<Box<dyn ValuePolicy>> {
    match name.to_ascii_uppercase().as_str() {
        "GREEDY" => Some(Box::new(GreedyValue::new())),
        "NEST-V" | "NEST" => Some(Box::new(NestValue::new())),
        "NHST-V" | "NHST" => Some(Box::new(NhstValue::new())),
        "LQD" => Some(Box::new(LqdValue::new())),
        "MVD" => Some(Box::new(Mvd::new())),
        "MVD1" => Some(Box::new(Mvd::sparing_singletons())),
        "MRD" => Some(Box::new(Mrd::new())),
        // Extension beyond the paper's roster (see DESIGN.md):
        "MRD-STRICT" => Some(Box::new(MrdStrict::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_every_listed_policy() {
        for name in VALUE_POLICY_NAMES {
            let p = value_policy_by_name(name).unwrap_or_else(|| panic!("registry missing {name}"));
            assert_eq!(p.name(), *name);
        }
    }

    #[test]
    fn registry_rejects_unknown() {
        assert!(value_policy_by_name("LWD").is_none()); // work-model policy
    }
}
