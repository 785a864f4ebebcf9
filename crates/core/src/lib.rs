//! # smbm-core
//!
//! Buffer-management policies and optimal references for shared-memory
//! switches, reproducing *"Shared Memory Buffer Management for Heterogeneous
//! Packet Processing"* (Eugster, Kogan, Nikolenko, Sirotkin — ICDCS 2014).
//!
//! Every policy implements the one [`Policy<Q>`](Policy) trait for the queue
//! discipline `Q` of its packet model, and one [`Runner<Q, P>`](Runner)
//! applies its decisions to a [`smbm_switch::Switch<Q>`]. [`WorkRunner`],
//! [`ValueRunner`] and [`CombinedRunner`] are the per-model aliases;
//! [`WorkPolicy`], [`ValuePolicy`] and [`CombinedPolicy`] are marker
//! subtraits naming the registries' trait objects. The runner's drop-verdict
//! memo is on only where a valid packet is fully determined by its port
//! ([`smbm_switch::QueueDiscipline::PORT_DETERMINES_PACKET`]): the work
//! model.
//!
//! [`DatapathSystem`] is the one per-packet system trait the slot machine
//! (`smbm-datapath`) drives, offline and live. `Runner<Q, P>` implements it
//! once for every packet model, and the OPT surrogates and
//! [`SingleFifoQueue`] implement it directly, so a policy and its yardstick
//! run through identical slot phases.
//!
//! ## Heterogeneous processing (Section III)
//!
//! Packets carry per-port work requirements; throughput is the number of
//! transmitted packets. Policies, with their proven competitive bounds:
//!
//! | Policy | Type | Lower bound | Upper bound |
//! |---|---|---|---|
//! | [`Nhst`] | non-push-out, static | `kZ` (Thm 1) | `kZ + o(kZ)` |
//! | [`Nest`] | non-push-out, static | `n` (Thm 2)  | `n + o(n)` |
//! | [`Nhdt`] | non-push-out, dynamic | `(1/2)sqrt(k ln k)` (Thm 3) | — |
//! | [`Lqd`]  | push-out | `sqrt(k)` (Thm 4) | — |
//! | [`Bpd`]  | push-out | `H_k` (Thm 5) | — |
//! | [`Lwd`]  | push-out | `4/3 - 6/B` (Thm 6), `sqrt 2` uniform | **2** (Thm 7) |
//!
//! ## Heterogeneous values (Section IV)
//!
//! Unit-work packets carry values; throughput is total transmitted value.
//!
//! | Policy | Lower bound |
//! |---|---|
//! | [`GreedyValue`] | `k` |
//! | [`LqdValue`] | `∛k` (Thm 9) |
//! | [`Mvd`] | `(min{k,B}-1)/2` (Thm 10) |
//! | [`Mrd`] | `4/3` value==port (Thm 11), `sqrt 2` unit values; conjectured `O(1)` |
//!
//! ## Optimal references
//!
//! * [`WorkPqOpt`] / [`ValuePqOpt`] — the paper's simulation yardstick: a
//!   single priority queue over the whole buffer with `n * C` cores.
//! * [`exact_work_opt`] / [`exact_value_opt`] — true clairvoyant optimum on
//!   tiny instances by memoized search, used by the test-suite to verify
//!   Theorem 7's `OPT <= 2 * LWD` exactly.
//!
//! ## Example
//!
//! ```
//! use smbm_core::{Decision, Lwd, WorkRunner};
//! use smbm_switch::{PortId, WorkSwitchConfig};
//!
//! let cfg = WorkSwitchConfig::contiguous(4, 8)?; // ports require 1..=4 cycles
//! let mut runner = WorkRunner::new(cfg, Lwd::new(), 1);
//! for _ in 0..10 {
//!     runner.arrival_to(PortId::new(3))?; // LWD admits while space remains
//! }
//! assert_eq!(runner.switch().occupancy(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod combined;
mod decision;
mod index;
mod opt {
    pub mod exact;
    pub mod single_pq;
}
mod ratio;
mod runner;
mod singleq;
mod system;
mod value;
mod work;

pub use combined::{
    combined_policy_by_name, CombinedPqOpt, DensityMvd, GreedyCombined, LqdCombined, LwdCombined,
    Wvd, COMBINED_POLICY_NAMES,
};
pub use decision::Decision;
pub use opt::exact::{exact_value_opt, exact_work_opt, TooLargeError, MAX_EXACT_ARRIVALS};
pub use opt::single_pq::{ValuePqOpt, WorkPqOpt};
pub use ratio::CompetitiveRatio;
pub use runner::{
    CombinedPolicy, CombinedRunner, Policy, Runner, ValuePolicy, ValueRunner, WorkPolicy,
    WorkRunner,
};
pub use singleq::{FifoAdmission, SingleFifoQueue};
pub use system::{CombinedSystem, DatapathSystem, ValueSystem, WorkSystem};
pub use value::{
    value_policy_by_name, CappedValue, GreedyValue, LqdValue, Mrd, MrdStrict, Mvd, NestValue,
    NhstValue, VALUE_POLICY_NAMES,
};
pub use work::{
    harmonic, work_policy_by_name, AlphaWd, Bpd, CappedWork, GreedyWork, Lqd, Lwd, LwdTieBreak,
    Nest, Nhdt, NhdtW, Nhst, WORK_POLICY_NAMES,
};
