//! # smbm-switch
//!
//! Shared-memory switch substrate for the reproduction of *"Shared Memory
//! Buffer Management for Heterogeneous Packet Processing"* (Eugster, Kogan,
//! Nikolenko, Sirotkin — ICDCS 2014).
//!
//! The paper studies one `l × n` switch whose `n` output queues share a
//! single buffer of `B` unit-sized packet slots, with a two-phase slot
//! (arrivals, then transmission). This crate implements it once, as
//! [`Switch<Q>`](Switch), generic over the per-port [`QueueDiscipline`] —
//! the only thing in which the models differ:
//!
//! * the **heterogeneous-processing model** ([`WorkSwitch`] =
//!   `Switch<WorkQueue>`): each packet carries a required amount of
//!   processing; all packets destined to the same port require the same
//!   work; queues are FIFO; throughput is the number of transmitted packets;
//! * the **heterogeneous-value model** ([`ValueSwitch`] =
//!   `Switch<ValueQueue>`): unit-work packets carry intrinsic values; queues
//!   are priority queues (most valuable first); throughput is the total
//!   transmitted value;
//! * the **combined model** ([`CombinedSwitch`] = `Switch<CombinedQueue>`,
//!   an extension): per-port work and per-packet values, served by value
//!   with run-to-completion.
//!
//! This crate owns the *mechanics* — queues, shared-buffer occupancy, the
//! two-phase slot structure, packet accounting and its conservation laws.
//! Admission *decisions* (LWD, LQD, MRD, ...) live in the `smbm-core` crate;
//! traffic lives in `smbm-traffic`; the slot loop lives in `smbm-datapath`,
//! driven offline by `smbm-sim` and live by `smbm-runtime`.
//!
//! Storage-wise, every switch owns a [`BufferCore`]: one preallocated slab of
//! exactly `B` packet slots that all queues share. Queues are intrusive
//! doubly-linked lists threaded through the slab, so admission, push-out and
//! transmission are O(1) pointer splices with no per-packet allocation, and
//! buffer occupancy *is* the slab's allocated count. The pre-slab queue
//! implementations survive verbatim as differential-test oracles in the
//! crate's `tests/oracle/`.
//!
//! ## Example
//!
//! ```
//! use smbm_switch::{PortId, ValuePacket, ValueSwitch, ValueSwitchConfig, Value};
//!
//! let mut sw = ValueSwitch::new(ValueSwitchConfig::new(8, 4)?);
//! sw.admit(ValuePacket::new(PortId::new(2), Value::new(6)))?;
//! assert_eq!(sw.occupancy(), 1);
//! let report = sw.transmit(1);
//! assert_eq!(report.value, 6);
//! sw.check_invariants().expect("conservation holds");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod combined {
    pub mod queue;
}
mod config;
mod counters;
mod dirty;
mod error;
mod flush;
mod ids;
mod outcome;
mod packet;
mod slab;
mod switch;
mod work {
    pub mod queue;
}
mod value {
    pub mod queue;
}

pub use combined::queue::{CombinedQueue, InService};
pub use config::{ValueSwitchConfig, WorkSwitchConfig};
pub use counters::{ConservationError, Counters};
pub use dirty::DirtyPorts;
pub use error::{AdmitError, ConfigError};
pub use flush::{FlushMode, FlushPolicy};
pub use ids::{PortId, Slot, Value, Work};
pub use outcome::{ArrivalOutcome, DropReason};
pub use packet::{CombinedPacket, Transmitted, ValuePacket, WorkPacket};
pub use slab::{BufferCore, SlotList};
pub use switch::{CombinedSwitch, PhaseReport, QueueDiscipline, Switch, ValueSwitch, WorkSwitch};
pub use value::queue::{RatioKey, ValueEntry, ValueQueue};
pub use work::queue::WorkQueue;
