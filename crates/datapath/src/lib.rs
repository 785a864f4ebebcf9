//! # smbm-datapath
//!
//! The canonical two-phase slot machine: the paper's slot semantics —
//! periodic flushout, arrival phase with push-out admission, transmission
//! phase, end-of-slot accounting, and arrival-free drains — encoded in
//! exactly one place.
//!
//! Both datapath drivers are thin shells over this crate:
//!
//! * the offline simulation engine (`smbm-sim::run_work` and friends) feeds
//!   a [`SlotMachine`] one trace slot at a time;
//! * the live runtime shard (`smbm-runtime::run_shard`) feeds it whatever
//!   its ingress rings deliver each cycle, with ingest, faults, supervision,
//!   and clock pacing layered around the same machine.
//!
//! Because the phase sequence exists once, a lockstep shard (one burst per
//! trace slot under a virtual clock) reproduces the engine's counters
//! *bit-for-bit* by construction — the differential tests pin it — and any
//! future policy or phase lands in simulation, benchmarks, and the live
//! service by changing this crate alone.
//!
//! The pieces:
//!
//! * [`DatapathSystem`] — the model-erased bundle of switch operations the
//!   machine drives (per-packet admission, transmission, flush, occupancy,
//!   score, telemetry gauges), with adapters [`WorkAdapter`] /
//!   [`ValueAdapter`] / [`CombinedAdapter`] over anything implementing the
//!   `smbm-core` system traits — owned runners and `&mut` borrows alike;
//! * [`SlotMachine`] — the slot loop state: [`step`] runs one
//!   arrival+transmission slot, [`idle_slot`] a transmission-only slot,
//!   [`flush_check`] the flush schedule, [`drain`] arrival-free slots until
//!   the buffer empties;
//! * [`SlotStats`] — the shared slot accounting (slots, bursts, occupancy
//!   sum/max) both the engine's `RunSummary` and the runtime's shard
//!   reports are rebuilt on;
//! * [`SlotHook`] — a per-slot completion callback for drivers that must
//!   record progress as the run advances (the supervised shard writes its
//!   crash-safe accounting through it; the engine passes [`NoHook`]).
//!
//! [`step`]: SlotMachine::step
//! [`idle_slot`]: SlotMachine::idle_slot
//! [`flush_check`]: SlotMachine::flush_check
//! [`drain`]: SlotMachine::drain

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod system;

pub use machine::{NoHook, SlotHook, SlotMachine, SlotStats, MAX_BURST_BATCHES, MAX_DRAIN_SLOTS};
pub use system::{CombinedAdapter, DatapathSystem, ValueAdapter, WorkAdapter};
