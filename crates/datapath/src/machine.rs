//! The slot machine: the paper's two-phase slot semantics in one place.
//!
//! Every phase the datapath can emit — flush, arrival, transmission, drain
//! — is produced by exactly one function in this module. The offline
//! engine and the live runtime shard are both thin drivers over it: the
//! engine calls [`SlotMachine::flush_check`] + [`SlotMachine::step`] once
//! per trace slot, the shard calls the same pair per ingested burst (plus
//! [`SlotMachine::idle_slot`] for freerun cycles that transmit without
//! arrivals), and both finish with [`SlotMachine::drain`].

use smbm_obs::{Observer, Phase};
use smbm_switch::{AdmitError, ArrivalOutcome, FlushMode, FlushPolicy, Transmitted};

use smbm_core::DatapathSystem;

/// Hard cap on drain slots, guarding against a non-work-conserving system
/// looping forever. [`SlotMachine::drain`] reports the trip as `false`
/// rather than panicking: the offline engine asserts on it, a live shard
/// records it and joins.
pub const MAX_DRAIN_SLOTS: u64 = 100_000_000;

/// Upper bound on ring batches a freerun driver folds into one slot's
/// arrival burst when it claims its backlog bulk. Bounding the burst keeps
/// a single [`SlotMachine::step`] slot from ballooning under a deep backlog
/// (one slot still means one transmission phase, so an unbounded burst
/// would distort the slot-pressure model the paper's policies assume),
/// while staying large enough that a saturated ring amortizes the per-slot
/// claim (one index advance on the lock-free ring) and the slot's
/// transmission phase across many batches.
pub const MAX_BURST_BATCHES: usize = 32;

/// Shared slot accounting, written by the machine as slots complete. The
/// engine's `RunSummary` and the runtime's shard reports are both rebuilt
/// from this one struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotStats {
    /// Slots executed, including drain slots.
    pub slots: u64,
    /// Arrival bursts stepped through the machine (trace slots offline,
    /// ingested bursts live) — the flush schedule is keyed on it.
    pub bursts: u64,
    /// Sum of end-of-slot occupancies over every counted slot (mid-run
    /// drain slots are excluded, the final drain is included).
    pub occ_sum: u64,
    /// Peak end-of-slot occupancy over any arrival slot (occupancy only
    /// falls while draining, so drain slots never move it).
    pub occ_max: usize,
}

impl SlotStats {
    /// Fresh, all-zero accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean end-of-slot occupancy (0 for an empty run).
    pub fn mean_occupancy(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.occ_sum as f64 / self.slots as f64
        }
    }

    /// Folds another run's accounting into this one: tallies sum, the
    /// extremum takes the max. The supervised runtime uses this to account
    /// a shard across incarnations.
    pub fn absorb(&mut self, other: &SlotStats) {
        self.slots += other.slots;
        self.bursts += other.bursts;
        self.occ_sum += other.occ_sum;
        self.occ_max = self.occ_max.max(other.occ_max);
    }
}

/// Per-slot completion callback for drivers that must record progress as
/// the run advances, not just at the end: called after every completed slot
/// (arrival, idle, and drain slots alike) with the system at its post-slot
/// state. The supervised runtime shard writes its crash-safe accounting
/// through this, so a panicking incarnation leaves an exact record at the
/// last slot boundary.
pub trait SlotHook<S: DatapathSystem> {
    /// One slot just completed; `sys` is at its end-of-slot state and
    /// `stats` already includes the slot.
    fn slot_done(&mut self, sys: &S, stats: &SlotStats);
}

/// The no-op hook: monomorphizes every callback away, so an unhooked run
/// (the offline engine) costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl<S: DatapathSystem> SlotHook<S> for NoHook {
    fn slot_done(&mut self, _sys: &S, _stats: &SlotStats) {}
}

/// The canonical slot loop state: a system plus the accounting, scratch
/// buffers, and flush schedule of one run. All phase emission — flush,
/// arrival, transmission, drain — lives in this type's methods; the
/// drivers only decide *when* to feed it a burst.
#[derive(Debug)]
pub struct SlotMachine<S: DatapathSystem> {
    sys: S,
    stats: SlotStats,
    flush: Option<FlushPolicy>,
    emit_queue_depth: bool,
    scratch: Vec<Transmitted>,
}

impl<S: DatapathSystem> SlotMachine<S> {
    /// A fresh machine over `sys` with an optional periodic flush schedule
    /// (keyed on the burst counter, as in the paper's simulations).
    pub fn new(sys: S, flush: Option<FlushPolicy>) -> Self {
        SlotMachine {
            sys,
            stats: SlotStats::new(),
            flush,
            emit_queue_depth: false,
            scratch: Vec::new(),
        }
    }

    /// Enables the per-slot [`Observer::queue_depth`] gauge emission the
    /// telemetry plane feeds on. Off by default: the gauge costs an O(n)
    /// scan of the port queues per slot, which the offline engine does not
    /// pay.
    #[must_use]
    pub fn emit_queue_depth(mut self, on: bool) -> Self {
        self.emit_queue_depth = on;
        self
    }

    /// The driven system.
    pub fn system(&self) -> &S {
        &self.sys
    }

    /// Mutable access to the driven system.
    pub fn system_mut(&mut self) -> &mut S {
        &mut self.sys
    }

    /// The run's slot accounting so far.
    pub fn stats(&self) -> &SlotStats {
        &self.stats
    }

    /// The system's objective so far.
    pub fn score(&self) -> u64 {
        self.sys.score()
    }

    /// Packets currently buffered.
    pub fn occupancy(&self) -> usize {
        self.sys.occupancy()
    }

    /// Consumes the machine, returning the system.
    pub fn into_system(self) -> S {
        self.sys
    }

    /// Runs the flush schedule if one is due before the next burst: a
    /// `Drop` flush discards the buffer inline, a `Drain` flush runs
    /// arrival-free slots (excluded from the occupancy statistics) until
    /// the buffer empties. Returns `false` only if a drain-mode flush hit
    /// [`MAX_DRAIN_SLOTS`].
    pub fn flush_check<O: Observer, H: SlotHook<S>>(&mut self, obs: &mut O, hook: &mut H) -> bool {
        let Some(flush) = self.flush else {
            return true;
        };
        if !flush.due(self.stats.bursts) {
            return true;
        }
        match flush.mode {
            FlushMode::Drop => {
                obs.phase_start(Phase::Flush);
                let discarded = self.sys.flush();
                obs.flush(self.stats.slots, discarded);
                obs.phase_end(Phase::Flush);
                true
            }
            FlushMode::Drain => self.drain(obs, hook, false),
        }
    }

    /// Runs one full slot fed by `burst`: the arrival phase (per-packet
    /// arrival events, admission outcomes), the transmission phase, and
    /// end-of-slot accounting.
    ///
    /// `burst` is any sequence of packet references, so drivers step their
    /// storage in place: the offline engine passes a trace slot's slice, and
    /// the freerun shard chains the packets of every ring batch it claimed
    /// without first copying them into one buffer.
    ///
    /// # Errors
    ///
    /// Propagates an [`AdmitError`] raised by an inconsistent policy
    /// decision. The burst counter already includes the failed burst and
    /// outcome events were emitted for every packet that received one, but
    /// the slot is left incomplete: no transmission phase ran and the slot
    /// counter did not advance.
    pub fn step<'a, O: Observer, H: SlotHook<S>>(
        &mut self,
        burst: impl IntoIterator<Item = &'a S::Packet>,
        obs: &mut O,
        hook: &mut H,
    ) -> Result<(), AdmitError> {
        let slot = self.stats.slots;
        obs.slot_start(slot);
        obs.phase_start(Phase::Arrival);
        // Per-packet admission with inline event emission: arrival, then
        // its outcome. Nothing is materialized on the hot path.
        let mut result = Ok(());
        for &pkt in burst {
            let (port, work, value) = S::meta(pkt);
            obs.arrival(slot, port, work, value);
            match self.sys.offer(pkt) {
                Ok(ArrivalOutcome::Admitted) => obs.admitted(slot, port),
                Ok(ArrivalOutcome::PushedOut(victim)) => {
                    obs.pushed_out(slot, victim);
                    obs.admitted(slot, port);
                }
                Ok(ArrivalOutcome::Dropped(reason)) => obs.dropped(slot, port, reason),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        obs.phase_end(Phase::Arrival);
        self.stats.bursts += 1;
        result?;
        self.transmission_phase(slot, obs);
        self.finish_slot(slot, true, obs, hook);
        Ok(())
    }

    /// Runs one transmission-only slot: no arrival phase, no burst counted.
    /// The freerun shard uses this to keep transmitting through arrival
    /// gaps.
    pub fn idle_slot<O: Observer, H: SlotHook<S>>(&mut self, obs: &mut O, hook: &mut H) {
        let slot = self.stats.slots;
        obs.slot_start(slot);
        self.transmission_phase(slot, obs);
        self.finish_slot(slot, true, obs, hook);
    }

    /// Runs arrival-free slots until the buffer empties. Drain slots count
    /// toward the slot total but never move the occupancy maximum; their
    /// occupancies enter the mean only when `count_occupancy` is set (the
    /// final drain), matching the engine's original statistics. Returns
    /// `false` if [`MAX_DRAIN_SLOTS`] elapsed without emptying the buffer
    /// (a non-work-conserving system).
    pub fn drain<O: Observer, H: SlotHook<S>>(
        &mut self,
        obs: &mut O,
        hook: &mut H,
        count_occupancy: bool,
    ) -> bool {
        if self.sys.occupancy() == 0 {
            return true;
        }
        obs.drain_start(self.stats.slots);
        let mut sum_acc = 0u64;
        let mut guard = 0u64;
        while self.sys.occupancy() > 0 {
            let slot = self.stats.slots;
            obs.slot_start(slot);
            obs.phase_start(Phase::Drain);
            self.transmission(slot, obs);
            self.sys.end_slot();
            obs.phase_end(Phase::Drain);
            self.stats.slots += 1;
            sum_acc += self.sys.occupancy() as u64;
            obs.slot_end(slot, self.sys.occupancy());
            if self.emit_queue_depth {
                obs.queue_depth(slot, self.sys.max_queue_depth() as u64);
            }
            hook.slot_done(&self.sys, &self.stats);
            guard += 1;
            if guard >= MAX_DRAIN_SLOTS {
                obs.drain_end(self.stats.slots);
                return false;
            }
        }
        if count_occupancy {
            self.stats.occ_sum += sum_acc;
        }
        obs.drain_end(self.stats.slots);
        true
    }

    /// The transmission phase: run it on the system and forward each
    /// completed packet to the observer. The scratch buffer is reused
    /// across slots, so the uninstrumented path allocates nothing steady
    /// state. This is the one place `Observer::transmitted` fires.
    fn transmission<O: Observer>(&mut self, slot: u64, obs: &mut O) {
        self.scratch.clear();
        self.sys.transmission_phase_into(&mut self.scratch);
        for t in self.scratch.iter() {
            obs.transmitted(slot, t.port, t.latency(), t.value.get());
        }
    }

    /// The transmission phase bracketed with its observer phase markers —
    /// the one place `Phase::Transmission` is emitted. Drain slots run the
    /// same transmission under `Phase::Drain` brackets instead.
    fn transmission_phase<O: Observer>(&mut self, slot: u64, obs: &mut O) {
        obs.phase_start(Phase::Transmission);
        self.transmission(slot, obs);
        obs.phase_end(Phase::Transmission);
    }

    /// End-of-slot bookkeeping shared by arrival and idle slots: advance
    /// the switch clock, update the statistics, and emit the end-of-slot
    /// events.
    fn finish_slot<O: Observer, H: SlotHook<S>>(
        &mut self,
        slot: u64,
        count_max: bool,
        obs: &mut O,
        hook: &mut H,
    ) {
        self.sys.end_slot();
        self.stats.slots += 1;
        let occ = self.sys.occupancy();
        self.stats.occ_sum += occ as u64;
        if count_max {
            self.stats.occ_max = self.stats.occ_max.max(occ);
        }
        obs.slot_end(slot, occ);
        if self.emit_queue_depth {
            obs.queue_depth(slot, self.sys.max_queue_depth() as u64);
        }
        hook.slot_done(&self.sys, &self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_core::{GreedyWork, WorkRunner};
    use smbm_obs::NullObserver;
    use smbm_switch::{PortId, Work, WorkPacket, WorkSwitchConfig};

    fn machine(ports: u32, buffer: usize) -> SlotMachine<WorkRunner<GreedyWork>> {
        let cfg = WorkSwitchConfig::contiguous(ports, buffer).unwrap();
        SlotMachine::new(WorkRunner::new(cfg, GreedyWork::new(), 1), None)
    }

    fn wp(port: usize, w: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(port), Work::new(w))
    }

    #[test]
    fn step_counts_slots_and_occupancy() {
        let mut m = machine(1, 8);
        m.step(&[wp(0, 1); 5], &mut NullObserver, &mut NoHook)
            .unwrap();
        assert_eq!(m.stats().slots, 1);
        assert_eq!(m.stats().bursts, 1);
        assert_eq!(m.stats().occ_max, 4);
        assert_eq!(m.occupancy(), 4);
        assert_eq!(m.score(), 1);
    }

    #[test]
    fn drain_empties_and_counts() {
        let mut m = machine(1, 8);
        m.step(&[wp(0, 1); 3], &mut NullObserver, &mut NoHook)
            .unwrap();
        assert!(m.drain(&mut NullObserver, &mut NoHook, true));
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.score(), 3);
        assert_eq!(m.stats().slots, 3);
        // Occupancies after each slot: 2, then drain 1, 0.
        assert_eq!(m.stats().occ_sum, 3);
        assert_eq!(m.stats().occ_max, 2);
    }

    #[test]
    fn idle_slot_transmits_without_arrivals() {
        let mut m = machine(1, 8);
        m.step(&[wp(0, 1); 2], &mut NullObserver, &mut NoHook)
            .unwrap();
        m.idle_slot(&mut NullObserver, &mut NoHook);
        assert_eq!(m.stats().slots, 2);
        assert_eq!(m.stats().bursts, 1, "idle slots do not count as bursts");
        assert_eq!(m.score(), 2);
    }

    #[test]
    fn flush_check_fires_on_the_burst_schedule() {
        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut m = SlotMachine::new(
            WorkRunner::new(cfg, GreedyWork::new(), 1),
            Some(FlushPolicy::every(2).dropping()),
        );
        m.step(&[wp(0, 1); 6], &mut NullObserver, &mut NoHook)
            .unwrap();
        assert!(m.flush_check(&mut NullObserver, &mut NoHook));
        assert_eq!(m.occupancy(), 5, "period 2: no flush before burst 1");
        m.step(&[], &mut NullObserver, &mut NoHook).unwrap();
        assert!(m.flush_check(&mut NullObserver, &mut NoHook));
        assert_eq!(m.occupancy(), 0, "flush due before burst 2");
    }

    #[test]
    fn hook_sees_every_slot_boundary() {
        struct Count(u64, u64);
        impl<S: DatapathSystem> SlotHook<S> for Count {
            fn slot_done(&mut self, sys: &S, stats: &SlotStats) {
                self.0 += 1;
                self.1 = stats.slots;
                assert_eq!(sys.occupancy() == 0, stats.slots >= 3);
            }
        }
        let mut m = machine(1, 8);
        let mut hook = Count(0, 0);
        m.step(&[wp(0, 1); 3], &mut NullObserver, &mut hook)
            .unwrap();
        m.drain(&mut NullObserver, &mut hook, true);
        assert_eq!(hook.0, 3, "one callback per slot, drain slots included");
        assert_eq!(hook.1, 3);
    }

    #[test]
    fn stats_absorb_sums_and_maxes() {
        let mut a = SlotStats {
            slots: 2,
            bursts: 1,
            occ_sum: 5,
            occ_max: 4,
        };
        let b = SlotStats {
            slots: 3,
            bursts: 3,
            occ_sum: 7,
            occ_max: 2,
        };
        a.absorb(&b);
        assert_eq!(a.slots, 5);
        assert_eq!(a.bursts, 4);
        assert_eq!(a.occ_sum, 12);
        assert_eq!(a.occ_max, 4);
        assert!((a.mean_occupancy() - 2.4).abs() < 1e-12);
    }
}
