//! The switch shard: one thread owning one buffer core, consuming arrival
//! batches from its ingress rings and running the paper's two-phase slot
//! loop live.
//!
//! The slot phases themselves — flush, arrival, transmission, drain — live
//! in `smbm-datapath`'s [`SlotMachine`]; this module owns everything around
//! it: ring ingest, fault injection, clock pacing, and the crash-safe
//! progress record the supervisor reads after a panic (written through a
//! [`SlotHook`] at every slot boundary).
//!
//! In [`IngestMode::Lockstep`] the shard blocks for exactly one batch per
//! open ring per cycle, so with a single producer sending one batch per
//! trace slot the shard executes the *exact* admission/transmission/flush
//! sequence of the offline simulation engine — the differential test pins
//! counter-for-counter equality. In [`IngestMode::Freerun`] the shard never
//! waits: it grabs whatever is queued and keeps transmitting, which is the
//! high-throughput loadgen configuration where full rings push back on
//! producers. Until its last scripted fault has fired, a freerun shard
//! takes at most one batch per ring per cycle, so a fault's trigger slot
//! is reached after the same number of batches on every host.

use std::time::{Duration, Instant};

use smbm_datapath::{DatapathSystem, SlotHook, SlotMachine, SlotStats, MAX_BURST_BATCHES};
use smbm_obs::{LogHistogram, Observer, Phase};
use smbm_switch::{Counters, FlushPolicy};

use crate::clock::Clock;
use crate::faults::{FaultKind, ShardFaults};
use crate::ring::{ring, Consumer, Producer};

/// One unit of ingress: a burst of packets plus the instant it entered the
/// ring, so the shard can histogram queueing delay.
#[derive(Debug)]
pub struct Batch<P> {
    /// The packets, in arrival order.
    pub packets: Vec<P>,
    /// When the producer enqueued the batch.
    pub enqueued: Instant,
}

impl<P> Batch<P> {
    /// Creates a batch stamped with the current instant.
    pub fn new(packets: Vec<P>) -> Self {
        Batch {
            packets,
            enqueued: Instant::now(),
        }
    }
}

/// One ingress ring as its shard sees it: the batches it consumes, plus a
/// second ring of the same capacity that carries each stepped batch's
/// emptied buffer back to the producer, so a steady-state producer reuses
/// buffers instead of allocating one per batch.
#[derive(Debug)]
pub(crate) struct Ingress<P> {
    pub(crate) batches: Consumer<Batch<P>>,
    spares: Producer<Vec<P>>,
}

impl<P> Ingress<P> {
    pub(crate) fn new(batches: Consumer<Batch<P>>, spares: Producer<Vec<P>>) -> Self {
        Ingress { batches, spares }
    }

    /// An ingress whose producer takes no buffers back: every returned
    /// buffer is dropped.
    fn without_spares(batches: Consumer<Batch<P>>) -> Self {
        let (spares, _) = ring(1);
        Ingress { batches, spares }
    }

    /// Hands an emptied batch buffer back to the producer. When the return
    /// ring is full, or the producer is gone, the buffer is dropped.
    fn recycle(&self, mut buf: Vec<P>) {
        buf.clear();
        let _ = self.spares.try_push(buf);
    }
}

/// How the shard pulls from its ingress rings each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Block for one batch per open ring per cycle. Deterministic: the cycle
    /// sequence is a function of what producers send, independent of thread
    /// scheduling — this is the replay/differential configuration.
    Lockstep,
    /// Take whatever is queued without waiting. Throughput configuration:
    /// ring-full producers see explicit backpressure, and the shard keeps
    /// transmitting even through arrival gaps.
    Freerun,
}

/// Per-shard datapath knobs.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Ingest discipline per cycle.
    pub mode: IngestMode,
    /// Periodic flushouts, keyed on the number of ingested bursts (the live
    /// analogue of the engine's trace-slot index). `None` disables.
    pub flush: Option<FlushPolicy>,
    /// Whether to keep running arrival-free cycles after every ring closes
    /// until the buffer empties, so every admitted packet is counted.
    pub drain_at_end: bool,
}

impl ShardConfig {
    /// Lockstep ingest, no flushouts, final drain: the replica of the
    /// engine's `EngineConfig::draining()`.
    pub fn lockstep() -> Self {
        ShardConfig {
            mode: IngestMode::Lockstep,
            flush: None,
            drain_at_end: true,
        }
    }

    /// Freerun ingest, no flushouts, final drain: the loadgen default.
    pub fn freerun() -> Self {
        ShardConfig {
            mode: IngestMode::Freerun,
            flush: None,
            drain_at_end: true,
        }
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::freerun()
    }
}

/// Everything a shard thread reports back when it joins: plain data only,
/// so nothing policy-shaped ever crosses threads.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Index of the shard in spawn order, so failure reports name the
    /// shard that died rather than a bare aggregate count.
    pub shard: usize,
    /// The service's label (policy name).
    pub label: String,
    /// Lifetime switch counters (admissions, drops by class, push-outs,
    /// transmissions, latency). Backpressure rejections happen upstream in
    /// producers and are *not* included here; [`crate::RuntimeReport`]
    /// folds them in.
    pub counters: Counters,
    /// Final objective value (packets or value transmitted).
    pub score: u64,
    /// Slots executed, including drain slots (matches the engine's
    /// `RunSummary::slots` semantics under lockstep replay).
    pub slots: u64,
    /// Clock cycles consumed, including idle freerun cycles that ran no
    /// slot.
    pub cycles: u64,
    /// Arrival bursts ingested from the rings.
    pub bursts: u64,
    /// Mean buffer occupancy sampled at the end of every slot.
    pub mean_occupancy: f64,
    /// Peak buffer occupancy sampled at the end of any slot.
    pub max_occupancy: usize,
    /// Ring queueing delay of every ingested batch, in nanoseconds, as
    /// measured by the shard's [`Clock`] (zero under virtual time, so
    /// deterministic runs stay bit-identical).
    pub ingress_latency_ns: LogHistogram,
    /// Wall-clock time from shard start to join.
    pub elapsed: Duration,
    /// The final drain hit [`smbm_datapath::MAX_DRAIN_SLOTS`] without
    /// emptying the buffer (a non-work-conserving service); the shard gave
    /// up so it could join.
    pub drain_stalled: bool,
    /// An admission error that aborted the loop (an inconsistent policy
    /// decision). Counters reflect everything up to the failure.
    pub error: Option<String>,
    /// Per-shard histogram metrics, when the runtime was asked to record
    /// them.
    pub metrics: Option<smbm_obs::HistogramRecorder>,
    /// Supervised restarts after panics (0 = the shard never died).
    pub restarts: u32,
    /// Packets found queued in the shard's ingress rings at panic instants:
    /// drained into the replacement incarnation, or dropped as
    /// shard-failure losses when the supervisor gave up.
    pub orphaned_packets: u64,
    /// The supervisor exhausted its restart budget and abandoned the
    /// shard; its remaining ring backlog was dropped as shard-failure.
    pub gave_up: bool,
    /// Flight-recorder post-mortem dumps written for this shard (one per
    /// death when a flight sink is configured).
    pub flight_dumps: u32,
}

/// Live accounting for one shard incarnation, written through as the loop
/// runs (not at exit) so that a panicking incarnation leaves an exact
/// record behind: the supervisor reads the last completed slot's counter
/// snapshot plus the ingest tallies to account every packet the dead shard
/// ever held. The slot machine writes it via [`SlotHook`] at every slot
/// boundary.
#[derive(Debug, Clone)]
pub(crate) struct ShardProgress {
    pub(crate) label: String,
    /// Machine slot accounting (slots, bursts, occupancy sum/max) at the
    /// last completed slot boundary.
    pub(crate) stats: SlotStats,
    pub(crate) cycles: u64,
    pub(crate) ingress_latency_ns: LogHistogram,
    /// Packets popped from the rings, including any not yet reflected in
    /// the counter snapshot (a mid-slot death leaves a gap).
    pub(crate) ingested_packets: u64,
    /// Total intrinsic value of the ingested packets.
    pub(crate) ingested_value: u64,
    /// Switch counters at the last completed slot boundary.
    pub(crate) counters: Counters,
    /// Objective at the last completed slot boundary.
    pub(crate) score: u64,
    /// Buffer occupancy at the last completed slot boundary.
    pub(crate) occupancy: usize,
    pub(crate) drain_stalled: bool,
    pub(crate) error: Option<String>,
}

impl ShardProgress {
    pub(crate) fn new() -> Self {
        ShardProgress {
            label: String::new(),
            stats: SlotStats::new(),
            cycles: 0,
            ingress_latency_ns: LogHistogram::new(),
            ingested_packets: 0,
            ingested_value: 0,
            counters: Counters::new(),
            score: 0,
            occupancy: 0,
            drain_stalled: false,
            error: None,
        }
    }

    /// Copies the machine's accounting and the service's state snapshot.
    fn record<S: DatapathSystem>(&mut self, service: &S, stats: &SlotStats) {
        self.stats = *stats;
        self.counters = service.counters();
        self.score = service.score();
        self.occupancy = service.occupancy();
    }

    /// Folds another incarnation's progress into this accumulator: additive
    /// tallies sum, extrema take the max, and last-writer fields (label,
    /// occupancy, error) take `other`'s when present.
    pub(crate) fn absorb(&mut self, other: &ShardProgress) {
        if !other.label.is_empty() {
            self.label = other.label.clone();
        }
        self.stats.absorb(&other.stats);
        self.cycles += other.cycles;
        self.ingress_latency_ns.merge(&other.ingress_latency_ns);
        self.ingested_packets += other.ingested_packets;
        self.ingested_value += other.ingested_value;
        self.counters.merge(&other.counters);
        self.score += other.score;
        self.occupancy = other.occupancy;
        self.drain_stalled |= other.drain_stalled;
        if other.error.is_some() {
            self.error = other.error.clone();
        }
    }

    pub(crate) fn into_report(self, shard: usize, elapsed: Duration) -> ShardReport {
        ShardReport {
            shard,
            label: self.label,
            counters: self.counters,
            score: self.score,
            slots: self.stats.slots,
            cycles: self.cycles,
            bursts: self.stats.bursts,
            mean_occupancy: self.stats.mean_occupancy(),
            max_occupancy: self.stats.occ_max,
            ingress_latency_ns: self.ingress_latency_ns,
            elapsed,
            drain_stalled: self.drain_stalled,
            error: self.error,
            metrics: None,
            restarts: 0,
            orphaned_packets: 0,
            gave_up: false,
            flight_dumps: 0,
        }
    }
}

/// The machine calls this after every completed slot (arrival, idle, and
/// drain slots alike), keeping the crash-safe record exact to the last slot
/// boundary.
impl<S: DatapathSystem> SlotHook<S> for ShardProgress {
    fn slot_done(&mut self, sys: &S, stats: &SlotStats) {
        self.record(sys, stats);
    }
}

/// Drives `service` from `rings` until every ring closes (and, when
/// configured, the buffer drains), reporting progress to `obs`.
///
/// The loop per cycle: tick the clock, ingest (per [`IngestMode`]), check
/// the flush schedule against the burst counter, then run the shared
/// [`SlotMachine`] slot phases — arrival (when a burst was ingested),
/// transmission, end-of-slot. Closed rings are pruned; the loop exits when
/// none remain. Batch buffers are dropped once stepped: only the
/// [`crate::RuntimeBuilder`] wiring hands them back to its producers.
pub fn run_shard<S: DatapathSystem, C: Clock, O: Observer>(
    service: S,
    rings: Vec<Consumer<Batch<S::Packet>>>,
    clock: C,
    config: &ShardConfig,
    obs: &mut O,
) -> ShardReport {
    let started = Instant::now();
    let mut progress = ShardProgress::new();
    let mut rings = rings.into_iter().map(Ingress::without_spares).collect();
    run_shard_core(
        service,
        &mut rings,
        clock,
        config,
        &mut ShardFaults::none(),
        &mut progress,
        obs,
    );
    progress.into_report(0, started.elapsed())
}

/// The ring-fed driver around the shared [`SlotMachine`], writing all
/// accounting through `progress` so the supervisor can recover an exact
/// record when an incarnation panics. `faults` is polled at the top of
/// every cycle (before ingest, so an injected panic leaves a zero mid-slot
/// gap and deterministic counters).
///
/// `rings` is borrowed, not owned: the supervisor keeps both rings of every
/// ingress, so a panicking incarnation's unwind never drops (and thus never
/// closes) them — the backlog survives in place for the replacement, and
/// so does the buffer return path. Rings this loop observes to be finished
/// are pruned from the vector (and only then dropped/closed).
///
/// Claimed batches are stepped in place: the arrival burst is the chain of
/// their packet slices, and each batch's buffer goes back to its producer
/// once the slot has run.
pub(crate) fn run_shard_core<S: DatapathSystem, C: Clock, O: Observer>(
    service: S,
    rings: &mut Vec<Ingress<S::Packet>>,
    mut clock: C,
    config: &ShardConfig,
    faults: &mut ShardFaults,
    progress: &mut ShardProgress,
    obs: &mut O,
) {
    progress.label = service.label();
    obs.shard_started(service.buffer_limit(), service.ports());
    let mut machine = SlotMachine::new(service, config.flush).emit_queue_depth(true);
    // Batches claimed from one ring this cycle; freerun drains the backlog
    // bulk (one ring claim — a single index advance — per ring, up to
    // `MAX_BURST_BATCHES`), lockstep stays at exactly one blocking pop per
    // ring for determinism.
    let mut claimed: Vec<Batch<S::Packet>> = Vec::new();
    // Every batch claimed this cycle, with the index of its ring: the
    // slot's arrival burst, in ring order. Pruning only ever removes the
    // ring being polled, which has claimed nothing yet, so the indices stay
    // valid until the buffers go back after the slot.
    let mut held: Vec<(usize, Batch<S::Packet>)> = Vec::new();

    'datapath: while !rings.is_empty() {
        clock.tick();
        progress.cycles += 1;

        for kind in faults.due(progress.stats.slots) {
            match kind {
                FaultKind::Panic => {
                    panic!(
                        "injected fault: shard panic at slot {}",
                        progress.stats.slots
                    )
                }
                FaultKind::Stall { cycles } => {
                    // The whole loop stops: burn the cycles without
                    // ingesting or transmitting anything.
                    for _ in 0..cycles {
                        clock.tick();
                        progress.cycles += 1;
                    }
                }
                FaultKind::SaturateIngress { cycles } => faults.pause_ingest(cycles),
                FaultKind::ClockSkew { nanos } => clock.skew(nanos),
            }
        }

        // Ingress phase: pull batches. Iterate by index so closed rings can
        // be pruned in place (order among survivors is preserved, keeping
        // lockstep replay deterministic). A saturate-ingress fault skips
        // the pulls entirely while transmission keeps running, so bounded
        // rings fill and push back on producers.
        obs.phase_start(Phase::Ingress);
        // `ingest_paused` burns one pause cycle per call; latch it so the
        // idle branch below sees this cycle's verdict without burning two.
        let paused = faults.ingest_paused();
        if !paused {
            let mut i = 0;
            while i < rings.len() {
                let batches = &rings[i].batches;
                match config.mode {
                    IngestMode::Lockstep => match batches.pop() {
                        Some(b) => claimed.push(b),
                        None => {
                            rings.remove(i);
                            continue;
                        }
                    },
                    IngestMode::Freerun => {
                        // Claim the whole backlog (bounded) with one bulk
                        // index advance instead of one `try_pop` per batch.
                        // While a fault is still armed, claim one batch: the
                        // slot a fault names then counts producer batches,
                        // not however much backlog scheduling let pile up.
                        let max = if faults.unfired() > 0 {
                            1
                        } else {
                            MAX_BURST_BATCHES
                        };
                        let r = batches.pop_bulk(&mut claimed, max);
                        if r.popped == 0 && r.closed {
                            rings.remove(i);
                            continue;
                        }
                    }
                }
                for b in claimed.drain(..) {
                    let waited = clock.batch_wait(b.enqueued);
                    progress
                        .ingress_latency_ns
                        .record(waited.as_nanos().min(u64::MAX as u128) as u64);
                    progress.ingested_packets += b.packets.len() as u64;
                    progress.ingested_value += b.packets.iter().map(|&p| S::meta(p).2).sum::<u64>();
                    held.push((i, b));
                }
                i += 1;
            }
        }
        obs.phase_end(Phase::Ingress);

        if held.is_empty() {
            if rings.is_empty() {
                break;
            }
            if machine.occupancy() == 0 {
                // Freerun idle cycle: nothing arrived and nothing is
                // buffered — park on the ring instead of burning the core
                // with empty polls. With one ring the shard sleeps until
                // data or close (the producer's publish unparks it); with
                // several it parks on ring 0 with a short timeout and
                // re-polls the rest. Under a saturate-ingress fault only
                // yield: the pause cycles must keep burning (that is the
                // fault being injected), not sleep through the ring.
                if paused {
                    std::thread::yield_now();
                } else if rings.len() == 1 {
                    rings[0].batches.wait_nonempty(None);
                } else {
                    rings[0]
                        .batches
                        .wait_nonempty(Some(Duration::from_micros(200)));
                }
                continue;
            }
            // Freerun cycle with backlog: transmit without arrivals.
            machine.idle_slot(obs, progress);
            continue;
        }

        // Flush schedule, checked before this burst's arrivals — exactly
        // where the engine checks it, with the burst counter standing in
        // for the trace-slot index.
        if !machine.flush_check(obs, progress) {
            progress.drain_stalled = true;
            break 'datapath;
        }

        let slot = machine.stats().slots;
        let burst = held.iter().flat_map(|(_, b)| &b.packets);
        if let Err(e) = machine.step(burst, obs, progress) {
            // The slot is left incomplete: emit the end-of-slot events the
            // machine skipped, record the failure, and join.
            progress.error = Some(e.to_string());
            obs.slot_end(slot, machine.occupancy());
            obs.queue_depth(slot, machine.system().max_queue_depth() as u64);
            let stats = *machine.stats();
            progress.record(machine.system(), &stats);
            break;
        }
        for (i, b) in held.drain(..) {
            rings[i].recycle(b.packets);
        }
    }

    if config.drain_at_end && progress.error.is_none() && !progress.drain_stalled {
        // The final drain contributes to the occupancy mean but not the
        // maximum (occupancy only falls while draining).
        if !machine.drain(obs, progress, true) {
            progress.drain_stalled = true;
        }
    }

    let stats = *machine.stats();
    progress.record(machine.system(), &stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::ring::ring;
    use smbm_core::{Lwd, WorkRunner};
    use smbm_datapath::NoHook;
    use smbm_obs::NullObserver;
    use smbm_switch::{PortId, Work, WorkPacket, WorkSwitchConfig};

    fn service(ports: u32, buffer: usize) -> WorkRunner<Lwd> {
        let cfg = WorkSwitchConfig::contiguous(ports, buffer).unwrap();
        WorkRunner::new(cfg, Lwd::new(), 1)
    }

    fn wp(port: usize, w: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(port), Work::new(w))
    }

    #[test]
    fn lockstep_processes_queued_batches_then_drains() {
        let (tx, rx) = ring(8);
        tx.push(Batch::new(vec![wp(0, 1), wp(1, 2)])).unwrap();
        tx.push(Batch::new(vec![])).unwrap();
        drop(tx);
        let report = run_shard(
            service(2, 4),
            vec![rx],
            VirtualClock::new(),
            &ShardConfig::lockstep(),
            &mut NullObserver,
        );
        assert_eq!(report.bursts, 2);
        assert_eq!(report.score, 2, "both packets transmit after draining");
        assert_eq!(report.counters.transmitted(), 2);
        assert!(report.error.is_none());
        assert!(!report.drain_stalled);
        assert_eq!(report.ingress_latency_ns.count(), 2);
        assert_eq!(report.label, "LWD");
    }

    #[test]
    fn freerun_survives_empty_polls() {
        let (tx, rx) = ring(8);
        tx.push(Batch::new(vec![wp(0, 1)])).unwrap();
        drop(tx);
        let report = run_shard(
            service(1, 2),
            vec![rx],
            VirtualClock::new(),
            &ShardConfig::freerun(),
            &mut NullObserver,
        );
        assert_eq!(report.score, 1);
        assert!(report.cycles >= report.slots);
    }

    #[test]
    fn freerun_claims_the_backlog_as_one_burst() {
        // Five batches already queued when the shard starts: the bulk drain
        // must claim them in a single cycle and fold them into one arrival
        // burst (the scalar path would have run five one-batch bursts).
        let (tx, rx) = ring(8);
        for _ in 0..5 {
            tx.push(Batch::new(vec![wp(0, 1)])).unwrap();
        }
        drop(tx);
        let report = run_shard(
            service(1, 8),
            vec![rx],
            VirtualClock::new(),
            &ShardConfig::freerun(),
            &mut NullObserver,
        );
        assert_eq!(report.bursts, 1, "backlog coalesced into one burst");
        assert_eq!(report.ingress_latency_ns.count(), 5, "latency per batch");
        assert_eq!(report.counters.arrived(), 5);
        assert_eq!(report.score, 5);
        assert!(report.error.is_none());
    }

    #[test]
    fn freerun_burst_is_bounded_by_max_burst_batches() {
        // More batches than MAX_BURST_BATCHES queued: one cycle must not
        // swallow them all, the bound splits them across several bursts.
        let n = MAX_BURST_BATCHES + 3;
        let (tx, rx) = ring(n);
        for _ in 0..n {
            tx.push(Batch::new(vec![wp(0, 1)])).unwrap();
        }
        drop(tx);
        let report = run_shard(
            service(1, n),
            vec![rx],
            VirtualClock::new(),
            &ShardConfig::freerun(),
            &mut NullObserver,
        );
        assert_eq!(report.bursts, 2, "bounded drain takes two cycles");
        assert_eq!(report.counters.arrived(), n as u64);
        assert_eq!(report.score, n as u64);
    }

    /// Records every per-packet outcome event, in order.
    #[derive(Default)]
    struct Outcomes(Vec<(u64, &'static str, PortId, u64)>);

    impl Observer for Outcomes {
        fn arrival(&mut self, slot: u64, port: PortId, work: u32, _value: u64) {
            self.0.push((slot, "arrival", port, work.into()));
        }
        fn admitted(&mut self, slot: u64, port: PortId) {
            self.0.push((slot, "admitted", port, 0));
        }
        fn pushed_out(&mut self, slot: u64, victim: PortId) {
            self.0.push((slot, "pushed_out", victim, 0));
        }
        fn dropped(&mut self, slot: u64, port: PortId, _reason: smbm_switch::DropReason) {
            self.0.push((slot, "dropped", port, 0));
        }
        fn transmitted(&mut self, slot: u64, port: PortId, latency: u64, _value: u64) {
            self.0.push((slot, "transmitted", port, latency));
        }
    }

    #[test]
    fn freerun_backlog_steps_like_its_concatenated_bursts() {
        // More batches than one cycle may claim, of uneven sizes (one
        // empty), into a small LWD buffer so admission, drops and
        // push-outs all happen: the in-place chained burst must decide
        // exactly what stepping each concatenated burst would.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let batches: Vec<Vec<WorkPacket>> = (0..MAX_BURST_BATCHES + 7)
            .map(|b| {
                let len = if b == 3 { 0 } else { (rng() % 7) as usize };
                (0..len)
                    .map(|_| {
                        let port = (rng() % 4) as usize;
                        wp(port, port as u32 + 1)
                    })
                    .collect()
            })
            .collect();

        let (tx, rx) = ring(batches.len());
        for b in &batches {
            tx.push(Batch::new(b.clone())).unwrap();
        }
        drop(tx);
        let mut progress = ShardProgress::new();
        let mut live = Outcomes::default();
        run_shard_core(
            service(4, 6),
            &mut vec![Ingress::without_spares(rx)],
            VirtualClock::new(),
            &ShardConfig::freerun(),
            &mut ShardFaults::none(),
            &mut progress,
            &mut live,
        );

        let mut machine = SlotMachine::new(service(4, 6), None);
        let mut offline = Outcomes::default();
        for chunk in batches.chunks(MAX_BURST_BATCHES) {
            let burst: Vec<WorkPacket> = chunk.concat();
            machine.step(&burst, &mut offline, &mut NoHook).unwrap();
        }
        assert!(machine.drain(&mut offline, &mut NoHook, true));

        let counters = machine.system().counters();
        assert!(counters.pushed_out() > 0 && counters.dropped_at_switch() > 0);
        assert_eq!(progress.stats, *machine.stats());
        assert_eq!(progress.stats.bursts, 2);
        assert_eq!(progress.counters, counters);
        assert_eq!(live.0, offline.0);
    }

    #[test]
    fn stepped_buffers_go_back_until_the_return_ring_fills() {
        // Ingress 0 returns into a depth-2 ring nobody drains, so the third
        // buffer onwards is dropped; ingress 1's producer is gone, so all
        // of its buffers are dropped. Neither disturbs the datapath.
        let (tx0, rx0) = ring(8);
        let (tx1, rx1) = ring(8);
        let (spare_tx0, spare_rx0) = ring(2);
        let (spare_tx1, spare_rx1) = ring(2);
        drop(spare_rx1);
        for _ in 0..5 {
            let mut buf = Vec::with_capacity(8);
            buf.push(wp(0, 1));
            tx0.push(Batch::new(buf)).unwrap();
            tx1.push(Batch::new(vec![wp(1, 2)])).unwrap();
        }
        drop(tx0);
        drop(tx1);
        let mut progress = ShardProgress::new();
        run_shard_core(
            service(2, 16),
            &mut vec![Ingress::new(rx0, spare_tx0), Ingress::new(rx1, spare_tx1)],
            VirtualClock::new(),
            &ShardConfig::lockstep(),
            &mut ShardFaults::none(),
            &mut progress,
            &mut NullObserver,
        );
        assert_eq!(progress.counters.arrived(), 10);
        assert_eq!(progress.counters.transmitted(), 10);
        for _ in 0..2 {
            match spare_rx0.try_pop() {
                crate::ring::TryPop::Item(buf) => {
                    assert!(buf.is_empty());
                    assert_eq!(buf.capacity(), 8);
                }
                other => panic!("expected a returned buffer, got {other:?}"),
            }
        }
        assert!(matches!(spare_rx0.try_pop(), crate::ring::TryPop::Closed));
    }

    #[test]
    fn flush_drop_discards_between_bursts() {
        let (tx, rx) = ring(8);
        // Burst 0 fills the buffer; the flush fires before burst 2's
        // arrivals (period 2), discarding what remains.
        tx.push(Batch::new(vec![wp(0, 1); 6])).unwrap();
        tx.push(Batch::new(vec![])).unwrap();
        tx.push(Batch::new(vec![wp(0, 1)])).unwrap();
        drop(tx);
        let config = ShardConfig {
            mode: IngestMode::Lockstep,
            flush: Some(FlushPolicy::every(2).dropping()),
            drain_at_end: false,
        };
        let report = run_shard(
            service(1, 8),
            vec![rx],
            VirtualClock::new(),
            &config,
            &mut NullObserver,
        );
        // Slots 0-1 transmit 2 of the 6; flush drops the other 4; the last
        // arrival transmits in slot 2.
        assert_eq!(report.score, 3);
        assert_eq!(report.counters.pushed_out(), 4, "flush counts as push-out");
    }

    #[test]
    fn multiple_rings_merge_in_ring_order() {
        let (tx_a, rx_a) = ring(4);
        let (tx_b, rx_b) = ring(4);
        tx_a.push(Batch::new(vec![wp(0, 1)])).unwrap();
        tx_b.push(Batch::new(vec![wp(1, 2)])).unwrap();
        drop(tx_a);
        drop(tx_b);
        let report = run_shard(
            service(2, 4),
            vec![rx_a, rx_b],
            VirtualClock::new(),
            &ShardConfig::lockstep(),
            &mut NullObserver,
        );
        assert_eq!(report.counters.admitted(), 2);
        assert_eq!(report.score, 2);
    }

    #[test]
    fn stall_fault_burns_cycles_without_losing_packets() {
        use crate::faults::FaultPlan;
        let (tx, rx) = ring(8);
        tx.push(Batch::new(vec![wp(0, 1)])).unwrap();
        drop(tx);
        let mut faults = FaultPlan::parse("stall@0*50").unwrap().for_shard(0);
        let mut progress = ShardProgress::new();
        run_shard_core(
            service(1, 2),
            &mut vec![Ingress::without_spares(rx)],
            VirtualClock::new(),
            &ShardConfig::lockstep(),
            &mut faults,
            &mut progress,
            &mut NullObserver,
        );
        assert!(
            progress.cycles >= 51,
            "stall burned {} cycles",
            progress.cycles
        );
        assert_eq!(progress.counters.transmitted(), 1);
        assert_eq!(faults.unfired(), 0);
    }

    #[test]
    fn saturate_ingress_defers_popping_without_losing_packets() {
        use crate::faults::FaultPlan;
        let (tx, rx) = ring(8);
        tx.push(Batch::new(vec![wp(0, 1), wp(0, 1)])).unwrap();
        drop(tx);
        let mut faults = FaultPlan::parse("sat@0*4").unwrap().for_shard(0);
        let mut progress = ShardProgress::new();
        run_shard_core(
            service(1, 4),
            &mut vec![Ingress::without_spares(rx)],
            VirtualClock::new(),
            &ShardConfig::lockstep(),
            &mut faults,
            &mut progress,
            &mut NullObserver,
        );
        assert!(progress.cycles >= 5, "pause cycles burn before the pop");
        assert_eq!(progress.ingested_packets, 2);
        assert_eq!(progress.counters.arrived(), 2);
        assert_eq!(progress.counters.transmitted(), 2);
    }

    #[test]
    fn freerun_takes_one_batch_per_cycle_until_the_last_fault_fires() {
        use crate::faults::FaultPlan;
        // Ten batches queued before the shard starts: a bulk claim would
        // take them as one slot and the slot-4 fault would never come due.
        let (tx, rx) = ring(16);
        for _ in 0..10 {
            tx.push(Batch::new(vec![wp(0, 1)])).unwrap();
        }
        drop(tx);
        let mut faults = FaultPlan::parse("stall@4*1").unwrap().for_shard(0);
        let mut progress = ShardProgress::new();
        run_shard_core(
            service(1, 10),
            &mut vec![Ingress::without_spares(rx)],
            VirtualClock::new(),
            &ShardConfig::freerun(),
            &mut faults,
            &mut progress,
            &mut NullObserver,
        );
        assert_eq!(faults.unfired(), 0, "the fault came due");
        // Four one-batch slots, then the stall fires and the remaining six
        // batches are claimed in one bulk burst.
        assert_eq!(progress.stats.bursts, 5);
        assert_eq!(progress.counters.arrived(), 10);
        assert_eq!(progress.counters.transmitted(), 10);
    }

    #[test]
    fn empty_rings_produce_empty_report() {
        let (tx, rx) = ring::<Batch<WorkPacket>>(4);
        drop(tx);
        let report = run_shard(
            service(1, 2),
            vec![rx],
            VirtualClock::new(),
            &ShardConfig::lockstep(),
            &mut NullObserver,
        );
        assert_eq!(report.slots, 0);
        assert_eq!(report.score, 0);
        assert_eq!(report.counters.arrived(), 0);
    }

    #[test]
    fn virtual_clock_reports_zero_ingress_latency() {
        let (tx, rx) = ring(8);
        tx.push(Batch {
            packets: vec![wp(0, 1)],
            // Enqueued "long ago": wall clocks would record ~1h of wait.
            enqueued: Instant::now() - Duration::from_secs(3600),
        })
        .unwrap();
        drop(tx);
        let report = run_shard(
            service(1, 2),
            vec![rx],
            VirtualClock::new(),
            &ShardConfig::lockstep(),
            &mut NullObserver,
        );
        assert_eq!(report.ingress_latency_ns.count(), 1);
        assert_eq!(
            report.ingress_latency_ns.max(),
            0,
            "virtual time never waits, so lockstep reports are reproducible"
        );
    }
}
