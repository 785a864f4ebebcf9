//! Thread orchestration: builds shards and producers, wires them with
//! ingress rings, runs them to completion, and folds everything into one
//! [`RuntimeReport`].
//!
//! Services are constructed *inside* their shard thread from a `Send`
//! factory, so nothing policy-shaped (trait objects holding interior state)
//! ever crosses a thread boundary — only plain-data reports come back.
//! Producer panics are contained by construction: an unwinding producer
//! drops its ring handle, the shard drains what was already queued, and
//! every thread still joins.
//!
//! Shard panics are contained by *supervision*: every shard thread runs a
//! supervisor loop that catches the incarnation's unwind, counts the
//! orphaned ring backlog, rebuilds the service from the same factory, and
//! restarts within a [`SupervisionConfig`] budget (bounded exponential
//! backoff). The orphaned backlog survives in the rings because the
//! supervisor *owns* the consumers and each incarnation only borrows them
//! — the unwind never drops (and thus never closes) a ring — so the
//! replacement picks up exactly where the dead incarnation stopped; when
//! the budget is exhausted the supervisor closes the rings itself and
//! accounts every remaining packet as a [`DropReason::ShardFailure`] loss,
//! keeping packet conservation exact across restarts and give-ups alike.

use std::fs::File;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use smbm_datapath::DatapathSystem;
use smbm_obs::{
    FlightRecorder, NetCounts, Observer, StatCell, TelemetryConfig, TelemetryObserver,
    TelemetryReport, TelemetrySampler,
};
use smbm_switch::{Counters, DropReason, PortId};

use crate::clock::Clock;
use crate::faults::{FaultPlan, ShardFaults};
use crate::ring::{ring, Consumer, Producer, PushError, TryPop};
use crate::shard::{run_shard_core, Batch, Ingress, ShardConfig, ShardProgress, ShardReport};

/// Datapath-wide knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Ingress ring depth, in batches, per producer.
    pub ring_capacity: usize,
    /// Per-shard datapath configuration.
    pub shard: ShardConfig,
    /// Scripted fault injection; [`FaultPlan::none`] (the default) injects
    /// nothing.
    pub faults: FaultPlan,
    /// How shard panics are retried and when the supervisor gives up.
    pub supervision: SupervisionConfig,
    /// Attach a [`StatCell`] + [`TelemetryObserver`] to every shard, run a
    /// [`TelemetrySampler`] alongside the datapath, and return its
    /// [`TelemetryReport`]. `None` (the default) runs with the telemetry
    /// plane entirely absent.
    pub telemetry: Option<TelemetryConfig>,
    /// Attach a [`FlightRecorder`] to every shard and have the supervisor
    /// append a post-mortem dump to [`FlightConfig::path`] on each shard
    /// death. `None` (the default) records nothing.
    pub flight: Option<FlightConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            ring_capacity: 64,
            shard: ShardConfig::default(),
            faults: FaultPlan::none(),
            supervision: SupervisionConfig::default(),
            telemetry: None,
            flight: None,
        }
    }
}

/// Where and how much the per-shard crash flight recorders capture.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Post-mortem JSONL file; every shard death appends one dump (header
    /// line plus the retained tail of events).
    pub path: PathBuf,
    /// Events retained per shard (newest win). Must be non-zero.
    pub capacity: usize,
}

impl FlightConfig {
    /// A flight-recorder config writing to `path` with the default
    /// 256-event ring per shard.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FlightConfig {
            path: path.into(),
            capacity: 256,
        }
    }
}

/// Restart policy for supervised shards.
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// Restarts allowed per shard before the supervisor gives up and drops
    /// the remaining ring backlog as [`DropReason::ShardFailure`] losses.
    pub restart_budget: u32,
    /// Backoff before the first restart; doubles on each further restart.
    /// A zero base skips sleeping entirely (deterministic tests).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            restart_budget: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(250),
        }
    }
}

impl SupervisionConfig {
    /// A policy with `budget` restarts and no backoff sleeps, for
    /// deterministic tests.
    pub fn immediate(budget: u32) -> Self {
        SupervisionConfig {
            restart_budget: budget,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    /// The sleep before restart `attempt` (1-based):
    /// `backoff_base * 2^(attempt-1)`, capped at `backoff_cap`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(20);
        (self.backoff_base * factor).min(self.backoff_cap)
    }
}

/// Identifies a shard added to a [`RuntimeBuilder`], for attaching
/// producers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardId(usize);

/// Atomic tallies a producer updates as it feeds its ring; read after join
/// even if the producer panicked mid-run, so partial counts survive.
#[derive(Debug, Default)]
struct ProducerStats {
    offered_packets: AtomicU64,
    sent_packets: AtomicU64,
    // Edge drops and their value, indexed by `DropReason::index`.
    dropped: [AtomicU64; DropReason::COUNT],
    dropped_value: [AtomicU64; DropReason::COUNT],
    net_datagrams: AtomicU64,
    net_frames: AtomicU64,
    net_decode_errors: AtomicU64,
    net_truncations: AtomicU64,
}

/// What one producer did, reported after the runtime joins it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProducerReport {
    /// Shard this producer fed.
    pub shard: usize,
    /// Packets the producer attempted to send.
    pub offered_packets: u64,
    /// Packets that entered the ring.
    pub sent_packets: u64,
    /// Edge drops, indexed by [`DropReason::index`]: packets a full ring
    /// rejected ([`DropReason::Backpressure`]), packets sent after the
    /// shard was gone ([`DropReason::ShardFailure`]), and frames from
    /// well-formed datagrams lost to truncation or failed validation
    /// ([`DropReason::NetDecode`]). [`RuntimeReport::counters`] folds them
    /// in as arrivals plus drops.
    pub dropped: [u64; DropReason::COUNT],
    /// Total value of the edge drops, indexed like
    /// [`ProducerReport::dropped`] (0 for undecodable frames, whose value is
    /// unknown).
    pub dropped_value: [u64; DropReason::COUNT],
    /// Wire-level receive tallies recorded through
    /// [`IngressHandle::record_net`]; all zero for in-process producers.
    pub net: NetCounts,
    /// The producer job panicked. Tallies reflect everything up to the
    /// panic; the shard drained whatever was already queued. A panicking
    /// fanout job marks every one of its per-shard rows.
    pub panicked: bool,
}

/// Outcome of a non-blocking [`IngressHandle::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The batch entered the ring.
    Sent,
    /// The batch was rejected and discarded; the reason is always
    /// [`DropReason::Backpressure`] today.
    Rejected(DropReason),
    /// The shard is gone; the batch was discarded and no further sends can
    /// succeed.
    Disconnected,
}

/// A producer job's handle to its ingress ring: lossless blocking sends for
/// replay, lossy non-blocking sends (with explicit backpressure accounting)
/// for load generation.
///
/// The shard hands every stepped batch's emptied buffer back over a second
/// ring; [`IngressHandle::spare_buffer`] takes one, so a producer that
/// fills those instead of allocating runs allocation-free in steady state.
pub struct IngressHandle<P: Copy> {
    producer: Producer<Batch<P>>,
    spares: Consumer<Vec<P>>,
    spare_capacity: usize,
    /// Scratch for the bulk sends: the batches of one publish, reused.
    staged: Vec<Batch<P>>,
    stats: Arc<ProducerStats>,
    meta: fn(P) -> (PortId, u32, u64),
    cell: Option<Arc<StatCell>>,
    errors: Arc<Mutex<Vec<String>>>,
}

impl<P: Copy> IngressHandle<P> {
    /// Sends a batch, blocking while the ring is full. Returns `false` when
    /// the shard is gone (the batch is counted lost and the job should
    /// stop).
    pub fn send(&mut self, packets: Vec<P>) -> bool {
        let n = packets.len() as u64;
        self.stats.offered_packets.fetch_add(n, Ordering::Relaxed);
        match self.producer.push(Batch::new(packets)) {
            Ok(()) => {
                self.stats.sent_packets.fetch_add(n, Ordering::Relaxed);
                true
            }
            Err(PushError::Full(_)) => unreachable!("blocking push never reports full"),
            Err(PushError::Closed(batch)) => {
                let value: u64 = batch.packets.iter().map(|&p| (self.meta)(p).2).sum();
                self.record_edge_drops(DropReason::ShardFailure, n, value);
                false
            }
        }
    }

    /// Sends a batch without blocking. A full ring rejects the whole batch:
    /// its packets are discarded and tallied as backpressure (with their
    /// value), which [`RuntimeReport::counters`] folds into the datapath
    /// totals as [`DropReason::Backpressure`] drops.
    pub fn try_send(&mut self, packets: Vec<P>) -> SendOutcome {
        let n = packets.len() as u64;
        self.stats.offered_packets.fetch_add(n, Ordering::Relaxed);
        match self.producer.try_push(Batch::new(packets)) {
            Ok(()) => {
                self.stats.sent_packets.fetch_add(n, Ordering::Relaxed);
                SendOutcome::Sent
            }
            Err(PushError::Full(batch)) => {
                let value: u64 = batch.packets.iter().map(|&p| (self.meta)(p).2).sum();
                self.record_edge_drops(DropReason::Backpressure, n, value);
                SendOutcome::Rejected(DropReason::Backpressure)
            }
            Err(PushError::Closed(batch)) => {
                let value: u64 = batch.packets.iter().map(|&p| (self.meta)(p).2).sum();
                self.record_edge_drops(DropReason::ShardFailure, n, value);
                SendOutcome::Disconnected
            }
        }
    }

    /// An emptied batch buffer the shard handed back, if one is waiting.
    /// Its capacity is whatever the buffer had when it was sent.
    pub fn spare_buffer(&self) -> Option<Vec<P>> {
        match self.spares.try_pop() {
            TryPop::Item(buf) => Some(buf),
            TryPop::Empty | TryPop::Closed => None,
        }
    }

    /// Like [`IngressHandle::spare_buffer`], waiting up to `timeout` for the
    /// shard to hand one back; `None` on timeout or once the shard is gone.
    pub fn wait_spare_buffer(&self, timeout: Duration) -> Option<Vec<P>> {
        self.spares.wait_nonempty(Some(timeout));
        self.spare_buffer()
    }

    /// How many emptied buffers the shard's return ring holds. The shard
    /// drops a buffer only when that ring is full, so a producer that keeps
    /// at most this many buffers in circulation never loses one.
    pub fn spare_capacity(&self) -> usize {
        self.spare_capacity
    }

    /// Sends the batches in `batches` with one bulk ring publish — a single
    /// release store and at most one consumer wake per free window —
    /// blocking while the ring is full, with accounting identical to a
    /// [`IngressHandle::send`] loop. Empty batches are skipped. `batches`
    /// is left empty with its capacity, so a caller reusing it allocates
    /// nothing per publish. Returns `false` when the shard is gone: batches
    /// already published are counted sent (the shard drains or accounts
    /// them) and the remainder is counted lost.
    pub fn send_bulk(&mut self, batches: &mut Vec<Vec<P>>) -> bool {
        let n = self.stage(batches);
        if n == 0 {
            return true;
        }
        self.stats.offered_packets.fetch_add(n, Ordering::Relaxed);
        match self.producer.push_bulk(&mut self.staged) {
            Ok(()) => {
                self.stats.sent_packets.fetch_add(n, Ordering::Relaxed);
                true
            }
            Err(PushError::Full(())) => unreachable!("blocking bulk push never reports full"),
            Err(PushError::Closed(())) => {
                let (lost, value) = self.weigh(&self.staged);
                self.staged.clear();
                self.stats
                    .sent_packets
                    .fetch_add(n - lost, Ordering::Relaxed);
                self.record_edge_drops(DropReason::ShardFailure, lost, value);
                false
            }
        }
    }

    /// Sends the batches in `batches` without blocking, one bulk ring
    /// publish for the lot. Per-batch semantics match a
    /// [`IngressHandle::try_send`] loop against the same ring state: the
    /// leading batches that fit are sent, the rest are tallied as
    /// backpressure (or lost, once the shard is gone). On return `batches`
    /// holds the *emptied* buffers of every batch that did not enter the
    /// ring, so callers can recycle their allocations.
    pub fn try_send_bulk(&mut self, batches: &mut Vec<Vec<P>>) {
        let n = self.stage(batches);
        if n == 0 {
            return;
        }
        self.stats.offered_packets.fetch_add(n, Ordering::Relaxed);
        let result = self.producer.try_push_bulk(&mut self.staged);
        let (rest, value) = self.weigh(&self.staged);
        self.stats
            .sent_packets
            .fetch_add(n - rest, Ordering::Relaxed);
        match result {
            Ok(()) => {}
            Err(PushError::Full(())) => {
                self.record_edge_drops(DropReason::Backpressure, rest, value);
            }
            Err(PushError::Closed(())) => {
                self.record_edge_drops(DropReason::ShardFailure, rest, value);
            }
        }
        batches.extend(self.staged.drain(..).map(|b| {
            let mut buf = b.packets;
            buf.clear();
            buf
        }));
    }

    /// Moves the non-empty batches out of `batches` into the staging
    /// scratch, stamped now; returns how many packets they carry.
    fn stage(&mut self, batches: &mut Vec<Vec<P>>) -> u64 {
        let mut n = 0u64;
        for b in batches.drain(..) {
            if !b.is_empty() {
                n += b.len() as u64;
                self.staged.push(Batch::new(b));
            }
        }
        n
    }

    /// Packet count and total value of a slice of batches.
    fn weigh(&self, batches: &[Batch<P>]) -> (u64, u64) {
        let mut n = 0u64;
        let mut value = 0u64;
        for b in batches {
            n += b.packets.len() as u64;
            value += b.packets.iter().map(|&p| (self.meta)(p).2).sum::<u64>();
        }
        (n, value)
    }

    /// Surfaces a producer-side observability failure (a socket option that
    /// could not be set, a receive loop that saw transient errors) on the
    /// final report's [`RuntimeReport::obs_errors`] without failing the
    /// datapath — the same degrade-don't-die contract the telemetry and
    /// flight sinks follow.
    pub fn record_error(&self, msg: impl Into<String>) {
        if let Ok(mut errors) = self.errors.lock() {
            errors.push(msg.into());
        }
    }

    /// Records wire-level receive activity from a network ingress thread:
    /// socket tallies (`counts`) plus the frames from well-formed datagrams
    /// that were lost to truncation or failed validation
    /// (`dropped_frames`, recorded as [`DropReason::NetDecode`] edge drops).
    /// Both land in this producer's report; when the runtime has telemetry
    /// attached they also flow into the target shard's [`StatCell`], so
    /// live Prometheus/JSON dumps and flight recorder post-mortems show the
    /// wire traffic. In-process producers never call this.
    pub fn record_net(&self, counts: NetCounts, dropped_frames: u64) {
        let r = Ordering::Relaxed;
        self.stats.net_datagrams.fetch_add(counts.datagrams, r);
        self.stats.net_frames.fetch_add(counts.frames, r);
        self.stats
            .net_decode_errors
            .fetch_add(counts.decode_errors, r);
        self.stats.net_truncations.fetch_add(counts.truncations, r);
        if let Some(cell) = &self.cell {
            cell.record_net(counts);
        }
        self.record_edge_drops(DropReason::NetDecode, dropped_frames, 0);
    }

    /// Records `packets` packets of total worth `value` dropped for `reason`
    /// before reaching the shard: into this producer's tally and, with
    /// telemetry on, into the shard's [`StatCell`] as arrivals plus drops,
    /// so the live series and [`RuntimeReport::counters`] agree.
    fn record_edge_drops(&self, reason: DropReason, packets: u64, value: u64) {
        if packets == 0 {
            return;
        }
        let r = Ordering::Relaxed;
        self.stats.dropped[reason.index()].fetch_add(packets, r);
        self.stats.dropped_value[reason.index()].fetch_add(value, r);
        if let Some(cell) = &self.cell {
            cell.record_edge_drops(reason, packets, value);
        }
    }
}

type ServiceFactory<S> = Box<dyn Fn() -> S + Send>;
type ProducerJob<P> = Box<dyn FnOnce(&mut IngressHandle<P>) + Send>;
type FanoutJob<P> = Box<dyn FnOnce(&mut [IngressHandle<P>]) + Send>;

struct ShardSlot<S: DatapathSystem + 'static> {
    factory: ServiceFactory<S>,
    producers: Vec<ProducerJob<S::Packet>>,
}

/// Assembles a datapath: shards (each owning one buffer core) and the
/// producer jobs that feed them, then runs everything to completion.
pub struct RuntimeBuilder<S: DatapathSystem + 'static> {
    config: RuntimeConfig,
    shards: Vec<ShardSlot<S>>,
    fanout: Vec<(Vec<usize>, FanoutJob<S::Packet>)>,
}

impl<S: DatapathSystem + 'static> RuntimeBuilder<S> {
    /// Starts an empty datapath with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        RuntimeBuilder {
            config,
            shards: Vec::new(),
            fanout: Vec::new(),
        }
    }

    /// Adds a shard whose service is built by `factory` *inside* the shard
    /// thread. Returns the id to attach producers to.
    ///
    /// The factory must be reusable (`Fn`, not `FnOnce`): the supervisor
    /// calls it again to rebuild the service when the shard panics and is
    /// restarted.
    pub fn add_shard(&mut self, factory: impl Fn() -> S + Send + 'static) -> ShardId {
        self.shards.push(ShardSlot {
            factory: Box::new(factory),
            producers: Vec::new(),
        });
        ShardId(self.shards.len() - 1)
    }

    /// Adds a producer job feeding `shard` through its own SPSC ring. The
    /// job runs on a dedicated thread and owns its [`IngressHandle`]; when
    /// it returns (or panics) the ring closes and the shard sees
    /// end-of-stream.
    ///
    /// # Panics
    ///
    /// Panics if `shard` was not returned by this builder's
    /// [`RuntimeBuilder::add_shard`].
    pub fn add_producer(
        &mut self,
        shard: ShardId,
        job: impl FnOnce(&mut IngressHandle<S::Packet>) + Send + 'static,
    ) {
        self.shards[shard.0].producers.push(Box::new(job));
    }

    /// Adds a producer job that feeds *several* shards from one thread —
    /// the shape of a network ingress socket spraying decoded packets
    /// across the datapath. The job gets one [`IngressHandle`] (and thus
    /// one SPSC ring, with its own backpressure/lost accounting) per entry
    /// in `shards`, in the given order; the final report carries one
    /// [`ProducerReport`] row per handle. When the job returns or panics
    /// all of its rings close together.
    ///
    /// # Panics
    ///
    /// Panics if any entry of `shards` was not returned by this builder's
    /// [`RuntimeBuilder::add_shard`].
    pub fn add_producer_fanout(
        &mut self,
        shards: &[ShardId],
        job: impl FnOnce(&mut [IngressHandle<S::Packet>]) + Send + 'static,
    ) {
        for id in shards {
            assert!(id.0 < self.shards.len(), "unknown shard {}", id.0);
        }
        self.fanout
            .push((shards.iter().map(|id| id.0).collect(), Box::new(job)));
    }

    /// Spawns every shard and producer thread, waits for the datapath to
    /// finish (all producers done, all rings drained, buffers emptied when
    /// configured), and collects the reports. `clock_factory` builds each
    /// shard's pacing clock from its index; the clock must be `Clone`
    /// because each restarted incarnation gets a fresh copy (a paced
    /// [`crate::WallClock`] re-arms its deadline from scratch).
    pub fn run<C: Clock + Clone + Send + 'static>(
        self,
        mut clock_factory: impl FnMut(usize) -> C,
    ) -> RuntimeReport {
        let started = Instant::now();
        let shard_config = self.config.shard.clone();
        let supervision = self.config.supervision.clone();
        let mut shard_handles = Vec::new();
        let mut producer_handles = Vec::new();
        let mut obs_errors: Vec<String> = Vec::new();
        // Producer-side observability failures, reported through
        // `IngressHandle::record_error`; drained into `obs_errors` after
        // every producer has joined.
        let producer_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

        // One stat cell per shard, shared between that shard's observer and
        // the sampler thread. Sink-open failures degrade to "telemetry off"
        // rather than failing the datapath; they surface in `obs_errors`.
        let cells: Option<Vec<Arc<StatCell>>> = self.config.telemetry.as_ref().map(|_| {
            (0..self.shards.len())
                .map(|_| Arc::new(StatCell::new()))
                .collect()
        });
        let sampler = match (&cells, self.config.telemetry.clone()) {
            (Some(cells), Some(cfg)) => match TelemetrySampler::spawn(cells.clone(), cfg) {
                Ok(s) => Some(s),
                Err(e) => {
                    obs_errors.push(format!("telemetry sampler: {e}"));
                    None
                }
            },
            _ => None,
        };
        let flight_cfg = self.config.flight.clone();
        let flight_sink: Option<Arc<Mutex<File>>> = match &flight_cfg {
            Some(cfg) => match File::create(&cfg.path) {
                Ok(f) => Some(Arc::new(Mutex::new(f))),
                Err(e) => {
                    obs_errors.push(format!("flight sink {}: {e}", cfg.path.display()));
                    None
                }
            },
            None => None,
        };

        // Wire every producer — per-shard and fanout — before spawning the
        // shards, so a fanout job sees all of its rings at once. Each
        // producer thread reports as a *group* of (shard, stats) rows: one
        // row for a plain producer, one per target shard for a fanout job.
        let nshards = self.shards.len();
        let mut ingress_per_shard: Vec<Vec<Ingress<S::Packet>>> =
            (0..nshards).map(|_| Vec::new()).collect();
        // One ingress ring pair per (producer, shard): the handle goes to
        // the producer thread, the shard's side to its supervisor.
        let mut wire = |shard: usize| {
            let (tx, rx) = ring(self.config.ring_capacity);
            let (spare_tx, spare_rx) = ring(self.config.ring_capacity);
            ingress_per_shard[shard].push(Ingress::new(rx, spare_tx));
            let stats = Arc::new(ProducerStats::default());
            let handle = IngressHandle {
                producer: tx,
                spares: spare_rx,
                spare_capacity: self.config.ring_capacity,
                staged: Vec::new(),
                stats: Arc::clone(&stats),
                meta: S::meta,
                cell: cells.as_ref().map(|c| Arc::clone(&c[shard])),
                errors: Arc::clone(&producer_errors),
            };
            (handle, stats)
        };
        let mut factories = Vec::with_capacity(nshards);
        for (i, slot) in self.shards.into_iter().enumerate() {
            for (j, job) in slot.producers.into_iter().enumerate() {
                let (mut handle, stats) = wire(i);
                let join = thread::Builder::new()
                    .name(format!("smbm-prod-{i}-{j}"))
                    .spawn(move || job(&mut handle))
                    .expect("spawn producer thread");
                producer_handles.push((vec![(i, stats)], join));
            }
            factories.push(slot.factory);
        }
        for (k, (targets, job)) in self.fanout.into_iter().enumerate() {
            let mut handles = Vec::with_capacity(targets.len());
            let mut group = Vec::with_capacity(targets.len());
            for &t in &targets {
                let (handle, stats) = wire(t);
                handles.push(handle);
                group.push((t, stats));
            }
            let join = thread::Builder::new()
                .name(format!("smbm-fanout-{k}"))
                .spawn(move || job(&mut handles))
                .expect("spawn fanout producer thread");
            producer_handles.push((group, join));
        }

        for (i, (factory, ingress)) in factories.into_iter().zip(ingress_per_shard).enumerate() {
            let clock = clock_factory(i);
            let config = shard_config.clone();
            let supervision = supervision.clone();
            let faults = self.config.faults.for_shard(i);
            let cell = cells.as_ref().map(|c| Arc::clone(&c[i]));
            let flight = flight_sink
                .as_ref()
                .and(flight_cfg.as_ref())
                .map(|cfg| FlightRecorder::new(i, cfg.capacity));
            let sink = flight_sink.clone();
            let join = thread::Builder::new()
                .name(format!("smbm-shard-{i}"))
                .spawn(move || {
                    supervise_shard(
                        i,
                        &factory,
                        ingress,
                        clock,
                        &config,
                        &supervision,
                        faults,
                        flight,
                        sink.as_deref(),
                        cell,
                    )
                })
                .expect("spawn shard thread");
            shard_handles.push(join);
        }

        // Producers finish first in the happy path; join them before the
        // shards so a blocked producer (shard died) unblocks via its closed
        // ring rather than deadlocking the join order.
        let mut producers = Vec::new();
        for (group, join) in producer_handles {
            let panicked = join.join().is_err();
            for (shard, stats) in group {
                let r = Ordering::Relaxed;
                producers.push(ProducerReport {
                    shard,
                    offered_packets: stats.offered_packets.load(r),
                    sent_packets: stats.sent_packets.load(r),
                    dropped: stats.dropped.each_ref().map(|d| d.load(r)),
                    dropped_value: stats.dropped_value.each_ref().map(|d| d.load(r)),
                    net: NetCounts {
                        datagrams: stats.net_datagrams.load(r),
                        frames: stats.net_frames.load(r),
                        decode_errors: stats.net_decode_errors.load(r),
                        truncations: stats.net_truncations.load(r),
                    },
                    panicked,
                });
            }
        }

        let mut shards = Vec::with_capacity(shard_handles.len());
        let mut shard_panics = 0;
        for join in shard_handles {
            match join.join() {
                // Every incarnation that died counts: the restarts plus the
                // final unrecovered death when the supervisor gave up.
                Ok(report) => {
                    shard_panics += report.restarts as usize + usize::from(report.gave_up);
                    shards.push(report);
                }
                // The supervisor itself should never unwind; if it does,
                // count the thread as one panic and carry on.
                Err(_) => shard_panics += 1,
            }
        }
        // Every producer has joined, so nothing records errors concurrently.
        if let Ok(mut errors) = producer_errors.lock() {
            obs_errors.append(&mut errors);
        }

        // Stop the sampler only after every shard thread has joined: the
        // joins give the final tick a happens-before edge over all relaxed
        // stat-cell stores, so the last sample's totals are exact.
        let mut telemetry = sampler.map(|s| s.stop());
        if let Some(report) = &mut telemetry {
            obs_errors.extend(report.errors.iter().cloned());
        }
        if let Some(sink) = &flight_sink {
            if let Ok(mut file) = sink.lock() {
                if let Err(e) = file.flush() {
                    obs_errors.push(format!("flight sink flush: {e}"));
                }
            }
        }

        RuntimeReport {
            shards,
            producers,
            shard_panics,
            elapsed: started.elapsed(),
            telemetry,
            obs_errors,
        }
    }
}

/// Runs one shard under supervision: incarnations are built from `factory`
/// and driven by [`run_shard_core`]; a panicking incarnation is accounted
/// exactly and replaced (with backoff) until `supervision`'s restart budget
/// runs out. With `cell` set, a [`TelemetryObserver`] feeding it rides in
/// the observer stack behind the flight recorder.
///
/// Accounting at each panic, so conservation holds datapath-wide:
///
/// * counters up to the last completed slot come from the incarnation's
///   [`ShardProgress`] snapshot;
/// * packets popped from the rings but not yet reflected in that snapshot
///   (a mid-slot death) become [`DropReason::ShardFailure`] drops;
/// * packets resident in the dead buffer become push-outs — their exact
///   value is recovered from the snapshot's value law
///   (`admitted - transmitted - pushed_out`);
/// * the ring backlog is left in place for the replacement (or drained as
///   shard-failure drops on give-up).
///
/// [`book_losses`] writes each of these losses once into both ledgers,
/// the counters and the stat cell, so the final telemetry sample equals
/// the report on faulted runs too.
#[allow(clippy::too_many_arguments)]
fn supervise_shard<S: DatapathSystem + 'static, C: Clock + Clone>(
    shard_id: usize,
    factory: &ServiceFactory<S>,
    mut rings: Vec<Ingress<S::Packet>>,
    clock: C,
    config: &ShardConfig,
    supervision: &SupervisionConfig,
    mut faults: ShardFaults,
    mut flight: Option<FlightRecorder>,
    flight_sink: Option<&Mutex<File>>,
    cell: Option<Arc<StatCell>>,
) -> ShardReport {
    let started = Instant::now();
    // The supervisor owns the rings — both the batch ring and the buffer
    // return ring of every ingress; incarnations only *borrow* them (see
    // `run_shard_core`), so a panicking incarnation's unwind cannot drop —
    // and thus cannot close — a ring. The backlog survives in place for
    // the replacement, and the supervisor peeks, drains, and finally
    // closes through the same owned handles. This is also what keeps the
    // lock-free ring's SPSC discipline intact across restarts: there is
    // exactly one consumer handle per batch ring and one producer handle
    // per return ring, ever.

    let mut telemetry = cell.clone().map(TelemetryObserver::new);
    let mut acc = ShardProgress::new();
    let mut restarts: u32 = 0;
    let mut orphaned: u64 = 0;
    let mut gave_up = false;
    let mut flight_dumps: u32 = 0;

    loop {
        let mut progress = ShardProgress::new();
        let incarnation_clock = clock.clone();
        // AssertUnwindSafe: everything the closure can leave half-updated
        // is plain data (tallies in `progress`, fire-once flags in
        // `faults`, the pending slot in `telemetry`, the event ring in
        // `flight`, pruned-but-consistent ring handles in `rings`), read
        // afterwards only in ways that tolerate a torn last write — the
        // snapshot fields are whole-struct copies taken at slot
        // boundaries, and the telemetry observer discards its pending
        // slot on panic.
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Built inside the guarded scope: a panicking factory counts as
            // an incarnation failure like any other. The flight recorder
            // rides along as the head of the observer stack so its ring
            // holds the event tail when the incarnation unwinds.
            let service = factory();
            let mut stack = (flight.as_mut(), &mut telemetry);
            run_shard_core(
                service,
                &mut rings,
                incarnation_clock,
                config,
                &mut faults,
                &mut progress,
                &mut stack,
            );
        }));

        match result {
            Ok(()) => {
                acc.absorb(&progress);
                break;
            }
            Err(_) => {
                let mut backlog = 0u64;
                for r in rings.iter() {
                    r.batches.peek(|b| backlog += b.packets.len() as u64);
                }
                orphaned += backlog;
                telemetry.shard_panicked(progress.stats.slots, backlog);
                if let Some(f) = flight.as_mut() {
                    f.shard_panicked(progress.stats.slots, backlog);
                }
                flight_dumps += write_flight_dump(
                    flight_sink,
                    flight.as_ref(),
                    "panic",
                    progress.stats.slots,
                    restarts as u64,
                    backlog,
                    cell.as_ref().map(|c| c.net_counts()),
                );

                // Packets the dead incarnation popped but never accounted
                // (it died mid-slot) are shard-failure drops; packets still
                // resident in its buffer died with it and are recorded as
                // push-outs, with their value recovered from the snapshot's
                // value law. After this the incarnation's books balance.
                let c = &progress.counters;
                let gap = (
                    progress.ingested_packets.saturating_sub(c.arrived()),
                    progress.ingested_value.saturating_sub(c.arrived_value()),
                );
                let resident_v = c
                    .admitted_value()
                    .saturating_sub(c.transmitted_value())
                    .saturating_sub(c.pushed_out_value());
                let resident = (progress.occupancy as u64, resident_v);
                book_losses(&mut progress.counters, cell.as_deref(), gap, resident);
                progress.occupancy = 0;
                acc.absorb(&progress);

                if restarts >= supervision.restart_budget {
                    gave_up = true;
                    telemetry.shard_failed(progress.stats.slots, backlog);
                    if let Some(f) = flight.as_mut() {
                        f.shard_failed(progress.stats.slots, backlog);
                    }
                    flight_dumps += write_flight_dump(
                        flight_sink,
                        flight.as_ref(),
                        "gave_up",
                        progress.stats.slots,
                        restarts as u64,
                        backlog,
                        cell.as_ref().map(|c| c.net_counts()),
                    );
                    break;
                }
                restarts += 1;
                let backoff = supervision.backoff(restarts);
                if !backoff.is_zero() {
                    thread::sleep(backoff);
                }
                // The replacement borrows the same `rings` on the next
                // iteration — nothing to rewire.
                telemetry.shard_restarted(progress.stats.slots, restarts as u64);
                if let Some(f) = flight.as_mut() {
                    f.shard_restarted(progress.stats.slots, restarts as u64);
                }
            }
        }
    }

    // Close the surviving rings explicitly: blocked producers unblock with
    // `Closed`, and whatever is still queued — the give-up backlog, or
    // leftovers after an admission-error abort — is drained and accounted
    // as shard-failure drops. A normal completion pruned (and thereby
    // closed) every ring already, so this is a no-op there.
    for r in rings.iter() {
        r.batches.close();
    }
    let mut drained = (0u64, 0u64);
    for r in rings.iter() {
        while let TryPop::Item(b) = r.batches.try_pop() {
            drained.0 += b.packets.len() as u64;
            drained.1 += b.packets.iter().map(|&p| S::meta(p).2).sum::<u64>();
        }
    }
    book_losses(&mut acc.counters, cell.as_deref(), drained, (0, 0));

    let mut report = acc.into_report(shard_id, started.elapsed());
    report.restarts = restarts;
    report.orphaned_packets = orphaned;
    report.gave_up = gave_up;
    report.flight_dumps = flight_dumps;
    report
}

/// Books what supervision lost, once, into `counters` and (with telemetry
/// on) the shard's stat `cell`: `failed` (packets, value) as
/// [`DropReason::ShardFailure`] edge drops, counted as arrivals plus drops
/// in both; `resident` (packets, value), a dead buffer's contents, as
/// push-outs in the counters and as `flushed` in the cell.
fn book_losses(
    counters: &mut Counters,
    cell: Option<&StatCell>,
    failed: (u64, u64),
    resident: (u64, u64),
) {
    counters.record_edge_drops(DropReason::ShardFailure, failed.0, failed.1);
    counters.record_flush(resident.0, resident.1);
    if let Some(cell) = cell {
        cell.record_edge_drops(DropReason::ShardFailure, failed.0, failed.1);
        cell.record_flush(resident.0);
    }
}

/// Appends one flight-recorder dump to the shared post-mortem sink,
/// returning 1 if a dump was written (0 when no recorder/sink is configured
/// or the write failed — deaths must never cascade into the supervisor).
/// `net`, when present, is the dead shard's wire-ingress tallies from its
/// stat cell; the dump header carries them so a post-mortem of a
/// network-fed shard shows the traffic that preceded the death.
#[allow(clippy::too_many_arguments)]
fn write_flight_dump(
    sink: Option<&Mutex<File>>,
    flight: Option<&FlightRecorder>,
    reason: &str,
    slot: u64,
    attempt: u64,
    orphans: u64,
    net: Option<NetCounts>,
) -> u32 {
    let (Some(sink), Some(flight)) = (sink, flight) else {
        return 0;
    };
    let dump = flight.render_dump_with_net(reason, slot, attempt, orphans, net.as_ref());
    let Ok(mut file) = sink.lock() else {
        return 0;
    };
    // Flush immediately: the dump must hit disk even if the process dies
    // right after the supervisor gives up.
    match file.write_all(dump.as_bytes()).and_then(|()| file.flush()) {
        Ok(()) => 1,
        Err(_) => 0,
    }
}

/// Everything the datapath did, shard by shard and producer by producer.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Per-shard reports, in shard order. Supervision means every shard
    /// reports, even one whose incarnations all panicked: the supervisor
    /// synthesizes the report from the accounting it recovered
    /// ([`ShardReport::gave_up`] marks an abandoned shard).
    pub shards: Vec<ShardReport>,
    /// Per-producer reports, grouped by shard in spawn order.
    pub producers: Vec<ProducerReport>,
    /// Shard incarnations that panicked, whether restarted or not.
    pub shard_panics: usize,
    /// Wall-clock time from the start of [`RuntimeBuilder::run`] — before
    /// any thread is spawned or any producer sends — to the last join. A
    /// producer that waits for network clients adds that wait.
    pub elapsed: Duration,
    /// The telemetry sampler's report, when [`RuntimeConfig::telemetry`]
    /// was set. Its final sample is exact: the sampler is stopped only
    /// after every shard thread has joined.
    pub telemetry: Option<TelemetryReport>,
    /// Non-fatal observability failures (sink-open or write errors). The
    /// datapath itself ran to completion regardless.
    pub obs_errors: Vec<String>,
}

impl RuntimeReport {
    /// Datapath-wide counters: every shard's switch counters merged, plus
    /// every producer's edge drops (see [`ProducerReport::dropped`]) folded
    /// in as arrivals plus drops — so the conservation laws hold over the
    /// whole datapath, not just inside each switch, even across shard
    /// panics and restarts.
    pub fn counters(&self) -> Counters {
        let mut total = Counters::new();
        for shard in &self.shards {
            total.merge(&shard.counters);
        }
        for p in &self.producers {
            for r in DropReason::ALL {
                total.record_edge_drops(r, p.dropped[r.index()], p.dropped_value[r.index()]);
            }
        }
        total
    }

    /// Sum of every shard's objective.
    pub fn score(&self) -> u64 {
        self.shards.iter().map(|s| s.score).sum()
    }

    /// Producer jobs that panicked.
    pub fn producer_panics(&self) -> usize {
        self.producers.iter().filter(|p| p.panicked).count()
    }

    /// Packets lost to mid-send shard disappearance, across all producers.
    pub fn lost_packets(&self) -> u64 {
        let i = DropReason::ShardFailure.index();
        self.producers.iter().map(|p| p.dropped[i]).sum()
    }

    /// Wire-level receive tallies merged across every producer; all zero
    /// when nothing called [`IngressHandle::record_net`].
    pub fn net_counts(&self) -> NetCounts {
        let mut total = NetCounts::default();
        for p in &self.producers {
            total.merge(&p.net);
        }
        total
    }

    /// Supervised restarts across all shards.
    pub fn restarts(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.restarts)).sum()
    }

    /// Packets found orphaned in dead incarnations' rings, across all
    /// shards and panics.
    pub fn orphaned_packets(&self) -> u64 {
        self.shards.iter().map(|s| s.orphaned_packets).sum()
    }

    /// Shards the supervisor abandoned after exhausting the restart budget.
    pub fn shards_gave_up(&self) -> usize {
        self.shards.iter().filter(|s| s.gave_up).count()
    }

    /// Flight-recorder post-mortem dumps written, across all shards.
    pub fn flight_dumps(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.flight_dumps)).sum()
    }

    /// Packets through admission control per second of
    /// [`RuntimeReport::elapsed`]. That clock starts at
    /// [`RuntimeBuilder::run`], before any producer sends, so when the
    /// producers wait on network clients the rate understates what the
    /// shards sustained while traffic flowed.
    pub fn processed_per_sec(&self) -> f64 {
        let arrived: u64 = self.shards.iter().map(|s| s.counters.arrived()).sum();
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            arrived as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use smbm_core::{Lwd, WorkRunner};
    use smbm_switch::{PortId, Work, WorkPacket, WorkSwitchConfig};

    fn builder(shards: usize) -> (RuntimeBuilder<WorkRunner<Lwd>>, Vec<ShardId>) {
        let mut b = RuntimeBuilder::new(RuntimeConfig {
            ring_capacity: 4,
            shard: ShardConfig::lockstep(),
            ..RuntimeConfig::default()
        });
        let ids = (0..shards)
            .map(|_| {
                b.add_shard(|| {
                    let cfg = WorkSwitchConfig::contiguous(2, 8).unwrap();
                    WorkRunner::new(cfg, Lwd::new(), 1)
                })
            })
            .collect();
        (b, ids)
    }

    fn wp(port: usize, w: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(port), Work::new(w))
    }

    #[test]
    fn single_shard_single_producer_round_trip() {
        let (mut b, ids) = builder(1);
        b.add_producer(ids[0], |h| {
            for _ in 0..10 {
                assert!(h.send(vec![wp(0, 1), wp(1, 2)]));
            }
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shard_panics, 0);
        assert_eq!(report.producer_panics(), 0);
        assert_eq!(report.counters().arrived(), 20);
        assert_eq!(report.counters().transmitted(), 20, "drain flushes all");
        assert_eq!(report.producers[0].sent_packets, 20);
        assert!(report.counters().check_conservation(0).is_ok());
    }

    #[test]
    fn two_shards_partition_the_load() {
        let (mut b, ids) = builder(2);
        for &id in &ids {
            b.add_producer(id, |h| {
                for _ in 0..5 {
                    h.send(vec![wp(0, 1)]);
                }
            });
        }
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.score(), 10);
        for shard in &report.shards {
            assert_eq!(shard.counters.transmitted(), 5);
        }
    }

    #[test]
    fn producer_panic_drains_and_joins() {
        let (mut b, ids) = builder(1);
        b.add_producer(ids[0], |h| {
            h.send(vec![wp(0, 1), wp(0, 1)]);
            panic!("producer died mid-run");
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.producer_panics(), 1);
        assert!(report.producers[0].panicked);
        assert_eq!(report.producers[0].sent_packets, 2);
        assert_eq!(report.shard_panics, 0);
        // The shard drained the in-flight batch before joining.
        assert_eq!(report.counters().transmitted(), 2);
        assert!(report.counters().check_conservation(0).is_ok());
    }

    #[test]
    fn fanout_producer_feeds_every_shard_and_reports_net() {
        let (mut b, ids) = builder(2);
        b.add_producer_fanout(&ids, |handles| {
            assert_eq!(handles.len(), 2, "one handle per target shard");
            for h in handles.iter_mut() {
                assert!(h.send(vec![wp(0, 1), wp(1, 2)]));
            }
            // The shape a socket thread uses: one datagram carried the two
            // frames for shard 0, a third frame failed validation.
            handles[0].record_net(
                NetCounts {
                    datagrams: 1,
                    frames: 2,
                    decode_errors: 1,
                    truncations: 0,
                },
                1,
            );
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.producers.len(), 2, "one report row per fed shard");
        assert_eq!(report.producers[0].shard, 0);
        assert_eq!(report.producers[1].shard, 1);
        for p in &report.producers {
            assert_eq!(p.sent_packets, 2);
            assert!(!p.panicked);
        }
        assert_eq!(report.net_counts().datagrams, 1);
        assert_eq!(report.net_counts().decode_errors, 1);
        assert_eq!(
            report.producers[0].dropped[DropReason::NetDecode.index()],
            1
        );
        let c = report.counters();
        assert_eq!(c.arrived(), 5, "4 delivered + 1 net-decode drop");
        assert_eq!(c.transmitted(), 4);
        assert_eq!(c.dropped_for(DropReason::NetDecode), 1);
        assert!(c.check_conservation(0).is_ok());
        assert!(c.check_value_conservation(0).is_ok());
    }

    #[test]
    fn send_bulk_matches_scalar_sends_counter_for_counter() {
        // Differential check for the bulk publish path: the same feed,
        // lockstep pacing, one run sending batch by batch and one
        // publishing the whole slice bulk, must produce bit-identical
        // counters and producer tallies.
        let feed = || -> Vec<Vec<WorkPacket>> {
            (0..12)
                .map(|i| {
                    let p = i % 2;
                    vec![wp(p, p as u32 + 1); i % 3 + 1]
                })
                .collect()
        };
        let scalar = {
            let (mut b, ids) = builder(1);
            b.add_producer(ids[0], move |h| {
                for batch in feed() {
                    assert!(h.send(batch));
                }
            });
            b.run(|_| VirtualClock::new())
        };
        let bulk = {
            let (mut b, ids) = builder(1);
            b.add_producer(ids[0], move |h| {
                let mut batches = feed();
                assert!(h.send_bulk(&mut batches));
                assert!(batches.is_empty(), "a bulk send drains its batches");
            });
            b.run(|_| VirtualClock::new())
        };
        assert_eq!(scalar.counters(), bulk.counters());
        assert_eq!(
            scalar.producers[0].sent_packets,
            bulk.producers[0].sent_packets
        );
        assert_eq!(
            scalar.producers[0].offered_packets,
            bulk.producers[0].offered_packets
        );
        assert_eq!(bulk.producers[0].sent_packets, 24);
    }

    #[test]
    fn try_send_bulk_accounts_backpressure_and_returns_buffers() {
        let (mut b, ids) = builder(1);
        b.add_producer(ids[0], |h| {
            // Park a batch so the depth-4 ring can absorb at most 4 more;
            // offer 6 batches bulk, of which the trailing 2 must bounce.
            // (The shard has not started pulling yet only probabilistically,
            // so assert on totals the accounting guarantees regardless.)
            let mut batches: Vec<Vec<WorkPacket>> =
                (0..6).map(|_| vec![wp(0, 1), wp(1, 2)]).collect();
            h.try_send_bulk(&mut batches);
            for buf in &batches {
                assert!(buf.is_empty(), "returned buffers are cleared");
                assert!(buf.capacity() >= 2, "returned buffers keep capacity");
            }
        });
        let report = b.run(|_| VirtualClock::new());
        let p = &report.producers[0];
        assert_eq!(p.offered_packets, 12);
        assert_eq!(
            p.sent_packets + p.dropped[DropReason::Backpressure.index()],
            12,
            "every offered packet is sent or tallied as backpressure"
        );
        assert!(report.counters().check_conservation(0).is_ok());
        assert!(report.counters().check_value_conservation(0).is_ok());
    }

    #[test]
    fn send_bulk_counts_remainder_lost_when_rings_close() {
        let mut b = RuntimeBuilder::new(RuntimeConfig {
            ring_capacity: 4,
            shard: ShardConfig::lockstep(),
            faults: FaultPlan::parse("panic@0").unwrap(),
            supervision: SupervisionConfig::immediate(0),
            ..RuntimeConfig::default()
        });
        let id = b.add_shard(|| {
            let cfg = WorkSwitchConfig::contiguous(2, 8).unwrap();
            WorkRunner::new(cfg, Lwd::new(), 1)
        });
        b.add_producer(id, |h| {
            // Keep publishing until the supervisor gives up and the ring
            // closes; the remainder of the failing bulk send is lost.
            loop {
                let mut batches: Vec<Vec<WorkPacket>> = (0..4).map(|_| vec![wp(0, 1)]).collect();
                if !h.send_bulk(&mut batches) {
                    break;
                }
            }
        });
        let report = b.run(|_| VirtualClock::new());
        assert!(report.lost_packets() > 0, "the closed ring loses the tail");
        let p = &report.producers[0];
        assert_eq!(
            p.offered_packets,
            p.sent_packets + p.dropped[DropReason::ShardFailure.index()]
        );
        let c = report.counters();
        assert!(c.check_conservation(0).is_ok());
        assert!(c.check_value_conservation(0).is_ok());
    }

    #[test]
    fn stepped_batches_come_back_as_spare_buffers() {
        let (mut b, ids) = builder(1);
        b.add_producer(ids[0], |h| {
            assert!(h.spare_buffer().is_none(), "nothing stepped yet");
            let mut batch = Vec::with_capacity(16);
            batch.extend([wp(0, 1), wp(1, 2)]);
            assert!(h.send(batch));
            let deadline = Instant::now() + Duration::from_secs(10);
            let buf = loop {
                if let Some(buf) = h.spare_buffer() {
                    break buf;
                }
                assert!(Instant::now() < deadline, "the buffer never came back");
                thread::yield_now();
            };
            assert!(buf.is_empty(), "spare buffers come back emptied");
            assert_eq!(buf.capacity(), 16, "and keep their allocation");
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.producer_panics(), 0);
        assert_eq!(report.counters().arrived(), 2);
    }

    #[test]
    fn producer_errors_surface_in_obs_errors() {
        let (mut b, ids) = builder(1);
        b.add_producer(ids[0], |h| {
            h.record_error("net ingress: set_read_timeout failed");
            h.send(vec![wp(0, 1)]);
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.obs_errors.len(), 1);
        assert!(report.obs_errors[0].contains("set_read_timeout"));
        assert_eq!(report.counters().transmitted(), 1, "the run still served");
    }

    #[test]
    fn panic_fault_restarts_and_conserves_packets() {
        let mut b = RuntimeBuilder::new(RuntimeConfig {
            ring_capacity: 4,
            shard: ShardConfig::lockstep(),
            faults: FaultPlan::parse("panic@2").unwrap(),
            supervision: SupervisionConfig::immediate(3),
            ..RuntimeConfig::default()
        });
        let id = b.add_shard(|| {
            let cfg = WorkSwitchConfig::contiguous(2, 8).unwrap();
            WorkRunner::new(cfg, Lwd::new(), 1)
        });
        b.add_producer(id, |h| {
            for _ in 0..10 {
                assert!(h.send(vec![wp(0, 1), wp(1, 2)]), "ring reopens on restart");
            }
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.shard_panics, 1);
        assert_eq!(report.restarts(), 1);
        assert_eq!(report.shards[0].shard, 0);
        assert!(!report.shards[0].gave_up);
        assert_eq!(report.lost_packets(), 0, "no send hit a closed ring");
        let c = report.counters();
        assert_eq!(c.arrived(), 20, "every offered packet is accounted");
        assert!(c.check_conservation(0).is_ok());
        assert!(c.check_value_conservation(0).is_ok());
    }

    #[test]
    fn exhausted_budget_gives_up_and_accounts_the_backlog() {
        let mut b = RuntimeBuilder::new(RuntimeConfig {
            ring_capacity: 4,
            shard: ShardConfig::lockstep(),
            faults: FaultPlan::parse("panic@0").unwrap(),
            supervision: SupervisionConfig::immediate(0),
            ..RuntimeConfig::default()
        });
        let id = b.add_shard(|| {
            let cfg = WorkSwitchConfig::contiguous(2, 8).unwrap();
            WorkRunner::new(cfg, Lwd::new(), 1)
        });
        b.add_producer(id, |h| {
            for _ in 0..10 {
                // Sends start failing once the supervisor closes the ring;
                // both outcomes are legitimate and must be accounted.
                h.send(vec![wp(0, 1), wp(1, 2)]);
            }
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.shard_panics, 1);
        assert_eq!(report.restarts(), 0);
        assert_eq!(report.shards_gave_up(), 1);
        assert!(report.shards[0].gave_up);
        assert!(report.shards[0].error.is_none(), "give-up is not an error");
        let c = report.counters();
        assert_eq!(c.transmitted(), 0, "the shard died before its first slot");
        assert_eq!(c.arrived(), 20, "backlog + lost sends are all accounted");
        assert_eq!(c.dropped_for(DropReason::ShardFailure), 20);
        assert!(c.check_conservation(0).is_ok());
        assert!(c.check_value_conservation(0).is_ok());
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("smbm-runtime-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn telemetry_final_sample_matches_the_report() {
        let mut b = RuntimeBuilder::new(RuntimeConfig {
            ring_capacity: 4,
            shard: ShardConfig::lockstep(),
            telemetry: Some(TelemetryConfig {
                // One initial and one final tick; nothing in between.
                interval: Duration::from_secs(3600),
                ..TelemetryConfig::default()
            }),
            ..RuntimeConfig::default()
        });
        let id = b.add_shard(|| {
            let cfg = WorkSwitchConfig::contiguous(2, 8).unwrap();
            WorkRunner::new(cfg, Lwd::new(), 1)
        });
        b.add_producer(id, |h| {
            for _ in 0..10 {
                assert!(h.send(vec![wp(0, 1), wp(1, 2)]));
            }
        });
        let report = b.run(|_| VirtualClock::new());
        assert!(report.obs_errors.is_empty(), "{:?}", report.obs_errors);
        let telemetry = report.telemetry.as_ref().expect("telemetry configured");
        assert!(telemetry.ticks >= 2, "initial + final tick at minimum");
        let last = telemetry.last().expect("at least the final sample");
        // The sampler stops after the shard joins, so the final sample is
        // exact, not merely eventually-consistent.
        assert_eq!(last.total.arrived, report.counters().arrived());
        assert_eq!(last.total.transmitted, report.counters().transmitted());
        assert_eq!(last.total.arrived_value, report.counters().arrived_value());
        assert_eq!(last.shards.len(), 1);
        assert_eq!(last.total.buffer_limit, 8);
        assert_eq!(last.total.ports, 2);
    }

    #[test]
    fn flight_dump_is_written_per_shard_death() {
        let path = temp_path("flight-panic.jsonl");
        let mut b = RuntimeBuilder::new(RuntimeConfig {
            ring_capacity: 4,
            shard: ShardConfig::lockstep(),
            faults: FaultPlan::parse("panic@2").unwrap(),
            supervision: SupervisionConfig::immediate(3),
            flight: Some(FlightConfig::new(&path)),
            ..RuntimeConfig::default()
        });
        let id = b.add_shard(|| {
            let cfg = WorkSwitchConfig::contiguous(2, 8).unwrap();
            WorkRunner::new(cfg, Lwd::new(), 1)
        });
        b.add_producer(id, |h| {
            for _ in 0..10 {
                assert!(h.send(vec![wp(0, 1), wp(1, 2)]));
            }
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.shard_panics, 1);
        assert_eq!(report.flight_dumps(), 1);
        assert_eq!(report.shards[0].flight_dumps, 1);
        let dump = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let header = dump.lines().next().expect("dump has a header");
        assert!(header.contains("\"type\":\"flight_dump\""), "{header}");
        assert!(header.contains("\"shard\":0"), "{header}");
        assert!(header.contains("\"reason\":\"panic\""), "{header}");
        assert!(
            dump.contains("\"type\":\"shard_panic\""),
            "the panic event itself is retained"
        );
        assert!(report.counters().check_conservation(0).is_ok());
    }

    #[test]
    fn exhausted_budget_writes_a_gave_up_dump() {
        let path = temp_path("flight-gave-up.jsonl");
        let mut b = RuntimeBuilder::new(RuntimeConfig {
            ring_capacity: 4,
            shard: ShardConfig::lockstep(),
            faults: FaultPlan::parse("panic@0").unwrap(),
            supervision: SupervisionConfig::immediate(0),
            flight: Some(FlightConfig::new(&path)),
            ..RuntimeConfig::default()
        });
        let id = b.add_shard(|| {
            let cfg = WorkSwitchConfig::contiguous(2, 8).unwrap();
            WorkRunner::new(cfg, Lwd::new(), 1)
        });
        b.add_producer(id, |h| {
            h.send(vec![wp(0, 1)]);
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.shards_gave_up(), 1);
        // One dump for the panic, one for the give-up.
        assert_eq!(report.flight_dumps(), 2);
        let dump = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(dump.contains("\"reason\":\"panic\""));
        assert!(dump.contains("\"reason\":\"gave_up\""));
        assert!(dump.contains("\"type\":\"shard_failed\""));
    }

    #[test]
    fn unwritable_flight_sink_degrades_to_an_error_not_a_crash() {
        let mut b = RuntimeBuilder::new(RuntimeConfig {
            ring_capacity: 4,
            shard: ShardConfig::lockstep(),
            flight: Some(FlightConfig::new("/nonexistent-dir/flight.jsonl")),
            ..RuntimeConfig::default()
        });
        let id = b.add_shard(|| {
            let cfg = WorkSwitchConfig::contiguous(2, 8).unwrap();
            WorkRunner::new(cfg, Lwd::new(), 1)
        });
        b.add_producer(id, |h| {
            h.send(vec![wp(0, 1)]);
        });
        let report = b.run(|_| VirtualClock::new());
        assert_eq!(report.counters().transmitted(), 1);
        assert_eq!(report.obs_errors.len(), 1);
        assert!(report.obs_errors[0].contains("flight sink"));
    }

    #[test]
    fn try_send_backpressure_is_counted_not_lost() {
        let mut b = RuntimeBuilder::new(RuntimeConfig {
            ring_capacity: 1,
            shard: ShardConfig::freerun(),
            ..RuntimeConfig::default()
        });
        let id = b.add_shard(|| {
            let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
            WorkRunner::new(cfg, Lwd::new(), 1)
        });
        // Stuff the ring faster than a 1-deep ring can possibly accept:
        // with only one slot, at least one try_send must bounce.
        b.add_producer(id, |h| {
            let mut rejected = 0;
            for _ in 0..5_000 {
                match h.try_send(vec![wp(0, 1)]) {
                    SendOutcome::Rejected(reason) => {
                        assert_eq!(reason, DropReason::Backpressure);
                        rejected += 1;
                    }
                    SendOutcome::Sent => {}
                    SendOutcome::Disconnected => panic!("shard vanished"),
                }
            }
            assert!(rejected > 0, "a 1-deep ring must bounce at least once");
        });
        let report = b.run(|_| VirtualClock::new());
        let c = report.counters();
        assert_eq!(c.arrived(), 5_000, "offered = through + backpressure");
        assert!(c.dropped_for(DropReason::Backpressure) > 0);
        assert_eq!(
            c.dropped_for(DropReason::Backpressure),
            report.producers[0].dropped[DropReason::Backpressure.index()]
        );
        assert!(c.check_conservation(0).is_ok());
    }
}
