//! The live telemetry plane: lock-free per-shard stat cells, a background
//! sampler turning them into a bounded time-series, and two std-only
//! exposition sinks (periodic JSONL snapshots and Prometheus text format).
//!
//! ## Design
//!
//! Each shard owns one [`StatCell`]: a cache-line-padded block of atomic
//! counters and gauges plus a mergeable latency histogram guarded by a
//! seqlock-style epoch. The shard hot loop never takes a lock and never
//! issues a stronger-than-release atomic: the [`TelemetryObserver`]
//! accumulates per-packet tallies in plain (non-atomic) locals and folds
//! them into the cell once per slot with relaxed read-modify-writes, so the
//! per-packet cost of telemetry is an ordinary register increment.
//!
//! The [`TelemetrySampler`] thread snapshots every cell at a configurable
//! interval. Counter loads are relaxed: each field is individually monotone
//! (per-location modification order), but a mid-run sample may observe
//! fields of the *same* cell at slightly different instants — e.g.
//! `admitted` momentarily ahead of `arrived`. The final sample is taken
//! after the runtime joins its shard threads, so thread-join's
//! happens-before edge makes it exact. The latency histogram needs
//! multi-word consistency even mid-run (its `count` must equal the bucket
//! sum for quantiles to make sense), so it sits behind a seqlock epoch:
//! writers bump the epoch to odd, merge, bump back to even; readers retry
//! while the epoch is odd or changed underneath them.

use std::collections::VecDeque;
use std::ffi::OsString;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::hist::BUCKETS;
use crate::sink::JsonlWriter;
use crate::{drops_json, DropReason, LogHistogram, Observer};
use smbm_switch::PortId;

/// Consecutive failed snapshot attempts before the reader yields its
/// timeslice (the writer may be descheduled mid-write-section; spinning
/// against it would just burn the core the writer needs).
const SEQLOCK_SPINS_BEFORE_YIELD: u32 = 64;

/// A [`LogHistogram`] shared between one writer (the shard thread) and any
/// number of snapshotting readers, guarded by a seqlock-style epoch.
///
/// All storage is atomic, so even a lost seqlock race yields a merely stale
/// or torn histogram — never undefined behavior (`smbm-obs` forbids
/// `unsafe`). The epoch protocol is the classic one: the writer bumps the
/// epoch to odd, applies relaxed updates, then bumps it back to even with
/// release ordering; readers pair an acquire load with an acquire fence and
/// retry on an odd or moved epoch.
#[derive(Debug)]
pub(crate) struct AtomicLogHistogram {
    epoch: AtomicU64,
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicLogHistogram {
    pub(crate) fn new() -> Self {
        AtomicLogHistogram {
            epoch: AtomicU64::new(0),
            counts: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Folds a plain single-threaded delta histogram into the shared cells
    /// under one seqlock write section. Single-writer: only the owning
    /// shard thread calls this.
    pub(crate) fn merge_delta(&self, delta: &LogHistogram) {
        if delta.count() == 0 {
            return;
        }
        self.epoch.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (i, &c) in delta.bucket_counts().iter().enumerate() {
            if c != 0 {
                self.counts[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(delta.count(), Ordering::Relaxed);
        self.sum.fetch_add(delta.sum(), Ordering::Relaxed);
        self.min.fetch_min(delta.min(), Ordering::Relaxed);
        self.max.fetch_max(delta.max(), Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn read_relaxed(&self) -> LogHistogram {
        let mut counts = [0u64; BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        LogHistogram::from_raw(
            counts,
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    /// A consistent snapshot. Retries until a read completes without the
    /// epoch moving; termination is guaranteed because write sections are
    /// short and bounded (one merge per slot), so the reader always finds a
    /// gap between them.
    pub(crate) fn snapshot(&self) -> LogHistogram {
        let mut attempts: u32 = 0;
        loop {
            let before = self.epoch.load(Ordering::Acquire);
            if before & 1 == 0 {
                let hist = self.read_relaxed();
                fence(Ordering::Acquire);
                if self.epoch.load(Ordering::Relaxed) == before {
                    return hist;
                }
            }
            attempts += 1;
            if attempts.is_multiple_of(SEQLOCK_SPINS_BEFORE_YIELD) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Per-socket network ingress tallies: how many datagrams and frames a
/// socket received and how many frames it failed to decode.
///
/// Lives in `smbm-obs` so the stat cells, the flight recorder, and the
/// network plane's own reports all speak the same counter vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetCounts {
    /// Datagrams received.
    pub datagrams: u64,
    /// Frames successfully decoded into packets.
    pub frames: u64,
    /// Frames (or whole datagrams) that failed decoding.
    pub decode_errors: u64,
    /// Datagrams truncated mid-frame (their missing frames also count as
    /// decode errors).
    pub truncations: u64,
}

impl NetCounts {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &NetCounts) {
        self.datagrams += other.datagrams;
        self.frames += other.frames;
        self.decode_errors += other.decode_errors;
        self.truncations += other.truncations;
    }

    /// Renders the tallies as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"datagrams\":{},\"frames\":{},\"decode_errors\":{},\"truncations\":{}}}",
            self.datagrams, self.frames, self.decode_errors, self.truncations
        )
    }
}

/// One shard's live statistics: atomic counters and gauges written by the
/// shard thread with relaxed ordering and read by the [`TelemetrySampler`].
/// Producer threads add their edge drops (see
/// [`StatCell::record_edge_drops`]) to the same counters, and the shard's
/// supervisor adds a dead incarnation's losses (edge drops plus
/// [`StatCell::record_flush`]); every counter update is a relaxed
/// `fetch_add`, so those writers need no coordination.
///
/// Padded to two 64-byte cache lines' alignment so neighbouring shards'
/// cells never false-share, which is what keeps the hot-loop writes cheap.
#[derive(Debug)]
#[repr(align(128))]
pub struct StatCell {
    // Counters (monotone).
    arrived: AtomicU64,
    arrived_value: AtomicU64,
    admitted: AtomicU64,
    dropped: [AtomicU64; DropReason::COUNT],
    pushed_out: AtomicU64,
    transmitted: AtomicU64,
    transmitted_value: AtomicU64,
    flushed: AtomicU64,
    // Net ingress counters, written by the *socket* thread(s) feeding the
    // shard, not the shard thread itself.
    net_datagrams: AtomicU64,
    net_frames: AtomicU64,
    net_decode_errors: AtomicU64,
    net_truncations: AtomicU64,
    slots: AtomicU64,
    restarts: AtomicU64,
    panics: AtomicU64,
    failures: AtomicU64,
    // Gauges (latest value; queue_hwm is monotone max).
    occupancy: AtomicU64,
    queue_depth: AtomicU64,
    queue_hwm: AtomicU64,
    buffer_limit: AtomicU64,
    ports: AtomicU64,
    latency: AtomicLogHistogram,
}

impl Default for StatCell {
    fn default() -> Self {
        Self::new()
    }
}

impl StatCell {
    /// Creates a zeroed cell.
    pub fn new() -> Self {
        StatCell {
            arrived: AtomicU64::new(0),
            arrived_value: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            dropped: [const { AtomicU64::new(0) }; DropReason::COUNT],
            pushed_out: AtomicU64::new(0),
            transmitted: AtomicU64::new(0),
            transmitted_value: AtomicU64::new(0),
            flushed: AtomicU64::new(0),
            net_datagrams: AtomicU64::new(0),
            net_frames: AtomicU64::new(0),
            net_decode_errors: AtomicU64::new(0),
            net_truncations: AtomicU64::new(0),
            slots: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            occupancy: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
            buffer_limit: AtomicU64::new(0),
            ports: AtomicU64::new(0),
            latency: AtomicLogHistogram::new(),
        }
    }

    /// Records socket-level receive activity from a net ingress thread
    /// feeding this shard. Safe to call from any thread.
    pub fn record_net(&self, counts: NetCounts) {
        let r = Ordering::Relaxed;
        if counts.datagrams != 0 {
            self.net_datagrams.fetch_add(counts.datagrams, r);
        }
        if counts.frames != 0 {
            self.net_frames.fetch_add(counts.frames, r);
        }
        if counts.decode_errors != 0 {
            self.net_decode_errors.fetch_add(counts.decode_errors, r);
        }
        if counts.truncations != 0 {
            self.net_truncations.fetch_add(counts.truncations, r);
        }
    }

    /// Records `packets` packets of total worth `value` dropped for `reason`
    /// at the datapath's edge, before this shard's switch saw them, as
    /// arrivals plus drops: the same fold `Counters::record_edge_drops`
    /// makes, so the cell keeps `arrived == admitted + dropped`. Safe to
    /// call from any thread.
    pub fn record_edge_drops(&self, reason: DropReason, packets: u64, value: u64) {
        let r = Ordering::Relaxed;
        self.arrived.fetch_add(packets, r);
        self.arrived_value.fetch_add(value, r);
        self.dropped[reason.index()].fetch_add(packets, r);
    }

    /// Records `packets` buffered packets discarded outside the slot loop
    /// (a dead incarnation's residents) as `flushed`, matching the push-outs
    /// `Counters::record_flush` books for them. Safe to call from any
    /// thread.
    pub fn record_flush(&self, packets: u64) {
        self.flushed.fetch_add(packets, Ordering::Relaxed);
    }

    /// Reads just the net ingress tallies with relaxed loads; cheap enough
    /// for the supervisor to call while assembling a flight dump.
    pub fn net_counts(&self) -> NetCounts {
        let r = Ordering::Relaxed;
        NetCounts {
            datagrams: self.net_datagrams.load(r),
            frames: self.net_frames.load(r),
            decode_errors: self.net_decode_errors.load(r),
            truncations: self.net_truncations.load(r),
        }
    }

    /// Reads every field with relaxed loads (see the module docs for the
    /// consistency contract) and the latency histogram through its seqlock.
    pub fn snapshot(&self) -> StatSnapshot {
        let r = Ordering::Relaxed;
        StatSnapshot {
            arrived: self.arrived.load(r),
            arrived_value: self.arrived_value.load(r),
            admitted: self.admitted.load(r),
            dropped: self.dropped.each_ref().map(|d| d.load(r)),
            net: self.net_counts(),
            pushed_out: self.pushed_out.load(r),
            transmitted: self.transmitted.load(r),
            transmitted_value: self.transmitted_value.load(r),
            flushed: self.flushed.load(r),
            slots: self.slots.load(r),
            restarts: self.restarts.load(r),
            panics: self.panics.load(r),
            failures: self.failures.load(r),
            occupancy: self.occupancy.load(r),
            queue_depth: self.queue_depth.load(r),
            queue_hwm: self.queue_hwm.load(r),
            buffer_limit: self.buffer_limit.load(r),
            ports: self.ports.load(r),
            latency: self.latency.snapshot(),
        }
    }
}

/// A point-in-time copy of one [`StatCell`] (or, via
/// [`StatSnapshot::merge`], of several).
#[derive(Debug, Clone, Default)]
pub struct StatSnapshot {
    /// Packets offered to admission control.
    pub arrived: u64,
    /// Total intrinsic value offered.
    pub arrived_value: u64,
    /// Packets admitted to the buffer.
    pub admitted: u64,
    /// Packets dropped, indexed by [`DropReason::index`].
    pub dropped: [u64; DropReason::COUNT],
    /// Socket-level receive tallies of the net ingress feeding this shard
    /// (all zero when the datapath runs without a network plane).
    pub net: NetCounts,
    /// Resident packets evicted to make room.
    pub pushed_out: u64,
    /// Packets transmitted.
    pub transmitted: u64,
    /// Total value transmitted.
    pub transmitted_value: u64,
    /// Packets discarded by periodic flushes or lost with a dead
    /// incarnation's buffer.
    pub flushed: u64,
    /// Slots completed (including drain slots).
    pub slots: u64,
    /// Supervised shard restarts.
    pub restarts: u64,
    /// Shard incarnation deaths.
    pub panics: u64,
    /// Shards abandoned after exhausting the restart budget.
    pub failures: u64,
    /// Buffer occupancy at the last completed slot (gauge; summed across
    /// shards by [`StatSnapshot::merge`]).
    pub occupancy: u64,
    /// Deepest per-port queue at the last completed slot (gauge; max across
    /// shards).
    pub queue_depth: u64,
    /// High-watermark of [`StatSnapshot::queue_depth`] over the run.
    pub queue_hwm: u64,
    /// Configured shared buffer limit B (gauge; summed across shards).
    pub buffer_limit: u64,
    /// Configured port count n (gauge; summed across shards).
    pub ports: u64,
    /// Buffer sojourn of transmitted packets, in slots.
    pub latency: LogHistogram,
}

impl StatSnapshot {
    /// Packets dropped for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Accumulates `other` into `self`: counters add, capacity gauges add
    /// (aggregate buffer/ports across shards), depth gauges take the max,
    /// histograms merge.
    pub fn merge(&mut self, other: &StatSnapshot) {
        self.arrived += other.arrived;
        self.arrived_value += other.arrived_value;
        self.admitted += other.admitted;
        for (d, o) in self.dropped.iter_mut().zip(other.dropped) {
            *d += o;
        }
        self.net.merge(&other.net);
        self.pushed_out += other.pushed_out;
        self.transmitted += other.transmitted;
        self.transmitted_value += other.transmitted_value;
        self.flushed += other.flushed;
        self.slots += other.slots;
        self.restarts += other.restarts;
        self.panics += other.panics;
        self.failures += other.failures;
        self.occupancy += other.occupancy;
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.queue_hwm = self.queue_hwm.max(other.queue_hwm);
        self.buffer_limit += other.buffer_limit;
        self.ports += other.ports;
        self.latency.merge(&other.latency);
    }

    /// Renders the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"arrived\":{},\"arrived_value\":{},\"admitted\":{},\
             \"dropped\":{},\"net\":{},\
             \"pushed_out\":{},\"transmitted\":{},\"transmitted_value\":{},\"flushed\":{},\
             \"slots\":{},\"restarts\":{},\"panics\":{},\"failures\":{},\
             \"occupancy\":{},\"queue_depth\":{},\"queue_hwm\":{},\"buffer_limit\":{},\"ports\":{},\
             \"latency\":{}}}",
            self.arrived,
            self.arrived_value,
            self.admitted,
            drops_json(&self.dropped),
            self.net.to_json(),
            self.pushed_out,
            self.transmitted,
            self.transmitted_value,
            self.flushed,
            self.slots,
            self.restarts,
            self.panics,
            self.failures,
            self.occupancy,
            self.queue_depth,
            self.queue_hwm,
            self.buffer_limit,
            self.ports,
            self.latency.to_json(),
        )
    }
}

/// Per-slot tallies the observer accumulates in plain locals before folding
/// them into the shared cell at slot end.
#[derive(Debug, Default)]
struct Pending {
    arrived: u64,
    arrived_value: u64,
    admitted: u64,
    dropped: [u64; DropReason::COUNT],
    pushed_out: u64,
    transmitted: u64,
    transmitted_value: u64,
    flushed: u64,
}

/// The [`Observer`] feeding a shard's [`StatCell`].
///
/// Per-packet hooks touch only plain locals; the cell's atomics are written
/// once per slot. A panicking incarnation's partial slot is discarded, not
/// published: the supervisor's counter snapshot ends at the last completed
/// slot too, and it books that slot's packets itself. Dropping the observer
/// flushes any remaining tallies.
#[derive(Debug)]
pub struct TelemetryObserver {
    cell: Arc<StatCell>,
    pending: Pending,
    latency: LogHistogram,
}

impl TelemetryObserver {
    /// Creates an observer writing into `cell`.
    pub fn new(cell: Arc<StatCell>) -> Self {
        TelemetryObserver {
            cell,
            pending: Pending::default(),
            latency: LogHistogram::new(),
        }
    }

    fn flush_pending(&mut self) {
        let r = Ordering::Relaxed;
        let p = std::mem::take(&mut self.pending);
        let c = &*self.cell;
        if p.arrived != 0 {
            c.arrived.fetch_add(p.arrived, r);
        }
        if p.arrived_value != 0 {
            c.arrived_value.fetch_add(p.arrived_value, r);
        }
        if p.admitted != 0 {
            c.admitted.fetch_add(p.admitted, r);
        }
        for (cell, n) in c.dropped.iter().zip(p.dropped) {
            if n != 0 {
                cell.fetch_add(n, r);
            }
        }
        if p.pushed_out != 0 {
            c.pushed_out.fetch_add(p.pushed_out, r);
        }
        if p.transmitted != 0 {
            c.transmitted.fetch_add(p.transmitted, r);
        }
        if p.transmitted_value != 0 {
            c.transmitted_value.fetch_add(p.transmitted_value, r);
        }
        if p.flushed != 0 {
            c.flushed.fetch_add(p.flushed, r);
        }
        if self.latency.count() > 0 {
            c.latency.merge_delta(&self.latency);
            self.latency = LogHistogram::new();
        }
    }
}

impl Observer for TelemetryObserver {
    fn arrival(&mut self, _slot: u64, _port: PortId, _work: u32, value: u64) {
        self.pending.arrived += 1;
        self.pending.arrived_value += value;
    }

    fn admitted(&mut self, _slot: u64, _port: PortId) {
        self.pending.admitted += 1;
    }

    fn dropped(&mut self, _slot: u64, _port: PortId, reason: DropReason) {
        self.pending.dropped[reason.index()] += 1;
    }

    fn pushed_out(&mut self, _slot: u64, _victim: PortId) {
        self.pending.pushed_out += 1;
    }

    fn transmitted(&mut self, _slot: u64, _port: PortId, latency: u64, value: u64) {
        self.pending.transmitted += 1;
        self.pending.transmitted_value += value;
        self.latency.record(latency);
    }

    fn flush(&mut self, _slot: u64, discarded: u64) {
        self.pending.flushed += discarded;
    }

    fn slot_end(&mut self, _slot: u64, occupancy: usize) {
        self.flush_pending();
        self.cell
            .occupancy
            .store(occupancy as u64, Ordering::Relaxed);
        self.cell.slots.fetch_add(1, Ordering::Relaxed);
    }

    fn queue_depth(&mut self, _slot: u64, depth: u64) {
        self.cell.queue_depth.store(depth, Ordering::Relaxed);
        self.cell.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    fn shard_started(&mut self, buffer_limit: usize, ports: usize) {
        self.cell
            .buffer_limit
            .store(buffer_limit as u64, Ordering::Relaxed);
        self.cell.ports.store(ports as u64, Ordering::Relaxed);
    }

    fn shard_panicked(&mut self, _slot: u64, _orphans: u64) {
        // The dying slot never reached slot_end, and the supervisor books
        // its packets from the last slot's snapshot; publishing its partial
        // tallies would count them twice.
        self.pending = Pending::default();
        self.latency = LogHistogram::new();
        self.cell.panics.fetch_add(1, Ordering::Relaxed);
    }

    fn shard_restarted(&mut self, _slot: u64, _attempt: u64) {
        self.cell.restarts.fetch_add(1, Ordering::Relaxed);
    }

    fn shard_failed(&mut self, _slot: u64, _orphans: u64) {
        self.cell.failures.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for TelemetryObserver {
    fn drop(&mut self) {
        self.flush_pending();
    }
}

/// Configuration of the telemetry plane.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampling cadence (clamped to at least 1 ms).
    pub interval: Duration,
    /// Samples kept in the in-memory time-series ring (oldest evicted).
    pub ring_capacity: usize,
    /// Append one JSONL line per sample to this file.
    pub stats_out: Option<PathBuf>,
    /// Rewrite this file with a Prometheus text-format dump each sample
    /// (write-to-temp + rename, so scrapers never see a torn file).
    pub prom_out: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: Duration::from_millis(250),
            ring_capacity: 1024,
            stats_out: None,
            prom_out: None,
        }
    }
}

/// Instantaneous rates between consecutive samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleRates {
    /// Packets offered per second since the previous sample.
    pub arrived_per_sec: f64,
    /// Packets transmitted per second since the previous sample.
    pub transmitted_per_sec: f64,
    /// Packets dropped (any reason) per second since the previous sample.
    pub dropped_per_sec: f64,
}

/// One entry of the sampler's time-series: cumulative per-shard snapshots,
/// their aggregate, and rates against the previous sample.
#[derive(Debug, Clone)]
pub struct TelemetrySample {
    /// 0-based sample counter.
    pub seq: u64,
    /// Time since the sampler started.
    pub elapsed: Duration,
    /// Aggregate of all shards (see [`StatSnapshot::merge`]).
    pub total: StatSnapshot,
    /// Per-shard snapshots, indexed by shard id.
    pub shards: Vec<StatSnapshot>,
    /// Deltas against the previous sample, per second.
    pub rates: SampleRates,
}

impl TelemetrySample {
    /// Renders the sample as one JSONL line.
    pub fn to_json(&self) -> String {
        let mut shards = String::new();
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                shards.push(',');
            }
            shards.push_str(&s.to_json());
        }
        format!(
            "{{\"type\":\"telemetry\",\"seq\":{},\"elapsed_ms\":{:.3},\
             \"rates\":{{\"arrived_per_sec\":{:.1},\"transmitted_per_sec\":{:.1},\"dropped_per_sec\":{:.1}}},\
             \"total\":{},\"shards\":[{}]}}",
            self.seq,
            self.elapsed.as_secs_f64() * 1e3,
            self.rates.arrived_per_sec,
            self.rates.transmitted_per_sec,
            self.rates.dropped_per_sec,
            self.total.to_json(),
            shards,
        )
    }

    /// Renders the sample in the Prometheus text exposition format
    /// (per-shard series only; aggregation is the scraper's job).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048 + 512 * self.shards.len());
        out.push_str("# HELP smbm_packets_total Packets by lifecycle stage.\n");
        out.push_str("# TYPE smbm_packets_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            for (stage, v) in [
                ("arrived", s.arrived),
                ("admitted", s.admitted),
                ("pushed_out", s.pushed_out),
                ("transmitted", s.transmitted),
                ("flushed", s.flushed),
            ] {
                out.push_str(&format!(
                    "smbm_packets_total{{shard=\"{i}\",stage=\"{stage}\"}} {v}\n"
                ));
            }
        }
        out.push_str("# HELP smbm_drops_total Dropped packets by reason.\n");
        out.push_str("# TYPE smbm_drops_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            for r in DropReason::ALL {
                out.push_str(&format!(
                    "smbm_drops_total{{shard=\"{i}\",reason=\"{}\"}} {}\n",
                    r.label(),
                    s.dropped[r.index()]
                ));
            }
        }
        out.push_str("# HELP smbm_net_total Network ingress activity by kind.\n");
        out.push_str("# TYPE smbm_net_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            for (kind, v) in [
                ("datagrams", s.net.datagrams),
                ("frames", s.net.frames),
                ("decode_errors", s.net.decode_errors),
                ("truncations", s.net.truncations),
            ] {
                out.push_str(&format!(
                    "smbm_net_total{{shard=\"{i}\",kind=\"{kind}\"}} {v}\n"
                ));
            }
        }
        out.push_str("# HELP smbm_value_total Intrinsic value by lifecycle stage.\n");
        out.push_str("# TYPE smbm_value_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "smbm_value_total{{shard=\"{i}\",stage=\"arrived\"}} {}\n",
                s.arrived_value
            ));
            out.push_str(&format!(
                "smbm_value_total{{shard=\"{i}\",stage=\"transmitted\"}} {}\n",
                s.transmitted_value
            ));
        }
        out.push_str("# HELP smbm_slots_total Slots completed (including drain slots).\n");
        out.push_str("# TYPE smbm_slots_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!("smbm_slots_total{{shard=\"{i}\"}} {}\n", s.slots));
        }
        out.push_str("# HELP smbm_shard_events_total Supervision events per shard.\n");
        out.push_str("# TYPE smbm_shard_events_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            for (event, v) in [
                ("panic", s.panics),
                ("restart", s.restarts),
                ("gave_up", s.failures),
            ] {
                out.push_str(&format!(
                    "smbm_shard_events_total{{shard=\"{i}\",event=\"{event}\"}} {v}\n"
                ));
            }
        }
        for (name, help, get) in [
            (
                "smbm_buffer_occupancy",
                "Packets resident in the shared buffer.",
                (|s: &StatSnapshot| s.occupancy) as fn(&StatSnapshot) -> u64,
            ),
            (
                "smbm_buffer_limit",
                "Configured shared buffer limit B.",
                |s: &StatSnapshot| s.buffer_limit,
            ),
            (
                "smbm_queue_depth",
                "Deepest per-port queue at the last slot end.",
                |s: &StatSnapshot| s.queue_depth,
            ),
            (
                "smbm_queue_depth_hwm",
                "High-watermark of the deepest per-port queue.",
                |s: &StatSnapshot| s.queue_hwm,
            ),
            (
                "smbm_ports",
                "Configured output port count n.",
                |s: &StatSnapshot| s.ports,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for (i, s) in self.shards.iter().enumerate() {
                out.push_str(&format!("{name}{{shard=\"{i}\"}} {}\n", get(s)));
            }
        }
        out.push_str(
            "# HELP smbm_latency_slots Buffer sojourn of transmitted packets, in slots.\n",
        );
        out.push_str("# TYPE smbm_latency_slots summary\n");
        for (i, s) in self.shards.iter().enumerate() {
            let h = &s.latency;
            for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
                out.push_str(&format!(
                    "smbm_latency_slots{{shard=\"{i}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
            out.push_str(&format!(
                "smbm_latency_slots_sum{{shard=\"{i}\"}} {}\n",
                h.sum()
            ));
            out.push_str(&format!(
                "smbm_latency_slots_count{{shard=\"{i}\"}} {}\n",
                h.count()
            ));
        }
        out
    }
}

/// What the sampler hands back when stopped: the retained time-series tail
/// plus bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Retained samples, oldest first (at most the configured ring
    /// capacity; earlier samples were evicted but still reached the sinks).
    pub samples: Vec<TelemetrySample>,
    /// Samples ever taken (>= `samples.len()`).
    pub ticks: u64,
    /// Sink I/O errors encountered (deduplicated to the first few).
    pub errors: Vec<String>,
}

impl TelemetryReport {
    /// The final (exact, post-join) sample.
    pub fn last(&self) -> Option<&TelemetrySample> {
        self.samples.last()
    }
}

/// The background sampling thread. Spawn it with the shards' cells before
/// the run, stop it after the shard threads are joined: the final sample is
/// then exact thanks to join's happens-before edge.
#[derive(Debug)]
pub struct TelemetrySampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: JoinHandle<TelemetryReport>,
}

impl TelemetrySampler {
    /// Opens the configured sinks (failing fast on bad paths) and spawns
    /// the sampler thread. An immediate first sample is taken, one per
    /// interval after that, and a final one at [`TelemetrySampler::stop`] —
    /// so every run yields at least two samples.
    ///
    /// # Errors
    ///
    /// Propagates sink-creation or thread-spawn failures.
    pub fn spawn(cells: Vec<Arc<StatCell>>, config: TelemetryConfig) -> io::Result<Self> {
        let stats = config
            .stats_out
            .as_ref()
            .map(JsonlWriter::create)
            .transpose()?;
        if let Some(p) = &config.prom_out {
            // Fail fast on an unwritable path instead of erroring per tick.
            File::create(p)?;
        }
        let prom_out = config.prom_out.clone();
        let interval = config.interval.max(Duration::from_millis(1));
        let capacity = config.ring_capacity.max(1);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("smbm-telemetry".into())
            .spawn(move || sampler_loop(cells, interval, capacity, stats, prom_out, thread_stop))?;
        Ok(TelemetrySampler { stop, handle })
    }

    /// Signals the thread, waits for its final sample, and returns the
    /// collected time-series.
    pub fn stop(self) -> TelemetryReport {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("telemetry stop flag poisoned") = true;
        cvar.notify_all();
        self.handle.join().unwrap_or_else(|_| TelemetryReport {
            errors: vec!["telemetry sampler thread panicked".to_string()],
            ..TelemetryReport::default()
        })
    }
}

struct SamplerState {
    ring: VecDeque<TelemetrySample>,
    capacity: usize,
    seq: u64,
    prev: Option<(Duration, StatSnapshot)>,
    stats: Option<JsonlWriter>,
    prom_out: Option<PathBuf>,
    errors: Vec<String>,
}

impl SamplerState {
    fn record_error(&mut self, what: &str, e: &io::Error) {
        if self.errors.len() < 8 {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn tick(&mut self, cells: &[Arc<StatCell>], elapsed: Duration) {
        let shards: Vec<StatSnapshot> = cells.iter().map(|c| c.snapshot()).collect();
        let mut total = StatSnapshot::default();
        for s in &shards {
            total.merge(s);
        }
        let rates = match &self.prev {
            Some((t0, prev)) => {
                let dt = elapsed.saturating_sub(*t0).as_secs_f64();
                if dt > 0.0 {
                    SampleRates {
                        arrived_per_sec: total.arrived.saturating_sub(prev.arrived) as f64 / dt,
                        transmitted_per_sec: total.transmitted.saturating_sub(prev.transmitted)
                            as f64
                            / dt,
                        dropped_per_sec: total.dropped_total().saturating_sub(prev.dropped_total())
                            as f64
                            / dt,
                    }
                } else {
                    SampleRates::default()
                }
            }
            None => SampleRates::default(),
        };
        let sample = TelemetrySample {
            seq: self.seq,
            elapsed,
            total: total.clone(),
            shards,
            rates,
        };
        self.seq += 1;
        if let Some(w) = &mut self.stats {
            if let Err(e) = w.write_line(&sample.to_json()) {
                self.record_error("stats sink", &e);
            }
        }
        if let Some(p) = &self.prom_out {
            if let Err(e) = write_atomic(p, &sample.to_prometheus()) {
                self.record_error("prometheus sink", &e);
            }
        }
        self.prev = Some((elapsed, total));
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(sample);
    }

    fn finish(mut self) -> TelemetryReport {
        if let Some(w) = &mut self.stats {
            if let Err(e) = w.flush() {
                self.record_error("stats sink flush", &e);
            }
        }
        TelemetryReport {
            samples: self.ring.into_iter().collect(),
            ticks: self.seq,
            errors: self.errors,
        }
    }
}

fn sampler_loop(
    cells: Vec<Arc<StatCell>>,
    interval: Duration,
    capacity: usize,
    stats: Option<JsonlWriter>,
    prom_out: Option<PathBuf>,
    stop: Arc<(Mutex<bool>, Condvar)>,
) -> TelemetryReport {
    let started = Instant::now();
    let mut state = SamplerState {
        ring: VecDeque::with_capacity(capacity.min(1 << 12)),
        capacity,
        seq: 0,
        prev: None,
        stats,
        prom_out,
        errors: Vec::new(),
    };
    state.tick(&cells, started.elapsed());
    loop {
        let (lock, cvar) = &*stop;
        let mut stopped = lock.lock().expect("telemetry stop flag poisoned");
        let mut timed_out = false;
        while !*stopped && !timed_out {
            let (guard, timeout) = cvar
                .wait_timeout(stopped, interval)
                .expect("telemetry stop flag poisoned");
            stopped = guard;
            timed_out = timeout.timed_out();
        }
        let done = *stopped;
        drop(stopped);
        if done {
            break;
        }
        state.tick(&cells, started.elapsed());
    }
    // Final sample: the runtime stops the sampler only after joining the
    // shard threads, so this one observes every counter's final value.
    state.tick(&cells, started.elapsed());
    state.finish()
}

/// Writes `text` to a sibling temp file, then renames it over `path`, so a
/// concurrent reader never observes a partially-written dump.
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp_name = OsString::from(path.as_os_str());
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "smbm-obs-telemetry-{}-{}",
            std::process::id(),
            name
        ));
        p
    }

    #[test]
    fn observer_folds_into_cell_per_slot() {
        let cell = Arc::new(StatCell::new());
        let mut obs = TelemetryObserver::new(Arc::clone(&cell));
        obs.shard_started(64, 8);
        obs.arrival(0, PortId::new(1), 2, 5);
        obs.admitted(0, PortId::new(1));
        obs.arrival(0, PortId::new(2), 1, 3);
        obs.dropped(0, PortId::new(2), DropReason::BufferFull);
        obs.transmitted(0, PortId::new(1), 4, 5);
        // Nothing published until the slot ends.
        assert_eq!(cell.snapshot().arrived, 0);
        obs.slot_end(0, 0);
        obs.queue_depth(0, 3);
        let s = cell.snapshot();
        assert_eq!(s.arrived, 2);
        assert_eq!(s.arrived_value, 8);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.dropped[DropReason::BufferFull.index()], 1);
        assert_eq!(s.transmitted, 1);
        assert_eq!(s.transmitted_value, 5);
        assert_eq!(s.slots, 1);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.queue_hwm, 3);
        assert_eq!(s.buffer_limit, 64);
        assert_eq!(s.ports, 8);
        assert_eq!(s.latency.count(), 1);
        assert_eq!(s.latency.max(), 4);
        // The high-watermark survives a lower gauge value.
        obs.queue_depth(1, 1);
        let s = cell.snapshot();
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.queue_hwm, 3);
    }

    #[test]
    fn drop_flushes_partial_slot() {
        let cell = Arc::new(StatCell::new());
        {
            let mut obs = TelemetryObserver::new(Arc::clone(&cell));
            obs.arrival(0, PortId::new(0), 1, 1);
            obs.admitted(0, PortId::new(0));
        }
        let s = cell.snapshot();
        assert_eq!(s.arrived, 1);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.slots, 0);
    }

    #[test]
    fn supervision_hooks_discard_the_dying_slot_and_count() {
        let cell = Arc::new(StatCell::new());
        {
            let mut obs = TelemetryObserver::new(Arc::clone(&cell));
            obs.arrival(9, PortId::new(0), 1, 1);
            obs.transmitted(9, PortId::new(0), 2, 1);
            obs.shard_panicked(9, 4);
            obs.shard_restarted(9, 1);
            obs.shard_failed(20, 7);
        }
        let s = cell.snapshot();
        assert_eq!(s.arrived, 0, "the dying slot's tallies are discarded");
        assert_eq!(s.transmitted, 0);
        assert_eq!(s.latency.count(), 0);
        assert_eq!(s.panics, 1);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.failures, 1);
        assert_eq!(s.dropped_total(), 0, "orphans are booked by the supervisor");
        cell.record_flush(3);
        assert_eq!(cell.snapshot().flushed, 3);
    }

    #[test]
    fn record_net_and_edge_drops_are_multi_writer() {
        let cell = Arc::new(StatCell::new());
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.record_net(NetCounts {
                            datagrams: 1,
                            frames: 8,
                            decode_errors: 2,
                            truncations: 1,
                        });
                        c.record_edge_drops(DropReason::NetDecode, 2, 0);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let s = cell.snapshot();
        assert_eq!(s.net.datagrams, 4_000);
        assert_eq!(s.net.frames, 32_000);
        assert_eq!(s.net.decode_errors, 8_000);
        assert_eq!(s.net.truncations, 4_000);
        assert_eq!(s.dropped[DropReason::NetDecode.index()], 8_000);
        assert_eq!(s.dropped_total(), 8_000);
        assert_eq!(s.arrived, 8_000, "edge drops count as arrivals");
        assert_eq!(cell.net_counts(), s.net);
        assert!(s.to_json().contains("\"net\":{\"datagrams\":4000"));
        assert!(s.to_json().contains("\"net_decode\":8000"));
    }

    #[test]
    fn snapshot_merge_aggregates() {
        let mut a = StatSnapshot {
            arrived: 10,
            occupancy: 3,
            queue_hwm: 5,
            buffer_limit: 64,
            ports: 8,
            ..StatSnapshot::default()
        };
        let b = StatSnapshot {
            arrived: 7,
            occupancy: 2,
            queue_hwm: 9,
            buffer_limit: 64,
            ports: 8,
            ..StatSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.arrived, 17);
        assert_eq!(a.occupancy, 5, "occupancy gauge sums across shards");
        assert_eq!(a.queue_hwm, 9, "watermark takes the max");
        assert_eq!(a.buffer_limit, 128, "aggregate capacity sums");
        assert_eq!(a.ports, 16);
    }

    #[test]
    fn seqlock_snapshot_is_internally_consistent_under_writes() {
        let cell = Arc::new(StatCell::new());
        let writer_cell = Arc::clone(&cell);
        let writer = std::thread::spawn(move || {
            let mut obs = TelemetryObserver::new(writer_cell);
            for slot in 0..4_000u64 {
                for k in 0..16u64 {
                    let port = PortId::new((k % 4) as usize);
                    obs.arrival(slot, port, 1, 1);
                    obs.admitted(slot, port);
                    obs.transmitted(slot, port, (slot * 7 + k) % 257, 1);
                }
                obs.slot_end(slot, 0);
            }
        });
        let mut last_count = 0u64;
        let mut snapshots = 0u64;
        while !writer.is_finished() {
            let s = cell.snapshot();
            let bucket_sum: u64 = s.latency.bucket_counts().iter().sum();
            assert_eq!(
                s.latency.count(),
                bucket_sum,
                "seqlock snapshot tore: count != bucket sum"
            );
            assert!(
                s.latency.count() >= last_count,
                "histogram count went backwards"
            );
            last_count = s.latency.count();
            snapshots += 1;
        }
        writer.join().unwrap();
        assert!(snapshots > 0);
        let s = cell.snapshot();
        assert_eq!(s.latency.count(), 4_000 * 16);
        assert_eq!(s.arrived, 4_000 * 16);
        assert_eq!(s.slots, 4_000);
    }

    #[test]
    fn sampler_collects_at_least_first_and_final_samples() {
        let cells: Vec<Arc<StatCell>> = (0..2).map(|_| Arc::new(StatCell::new())).collect();
        let sampler = TelemetrySampler::spawn(
            cells.clone(),
            TelemetryConfig {
                interval: Duration::from_secs(3600),
                ..TelemetryConfig::default()
            },
        )
        .unwrap();
        {
            let mut obs = TelemetryObserver::new(Arc::clone(&cells[1]));
            obs.arrival(0, PortId::new(0), 1, 2);
            obs.admitted(0, PortId::new(0));
            obs.slot_end(0, 1);
        }
        let report = sampler.stop();
        assert!(report.ticks >= 2, "initial + final samples guaranteed");
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let last = report.last().unwrap();
        assert_eq!(last.shards.len(), 2);
        assert_eq!(last.total.arrived, 1);
        assert_eq!(last.total.arrived_value, 2);
        assert_eq!(last.shards[1].occupancy, 1);
        assert_eq!(last.shards[0].arrived, 0);
    }

    #[test]
    fn sampler_ring_is_bounded() {
        let cells = vec![Arc::new(StatCell::new())];
        let sampler = TelemetrySampler::spawn(
            cells,
            TelemetryConfig {
                interval: Duration::from_millis(1),
                ring_capacity: 3,
                ..TelemetryConfig::default()
            },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        let report = sampler.stop();
        assert!(report.ticks > 3);
        assert_eq!(report.samples.len(), 3);
        // The ring keeps the newest tail, ending with the final sample.
        assert_eq!(report.samples.last().unwrap().seq, report.ticks - 1);
        let seqs: Vec<u64> = report.samples.iter().map(|s| s.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn sampler_writes_jsonl_and_prometheus_sinks() {
        let stats_path = temp_path("stats.jsonl");
        let prom_path = temp_path("metrics.prom");
        let cells = vec![Arc::new(StatCell::new())];
        let sampler = TelemetrySampler::spawn(
            cells.clone(),
            TelemetryConfig {
                interval: Duration::from_secs(3600),
                stats_out: Some(stats_path.clone()),
                prom_out: Some(prom_path.clone()),
                ..TelemetryConfig::default()
            },
        )
        .unwrap();
        {
            let mut obs = TelemetryObserver::new(Arc::clone(&cells[0]));
            obs.shard_started(32, 4);
            obs.arrival(0, PortId::new(0), 1, 1);
            obs.admitted(0, PortId::new(0));
            obs.transmitted(0, PortId::new(0), 2, 1);
            obs.slot_end(0, 0);
        }
        let report = sampler.stop();
        assert!(report.errors.is_empty(), "{:?}", report.errors);

        let stats = std::fs::read_to_string(&stats_path).unwrap();
        let lines: Vec<&str> = stats.lines().collect();
        assert!(lines.len() >= 2, "expected >=2 snapshots, got {lines:?}");
        for line in &lines {
            assert!(line.starts_with("{\"type\":\"telemetry\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(lines.last().unwrap().contains("\"arrived\":1"));

        let prom = std::fs::read_to_string(&prom_path).unwrap();
        for needle in [
            "# TYPE smbm_packets_total counter",
            "smbm_packets_total{shard=\"0\",stage=\"arrived\"} 1",
            "smbm_packets_total{shard=\"0\",stage=\"transmitted\"} 1",
            "# TYPE smbm_buffer_occupancy gauge",
            "smbm_buffer_limit{shard=\"0\"} 32",
            "smbm_ports{shard=\"0\"} 4",
            "# TYPE smbm_latency_slots summary",
            "smbm_latency_slots_count{shard=\"0\"} 1",
        ] {
            assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
        }
        std::fs::remove_file(&stats_path).unwrap();
        std::fs::remove_file(&prom_path).unwrap();
    }

    #[test]
    fn spawn_fails_fast_on_unwritable_sink() {
        let mut bad = std::env::temp_dir();
        bad.push(format!("smbm-obs-no-such-dir-{}", std::process::id()));
        bad.push("stats.jsonl");
        let err = TelemetrySampler::spawn(
            vec![Arc::new(StatCell::new())],
            TelemetryConfig {
                stats_out: Some(bad),
                ..TelemetryConfig::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn sample_json_shape() {
        let sample = TelemetrySample {
            seq: 4,
            elapsed: Duration::from_millis(1500),
            total: StatSnapshot {
                arrived: 3,
                ..StatSnapshot::default()
            },
            shards: vec![StatSnapshot::default(), StatSnapshot::default()],
            rates: SampleRates {
                arrived_per_sec: 10.0,
                transmitted_per_sec: 8.0,
                dropped_per_sec: 0.5,
            },
        };
        let json = sample.to_json();
        assert!(json.starts_with("{\"type\":\"telemetry\",\"seq\":4,\"elapsed_ms\":1500.000"));
        assert!(json.contains("\"arrived_per_sec\":10.0"));
        assert!(json.contains("\"total\":{\"arrived\":3"));
        assert!(json.contains("\"shards\":[{"));
    }
}
