//! Log-bucketed histograms and the metric-recording observer.

use crate::{drops_json, DropReason, Observer};
use smbm_switch::PortId;

/// Number of buckets: one for zero plus one per power of two of `u64`.
pub(crate) const BUCKETS: usize = 65;

/// A histogram over `u64` samples with logarithmic (power-of-two) buckets:
/// bucket 0 holds zeros, bucket `i >= 1` holds samples in
/// `[2^(i-1), 2^i)`. Percentiles are answered from the bucket boundaries
/// (clamped to the observed maximum), which is exact for small samples and
/// within a factor of two for large ones — plenty for latency/occupancy
/// tail reporting at O(1) memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Reassembles a histogram from raw parts (the telemetry plane's
    /// seqlock-snapshotted atomic cells). `min` uses the `u64::MAX` empty
    /// sentinel, exactly like a live histogram.
    pub(crate) fn from_raw(
        counts: [u64; BUCKETS],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Self {
        LogHistogram {
            counts,
            count,
            sum,
            min,
            max,
        }
    }

    /// The bucket index a sample falls into.
    pub(crate) fn bucket(sample: u64) -> usize {
        if sample == 0 {
            0
        } else {
            64 - sample.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.counts[Self::bucket(sample)] += 1;
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw per-bucket counts: index 0 holds zeros, index `i >= 1` the
    /// samples in `[2^(i-1), 2^i)`. Exposed for exposition sinks and for
    /// consistency checks (`count()` always equals the bucket sum).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Smallest sample, 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper bound of the
    /// bucket where the cumulative count crosses `q * count`, clamped to
    /// the observed extrema. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Median (`percentile(0.5)`).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Adds every bucket and summary statistic of `other` into `self`, as if
    /// both histograms had recorded into one. Used to aggregate per-shard
    /// runtime histograms into a datapath-wide view.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Renders the summary statistics as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{:.4},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            self.count,
            self.mean(),
            self.min(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }
}

/// An [`Observer`] aggregating engine activity into log-bucketed histograms:
///
/// * **latency** — buffer sojourn of every transmitted packet (slots);
/// * **occupancy** — buffer occupancy at every slot end;
/// * **queue length** — the longest per-port queue at every slot end
///   (tracked from admission/eviction/transmission events);
/// * **burst size** — arrivals per trace slot (drain slots excluded);
///
/// plus drop counts per [`DropReason`] and totals for every event kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramRecorder {
    latency: LogHistogram,
    occupancy: LogHistogram,
    queue_len: LogHistogram,
    burst: LogHistogram,
    queue_lens: Vec<u64>,
    arrivals_this_slot: u64,
    slot_had_arrival_phase: bool,
    arrivals: u64,
    admitted: u64,
    dropped: [u64; DropReason::COUNT],
    pushed_out: u64,
    transmitted: u64,
    transmitted_value: u64,
    flushed: u64,
}

impl HistogramRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn queue_slot(&mut self, port: PortId) -> &mut u64 {
        let i = port.index();
        if i >= self.queue_lens.len() {
            self.queue_lens.resize(i + 1, 0);
        }
        &mut self.queue_lens[i]
    }

    /// Packets offered.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Packets admitted.
    pub fn admitted_packets(&self) -> u64 {
        self.admitted
    }

    /// Packets dropped for the given reason.
    pub fn drop_count(&self, reason: DropReason) -> u64 {
        self.dropped[reason.index()]
    }

    /// Packets evicted after admission (excluding flushes).
    pub fn pushed_out_packets(&self) -> u64 {
        self.pushed_out
    }

    /// Packets transmitted.
    pub fn transmitted_packets(&self) -> u64 {
        self.transmitted
    }

    /// Total value transmitted.
    pub fn transmitted_value(&self) -> u64 {
        self.transmitted_value
    }

    /// Packets discarded by periodic flushes.
    pub fn flushed_packets(&self) -> u64 {
        self.flushed
    }

    /// Latency histogram (transmitted packets' buffer sojourn, in slots).
    pub fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// Occupancy histogram (buffer occupancy at slot end).
    pub fn occupancy(&self) -> &LogHistogram {
        &self.occupancy
    }

    /// Queue-length histogram (longest queue at slot end).
    pub fn queue_len(&self) -> &LogHistogram {
        &self.queue_len
    }

    /// Burst-size histogram (arrivals per trace slot).
    pub fn burst(&self) -> &LogHistogram {
        &self.burst
    }

    /// Renders every histogram and counter as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"arrived\":{},\"admitted\":{},\"pushed_out\":{},\"transmitted\":{},\
             \"transmitted_value\":{},\"flushed\":{},\
             \"drops\":{},\
             \"latency\":{},\"occupancy\":{},\"queue_len\":{},\"burst\":{}}}",
            self.arrivals,
            self.admitted,
            self.pushed_out,
            self.transmitted,
            self.transmitted_value,
            self.flushed,
            drops_json(&self.dropped),
            self.latency.to_json(),
            self.occupancy.to_json(),
            self.queue_len.to_json(),
            self.burst.to_json()
        )
    }
}

impl Observer for HistogramRecorder {
    fn slot_start(&mut self, _slot: u64) {
        self.arrivals_this_slot = 0;
        self.slot_had_arrival_phase = false;
    }

    fn arrival(&mut self, _slot: u64, _port: PortId, _work: u32, _value: u64) {
        self.arrivals += 1;
        self.arrivals_this_slot += 1;
        self.slot_had_arrival_phase = true;
    }

    fn admitted(&mut self, _slot: u64, port: PortId) {
        self.admitted += 1;
        *self.queue_slot(port) += 1;
    }

    fn dropped(&mut self, _slot: u64, _port: PortId, reason: DropReason) {
        self.dropped[reason.index()] += 1;
    }

    fn pushed_out(&mut self, _slot: u64, victim: PortId) {
        self.pushed_out += 1;
        let q = self.queue_slot(victim);
        *q = q.saturating_sub(1);
    }

    fn transmitted(&mut self, _slot: u64, port: PortId, latency: u64, value: u64) {
        self.transmitted += 1;
        self.transmitted_value += value;
        self.latency.record(latency);
        let q = self.queue_slot(port);
        *q = q.saturating_sub(1);
    }

    fn flush(&mut self, _slot: u64, discarded: u64) {
        self.flushed += discarded;
        self.queue_lens.fill(0);
    }

    fn slot_end(&mut self, _slot: u64, occupancy: usize) {
        self.occupancy.record(occupancy as u64);
        self.queue_len
            .record(self.queue_lens.iter().copied().max().unwrap_or(0));
        // Burst sizes only describe trace slots; a drain slot has no
        // arrival phase at all and would skew the histogram toward zero.
        if self.slot_had_arrival_phase {
            self.burst.record(self.arrivals_this_slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_split_at_powers_of_two() {
        assert_eq!(LogHistogram::bucket(0), 0);
        assert_eq!(LogHistogram::bucket(1), 1);
        assert_eq!(LogHistogram::bucket(2), 2);
        assert_eq!(LogHistogram::bucket(3), 2);
        assert_eq!(LogHistogram::bucket(4), 3);
        assert_eq!(LogHistogram::bucket(1023), 10);
        assert_eq!(LogHistogram::bucket(1024), 11);
        assert_eq!(LogHistogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = LogHistogram::new();
        h.record(37);
        assert_eq!(h.p50(), 37);
        assert_eq!(h.p99(), 37);
        assert_eq!(h.min(), 37);
        assert_eq!(h.max(), 37);
        assert_eq!(h.mean(), 37.0);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = LogHistogram::new();
        // 90 zeros, 9 samples of 5, one of 1000.
        for _ in 0..90 {
            h.record(0);
        }
        for _ in 0..9 {
            h.record(5);
        }
        h.record(1000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p90(), 0);
        // 99th falls in the [4, 8) bucket: upper bound 7.
        assert_eq!(h.percentile(0.99), 7);
        // The tail sample caps at the observed max.
        assert_eq!(h.percentile(1.0), 1000);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn percentile_upper_bounds_clamp_to_observed_range() {
        let mut h = LogHistogram::new();
        h.record(9); // bucket [8, 16), upper bound 15 > max 9
        h.record(9);
        assert_eq!(h.p50(), 9);
        let mut lo = LogHistogram::new();
        lo.record(40);
        lo.record(41); // both in [32, 64); bucket bound 63 clamps to max 41
        assert_eq!(lo.p50(), 41);
    }

    #[test]
    fn merge_combines_histograms() {
        let mut a = LogHistogram::new();
        a.record(3);
        a.record(9);
        let mut b = LogHistogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 3);
        assert_eq!(a.max(), 100);
        assert!((a.mean() - (3.0 + 9.0 + 100.0) / 3.0).abs() < 1e-12);
        // Merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.min(), before.min());
    }

    #[test]
    fn merge_into_empty_receiver_adopts_other_extrema() {
        // The empty receiver's min is the u64::MAX sentinel; a merge must
        // replace it with the donor's real min, not keep the sentinel or
        // report 0.
        let mut empty = LogHistogram::new();
        let mut donor = LogHistogram::new();
        donor.record(12);
        donor.record(700);
        empty.merge(&donor);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.min(), 12);
        assert_eq!(empty.max(), 700);
        assert_eq!(empty.percentile(1.0), 700);
        assert!((empty.mean() - 356.0).abs() < 1e-12);
    }

    #[test]
    fn merge_of_empty_donor_keeps_receiver_extrema() {
        let mut a = LogHistogram::new();
        a.record(5);
        a.merge(&LogHistogram::new());
        // An empty donor carries the u64::MAX min sentinel and max 0;
        // neither may leak into the receiver.
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 5);
        assert_eq!(a.p50(), 5);
    }

    #[test]
    fn merge_propagates_lower_min_and_higher_max() {
        let mut a = LogHistogram::new();
        a.record(50);
        a.record(60);
        let mut below = LogHistogram::new();
        below.record(2);
        a.merge(&below);
        assert_eq!(a.min(), 2, "merged-in min below the receiver's");
        assert_eq!(a.max(), 60);
        let mut above = LogHistogram::new();
        above.record(9_000);
        a.merge(&above);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 9_000, "merged-in max above the receiver's");
        // Percentile clamping relies on the merged extrema: every quantile
        // must stay inside [min, max].
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let p = a.percentile(q);
            assert!((2..=9_000).contains(&p), "percentile({q}) = {p} escaped");
        }
    }

    #[test]
    fn merge_with_overlapping_range_keeps_tighter_receiver_extrema() {
        let mut a = LogHistogram::new();
        a.record(1);
        a.record(1_000_000);
        let mut inner = LogHistogram::new();
        inner.record(500);
        a.merge(&inner);
        // The donor's range nests inside the receiver's: extrema unchanged.
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn recorder_tracks_queue_lengths_and_bursts() {
        let p0 = PortId::new(0);
        let p1 = PortId::new(1);
        let mut r = HistogramRecorder::new();
        r.slot_start(0);
        for _ in 0..3 {
            r.arrival(0, p0, 1, 1);
            r.admitted(0, p0);
        }
        r.arrival(0, p1, 1, 1);
        r.dropped(0, p1, DropReason::Policy);
        r.transmitted(0, p0, 0, 1);
        r.slot_end(0, 2);
        // Longest queue after 3 admissions and 1 transmission on port 0.
        assert_eq!(r.queue_len().max(), 2);
        assert_eq!(r.burst().max(), 4);
        assert_eq!(r.drop_count(DropReason::Policy), 1);
        assert_eq!(r.drop_count(DropReason::BufferFull), 0);
        r.dropped(0, p1, DropReason::Backpressure);
        assert_eq!(r.drop_count(DropReason::Backpressure), 1);

        // A drain slot (no arrivals) leaves the burst histogram untouched.
        r.slot_start(1);
        r.transmitted(1, p0, 1, 1);
        r.slot_end(1, 1);
        assert_eq!(r.burst().count(), 1);
        assert_eq!(r.occupancy().count(), 2);

        // Flush zeroes the tracked queues.
        r.flush(2, 1);
        assert_eq!(r.flushed_packets(), 1);
        r.slot_start(3);
        r.slot_end(3, 0);
        assert_eq!(r.queue_len().min(), 0);
    }

    #[test]
    fn recorder_json_contains_all_sections() {
        let mut r = HistogramRecorder::new();
        r.slot_start(0);
        r.arrival(0, PortId::new(0), 1, 3);
        r.admitted(0, PortId::new(0));
        r.slot_end(0, 1);
        let json = r.to_json();
        for key in [
            "\"arrived\":1",
            "\"admitted\":1",
            "\"drops\"",
            "\"buffer_full\":0",
            "\"policy\":0",
            "\"backpressure\":0",
            "\"shard_failure\":0",
            "\"net_decode\":0",
            "\"latency\"",
            "\"occupancy\"",
            "\"queue_len\"",
            "\"burst\"",
            "\"p99\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// Exact quantile of a sample set, matching the histogram's convention:
    /// the smallest element whose rank reaches `ceil(q * n)`.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        assert!(!sorted.is_empty());
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[target.min(sorted.len()) - 1]
    }

    /// Asserts the histogram's p50/p95/p99 are within the documented factor
    /// of two of the exact sorted-sample quantiles and inside the observed
    /// range.
    fn assert_quantiles_accurate(samples: &[u64], label: &str) {
        let mut h = LogHistogram::new();
        for &s in samples {
            h.record(s);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for (q, got) in [(0.50, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
            let exact = exact_quantile(&sorted, q);
            assert!(
                got >= exact / 2 && (exact == 0 || got <= exact.saturating_mul(2)),
                "{label}: p{:.0} = {got} not within 2x of exact {exact}",
                q * 100.0
            );
            assert!(
                (h.min()..=h.max()).contains(&got),
                "{label}: p{:.0} = {got} escaped [{}, {}]",
                q * 100.0,
                h.min(),
                h.max()
            );
        }
    }

    #[test]
    fn quantiles_accurate_on_uniform_distribution() {
        // Deterministic LCG over [1, 1000].
        let mut x = 12345u64;
        let samples: Vec<u64> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 1000 + 1
            })
            .collect();
        assert_quantiles_accurate(&samples, "uniform");
    }

    #[test]
    fn quantiles_accurate_on_bimodal_distribution() {
        // Half fast-path at 3 slots, half slow-path at 900 slots: the exact
        // p50 sits on the mode boundary, p95/p99 deep in the slow mode.
        let mut samples = vec![3u64; 5_000];
        samples.extend(std::iter::repeat_n(900u64, 5_000));
        assert_quantiles_accurate(&samples, "bimodal");
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        // The upper mode is the max, so tail quantiles are exact.
        assert_eq!(h.p95(), 900);
        assert_eq!(h.p99(), 900);
    }

    #[test]
    fn quantiles_accurate_on_single_bucket_distribution() {
        // All samples inside one power-of-two bucket [32, 64): every
        // quantile answers from the same bucket, clamped to the extrema.
        let samples: Vec<u64> = (0..1_000).map(|i| 40 + i % 8).collect();
        assert_quantiles_accurate(&samples, "single-bucket");
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.50, 0.95, 0.99] {
            let p = h.percentile(q);
            assert!((40..=47).contains(&p), "percentile({q}) = {p}");
        }
    }
}
