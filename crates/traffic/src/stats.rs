//! Descriptive statistics of arrival traces: offered load, burstiness, and
//! per-port composition — the numbers EXPERIMENTS.md reports alongside each
//! run and `smbm trace-stats` prints.

use std::fmt;

use smbm_switch::{ValuePacket, WorkPacket};

use crate::Trace;

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of slots.
    pub slots: usize,
    /// Total packets offered.
    pub arrivals: usize,
    /// Largest single-slot burst.
    pub peak_burst: usize,
    /// Mean packets per slot.
    pub mean_rate: f64,
    /// Index of dispersion of per-slot counts (variance / mean); 1 for
    /// Poisson, larger for bursty on-off traffic.
    pub dispersion: f64,
    /// Packets per output port, indexed by port.
    pub per_port: Vec<usize>,
    /// Total offered work in cycles (work traces) or value (value traces).
    pub total_weight: u64,
}

impl TraceStats {
    fn from_counts(counts: &[usize], per_port: Vec<usize>, total_weight: u64) -> Self {
        let slots = counts.len();
        let arrivals: usize = counts.iter().sum();
        let peak_burst = counts.iter().copied().max().unwrap_or(0);
        let mean = if slots == 0 {
            0.0
        } else {
            arrivals as f64 / slots as f64
        };
        let variance = if slots == 0 {
            0.0
        } else {
            counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / slots as f64
        };
        let dispersion = if mean > 0.0 { variance / mean } else { 0.0 };
        TraceStats {
            slots,
            arrivals,
            peak_burst,
            mean_rate: mean,
            dispersion,
            per_port,
            total_weight,
        }
    }

    /// The fraction of traffic destined to `port` (zero when empty).
    pub fn port_share(&self, port: usize) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.per_port.get(port).copied().unwrap_or(0) as f64 / self.arrivals as f64
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "slots={} arrivals={} peak_burst={} mean_rate={:.3} dispersion={:.3} total_weight={}",
            self.slots,
            self.arrivals,
            self.peak_burst,
            self.mean_rate,
            self.dispersion,
            self.total_weight
        )?;
        for (i, &n) in self.per_port.iter().enumerate() {
            writeln!(
                f,
                "  port#{}: {} packets ({:.1}%)",
                i + 1,
                n,
                100.0 * self.port_share(i)
            )?;
        }
        Ok(())
    }
}

/// Trace types whose statistics can be summarized.
pub trait Summarize {
    /// Computes [`TraceStats`] in one pass over the trace.
    fn stats(&self) -> TraceStats;
}

impl Summarize for Trace<WorkPacket> {
    fn stats(&self) -> TraceStats {
        let counts: Vec<usize> = self.iter().map(<[WorkPacket]>::len).collect();
        let mut per_port = Vec::new();
        let mut weight = 0u64;
        for pkt in self.packets() {
            let i = pkt.port().index();
            if per_port.len() <= i {
                per_port.resize(i + 1, 0);
            }
            per_port[i] += 1;
            weight += pkt.work().as_u64();
        }
        TraceStats::from_counts(&counts, per_port, weight)
    }
}

impl Summarize for Trace<ValuePacket> {
    fn stats(&self) -> TraceStats {
        let counts: Vec<usize> = self.iter().map(<[ValuePacket]>::len).collect();
        let mut per_port = Vec::new();
        let mut weight = 0u64;
        for pkt in self.packets() {
            let i = pkt.port().index();
            if per_port.len() <= i {
                per_port.resize(i + 1, 0);
            }
            per_port[i] += 1;
            weight += pkt.value().get();
        }
        TraceStats::from_counts(&counts, per_port, weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_switch::{PortId, Value, Work};

    fn wp(port: usize, w: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(port), Work::new(w))
    }

    #[test]
    fn empty_trace_stats() {
        let t: Trace<WorkPacket> = Trace::new();
        let s = t.stats();
        assert_eq!(s.slots, 0);
        assert_eq!(s.arrivals, 0);
        assert_eq!(s.mean_rate, 0.0);
        assert_eq!(s.dispersion, 0.0);
        assert!(s.per_port.is_empty());
    }

    #[test]
    fn basic_work_stats() {
        let mut t = Trace::new();
        t.push_slot(vec![wp(0, 1), wp(2, 3)]);
        t.push_slot(vec![]);
        t.push_slot(vec![wp(0, 1), wp(0, 1), wp(1, 2), wp(2, 3)]);
        let s = t.stats();
        assert_eq!(s.slots, 3);
        assert_eq!(s.arrivals, 6);
        assert_eq!(s.peak_burst, 4);
        assert_eq!(s.mean_rate, 2.0);
        assert_eq!(s.per_port, vec![3, 1, 2]);
        assert_eq!(s.total_weight, 1 + 3 + 1 + 1 + 2 + 3);
        assert!((s.port_share(0) - 0.5).abs() < 1e-12);
        assert_eq!(s.port_share(9), 0.0);
    }

    #[test]
    fn dispersion_detects_burstiness() {
        // Constant rate: variance 0 -> dispersion 0.
        let mut flat = Trace::new();
        for _ in 0..10 {
            flat.push_slot(vec![wp(0, 1), wp(0, 1)]);
        }
        assert_eq!(flat.stats().dispersion, 0.0);
        // All packets in one slot: strongly over-dispersed.
        let mut bursty = Trace::new();
        bursty.push_slot(vec![wp(0, 1); 20]);
        bursty.push_silence(9);
        assert!(bursty.stats().dispersion > 5.0);
    }

    #[test]
    fn value_stats_weight_is_value() {
        let mut t = Trace::new();
        t.push_slot(vec![
            ValuePacket::new(PortId::new(0), Value::new(7)),
            ValuePacket::new(PortId::new(1), Value::new(2)),
        ]);
        let s = t.stats();
        assert_eq!(s.total_weight, 9);
        assert_eq!(s.per_port, vec![1, 1]);
    }

    #[test]
    fn display_renders_per_port_lines() {
        let mut t = Trace::new();
        t.push_slot(vec![wp(1, 2)]);
        let text = t.stats().to_string();
        assert!(text.contains("arrivals=1"));
        assert!(text.contains("port#2: 1 packets"));
    }

    #[test]
    fn mmpp_traces_are_overdispersed() {
        use crate::{MmppScenario, PortMix};
        let cfg = smbm_switch::WorkSwitchConfig::contiguous(4, 16).unwrap();
        let t = MmppScenario {
            sources: 10,
            slots: 5_000,
            seed: 9,
            ..Default::default()
        }
        .work_trace(&cfg, &PortMix::Uniform)
        .unwrap();
        let s = t.stats();
        assert!(
            s.dispersion > 1.2,
            "MMPP should be burstier than Poisson: {}",
            s.dispersion
        );
    }
}
