//! The nested per-slot trace layout, kept as a reference model for
//! [`smbm_traffic::Trace`]'s flat one.
//!
//! Every operation is the plain `Vec<Vec<P>>` version of the trace's method
//! of the same name, so a differential test can check the flat layout's
//! offset arithmetic against code that has none.

use rand::{RngExt, SeedableRng};
use smbm_traffic::TracePacket;

/// One `Vec` of packets per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedTrace<P> {
    pub slots: Vec<Vec<P>>,
}

impl<P: Clone> NestedTrace<P> {
    pub fn push_slot(&mut self, burst: Vec<P>) {
        self.slots.push(burst);
    }

    pub fn push_silence(&mut self, n: usize) {
        for _ in 0..n {
            self.slots.push(Vec::new());
        }
    }

    pub fn push_arrival(&mut self, pkt: P) {
        if self.slots.is_empty() {
            self.slots.push(Vec::new());
        }
        self.slots.last_mut().expect("non-empty").push(pkt);
    }

    pub fn arrivals(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    pub fn extend_with(&mut self, other: NestedTrace<P>) {
        self.slots.extend(other.slots);
    }

    pub fn repeated(&self, times: usize) -> Self {
        let mut slots = Vec::new();
        for _ in 0..times {
            slots.extend(self.slots.iter().cloned());
        }
        NestedTrace { slots }
    }

    /// One uniform draw per packet, slot by slot, kept below `keep(t)`.
    pub fn thin(&self, keep: impl Fn(usize) -> f64, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let slots = self
            .slots
            .iter()
            .enumerate()
            .map(|(t, burst)| {
                let p = keep(t).clamp(0.0, 1.0);
                burst
                    .iter()
                    .filter(|_| rng.random::<f64>() < p)
                    .cloned()
                    .collect()
            })
            .collect();
        NestedTrace { slots }
    }

    /// Coalesces bursts and splits them into batches of at most
    /// `max_packets`, walking slot by slot.
    pub fn batches(&self, max_packets: usize) -> Vec<Vec<P>> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        for burst in &self.slots {
            for pkt in burst {
                batch.push(pkt.clone());
                if batch.len() == max_packets {
                    out.push(std::mem::take(&mut batch));
                }
            }
        }
        if !batch.is_empty() {
            out.push(batch);
        }
        out
    }
}

impl<P: TracePacket> NestedTrace<P> {
    /// One line per slot: the burst's `port:label` fields joined by spaces.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for burst in &self.slots {
            let fields: Vec<String> = burst.iter().map(TracePacket::to_field).collect();
            out.push_str(&fields.join(" "));
            out.push('\n');
        }
        out
    }
}
