//! Exact clairvoyant OPT for tiny instances, by memoized search.
//!
//! The true offline optimum never needs push-out: any schedule that admits a
//! packet and later evicts it is dominated by one that never admits it. The
//! optimum is therefore a choice, for every arrival, of *admit* or *drop*,
//! subject to the shared-buffer capacity — a search over `2^(#arrivals)`
//! decision vectors, made tractable on small instances by memoizing on the
//! (arrival position, buffer state) pair.
//!
//! Both solvers evaluate the **drain objective**: the trace is followed by
//! arrival-free slots until the buffer empties, so every admitted packet is
//! eventually transmitted. This matches how competitive bounds are stated
//! (performance as `t -> ∞` for a finite adversarial prefix) and lets the
//! test-suite check, e.g., Theorem 7's `OPT <= 2 * LWD` exactly.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use smbm_switch::{PortId, ValuePacket, WorkSwitchConfig};

/// Largest number of arrivals the exact solvers accept; beyond this the
/// search space is too large to explore exhaustively.
pub const MAX_EXACT_ARRIVALS: usize = 28;

/// Error returned when an instance is too large for exhaustive search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooLargeError {
    arrivals: usize,
}

impl fmt::Display for TooLargeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exact OPT limited to {MAX_EXACT_ARRIVALS} arrivals, instance has {}",
            self.arrivals
        )
    }
}

impl Error for TooLargeError {}

// ------------------------------------------------------------------------
// Heterogeneous-processing model
// ------------------------------------------------------------------------

/// Per-queue state for the work-model search: `(length, head residual)`.
type WorkState = Vec<(u16, u16)>;

/// Computes the exact optimal number of transmitted packets for the
/// heterogeneous-processing model on a per-slot arrival trace (ports only —
/// each packet's work is dictated by its destination), including a full
/// drain after the last slot.
///
/// # Errors
///
/// Returns [`TooLargeError`] if the trace has more than
/// [`MAX_EXACT_ARRIVALS`] arrivals.
///
/// ```
/// use smbm_core::exact_work_opt;
/// use smbm_switch::{PortId, WorkSwitchConfig};
///
/// let cfg = WorkSwitchConfig::contiguous(2, 2)?;
/// // One slot: three packets toward port 0 (w = 1). B = 2 caps OPT at 2
/// // admissions; both drain out.
/// let trace = vec![vec![PortId::new(0); 3]];
/// assert_eq!(exact_work_opt(&cfg, 1, &trace)?, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn exact_work_opt(
    config: &WorkSwitchConfig,
    speedup: u32,
    trace: &[Vec<PortId>],
) -> Result<u64, TooLargeError> {
    let arrivals: usize = trace.iter().map(Vec::len).sum();
    if arrivals > MAX_EXACT_ARRIVALS {
        return Err(TooLargeError { arrivals });
    }
    // Flatten to a list of (slot, port); slot boundaries trigger
    // transmission phases.
    let mut solver = WorkSolver {
        config,
        speedup,
        trace,
        memo: HashMap::new(),
    };
    let state: WorkState = vec![(0, 0); config.ports()];
    Ok(solver.best(0, 0, state))
}

struct WorkSolver<'a> {
    config: &'a WorkSwitchConfig,
    speedup: u32,
    trace: &'a [Vec<PortId>],
    memo: HashMap<(usize, usize, WorkState), u64>,
}

impl WorkSolver<'_> {
    /// Max packets eventually transmitted from `state` onward, starting at
    /// arrival `idx` of `slot`.
    fn best(&mut self, slot: usize, idx: usize, state: WorkState) -> u64 {
        if slot == self.trace.len() {
            // Drain: every resident packet is eventually transmitted.
            return state.iter().map(|&(len, _)| len as u64).sum();
        }
        if let Some(&v) = self.memo.get(&(slot, idx, state.clone())) {
            return v;
        }
        let result = if idx == self.trace[slot].len() {
            // Transmission phase, then next slot.
            let mut next = state.clone();
            let mut completed = 0u64;
            for (i, q) in next.iter_mut().enumerate() {
                let w = self.config.works()[i].cycles() as u16;
                let mut cycles = self.speedup as u16;
                while cycles > 0 && q.0 > 0 {
                    let step = cycles.min(q.1);
                    q.1 -= step;
                    cycles -= step;
                    if q.1 == 0 {
                        q.0 -= 1;
                        completed += 1;
                        q.1 = if q.0 > 0 { w } else { 0 };
                    }
                }
            }
            completed + self.best(slot + 1, 0, next)
        } else {
            let port = self.trace[slot][idx];
            // Option 1: drop.
            let mut best = self.best(slot, idx + 1, state.clone());
            // Option 2: admit, if the buffer has room.
            let occupancy: u32 = state.iter().map(|&(len, _)| len as u32).sum();
            if (occupancy as usize) < self.config.buffer() {
                let mut admitted = state.clone();
                let q = &mut admitted[port.index()];
                if q.0 == 0 {
                    q.1 = self.config.work(port).cycles() as u16;
                }
                q.0 += 1;
                best = best.max(self.best(slot, idx + 1, admitted));
            }
            best
        };
        self.memo.insert((slot, idx, state), result);
        result
    }
}

// ------------------------------------------------------------------------
// Heterogeneous-value model
// ------------------------------------------------------------------------

/// Per-queue state for the value-model search: queue lengths only. Under the
/// drain objective every admitted packet is transmitted, so its value is
/// collected at admission and the buffer dynamics depend only on lengths.
type ValueState = Vec<u16>;

/// Computes the exact optimal total transmitted *value* for the
/// heterogeneous-value model on a per-slot arrival trace, including a full
/// drain after the last slot.
///
/// # Errors
///
/// Returns [`TooLargeError`] if the trace has more than
/// [`MAX_EXACT_ARRIVALS`] arrivals.
///
/// ```
/// use smbm_core::exact_value_opt;
/// use smbm_switch::{PortId, Value, ValuePacket, ValueSwitchConfig};
///
/// let cfg = ValueSwitchConfig::new(1, 1)?;
/// let p = |v| ValuePacket::new(PortId::new(0), Value::new(v));
/// // B = 1: of two same-slot arrivals only one fits; OPT takes the 9.
/// let trace = vec![vec![p(4), p(9)]];
/// assert_eq!(exact_value_opt(&cfg, 1, &trace)?, 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn exact_value_opt(
    config: &smbm_switch::ValueSwitchConfig,
    speedup: u32,
    trace: &[Vec<ValuePacket>],
) -> Result<u64, TooLargeError> {
    let arrivals: usize = trace.iter().map(Vec::len).sum();
    if arrivals > MAX_EXACT_ARRIVALS {
        return Err(TooLargeError { arrivals });
    }
    let mut solver = ValueSolver {
        ports: config.ports(),
        buffer: config.buffer(),
        speedup,
        trace,
        memo: HashMap::new(),
    };
    let state: ValueState = vec![0; config.ports()];
    Ok(solver.best(0, 0, state))
}

struct ValueSolver<'a> {
    ports: usize,
    buffer: usize,
    speedup: u32,
    trace: &'a [Vec<ValuePacket>],
    memo: HashMap<(usize, usize, ValueState), u64>,
}

impl ValueSolver<'_> {
    fn best(&mut self, slot: usize, idx: usize, state: ValueState) -> u64 {
        if slot == self.trace.len() {
            // Drain: already-collected values all leave; nothing more to add.
            return 0;
        }
        if let Some(&v) = self.memo.get(&(slot, idx, state.clone())) {
            return v;
        }
        let result = if idx == self.trace[slot].len() {
            let mut next = state.clone();
            for q in next.iter_mut() {
                *q = q.saturating_sub(self.speedup as u16);
            }
            self.best(slot + 1, 0, next)
        } else {
            let pkt = self.trace[slot][idx];
            debug_assert!(pkt.port().index() < self.ports);
            let mut best = self.best(slot, idx + 1, state.clone());
            let occupancy: u32 = state.iter().map(|&l| l as u32).sum();
            if (occupancy as usize) < self.buffer {
                let mut admitted = state.clone();
                admitted[pkt.port().index()] += 1;
                best = best.max(pkt.value().get() + self.best(slot, idx + 1, admitted));
            }
            best
        };
        self.memo.insert((slot, idx, state), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_switch::{Value, ValueSwitchConfig};

    fn p(port: usize) -> PortId {
        PortId::new(port)
    }

    fn vpkt(port: usize, v: u64) -> ValuePacket {
        ValuePacket::new(p(port), Value::new(v))
    }

    #[test]
    fn work_opt_empty_trace_is_zero() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        assert_eq!(exact_work_opt(&cfg, 1, &[]).unwrap(), 0);
    }

    #[test]
    fn work_opt_admits_everything_that_fits() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let trace = vec![vec![p(0), p(1), p(1)]];
        assert_eq!(exact_work_opt(&cfg, 1, &trace).unwrap(), 3);
    }

    #[test]
    fn work_opt_respects_buffer_capacity() {
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        let trace = vec![vec![p(0); 5]];
        assert_eq!(exact_work_opt(&cfg, 1, &trace).unwrap(), 2);
    }

    #[test]
    fn work_opt_exploits_freed_space_across_slots() {
        // B = 2, single port with w = 1: one slot frees one space per slot.
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        let trace = vec![vec![p(0); 3], vec![p(0); 3], vec![p(0); 3]];
        // Slot 1: admit 2 (transmit 1). Slots 2 and 3: refill one each.
        assert_eq!(exact_work_opt(&cfg, 1, &trace).unwrap(), 4);
    }

    #[test]
    fn work_opt_prefers_cheap_packets_when_space_constrained() {
        // Two ports: w = 1 and w = 3, B = 2. A long burst of both: the
        // 1-cycle queue recycles buffer space three times faster, so OPT
        // admits every cheap packet plus two expensive ones.
        let cfg = WorkSwitchConfig::new(
            2,
            vec![smbm_switch::Work::new(1), smbm_switch::Work::new(3)],
        )
        .unwrap();
        let trace: Vec<Vec<PortId>> = (0..6).map(|_| vec![p(0), p(1)]).collect();
        let opt = exact_work_opt(&cfg, 1, &trace).unwrap();
        assert_eq!(opt, 8, "6 cheap + 2 expensive");
    }

    #[test]
    fn work_opt_speedup_helps() {
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        let trace = vec![vec![p(0); 3], vec![p(0); 3]];
        let slow = exact_work_opt(&cfg, 1, &trace).unwrap();
        let fast = exact_work_opt(&cfg, 2, &trace).unwrap();
        assert!(fast >= slow);
        assert_eq!(fast, 4); // 2 per slot admitted, all drained
    }

    #[test]
    fn work_opt_rejects_oversized_instances() {
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        let trace = vec![vec![p(0); MAX_EXACT_ARRIVALS + 1]];
        let err = exact_work_opt(&cfg, 1, &trace).unwrap_err();
        assert!(err.to_string().contains("exact OPT limited"));
    }

    #[test]
    fn value_opt_empty_trace_is_zero() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        assert_eq!(exact_value_opt(&cfg, 1, &[]).unwrap(), 0);
    }

    #[test]
    fn value_opt_takes_best_subset() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        let trace = vec![vec![vpkt(0, 1), vpkt(0, 5), vpkt(1, 3)]];
        assert_eq!(exact_value_opt(&cfg, 1, &trace).unwrap(), 8);
    }

    #[test]
    fn value_opt_across_slots_uses_freed_space() {
        let cfg = ValueSwitchConfig::new(1, 1).unwrap();
        let trace = vec![vec![vpkt(0, 2)], vec![vpkt(0, 7)]];
        // B = 1 but one transmits per slot: both fit over time.
        assert_eq!(exact_value_opt(&cfg, 1, &trace).unwrap(), 9);
    }

    #[test]
    fn value_opt_multi_port_parallel_drain() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        let trace = vec![vec![vpkt(0, 3), vpkt(1, 4)], vec![vpkt(0, 5), vpkt(1, 6)]];
        // Each port drains one per slot: everything is admitted.
        assert_eq!(exact_value_opt(&cfg, 1, &trace).unwrap(), 18);
    }

    #[test]
    fn value_opt_single_port_bottleneck() {
        // All to one port, B = 2: admissions limited by drain rate.
        let cfg = ValueSwitchConfig::new(2, 1).unwrap();
        let trace = vec![vec![vpkt(0, 9), vpkt(0, 9), vpkt(0, 9)], vec![vpkt(0, 9)]];
        // Slot 1: admit 2 (one leaves). Slot 2: admit 1. Total 3 x 9.
        assert_eq!(exact_value_opt(&cfg, 1, &trace).unwrap(), 27);
    }

    #[test]
    fn value_opt_rejects_oversized_instances() {
        let cfg = ValueSwitchConfig::new(2, 1).unwrap();
        let trace = vec![vec![vpkt(0, 1); MAX_EXACT_ARRIVALS + 1]];
        assert!(exact_value_opt(&cfg, 1, &trace).is_err());
    }
}
