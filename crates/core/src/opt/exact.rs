//! Exact clairvoyant OPT for tiny instances, by memoized search.
//!
//! The true offline optimum never needs push-out: any schedule that admits a
//! packet and later evicts it is dominated by one that never admits it. The
//! optimum is therefore a choice, for every arrival, of *admit* or *drop*,
//! subject to the shared-buffer capacity — a search over `2^(#arrivals)`
//! decision vectors, made tractable on small instances by memoizing on the
//! (arrival position, buffer state) pair.
//!
//! The search evaluates the **drain objective**: the trace is followed by
//! arrival-free slots until the buffer empties, so every admitted packet is
//! eventually transmitted. This matches how competitive bounds are stated
//! (performance as `t -> ∞` for a finite adversarial prefix) and lets the
//! test-suite check, e.g., Theorem 7's `OPT <= 2 * LWD` exactly.
//!
//! One search serves every packet model: a packet's value is credited when
//! it is admitted, and every packet to a port needs that port's work (one
//! cycle in the value model), so a port's state is its packet count and the
//! residual work of its head packet.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use smbm_switch::{PortId, QueueDiscipline, Value};

/// Largest number of arrivals [`exact_opt`] accepts; beyond this the
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

/// Computes the exact optimal transmitted value of `trace` (the packet count
/// in the work model, where every packet is worth 1) on a switch of
/// discipline `Q` whose ports each get `speedup` processing cycles per slot,
/// including a full drain after the last slot.
///
/// # Errors
///
/// Returns [`TooLargeError`] if the trace has more than
/// [`MAX_EXACT_ARRIVALS`] arrivals.
///
/// # Panics
///
/// May panic if a packet's port is not a port of `config`.
///
/// ```
/// use smbm_core::exact_opt;
/// use smbm_switch::{
///     PortId, QueueDiscipline, Value, ValueQueue, ValueSwitchConfig, WorkQueue, WorkSwitchConfig,
/// };
///
/// // Work model, B = 2: of three packets toward port 0 (w = 1) in one slot
/// // only two fit; both drain out.
/// let cfg = WorkSwitchConfig::contiguous(2, 2)?;
/// let trace = vec![vec![WorkQueue::packet(&cfg, PortId::new(0), Value::ONE); 3]];
/// assert_eq!(exact_opt::<WorkQueue>(&cfg, 1, &trace)?, 2);
///
/// // Value model, B = 1: of two same-slot arrivals only one fits; OPT
/// // takes the 9.
/// let cfg = ValueSwitchConfig::new(1, 1)?;
/// let p = |v| ValueQueue::packet(&cfg, PortId::new(0), Value::new(v));
/// assert_eq!(exact_opt::<ValueQueue>(&cfg, 1, &[vec![p(4), p(9)]])?, 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn exact_opt<Q: QueueDiscipline>(
    config: &Q::Config,
    speedup: u32,
    trace: &[Vec<Q::Packet>],
) -> Result<u64, TooLargeError> {
    let arrivals: Vec<Arrival> = trace
        .iter()
        .enumerate()
        .flat_map(|(slot, burst)| {
            burst.iter().map(move |&pkt| Arrival {
                slot,
                port: Q::port(pkt).index(),
                value: Q::value(pkt).get(),
            })
        })
        .collect();
    if arrivals.len() > MAX_EXACT_ARRIVALS {
        return Err(TooLargeError {
            arrivals: arrivals.len(),
        });
    }
    let works: Vec<u32> = (0..Q::ports(config))
        .map(|i| Q::work(Q::packet(config, PortId::new(i), Value::ONE)).cycles())
        .collect();
    let empty = vec![(0, 0); works.len()];
    let mut search = Search {
        works,
        buffer: Q::buffer(config),
        speedup,
        arrivals,
        memo: HashMap::new(),
    };
    Ok(search.best(0, empty))
}

/// One arrival of the trace, as the search needs it.
struct Arrival {
    slot: usize,
    port: usize,
    value: u64,
}

/// Per port: `(resident packets, residual cycles of the head packet)`.
type State = Vec<(u32, u32)>;

struct Search {
    works: Vec<u32>,
    buffer: usize,
    speedup: u32,
    arrivals: Vec<Arrival>,
    memo: HashMap<(usize, State), u64>,
}

impl Search {
    /// Most value still collectable from arrival `i` on, which finds the
    /// buffer in `state`.
    fn best(&mut self, i: usize, state: State) -> u64 {
        let Some(&Arrival { port, value, .. }) = self.arrivals.get(i) else {
            return 0;
        };
        if let Some(&v) = self.memo.get(&(i, state.clone())) {
            return v;
        }
        let mut best = self.after(i, state.clone());
        let occupancy: usize = state.iter().map(|&(len, _)| len as usize).sum();
        if occupancy < self.buffer {
            let mut admitted = state.clone();
            let q = &mut admitted[port];
            if q.0 == 0 {
                q.1 = self.works[port];
            }
            q.0 += 1;
            best = best.max(value + self.after(i, admitted));
        }
        self.memo.insert((i, state), best);
        best
    }

    /// [`Search::best`] from the arrival after `i`, once the transmission
    /// phases of the slots in between have run. Slots without arrivals hold
    /// no choice, so they are walked here rather than recursed into.
    fn after(&mut self, i: usize, mut state: State) -> u64 {
        let Some(next) = self.arrivals.get(i + 1) else {
            return 0;
        };
        for _ in self.arrivals[i].slot..next.slot {
            if state.iter().all(|&(len, _)| len == 0) {
                break;
            }
            self.transmit(&mut state);
        }
        self.best(i + 1, state)
    }

    /// One transmission phase: each port spends `speedup` cycles on its
    /// queue, head first.
    fn transmit(&self, state: &mut State) {
        for (q, &work) in state.iter_mut().zip(&self.works) {
            let mut cycles = self.speedup;
            while cycles > 0 && q.0 > 0 {
                let step = cycles.min(q.1);
                q.1 -= step;
                cycles -= step;
                if q.1 == 0 {
                    q.0 -= 1;
                    q.1 = if q.0 > 0 { work } else { 0 };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_switch::{ValueQueue, ValueSwitchConfig, Work, WorkQueue, WorkSwitchConfig};

    fn work_config(buffer: usize, works: &[u32]) -> WorkSwitchConfig {
        WorkSwitchConfig::new(buffer, works.iter().map(|&w| Work::new(w)).collect()).unwrap()
    }

    /// A trace of `(port, value)` arrivals per slot as packets of `Q`.
    fn trace<Q: QueueDiscipline>(
        config: &Q::Config,
        slots: &[&[(usize, u64)]],
    ) -> Vec<Vec<Q::Packet>> {
        slots
            .iter()
            .map(|burst| {
                burst
                    .iter()
                    .map(|&(port, v)| Q::packet(config, PortId::new(port), Value::new(v)))
                    .collect()
            })
            .collect()
    }

    /// Work-model arrivals per slot, by port.
    fn work_trace(
        config: &WorkSwitchConfig,
        slots: &[&[usize]],
    ) -> Vec<Vec<smbm_switch::WorkPacket>> {
        slots
            .iter()
            .map(|burst| {
                burst
                    .iter()
                    .map(|&port| WorkQueue::packet(config, PortId::new(port), Value::ONE))
                    .collect()
            })
            .collect()
    }

    fn work_opt(config: &WorkSwitchConfig, speedup: u32, slots: &[&[usize]]) -> u64 {
        exact_opt::<WorkQueue>(config, speedup, &work_trace(config, slots)).unwrap()
    }

    fn value_opt(config: &ValueSwitchConfig, speedup: u32, slots: &[&[(usize, u64)]]) -> u64 {
        exact_opt::<ValueQueue>(config, speedup, &trace::<ValueQueue>(config, slots)).unwrap()
    }

    #[test]
    fn work_opt_empty_trace_is_zero() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        assert_eq!(work_opt(&cfg, 1, &[]), 0);
    }

    #[test]
    fn work_opt_admits_everything_that_fits() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        assert_eq!(work_opt(&cfg, 1, &[&[0, 1, 1]]), 3);
    }

    #[test]
    fn work_opt_respects_buffer_capacity() {
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        assert_eq!(work_opt(&cfg, 1, &[&[0; 5]]), 2);
    }

    #[test]
    fn work_opt_exploits_freed_space_across_slots() {
        // B = 2, single port with w = 1: one slot frees one space per slot.
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        // Slot 1: admit 2 (transmit 1). Slots 2 and 3: refill one each.
        assert_eq!(work_opt(&cfg, 1, &[&[0; 3], &[0; 3], &[0; 3]]), 4);
    }

    #[test]
    fn work_opt_prefers_cheap_packets_when_space_constrained() {
        // Two ports: w = 1 and w = 3, B = 2. A long burst of both: the
        // 1-cycle queue recycles buffer space three times faster, so OPT
        // admits every cheap packet plus two expensive ones.
        let cfg = work_config(2, &[1, 3]);
        assert_eq!(
            work_opt(&cfg, 1, &[&[0, 1][..]; 6]),
            8,
            "6 cheap + 2 expensive"
        );
    }

    #[test]
    fn work_opt_speedup_helps() {
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        let slots: &[&[usize]] = &[&[0; 3], &[0; 3]];
        let slow = work_opt(&cfg, 1, slots);
        let fast = work_opt(&cfg, 2, slots);
        assert!(fast >= slow);
        assert_eq!(fast, 4); // 2 per slot admitted, all drained
    }

    #[test]
    fn work_opt_rejects_oversized_instances() {
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        let trace = work_trace(&cfg, &[&[0; MAX_EXACT_ARRIVALS + 1]]);
        let err = exact_opt::<WorkQueue>(&cfg, 1, &trace).unwrap_err();
        assert!(err.to_string().contains("exact OPT limited"));
    }

    #[test]
    fn exactly_max_arrivals_are_accepted() {
        // 28 arrivals to one port in one slot with B = 2: two fit.
        let work = WorkSwitchConfig::contiguous(1, 2).unwrap();
        assert_eq!(work_opt(&work, 1, &[&[0; MAX_EXACT_ARRIVALS]]), 2);
        let value = ValueSwitchConfig::new(2, 1).unwrap();
        let burst: Vec<(usize, u64)> = (1..=MAX_EXACT_ARRIVALS as u64).map(|v| (0, v)).collect();
        let top_two = 2 * MAX_EXACT_ARRIVALS as u64 - 1;
        assert_eq!(value_opt(&value, 1, &[&burst]), top_two);
    }

    #[test]
    fn work_residual_beyond_u16() {
        // w = 65,537 holds the one buffer slot far past the second arrival.
        let cfg = work_config(1, &[65_537]);
        assert_eq!(work_opt(&cfg, 1, &[&[0], &[0]]), 1);
    }

    #[test]
    fn work_speedup_beyond_u16() {
        let cfg = work_config(1, &[1]);
        assert_eq!(work_opt(&cfg, 65_536, &[&[0], &[0]]), 2);
    }

    #[test]
    fn value_speedup_beyond_u16() {
        let cfg = ValueSwitchConfig::new(1, 1).unwrap();
        assert_eq!(value_opt(&cfg, 65_536, &[&[(0, 5)], &[(0, 7)]]), 12);
    }

    #[test]
    fn silent_stretches_do_not_deepen_the_search() {
        let cfg = WorkSwitchConfig::contiguous(2, 2).unwrap();
        let silence = std::iter::repeat_n(Vec::new(), 100_000);
        let mut trace = work_trace(&cfg, &[&[0]]);
        trace.extend(silence.clone());
        trace.extend(work_trace(&cfg, &[&[1, 1, 1]]));
        trace.extend(silence);
        assert_eq!(exact_opt::<WorkQueue>(&cfg, 1, &trace).unwrap(), 3);
    }

    #[test]
    fn value_opt_empty_trace_is_zero() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        assert_eq!(value_opt(&cfg, 1, &[]), 0);
    }

    #[test]
    fn value_opt_takes_best_subset() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        assert_eq!(value_opt(&cfg, 1, &[&[(0, 1), (0, 5), (1, 3)]]), 8);
    }

    #[test]
    fn value_opt_across_slots_uses_freed_space() {
        let cfg = ValueSwitchConfig::new(1, 1).unwrap();
        // B = 1 but one transmits per slot: both fit over time.
        assert_eq!(value_opt(&cfg, 1, &[&[(0, 2)], &[(0, 7)]]), 9);
    }

    #[test]
    fn value_opt_multi_port_parallel_drain() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        // Each port drains one per slot: everything is admitted.
        let slots: &[&[(usize, u64)]] = &[&[(0, 3), (1, 4)], &[(0, 5), (1, 6)]];
        assert_eq!(value_opt(&cfg, 1, slots), 18);
    }

    #[test]
    fn value_opt_single_port_bottleneck() {
        // All to one port, B = 2: admissions limited by drain rate.
        let cfg = ValueSwitchConfig::new(2, 1).unwrap();
        // Slot 1: admit 2 (one leaves). Slot 2: admit 1. Total 3 x 9.
        assert_eq!(value_opt(&cfg, 1, &[&[(0, 9); 3], &[(0, 9)]]), 27);
    }

    #[test]
    fn value_opt_rejects_oversized_instances() {
        let cfg = ValueSwitchConfig::new(2, 1).unwrap();
        let trace = trace::<ValueQueue>(&cfg, &[&[(0, 1); MAX_EXACT_ARRIVALS + 1]]);
        assert!(exact_opt::<ValueQueue>(&cfg, 1, &trace).is_err());
    }
}
