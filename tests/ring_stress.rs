//! Multi-thread stress tests for the lock-free SPSC ingress ring.
//!
//! Producer and consumer threads hammer small rings (where every push and
//! pop contends on the wrap-around paths) with randomized batch sizes,
//! randomized scalar/bulk op mixes, and mid-stream closes and panics. The
//! invariant under test is **exact item conservation**: every item the
//! producer hands to the ring is either popped by the consumer, returned
//! to the producer in a `Closed`/`Full` error, or still resident in the
//! ring at the end — no loss, no duplication, no reordering.
//!
//! Seeds are fixed so failures replay; the op *interleaving* still varies
//! with scheduling, which is the point — this is the suite that hunts
//! memory-ordering bugs the single-threaded differential suite cannot see.

use std::thread;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smbm_runtime::{ring, PushError, TryPop};

/// Items per producer in the soak runs — large enough to wrap a depth-4
/// ring thousands of times.
const STREAM: u64 = 50_000;

/// Producer side of a randomized op-mix stream: pushes `0..STREAM` in
/// order using a seeded mix of scalar and bulk, blocking and non-blocking
/// ops. Returns how many items actually entered the ring (the stream
/// prefix length, since rejected items are always retried in order).
fn drive_producer(tx: smbm_runtime::Producer<u64>, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = 0u64;
    while next < STREAM {
        let batch = rng.random_range(1usize..16).min((STREAM - next) as usize);
        let mut items: Vec<u64> = (next..next + batch as u64).collect();
        match rng.random_range(0u32..4) {
            // Blocking bulk: all-or-remainder.
            0 => match tx.push_bulk(&mut items) {
                Ok(()) => next += batch as u64,
                Err(PushError::Closed(())) => return next + (batch - items.len()) as u64,
                Err(PushError::Full(())) => unreachable!("blocking push never reports full"),
            },
            // Non-blocking bulk: the accepted prefix advances the stream.
            1 => match tx.try_push_bulk(&mut items) {
                Ok(()) => next += batch as u64,
                Err(PushError::Full(())) => next += (batch - items.len()) as u64,
                Err(PushError::Closed(())) => return next + (batch - items.len()) as u64,
            },
            // Blocking scalar.
            2 => match tx.push(next) {
                Ok(()) => next += 1,
                Err(PushError::Closed(_)) => return next,
                Err(PushError::Full(_)) => unreachable!("blocking push never reports full"),
            },
            // Non-blocking scalar.
            _ => match tx.try_push(next) {
                Ok(()) => next += 1,
                Err(PushError::Full(_)) => {}
                Err(PushError::Closed(_)) => return next,
            },
        }
    }
    STREAM
}

#[test]
fn randomized_op_mix_conserves_and_orders_the_stream() {
    // Several rounds with different seeds and tiny capacities: every run
    // must deliver an exact prefix 0..accepted in order.
    for seed in 0..4u64 {
        let capacity = [1usize, 2, 3, 7][seed as usize % 4];
        let (tx, rx) = ring(capacity);
        let h = thread::spawn(move || drive_producer(tx, seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut expected = 0u64;
        let mut out: Vec<u64> = Vec::new();
        loop {
            // Random consumer op mix: scalar try_pop, bounded bulk, pop.
            let popped_now: &[u64] = match rng.random_range(0u32..3) {
                0 => match rx.try_pop() {
                    TryPop::Item(v) => {
                        out.clear();
                        out.push(v);
                        &out
                    }
                    TryPop::Empty => {
                        thread::yield_now();
                        continue;
                    }
                    TryPop::Closed => break,
                },
                1 => {
                    out.clear();
                    let r = rx.pop_bulk(&mut out, rng.random_range(1usize..9));
                    if r.popped == 0 {
                        if r.closed {
                            break;
                        }
                        thread::yield_now();
                        continue;
                    }
                    &out
                }
                _ => match rx.pop() {
                    Some(v) => {
                        out.clear();
                        out.push(v);
                        &out
                    }
                    None => break,
                },
            };
            for &v in popped_now {
                assert_eq!(v, expected, "stream out of order (seed {seed})");
                expected += 1;
            }
        }
        let accepted = h.join().unwrap();
        assert_eq!(
            accepted, STREAM,
            "producer finished its stream (seed {seed})"
        );
        assert_eq!(
            expected, STREAM,
            "every accepted item was popped exactly once (seed {seed})"
        );
    }
}

#[test]
fn midstream_consumer_close_loses_nothing_accepted() {
    // The consumer closes at a random point mid-stream. Conservation:
    // items the producer got into the ring == items popped before the
    // close + items still resident after (queued items stay poppable
    // after a consumer close; they are freed with the ring).
    for seed in 10..14u64 {
        let (tx, rx) = ring(4);
        let h = thread::spawn(move || drive_producer(tx, seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let stop_after = rng.random_range(100u64..2_000);
        let mut popped = 0u64;
        let mut out = Vec::new();
        while popped < stop_after {
            out.clear();
            let r = rx.pop_bulk(&mut out, 8);
            for &v in &out {
                assert_eq!(v, popped, "in order up to the close (seed {seed})");
                popped += 1;
            }
            if r.popped == 0 && r.closed {
                break;
            }
        }
        rx.close();
        let accepted = h.join().unwrap();
        // Drain the residue with the same (still valid) consumer handle.
        let mut residue = 0u64;
        while let TryPop::Item(v) = rx.try_pop() {
            assert_eq!(v, popped + residue, "residue continues the stream");
            residue += 1;
        }
        assert_eq!(
            accepted,
            popped + residue,
            "accepted == popped + resident (seed {seed})"
        );
    }
}

#[test]
fn producer_panic_midstream_drains_exactly_the_accepted_prefix() {
    // The producer thread panics after an arbitrary number of pushes; its
    // unwinding drops the handle, which closes the ring. The consumer must
    // drain exactly the accepted prefix and then see a clean end-of-stream
    // — a panic is indistinguishable from a polite close at the ring
    // level, which is what makes producer panics safe runtime-wide.
    for seed in 20..23u64 {
        let (tx, rx) = ring(3);
        let h = thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let die_at = rng.random_range(50u64..1_500);
            let mut next = 0u64;
            loop {
                if next == die_at {
                    panic!("injected producer death at {die_at}");
                }
                let batch = rng.random_range(1usize..8).min((die_at - next) as usize);
                match tx.push_bulk(&mut (next..next + batch as u64).collect()) {
                    Ok(()) => next += batch as u64,
                    Err(_) => unreachable!("consumer never closes in this test"),
                }
            }
        });
        let mut expected = 0u64;
        while let Some(v) = rx.pop() {
            assert_eq!(v, expected, "prefix in order (seed {seed})");
            expected += 1;
        }
        assert!(h.join().is_err(), "the producer really panicked");
        assert_eq!(rx.try_pop(), TryPop::Closed, "clean end-of-stream");
        let mut rng = StdRng::seed_from_u64(seed);
        let die_at: u64 = rng.random_range(50u64..1_500);
        assert_eq!(expected, die_at, "drained exactly the accepted prefix");
    }
}

#[test]
fn two_rings_cross_traffic_stays_isolated() {
    // Two independent rings driven concurrently from four threads: traffic
    // on one must never bleed into the other (a regression guard for the
    // shared-state layout — a stray index or waiter crossing rings would
    // scramble both streams).
    let (tx_a, rx_a) = ring(5);
    let (tx_b, rx_b) = ring(2);
    let pa = thread::spawn(move || drive_producer(tx_a, 31));
    let pb = thread::spawn(move || drive_producer(tx_b, 32));
    let drain = |rx: smbm_runtime::Consumer<u64>| {
        let mut expected = 0u64;
        let mut out = Vec::new();
        loop {
            out.clear();
            let r = rx.pop_bulk(&mut out, 16);
            for &v in &out {
                assert_eq!(v, expected);
                expected += 1;
            }
            if r.popped == 0 {
                if r.closed {
                    return expected;
                }
                rx.wait_nonempty(None);
            }
        }
    };
    let ca = thread::spawn(move || drain(rx_a));
    let cb = thread::spawn(move || drain(rx_b));
    assert_eq!(pa.join().unwrap(), STREAM);
    assert_eq!(pb.join().unwrap(), STREAM);
    assert_eq!(ca.join().unwrap(), STREAM);
    assert_eq!(cb.join().unwrap(), STREAM);
}
