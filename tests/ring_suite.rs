//! Differential behavior suite for the SPSC ingress rings.
//!
//! One generic test body runs against **both** ring implementations — the
//! lock-free `smbm-spsc` ring the runtime actually uses
//! (`smbm_runtime::ring`) and the original `Mutex`+`Condvar` oracle
//! (`smbm_runtime::reference::ring`) — so the two can never drift apart
//! silently: the suite *is* the observable contract (per-item
//! `Full`/`Closed` outcomes with `Closed` winning ties, drain-on-close,
//! prompt close observation mid-blocking-push, exact bulk split points).
//!
//! On top of the fixed scenarios, a proptest drives both rings through the
//! same randomized sequence of non-blocking operations and demands
//! *identical* outcomes — item for item, error for error, count for count.

use proptest::prelude::*;
use smbm_runtime::{reference, BulkPop, PushError, TryPop};

/// Every behavioral test, written once against the common ring API and
/// instantiated per implementation via the constructor path.
macro_rules! ring_suite {
    ($name:ident, $ring:path) => {
        mod $name {
            use super::*;
            use std::thread;
            use std::time::{Duration, Instant};
            use $ring as mk;

            #[test]
            fn fifo_within_capacity() {
                let (tx, rx) = mk(4);
                tx.push(1).unwrap();
                tx.push(2).unwrap();
                assert_eq!(rx.len(), 2);
                assert!(!rx.is_empty());
                assert_eq!(rx.pop(), Some(1));
                assert_eq!(rx.try_pop(), TryPop::Item(2));
                assert_eq!(rx.try_pop(), TryPop::Empty);
            }

            #[test]
            fn try_push_reports_full() {
                let (tx, rx) = mk(2);
                tx.try_push(1).unwrap();
                tx.try_push(2).unwrap();
                assert_eq!(tx.try_push(3), Err(PushError::Full(3)));
                assert_eq!(rx.pop(), Some(1));
                tx.try_push(3).unwrap();
                assert_eq!(rx.pop(), Some(2));
                assert_eq!(rx.pop(), Some(3));
            }

            #[test]
            fn closed_producer_drains_then_ends() {
                let (tx, rx) = mk(4);
                tx.push(7).unwrap();
                drop(tx);
                assert_eq!(rx.pop(), Some(7));
                assert_eq!(rx.pop(), None);
                assert_eq!(rx.try_pop(), TryPop::Closed);
            }

            #[test]
            fn closed_consumer_rejects_pushes() {
                let (tx, rx) = mk(4);
                drop(rx);
                assert_eq!(tx.push(1), Err(PushError::Closed(1)));
                assert_eq!(tx.try_push(2), Err(PushError::Closed(2)));
            }

            #[test]
            fn blocking_push_wakes_on_pop() {
                let (tx, rx) = mk(1);
                tx.push(1).unwrap();
                let h = thread::spawn(move || tx.push(2));
                thread::sleep(Duration::from_millis(20));
                assert_eq!(rx.pop(), Some(1));
                h.join().unwrap().unwrap();
                assert_eq!(rx.pop(), Some(2));
            }

            #[test]
            fn blocking_pop_wakes_on_close() {
                let (tx, rx) = mk::<u32>(1);
                let h = thread::spawn(move || rx.pop());
                thread::sleep(Duration::from_millis(20));
                drop(tx);
                assert_eq!(h.join().unwrap(), None);
            }

            #[test]
            fn blocked_full_push_fails_when_consumer_drops() {
                let (tx, rx) = mk(1);
                tx.push(1).unwrap();
                let h = thread::spawn(move || tx.push(2));
                thread::sleep(Duration::from_millis(20));
                drop(rx);
                assert_eq!(h.join().unwrap(), Err(PushError::Closed(2)));
            }

            #[test]
            fn blocked_push_observes_close_promptly() {
                // Regression guard for the blocking path's shutdown
                // latency: a push blocked on a full ring must return
                // `Closed` off the close notification itself, not by
                // riding out a full supervision backoff cycle (250 ms
                // cap). The bound is generous against scheduler noise but
                // well under one backoff cycle.
                let (tx, rx) = mk(1);
                tx.push(1).unwrap();
                let h = thread::spawn(move || {
                    let r = tx.push(2);
                    (r, Instant::now())
                });
                // Let the producer actually block on the full ring first.
                thread::sleep(Duration::from_millis(50));
                let closed_at = Instant::now();
                rx.close();
                let (r, returned_at) = h.join().unwrap();
                assert_eq!(r, Err(PushError::Closed(2)));
                let latency = returned_at.saturating_duration_since(closed_at);
                assert!(
                    latency < Duration::from_millis(200),
                    "blocked push took {latency:?} to observe the close"
                );
            }

            #[test]
            fn closed_wins_over_full() {
                // A full ring whose consumer is gone must report `Closed`,
                // never `Full`: shutdown rejections are not load-induced
                // backpressure and must not be tallied as such.
                let (tx, rx) = mk(1);
                tx.try_push(1).unwrap();
                assert_eq!(tx.try_push(2), Err(PushError::Full(2)));
                drop(rx);
                assert_eq!(tx.try_push(3), Err(PushError::Closed(3)));
            }

            #[test]
            fn peek_counts_without_dequeuing() {
                let (tx, rx) = mk(4);
                tx.push(10).unwrap();
                tx.push(20).unwrap();
                let mut seen = Vec::new();
                rx.peek(|&v| seen.push(v));
                assert_eq!(seen, vec![10, 20]);
                assert_eq!(rx.len(), 2);
            }

            #[test]
            #[should_panic(expected = "capacity must be positive")]
            fn zero_capacity_rejected() {
                let _ = mk::<u32>(0);
            }

            #[test]
            fn push_bulk_publishes_whole_slice_fifo() {
                let (tx, rx) = mk(8);
                let mut items: Vec<u32> = (0..5).collect();
                tx.push_bulk(&mut items).unwrap();
                assert!(items.is_empty(), "a full publish drains the vector");
                let mut out = Vec::new();
                let r = rx.pop_bulk(&mut out, 16);
                assert_eq!(out, vec![0, 1, 2, 3, 4]);
                assert_eq!(
                    r,
                    BulkPop {
                        popped: 5,
                        closed: false
                    }
                );
            }

            #[test]
            fn push_bulk_empty_is_a_noop_even_when_full() {
                let (tx, _rx) = mk::<u32>(1);
                tx.push(1).unwrap();
                // Must not block despite the full ring: nothing to push.
                tx.push_bulk(&mut Vec::new()).unwrap();
            }

            #[test]
            fn push_bulk_blocks_across_capacity_and_wakes_on_pops() {
                let (tx, rx) = mk(2);
                let h = thread::spawn(move || tx.push_bulk(&mut (0..10).collect::<Vec<_>>()));
                let mut got = Vec::new();
                while got.len() < 10 {
                    if let Some(v) = rx.pop() {
                        got.push(v);
                    }
                }
                h.join().unwrap().unwrap();
                assert_eq!(got, (0..10).collect::<Vec<_>>());
            }

            #[test]
            fn push_bulk_hands_back_unpushed_remainder_on_close() {
                let (tx, rx) = mk(2);
                let h = thread::spawn(move || {
                    let mut items: Vec<u32> = (0..6).collect();
                    let r = tx.push_bulk(&mut items);
                    (r, items)
                });
                thread::sleep(Duration::from_millis(20));
                // Two items fit; close with the producer blocked on the
                // third.
                assert_eq!(rx.pop(), Some(0));
                thread::sleep(Duration::from_millis(20));
                rx.close();
                let (r, rest) = h.join().unwrap();
                // Items already published stay published; only the
                // remainder stays behind. The consumer freed one slot, so
                // 3 entered before the close.
                assert_eq!(r, Err(PushError::Closed(())));
                assert_eq!(rest, vec![3, 4, 5]);
            }

            #[test]
            fn try_push_bulk_matches_a_scalar_try_push_loop() {
                let (bulk_tx, bulk_rx) = mk(4);
                let (scalar_tx, scalar_rx) = mk(4);
                let items: Vec<u32> = (0..7).collect();
                let mut rest = items.clone();
                assert_eq!(bulk_tx.try_push_bulk(&mut rest), Err(PushError::Full(())));
                let mut scalar_rest = Vec::new();
                for item in items {
                    if let Err(PushError::Full(it)) = scalar_tx.try_push(item) {
                        scalar_rest.push(it);
                    }
                }
                assert_eq!(rest, scalar_rest);
                assert_eq!(rest, vec![4, 5, 6]);
                let mut bulk_out = Vec::new();
                bulk_rx.pop_bulk(&mut bulk_out, usize::MAX);
                let mut scalar_out = Vec::new();
                while let TryPop::Item(v) = scalar_rx.try_pop() {
                    scalar_out.push(v);
                }
                assert_eq!(bulk_out, scalar_out);
            }

            #[test]
            fn bulk_closed_wins_over_full() {
                let (tx, rx) = mk(1);
                tx.push(0).unwrap();
                let mut items = vec![1];
                assert_eq!(tx.try_push_bulk(&mut items), Err(PushError::Full(())));
                assert_eq!(items, vec![1]);
                drop(rx);
                let mut items = vec![1, 2];
                assert_eq!(tx.try_push_bulk(&mut items), Err(PushError::Closed(())));
                assert_eq!(items, vec![1, 2]);
                let mut items = vec![3];
                assert_eq!(tx.push_bulk(&mut items), Err(PushError::Closed(())));
                assert_eq!(items, vec![3]);
            }

            #[test]
            fn pop_bulk_respects_max_and_reports_close() {
                let (tx, rx) = mk(8);
                tx.push_bulk(&mut vec![1, 2, 3]).unwrap();
                drop(tx);
                let mut out = Vec::new();
                assert_eq!(
                    rx.pop_bulk(&mut out, 2),
                    BulkPop {
                        popped: 2,
                        closed: true
                    }
                );
                assert_eq!(
                    rx.pop_bulk(&mut out, 2),
                    BulkPop {
                        popped: 1,
                        closed: true
                    }
                );
                assert_eq!(out, vec![1, 2, 3]);
                // Drained and closed: end of stream, as TryPop::Closed.
                assert_eq!(
                    rx.pop_bulk(&mut out, 2),
                    BulkPop {
                        popped: 0,
                        closed: true
                    }
                );
                assert_eq!(rx.try_pop(), TryPop::Closed);
            }

            #[test]
            fn pop_bulk_empty_open_ring_reports_neither() {
                let (_tx, rx) = mk::<u32>(4);
                let mut out = Vec::new();
                assert_eq!(
                    rx.pop_bulk(&mut out, 8),
                    BulkPop {
                        popped: 0,
                        closed: false
                    }
                );
            }

            #[test]
            fn pop_bulk_wakes_a_blocked_producer() {
                let (tx, rx) = mk(1);
                tx.push(1).unwrap();
                let h = thread::spawn(move || tx.push_bulk(&mut vec![2, 3]));
                thread::sleep(Duration::from_millis(20));
                let mut out = Vec::new();
                while out.len() < 3 {
                    rx.pop_bulk(&mut out, 4);
                }
                h.join().unwrap().unwrap();
                assert_eq!(out, vec![1, 2, 3]);
            }

            #[test]
            fn wait_nonempty_times_out_then_observes_data_and_close() {
                let (tx, rx) = mk(4);
                assert!(
                    !rx.wait_nonempty(Some(Duration::from_millis(1))),
                    "empty open ring times out"
                );
                tx.push(1).unwrap();
                assert!(rx.wait_nonempty(Some(Duration::from_millis(1))));
                assert_eq!(rx.pop(), Some(1));
                drop(tx);
                // Closed counts as observable (end-of-stream), not timeout.
                assert!(rx.wait_nonempty(None));
            }

            #[test]
            fn bulk_ops_deliver_the_scalar_sequence_under_concurrency() {
                // Differential soak: the same item stream pushed bulk
                // (varying slice sizes) and drained bulk must arrive
                // exactly as the scalar path would deliver it — in order,
                // nothing lost or duplicated.
                let total: u32 = 10_000;
                let (tx, rx) = mk(7);
                let h = thread::spawn(move || {
                    let mut next = 0u32;
                    let mut size = 1usize;
                    while next < total {
                        let end = (next + size as u32).min(total);
                        tx.push_bulk(&mut (next..end).collect()).unwrap();
                        next = end;
                        size = size % 13 + 1;
                    }
                });
                let mut got: Vec<u32> = Vec::new();
                let mut out = Vec::new();
                loop {
                    out.clear();
                    let r = rx.pop_bulk(&mut out, 5);
                    got.extend(&out);
                    if r.popped == 0 && r.closed {
                        break;
                    }
                }
                h.join().unwrap();
                assert_eq!(got, (0..total).collect::<Vec<_>>());
            }
        }
    };
}

ring_suite!(lockfree, smbm_runtime::ring);
ring_suite!(mutex_reference, reference::ring);

// ---------------------------------------------------------------------------
// Randomized differential: drive both implementations through the same
// sequence of non-blocking operations and require identical outcomes.
// ---------------------------------------------------------------------------

/// One non-blocking ring operation. Blocking ops are excluded on purpose:
/// the sequence runs single-threaded, so a blocking push against a full
/// ring would hang — and the blocking paths are just retry loops over
/// these primitives anyway.
#[derive(Debug, Clone)]
enum Op {
    TryPush(u32),
    TryPushBulk(Vec<u32>),
    TryPop,
    PopBulk(usize),
    Len,
    CloseProducer,
    CloseConsumer,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..1000).prop_map(Op::TryPush),
        3 => proptest::collection::vec(0u32..1000, 0..12).prop_map(Op::TryPushBulk),
        4 => Just(Op::TryPop),
        3 => (0usize..12).prop_map(Op::PopBulk),
        1 => Just(Op::Len),
        // Rare: a close freezes the rest of the sequence into the
        // closed-path behaviors, which is interesting but shouldn't
        // dominate.
        1 => Just(Op::CloseProducer),
        1 => Just(Op::CloseConsumer),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both implementations, same ops, same capacity: every outcome —
    /// pushed/rejected item sets, popped sequences, bulk counts, closed
    /// flags, lengths — must be identical at every step.
    #[test]
    fn lockfree_matches_mutex_oracle(
        capacity in 1usize..9,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let (ltx, lrx) = smbm_runtime::ring::<u32>(capacity);
        let (mtx, mrx) = reference::ring::<u32>(capacity);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::TryPush(v) => {
                    prop_assert_eq!(
                        ltx.try_push(*v), mtx.try_push(*v),
                        "try_push diverged at op {}", i
                    );
                }
                Op::TryPushBulk(items) => {
                    let (mut lrest, mut mrest) = (items.clone(), items.clone());
                    prop_assert_eq!(
                        ltx.try_push_bulk(&mut lrest),
                        mtx.try_push_bulk(&mut mrest),
                        "try_push_bulk diverged at op {}", i
                    );
                    prop_assert_eq!(&lrest, &mrest, "try_push_bulk remainder diverged at op {}", i);
                }
                Op::TryPop => {
                    prop_assert_eq!(
                        lrx.try_pop(), mrx.try_pop(),
                        "try_pop diverged at op {}", i
                    );
                }
                Op::PopBulk(max) => {
                    let mut lout = Vec::new();
                    let mut mout = Vec::new();
                    let lr = lrx.pop_bulk(&mut lout, *max);
                    let mr = mrx.pop_bulk(&mut mout, *max);
                    prop_assert_eq!(lr, mr, "pop_bulk result diverged at op {}", i);
                    prop_assert_eq!(&lout, &mout, "pop_bulk items diverged at op {}", i);
                }
                Op::Len => {
                    prop_assert_eq!(lrx.len(), mrx.len(), "len diverged at op {}", i);
                    prop_assert_eq!(lrx.is_empty(), mrx.is_empty());
                }
                Op::CloseProducer => {
                    ltx.close();
                    mtx.close();
                }
                Op::CloseConsumer => {
                    lrx.close();
                    mrx.close();
                }
            }
        }
        // Final drain: whatever is left must match item for item.
        let mut lrest = Vec::new();
        let mut mrest = Vec::new();
        let lr = lrx.pop_bulk(&mut lrest, usize::MAX);
        let mr = mrx.pop_bulk(&mut mrest, usize::MAX);
        prop_assert_eq!(lr, mr, "final drain result diverged");
        prop_assert_eq!(lrest, mrest, "final drain items diverged");
    }
}
