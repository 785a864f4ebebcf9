//! Criterion gate for the SPSC ingress ring: items moved through a ring
//! per second, the lock-free `smbm-spsc` ring vs the retired Mutex+Condvar
//! ring (kept as `smbm_runtime::reference`, the behavior oracle). Every
//! shape runs against both implementations under the same labels so the
//! CI gate can assert the lock-free ring actually beats the lock.
//!
//! Measured shapes (`DEPTH`-item ring, `DEPTH` items per iteration):
//!
//! * `ring-bulk/scalar/{lockfree,mutex}` — a `try_push` per item, then a
//!   `try_pop` per item: the pre-bulk receive-loop cost model;
//! * `ring-bulk/bulk/{lockfree,mutex}` — one `try_push_bulk` of the whole
//!   slice, one `pop_bulk` claim of the backlog (buffer reused);
//! * `ring-bulk/batched-32/{lockfree,mutex}` — the slice published as
//!   32-item batches, the shape `serve_socket` stages per receive burst;
//! * `ring-pingpong/{lockfree,mutex}` — a true two-thread transfer: the
//!   bench thread pushes `DEPTH` items with the blocking scalar API while
//!   an echo thread pops each one and acks it back on a second ring. This
//!   is the contended cross-core path the single-threaded shapes miss —
//!   real wakes, real cache-line bouncing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::thread;
use std::time::Duration;

const DEPTH: usize = 1024;
const BURST: usize = 32;

/// Expands the three single-threaded shapes for one ring implementation.
/// `$ring` is a path to a `fn(usize) -> (Producer<T>, Consumer<T>)`
/// constructor; both implementations expose the same op surface, so the
/// bodies are textually identical.
macro_rules! single_thread_shapes {
    ($group:expr, $impl_label:expr, $ring:path) => {{
        use $ring as mk;

        $group.bench_function(BenchmarkId::new("scalar", $impl_label), |b| {
            let (tx, rx) = mk::<u64>(DEPTH);
            b.iter(|| {
                for i in 0..DEPTH as u64 {
                    tx.try_push(black_box(i)).expect("ring has room");
                }
                let mut sum = 0u64;
                while let TryPop::Item(v) = rx.try_pop() {
                    sum += v;
                }
                sum
            })
        });

        $group.bench_function(BenchmarkId::new("bulk", $impl_label), |b| {
            let (tx, rx) = mk::<u64>(DEPTH);
            let items: Vec<u64> = (0..DEPTH as u64).collect();
            let mut out: Vec<u64> = Vec::with_capacity(DEPTH);
            b.iter(|| {
                tx.try_push_bulk(black_box(&mut items.clone()))
                    .expect("ring has room");
                out.clear();
                let claimed = rx.pop_bulk(&mut out, DEPTH);
                black_box(claimed.popped)
            })
        });

        $group.bench_function(BenchmarkId::new("batched-32", $impl_label), |b| {
            let (tx, rx) = mk::<u64>(DEPTH);
            let batch: Vec<u64> = (0..BURST as u64).collect();
            let mut out: Vec<u64> = Vec::with_capacity(DEPTH);
            b.iter(|| {
                for _ in 0..DEPTH / BURST {
                    tx.try_push_bulk(black_box(&mut batch.clone()))
                        .expect("ring has room");
                }
                out.clear();
                let claimed = rx.pop_bulk(&mut out, DEPTH);
                black_box(claimed.popped)
            })
        });
    }};
}

/// Two-thread blocking ping-pong for one ring implementation: an echo
/// thread pops every item off the forward ring and pushes it onto the ack
/// ring; the bench thread pushes `DEPTH` items and pops `DEPTH` acks per
/// iteration, all through the blocking scalar API. The rings are sized to
/// the transfer so steady state exercises the data path and the wake
/// protocol rather than spending the whole iteration parked.
macro_rules! pingpong_shape {
    ($group:expr, $impl_label:expr, $ring:path) => {{
        use $ring as mk;

        $group.bench_function(BenchmarkId::from_parameter($impl_label), |b| {
            let (fwd_tx, fwd_rx) = mk::<u64>(DEPTH);
            let (ack_tx, ack_rx) = mk::<u64>(DEPTH);
            let echo = thread::spawn(move || {
                while let Some(v) = fwd_rx.pop() {
                    if ack_tx.push(v).is_err() {
                        break;
                    }
                }
            });
            b.iter(|| {
                for i in 0..DEPTH as u64 {
                    fwd_tx.push(black_box(i)).expect("echo thread is alive");
                }
                let mut sum = 0u64;
                for _ in 0..DEPTH {
                    sum += ack_rx.pop().expect("echo thread acks every item");
                }
                sum
            });
            fwd_tx.close();
            echo.join().expect("echo thread exits cleanly");
        });
    }};
}

fn bench_ring_bulk(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring-bulk");
    group.throughput(Throughput::Elements(DEPTH as u64));
    {
        use smbm_runtime::TryPop;
        single_thread_shapes!(group, "lockfree", smbm_runtime::ring);
    }
    {
        use smbm_runtime::reference::TryPop;
        single_thread_shapes!(group, "mutex", smbm_runtime::reference::ring);
    }
    group.finish();
}

fn bench_ring_pingpong(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring-pingpong");
    group.throughput(Throughput::Elements(DEPTH as u64));
    pingpong_shape!(group, "lockfree", smbm_runtime::ring);
    pingpong_shape!(group, "mutex", smbm_runtime::reference::ring);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_ring_bulk, bench_ring_pingpong
}
criterion_main!(benches);
