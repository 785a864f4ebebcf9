//! # smbm-spsc
//!
//! A bounded **lock-free** single-producer/single-consumer ring, built for
//! the live datapath's producer→shard ingress hand-off. It replaces the
//! `Mutex`+`Condvar` ring that every batch crossing a core boundary used to
//! pay a lock round-trip (and a potential futex wake) for; the uncontended
//! push or pop here is a handful of plain loads plus one release store.
//!
//! This crate is the workspace's one `unsafe` crate and quarantines the
//! ring's entire `unsafe` surface: every other crate in the workspace keeps
//! `#![forbid(unsafe_code)]`, and CI runs this crate's test suite under
//! Miri so the slot-ownership protocol below is machine-checked, not just
//! argued.
//!
//! ## Layout
//!
//! Storage is a power-of-two array of [`MaybeUninit`] slots indexed by two
//! monotonically increasing counters: `tail` (next free slot, written only
//! by the producer) and `head` (next occupied slot, written only by the
//! consumer). Each lives on its own cache line (`CachePadded`), and each
//! endpoint keeps a *local cached copy of the other side's counter*, so the
//! uncontended fast path touches one shared cache line (its own counter's),
//! not two: the producer re-reads the shared `head` only when its cached
//! window is exhausted, the consumer re-reads `tail` only when its cached
//! view is empty. The user-facing `capacity` need not be a power of two —
//! occupancy is bounded by `capacity` exactly, storage is merely rounded
//! up.
//!
//! ## Memory ordering
//!
//! The protocol needs exactly two acquire/release pairings (the full
//! argument lives in DESIGN.md §6):
//!
//! * producer `tail.store(Release)` ⇄ consumer `tail.load(Acquire)` —
//!   publishes the slot *writes* before the index advance, so the consumer
//!   never reads an uninitialized slot;
//! * consumer `head.store(Release)` ⇄ producer `head.load(Acquire)` —
//!   publishes the slot *reads* before the index advance, so the producer
//!   never overwrites a slot the consumer is still reading.
//!
//! The `closed` flags piggyback on the same pattern (release store, acquire
//! load, then one re-read of the opposing index to catch items published
//! before the close).
//!
//! ## Blocking and waking
//!
//! Blocking ops spin briefly, then yield, then **park** with a bounded
//! timeout that doubles up to a cap — an idle endpoint sleeps instead of
//! burning a core. Wake-ups are *hints*: the fast path checks the peer's
//! parked flag with one relaxed load and skips the unpark entirely when
//! nobody waits, accepting a narrow store→load race in exchange — a missed
//! wake-up costs at most one park timeout, never correctness. Closing
//! either end notifies through a `fence(SeqCst)`, so shutdown (the path
//! regression tests time) is prompt rather than timeout-bounded.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Spin iterations before a blocking op starts yielding.
const SPINS: usize = if cfg!(miri) { 4 } else { 64 };
/// Yield iterations after spinning, before the first park.
const YIELDS: usize = if cfg!(miri) { 2 } else { 16 };
/// First park timeout; doubles per sleep up to [`PARK_MAX`]. The timeout is
/// what makes the relaxed wake-up hint safe: a lost wake costs one bounded
/// sleep, after which the waiter re-checks the indices itself.
const PARK_MIN: Duration = Duration::from_micros(100);
/// Park timeout cap: an idle endpoint wakes this often to re-check.
const PARK_MAX: Duration = Duration::from_millis(10);

/// Pads and aligns to 128 bytes so `head` and `tail` (and the metadata)
/// never share a cache line — 128 covers the spatial-prefetcher pairing on
/// x86 as well as the plain 64-byte line.
#[repr(align(128))]
struct CachePadded<T> {
    value: T,
}

/// One endpoint's parked-thread slot. The `parked` flag is the wake-up
/// hint the peer's fast path polls with a relaxed load; the `Mutex` is
/// touched only on the park/notify slow paths, never per item.
struct Waiter {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    fn new() -> Self {
        Waiter {
            parked: AtomicBool::new(false),
            thread: Mutex::new(None),
        }
    }

    /// Announces the current thread as about to park. The caller must
    /// re-check its wake condition *after* this (the `SeqCst` store orders
    /// the flag before the re-read) and only then park.
    fn register(&self) {
        *self.thread.lock().unwrap_or_else(|e| e.into_inner()) = Some(thread::current());
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Withdraws the announcement after waking (or deciding not to park).
    /// A wake token banked by a racing [`Waiter::notify`] is left in place;
    /// it only makes some later park return early, which every wait loop
    /// tolerates by re-checking its condition.
    fn unregister(&self) {
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Wakes the registered thread if one announced itself. The `SeqCst`
    /// swap pairs with [`Waiter::register`]'s store so at most one of the
    /// racing sides consumes the flag.
    fn notify(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            let t = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(t) = t {
                t.unpark();
            }
        }
    }

    /// The fast-path hint: skip the whole notify when nobody is parked.
    /// Relaxed is deliberate — see the module docs; the bounded park
    /// timeout makes the narrow miss window a latency blip, not a hang.
    #[inline]
    fn notify_fast(&self) {
        if self.parked.load(Ordering::Relaxed) {
            self.notify();
        }
    }
}

/// The shared ring state. Field order groups the producer-written line
/// (`tail`), the consumer-written line (`head`), and the rarely-written
/// metadata (closed flags, waiters) on lines of their own.
struct Shared<T> {
    /// Next slot the producer will fill. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
    /// Next slot the consumer will drain. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Closed flags and waiters: read every op, written only at shutdown
    /// (flags) or around parks (waiters), so the line stays shared.
    meta: CachePadded<Meta>,
    /// Logical bound on occupancy (`tail - head <= capacity`), exact even
    /// though storage rounds up to a power of two.
    capacity: usize,
    /// `slots.len() - 1`; `slots.len()` is a power of two, so `index &
    /// mask` is `index % slots.len()` even across `usize` wraparound.
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

struct Meta {
    producer_closed: AtomicBool,
    consumer_closed: AtomicBool,
    /// Where a full-ring producer parks; notified by consumer pops/close.
    producer_waiter: Waiter,
    /// Where an empty-ring consumer parks; notified by producer
    /// pushes/close.
    consumer_waiter: Waiter,
}

// SAFETY: the ring moves `T` values across threads (producer writes a
// slot, consumer takes it), so `T: Send` is required and sufficient. The
// `UnsafeCell` slots are not synchronized by the type system but by the
// index protocol: the producer only writes slots in `[tail, head +
// capacity)` and the consumer only reads slots in `[head, tail)`, with the
// acquire/release pairings on `head`/`tail` (module docs) ordering every
// access to a given slot. Handles are unique per side (`Producer` /
// `Consumer` are not `Clone`), and their interior `Cell` caches make them
// `!Sync`, so each side's index is only ever advanced by one thread.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: see above — `&Shared` is shared between exactly the producer and
// consumer handle, and every slot access is ordered by the index protocol.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    /// Writes `item` into the slot for logical index `idx`.
    ///
    /// # Safety
    ///
    /// The caller must be the producer side, and `idx` must lie in the free
    /// window `[tail, head + capacity)`: the consumer never touches those
    /// slots, and any previous occupant was taken out by a consumer read
    /// whose completion the producer observed via an acquire load of
    /// `head`.
    #[inline]
    unsafe fn write_slot(&self, idx: usize, item: T) {
        // SAFETY: `idx & mask < slots.len()` because `mask = slots.len() -
        // 1`; exclusive access per the function contract.
        unsafe {
            (*self.slots.get_unchecked(idx & self.mask).get()).write(item);
        }
    }

    /// Moves the value out of the slot for logical index `idx`.
    ///
    /// # Safety
    ///
    /// The caller must be the consumer side and `idx` must lie in
    /// `[head, tail)` for a `tail` observed with an acquire load: the slot
    /// was initialized by the producer write published by that tail store,
    /// and will not be read again (the caller advances `head` past it,
    /// transferring the slot back to the producer).
    #[inline]
    unsafe fn read_slot(&self, idx: usize) -> T {
        // SAFETY: in-bounds via the mask; initialized and uniquely owned
        // per the function contract.
        unsafe { (*self.slots.get_unchecked(idx & self.mask).get()).assume_init_read() }
    }

    /// Borrows the value in the slot for logical index `idx`.
    ///
    /// # Safety
    ///
    /// Same window as [`Shared::read_slot`] (`idx ∈ [head, tail)` with an
    /// acquired `tail`), and the caller must not advance `head` past `idx`
    /// while the borrow lives. Only the consumer side may call this, so no
    /// concurrent `read_slot` of the same index exists.
    #[inline]
    unsafe fn slot_ref(&self, idx: usize) -> &T {
        // SAFETY: in-bounds via the mask; initialized per the contract, and
        // the producer never writes inside `[head, tail)`.
        unsafe { (*self.slots.get_unchecked(idx & self.mask).get()).assume_init_ref() }
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        if std::mem::needs_drop::<T>() {
            // `&mut self`: both handles are gone, the atomics hold the
            // final indices; everything still queued is initialized and
            // owned by the ring.
            let tail = *self.tail.value.get_mut();
            let mut idx = *self.head.value.get_mut();
            while idx != tail {
                // SAFETY: `[head, tail)` slots are initialized and this is
                // the only remaining owner (see above).
                unsafe {
                    (*self.slots[idx & self.mask].get()).assume_init_drop();
                }
                idx = idx.wrapping_add(1);
            }
        }
    }
}

/// The sending half of a ring, held by exactly one producer thread.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Local copy of `tail` (this handle is its only writer).
    tail: Cell<usize>,
    /// Cached view of the consumer's `head`, refreshed from the shared
    /// atomic only when the free window computed from it is exhausted.
    head: Cell<usize>,
}

/// The receiving half of a ring, held by exactly one consumer thread at a
/// time. Dropping it closes the ring: subsequent pushes fail with
/// [`PushError::Closed`].
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Local copy of `head` (this handle is its only writer).
    head: Cell<usize>,
    /// Cached view of the producer's `tail`, refreshed when empty.
    tail: Cell<usize>,
}

impl<T> fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Producer").finish_non_exhaustive()
    }
}

impl<T> fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Consumer").finish_non_exhaustive()
    }
}

/// A push that did not enqueue, returning the item(s) to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is at capacity (non-blocking pushes only).
    Full(T),
    /// The consumer is gone; the item can never be delivered.
    Closed(T),
}

/// Outcome of a non-blocking pop.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPop<T> {
    /// The oldest queued item.
    Item(T),
    /// Nothing queued right now, but the producer is still alive.
    Empty,
    /// Nothing queued and the producer is gone: end of stream.
    Closed,
}

/// Outcome of a [`Consumer::pop_bulk`]: how many items were claimed with
/// the one index advance, and whether the producer has closed. End of
/// stream is `popped == 0 && closed` — a closed producer's backlog still
/// drains first, exactly as with the scalar [`Consumer::try_pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkPop {
    /// Items appended to the caller's buffer, oldest first.
    pub popped: usize,
    /// The producer is gone; nothing further will ever be queued.
    pub closed: bool,
}

/// Creates a bounded ring holding at most `capacity` items.
///
/// # Panics
///
/// Panics if `capacity` is zero (or absurdly large — the power-of-two
/// slot array must be addressable).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let len = capacity
        .checked_next_power_of_two()
        .expect("ring capacity too large");
    let shared = Arc::new(Shared {
        tail: CachePadded {
            value: AtomicUsize::new(0),
        },
        head: CachePadded {
            value: AtomicUsize::new(0),
        },
        meta: CachePadded {
            value: Meta {
                producer_closed: AtomicBool::new(false),
                consumer_closed: AtomicBool::new(false),
                producer_waiter: Waiter::new(),
                consumer_waiter: Waiter::new(),
            },
        },
        capacity,
        mask: len - 1,
        slots: (0..len)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
    });
    (
        Producer {
            shared: shared.clone(),
            tail: Cell::new(0),
            head: Cell::new(0),
        },
        Consumer {
            shared,
            head: Cell::new(0),
            tail: Cell::new(0),
        },
    )
}

impl<T> Producer<T> {
    #[inline]
    fn meta(&self) -> &Meta {
        &self.shared.meta.value
    }

    /// Free slots by the cached view, refreshing the cache from the shared
    /// `head` (acquire — this is what licenses overwriting drained slots)
    /// only when the cached window is exhausted. The scalar fast path: the
    /// lazy refresh cannot change a `Full`/`Ok` outcome (a zero cached
    /// window always refreshes), so scalar behavior stays exact.
    #[inline]
    fn free_slots(&self) -> usize {
        let used = self.tail.get().wrapping_sub(self.head.get());
        if used < self.shared.capacity {
            return self.shared.capacity - used;
        }
        self.free_slots_refreshed()
    }

    /// Free slots with an unconditional refresh. Bulk ops use this: one
    /// acquire load amortizes over the whole slice, and it keeps the split
    /// point exact — a stale cached window would split a bulk push where a
    /// scalar loop (or the locked oracle) would not.
    #[inline]
    fn free_slots_refreshed(&self) -> usize {
        self.head
            .set(self.shared.head.value.load(Ordering::Acquire));
        self.shared.capacity - self.tail.get().wrapping_sub(self.head.get())
    }

    /// Publishes every slot written up to `new_tail` with one release
    /// store, then wakes a parked consumer (hint only — see module docs).
    #[inline]
    fn publish(&self, new_tail: usize) {
        self.tail.set(new_tail);
        self.shared.tail.value.store(new_tail, Ordering::Release);
        self.meta().consumer_waiter.notify_fast();
    }

    /// Enqueues `item`, blocking while the ring is full.
    ///
    /// A consumer closing mid-wait is observed *promptly*: the closed flag
    /// is re-checked on every wake-up and [`Consumer::close`] notifies
    /// through a sequentially-consistent fence, so a blocked producer
    /// returns [`PushError::Closed`] off the close notification itself,
    /// not after riding out a park timeout. Network ingress threads rely
    /// on this to shut down as soon as their shard's rings close.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] (with the item) once the consumer is
    /// gone; never returns [`PushError::Full`].
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut item = item;
        loop {
            match self.try_push(item) {
                Ok(()) => return Ok(()),
                Err(PushError::Closed(i)) => return Err(PushError::Closed(i)),
                Err(PushError::Full(i)) => {
                    item = i;
                    self.wait_not_full();
                }
            }
        }
    }

    /// Enqueues `item` without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] when the ring is at capacity (this is
    /// the backpressure signal) or [`PushError::Closed`] once the consumer
    /// is gone, handing the item back either way. `Closed` wins when the
    /// ring is both full and closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        if self.meta().consumer_closed.load(Ordering::Acquire) {
            return Err(PushError::Closed(item));
        }
        if self.free_slots() == 0 {
            return Err(PushError::Full(item));
        }
        let tail = self.tail.get();
        // SAFETY: `free_slots() > 0` puts `tail` inside the free window
        // (the acquire load of `head` ordered the consumer's reads of any
        // previous occupant before this overwrite), and this thread is the
        // unique producer.
        unsafe { self.shared.write_slot(tail, item) };
        self.publish(tail.wrapping_add(1));
        Ok(())
    }

    /// Enqueues every item of `items` in order, blocking whenever the ring
    /// is full. Each run of items that fits the current free window is
    /// published with a *single* release store and at most one consumer
    /// wake — this is the bulk counterpart of [`Producer::push`], with
    /// identical per-item semantics: items already enqueued when the
    /// consumer closes stay queued (the shard drains or accounts them).
    ///
    /// Pushed items are drained from the front of `items`, which keeps its
    /// capacity, so a producer that stages every publish in one scratch
    /// vector allocates nothing per publish.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] once the consumer is gone, leaving the
    /// items that did *not* enter the ring in `items`; never returns
    /// [`PushError::Full`].
    pub fn push_bulk(&self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
        while !items.is_empty() {
            if self.meta().consumer_closed.load(Ordering::Acquire) {
                return Err(PushError::Closed(()));
            }
            let free = self.free_slots_refreshed();
            if free == 0 {
                self.wait_not_full();
                continue;
            }
            self.write_run(items, free);
        }
        Ok(())
    }

    /// Enqueues as many leading items of `items` as fit, without blocking,
    /// publishing them with a single release store and draining them from
    /// `items`. Per-item semantics match a [`Producer::try_push`] loop
    /// exactly: the first `k` items enter a ring with `k` free slots and
    /// the rest stay in `items`.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] when some items did not fit, or
    /// [`PushError::Closed`] once the consumer is gone ([`PushError::Closed`]
    /// wins when the ring is both full and closed, as with the scalar op);
    /// either way the items that did not enter the ring stay in `items`.
    pub fn try_push_bulk(&self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
        if items.is_empty() {
            return Ok(());
        }
        if self.meta().consumer_closed.load(Ordering::Acquire) {
            return Err(PushError::Closed(()));
        }
        let free = self.free_slots_refreshed();
        if free == 0 {
            return Err(PushError::Full(()));
        }
        self.write_run(items, free);
        if items.is_empty() {
            Ok(())
        } else {
            Err(PushError::Full(()))
        }
    }

    /// Moves the leading `min(free, len)` items of `items` into the free
    /// window and publishes them with one release store. `free` must come
    /// from [`Producer::free_slots_refreshed`] (or be smaller) and be
    /// non-zero, and `items` non-empty.
    #[inline]
    fn write_run(&self, items: &mut Vec<T>, free: usize) {
        let tail = self.tail.get();
        let n = free.min(items.len());
        for (k, item) in items.drain(..n).enumerate() {
            // SAFETY: `k < n <= free` keeps `tail + k` inside the free
            // window observed by `free_slots_refreshed`; unique producer.
            unsafe { self.shared.write_slot(tail.wrapping_add(k), item) };
        }
        self.publish(tail.wrapping_add(n));
    }

    /// Marks the stream finished. Queued items stay poppable; afterwards
    /// the consumer sees end-of-stream. Also performed on drop.
    pub fn close(&self) {
        self.meta().producer_closed.store(true, Ordering::Release);
        // Shutdown must be prompt, not timeout-bounded: the fence orders
        // the flag store before the parked-flag read inside notify.
        fence(Ordering::SeqCst);
        self.meta().consumer_waiter.notify();
    }

    /// Spin → yield → park (bounded, escalating) until the ring has room
    /// or the consumer closed. Wake-ups are hints; the park timeout is the
    /// liveness guarantee.
    fn wait_not_full(&self) {
        let meta = self.meta();
        let tail = self.tail.get();
        let mut rounds = 0usize;
        let mut park = PARK_MIN;
        loop {
            self.head
                .set(self.shared.head.value.load(Ordering::Acquire));
            if tail.wrapping_sub(self.head.get()) < self.shared.capacity
                || meta.consumer_closed.load(Ordering::Acquire)
            {
                return;
            }
            if rounds < SPINS {
                std::hint::spin_loop();
            } else if rounds < SPINS + YIELDS {
                thread::yield_now();
            } else {
                meta.producer_waiter.register();
                // Order the parked-flag store before the condition
                // re-read; pairs with the peer's store→hint-load sequence.
                fence(Ordering::SeqCst);
                if tail.wrapping_sub(self.shared.head.value.load(Ordering::Relaxed))
                    < self.shared.capacity
                    || meta.consumer_closed.load(Ordering::Relaxed)
                {
                    meta.producer_waiter.unregister();
                    continue;
                }
                thread::park_timeout(park);
                meta.producer_waiter.unregister();
                park = (park * 2).min(PARK_MAX);
            }
            rounds += 1;
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> Consumer<T> {
    #[inline]
    fn meta(&self) -> &Meta {
        &self.shared.meta.value
    }

    /// Items visible by the cached view, refreshing the cache from the
    /// shared `tail` (acquire — this is what licenses reading the slots)
    /// only when the cached view is empty.
    #[inline]
    fn available(&self) -> usize {
        let avail = self.tail.get().wrapping_sub(self.head.get());
        if avail > 0 {
            return avail;
        }
        self.tail
            .set(self.shared.tail.value.load(Ordering::Acquire));
        self.tail.get().wrapping_sub(self.head.get())
    }

    /// Retires every slot read up to `new_head` with one release store,
    /// then wakes a parked producer (hint only).
    #[inline]
    fn advance(&self, new_head: usize) {
        self.head.set(new_head);
        self.shared.head.value.store(new_head, Ordering::Release);
        self.meta().producer_waiter.notify_fast();
    }

    /// Dequeues the oldest item, blocking while the ring is empty. Returns
    /// `None` only when the ring is empty *and* the producer is gone.
    pub fn pop(&self) -> Option<T> {
        loop {
            match self.try_pop() {
                TryPop::Item(item) => return Some(item),
                TryPop::Closed => return None,
                TryPop::Empty => self.wait_not_empty(None),
            }
        }
    }

    /// Dequeues the oldest item without blocking.
    pub fn try_pop(&self) -> TryPop<T> {
        if self.available() == 0 {
            if !self.meta().producer_closed.load(Ordering::Acquire) {
                return TryPop::Empty;
            }
            // Closed — but items published *before* the close may not have
            // been in the cached view; one acquire re-read catches them.
            self.tail
                .set(self.shared.tail.value.load(Ordering::Acquire));
            if self.tail.get() == self.head.get() {
                return TryPop::Closed;
            }
        }
        let head = self.head.get();
        // SAFETY: `head < tail` for an acquired `tail`, so the slot is
        // initialized; this thread is the unique consumer and advances
        // `head` past the slot right after.
        let item = unsafe { self.shared.read_slot(head) };
        self.advance(head.wrapping_add(1));
        TryPop::Item(item)
    }

    /// Dequeues up to `max` items into `out` (appending, oldest first)
    /// without blocking — the whole visible backlog is claimed with a
    /// *single* index advance, the bulk counterpart of a
    /// [`Consumer::try_pop`] loop. The returned [`BulkPop`] carries the
    /// count and whether the producer has closed; end of stream is
    /// `popped == 0 && closed`.
    pub fn pop_bulk(&self, out: &mut Vec<T>, max: usize) -> BulkPop {
        // Bulk claims refresh `tail` unconditionally: one acquire load
        // amortizes over the whole batch, and it keeps the claim exact —
        // a stale cached view would under-claim where the locked oracle
        // (and a scalar `try_pop` loop) would not.
        self.tail
            .set(self.shared.tail.value.load(Ordering::Acquire));
        let mut avail = self.tail.get().wrapping_sub(self.head.get());
        let closed = self.meta().producer_closed.load(Ordering::Acquire);
        if avail == 0 {
            if !closed {
                return BulkPop {
                    popped: 0,
                    closed: false,
                };
            }
            // Items published *before* the close may have landed after the
            // refresh above; one more acquire re-read catches them.
            self.tail
                .set(self.shared.tail.value.load(Ordering::Acquire));
            avail = self.tail.get().wrapping_sub(self.head.get());
            if avail == 0 {
                return BulkPop {
                    popped: 0,
                    closed: true,
                };
            }
        }
        let take = avail.min(max);
        let head = self.head.get();
        out.reserve(take);
        let base = out.len();
        // SAFETY: the `take` slots starting at `head` are inside
        // `[head, tail)` for an acquired `tail` (initialized, consumer-
        // owned); `out` reserved room for `take` more items, and `set_len`
        // only covers slots actually written.
        unsafe {
            let dst = out.as_mut_ptr().add(base);
            for i in 0..take {
                dst.add(i)
                    .write(self.shared.read_slot(head.wrapping_add(i)));
            }
            out.set_len(base + take);
        }
        self.advance(head.wrapping_add(take));
        BulkPop {
            popped: take,
            closed,
        }
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.shared
            .tail
            .value
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.get())
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every queued item without dequeuing, oldest first. The
    /// supervisor uses this to count a dead shard's orphaned backlog.
    pub fn peek<F: FnMut(&T)>(&self, mut f: F) {
        let head = self.head.get();
        let tail = self.shared.tail.value.load(Ordering::Acquire);
        let mut idx = head;
        while idx != tail {
            // SAFETY: `idx ∈ [head, tail)` with `tail` acquired; `head` is
            // not advanced while the borrow lives (this thread holds the
            // unique consumer handle and is busy here).
            f(unsafe { self.shared.slot_ref(idx) });
            idx = idx.wrapping_add(1);
        }
    }

    /// Blocks until the ring is non-empty, the producer has closed, or
    /// `timeout` (when given) elapses — spinning briefly, then yielding,
    /// then parking. Returns `true` when there is something to observe
    /// (data or end-of-stream), `false` on timeout.
    ///
    /// This is the idle-shard primitive: a freerun shard with an empty
    /// buffer parks here instead of spinning through empty polls.
    pub fn wait_nonempty(&self, timeout: Option<Duration>) -> bool {
        if self.available() > 0 || self.meta().producer_closed.load(Ordering::Acquire) {
            return true;
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        self.wait_not_empty(deadline);
        self.available() > 0 || self.meta().producer_closed.load(Ordering::Acquire)
    }

    /// Spin → yield → park (bounded, escalating) until data arrives, the
    /// producer closes, or `deadline` passes.
    fn wait_not_empty(&self, deadline: Option<Instant>) {
        let meta = self.meta();
        let head = self.head.get();
        let mut rounds = 0usize;
        let mut park = PARK_MIN;
        loop {
            let tail = self.shared.tail.value.load(Ordering::Acquire);
            if tail != head {
                self.tail.set(tail);
                return;
            }
            if meta.producer_closed.load(Ordering::Acquire) {
                return;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return;
                }
            }
            if rounds < SPINS {
                std::hint::spin_loop();
            } else if rounds < SPINS + YIELDS {
                thread::yield_now();
            } else {
                meta.consumer_waiter.register();
                // Order the parked-flag store before the condition
                // re-read; pairs with the peer's store→hint-load sequence.
                fence(Ordering::SeqCst);
                if self.shared.tail.value.load(Ordering::Relaxed) != head
                    || meta.producer_closed.load(Ordering::Relaxed)
                {
                    meta.consumer_waiter.unregister();
                    continue;
                }
                let mut sleep = park;
                if let Some(d) = deadline {
                    sleep = sleep.min(d.saturating_duration_since(Instant::now()));
                }
                thread::park_timeout(sleep);
                meta.consumer_waiter.unregister();
                park = (park * 2).min(PARK_MAX);
            }
            rounds += 1;
        }
    }

    /// Abandons the stream: subsequent pushes fail with
    /// [`PushError::Closed`]. Also performed on drop. Already-queued items
    /// stay poppable (and are freed with the ring otherwise).
    pub fn close(&self) {
        self.meta().consumer_closed.store(true, Ordering::Release);
        // Prompt shutdown for a blocked producer — same fence rationale as
        // `Producer::close`.
        fence(Ordering::SeqCst);
        self.meta().producer_waiter.notify();
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Scaled-down iteration counts so the Miri run stays minutes, not
    /// hours, while the native run keeps real pressure.
    const SOAK: u32 = if cfg!(miri) { 300 } else { 10_000 };

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = ring(4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.try_pop(), TryPop::Item(2));
        assert_eq!(rx.try_pop(), TryPop::Empty);
        assert!(rx.is_empty());
    }

    #[test]
    fn capacity_is_exact_even_when_not_a_power_of_two() {
        let (tx, rx) = ring(5);
        for i in 0..5 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(5), Err(PushError::Full(5)));
        assert_eq!(rx.pop(), Some(0));
        tx.try_push(5).unwrap();
        assert_eq!(tx.try_push(6), Err(PushError::Full(6)));
        let mut out = Vec::new();
        rx.pop_bulk(&mut out, usize::MAX);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn indices_survive_many_wraparounds() {
        let (tx, rx) = ring(3);
        for i in 0..SOAK as u64 {
            tx.push(i).unwrap();
            assert_eq!(rx.pop(), Some(i));
        }
    }

    #[test]
    fn closed_producer_drains_then_ends() {
        let (tx, rx) = ring(4);
        tx.push(7).unwrap();
        drop(tx);
        assert_eq!(rx.pop(), Some(7));
        assert_eq!(rx.pop(), None);
        assert_eq!(rx.try_pop(), TryPop::Closed);
    }

    #[test]
    fn closed_consumer_rejects_pushes() {
        let (tx, rx) = ring(4);
        drop(rx);
        assert_eq!(tx.push(1), Err(PushError::Closed(1)));
        assert_eq!(tx.try_push(2), Err(PushError::Closed(2)));
    }

    #[test]
    fn closed_wins_over_full() {
        let (tx, rx) = ring(1);
        tx.try_push(1).unwrap();
        assert_eq!(tx.try_push(2), Err(PushError::Full(2)));
        drop(rx);
        assert_eq!(tx.try_push(3), Err(PushError::Closed(3)));
        let mut items = vec![4, 5];
        assert_eq!(tx.try_push_bulk(&mut items), Err(PushError::Closed(())));
        assert_eq!(items, vec![4, 5]);
    }

    #[test]
    fn blocking_push_wakes_on_pop() {
        let (tx, rx) = ring(1);
        tx.push(1).unwrap();
        let h = thread::spawn(move || tx.push(2));
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn blocking_pop_wakes_on_close() {
        let (tx, rx) = ring::<u32>(1);
        let h = thread::spawn(move || rx.pop());
        thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn blocked_full_push_fails_when_consumer_drops() {
        let (tx, rx) = ring(1);
        tx.push(1).unwrap();
        let h = thread::spawn(move || tx.push(2));
        thread::sleep(Duration::from_millis(10));
        drop(rx);
        assert_eq!(h.join().unwrap(), Err(PushError::Closed(2)));
    }

    #[test]
    fn push_bulk_publishes_fifo_and_pop_bulk_claims() {
        let (tx, rx) = ring(8);
        let mut items: Vec<u32> = (0..5).collect();
        tx.push_bulk(&mut items).unwrap();
        assert!(items.is_empty());
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
        let (tx, _rx) = ring::<u32>(1);
        tx.push(1).unwrap();
        tx.push_bulk(&mut Vec::new()).unwrap();
    }

    #[test]
    fn try_push_bulk_splits_at_the_free_window() {
        let (tx, rx) = ring(4);
        let mut items: Vec<u32> = (0..7).collect();
        assert_eq!(tx.try_push_bulk(&mut items), Err(PushError::Full(())));
        assert_eq!(items, vec![4, 5, 6]);
        let mut out = Vec::new();
        rx.pop_bulk(&mut out, usize::MAX);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pop_bulk_respects_max_and_reports_close() {
        let (tx, rx) = ring(8);
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
        assert_eq!(
            rx.pop_bulk(&mut out, 2),
            BulkPop {
                popped: 0,
                closed: true
            }
        );
    }

    #[test]
    fn peek_counts_without_dequeuing() {
        let (tx, rx) = ring(4);
        tx.push(10).unwrap();
        tx.push(20).unwrap();
        let mut seen = Vec::new();
        rx.peek(|&v| seen.push(v));
        assert_eq!(seen, vec![10, 20]);
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn wait_nonempty_times_out_then_observes_data() {
        let (tx, rx) = ring(4);
        assert!(!rx.wait_nonempty(Some(Duration::from_millis(1))));
        tx.push(1).unwrap();
        assert!(rx.wait_nonempty(Some(Duration::from_millis(1))));
        assert_eq!(rx.pop(), Some(1));
        drop(tx);
        // Closed counts as observable (end-of-stream), not a timeout.
        assert!(rx.wait_nonempty(None));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ring::<u32>(0);
    }

    #[test]
    fn works_with_zero_sized_types() {
        let (tx, rx) = ring::<()>(3);
        tx.push(()).unwrap();
        tx.push_bulk(&mut vec![(), ()]).unwrap();
        assert_eq!(tx.try_push(()), Err(PushError::Full(())));
        let mut out = Vec::new();
        assert_eq!(rx.pop_bulk(&mut out, 8).popped, 3);
    }

    /// Counts live instances so leaks and double-drops both fail loudly
    /// (Miri additionally catches the double-drop as UB).
    #[derive(Debug)]
    struct Token(Arc<AtomicU64>);
    impl Token {
        fn new(live: &Arc<AtomicU64>) -> Self {
            live.fetch_add(1, Ordering::Relaxed);
            Token(live.clone())
        }
    }
    impl Drop for Token {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn queued_items_drop_exactly_once_with_the_ring() {
        let live = Arc::new(AtomicU64::new(0));
        let (tx, rx) = ring(4);
        for _ in 0..3 {
            tx.push(Token::new(&live)).unwrap();
        }
        assert_eq!(live.load(Ordering::Relaxed), 3);
        drop(rx.pop());
        assert_eq!(live.load(Ordering::Relaxed), 2);
        drop(tx);
        drop(rx);
        assert_eq!(live.load(Ordering::Relaxed), 0, "ring drop frees the rest");
    }

    #[test]
    fn rejected_items_hand_ownership_back() {
        let live = Arc::new(AtomicU64::new(0));
        let (tx, rx) = ring(1);
        tx.push(Token::new(&live)).unwrap();
        let r = tx.try_push(Token::new(&live));
        assert!(matches!(r, Err(PushError::Full(_))));
        drop(r);
        drop(rx);
        let r = tx.push(Token::new(&live));
        assert!(matches!(r, Err(PushError::Closed(_))));
        drop(r);
        drop(tx);
        assert_eq!(live.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_scalar_stream_arrives_in_order() {
        let (tx, rx) = ring(7);
        let h = thread::spawn(move || {
            for i in 0..SOAK as u64 {
                tx.push(i).unwrap();
            }
        });
        for i in 0..SOAK as u64 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        h.join().unwrap();
    }

    #[test]
    fn concurrent_bulk_stream_matches_the_scalar_sequence() {
        let total: u64 = SOAK as u64;
        let (tx, rx) = ring(7);
        let h = thread::spawn(move || {
            let mut next = 0u64;
            let mut size = 1usize;
            while next < total {
                let end = (next + size as u64).min(total);
                tx.push_bulk(&mut (next..end).collect()).unwrap();
                next = end;
                size = size % 13 + 1;
            }
        });
        let mut got: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        loop {
            out.clear();
            let r = rx.pop_bulk(&mut out, 5);
            got.extend(&out);
            if r.popped == 0 {
                if r.closed {
                    break;
                }
                rx.wait_nonempty(None);
            }
        }
        h.join().unwrap();
        assert_eq!(got.len() as u64, total);
        assert!(
            got.windows(2).all(|w| w[0] + 1 == w[1]),
            "in order, no gaps"
        );
    }

    #[test]
    fn midstream_consumer_close_bounds_the_stranded_items() {
        let (tx, rx) = ring(4);
        let h = thread::spawn(move || {
            let mut accepted = 0u64;
            loop {
                match tx.push(accepted) {
                    Ok(()) => accepted += 1,
                    Err(PushError::Closed(_)) => return accepted,
                    Err(PushError::Full(_)) => unreachable!(),
                }
            }
        });
        let mut popped = 0u64;
        while popped < SOAK as u64 / 10 {
            if let TryPop::Item(v) = rx.try_pop() {
                assert_eq!(v, popped);
                popped += 1;
            }
        }
        rx.close();
        let accepted = h.join().unwrap();
        // Whatever the producer got in but we never popped is still in the
        // ring (freed on drop), and is bounded by its capacity.
        assert!(
            accepted - popped <= 4,
            "{accepted} accepted, {popped} popped"
        );
    }
}
