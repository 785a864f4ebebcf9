//! Bounded SPSC ingress rings.
//!
//! One producer thread feeds one shard through each ring; items move at
//! *batch* granularity. The live implementation is `smbm-spsc`'s lock-free
//! ring (cache-padded atomic indices, bulk publishes with a single release
//! store, spin-then-park blocking) re-exported verbatim — this crate stays
//! `#![forbid(unsafe_code)]`; all of the ring's `unsafe` lives in that one
//! crate, under Miri in CI.
//!
//! Either endpoint closes the ring when dropped. A closed producer lets the
//! consumer drain everything already queued before seeing end-of-stream —
//! this is the shutdown path, and it also makes producer *panics* safe: the
//! unwinding thread drops its [`Producer`], the shard drains the remaining
//! batches, and joins normally. (Shard-side panic survival works the other
//! way around: the supervisor *owns* the consumers and incarnations only
//! borrow them, so an unwinding incarnation never drops — and thus never
//! closes — the rings; see `runtime::supervise_shard`.)
//!
//! The previous `Mutex`+`Condvar` implementation lives on as
//! [`mod@reference`]: same contract, trivially-auditable internals. The
//! differential suite in `tests/ring_suite.rs` runs both implementations
//! through one generic test body plus randomized op sequences, pinning the
//! lock-free ring's observable behavior to the oracle's.

pub use smbm_spsc::{ring, BulkPop, Consumer, Producer, PushError, TryPop};

/// The original `Mutex`+`Condvar` ring, kept as the behavioral oracle for
/// the lock-free implementation.
///
/// Same observable contract as the re-exported lock-free ring — per-item
/// [`PushError::Full`]/[`PushError::Closed`] outcomes (with `Closed`
/// winning when a ring is both), drain-on-close, prompt close observation
/// mid-blocking-push, identical bulk split points — expressed with a
/// single lock and two condvars so the implementation is trivially
/// auditable. Not used on any live path; the differential suite drives it
/// and the lock-free ring through the same operation sequences and demands
/// identical outcomes, and the bench suite keeps it around to measure what
/// removing the lock bought.
pub mod reference {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    pub use smbm_spsc::{BulkPop, PushError, TryPop};

    struct State<T> {
        queue: VecDeque<T>,
        producer_closed: bool,
        consumer_closed: bool,
    }

    struct Shared<T> {
        capacity: usize,
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        /// Locks the state, tolerating poison: a panic elsewhere must not
        /// wedge the shutdown path (counter state is plain data, always
        /// consistent).
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// The sending half of a ring, held by exactly one producer thread.
    pub struct Producer<T>(Arc<Shared<T>>);

    /// The receiving half of a ring, held by exactly one consumer thread.
    /// Dropping it closes the ring.
    pub struct Consumer<T>(Arc<Shared<T>>);

    /// Creates a bounded ring holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
        assert!(capacity > 0, "ring capacity must be positive");
        let shared = Arc::new(Shared {
            capacity,
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                producer_closed: false,
                consumer_closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Producer(shared.clone()), Consumer(shared))
    }

    impl<T> Producer<T> {
        /// Enqueues `item`, blocking while the ring is full. See the
        /// lock-free [`smbm_spsc::Producer::push`] for the contract.
        ///
        /// # Errors
        ///
        /// Returns [`PushError::Closed`] (with the item) once the consumer
        /// is gone; never returns [`PushError::Full`].
        pub fn push(&self, item: T) -> Result<(), PushError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.consumer_closed {
                    return Err(PushError::Closed(item));
                }
                if st.queue.len() < self.0.capacity {
                    st.queue.push_back(item);
                    drop(st);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                st = self.0.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Enqueues `item` without blocking.
        ///
        /// # Errors
        ///
        /// Returns [`PushError::Full`] at capacity or [`PushError::Closed`]
        /// once the consumer is gone (`Closed` wins when both hold).
        pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
            let mut st = self.0.lock();
            if st.consumer_closed {
                return Err(PushError::Closed(item));
            }
            if st.queue.len() >= self.0.capacity {
                return Err(PushError::Full(item));
            }
            st.queue.push_back(item);
            drop(st);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Enqueues every item of `items` in order, blocking whenever the
        /// ring is full; each run that fits is published under one lock
        /// round-trip and drained from `items`.
        ///
        /// # Errors
        ///
        /// Returns [`PushError::Closed`] once the consumer is gone, with
        /// the unpushed remainder left in `items`; never returns
        /// [`PushError::Full`].
        pub fn push_bulk(&self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
            if items.is_empty() {
                return Ok(());
            }
            let mut st = self.0.lock();
            loop {
                if st.consumer_closed {
                    return Err(PushError::Closed(()));
                }
                let n = (self.0.capacity - st.queue.len()).min(items.len());
                st.queue.extend(items.drain(..n));
                if n > 0 {
                    self.0.not_empty.notify_one();
                }
                if items.is_empty() {
                    return Ok(());
                }
                st = self.0.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Enqueues as many leading items of `items` as fit, without
        /// blocking, in one lock round-trip, draining them from `items`.
        ///
        /// # Errors
        ///
        /// Returns [`PushError::Full`] when some items did not fit, or
        /// [`PushError::Closed`] once the consumer is gone (`Closed` wins
        /// when both hold); the items that did not enter the ring stay in
        /// `items`.
        pub fn try_push_bulk(&self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
            if items.is_empty() {
                return Ok(());
            }
            let mut st = self.0.lock();
            if st.consumer_closed {
                return Err(PushError::Closed(()));
            }
            let n = (self.0.capacity - st.queue.len()).min(items.len());
            st.queue.extend(items.drain(..n));
            drop(st);
            if n > 0 {
                self.0.not_empty.notify_one();
            }
            if items.is_empty() {
                Ok(())
            } else {
                Err(PushError::Full(()))
            }
        }

        /// Marks the stream finished. Queued items stay poppable;
        /// afterwards the consumer sees end-of-stream. Also on drop.
        pub fn close(&self) {
            let mut st = self.0.lock();
            st.producer_closed = true;
            drop(st);
            self.0.not_empty.notify_all();
            self.0.not_full.notify_all();
        }
    }

    impl<T> Drop for Producer<T> {
        fn drop(&mut self) {
            self.close();
        }
    }

    impl<T> Consumer<T> {
        /// Dequeues the oldest item, blocking while the ring is empty.
        /// Returns `None` only when empty *and* the producer is gone.
        pub fn pop(&self) -> Option<T> {
            let mut st = self.0.lock();
            loop {
                if let Some(item) = st.queue.pop_front() {
                    drop(st);
                    self.0.not_full.notify_one();
                    return Some(item);
                }
                if st.producer_closed {
                    return None;
                }
                st = self.0.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Dequeues the oldest item without blocking.
        pub fn try_pop(&self) -> TryPop<T> {
            let mut st = self.0.lock();
            if let Some(item) = st.queue.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return TryPop::Item(item);
            }
            if st.producer_closed {
                TryPop::Closed
            } else {
                TryPop::Empty
            }
        }

        /// Dequeues up to `max` items into `out` (appending, oldest first)
        /// without blocking, in one lock round-trip. End of stream is
        /// `popped == 0 && closed`.
        pub fn pop_bulk(&self, out: &mut Vec<T>, max: usize) -> BulkPop {
            let mut st = self.0.lock();
            let take = st.queue.len().min(max);
            out.reserve(take);
            for _ in 0..take {
                // `take` is bounded by the queue length read under this
                // same lock, so the pops cannot miss.
                if let Some(item) = st.queue.pop_front() {
                    out.push(item);
                }
            }
            let closed = st.producer_closed;
            drop(st);
            if take > 0 {
                self.0.not_full.notify_one();
            }
            BulkPop {
                popped: take,
                closed,
            }
        }

        /// Items currently queued.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// True when nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Visits every queued item without dequeuing, oldest first.
        pub fn peek<F: FnMut(&T)>(&self, mut f: F) {
            let st = self.0.lock();
            for item in st.queue.iter() {
                f(item);
            }
        }

        /// Blocks until the ring is non-empty, the producer has closed, or
        /// `timeout` (when given) elapses. Returns `true` when there is
        /// something to observe (data or end-of-stream), `false` on
        /// timeout.
        pub fn wait_nonempty(&self, timeout: Option<Duration>) -> bool {
            let deadline = timeout.map(|t| Instant::now() + t);
            let mut st = self.0.lock();
            loop {
                if !st.queue.is_empty() || st.producer_closed {
                    return true;
                }
                match deadline {
                    None => {
                        st = self.0.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return false;
                        }
                        st = self
                            .0
                            .not_empty
                            .wait_timeout(st, d - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                    }
                }
            }
        }

        /// Abandons the stream: subsequent pushes fail with
        /// [`PushError::Closed`]. Also on drop.
        pub fn close(&self) {
            let mut st = self.0.lock();
            st.consumer_closed = true;
            drop(st);
            self.0.not_empty.notify_all();
            self.0.not_full.notify_all();
        }
    }

    impl<T> Drop for Consumer<T> {
        fn drop(&mut self) {
            self.close();
        }
    }
}
