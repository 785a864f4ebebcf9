//! Incremental argmax index over per-port policy scores.
//!
//! The score-based push-out policies (LQD, LWD, AWD, MRD, MVD, WVD) select
//! a victim queue as the lexicographic maximum of `(score, tie, port)` over
//! all ports, so the later port wins exact ties.
//! [`ScoreIndex`] maintains that maximum incrementally: the switch reports
//! which queues changed after each event (see `ValueSwitch::drain_dirty_into`
//! and friends), the policy recomputes just those ports' keys, and victim
//! selection replaces the O(n) scan with a tournament-tree query: O(1)
//! unless the arrival owns the current maximum, an O(log n) walk otherwise;
//! index repair costs O(log n) per changed port.
//!
//! The structure is a flat complete binary tree (`2m` slots for `m =
//! ports.next_power_of_two()`): leaves hold `Option<(key, port)>`, internal
//! nodes the maximum of their children. `Option`'s derived ordering makes
//! absent ports (`None`) lose to every present key, and including the port
//! number in the tuple resolves ties toward the larger index for free —
//! exactly the scans' semantics. Updates rewrite one root-to-leaf path
//! (~log₂ n small array writes, no allocation). A virtual-add query compares
//! the arrival's key with the root when another port holds the root, and
//! walks one sibling path only when the arriving port holds it; so even the
//! per-slot storm of queue-change events after a transmission phase stays
//! cheap, and the common full-buffer drop costs one comparison.
//!
//! [`ArgMax`] is the one victim selector every indexed push-out policy
//! shares: the policy supplies its per-port key and the arrival's virtual
//! key, and the selector picks the index or a plain scan by port count.
//! Independent scan oracles for each policy live with the differential
//! tests (`tests/common/`, driven by `tests/slab_differential.rs`).

use smbm_switch::PortId;

/// Port count below which the scan beats the index: updating the tree on
/// every queue-change event costs more than an 8- or 16-entry linear scan
/// whose whole working set is two cache lines.
const INDEX_MIN_PORTS: usize = 32;

/// The arg-max victim selector of a push-out policy.
///
/// A policy describes each port by an optional key (`None`: the port does
/// not take part) and asks for the port with the lexicographically maximal
/// `(key, port)` pair, so exact key ties go to the larger port index. On a
/// switch with at least [`INDEX_MIN_PORTS`] ports the selector keeps a
/// lazily built [`ScoreIndex`] over the keys, repaired from the switch's
/// queue-change events ([`ArgMax::changed`]); below that it folds `key`
/// over every port.
#[derive(Debug, Clone)]
pub(crate) struct ArgMax<K: Ord + Copy> {
    index: Option<ScoreIndex<K>>,
    /// Keeps the index at every port count (the selector's own tests).
    #[cfg(test)]
    forced: bool,
}

impl<K: Ord + Copy> Default for ArgMax<K> {
    fn default() -> Self {
        ArgMax {
            index: None,
            #[cfg(test)]
            forced: false,
        }
    }
}

impl<K: Ord + Copy> ArgMax<K> {
    /// Whether a switch with `ports` ports should report queue-change events
    /// to the selector: exactly when it selects through the index.
    #[inline]
    pub(crate) fn wants_events(&self, ports: usize) -> bool {
        #[cfg(test)]
        if self.forced {
            return true;
        }
        ports >= INDEX_MIN_PORTS
    }

    /// Refreshes the keys of the `dirty` ports, if the index is built for a
    /// switch with `ports` ports: point updates for small batches, one
    /// bottom-up [`ScoreIndex::rebuild_with`] when at least half the ports
    /// changed (the post-transmission storm in a congested switch).
    pub(crate) fn changed(
        &mut self,
        ports: usize,
        dirty: &[PortId],
        mut key: impl FnMut(PortId) -> Option<K>,
    ) {
        let Some(idx) = self.index.as_mut().filter(|i| i.ports() == ports) else {
            return;
        };
        if dirty.len() * 2 >= ports {
            idx.rebuild_with(&mut key);
        } else {
            for &p in dirty {
                idx.set(p, key(p));
            }
        }
    }

    /// The index, built from `key` when absent or sized for another switch.
    fn built(&mut self, ports: usize, mut key: impl FnMut(PortId) -> Option<K>) -> &ScoreIndex<K> {
        if self.index.as_ref().is_none_or(|i| i.ports() != ports) {
            let mut idx = ScoreIndex::new(ports);
            idx.rebuild_with(&mut key);
            self.index = Some(idx);
        }
        self.index.as_ref().expect("index built above")
    }

    /// The arg-max port once `arriving`'s key is virtually replaced by
    /// `virtual_key` (see [`ScoreIndex::max_with`]).
    #[inline]
    pub(crate) fn argmax_with(
        &mut self,
        ports: usize,
        mut key: impl FnMut(PortId) -> Option<K>,
        arriving: PortId,
        virtual_key: K,
    ) -> PortId {
        if self.wants_events(ports) {
            return self.built(ports, key).max_with(arriving, virtual_key);
        }
        scan(ports, |p| {
            if p == arriving {
                Some(virtual_key)
            } else {
                key(p)
            }
        })
        .expect("the arriving port takes part")
        .0
    }

    /// The arg-max port over the resident keys, with its key; `None` when no
    /// port takes part.
    #[inline]
    pub(crate) fn argmax(
        &mut self,
        ports: usize,
        key: impl FnMut(PortId) -> Option<K>,
    ) -> Option<(PortId, K)> {
        if self.wants_events(ports) {
            let idx = self.built(ports, key);
            let port = idx.max()?;
            return Some((port, idx.key(port).expect("the maximum has a key")));
        }
        scan(ports, key)
    }
}

/// The lexicographic maximum of `(key, port)` over ports `0..ports`, skipping
/// ports whose key is `None`.
#[inline]
fn scan<K: Ord + Copy>(
    ports: usize,
    mut key: impl FnMut(PortId) -> Option<K>,
) -> Option<(PortId, K)> {
    let mut best: Option<(PortId, K)> = None;
    // `ports` is a switch's port count, which its configuration caps at
    // `u32::MAX`: the cast is exact.
    for port in (0..ports as u32).map(PortId::from_u32) {
        if let Some(k) = key(port) {
            // Ports come in increasing order, so "at least the best" hands
            // exact ties to the larger index. `cmp` rather than `>=`: on
            // tuple keys it compiles to fewer branches, and MVD's scan at
            // 8 ports ran about 10% slower with `>=`.
            if best.is_none_or(|(_, b)| k.cmp(&b).is_ge()) {
                best = Some((port, k));
            }
        }
    }
    best
}

/// An incrementally-maintained argmax over per-port keys.
///
/// `K` packs a policy's `(score, tie)` pair into one [`Ord`] value. The index
/// stores at most one key per port; ports without a key (empty queues, for
/// policies that skip them) are simply absent. [`max`](Self::max) and
/// [`max_with`](Self::max_with) resolve ties toward the larger port index,
/// mirroring the `>=` update rule of the replaced scan loops.
#[derive(Debug, Clone)]
pub(crate) struct ScoreIndex<K: Ord + Copy> {
    /// 1-indexed tournament tree; `tree[1]` is the overall maximum and the
    /// leaf for port `i` lives at `leaf_base + i`.
    tree: Vec<Option<(K, u32)>>,
    leaf_base: usize,
    ports: usize,
}

impl<K: Ord + Copy> ScoreIndex<K> {
    /// Creates an empty index for `ports` ports.
    fn new(ports: usize) -> Self {
        let m = ports.next_power_of_two().max(1);
        ScoreIndex {
            tree: vec![None; 2 * m],
            leaf_base: m,
            ports,
        }
    }

    /// Number of ports the index was built for.
    fn ports(&self) -> usize {
        self.ports
    }

    /// Sets (or clears, with `None`) the key of `port`.
    fn set(&mut self, port: PortId, key: Option<K>) {
        let i = port.index();
        let entry = key.map(|k| (k, port.as_u32()));
        let mut node = self.leaf_base + i;
        if self.tree[node] == entry {
            return;
        }
        self.tree[node] = entry;
        while node > 1 {
            node /= 2;
            let merged = self.tree[2 * node].max(self.tree[2 * node + 1]);
            if self.tree[node] == merged {
                break;
            }
            self.tree[node] = merged;
        }
    }

    /// The current key of `port`, if any.
    fn key(&self, port: PortId) -> Option<K> {
        self.tree[self.leaf_base + port.index()].map(|(k, _)| k)
    }

    /// The port with the lexicographically maximal `(key, port)` pair.
    fn max(&self) -> Option<PortId> {
        self.tree[1].map(|(_, p)| PortId::from_u32(p))
    }

    /// The argmax when `port`'s key is virtually replaced by `virtual_key`
    /// (the "virtual add" of an arrival that has not been admitted yet).
    ///
    /// Equivalent to a scan in which `port` contributes `virtual_key` and
    /// every other port contributes its stored key; ports with no stored key
    /// do not participate. Ties go to the larger port index.
    ///
    /// The short-circuit compares plain `(key, port)` pairs read out of the
    /// root, so the full-buffer check of every arrival stays in registers
    /// instead of building and re-reading an `Option` tuple.
    fn max_with(&self, port: PortId, virtual_key: K) -> PortId {
        let own = port.as_u32();
        let best = match self.tree[1] {
            // The root is the maximum over every stored key; held by another
            // port, it is also the maximum over every port but `port`, so
            // one comparison decides.
            Some((key, p)) if p != own => {
                if (virtual_key, own) > (key, p) {
                    own
                } else {
                    p
                }
            }
            // No port holds a key: the arrival is alone.
            None => own,
            // `port` holds the overall maximum, so the root says nothing
            // about the other ports — and the virtual key may be smaller
            // than the stored one (MRD: a high-value arrival lowers the
            // ratio). Fall back to the sibling walk.
            Some(_) => return PortId::from_u32(self.walk_with(port, virtual_key)),
        };
        debug_assert_eq!(
            best,
            self.walk_with(port, virtual_key),
            "root short-circuit disagrees with the sibling walk"
        );
        PortId::from_u32(best)
    }

    /// The port of the lexicographic maximum with `port`'s entry replaced
    /// by `virtual_key`, by walking leaf→root and folding in each sibling
    /// subtree: together the siblings cover every port except `port`.
    fn walk_with(&self, port: PortId, virtual_key: K) -> u32 {
        let (mut key, mut best) = (virtual_key, port.as_u32());
        let mut node = self.leaf_base + port.index();
        while node > 1 {
            if let Some((k, p)) = self.tree[node ^ 1] {
                if (k, p) > (key, best) {
                    (key, best) = (k, p);
                }
            }
            node /= 2;
        }
        best
    }

    /// Rebuilds every leaf from `key` and recomputes the internal nodes
    /// bottom-up in one O(n) pass.
    ///
    /// After a transmission phase in a congested switch *every* non-empty
    /// queue has changed, so repairing the tree with `ports` root-to-leaf
    /// [`set`](Self::set) walks costs O(n log n) comparisons; one batch
    /// rebuild costs 2n. Policies use this from their batch
    /// `queues_changed` hook when most ports are dirty.
    fn rebuild_with<F: FnMut(PortId) -> Option<K>>(&mut self, mut key: F) {
        for (leaf, port) in (self.leaf_base..).zip(PortId::all(self.ports)) {
            self.tree[leaf] = key(port).map(|k| (k, port.as_u32()));
        }
        // Leaves past `ports` are never set and stay `None`.
        for node in (1..self.leaf_base).rev() {
            self.tree[node] = self.tree[2 * node].max(self.tree[2 * node + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    impl<K: Ord + Copy> ArgMax<K> {
        /// A selector that keeps the index at every port count.
        fn indexed() -> Self {
            ArgMax {
                index: None,
                forced: true,
            }
        }
    }

    /// One change to the stored keys, applied to the forced selector's index
    /// and mirrored in the keys both paths read.
    #[derive(Debug, Clone)]
    enum Op {
        /// One port's key changes (a point [`ScoreIndex::set`] once there
        /// are three or more ports).
        Set(usize, Option<u8>),
        /// Every key changes ([`ScoreIndex::rebuild_with`]).
        Rebuild(Vec<Option<u8>>),
        /// Every key is removed (a rebuild to an all-absent index).
        Clear,
    }

    /// A key from a small range, so exact ties are common; one in four
    /// ports does not take part.
    fn key() -> impl Strategy<Value = Option<u8>> {
        (0u8..4, 0u8..6).prop_map(|(present, k)| (present != 0).then_some(k))
    }

    fn case() -> impl Strategy<Value = (usize, Vec<Option<u8>>, Vec<Op>)> {
        (1usize..=9).prop_flat_map(|n| {
            let op = prop_oneof![
                3 => (0..n, key()).prop_map(|(p, k)| Op::Set(p, k)),
                1 => proptest::collection::vec(key(), n).prop_map(Op::Rebuild),
                1 => Just(Op::Clear),
            ];
            (
                Just(n),
                proptest::collection::vec(key(), n),
                proptest::collection::vec(op, 1..24),
            )
        })
    }

    /// Both paths agree on the resident arg-max and, for every arriving
    /// port, on the virtual-add arg-max: with the arriving port holding the
    /// root or not, and with a virtual key below, at and above its stored
    /// key (below is MRD's case: a valuable arrival lowers its queue's key).
    fn assert_paths_agree(indexed: &mut ArgMax<u8>, keys: &[Option<u8>]) {
        let n = keys.len();
        let key = |p: PortId| keys[p.index()];
        let mut scanned = ArgMax::default();
        assert!(!scanned.wants_events(n) && indexed.wants_events(n));
        let resident = scanned.argmax(n, key);
        assert_eq!(indexed.argmax(n, key), resident, "keys={keys:?}");
        for p in 0..n {
            let stored = keys[p].unwrap_or(3);
            for vkey in [0, stored.saturating_sub(1), stored, stored + 1, 6] {
                let arriving = PortId::new(p);
                assert_eq!(
                    indexed.argmax_with(n, key, arriving, vkey),
                    scanned.argmax_with(n, key, arriving, vkey),
                    "keys={keys:?} arriving={p} virtual={vkey} root={resident:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn selector_index_and_scan_paths_agree((n, mut keys, ops) in case()) {
            let mut indexed = ArgMax::indexed();
            // The first query builds the index from the initial keys.
            assert_paths_agree(&mut indexed, &keys);
            let all: Vec<PortId> = (0..n).map(PortId::new).collect();
            for op in ops {
                match op {
                    Op::Set(p, k) => {
                        keys[p] = k;
                        indexed.changed(n, &[PortId::new(p)], |q| keys[q.index()]);
                    }
                    Op::Rebuild(new) => {
                        keys = new;
                        indexed.changed(n, &all, |q| keys[q.index()]);
                    }
                    Op::Clear => {
                        keys.fill(None);
                        indexed.changed(n, &all, |_| None);
                    }
                }
                assert_paths_agree(&mut indexed, &keys);
            }
        }
    }

    #[test]
    fn empty_index_has_no_max() {
        let idx: ScoreIndex<u64> = ScoreIndex::new(4);
        assert_eq!(idx.max(), None);
        assert_eq!(idx.ports(), 4);
    }

    #[test]
    fn max_prefers_larger_key_then_larger_port() {
        let mut idx = ScoreIndex::new(4);
        idx.set(PortId::new(0), Some(5u64));
        idx.set(PortId::new(2), Some(7));
        idx.set(PortId::new(1), Some(7));
        assert_eq!(idx.max(), Some(PortId::new(2)));
        idx.set(PortId::new(2), None);
        assert_eq!(idx.max(), Some(PortId::new(1)));
        idx.set(PortId::new(1), Some(4));
        assert_eq!(idx.max(), Some(PortId::new(0)));
    }

    #[test]
    fn set_replaces_previous_key() {
        let mut idx = ScoreIndex::new(2);
        idx.set(PortId::new(0), Some(3u64));
        idx.set(PortId::new(0), Some(9));
        assert_eq!(idx.key(PortId::new(0)), Some(9));
        assert_eq!(idx.max(), Some(PortId::new(0)));
        idx.set(PortId::new(0), Some(1));
        assert_eq!(idx.max(), Some(PortId::new(0)));
        assert_eq!(idx.key(PortId::new(0)), Some(1));
    }

    #[test]
    fn max_with_virtual_self_entry() {
        let mut idx = ScoreIndex::new(4);
        idx.set(PortId::new(1), Some(5u64));
        idx.set(PortId::new(3), Some(8));
        // Virtual key loses to the resident maximum.
        assert_eq!(idx.max_with(PortId::new(0), 7), PortId::new(3));
        // Virtual key wins outright.
        assert_eq!(idx.max_with(PortId::new(0), 9), PortId::new(0));
        // Exact tie: the later port wins, in both directions.
        assert_eq!(idx.max_with(PortId::new(0), 8), PortId::new(3));
        assert_eq!(idx.max_with(PortId::new(3), 5), PortId::new(3));
        // The own port's resident entry is ignored in favour of the virtual
        // key, even when the resident entry is the global maximum.
        idx.set(PortId::new(3), Some(100));
        assert_eq!(idx.max_with(PortId::new(3), 1), PortId::new(1));
    }

    #[test]
    fn max_with_on_otherwise_empty_index_returns_own_port() {
        let idx: ScoreIndex<u64> = ScoreIndex::new(3);
        assert_eq!(idx.max_with(PortId::new(2), 0), PortId::new(2));
        let mut idx = ScoreIndex::new(3);
        idx.set(PortId::new(2), Some(9u64));
        assert_eq!(idx.max_with(PortId::new(2), 0), PortId::new(2));
    }

    #[test]
    fn max_with_on_an_all_none_root_returns_own_port() {
        // Keys set and then cleared leave every node, the root included,
        // `None`: the short-circuit must answer with the arrival's port.
        let mut idx = ScoreIndex::new(6);
        idx.set(PortId::new(1), Some(4u64));
        idx.set(PortId::new(4), Some(9));
        idx.set(PortId::new(1), None);
        idx.set(PortId::new(4), None);
        assert_eq!(idx.max(), None);
        for p in 0..6 {
            assert_eq!(idx.max_with(PortId::new(p), 0), PortId::new(p));
            assert_eq!(idx.max_with(PortId::new(p), u64::MAX), PortId::new(p));
        }
    }

    #[test]
    fn max_with_tie_with_the_root_goes_to_the_larger_port() {
        let mut idx = ScoreIndex::new(8);
        idx.set(PortId::new(2), Some(3u64));
        idx.set(PortId::new(5), Some(7));
        assert_eq!(idx.max(), Some(PortId::new(5)));
        // The arrival's virtual key equals the root's key: the larger of
        // the two ports wins, whichever side it is on.
        assert_eq!(idx.max_with(PortId::new(7), 7), PortId::new(7));
        assert_eq!(idx.max_with(PortId::new(6), 7), PortId::new(6));
        assert_eq!(idx.max_with(PortId::new(4), 7), PortId::new(5));
        assert_eq!(idx.max_with(PortId::new(0), 7), PortId::new(5));
    }

    #[test]
    fn max_with_walks_when_the_arrival_owns_a_shrinking_maximum() {
        // MRD's key is |Q|²/Σv: a high-value arrival to the queue with the
        // largest ratio lowers that queue's key below its stored one, so
        // the root (the arrival's own stored key) must not decide.
        let mut idx = ScoreIndex::new(5);
        idx.set(PortId::new(0), Some(40u64));
        idx.set(PortId::new(2), Some(90));
        idx.set(PortId::new(3), Some(60));
        assert_eq!(idx.max(), Some(PortId::new(2)));
        assert_eq!(idx.max_with(PortId::new(2), 10), PortId::new(3));
        assert_eq!(idx.max_with(PortId::new(2), 60), PortId::new(3));
        assert_eq!(idx.max_with(PortId::new(2), 61), PortId::new(2));
    }

    #[test]
    fn max_with_matches_a_brute_force_argmax() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for ports in [1usize, 2, 3, 5, 7, 12, 33, 64] {
            for _ in 0..40 {
                // Small key range so exact ties are common; ~1 in 4 absent.
                let keys: Vec<Option<u64>> = (0..ports)
                    .map(|_| (!rng().is_multiple_of(4)).then(|| rng() % 10))
                    .collect();
                let mut idx = ScoreIndex::new(ports);
                idx.rebuild_with(|p| keys[p.index()]);
                for (p, &stored) in keys.iter().enumerate() {
                    let s = stored.unwrap_or(5);
                    for vkey in [0, s.saturating_sub(1), s, s + 1, 10] {
                        let brute = keys
                            .iter()
                            .enumerate()
                            .filter_map(|(i, k)| {
                                if i == p { Some(vkey) } else { *k }.map(|k| (k, i))
                            })
                            .max()
                            .map(|(_, i)| PortId::new(i))
                            .unwrap();
                        assert_eq!(
                            idx.max_with(PortId::new(p), vkey),
                            brute,
                            "ports={ports} p={p} vkey={vkey} keys={keys:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_power_of_two_port_counts() {
        for ports in [1usize, 3, 5, 6, 7, 9] {
            let mut idx = ScoreIndex::new(ports);
            for p in 0..ports {
                idx.set(PortId::new(p), Some(p as u64));
            }
            assert_eq!(idx.max(), Some(PortId::new(ports - 1)), "ports={ports}");
            assert_eq!(
                idx.max_with(PortId::new(0), ports as u64),
                PortId::new(0),
                "ports={ports}"
            );
        }
    }

    #[test]
    fn rebuild_matches_point_updates() {
        for ports in [1usize, 3, 5, 8, 9, 64] {
            let mut point = ScoreIndex::new(ports);
            let mut batch = ScoreIndex::new(ports);
            let key = |i: usize| (!i.is_multiple_of(3)).then_some(((i * 7) % 11) as u64);
            for p in 0..ports {
                point.set(PortId::new(p), key(p));
            }
            batch.rebuild_with(|p| key(p.index()));
            assert_eq!(point.max(), batch.max(), "ports={ports}");
            for p in 0..ports {
                assert_eq!(
                    point.max_with(PortId::new(p), 100),
                    batch.max_with(PortId::new(p), 100),
                    "ports={ports} p={p}"
                );
            }
        }
    }

    #[test]
    fn changed_rebuilds_large_batches_and_updates_small_ones() {
        let ports = 8usize;
        let mut keys: Vec<Option<u64>> = (0..ports).map(|i| Some(i as u64 * 3 % 7)).collect();
        let mut sel = ArgMax::indexed();
        assert_eq!(
            sel.argmax(ports, |p| keys[p.index()]),
            Some((PortId::new(2), 6))
        );
        // A large batch (>= half the ports) takes the rebuild path.
        keys.reverse();
        let all: Vec<PortId> = (0..ports).map(PortId::new).collect();
        sel.changed(ports, &all, |p| keys[p.index()]);
        assert_eq!(sel.argmax(ports, |_| None), Some((PortId::new(5), 6)));
        // A small batch takes the point-update path.
        keys[1] = Some(99);
        sel.changed(ports, &[PortId::new(1)], |p| keys[p.index()]);
        assert_eq!(sel.argmax(ports, |_| None), Some((PortId::new(1), 99)));
        // Events for a switch of another size are ignored.
        sel.changed(ports + 1, &[PortId::new(3)], |_| Some(100));
        assert_eq!(sel.argmax(ports, |_| None), Some((PortId::new(1), 99)));
    }

    #[test]
    fn matches_a_scan_on_random_sequences() {
        // Tiny deterministic LCG so the test needs no external RNG.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ports = 6usize;
        let mut idx = ScoreIndex::new(ports);
        let mut keys: Vec<Option<u64>> = vec![None; ports];
        for _ in 0..2000 {
            let p = (rng() % ports as u64) as usize;
            let op = rng() % 3;
            let key = if op == 0 { None } else { Some(rng() % 8) };
            idx.set(PortId::new(p), key);
            keys[p] = key;
            // Scan oracle: lexicographic max of (key, port).
            let scan = keys
                .iter()
                .enumerate()
                .filter_map(|(i, k)| k.map(|k| (k, i)))
                .max()
                .map(|(_, i)| PortId::new(i));
            assert_eq!(idx.max(), scan);
            // Virtual-add oracle.
            let vp = (rng() % ports as u64) as usize;
            let vkey = rng() % 8;
            let vscan = keys
                .iter()
                .enumerate()
                .map(|(i, k)| if i == vp { Some(vkey) } else { *k })
                .enumerate()
                .filter_map(|(i, k)| k.map(|k| (k, i)))
                .max()
                .map(|(_, i)| PortId::new(i))
                .unwrap();
            assert_eq!(idx.max_with(PortId::new(vp), vkey), vscan);
        }
    }
}
