//! Deduplicated tracking of which ports' queues changed since the last
//! drain — the switch-side half of the incremental score indices kept by
//! `smbm-core` policies.
//!
//! Every queue mutation marks its port; an indexed policy drains the set
//! before each admission decision and refreshes only those ports' keys
//! instead of rescanning all `n` queues. The set is a stack plus a per-port
//! flag, so marking is O(1), duplicate marks are free, and the memory is
//! bounded at `n` regardless of traffic.

use crate::PortId;

/// A deduplicated set of ports whose queues changed.
#[derive(Debug, Clone, Default)]
pub struct DirtyPorts {
    stack: Vec<u32>,
    flags: Vec<bool>,
}

impl DirtyPorts {
    /// Creates a tracker for `ports` output ports, all clean.
    pub fn new(ports: usize) -> Self {
        DirtyPorts {
            stack: Vec::with_capacity(ports),
            flags: vec![false; ports],
        }
    }

    /// Marks port `i` dirty; duplicate marks are ignored.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        if !self.flags[i] {
            self.flags[i] = true;
            self.stack.push(i as u32);
        }
    }

    /// Marks every port dirty.
    pub fn mark_all(&mut self) {
        for i in 0..self.flags.len() {
            self.mark(i);
        }
    }

    /// Number of ports currently marked.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// True when no port is marked.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Moves the marked ports into `out` (cleared first) and resets the set.
    pub fn drain_into(&mut self, out: &mut Vec<PortId>) {
        out.clear();
        for &i in &self.stack {
            self.flags[i as usize] = false;
            out.push(PortId::from_u32(i));
        }
        self.stack.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_deduplicate() {
        let mut d = DirtyPorts::new(4);
        d.mark(2);
        d.mark(2);
        d.mark(0);
        assert_eq!(d.len(), 2);
        let mut out = Vec::new();
        d.drain_into(&mut out);
        assert_eq!(out, vec![PortId::new(2), PortId::new(0)]);
        assert!(d.is_empty());
    }

    #[test]
    fn drain_resets_flags_for_reuse() {
        let mut d = DirtyPorts::new(2);
        d.mark(1);
        let mut out = Vec::new();
        d.drain_into(&mut out);
        d.mark(1);
        d.drain_into(&mut out);
        assert_eq!(out, vec![PortId::new(1)]);
    }

    #[test]
    fn mark_all_covers_every_port() {
        let mut d = DirtyPorts::new(3);
        d.mark(1);
        d.mark_all();
        assert_eq!(d.len(), 3);
    }
}
