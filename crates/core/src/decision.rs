//! Admission decisions and the plumbing that applies them to a switch.

use std::fmt;

use smbm_switch::{AdmitError, PortId};

/// A buffer-management policy's verdict on one arriving packet.
///
/// The push-out variant names the queue whose lowest-priority packet (FIFO
/// tail in the processing model, minimal value in the value model) is evicted
/// to make room for the arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Accept the packet into its destination queue (requires free space).
    Accept,
    /// Reject the packet.
    Drop,
    /// Evict from `victim`'s queue, then accept the packet.
    PushOut(PortId),
}

impl Decision {
    /// True unless the packet was dropped.
    pub fn admits(self) -> bool {
        !matches!(self, Decision::Drop)
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Accept => write!(f, "accept"),
            Decision::Drop => write!(f, "drop"),
            Decision::PushOut(victim) => write!(f, "push-out {victim}"),
        }
    }
}

/// Fails with [`AdmitError::UnknownPort`] unless `port` is one of a
/// switch's `ports`. Runners check it before a policy runs, because
/// policies index their queues by the arrival's port.
pub(crate) fn check_port(port: PortId, ports: usize) -> Result<(), AdmitError> {
    if port.index() < ports {
        Ok(())
    } else {
        Err(AdmitError::UnknownPort { port, ports })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_classification() {
        assert!(Decision::Accept.admits());
        assert!(Decision::PushOut(PortId::new(0)).admits());
        assert!(!Decision::Drop.admits());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Decision::Accept.to_string(), "accept");
        assert_eq!(Decision::Drop.to_string(), "drop");
        assert_eq!(
            Decision::PushOut(PortId::new(1)).to_string(),
            "push-out port#2"
        );
    }
}
