//! Error types for switch configuration and buffer operations.

use std::error::Error;
use std::fmt;

use crate::PortId;

/// Errors detected while validating a switch configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The switch must have at least one output port.
    NoPorts,
    /// Port ids are `u32`: a switch has at most `u32::MAX` output ports.
    TooManyPorts {
        /// Configured number of output ports.
        ports: usize,
    },
    /// The shared buffer must hold at least one packet per output port
    /// (the paper assumes `B >= n`).
    BufferTooSmall {
        /// Configured buffer capacity.
        buffer: usize,
        /// Configured number of output ports.
        ports: usize,
    },
    /// A per-port work requirement of zero cycles is meaningless.
    ZeroWork {
        /// The offending port.
        port: PortId,
    },
    /// Speedup (cores per queue) must be at least one.
    ZeroSpeedup,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoPorts => write!(f, "switch must have at least one output port"),
            ConfigError::TooManyPorts { ports } => {
                write!(f, "{ports} ports exceed the limit of {}", u32::MAX)
            }
            ConfigError::BufferTooSmall { buffer, ports } => write!(
                f,
                "buffer of {buffer} slots cannot serve {ports} ports (model requires B >= n)"
            ),
            ConfigError::ZeroWork { port } => {
                write!(f, "{port} configured with zero required work")
            }
            ConfigError::ZeroSpeedup => write!(f, "speedup must be at least 1"),
        }
    }
}

impl Error for ConfigError {}

/// Errors raised by buffer operations that violate the model's rules.
///
/// Policies implemented in `smbm-core` never trigger these when well-formed;
/// the switch validates anyway so that a buggy policy fails loudly instead of
/// silently corrupting an experiment ([C-VALIDATE]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// Attempted to admit a packet while the shared buffer is full.
    BufferFull,
    /// A port index outside `0..n` was used.
    UnknownPort {
        /// The offending port.
        port: PortId,
        /// Number of ports in the switch.
        ports: usize,
    },
    /// A packet's required work does not match its destination queue's
    /// configured requirement (violates the Section III model constraint).
    WorkMismatch {
        /// Destination port.
        port: PortId,
        /// Work carried by the packet, in cycles.
        packet_work: u32,
        /// Work configured for the port, in cycles.
        port_work: u32,
    },
    /// Attempted to push out a packet from an empty queue.
    EmptyQueue {
        /// The queue that was empty.
        port: PortId,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::BufferFull => write!(f, "shared buffer is full"),
            AdmitError::UnknownPort { port, ports } => {
                write!(f, "{port} does not exist (switch has {ports} ports)")
            }
            AdmitError::WorkMismatch {
                port,
                packet_work,
                port_work,
            } => write!(
                f,
                "packet with {packet_work} cycles sent to {port} which requires {port_work} cycles"
            ),
            AdmitError::EmptyQueue { port } => {
                write!(f, "cannot push out from empty queue at {port}")
            }
        }
    }
}

impl Error for AdmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_messages() {
        assert_eq!(
            ConfigError::NoPorts.to_string(),
            "switch must have at least one output port"
        );
        let e = ConfigError::BufferTooSmall {
            buffer: 2,
            ports: 4,
        };
        assert!(e.to_string().contains("B >= n"));
        let e = ConfigError::ZeroWork {
            port: PortId::new(1),
        };
        assert!(e.to_string().contains("port#2"));
        assert!(!ConfigError::ZeroSpeedup.to_string().is_empty());
    }

    #[test]
    fn admit_error_messages() {
        assert_eq!(AdmitError::BufferFull.to_string(), "shared buffer is full");
        let e = AdmitError::UnknownPort {
            port: PortId::new(5),
            ports: 3,
        };
        assert!(e.to_string().contains("3 ports"));
        let e = AdmitError::WorkMismatch {
            port: PortId::new(0),
            packet_work: 2,
            port_work: 3,
        };
        assert!(e.to_string().contains("requires 3 cycles"));
        let e = AdmitError::EmptyQueue {
            port: PortId::new(0),
        };
        assert!(e.to_string().contains("empty queue"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn is_error<E: Error + Send + Sync + 'static>() {}
        is_error::<ConfigError>();
        is_error::<AdmitError>();
    }
}
