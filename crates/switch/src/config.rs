//! Validated switch configurations for both models.

use crate::{ConfigError, PortId, Work};

/// Configuration of a shared-memory switch in the heterogeneous-processing
/// model: a buffer capacity `B` and one fixed work requirement per output
/// port (`w_i` in the paper).
///
/// Constructed through [`WorkSwitchConfig::new`], which validates the model's
/// assumptions (`B >= n >= 1`, all `w_i >= 1`).
///
/// ```
/// use smbm_switch::WorkSwitchConfig;
/// // Contiguous configuration used throughout the paper's lower bounds:
/// // k ports, port i requires i+1 cycles.
/// let cfg = WorkSwitchConfig::contiguous(4, 16)?;
/// assert_eq!(cfg.ports(), 4);
/// assert_eq!(cfg.max_work().cycles(), 4);
/// # Ok::<(), smbm_switch::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkSwitchConfig {
    buffer: usize,
    works: Vec<Work>,
}

impl WorkSwitchConfig {
    /// Creates a configuration with shared buffer capacity `buffer` and the
    /// given per-port work requirements (`works[i]` is `w_i`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if there are no ports or more than
    /// `u32::MAX`, if `buffer` is smaller than the number of ports, or if any
    /// requirement is zero.
    pub fn new(buffer: usize, works: Vec<Work>) -> Result<Self, ConfigError> {
        check_ports(works.len())?;
        if buffer < works.len() {
            return Err(ConfigError::BufferTooSmall {
                buffer,
                ports: works.len(),
            });
        }
        for (i, w) in works.iter().enumerate() {
            if w.cycles() == 0 {
                return Err(ConfigError::ZeroWork {
                    port: PortId::new(i),
                });
            }
        }
        Ok(WorkSwitchConfig { buffer, works })
    }

    /// The *contiguous* configuration central to the paper's Section III-B:
    /// exactly `k` output ports where port `i` (zero-based) accepts packets
    /// with required processing `i + 1`, so requirements run `1..=k`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] under the same conditions as [`Self::new`].
    pub fn contiguous(k: u32, buffer: usize) -> Result<Self, ConfigError> {
        let works = (1..=k).map(Work::new).collect();
        Self::new(buffer, works)
    }

    /// A *striped* configuration: `copies` ports per work class `1..=k`
    /// (Fig. 2's setting has two ports sharing requirement 2 — "two
    /// different output queues can still accept packets with the same
    /// processing requirement").
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] under the same conditions as [`Self::new`].
    pub fn striped(k: u32, copies: usize, buffer: usize) -> Result<Self, ConfigError> {
        let ports = (k as usize).saturating_mul(copies);
        check_ports(ports)?;
        let mut works = Vec::with_capacity(ports);
        for w in 1..=k {
            works.extend(std::iter::repeat_n(Work::new(w), copies));
        }
        Self::new(buffer, works)
    }

    /// A homogeneous configuration (`w_i = 1` for all ports): the classic
    /// shared-memory switch of Aiello et al., under which LWD degenerates to
    /// LQD.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] under the same conditions as [`Self::new`].
    pub fn homogeneous(ports: usize, buffer: usize) -> Result<Self, ConfigError> {
        check_ports(ports)?;
        Self::new(buffer, vec![Work::ONE; ports])
    }

    /// Shared buffer capacity `B` in packets.
    pub fn buffer(&self) -> usize {
        self.buffer
    }

    /// Number of output ports `n`.
    pub fn ports(&self) -> usize {
        self.works.len()
    }

    /// Work requirement `w_i` of the given port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn work(&self, port: PortId) -> Work {
        self.works[port.index()]
    }

    /// All per-port requirements, indexed by port.
    pub fn works(&self) -> &[Work] {
        &self.works
    }

    /// The largest per-port requirement (the paper's `k`).
    pub fn max_work(&self) -> Work {
        *self
            .works
            .iter()
            .max()
            .expect("validated: at least one port")
    }

    /// The sum of inverse requirements `Z = sum_i 1/w_i` used by NHST.
    pub fn inverse_work_sum(&self) -> f64 {
        self.works.iter().map(|w| 1.0 / w.cycles() as f64).sum()
    }

    /// True if all ports share the same requirement (homogeneous case).
    pub fn is_homogeneous(&self) -> bool {
        self.works.iter().all(|w| *w == self.works[0])
    }
}

/// Configuration of a shared-memory switch in the heterogeneous-value model:
/// a buffer capacity `B` and a number of output ports `n`. All packets have
/// unit work; values ride on the packets themselves.
///
/// ```
/// use smbm_switch::ValueSwitchConfig;
/// let cfg = ValueSwitchConfig::new(8, 4)?;
/// assert_eq!(cfg.buffer(), 8);
/// assert_eq!(cfg.ports(), 4);
/// # Ok::<(), smbm_switch::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueSwitchConfig {
    buffer: usize,
    ports: usize,
}

impl ValueSwitchConfig {
    /// Creates a configuration with shared buffer capacity `buffer` and
    /// `ports` output ports.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if there are no ports or more than
    /// `u32::MAX`, or if `buffer < ports`.
    pub fn new(buffer: usize, ports: usize) -> Result<Self, ConfigError> {
        check_ports(ports)?;
        if buffer < ports {
            return Err(ConfigError::BufferTooSmall { buffer, ports });
        }
        Ok(ValueSwitchConfig { buffer, ports })
    }

    /// Shared buffer capacity `B` in packets.
    pub fn buffer(&self) -> usize {
        self.buffer
    }

    /// Number of output ports `n`.
    pub fn ports(&self) -> usize {
        self.ports
    }
}

/// Port ids are `u32`, so a switch has between 1 and `u32::MAX` ports.
fn check_ports(ports: usize) -> Result<(), ConfigError> {
    if ports == 0 {
        Err(ConfigError::NoPorts)
    } else if u32::try_from(ports).is_err() {
        Err(ConfigError::TooManyPorts { ports })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_ports() {
        assert_eq!(WorkSwitchConfig::new(4, vec![]), Err(ConfigError::NoPorts));
        assert_eq!(ValueSwitchConfig::new(4, 0), Err(ConfigError::NoPorts));
    }

    #[test]
    fn rejects_small_buffer() {
        let works = vec![Work::ONE; 4];
        assert_eq!(
            WorkSwitchConfig::new(3, works),
            Err(ConfigError::BufferTooSmall {
                buffer: 3,
                ports: 4
            })
        );
        assert_eq!(
            ValueSwitchConfig::new(3, 4),
            Err(ConfigError::BufferTooSmall {
                buffer: 3,
                ports: 4
            })
        );
    }

    #[test]
    fn rejects_zero_work() {
        let works = vec![Work::ONE, Work::new(0)];
        assert_eq!(
            WorkSwitchConfig::new(8, works),
            Err(ConfigError::ZeroWork {
                port: PortId::new(1)
            })
        );
    }

    #[test]
    fn contiguous_builds_one_to_k() {
        let cfg = WorkSwitchConfig::contiguous(5, 10).unwrap();
        assert_eq!(cfg.ports(), 5);
        assert_eq!(cfg.work(PortId::new(0)), Work::new(1));
        assert_eq!(cfg.work(PortId::new(4)), Work::new(5));
        assert_eq!(cfg.max_work(), Work::new(5));
        assert!(!cfg.is_homogeneous());
    }

    #[test]
    fn striped_duplicates_classes() {
        let cfg = WorkSwitchConfig::striped(3, 2, 12).unwrap();
        assert_eq!(cfg.ports(), 6);
        assert_eq!(
            cfg.works(),
            &[
                Work::new(1),
                Work::new(1),
                Work::new(2),
                Work::new(2),
                Work::new(3),
                Work::new(3)
            ]
        );
        assert!(!cfg.is_homogeneous());
        assert_eq!(cfg.max_work(), Work::new(3));
    }

    #[test]
    fn homogeneous_is_detected() {
        let cfg = WorkSwitchConfig::homogeneous(3, 6).unwrap();
        assert!(cfg.is_homogeneous());
        assert_eq!(cfg.max_work(), Work::ONE);
    }

    #[test]
    fn inverse_work_sum_matches_formula() {
        let cfg = WorkSwitchConfig::contiguous(4, 8).unwrap();
        let z = cfg.inverse_work_sum();
        let expected = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
        assert!((z - expected).abs() < 1e-12);
    }

    #[test]
    fn buffer_equal_ports_is_allowed() {
        // Boundary of the B >= n assumption.
        assert!(WorkSwitchConfig::homogeneous(4, 4).is_ok());
        assert!(ValueSwitchConfig::new(4, 4).is_ok());
    }

    #[test]
    fn works_slice_exposed() {
        let cfg = WorkSwitchConfig::contiguous(3, 6).unwrap();
        assert_eq!(cfg.works(), &[Work::new(1), Work::new(2), Work::new(3)]);
    }
}
