//! Scenario builders: turn MMPP banks into the three traffic settings of the
//! paper's Fig. 5.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use smbm_switch::{
    CombinedPacket, CombinedQueue, PortId, QueueDiscipline, Value, ValuePacket, WorkPacket,
    WorkSwitchConfig,
};

use crate::dist::poisson::ParamError;
use crate::{Categorical, MmppBank, MmppParams, Trace, Zipf};

/// How a generated packet picks its destination port.
#[derive(Debug, Clone)]
pub enum PortMix {
    /// Uniform over all ports (the paper's base setting).
    Uniform,
    /// Weighted by an explicit distribution over ports.
    Weighted(Vec<f64>),
    /// Zipf-skewed toward low-index ports with the given exponent
    /// (extension experiments).
    Zipf(f64),
}

impl PortMix {
    fn build(&self, ports: usize) -> Result<PortSampler, ParamError> {
        Ok(match self {
            PortMix::Uniform => PortSampler::Categorical(Categorical::uniform(ports)?),
            PortMix::Weighted(w) => PortSampler::Categorical(Categorical::new(w)?),
            PortMix::Zipf(s) => PortSampler::Zipf(Zipf::new(ports, *s)?),
        })
    }
}

#[derive(Debug, Clone)]
enum PortSampler {
    Categorical(Categorical),
    Zipf(Zipf),
}

impl PortSampler {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match self {
            PortSampler::Categorical(c) => c.sample(rng),
            PortSampler::Zipf(z) => z.sample(rng),
        }
    }
}

/// How a generated packet picks its value (value model only).
#[derive(Debug, Clone, PartialEq)]
pub enum ValueMix {
    /// Uniform over `1..=max` independent of the port (Fig. 5 panels 4-6).
    Uniform {
        /// Largest value `k`.
        max: u64,
    },
    /// The value equals the one-based port label (Fig. 5 panels 7-9, and
    /// every Section IV lower-bound construction).
    EqualsPort,
    /// Zipf-skewed over `1..=max`, most mass on the *high* values
    /// (extension experiments).
    ZipfHigh {
        /// Largest value `k`.
        max: u64,
        /// Skew exponent.
        exponent: f64,
    },
}

/// Common knobs for MMPP trace generation.
#[derive(Debug, Clone)]
pub struct MmppScenario {
    /// Number of interleaved sources (the paper uses 500).
    pub sources: usize,
    /// Per-source on-off parameters.
    pub params: MmppParams,
    /// Number of slots to generate.
    pub slots: usize,
    /// RNG seed, making every trace reproducible.
    pub seed: u64,
}

impl Default for MmppScenario {
    fn default() -> Self {
        MmppScenario {
            sources: 100,
            params: MmppParams::default(),
            slots: 50_000,
            seed: 0xB0FFE2,
        }
    }
}

impl MmppScenario {
    /// Generates a trace for the packet model `Q` on `config`: each emitted
    /// packet draws a destination port from `port_mix` and, unless the port
    /// determines the packet (the work model), a value from `value_mix`; its
    /// work label is the port's requirement in `config`. Equals
    /// [`work_trace`](Self::work_trace), [`value_trace`](Self::value_trace)
    /// or [`combined_trace`](Self::combined_trace) on the same arguments.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for invalid MMPP or mix parameters.
    pub fn trace<Q: QueueDiscipline>(
        &self,
        config: &Q::Config,
        port_mix: &PortMix,
        value_mix: &ValueMix,
    ) -> Result<Trace<Q::Packet>, ParamError> {
        let values = (!Q::PORT_DETERMINES_PACKET).then_some(value_mix);
        self.generate(Q::ports(config), port_mix, values, |port, value| {
            Q::packet(config, port, value)
        })
    }

    /// Generates a work-model trace: each emitted packet draws a destination
    /// port from `mix` and carries that port's configured work requirement.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for invalid MMPP or mix parameters.
    pub fn work_trace(
        &self,
        config: &WorkSwitchConfig,
        mix: &PortMix,
    ) -> Result<Trace<WorkPacket>, ParamError> {
        self.generate(config.ports(), mix, None, |port, _| {
            WorkPacket::new(port, config.work(port))
        })
    }

    /// Generates a value-model trace over `ports` output ports.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for invalid MMPP or mix parameters.
    pub fn value_trace(
        &self,
        ports: usize,
        port_mix: &PortMix,
        value_mix: &ValueMix,
    ) -> Result<Trace<ValuePacket>, ParamError> {
        self.generate(ports, port_mix, Some(value_mix), ValuePacket::new)
    }

    /// Generates a combined-model trace (extension): each packet draws a
    /// destination port from `port_mix` (its work requirement follows from
    /// `config`) and a value from `value_mix`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for invalid MMPP or mix parameters.
    pub fn combined_trace(
        &self,
        config: &WorkSwitchConfig,
        port_mix: &PortMix,
        value_mix: &ValueMix,
    ) -> Result<Trace<CombinedPacket>, ParamError> {
        self.trace::<CombinedQueue>(config, port_mix, value_mix)
    }

    /// The one generator loop: per slot, the bank's emission count; per
    /// packet, a port from `port_mix`, then (when `values` is given) a
    /// value, which `packet` turns into the model's packet. Packets without
    /// a value draw nothing for it and get [`Value::ONE`].
    fn generate<P>(
        &self,
        ports: usize,
        port_mix: &PortMix,
        values: Option<&ValueMix>,
        packet: impl Fn(PortId, Value) -> P,
    ) -> Result<Trace<P>, ParamError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sampler = port_mix.build(ports)?;
        let value_zipf = match values {
            Some(ValueMix::ZipfHigh { max, exponent }) => {
                Some(Zipf::new(*max as usize, *exponent)?)
            }
            Some(ValueMix::Uniform { max }) if *max == 0 => {
                return Err(ParamError::new("value range must be non-empty"));
            }
            _ => None,
        };
        let mut bank = MmppBank::stationary(self.sources, self.params, &mut rng)?;
        let mut trace = Trace::with_capacity(self.slots, self.expected_arrivals());
        for _ in 0..self.slots {
            let n = bank.step(&mut rng);
            trace.push_slot((0..n).map(|_| {
                let port = PortId::new(sampler.sample(&mut rng));
                let value = match values {
                    None => 1,
                    Some(ValueMix::Uniform { max }) => rng.random_range(1..=*max),
                    Some(ValueMix::EqualsPort) => port.index() as u64 + 1,
                    Some(ValueMix::ZipfHigh { max, .. }) => {
                        // Rank 0 (most likely) maps to the highest value.
                        let rank = value_zipf
                            .as_ref()
                            .expect("zipf built above")
                            .sample(&mut rng) as u64;
                        max - rank
                    }
                };
                packet(port, Value::new(value))
            }));
        }
        Ok(trace)
    }

    /// Packets to reserve before generating: the long-run mean count
    /// `sources × mean_rate × slots` plus an eighth. The reservation keeps
    /// the packet array from growing, and so from copying itself, while it
    /// is written; pages reserved but never written cost no memory.
    fn expected_arrivals(&self) -> usize {
        let mean = self.sources as f64 * self.params.mean_rate() * self.slots as f64;
        // `as` saturates; a reservation that large could not be met anyway.
        ((mean * 1.125) as usize).saturating_add(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(slots: usize) -> MmppScenario {
        MmppScenario {
            sources: 20,
            params: MmppParams::default(),
            slots,
            seed: 42,
        }
    }

    #[test]
    fn work_trace_has_right_shape() {
        let cfg = WorkSwitchConfig::contiguous(4, 16).unwrap();
        let t = scenario(500).work_trace(&cfg, &PortMix::Uniform).unwrap();
        assert_eq!(t.slots(), 500);
        assert!(t.arrivals() > 0);
        for burst in t.iter() {
            for pkt in burst {
                assert!(pkt.port().index() < 4);
                assert_eq!(pkt.work(), cfg.work(pkt.port()));
            }
        }
    }

    #[test]
    fn work_trace_is_reproducible() {
        let cfg = WorkSwitchConfig::contiguous(3, 9).unwrap();
        let a = scenario(200).work_trace(&cfg, &PortMix::Uniform).unwrap();
        let b = scenario(200).work_trace(&cfg, &PortMix::Uniform).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WorkSwitchConfig::contiguous(3, 9).unwrap();
        let a = scenario(200).work_trace(&cfg, &PortMix::Uniform).unwrap();
        let mut s = scenario(200);
        s.seed = 43;
        let b = s.work_trace(&cfg, &PortMix::Uniform).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn weighted_mix_respects_zero_weights() {
        let cfg = WorkSwitchConfig::contiguous(3, 9).unwrap();
        let t = scenario(300)
            .work_trace(&cfg, &PortMix::Weighted(vec![1.0, 0.0, 1.0]))
            .unwrap();
        assert!(t.iter().flatten().all(|pkt| pkt.port() != PortId::new(1)));
    }

    #[test]
    fn uniform_value_trace_bounds_values() {
        let t = scenario(300)
            .value_trace(4, &PortMix::Uniform, &ValueMix::Uniform { max: 7 })
            .unwrap();
        assert!(t.arrivals() > 0);
        for pkt in t.iter().flatten() {
            assert!(pkt.value().get() >= 1 && pkt.value().get() <= 7);
            assert!(pkt.port().index() < 4);
        }
    }

    #[test]
    fn port_value_trace_ties_value_to_port() {
        let t = scenario(300)
            .value_trace(5, &PortMix::Uniform, &ValueMix::EqualsPort)
            .unwrap();
        for pkt in t.iter().flatten() {
            assert_eq!(pkt.value().get(), pkt.port().index() as u64 + 1);
        }
    }

    #[test]
    fn zipf_high_value_trace_prefers_large_values() {
        let t = scenario(2000)
            .value_trace(
                4,
                &PortMix::Uniform,
                &ValueMix::ZipfHigh {
                    max: 10,
                    exponent: 1.5,
                },
            )
            .unwrap();
        let values: Vec<u64> = t.iter().flatten().map(|p| p.value().get()).collect();
        assert!(!values.is_empty());
        let high = values.iter().filter(|&&v| v == 10).count();
        let low = values.iter().filter(|&&v| v == 1).count();
        assert!(high > low, "high {high} low {low}");
        assert!(values.iter().all(|&v| (1..=10).contains(&v)));
    }

    #[test]
    fn zipf_port_mix_prefers_low_ports() {
        let cfg = WorkSwitchConfig::contiguous(6, 12).unwrap();
        let t = scenario(2000)
            .work_trace(&cfg, &PortMix::Zipf(1.5))
            .unwrap();
        let p0 = t.iter().flatten().filter(|p| p.port().index() == 0).count();
        let p5 = t.iter().flatten().filter(|p| p.port().index() == 5).count();
        assert!(p0 > p5);
    }

    #[test]
    fn combined_trace_carries_port_work_and_value() {
        let cfg = WorkSwitchConfig::contiguous(4, 16).unwrap();
        let t = scenario(300)
            .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::Uniform { max: 9 })
            .unwrap();
        assert!(t.arrivals() > 0);
        for pkt in t.iter().flatten() {
            assert_eq!(pkt.work(), cfg.work(pkt.port()));
            assert!((1..=9).contains(&pkt.value().get()));
        }
    }

    #[test]
    fn combined_trace_is_reproducible() {
        let cfg = WorkSwitchConfig::contiguous(3, 9).unwrap();
        let a = scenario(100)
            .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::EqualsPort)
            .unwrap();
        let b = scenario(100)
            .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::EqualsPort)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_value_range_is_rejected() {
        let err = scenario(10)
            .value_trace(2, &PortMix::Uniform, &ValueMix::Uniform { max: 0 })
            .unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}
