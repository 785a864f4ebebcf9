//! The high-level server runner: build the sharded datapath for a model
//! and policy, attach the bound UDP ingress plane, run until every
//! expected client has FINed, and report.

use std::fmt;
use std::net::SocketAddr;

use smbm_core::{value_policy_by_name, work_policy_by_name};
use smbm_obs::{NetCounts, TelemetryConfig};
use smbm_runtime::{
    FaultPlan, FlightConfig, IngestMode, Model, RuntimeBuilder, RuntimeConfig, RuntimeReport,
    ShardConfig, SupervisionConfig, VirtualClock,
};
use smbm_switch::{Counters, PortId, ValuePacket, ValueSwitchConfig, WorkPacket, WorkSwitchConfig};

use crate::server::{NetConfig, NetIngress};

/// Everything the network server needs to know.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Packet model served. The combined model has no wire format and is
    /// rejected.
    pub model: Model,
    /// Policy name, resolved through the model's registry
    /// (case-insensitive).
    pub policy: String,
    /// Output ports per shard.
    pub ports: usize,
    /// Shared buffer capacity per shard (`B`).
    pub buffer: usize,
    /// Transmission speedup (`C`).
    pub speedup: u32,
    /// Switch shards; every socket fans out across all of them.
    pub shards: usize,
    /// Ingress ring depth, in batches, per (socket, shard) pair.
    pub ring_capacity: usize,
    /// The ingress plane: listen addresses, fanout, client expectations.
    pub net: NetConfig,
    /// Faults to inject during the run (chaos mode); empty injects
    /// nothing. Sockets stay bound and serving across shard restarts.
    pub faults: FaultPlan,
    /// Restarts allowed per shard before its supervisor gives up.
    pub restart_budget: u32,
    /// Run the live telemetry plane alongside the datapath; the per-shard
    /// stat cells then carry the net ingress tallies too.
    pub telemetry: Option<TelemetryConfig>,
    /// Attach crash flight recorders; post-mortem dump headers carry the
    /// net tallies of the sockets feeding the dead shard.
    pub flight: Option<FlightConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            model: Model::Work,
            policy: "LWD".to_owned(),
            ports: 64,
            buffer: 256,
            speedup: 1,
            shards: 1,
            ring_capacity: 64,
            net: NetConfig::default(),
            faults: FaultPlan::none(),
            restart_budget: 3,
            telemetry: None,
            flight: None,
        }
    }
}

/// A rejected [`ServeConfig`] or a failed socket operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The policy name is not in the model's registry.
    UnknownPolicy {
        /// The model whose registry was consulted.
        model: Model,
        /// The offending name.
        policy: String,
    },
    /// A structural parameter was invalid.
    InvalidConfig(String),
    /// Binding or inspecting the sockets failed.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownPolicy { model, policy } => {
                write!(f, "unknown {model}-model policy {policy:?}")
            }
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Io(msg) => write!(f, "net ingress: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a serve run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The model served.
    pub model: Model,
    /// Canonical policy name (registry casing).
    pub policy: String,
    /// The addresses that were actually bound, in listen order.
    pub local_addrs: Vec<SocketAddr>,
    /// The underlying datapath report; net tallies ride on the producer
    /// reports ([`RuntimeReport::net_counts`]).
    pub runtime: RuntimeReport,
}

impl ServeReport {
    /// Datapath-wide counters (see [`RuntimeReport::counters`]), including
    /// the `NetDecode` drop fold.
    pub fn counters(&self) -> Counters {
        self.runtime.counters()
    }

    /// Sum of every shard's objective.
    pub fn score(&self) -> u64 {
        self.runtime.score()
    }

    /// Wire-level tallies summed over every socket.
    pub fn net_counts(&self) -> NetCounts {
        self.runtime.net_counts()
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let c = self.counters();
        format!(
            "{{\"model\":\"{}\",\"policy\":\"{}\",\"shards\":{},\"sockets\":{},\
             \"arrived\":{},\"admitted\":{},\"transmitted\":{},\"score\":{},\
             \"drops\":{{\"switch\":{},\"backpressure\":{},\"shard_failure\":{},\
             \"net_decode\":{}}},\"lost\":{},\"restarts\":{},\"orphans\":{},\
             \"gave_up\":{},\"net\":{},\"flight_dumps\":{},\"elapsed_ms\":{:.3},\
             \"packets_per_sec\":{:.0}}}",
            self.model,
            self.policy,
            self.runtime.shards.len(),
            self.local_addrs.len(),
            c.arrived(),
            c.admitted(),
            c.transmitted(),
            self.score(),
            c.dropped_at_switch(),
            c.dropped_backpressure(),
            c.dropped_shard_failure(),
            c.dropped_net_decode(),
            self.runtime.lost_packets(),
            self.runtime.restarts(),
            self.runtime.orphaned_packets(),
            self.runtime.shards_gave_up(),
            self.net_counts().to_json(),
            self.runtime.flight_dumps(),
            self.runtime.elapsed.as_secs_f64() * 1e3,
            self.runtime.processed_per_sec(),
        )
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.counters();
        let net = self.net_counts();
        writeln!(
            f,
            "serve {} model, policy {}, {} shard(s) on {} socket(s): \
             {} packets in {:.1} ms ({:.0} packets/sec)",
            self.model,
            self.policy,
            self.runtime.shards.len(),
            self.local_addrs.len(),
            c.arrived(),
            self.runtime.elapsed.as_secs_f64() * 1e3,
            self.runtime.processed_per_sec(),
        )?;
        writeln!(
            f,
            "  net: {} datagram(s), {} frame(s), {} decode error(s), {} truncation(s)",
            net.datagrams, net.frames, net.decode_errors, net.truncations,
        )?;
        writeln!(
            f,
            "  admitted {} | dropped at switch {} | backpressure {} | net_decode {} | score {}",
            c.admitted(),
            c.dropped_at_switch(),
            c.dropped_backpressure(),
            c.dropped_net_decode(),
            self.score(),
        )?;
        if self.runtime.shard_panics > 0 {
            writeln!(
                f,
                "  supervision: {} panic(s), {} restart(s), {} shard(s) abandoned \
                 — sockets stayed bound throughout",
                self.runtime.shard_panics,
                self.runtime.restarts(),
                self.runtime.shards_gave_up(),
            )?;
        }
        for err in &self.runtime.obs_errors {
            writeln!(f, "  observability error: {err}")?;
        }
        for (i, addr) in self.local_addrs.iter().enumerate() {
            writeln!(f, "  socket {i}: {addr}")?;
        }
        Ok(())
    }
}

fn validate(config: &ServeConfig) -> Result<(), ServeError> {
    if config.ports == 0 {
        return Err(ServeError::InvalidConfig("ports must be positive".into()));
    }
    if config.buffer < config.ports {
        return Err(ServeError::InvalidConfig(format!(
            "buffer {} smaller than ports {}",
            config.buffer, config.ports
        )));
    }
    if config.shards == 0 {
        return Err(ServeError::InvalidConfig(
            "at least one shard required".into(),
        ));
    }
    if config.speedup == 0 {
        return Err(ServeError::InvalidConfig("speedup must be positive".into()));
    }
    Ok(())
}

/// Binds the configured sockets and serves until every expected client has
/// FINed (or the ingress goes idle past its timeout).
///
/// # Errors
///
/// Returns [`ServeError`] for an unknown policy, invalid parameters, or a
/// failed bind; nothing is spawned in that case.
pub fn run_server(config: &ServeConfig) -> Result<ServeReport, ServeError> {
    let ingress =
        NetIngress::bind(config.net.clone()).map_err(|e| ServeError::Io(e.to_string()))?;
    run_bound_server(config, ingress)
}

/// Like [`run_server`], but over sockets bound beforehand — the pattern for
/// ephemeral ports: bind, read [`NetIngress::local_addrs`] back, hand them
/// to the clients, then serve.
///
/// # Errors
///
/// Returns [`ServeError`] for an unknown policy or invalid parameters.
pub fn run_bound_server(
    config: &ServeConfig,
    ingress: NetIngress,
) -> Result<ServeReport, ServeError> {
    validate(config)?;
    let local_addrs = ingress
        .local_addrs()
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let invalid = |e: &dyn fmt::Display| ServeError::InvalidConfig(e.to_string());
    let runtime_config = RuntimeConfig {
        ring_capacity: config.ring_capacity,
        shard: ShardConfig {
            mode: IngestMode::Freerun,
            flush: None,
            drain_at_end: true,
        },
        record_metrics: false,
        faults: config.faults.clone(),
        supervision: SupervisionConfig {
            restart_budget: config.restart_budget,
            ..SupervisionConfig::default()
        },
        telemetry: config.telemetry.clone(),
        flight: config.flight.clone(),
    };
    match config.model {
        Model::Work => {
            let canonical = work_policy_by_name(&config.policy)
                .ok_or_else(|| ServeError::UnknownPolicy {
                    model: config.model,
                    policy: config.policy.clone(),
                })?
                .name()
                .to_owned();
            let switch_cfg = WorkSwitchConfig::contiguous(config.ports as u32, config.buffer)
                .map_err(|e| invalid(&e))?;
            let mut builder = RuntimeBuilder::new(runtime_config);
            let ids: Vec<_> = (0..config.shards)
                .map(|_| {
                    let cfg = switch_cfg.clone();
                    let name = canonical.clone();
                    let speedup = config.speedup;
                    builder.add_shard(move || {
                        let policy = work_policy_by_name(&name).expect("validated above");
                        smbm_core::WorkRunner::new(cfg.clone(), policy, speedup)
                    })
                })
                .collect();
            // Admission treats an unknown port or mismatched work as a
            // programming error, so the wire check must be exactly as
            // strict as the switch.
            let works: Vec<u32> = (0..config.ports)
                .map(|i| switch_cfg.work(PortId::new(i)).cycles())
                .collect();
            ingress.attach(&mut builder, &ids, move |p: &WorkPacket| {
                works.get(p.port().index()).copied() == Some(p.work().cycles())
            });
            let runtime = builder.run(|_| VirtualClock::new());
            Ok(ServeReport {
                model: config.model,
                policy: canonical,
                local_addrs,
                runtime,
            })
        }
        Model::Value => {
            let canonical = value_policy_by_name(&config.policy)
                .ok_or_else(|| ServeError::UnknownPolicy {
                    model: config.model,
                    policy: config.policy.clone(),
                })?
                .name()
                .to_owned();
            let switch_cfg =
                ValueSwitchConfig::new(config.buffer, config.ports).map_err(|e| invalid(&e))?;
            let mut builder = RuntimeBuilder::new(runtime_config);
            let ids: Vec<_> = (0..config.shards)
                .map(|_| {
                    let name = canonical.clone();
                    let speedup = config.speedup;
                    builder.add_shard(move || {
                        let policy = value_policy_by_name(&name).expect("validated above");
                        smbm_core::ValueRunner::new(switch_cfg, policy, speedup)
                    })
                })
                .collect();
            let ports = config.ports;
            ingress.attach(&mut builder, &ids, move |p: &ValuePacket| {
                p.port().index() < ports
            });
            let runtime = builder.run(|_| VirtualClock::new());
            Ok(ServeReport {
                model: config.model,
                policy: canonical,
                local_addrs,
                runtime,
            })
        }
        Model::Combined => Err(ServeError::InvalidConfig(
            "the combined model has no wire format; use work or value".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{run_netgen, NetGenConfig};
    use crate::server::Fanout;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn rejects_bad_configs_without_spawning() {
        let mut cfg = ServeConfig {
            net: NetConfig {
                listen: vec!["127.0.0.1:0".parse().unwrap()],
                ..NetConfig::default()
            },
            ..ServeConfig::default()
        };
        cfg.policy = "nonsense".into();
        assert!(matches!(
            run_server(&cfg),
            Err(ServeError::UnknownPolicy { .. })
        ));
        cfg.policy = "LWD".into();
        cfg.buffer = 1;
        assert!(matches!(
            run_server(&cfg),
            Err(ServeError::InvalidConfig(_))
        ));
        cfg.buffer = 256;
        cfg.model = Model::Combined;
        assert!(run_server(&cfg).is_err());
        cfg.model = Model::Work;
        cfg.net.listen.clear();
        assert!(matches!(run_server(&cfg), Err(ServeError::Io(_))));
    }

    #[test]
    fn loopback_smoke_run_reconciles_exactly() {
        let serve_cfg = ServeConfig {
            ports: 8,
            buffer: 32,
            shards: 2,
            net: NetConfig {
                listen: vec!["127.0.0.1:0".parse().unwrap()],
                fanout: Fanout::ByPort,
                expected_clients: 2,
                read_timeout: Duration::from_millis(5),
                idle_timeout: Duration::from_secs(30),
                ..NetConfig::default()
            },
            ..ServeConfig::default()
        };
        let ingress = NetIngress::bind(serve_cfg.net.clone()).unwrap();
        let addrs = ingress.local_addrs().unwrap();
        let server = thread::spawn(move || run_bound_server(&serve_cfg, ingress).unwrap());
        let gen = run_netgen(&NetGenConfig {
            targets: addrs,
            clients: 2,
            ports: 8,
            slots: 300,
            sources: 10,
            batch: 32,
            window: 8,
            ..NetGenConfig::default()
        })
        .unwrap();
        let report = server.join().unwrap();
        assert!(gen.all_completed(), "{gen}");
        assert!(gen.frames_sent() > 0);
        let c = report.counters();
        assert_eq!(
            c.arrived(),
            gen.frames_declared(),
            "every declared frame is accounted: {gen}\n{report}"
        );
        assert_eq!(c.dropped_net_decode(), 0);
        assert!(c.check_conservation(0).is_ok());
        assert_eq!(report.net_counts().frames, gen.frames_sent());
        assert!(report.to_json().contains("\"net\":{\"datagrams\":"));
    }
}
