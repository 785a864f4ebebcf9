//! The shard's view of a policy-driven switch.
//!
//! The trait itself now lives in `smbm-datapath`: [`Service`] is a re-export
//! of [`DatapathSystem`](smbm_datapath::DatapathSystem), the same
//! model-erased bundle of operations the offline simulation engine drives —
//! the runtime's old standalone `Service` trait (and the engine's internal
//! `EngineSystem`) are superseded by it. This module keeps the runtime's
//! historical service names as aliases over the datapath adapters wrapping
//! owned policy runners.
//!
//! Shard threads construct their service from a caller-supplied factory
//! (the service itself never crosses threads; only its plain-data
//! [`Counters`](smbm_switch::Counters) snapshot comes back). Factories are
//! `Fn`, not `FnOnce`: the supervisor reinvokes the same factory to rebuild
//! a shard's service after a panic, so a factory must yield a fresh,
//! equivalently-configured service every time it is called.

use smbm_core::{CombinedRunner, ValueRunner, WorkRunner};
use smbm_datapath::{CombinedAdapter, ValueAdapter, WorkAdapter};

pub use smbm_datapath::DatapathSystem as Service;

/// A work-model service: throughput objective, per-port work requirements.
pub type WorkService<P> = WorkAdapter<WorkRunner<P>>;

/// A value-model service: value objective, unit work.
pub type ValueService<P> = ValueAdapter<ValueRunner<P>>;

/// A combined-model service (extension): value objective, per-port work.
pub type CombinedService<P> = CombinedAdapter<CombinedRunner<P>>;

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_core::Lwd;
    use smbm_switch::{ArrivalOutcome, PortId, Work, WorkPacket, WorkSwitchConfig};

    #[test]
    fn work_service_round_trip() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut svc = WorkService::new(WorkRunner::new(cfg, Lwd::new(), 1));
        assert_eq!(svc.label(), "LWD");
        let pkt = WorkPacket::new(PortId::new(0), Work::new(1));
        assert_eq!(WorkService::<Lwd>::meta(pkt), (PortId::new(0), 1, 1));
        for _ in 0..2 {
            assert_eq!(svc.offer(pkt), Ok(ArrivalOutcome::Admitted));
        }
        assert_eq!(svc.occupancy(), 2);
        assert_eq!(svc.buffer_limit(), 4);
        assert_eq!(svc.ports(), 2);
        assert_eq!(svc.max_queue_depth(), 2);
        let mut out = Vec::new();
        assert_eq!(svc.transmission_phase_into(&mut out), 1);
        svc.end_slot();
        assert_eq!(svc.score(), 1);
        assert_eq!(svc.counters().transmitted(), 1);
        assert_eq!(svc.flush(), 1);
        assert_eq!(svc.occupancy(), 0);
    }
}
