//! The one packet-model trait, [`PacketModel`]: what every experiment,
//! construction replay, load generator and server needs to know about a
//! model beyond its queue discipline, so each of them is one generic body.

use smbm_switch::{
    CombinedQueue, ConfigError, QueueDiscipline, ValueQueue, ValueSwitchConfig, WorkQueue,
    WorkSwitchConfig,
};

use crate::{
    combined_policy_by_name, value_policy_by_name, work_policy_by_name, CombinedPolicy,
    CombinedPqOpt, DatapathSystem, Policy, ValuePolicy, ValuePqOpt, WorkPolicy, WorkPqOpt,
    COMBINED_POLICY_NAMES, VALUE_POLICY_NAMES, WORK_POLICY_NAMES,
};

/// A packet model as the paper evaluates it (§V): a queue discipline with
/// its policy registry and roster, its single-PQ OPT surrogate, and the
/// switch configuration a port count and a buffer size name.
///
/// Implemented for [`WorkQueue`] (heterogeneous processing), [`ValueQueue`]
/// (heterogeneous values) and [`CombinedQueue`] (both, an extension).
///
/// ```
/// use smbm_core::{PacketModel, Runner};
/// use smbm_switch::ValueQueue;
///
/// let config = ValueQueue::config(4, 16)?;
/// let policy = ValueQueue::policy_by_name("mrd").expect("registered");
/// let runner = Runner::<ValueQueue, _>::new(config, policy, 1);
/// assert_eq!(runner.switch().buffer(), 16);
/// assert_eq!(ValueQueue::LABEL, "value");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait PacketModel:
    QueueDiscipline<Config: Send + Sync + 'static, Packet: Sync> + Send + 'static
{
    /// Stable lowercase label: `"work"`, `"value"` or `"combined"`.
    const LABEL: &'static str;

    /// The model's paper roster, in presentation order.
    const POLICY_NAMES: &'static [&'static str];

    /// The registry's trait object (`dyn WorkPolicy`, ...).
    type Registered: ?Sized + Policy<Self> + 'static;

    /// The OPT surrogate the roster is measured against.
    type Opt: DatapathSystem<Packet = Self::Packet>;

    /// Instantiates a bundled policy by name (case-insensitive); `None` for
    /// names outside the model's registry.
    fn policy_by_name(name: &str) -> Option<Box<Self::Registered>>;

    /// The OPT surrogate over a `buffer`-slot buffer with `cores` cores (the
    /// paper uses `n * C`).
    fn opt(buffer: usize, cores: u32) -> Self::Opt;

    /// The switch configuration with `ports` output ports and a `buffer`
    /// slot buffer; where ports carry work labels, port `i` requires `i + 1`
    /// cycles.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for shapes the model rejects (no ports, `B < n`).
    fn config(ports: usize, buffer: usize) -> Result<Self::Config, ConfigError>;
}

impl PacketModel for WorkQueue {
    const LABEL: &'static str = "work";
    const POLICY_NAMES: &'static [&'static str] = WORK_POLICY_NAMES;
    type Registered = dyn WorkPolicy;
    type Opt = WorkPqOpt;

    fn policy_by_name(name: &str) -> Option<Box<dyn WorkPolicy>> {
        work_policy_by_name(name)
    }

    fn opt(buffer: usize, cores: u32) -> WorkPqOpt {
        WorkPqOpt::new(buffer, cores)
    }

    fn config(ports: usize, buffer: usize) -> Result<WorkSwitchConfig, ConfigError> {
        WorkSwitchConfig::contiguous(ports as u32, buffer)
    }
}

impl PacketModel for ValueQueue {
    const LABEL: &'static str = "value";
    const POLICY_NAMES: &'static [&'static str] = VALUE_POLICY_NAMES;
    type Registered = dyn ValuePolicy;
    type Opt = ValuePqOpt;

    fn policy_by_name(name: &str) -> Option<Box<dyn ValuePolicy>> {
        value_policy_by_name(name)
    }

    fn opt(buffer: usize, cores: u32) -> ValuePqOpt {
        ValuePqOpt::new(buffer, cores)
    }

    fn config(ports: usize, buffer: usize) -> Result<ValueSwitchConfig, ConfigError> {
        ValueSwitchConfig::new(buffer, ports)
    }
}

impl PacketModel for CombinedQueue {
    const LABEL: &'static str = "combined";
    const POLICY_NAMES: &'static [&'static str] = COMBINED_POLICY_NAMES;
    type Registered = dyn CombinedPolicy;
    type Opt = CombinedPqOpt;

    fn policy_by_name(name: &str) -> Option<Box<dyn CombinedPolicy>> {
        combined_policy_by_name(name)
    }

    fn opt(buffer: usize, cores: u32) -> CombinedPqOpt {
        CombinedPqOpt::new(buffer, cores)
    }

    fn config(ports: usize, buffer: usize) -> Result<WorkSwitchConfig, ConfigError> {
        WorkSwitchConfig::contiguous(ports as u32, buffer)
    }
}
