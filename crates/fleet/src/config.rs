//! Fleet configuration and per-instance specifications.

use aging_adapt::discovery::{DiscoveryConfig, SignatureConfig};
use aging_adapt::ServiceClass;
use aging_core::{RejuvenationConfig, RejuvenationPolicy};
use aging_testbed::Scenario;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fleet-level workload change: from the given operating time onwards,
/// every *new* service epoch of the instance runs the shifted scenario
/// instead of the original one.
///
/// This models a production regime change (a traffic migration, a deploy
/// with a different leak signature) that happens while the fleet operates
/// — the situation where a frozen model goes stale and the paper's
/// adaptive retraining pays off. The shift applies at service-epoch
/// boundaries because a restart is when a deployment picks up its new
/// configuration; an epoch in flight keeps its scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadShift {
    /// Operating time (seconds of instance `elapsed` time) after which new
    /// service epochs use the shifted scenario.
    pub after_secs: f64,
    /// The scenario that takes over.
    pub scenario: Scenario,
}

/// One simulated deployment the fleet operates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceSpec {
    /// Identifier carried into the per-instance report.
    pub name: String,
    /// The workload/fault scenario this deployment runs.
    pub scenario: Scenario,
    /// Restart policy applied to this deployment.
    pub policy: RejuvenationPolicy,
    /// Base RNG seed; service epoch `e` runs under `seed + e`, matching
    /// `aging_core::rejuvenation::evaluate_policy`.
    pub seed: u64,
    /// Optional mid-run workload change (see [`WorkloadShift`]).
    pub shift: Option<WorkloadShift>,
    /// Which adaptation domain this deployment belongs to. Homogeneous
    /// fleets leave the default; heterogeneous fleets group instances by
    /// aging signature so [`crate::Fleet::run_routed`] serves and retrains
    /// each class with its own model.
    pub class: ServiceClass,
}

impl InstanceSpec {
    /// A spec with no workload shift, in the default service class.
    pub fn new(
        name: impl Into<String>,
        scenario: Scenario,
        policy: RejuvenationPolicy,
        seed: u64,
    ) -> Self {
        InstanceSpec {
            name: name.into(),
            scenario,
            policy,
            seed,
            shift: None,
            class: ServiceClass::default(),
        }
    }

    /// Moves the spec into `class` (builder-style).
    pub fn with_class(mut self, class: impl Into<ServiceClass>) -> Self {
        self.class = class.into();
        self
    }
}

/// Fleet-wide operating parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Worker threads the instances are sharded across. Capped at the
    /// instance count at run time; at least 1.
    pub shards: usize,
    /// Downtime costs, horizon and predictive warm-up — shared with the
    /// single-instance rejuvenation study so a 1-instance fleet reproduces
    /// it exactly.
    pub rejuvenation: RejuvenationConfig,
    /// When an instance is proactively restarted, a frozen-rate fork of its
    /// simulator decides whether a real crash was imminent within this many
    /// simulated seconds (counted as a crash avoided). `0.0` disables the
    /// counterfactual check (and `crashes_avoided` stays 0).
    pub counterfactual_horizon_secs: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            rejuvenation: RejuvenationConfig::default(),
            counterfactual_horizon_secs: 3600.0,
        }
    }
}

/// Class discovery for a live run, attached with
/// [`crate::Fleet::with_discovery`]: how signatures are summarised, how the
/// partition is re-evaluated, and how often.
///
/// The fleet starts with **zero operator-assigned classes**: every
/// instance begins in the router's one class, the *seed*. At every
/// reassessment boundary the discovery engine clusters the instances'
/// aging signatures; new classes register on the router with the seed's
/// current [`aging_adapt::ClassSpec`] (inheriting the nearest centroid's
/// published model as generation 0), and retired classes drain their
/// training buffer into their merge target.
#[derive(Debug, Clone)]
pub struct DiscoverySetup {
    /// Partition engine tuning (split/merge gates, seed).
    pub discovery: DiscoveryConfig,
    /// Per-instance aging-signature tuning.
    pub signature: SignatureConfig,
    /// Fleet epochs between partition re-evaluations. Assignments only
    /// change at these boundaries — an instance's class is pinned within
    /// an epoch exactly like its model snapshot.
    pub reassess_every_epochs: u64,
}

impl Default for DiscoverySetup {
    /// The default discovery and signature tuning, with a reassessment
    /// every 240 fleet epochs (one simulated hour of 15 s checkpoints).
    fn default() -> Self {
        DiscoverySetup {
            discovery: DiscoveryConfig::default(),
            signature: SignatureConfig::default(),
            reassess_every_epochs: 240,
        }
    }
}

pub(crate) fn validate_discovery(setup: &DiscoverySetup) -> Result<(), FleetError> {
    if setup.reassess_every_epochs == 0 {
        return Err(FleetError::InvalidParameter(
            "discovery reassessment interval must be at least one epoch".into(),
        ));
    }
    Ok(())
}

/// Error raised when assembling or running a fleet.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum FleetError {
    /// The fleet has no instances.
    NoInstances,
    /// A specification or configuration value is invalid.
    InvalidParameter(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoInstances => write!(f, "fleet has no instances"),
            FleetError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Validates a spec the way `evaluate_policy` validates its inputs.
pub(crate) fn validate_spec(spec: &InstanceSpec) -> Result<(), FleetError> {
    // Placement reads every roster member's workload before the run, and
    // each service epoch builds a simulator from these scenarios: reject
    // one the simulator would refuse here, as an error.
    let shifted = spec.shift.as_ref().map(|shift| &shift.scenario);
    for scenario in std::iter::once(&spec.scenario).chain(shifted) {
        let problems = scenario.config.validate();
        if !problems.is_empty() || scenario.phases.is_empty() {
            return Err(FleetError::InvalidParameter(format!(
                "instance `{}`: scenario `{}` is not runnable: {problems:?}, {} phases",
                spec.name,
                scenario.name,
                scenario.phases.len()
            )));
        }
    }
    if let Some(shift) = &spec.shift {
        if !shift.after_secs.is_finite() || shift.after_secs < 0.0 {
            return Err(FleetError::InvalidParameter(format!(
                "instance `{}`: shift time must be finite and non-negative",
                spec.name
            )));
        }
    }
    match spec.policy {
        RejuvenationPolicy::Reactive => Ok(()),
        RejuvenationPolicy::TimeBased { interval_secs } => {
            if interval_secs <= 0.0 {
                return Err(FleetError::InvalidParameter(format!(
                    "instance `{}`: interval must be positive",
                    spec.name
                )));
            }
            Ok(())
        }
        RejuvenationPolicy::Predictive { threshold_secs, consecutive } => {
            if threshold_secs <= 0.0 || consecutive == 0 {
                return Err(FleetError::InvalidParameter(format!(
                    "instance `{}`: predictive policy needs positive threshold and \
                     consecutive count",
                    spec.name
                )));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

pub(crate) fn validate_config(config: &FleetConfig) -> Result<(), FleetError> {
    if config.shards == 0 {
        return Err(FleetError::InvalidParameter("shards must be at least 1".into()));
    }
    if config.rejuvenation.horizon_secs <= 0.0 {
        return Err(FleetError::InvalidParameter("horizon must be positive".into()));
    }
    if config.counterfactual_horizon_secs < 0.0 {
        return Err(FleetError::InvalidParameter(
            "counterfactual horizon must be non-negative".into(),
        ));
    }
    Ok(())
}
