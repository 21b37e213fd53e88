//! ECFS: a simulated erasure-coded cluster file system with pluggable
//! update methods.
//!
//! Reimplements, over the deterministic DES substrate, the system the paper
//! built its evaluation on (§4): a cluster of OSD nodes each with one
//! simulated disk, a metadata service for stripe placement, closed-loop
//! clients replaying block traces, and **seven update methods**:
//!
//! | method | front-end critical path | back-end |
//! |---|---|---|
//! | FO     | in-place data + in-place parity (all random I/O) | — |
//! | FL     | full logging of data + parity deltas | threshold recycle |
//! | PL     | in-place data, parity-delta appended to parity log | deferred recycle |
//! | PLR    | in-place data, delta to *reserved space* next to parity | foreground recycle on overflow |
//! | PARIX  | in-place data, speculative forward of new data; extra round-trip on first touch | deferred recycle |
//! | CoRD   | in-place data, deltas aggregated at a collector (Eq. 5) through a single fixed buffer | foreground flush when full |
//! | TSUE   | replicated sequential DataLog append only | real-time three-layer pipeline |
//!
//! Every driver charges its exact I/O pattern to the device models and its
//! exact message sizes to the network model, so throughput (Fig. 5/7/8),
//! I/O workload (Table 1), residency (Table 2), recycle overhead (Fig. 6)
//! and recovery bandwidth (Fig. 8b) all fall out of one replay engine
//! ([`replay`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod config;
pub mod fault;
pub mod fleet;
pub mod layout;
pub mod maintenance;
pub mod methods;
pub mod placement;
pub mod recovery;
pub mod replay;
pub mod telemetry;

pub use cache::{CacheConfig, Cached, PageCache, StagingConfig};
pub use cluster::Cluster;
pub use config::{ClusterConfig, ClusterConfigBuilder, ConfigError, DiskKind, TsueFeatures};
pub use fault::{FaultEvent, FaultPlan, FaultScope};
pub use fleet::{DiskFleet, DiskProfile};
pub use maintenance::{MaintenancePlan, MaintenancePolicy};
pub use methods::{
    Decorator, MethodRegistry, MethodSpec, NodeLogState, ResolveError, UpdateCtx, UpdateMethod,
};
pub use placement::{PlacementPolicy, RackMap};
pub use replay::{Replay, ReplayConfig, ReplayConfigBuilder, RunOutcome, RunResult, Workload};
pub use telemetry::{OpClass, Stage, StageRow, Trace, TraceConfig};

/// The coherent public surface, re-exported for one-line imports in
/// benches, examples, and integration tests:
///
/// ```
/// use ecfs::prelude::*;
///
/// let cluster = ClusterConfig::ssd_testbed(CodeParams::new(6, 3).unwrap(), Arc::new(Tsue));
/// let rcfg = ReplayConfig::new(cluster, TraceFamily::AliCloud);
/// assert!(rcfg.validate().is_ok());
/// ```
pub mod prelude {
    pub use crate::cache::{CacheConfig, Cached, PageCache, StagingConfig};
    pub use crate::cluster::{Cluster, IntervalSet, Metrics, Oracle, Osd};
    pub use crate::config::{
        ClusterConfig, ClusterConfigBuilder, ConfigError, DiskKind, TsueFeatures,
    };
    pub use crate::fault::{FaultEvent, FaultPlan, FaultScope, FaultState, InjectedFault};
    pub use crate::fleet::{DiskFleet, DiskProfile};
    pub use crate::layout::{BlockAddr, BlockSlice, Layout};
    pub use crate::maintenance::{
        LseConfig, MaintState, MaintenancePlan, MaintenancePolicy, ScrubConfig,
    };
    pub use crate::methods::{
        build_method, builtins, register_method, Cord, Decorator, Fl, Fo, MethodRegistry,
        MethodSpec, NodeLogState, Parix, Pl, PlainState, Plr, RegistryError, ResolveError, Tsue,
        UpdateCtx, UpdateMethod,
    };
    pub use crate::placement::{
        CapacityWeighted, Copyset, FlatRotate, PlacementPolicy, RackAware, RackLocal, RackMap,
    };
    pub use crate::recovery::{
        inject_fault, recover_node, recover_rack, recover_scope, RecoveryError, RecoveryResult,
    };
    pub use crate::replay::{
        run_update_phase, Replay, ReplayConfig, ReplayConfigBuilder, ResidencySummary, RunOutcome,
        RunResult, Workload, SATURATION_GOODPUT_RATIO,
    };
    pub use crate::telemetry::{
        OpClass, OpRecord, Stage, StageRow, Trace, TraceConfig, TraceState, UtilKind, UtilLane,
    };
    // The foreign types every experiment needs alongside the cluster
    // (`Arc` names a method or placement: `Arc::new(Tsue)`).
    pub use rscode::CodeParams;
    pub use simdisk::{HddConfig, SsdConfig};
    pub use std::sync::Arc;
    pub use traces::{TraceFamily, WorkloadGen, WorkloadParams};
    // The open-loop offered-load engine (crate `workload`).
    pub use workload::{
        ArrivalGen, BaseProcess, ClientPicker, ClientSkew, OffsetSkew, OpenLoopSpec, RateCurve,
        TimedOp, TimedStream,
    };
}
