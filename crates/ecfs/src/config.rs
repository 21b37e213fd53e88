//! Cluster and method configuration.
//!
//! The update method under test is an [`Arc<dyn UpdateMethod>`] — any
//! driver implementing the trait, built-in ([`crate::methods::builtins`])
//! or registered out-of-tree via [`crate::methods::MethodRegistry`].

use std::sync::Arc;

use rscode::CodeParams;
use simdisk::{HddConfig, SsdConfig};
use tsue::pool::PoolConfig;
use tsue::MergeMode;

use crate::cache::{CacheConfig, Cached, StagingConfig};
use crate::fleet::DiskFleet;
use crate::methods::spec::MethodSpec;
use crate::methods::UpdateMethod;
use crate::placement::{FlatRotate, PlacementPolicy, RackMap};

/// A rejected configuration, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<String> for ConfigError {
    fn from(reason: String) -> ConfigError {
        ConfigError(reason)
    }
}

impl From<&str> for ConfigError {
    fn from(reason: &str) -> ConfigError {
        ConfigError(reason.to_string())
    }
}

/// One device model (a node of a [`DiskFleet`] carries exactly one).
#[derive(Debug, Clone)]
pub enum DiskKind {
    /// NAND SSD (the paper's primary testbed).
    Ssd(SsdConfig),
    /// Mechanical HDD (the §5.4 cluster).
    Hdd(HddConfig),
}

/// TSUE's optimisation toggles, matching the Fig. 7 breakdown points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsueFeatures {
    /// O1: exploit spatio-temporal locality in the DataLog (merge records).
    pub data_locality: bool,
    /// O2: exploit locality in the ParityLog.
    pub parity_locality: bool,
    /// O3: the FIFO log-pool structure (without it, a single log unit makes
    /// append and recycle mutually exclusive).
    pub log_pool: bool,
    /// O4: multiple log pools per device (4 instead of 1).
    pub multi_pool: bool,
    /// O5: the DeltaLog middle layer (Eq. 5 cross-block merging).
    pub delta_log: bool,
}

impl TsueFeatures {
    /// Everything on — the full TSUE of Fig. 5.
    pub fn full() -> TsueFeatures {
        TsueFeatures {
            data_locality: true,
            parity_locality: true,
            log_pool: true,
            multi_pool: true,
            delta_log: true,
        }
    }

    /// The Fig. 7 baseline: DataLog + ParityLog in memory, nothing else.
    pub fn baseline() -> TsueFeatures {
        TsueFeatures {
            data_locality: false,
            parity_locality: false,
            log_pool: false,
            multi_pool: false,
            delta_log: false,
        }
    }

    /// The cumulative Fig. 7 ladder: Baseline, +O1, +O2, +O3, +O4, +O5.
    pub fn ladder() -> [(&'static str, TsueFeatures); 6] {
        let mut f = Self::baseline();
        let base = f;
        f.data_locality = true;
        let o1 = f;
        f.parity_locality = true;
        let o2 = f;
        f.log_pool = true;
        let o3 = f;
        f.multi_pool = true;
        let o4 = f;
        f.delta_log = true;
        let o5 = f;
        [
            ("Baseline", base),
            ("O1", o1),
            ("O2", o2),
            ("O3", o3),
            ("O4", o4),
            ("O5", o5),
        ]
    }
}

/// Cap on distinct client *network endpoints*: the fabric's traffic
/// matrix is O(endpoints²), so populations beyond this share endpoint
/// slots round-robin ([`ClusterConfig::client_endpoint`]). Populations at
/// or below the cap keep the exact 1:1 client→endpoint mapping of before.
pub const MAX_CLIENT_ENDPOINTS: usize = 1024;

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of OSD nodes.
    pub nodes: usize,
    /// Number of client streams. A plain `u64`: populations are never
    /// indexed densely — runtime state is sparse (O(active), see
    /// `ecfs::replay`) and network endpoints come from a bounded slot
    /// pool ([`MAX_CLIENT_ENDPOINTS`]), so a million clients is a valid
    /// setting, not a million-element allocation.
    pub clients: u64,
    /// RS(k, m) shape.
    pub code: CodeParams,
    /// Bytes per EC block.
    pub block_bytes: u64,
    /// The disk population, one device per OSD node
    /// ([`DiskFleet::Uniform`] reproduces the single-model cluster byte
    /// for byte; tiered and explicit fleets make nodes differ).
    pub fleet: DiskFleet,
    /// Network fabric (endpoints are sized automatically).
    pub net_bandwidth: u64,
    /// Per-RPC network overhead in nanoseconds.
    pub net_rpc_overhead: u64,
    /// Number of racks: OSDs split into contiguous racks, clients
    /// round-robin over them. `1` is the paper's single-switch fabric.
    pub racks: usize,
    /// Spine oversubscription ratio (`1.0` = full bisection; only
    /// meaningful with `racks > 1`).
    pub oversubscription: f64,
    /// Block-placement policy (trait object; see [`crate::placement`] for
    /// the built-ins).
    pub placement: Arc<dyn PlacementPolicy>,
    /// Update method under test (trait object; see
    /// [`crate::methods::builtins`] for the built-ins and
    /// [`crate::methods::MethodRegistry`] for out-of-tree drivers).
    pub method: Arc<dyn UpdateMethod>,
    /// TSUE feature toggles (ignored by other methods).
    pub tsue: TsueFeatures,
    /// Log-unit size for TSUE layers.
    pub tsue_unit_bytes: u64,
    /// Unit quota per TSUE pool (Fig. 6b sweeps this).
    pub tsue_max_units: usize,
    /// PLR reserved-space bytes per parity block.
    pub plr_reserved_bytes: u64,
    /// CoRD collector buffer bytes.
    pub cord_buffer_bytes: u64,
    /// PARIX parity-log recycle threshold per node (epoch length; each
    /// epoch reset re-exposes the first-touch network round).
    pub parix_threshold_bytes: u64,
    /// FL log-recycle threshold in bytes per node.
    pub fl_threshold_bytes: u64,
    /// Per-record CPU time (ns) spent by TSUE's recycle threads (index
    /// walk, memcpy, checksum) — the thread-pool cost of §3.2.1.
    pub tsue_recycle_cpu_per_record: u64,
}

impl ClusterConfig {
    /// A builder starting from the SSD-testbed defaults; `code` and
    /// `method` must be supplied before [`ClusterConfigBuilder::build`].
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// The paper's SSD testbed: 16 nodes, 25 Gb/s, one SSD each.
    pub fn ssd_testbed(code: CodeParams, method: Arc<dyn UpdateMethod>) -> ClusterConfig {
        ClusterConfig {
            nodes: 16,
            clients: 16,
            code,
            block_bytes: 4 << 20,
            fleet: DiskFleet::uniform_ssd(),
            net_bandwidth: 25_000_000_000 / 8,
            net_rpc_overhead: 100_000,
            racks: 1,
            oversubscription: 1.0,
            placement: Arc::new(FlatRotate),
            method,
            tsue: TsueFeatures::full(),
            tsue_unit_bytes: 16 << 20,
            tsue_max_units: 4,
            plr_reserved_bytes: 256 << 10,
            cord_buffer_bytes: 12 << 20,
            parix_threshold_bytes: 4 << 20,
            fl_threshold_bytes: 256 << 20,
            tsue_recycle_cpu_per_record: 25_000,
        }
    }

    /// The paper's HDD testbed: 16 nodes, 40 Gb/s InfiniBand. The paper
    /// disables the DeltaLog on HDDs (§5.4).
    pub fn hdd_testbed(code: CodeParams, method: Arc<dyn UpdateMethod>) -> ClusterConfig {
        let mut cfg = Self::ssd_testbed(code, method);
        cfg.fleet = DiskFleet::uniform_hdd();
        cfg.net_bandwidth = 40_000_000_000 / 8;
        cfg.net_rpc_overhead = 30_000;
        cfg.tsue.delta_log = false;
        cfg
    }

    /// Pool configuration for one TSUE layer under the current toggles.
    pub fn tsue_pool_cfg(&self, mode: MergeMode) -> PoolConfig {
        if self.tsue.log_pool {
            PoolConfig {
                unit_bytes: self.tsue_unit_bytes,
                min_units: 2.min(self.tsue_max_units),
                max_units: self.tsue_max_units.max(2),
                mode,
            }
        } else {
            // O3 off: a single log (two tiny units so the pool type still
            // works, but append and recycle contend — see the TSUE driver).
            PoolConfig {
                unit_bytes: self.tsue_unit_bytes,
                min_units: 2,
                max_units: 2,
                mode,
            }
        }
    }

    /// CoRD's collector buffer, budgeted per parity block (scales with m).
    pub fn cord_buffer_for(&self) -> u64 {
        self.cord_buffer_bytes * self.code.m() as u64 / 2
    }

    /// PARIX's per-node log-epoch length. A stripe's first-touch state
    /// resets when *any* of its m parity nodes rolls an epoch, so the
    /// per-node budget scales with m² to keep the per-stripe reset rate
    /// comparable across code shapes.
    pub fn parix_threshold_for(&self) -> u64 {
        let m = self.code.m() as u64;
        self.parix_threshold_bytes * m * m / 4
    }

    /// Pools per device per layer under the current toggles.
    pub fn tsue_pools_per_layer(&self) -> usize {
        if self.tsue.multi_pool {
            4
        } else {
            1
        }
    }

    /// Distinct client endpoint slots: one per client up to
    /// [`MAX_CLIENT_ENDPOINTS`], shared round-robin beyond it.
    pub fn client_slots(&self) -> usize {
        self.clients.min(MAX_CLIENT_ENDPOINTS as u64) as usize
    }

    /// Network endpoint ids: OSDs are `0..nodes`, client slots follow.
    pub fn endpoints(&self) -> usize {
        self.nodes + self.client_slots()
    }

    /// Endpoint id of client `c` (its slot in the bounded endpoint pool;
    /// 1:1 while `clients <= MAX_CLIENT_ENDPOINTS`).
    pub fn client_endpoint(&self, c: u64) -> usize {
        self.nodes + (c % self.client_slots() as u64) as usize
    }

    /// The OSD side of the topology: nodes split into contiguous racks,
    /// each weighted by its disk's capacity (MiB units) so
    /// capacity-aware placement policies can see the fleet's skew.
    pub fn rack_map(&self) -> RackMap {
        let weights: Vec<u64> = (0..self.nodes)
            .map(|n| (self.fleet.capacity_of(n) >> 20).max(1))
            .collect();
        RackMap::contiguous(self.nodes, self.racks).with_node_weights(weights)
    }

    /// The rack hosting client `c` (endpoint slots round-robin over
    /// racks; the rack follows the client's slot).
    pub fn client_rack(&self, c: u64) -> usize {
        (c % self.client_slots() as u64) as usize % self.racks
    }

    /// The full fabric topology: OSD racks from [`Self::rack_map`], client
    /// endpoint slots round-robin over the same racks.
    pub fn topology(&self) -> simnet::Topology {
        let rm = self.rack_map();
        let mut rack_of: Vec<usize> = (0..self.nodes).map(|n| rm.rack_of(n)).collect();
        rack_of.extend((0..self.client_slots()).map(|s| s % self.racks));
        simnet::Topology::racked(rack_of, self.oversubscription)
    }

    /// Validates cross-field invariants, including the network and
    /// placement configuration — so a bad fabric is rejected at build time
    /// rather than panicking inside `Network::new` mid-replay.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes < self.code.total() {
            return Err(ConfigError(format!(
                "{} nodes cannot hold RS({},{}) stripes",
                self.nodes,
                self.code.k(),
                self.code.m()
            )));
        }
        if self.clients == 0 {
            return Err("need at least one client".into());
        }
        if self.block_bytes == 0 || !self.block_bytes.is_multiple_of(4096) {
            return Err("block_bytes must be a positive multiple of 4 KiB".into());
        }
        if self.tsue_unit_bytes < 4096 {
            return Err(ConfigError(format!(
                "tsue_unit_bytes = {} is below the 4 KiB slice granularity",
                self.tsue_unit_bytes
            )));
        }
        if self.tsue_max_units == 0 {
            return Err("tsue_max_units must be at least 1".into());
        }
        if self.net_bandwidth == 0 {
            return Err("net_bandwidth must be positive".into());
        }
        self.fleet.validate(self.nodes).map_err(ConfigError)?;
        if self.racks == 0 {
            return Err("racks must be at least 1".into());
        }
        if self.racks > self.nodes {
            return Err(ConfigError(format!(
                "{} racks cannot be cut from {} nodes",
                self.racks, self.nodes
            )));
        }
        if !self.oversubscription.is_finite() || self.oversubscription < 1.0 {
            return Err(ConfigError(format!(
                "oversubscription = {} must be a finite ratio >= 1.0",
                self.oversubscription
            )));
        }
        self.placement
            .check(self.code, &self.rack_map())
            .map_err(ConfigError)?;
        Ok(())
    }
}

/// Builder for [`ClusterConfig`] with fail-fast validation.
///
/// Starts from the SSD-testbed defaults; set [`Self::code`] and a method
/// (either [`Self::method`] or [`Self::method_name`]) before building:
///
/// ```
/// use std::sync::Arc;
///
/// use ecfs::methods::{Fo, Tsue};
/// use ecfs::ClusterConfig;
/// use rscode::CodeParams;
///
/// let cfg = ClusterConfig::builder()
///     .code(CodeParams::new(6, 3).unwrap())
///     .method(Arc::new(Tsue))
///     .clients(8)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.method.name(), "TSUE");
///
/// // Invalid shapes are rejected with the reason:
/// let err = ClusterConfig::builder()
///     .code(CodeParams::new(12, 4).unwrap())
///     .method(Arc::new(Fo))
///     .nodes(10)
///     .build()
///     .unwrap_err();
/// assert!(err.to_string().contains("cannot hold"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClusterConfigBuilder {
    code: Option<CodeParams>,
    method: Option<MethodChoice>,
    nodes: Option<usize>,
    clients: Option<u64>,
    block_bytes: Option<u64>,
    fleet: Option<DiskFleet>,
    net_bandwidth: Option<u64>,
    net_rpc_overhead: Option<u64>,
    racks: Option<usize>,
    oversubscription: Option<f64>,
    placement: Option<Arc<dyn PlacementPolicy>>,
    tsue: Option<TsueFeatures>,
    tsue_unit_bytes: Option<u64>,
    tsue_max_units: Option<usize>,
    plr_reserved_bytes: Option<u64>,
    cord_buffer_bytes: Option<u64>,
    parix_threshold_bytes: Option<u64>,
    fl_threshold_bytes: Option<u64>,
    tsue_recycle_cpu_per_record: Option<u64>,
    cache: Option<CacheConfig>,
    staging: Option<StagingConfig>,
}

#[derive(Debug, Clone)]
enum MethodChoice {
    Driver(Arc<dyn UpdateMethod>),
    Name(String),
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident : $ty:ty),+ $(,)?) => {$(
        $(#[$doc])*
        pub fn $field(mut self, value: $ty) -> Self {
            self.$field = Some(value);
            self
        }
    )+};
}

impl ClusterConfigBuilder {
    builder_setters! {
        /// RS(k, m) shape (required).
        code: CodeParams,
        /// Number of OSD nodes.
        nodes: usize,
        /// Number of client streams.
        clients: u64,
        /// Bytes per EC block.
        block_bytes: u64,
        /// Network fabric bandwidth in bytes/s.
        net_bandwidth: u64,
        /// Per-RPC network overhead in nanoseconds.
        net_rpc_overhead: u64,
        /// Number of racks (OSDs split contiguously, clients round-robin).
        racks: usize,
        /// Spine oversubscription ratio.
        oversubscription: f64,
        /// The block-placement policy, e.g. `Arc::new(RackAware)`.
        placement: Arc<dyn PlacementPolicy>,
        /// TSUE feature toggles.
        tsue: TsueFeatures,
        /// Log-unit size for TSUE layers.
        tsue_unit_bytes: u64,
        /// Unit quota per TSUE pool.
        tsue_max_units: usize,
        /// PLR reserved-space bytes per parity block.
        plr_reserved_bytes: u64,
        /// CoRD collector buffer bytes.
        cord_buffer_bytes: u64,
        /// PARIX parity-log recycle threshold per node.
        parix_threshold_bytes: u64,
        /// FL log-recycle threshold in bytes per node.
        fl_threshold_bytes: u64,
        /// Per-record recycle-thread CPU time in nanoseconds.
        tsue_recycle_cpu_per_record: u64,
    }

    /// The per-node disk population.
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use ecfs::methods::Tsue;
    /// use ecfs::{ClusterConfig, DiskFleet};
    /// use rscode::CodeParams;
    ///
    /// let cfg = ClusterConfig::builder()
    ///     .code(CodeParams::new(6, 3).unwrap())
    ///     .method(Arc::new(Tsue))
    ///     .fleet(DiskFleet::tiered(8, 8))
    ///     .build()
    ///     .unwrap();
    /// assert!(cfg.fleet.is_ssd(0) && !cfg.fleet.is_ssd(15));
    ///
    /// // A fleet not covering every node is rejected with the reason:
    /// let err = ClusterConfig::builder()
    ///     .code(CodeParams::new(6, 3).unwrap())
    ///     .method(Arc::new(Tsue))
    ///     .fleet(DiskFleet::tiered(8, 4))
    ///     .build()
    ///     .unwrap_err();
    /// assert!(err.to_string().contains("the cluster has 16"));
    /// ```
    pub fn fleet(mut self, fleet: DiskFleet) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// The update method's driver, e.g. `Arc::new(Tsue)`.
    pub fn method(mut self, method: Arc<dyn UpdateMethod>) -> Self {
        self.method = Some(MethodChoice::Driver(method));
        self
    }

    /// The update method as a *spec string* — a registry name with
    /// optional cache/staging decorators ([`crate::methods::spec`]) —
    /// parsed and resolved against
    /// [`crate::methods::MethodRegistry::global`] at [`Self::build`] time:
    /// the hook for out-of-tree methods and decorated configurations alike.
    ///
    /// ```
    /// use ecfs::ClusterConfig;
    /// use rscode::CodeParams;
    ///
    /// let cfg = ClusterConfig::builder()
    ///     .code(CodeParams::new(6, 3).unwrap())
    ///     .method_name("stage(8MiB,2ms)+lru(64MiB)+PLR")
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.method.name(), "stage(8MiB,2ms)+lru(64MiB)+PLR");
    /// ```
    pub fn method_name(mut self, name: impl Into<String>) -> Self {
        self.method = Some(MethodChoice::Name(name.into()));
        self
    }

    /// Arms a node-local read cache ([`crate::cache`]) in front of the
    /// configured method; validated and wrapped at [`Self::build`] time.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Arms a per-node write-coalescing staging buffer ([`crate::cache`])
    /// in front of the configured method; validated and wrapped at
    /// [`Self::build`] time.
    pub fn staging(mut self, staging: StagingConfig) -> Self {
        self.staging = Some(staging);
        self
    }

    /// Assembles and validates the configuration.
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        let code = self.code.ok_or(ConfigError::from("code is required"))?;
        let method = match self.method {
            Some(MethodChoice::Driver(driver)) => driver,
            Some(MethodChoice::Name(name)) => {
                let spec = MethodSpec::parse(&name).map_err(|e| ConfigError(e.to_string()))?;
                crate::methods::build_method(&spec).map_err(|e| ConfigError(e.to_string()))?
            }
            None => return Err("an update method is required".into()),
        };
        let method = Cached::wrap(method, self.cache, self.staging)
            .map_err(|e| ConfigError(e.to_string()))?;
        let defaults = ClusterConfig::ssd_testbed(code, Arc::clone(&method));
        let cfg = ClusterConfig {
            nodes: self.nodes.unwrap_or(defaults.nodes),
            clients: self.clients.unwrap_or(defaults.clients),
            code,
            block_bytes: self.block_bytes.unwrap_or(defaults.block_bytes),
            fleet: self.fleet.unwrap_or(defaults.fleet),
            net_bandwidth: self.net_bandwidth.unwrap_or(defaults.net_bandwidth),
            net_rpc_overhead: self.net_rpc_overhead.unwrap_or(defaults.net_rpc_overhead),
            racks: self.racks.unwrap_or(defaults.racks),
            oversubscription: self.oversubscription.unwrap_or(defaults.oversubscription),
            placement: self.placement.unwrap_or(defaults.placement),
            method,
            tsue: self.tsue.unwrap_or(defaults.tsue),
            tsue_unit_bytes: self.tsue_unit_bytes.unwrap_or(defaults.tsue_unit_bytes),
            tsue_max_units: self.tsue_max_units.unwrap_or(defaults.tsue_max_units),
            plr_reserved_bytes: self
                .plr_reserved_bytes
                .unwrap_or(defaults.plr_reserved_bytes),
            cord_buffer_bytes: self.cord_buffer_bytes.unwrap_or(defaults.cord_buffer_bytes),
            parix_threshold_bytes: self
                .parix_threshold_bytes
                .unwrap_or(defaults.parix_threshold_bytes),
            fl_threshold_bytes: self
                .fl_threshold_bytes
                .unwrap_or(defaults.fl_threshold_bytes),
            tsue_recycle_cpu_per_record: self
                .tsue_recycle_cpu_per_record
                .unwrap_or(defaults.tsue_recycle_cpu_per_record),
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{Cord, Fo, Pl, Tsue};

    #[test]
    fn testbed_configs_validate() {
        let code = CodeParams::new(6, 4).unwrap();
        assert!(ClusterConfig::ssd_testbed(code, Arc::new(Tsue))
            .validate()
            .is_ok());
        assert!(ClusterConfig::hdd_testbed(code, Arc::new(Pl))
            .validate()
            .is_ok());
    }

    #[test]
    fn too_few_nodes_rejected() {
        let code = CodeParams::new(12, 4).unwrap();
        let mut cfg = ClusterConfig::ssd_testbed(code, Arc::new(Fo));
        cfg.nodes = 10;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn feature_ladder_is_cumulative() {
        let ladder = TsueFeatures::ladder();
        assert_eq!(ladder[0].1, TsueFeatures::baseline());
        assert_eq!(ladder[5].1, TsueFeatures::full());
        assert!(ladder[1].1.data_locality && !ladder[1].1.parity_locality);
        assert!(ladder[3].1.log_pool && !ladder[3].1.multi_pool);
    }

    #[test]
    fn hdd_testbed_disables_delta_log() {
        let code = CodeParams::new(6, 4).unwrap();
        let cfg = ClusterConfig::hdd_testbed(code, Arc::new(Tsue));
        assert!(!cfg.tsue.delta_log);
        assert!(matches!(cfg.fleet, DiskFleet::Uniform(DiskKind::Hdd(_))));
    }

    #[test]
    fn builder_fills_testbed_defaults() {
        let code = CodeParams::new(6, 3).unwrap();
        let cfg = ClusterConfig::builder()
            .code(code)
            .method(Arc::new(Cord))
            .build()
            .unwrap();
        let reference = ClusterConfig::ssd_testbed(code, Arc::new(Cord));
        assert_eq!(cfg.nodes, reference.nodes);
        assert_eq!(cfg.block_bytes, reference.block_bytes);
        assert_eq!(cfg.method.name(), "CoRD");
    }

    #[test]
    fn builder_requires_code_and_method() {
        assert!(ClusterConfig::builder().build().is_err());
        assert!(ClusterConfig::builder()
            .code(CodeParams::new(4, 2).unwrap())
            .build()
            .unwrap_err()
            .to_string()
            .contains("method"));
    }

    #[test]
    fn builder_resolves_registry_names() {
        let cfg = ClusterConfig::builder()
            .code(CodeParams::new(4, 2).unwrap())
            .method_name("parix")
            .build()
            .unwrap();
        assert_eq!(cfg.method.name(), "PARIX");
        let err = ClusterConfig::builder()
            .code(CodeParams::new(4, 2).unwrap())
            .method_name("warp-drive")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("warp-drive"));
    }

    #[test]
    fn builder_arms_cache_and_staging() {
        use crate::cache::{CacheConfig, StagingConfig};
        let cfg = ClusterConfig::builder()
            .code(CodeParams::new(4, 2).unwrap())
            .method(Arc::new(Fo))
            .cache(CacheConfig::new(64 << 20))
            .staging(StagingConfig::new(8 << 20, 2_000_000))
            .build()
            .unwrap();
        assert_eq!(cfg.method.name(), "stage(8MiB,2ms)+lru(64MiB)+FO");

        // Invalid layer sizes surface as ConfigError, not a panic.
        let err = ClusterConfig::builder()
            .code(CodeParams::new(4, 2).unwrap())
            .method(Arc::new(Fo))
            .cache(CacheConfig::new(16))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("cache size"));
    }

    #[test]
    fn builder_parses_decorated_method_names() {
        let cfg = ClusterConfig::builder()
            .code(CodeParams::new(4, 2).unwrap())
            .method_name("lru(1MiB)+tsue")
            .build()
            .unwrap();
        assert_eq!(cfg.method.name(), "lru(1MiB)+TSUE");
        // A decorated name plus builder-armed layers would double-wrap:
        // rejected with the reason.
        let err = ClusterConfig::builder()
            .code(CodeParams::new(4, 2).unwrap())
            .method_name("lru(1MiB)+tsue")
            .staging(crate::cache::StagingConfig::new(8 << 20, 1_000_000))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("already wrapped"));
    }

    #[test]
    fn builder_rejects_bad_unit_size() {
        let err = ClusterConfig::builder()
            .code(CodeParams::new(4, 2).unwrap())
            .method(Arc::new(Tsue))
            .tsue_unit_bytes(512)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("4 KiB"));
    }
}
