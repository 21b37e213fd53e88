//! Name-to-driver registry for [`UpdateMethod`]s.
//!
//! The registry is how experiments plug new update methods into the replay
//! engine **without touching `ecfs` internals**: register a driver, then
//! build a cluster with [`crate::config::ClusterConfigBuilder::method_name`].
//! A driver is registered under its own [`UpdateMethod::name`], so the name
//! a run reports is the name that builds it. The process-wide
//! [`MethodRegistry::global`] instance comes pre-seeded with the paper's
//! seven built-ins ([`super::builtins`]).
//!
//! Lookups take a full method-spec string ([`crate::methods::spec`]), so
//! cache/staging decorators compose over any registered driver:
//!
//! ```
//! use ecfs::methods::{build_method, MethodRegistry, ResolveError, UpdateMethod};
//! use ecfs::MethodSpec;
//!
//! let reg = MethodRegistry::with_builtins();
//! let tsue = reg.build(&MethodSpec::parse("TSUE").unwrap()).unwrap();
//! assert_eq!(tsue.name(), "TSUE");
//!
//! // A decorated spec wraps the base driver in the cache layer.
//! let cached = build_method(&"lru(64MiB)+cord".parse().unwrap()).unwrap();
//! assert_eq!(cached.name(), "lru(64MiB)+CoRD");
//!
//! // Failures are typed.
//! assert_eq!(
//!     reg.build(&MethodSpec::base_only("no-such-method")).unwrap_err(),
//!     ResolveError::UnknownMethod("no-such-method".to_string())
//! );
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use super::spec::{MethodSpec, ResolveError};
use super::UpdateMethod;
use crate::cache::Cached;

/// Errors from registry mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The (case-folded) name is already registered.
    Duplicate(String),
    /// The name is not a bare method spec (empty, padded, or containing
    /// decorator syntax), so no spec string could ever resolve it.
    BadName(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(name) => {
                write!(f, "update method {name:?} is already registered")
            }
            RegistryError::BadName(name) => {
                write!(f, "update method name {name:?} is not a bare method spec")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Maps method names to drivers. Lookups fold ASCII case, so `"CoRD"`,
/// `"CORD"` and `"cord"` resolve to the same driver.
#[derive(Debug, Clone, Default)]
pub struct MethodRegistry {
    drivers: BTreeMap<String, Arc<dyn UpdateMethod>>,
}

impl MethodRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> MethodRegistry {
        MethodRegistry::default()
    }

    /// A registry pre-seeded with the paper's seven built-in methods.
    pub fn with_builtins() -> MethodRegistry {
        let mut reg = MethodRegistry::empty();
        for driver in super::builtins() {
            reg.register(driver).expect("built-in names are unique");
        }
        reg
    }

    /// The process-wide registry used by
    /// [`crate::config::ClusterConfigBuilder::method_name`]; pre-seeded
    /// with the built-ins.
    pub fn global() -> &'static Mutex<MethodRegistry> {
        static GLOBAL: OnceLock<Mutex<MethodRegistry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Mutex::new(MethodRegistry::with_builtins()))
    }

    /// Registers `driver` under its own [`UpdateMethod::name`]. Rejects a
    /// name that [`MethodSpec::parse`] would not read back as itself, and
    /// duplicates, so two experiments cannot silently shadow each other's
    /// drivers.
    pub fn register(&mut self, driver: Arc<dyn UpdateMethod>) -> Result<(), RegistryError> {
        let name = driver.name();
        if MethodSpec::parse(name) != Ok(MethodSpec::base_only(name)) {
            return Err(RegistryError::BadName(name.to_string()));
        }
        let key = name.to_ascii_uppercase();
        if self.drivers.contains_key(&key) {
            return Err(RegistryError::Duplicate(name.to_string()));
        }
        self.drivers.insert(key, driver);
        Ok(())
    }

    /// Builds a driver from a parsed [`MethodSpec`]: looks up the base
    /// name (ASCII-case-insensitive), then wraps it in the spec's
    /// cache/staging decorators ([`Cached::apply`]).
    pub fn build(&self, spec: &MethodSpec) -> Result<Arc<dyn UpdateMethod>, ResolveError> {
        let base = self
            .drivers
            .get(&spec.base.to_ascii_uppercase())
            .ok_or_else(|| ResolveError::UnknownMethod(spec.base.clone()))?;
        Cached::apply(Arc::clone(base), &spec.decorators)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.drivers.contains_key(&name.to_ascii_uppercase())
    }

    /// All registered (case-folded) names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.drivers.keys().cloned().collect()
    }
}

/// Registers `driver` with the process-wide registry under its own name.
pub fn register_method(driver: Arc<dyn UpdateMethod>) -> Result<(), RegistryError> {
    MethodRegistry::global()
        .lock()
        .expect("method registry lock")
        .register(driver)
}

/// Builds a driver from a parsed [`MethodSpec`] against the process-wide
/// registry.
pub fn build_method(spec: &MethodSpec) -> Result<Arc<dyn UpdateMethod>, ResolveError> {
    MethodRegistry::global()
        .lock()
        .expect("method registry lock")
        .build(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{builtins, Fo, Tsue, UpdateCtx};
    use crate::Cluster;

    /// A driver whose name is whatever the test needs.
    #[derive(Debug)]
    struct Named(&'static str);

    impl UpdateMethod for Named {
        fn name(&self) -> &str {
            self.0
        }

        fn begin_update(&self, _: &mut simdes::Sim<Cluster>, _: &mut Cluster, _: UpdateCtx) {
            unreachable!("registry tests never run a replay")
        }
    }

    /// The single-identity contract: a built-in's name is its driver's
    /// `name()`, in Fig. 5 order, and that name (in any case) builds it.
    #[test]
    fn builtins_resolve_by_any_case() {
        let names: Vec<String> = builtins().iter().map(|m| m.name().to_string()).collect();
        assert_eq!(names, ["FO", "FL", "PL", "PLR", "PARIX", "CoRD", "TSUE"]);
        for name in &names {
            for spelled in [name.clone(), name.to_lowercase(), name.to_uppercase()] {
                let m = build_method(&MethodSpec::parse(&spelled).unwrap()).unwrap();
                assert_eq!(m.name(), name);
            }
        }
        assert_eq!(
            register_method(Arc::new(Fo)),
            Err(RegistryError::Duplicate("FO".to_string()))
        );
    }

    #[test]
    fn empty_name_rejected() {
        let mut reg = MethodRegistry::empty();
        assert_eq!(
            reg.register(Arc::new(Named(""))),
            Err(RegistryError::BadName(String::new()))
        );
    }

    /// A name the spec grammar reads as decorators, or trims, could be
    /// registered but never built.
    #[test]
    fn unresolvable_names_rejected() {
        let mut reg = MethodRegistry::empty();
        for name in ["x(1)", "a+b", " padded "] {
            assert_eq!(
                reg.register(Arc::new(Named(name))),
                Err(RegistryError::BadName(name.to_string()))
            );
        }
        assert!(reg.names().is_empty());
        reg.register(Arc::new(Named("my-method"))).unwrap();
        assert!(reg.contains("MY-METHOD"));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut reg = MethodRegistry::with_builtins();
        let err = reg.register(Arc::new(Named("tsue"))).unwrap_err();
        assert_eq!(err, RegistryError::Duplicate("tsue".to_string()));
        let err = reg.register(Arc::new(Tsue)).unwrap_err();
        assert_eq!(err, RegistryError::Duplicate("TSUE".to_string()));
    }

    #[test]
    fn build_composes_decorators_over_any_base() {
        let reg = MethodRegistry::with_builtins();
        for name in ["FO", "FL", "PL", "PLR", "PARIX", "CoRD", "TSUE"] {
            let spec = MethodSpec::parse(&format!("stage(8MiB,2ms)+lru(64MiB)+{name}")).unwrap();
            let m = reg.build(&spec).unwrap();
            assert_eq!(m.name(), format!("stage(8MiB,2ms)+lru(64MiB)+{name}"));
            // The built name round-trips through the grammar.
            assert_eq!(MethodSpec::parse(m.name()).unwrap(), spec);
        }
    }

    #[test]
    fn build_returns_typed_errors() {
        let reg = MethodRegistry::with_builtins();
        assert_eq!(
            reg.build(&MethodSpec::base_only("warp-drive")).unwrap_err(),
            ResolveError::UnknownMethod("warp-drive".to_string())
        );
        let err = MethodSpec::parse("arc(64MiB)+FO").unwrap_err();
        assert!(matches!(err, ResolveError::BadDecorator { .. }));
    }

    #[test]
    fn build_method_matches_registry_build() {
        let spec = MethodSpec::parse("lru(32MiB)+PL").unwrap();
        let m = build_method(&spec).unwrap();
        assert_eq!(m.name(), "lru(32MiB)+PL");
    }
}
