//! The multi-tenant config registry: one server instance advising over
//! a *named set* of GPU configurations.
//!
//! Cross-machine advisory work presumes a single service answering
//! placement queries for many hardware configurations — a K80 fleet
//! here, a C2050 island there. Each named entry ("tenant") owns a full
//! [`Advisor`] (machine config, predictor, kernel/profile caches), and
//! the tenant's index is part of every response-cache key, so tenants
//! can never observe each other's cached bytes. Requests pick
//! a tenant with the optional `config` wire member; its absence selects
//! the default entry (index 0), keeping every pre-registry client and
//! response byte-identical.

use std::sync::Arc;

use hms_types::GpuConfig;

use crate::api::Advisor;

/// Named GPU configurations served by one instance. Index 0 is the
/// default tenant — the one unnamed requests resolve to.
pub struct ConfigRegistry {
    tenants: Vec<(String, Arc<Advisor>)>,
}

impl ConfigRegistry {
    /// A registry with one default tenant. `name` is what the `config`
    /// wire member must say to select it explicitly.
    pub fn new(name: impl Into<String>, advisor: Advisor) -> ConfigRegistry {
        ConfigRegistry {
            tenants: vec![(name.into(), Arc::new(advisor))],
        }
    }

    /// Add (or replace) a named tenant. The default stays whatever
    /// [`ConfigRegistry::new`] was given — replacing it swaps the
    /// advisor but keeps it the default.
    pub fn with(mut self, name: impl Into<String>, advisor: Advisor) -> ConfigRegistry {
        let name = name.into();
        let advisor = Arc::new(advisor);
        match self.tenants.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = advisor,
            None => self.tenants.push((name, advisor)),
        }
        self
    }

    /// Resolve a request's optional `config` member to a tenant index.
    /// `None` (member absent) is the default tenant. The error string is
    /// safe to echo in a 400 body.
    pub fn resolve(&self, name: Option<&str>) -> Result<usize, String> {
        match name {
            None => Ok(0),
            Some(n) => self
                .tenants
                .iter()
                .position(|(name, _)| name == n)
                .ok_or_else(|| {
                    format!(
                        "unknown config `{n}` (available: {})",
                        self.names().join(", ")
                    )
                }),
        }
    }

    /// The advisor of tenant `idx` (an index from [`resolve`](Self::resolve)).
    pub fn advisor(&self, idx: usize) -> &Arc<Advisor> {
        &self.tenants[idx].1
    }

    /// Tenant names, default first.
    pub fn names(&self) -> Vec<&str> {
        self.tenants.iter().map(|(n, _)| n.as_str()).collect()
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        false // `new` always seats a default tenant
    }
}

/// The built-in GPU presets a tenant can be spawned from — the paper's
/// two evaluation machines plus the CI-sized toy config. This is what
/// `hms serve --tenant NAME=PRESET` accepts on the right-hand side.
pub fn preset(name: &str) -> Option<GpuConfig> {
    match name {
        "k80" => Some(GpuConfig::tesla_k80()),
        "c2050" => Some(GpuConfig::tesla_c2050()),
        "test-small" => Some(GpuConfig::test_small()),
        _ => None,
    }
}

/// The preset names [`preset`] accepts, for usage/error text.
pub const PRESET_NAMES: &[&str] = &["k80", "c2050", "test-small"];

#[cfg(test)]
mod tests {
    use super::*;
    use hms_core::Predictor;

    fn advisor(cfg: GpuConfig) -> Advisor {
        Advisor::new(cfg.clone(), Predictor::new(cfg))
    }

    #[test]
    fn default_resolves_without_a_name() {
        let reg = ConfigRegistry::new("k80", advisor(GpuConfig::tesla_k80()))
            .with("c2050", advisor(GpuConfig::tesla_c2050()));
        assert_eq!(reg.resolve(None), Ok(0));
        assert_eq!(reg.resolve(Some("k80")), Ok(0));
        assert_eq!(reg.resolve(Some("c2050")), Ok(1));
        assert_eq!(reg.names(), vec!["k80", "c2050"]);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn unknown_config_lists_available_names() {
        let reg = ConfigRegistry::new("default", advisor(GpuConfig::test_small()));
        let err = reg.resolve(Some("h100")).unwrap_err();
        assert!(err.contains("unknown config `h100`"), "{err}");
        assert!(err.contains("default"), "{err}");
    }

    #[test]
    fn with_replaces_same_named_tenant_in_place() {
        let reg = ConfigRegistry::new("a", advisor(GpuConfig::test_small()))
            .with("b", advisor(GpuConfig::tesla_k80()))
            .with("b", advisor(GpuConfig::tesla_c2050()));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.resolve(Some("b")), Ok(1));
        // The replacement advisor is the one seated.
        let gcfg = &reg.advisor(1).cfg;
        assert_eq!(gcfg.num_sms, GpuConfig::tesla_c2050().num_sms);
    }

    #[test]
    fn presets_cover_the_papers_machines() {
        assert_eq!(
            preset("k80").unwrap().num_sms,
            GpuConfig::tesla_k80().num_sms
        );
        assert_eq!(
            preset("c2050").unwrap().num_sms,
            GpuConfig::tesla_c2050().num_sms
        );
        assert!(preset("test-small").is_some());
        assert!(preset("h100").is_none());
        for name in PRESET_NAMES {
            assert!(preset(name).is_some(), "preset list out of sync: {name}");
        }
    }
}
