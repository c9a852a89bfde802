#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Design-space exploration over the Macro-3D flows.
//!
//! This crate turns the four flows into a **multi-tenant job
//! service**: clients submit a [`JobSpec`] (tile + flow + config
//! knobs), receive a [`executor::JobId`] immediately, and collect the
//! [`macro3d::PpaResult`], degradation report and optional
//! observability trace when the job completes. On top of the raw job
//! API sits a sweep planner ([`sweep`]) that expands a knob grid into
//! jobs and streams per-point results plus a Pareto summary.
//!
//! The pieces:
//!
//! * [`executor`] — deterministic worker-pool executor: bounded queue
//!   with submit-side backpressure, per-job panic isolation, and
//!   single-flight deduplication so specs with one result key run the
//!   flow at most once no matter how many tenants race.
//! * [`cache`] — content-keyed **persisted** result cache. Keys are
//!   [`JobSpec::spec_key`]s: the chained stage key of the whole run
//!   (the one the workers' stage caches match prefixes of) chained
//!   with the obs level; records live on disk as JSON so warm hits
//!   survive service restarts and skip the flow entirely.
//! * [`sweep`] — grid expansion, knob application, Pareto front.
//! * [`server`] — newline-delimited-JSON protocol for the
//!   `dse_server` binary; `dse_sweep` is the one-shot CLI.
//!
//! Determinism contract: the flows are deterministic functions of
//! `(TileConfig, FlowConfig)` minus wall-clock (`stage_times`), so a
//! job's [`macro3d::jsonio::ppa_fingerprint`] is identical across
//! worker counts, cache temperature, and service restarts. The
//! workspace test `dse_service.rs` and the `dse_smoke` CI gate hold
//! this line.

pub mod cache;
pub mod executor;
pub mod server;
pub mod sweep;

use macro3d::flows::Flow;
use macro3d::jsonio;
use macro3d::FlowConfig;
use macro3d_soc::TileConfig;

pub use cache::{CacheStats, ResultCache};
pub use executor::{
    DseClient, DseConfig, DseService, DseStats, JobError, JobId, JobResult, JobStatus, SubmitError,
};
pub use sweep::{PointResult, SweepAxis, SweepOutcome, SweepSpec};

/// Version stamp written into every persisted record and bench JSON
/// this crate emits; bump it when a record's shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The crate version stamped into persisted records (the stage keys
/// behind every spec key embed the same workspace version) — a
/// version bump invalidates every persisted result.
pub fn crate_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// One unit of work: implement `tile` with flow `flow` under
/// `config`.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Flow name, as listed by [`macro3d::flows::all_flows`]
    /// (`"2D"`, `"MoL S2D"`, `"BF S2D"`, `"C2D"`, `"Macro-3D"`).
    pub flow: String,
    /// The tile to generate and implement.
    pub tile: TileConfig,
    /// Flow knobs.
    pub config: FlowConfig,
}

impl JobSpec {
    /// A spec with the default config.
    pub fn new(flow: impl Into<String>, tile: TileConfig) -> Self {
        JobSpec {
            flow: flow.into(),
            tile,
            config: FlowConfig::default(),
        }
    }

    /// Content key of this spec's result: 16 hex digits of FNV-1a 64
    /// over the spec's chained STA stage key (which covers every input
    /// that can change a result, crate version included; see
    /// [`macro3d::stage`]) and the obs level, since an observed job
    /// must run to return its trace. Same result inputs → same key,
    /// across processes and restarts, so thread counts and the chunk
    /// sizes no stage reads never split results; any keyed knob
    /// change or crate version bump → different key. The persisted
    /// result cache and the executor's single-flight table are both
    /// keyed by this.
    pub fn spec_key(&self) -> String {
        let macro3d::ObsConfig { level } = self.config.obs;
        let sta = self.stage_keys().key(macro3d::Stage::Sta);
        let payload = format!("{sta:016x}\u{1f}obs={level:?}");
        format!("{:016x}", jsonio::fnv1a_64(payload.as_bytes()))
    }

    /// The chained per-stage content keys of this spec (see
    /// [`macro3d::stage`]). Two specs sharing a key prefix share that
    /// prefix of flow work; the executor routes same-prefix specs to
    /// the same worker and the sweep planner orders submissions to
    /// maximize shared prefixes.
    pub fn stage_keys(&self) -> macro3d::StageKeys {
        macro3d::stage_keys(&self.flow, &self.tile, &self.config)
    }
}

/// Looks up a flow implementation by its public name.
pub fn flow_by_name(name: &str) -> Option<&'static dyn Flow> {
    macro3d::flows::all_flows()
        .into_iter()
        .find(|f| f.name() == name)
}

/// Tile presets addressable by name in the NDJSON protocol and the
/// `dse_sweep` CLI.
pub fn tile_preset(name: &str) -> Option<TileConfig> {
    match name {
        "mini" => Some(TileConfig::mini()),
        "small_cache" => Some(TileConfig::small_cache()),
        "large_cache" => Some(TileConfig::large_cache()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_key_is_stable_and_content_sensitive() {
        let spec = JobSpec::new("Macro-3D", TileConfig::mini());
        let key = spec.spec_key();
        assert_eq!(key.len(), 16);
        assert_eq!(key, spec.clone().spec_key(), "same content, same key");

        let mut other = spec.clone();
        other.config.sizing_rounds += 1;
        assert_ne!(key, other.spec_key(), "knob change changes the key");

        let mut retiled = spec.clone();
        retiled.tile.l2_kb *= 2;
        assert_ne!(key, retiled.spec_key(), "tile change changes the key");
    }

    #[test]
    fn flow_lookup_covers_all_flows() {
        for f in macro3d::flows::all_flows() {
            assert!(flow_by_name(f.name()).is_some(), "{}", f.name());
        }
        assert!(flow_by_name("definitely-not-a-flow").is_none());
    }
}
