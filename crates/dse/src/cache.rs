//! Content-keyed, disk-persisted result cache.
//!
//! Keys are [`crate::JobSpec::spec_key`] hashes; values are the
//! deterministic part of a finished job ([`macro3d::PpaResult`] +
//! [`macro3d::DegradationReport`]). The cache has two layers:
//!
//! * an in-memory map for hits within one service lifetime, and
//! * an optional on-disk layer — one `<key>.json` record per result,
//!   written atomically (temp file + rename) — that makes warm hits
//!   survive restarts and lets concurrent services share results.
//!
//! Invalidation is structural: the crate version participates in the
//! spec key (through the stage keys it chains) *and* is re-checked
//! inside every record at load, so stale records from an older build
//! are ignored (and eventually overwritten), never served. Records
//! written under an older key derivation are simply never looked up:
//! a changed derivation makes misses, never wrong hits. Failed jobs are never cached;
//! observability traces are never cached (a warm hit returns
//! `obs: None` — traces describe an execution, not a result).

use crate::SCHEMA_VERSION;
use macro3d::jsonio;
use macro3d::{DegradationReport, PpaResult};
use macro3d_json::Json;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The deterministic payload of one finished job.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// PPA row of the implemented design.
    pub ppa: PpaResult,
    /// Budget/fault degradations the run absorbed (empty = clean).
    pub degradation: DegradationReport,
}

/// Hit/miss counters, split by layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that fell through to a flow execution.
    pub misses: u64,
    /// The subset of `hits` that came off disk (i.e. survived a
    /// restart or arrived from another service instance).
    pub disk_hits: u64,
}

/// See the [module docs](self).
pub struct ResultCache {
    dir: Option<PathBuf>,
    memory: Mutex<HashMap<String, Arc<CachedResult>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
}

impl ResultCache {
    /// An in-memory-only cache (results die with the service).
    pub fn in_memory() -> Self {
        ResultCache {
            dir: None,
            memory: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
        }
    }

    /// A cache persisted under `dir` (created if absent).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn persistent(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir: Some(dir),
            ..ResultCache::in_memory()
        })
    }

    /// Opens `dir` when given, else an in-memory cache.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: Option<PathBuf>) -> io::Result<Self> {
        match dir {
            Some(d) => ResultCache::persistent(d),
            None => Ok(ResultCache::in_memory()),
        }
    }

    /// Where this cache persists, if anywhere.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn memory(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<CachedResult>>> {
        self.memory.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `key` up in memory, then on disk. A disk hit is promoted
    /// into memory. Counts a hit or miss either way.
    pub fn lookup(&self, key: &str) -> Option<Arc<CachedResult>> {
        if let Some(hit) = self.memory().get(key) {
            let hit = Arc::clone(hit);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        if let Some(loaded) = self.load_record(key) {
            let loaded = Arc::new(loaded);
            self.memory()
                .entry(key.to_string())
                .or_insert_with(|| Arc::clone(&loaded));
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some(loaded);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a finished result under `key`, in memory and (when
    /// persistent) on disk. Disk write failures are swallowed — the
    /// cache is an accelerator, not a durability contract — but the
    /// in-memory layer always takes the result.
    pub fn insert(&self, key: &str, result: &Arc<CachedResult>) {
        self.memory()
            .entry(key.to_string())
            .or_insert_with(|| Arc::clone(result));
        if let Some(dir) = &self.dir {
            let _ = write_record_atomically(dir, key, result);
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }

    fn load_record(&self, key: &str) -> Option<CachedResult> {
        let dir = self.dir.as_ref()?;
        let text = fs::read_to_string(record_path(dir, key)).ok()?;
        parse_record(&text, key)
    }
}

fn record_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json"))
}

/// Serializes one persisted record. The envelope re-states the key
/// and versions so a record is self-describing and verifiable without
/// trusting its filename.
fn record_json(key: &str, result: &CachedResult) -> Json {
    Json::obj()
        .field("schema_version", Json::from_u64(SCHEMA_VERSION))
        .field("crate_version", Json::str(crate::crate_version()))
        .field("key", Json::str(key))
        .field("flow", Json::str(result.ppa.flow.clone()))
        .field("ppa", jsonio::ppa_to_json(&result.ppa))
        .field(
            "degradation",
            jsonio::degradation_to_json(&result.degradation),
        )
}

/// Strict record validation: wrong schema version, wrong crate
/// version, mismatched key, or any decode error → `None` (treated as
/// a miss, never an error).
fn parse_record(text: &str, key: &str) -> Option<CachedResult> {
    let json = Json::parse(text).ok()?;
    if json.get("schema_version")?.as_u64()? != SCHEMA_VERSION {
        return None;
    }
    if json.get("crate_version")?.as_str()? != crate::crate_version() {
        return None;
    }
    if json.get("key")?.as_str()? != key {
        return None;
    }
    Some(CachedResult {
        ppa: jsonio::ppa_from_json(json.get("ppa")?).ok()?,
        degradation: jsonio::degradation_from_json(json.get("degradation")?).ok()?,
    })
}

/// Write-to-temp + rename, so concurrent services sharing a cache
/// directory only ever observe complete records. The temp name
/// includes the pid so two writers never collide; last rename wins,
/// which is harmless because both wrote identical content (the key is
/// a content hash).
fn write_record_atomically(dir: &Path, key: &str, result: &CachedResult) -> io::Result<()> {
    let tmp = dir.join(format!("{key}.tmp.{}", std::process::id()));
    let mut text = record_json(key, result).emit();
    text.push('\n');
    fs::write(&tmp, text)?;
    let out = fs::rename(&tmp, record_path(dir, key));
    if out.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d::flows::Flow;
    use macro3d_soc::{generate_tile, TileConfig};

    /// `CARGO_TARGET_TMPDIR` only exists for integration tests, so
    /// unit tests use the system temp dir, scoped by pid so parallel
    /// `cargo test` invocations cannot collide.
    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("macro3d_{tag}_{}", std::process::id()))
    }

    fn small_result() -> CachedResult {
        // a real (tiny) flow result so the codec sees realistic data
        let tile = generate_tile(&TileConfig::mini());
        let mut cfg = macro3d::FlowConfig {
            sizing_rounds: 1,
            ..macro3d::FlowConfig::default()
        };
        cfg.route.iterations = 1;
        let out = macro3d::flows::Flow2d.run(&tile, &cfg);
        CachedResult {
            ppa: out.ppa,
            degradation: out.degradation,
        }
    }

    #[test]
    fn memory_layer_hits_and_counts() {
        let cache = ResultCache::in_memory();
        assert!(cache.lookup("00ff").is_none());
        let result = Arc::new(small_result());
        cache.insert("00ff", &result);
        let hit = cache.lookup("00ff").expect("hit after insert");
        assert_eq!(
            jsonio::ppa_fingerprint(&hit.ppa),
            jsonio::ppa_fingerprint(&result.ppa)
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                disk_hits: 0
            }
        );
    }

    #[test]
    fn disk_layer_survives_reopen_bit_exactly() {
        let dir = scratch("dse_cache_reopen");
        let _ = fs::remove_dir_all(&dir);
        let result = Arc::new(small_result());
        let key = "deadbeef00000001";
        {
            let cache = ResultCache::persistent(&dir).unwrap();
            cache.insert(key, &result);
        }
        let cache = ResultCache::persistent(&dir).unwrap();
        let hit = cache.lookup(key).expect("disk hit after reopen");
        assert_eq!(
            jsonio::ppa_to_json(&hit.ppa).emit(),
            jsonio::ppa_to_json(&result.ppa).emit(),
            "persisted record round-trips byte-exactly"
        );
        assert_eq!(cache.stats().disk_hits, 1);
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let dir = scratch("dse_cache_version");
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::persistent(&dir).unwrap();
        let key = "deadbeef00000002";
        let mut record = record_json(key, &small_result());
        if let Json::Obj(members) = &mut record {
            for (k, v) in members.iter_mut() {
                if k == "crate_version" {
                    *v = Json::str("99.0.0");
                }
            }
        }
        fs::write(dir.join(format!("{key}.json")), record.emit()).unwrap();
        assert!(
            cache.lookup(key).is_none(),
            "foreign-version record must not be served"
        );
    }

    /// A damaged record — truncated, not JSON, or naming another key
    /// — is a miss, never an error or a panic. A later insert replaces
    /// the file, and a reopened cache serves it as a disk hit.
    #[test]
    fn damaged_records_are_misses_until_replaced() {
        let dir = scratch("dse_cache_damaged");
        let _ = fs::remove_dir_all(&dir);
        let result = Arc::new(small_result());
        let whole = record_json("deadbeef00000003", &result).emit();
        let damaged = [
            ("deadbeef00000003", whole[..whole.len() / 2].to_string()),
            ("deadbeef00000004", "not json\n".to_string()),
            (
                "deadbeef00000005",
                record_json("deadbeef00000006", &result).emit(),
            ),
        ];
        {
            let cache = ResultCache::persistent(&dir).unwrap();
            for (key, text) in &damaged {
                fs::write(record_path(&dir, key), text).unwrap();
                assert!(cache.lookup(key).is_none(), "{key}");
                cache.insert(key, &result);
            }
            assert_eq!(cache.stats().misses, 3);
        }
        let cache = ResultCache::persistent(&dir).unwrap();
        for (key, _) in &damaged {
            let hit = cache.lookup(key).expect("the replaced record is served");
            assert_eq!(
                jsonio::ppa_to_json(&hit.ppa).emit(),
                jsonio::ppa_to_json(&result.ppa).emit()
            );
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 3,
                misses: 0,
                disk_hits: 3
            }
        );
    }
}
