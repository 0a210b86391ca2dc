//! Content-addressed extraction cache.
//!
//! Simulating a candidate costs one full ISS run; across a search, across
//! repeated CLI invocations, and across spaces that share configurations,
//! the same (program, extension set, processor config) triple recurs. The
//! cache keys each **extraction** — the raw [`ExecStats`] counts, not a
//! priced energy — by an FNV-1a hash of the *content* of that triple plus
//! a fingerprint of the extraction semantics (see
//! [`crate::extract::EXTRACTION_SCHEMA`]). Storing counts instead of
//! energies means a refitted macro-model re-prices every cached entry
//! without a single new simulation, and a changed *simulator* (which
//! would change the counts) still invalidates every key.
//!
//! The cache serializes to a stable `emx.dse-cache/2` JSON document via
//! `obs::json` for reuse across CLI invocations. Version 1 files (which
//! stored priced energies keyed by model fingerprint) are quarantined on
//! load like any other foreign schema, and the run starts cold.

use std::collections::BTreeMap;

use emx_core::EnergyMacroModel;
use emx_isa::Program;
use emx_obs::doc::{self, Doc, DocError};
use emx_obs::json::Value;
use emx_sim::{ExecStats, ProcConfig};
use emx_tie::ExtensionSet;

use crate::error::CacheError;

/// The persisted document schema this cache reads and writes.
pub const SCHEMA: &str = "emx.dse-cache/2";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over raw bytes.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
}

/// FNV-1a fingerprint of arbitrary content bytes.
pub fn content_fingerprint(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.0
}

/// Fingerprint of a fitted macro-model (hash of its stable text form).
///
/// Since the cache stores model-independent extractions, this no longer
/// feeds [`candidate_key`] — the engine keys by
/// [`crate::extract::extraction_fingerprint`] instead — but reports and
/// model cards still use it to identify a fitted model.
pub fn model_fingerprint(model: &EnergyMacroModel) -> u64 {
    content_fingerprint(model.to_text().as_bytes())
}

/// Content hash of one extraction request. Two requests collide only if
/// the encoded program, data image, extension set and processor
/// configuration are all identical — in which case the extracted counts
/// are too.
pub fn candidate_key(
    extraction_fp: u64,
    program: &Program,
    ext: &ExtensionSet,
    config: &ProcConfig,
) -> u64 {
    let mut h = Fnv::new();
    h.write(&extraction_fp.to_le_bytes());
    h.write_u32(program.text_base());
    h.write_u32(program.data_base());
    h.write_u32(program.entry());
    for inst in program.text() {
        h.write_u32(emx_isa::encode(inst));
    }
    h.write(program.data());
    // The extension set and config lack a binary serialization; their
    // derived Debug forms are content-complete and stable within a build.
    h.write(format!("{ext:?}").as_bytes());
    h.write(format!("{config:?}").as_bytes());
    h.0
}

/// One cached extraction: the full template-variable counts of one
/// simulated candidate, ready to be re-priced under any macro-model.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The extracted execution statistics.
    pub stats: ExecStats,
}

/// A content-addressed map from [`candidate_key`] to extractions.
#[derive(Debug, Default)]
pub struct EstimationCache {
    entries: BTreeMap<u64, CacheEntry>,
}

impl EstimationCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached extractions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a cached extraction.
    pub fn get(&self, key: u64) -> Option<CacheEntry> {
        self.entries.get(&key).cloned()
    }

    /// Stores an extraction.
    pub fn insert(&mut self, key: u64, entry: CacheEntry) {
        self.entries.insert(key, entry);
    }

    /// Iterates the cached extractions in ascending key order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &CacheEntry)> {
        self.entries.iter().map(|(&k, e)| (k, e))
    }

    /// The set of keys currently cached. Snapshot it before a run and
    /// feed it to [`EstimationCache::delta_since`] afterwards to get the
    /// extractions that run added — what a shard report ships.
    pub fn key_set(&self) -> std::collections::BTreeSet<u64> {
        self.entries.keys().copied().collect()
    }

    /// The entries whose keys are absent from `baseline` — the delta a
    /// run added on top of a snapshotted [`EstimationCache::key_set`].
    pub fn delta_since(&self, baseline: &std::collections::BTreeSet<u64>) -> EstimationCache {
        let mut delta = EstimationCache::new();
        for (k, e) in self.entries() {
            if !baseline.contains(&k) {
                delta.insert(k, e.clone());
            }
        }
        delta
    }

    /// Folds every entry of `other` into this cache. Keys are content
    /// hashes, so a key present on both sides addresses the same
    /// extraction; which copy wins is immaterial.
    pub fn absorb(&mut self, other: EstimationCache) {
        self.entries.extend(other.entries);
    }

    /// Serializes the cache as a stable `emx.dse-cache/2` document.
    /// Entries are emitted in ascending key order; each entry value is
    /// the `emx.exec-stats/1` document of its extraction.
    pub fn to_json(&self) -> Value {
        let mut entries = Value::object();
        for (key, e) in &self.entries {
            entries.set(&format!("{key:016x}"), e.stats.to_json());
        }
        let mut doc = Value::object();
        doc.set("schema", SCHEMA);
        doc.set("entries", entries);
        doc
    }

    /// Parses a cache document written by [`EstimationCache::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] if the text is not valid JSON, declares a
    /// different schema, or contains a malformed entry. For
    /// best-effort recovery of a damaged file use
    /// [`EstimationCache::salvage_json_text`] instead.
    pub fn from_json_text(text: &str) -> Result<Self, CacheError> {
        let (cache, salvage) = Self::salvage_json_text(text)?;
        if let Some(first_bad) = salvage.skipped.into_iter().next() {
            return Err(CacheError::BadEntry(first_bad));
        }
        Ok(cache)
    }

    /// Best-effort parse: returns every well-formed entry of the document
    /// plus a description of what was skipped.
    ///
    /// Unlike [`EstimationCache::from_json_text`], malformed *entries* do
    /// not fail the whole document — keys are content hashes, so a good
    /// entry stays valid no matter what sits next to it in the file.
    ///
    /// # Errors
    ///
    /// Still errors when nothing is salvageable: unparseable JSON
    /// (typically a write cut short by a crash), a different `schema`
    /// (entries keyed by another scheme must not be trusted), or a missing
    /// `entries` object.
    pub fn salvage_json_text(text: &str) -> Result<(Self, CacheSalvage), CacheError> {
        let value = doc::open(text, SCHEMA)?;
        Ok(Self::salvage(Doc::root(&value))?)
    }

    /// [`EstimationCache::salvage_json_text`] over a document that is
    /// already parsed, such as the `cache_delta` a shard report embeds.
    ///
    /// # Errors
    ///
    /// When `doc` carries a different `schema` or no `entries` object.
    pub fn salvage(doc: Doc) -> Result<(Self, CacheSalvage), DocError> {
        doc.schema(SCHEMA)?;
        let mut cache = EstimationCache::new();
        let mut salvage = CacheSalvage::default();
        for (key, entry) in doc.field("entries")?.entries()? {
            let Ok(key) = u64::from_str_radix(key, 16) else {
                salvage
                    .skipped
                    .push(entry.error("expected a hexadecimal key").to_string());
                continue;
            };
            match ExecStats::from_json(entry) {
                Ok(stats) => {
                    cache.insert(key, CacheEntry { stats });
                    salvage.recovered += 1;
                }
                Err(e) => salvage.skipped.push(e.to_string()),
            }
        }
        Ok((cache, salvage))
    }

    /// Loads a cache from `path`. A missing file yields an empty cache; a
    /// present-but-corrupt file is an error (use
    /// [`EstimationCache::load_or_recover`] for the quarantine-and-rebuild
    /// behaviour the CLI wants).
    ///
    /// # Errors
    ///
    /// Propagates read failures other than "not found" and parse errors.
    pub fn load(path: &str) -> Result<Self, CacheError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json_text(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(CacheError::Io(format!("`{path}`: {e}"))),
        }
    }

    /// Loads a cache from `path`, recovering from corruption instead of
    /// refusing to start: a damaged or schema-mismatched file is
    /// **quarantined** (renamed to `<path>.corrupt`, preserving the
    /// evidence) and every salvageable entry is kept. The exploration then
    /// proceeds — at worst cold, never aborted.
    ///
    /// Returns the cache plus a [`CacheRecovery`] describing what happened
    /// (`None` when the file was absent or fully healthy).
    ///
    /// # Errors
    ///
    /// Only unrecoverable conditions: the file exists but cannot be read,
    /// or the quarantine rename itself fails (both leave the bad file in
    /// place, so nothing is lost).
    pub fn load_or_recover(path: &str) -> Result<(Self, Option<CacheRecovery>), CacheError> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Self::new(), None)),
            Err(e) => return Err(CacheError::Io(format!("`{path}`: {e}"))),
        };
        let (cache, cause, salvage) = match Self::salvage_json_text(&text) {
            Ok((cache, salvage)) if salvage.skipped.is_empty() => return Ok((cache, None)),
            Ok((cache, salvage)) => {
                let cause = CacheError::BadEntry(salvage.skipped.join("; "));
                (cache, cause, salvage)
            }
            Err(cause) => (Self::new(), cause, CacheSalvage::default()),
        };
        let quarantine = format!("{path}.corrupt");
        std::fs::rename(path, &quarantine)
            .map_err(|e| CacheError::WriteFailed(format!("quarantine to `{quarantine}`: {e}")))?;
        Ok((
            cache,
            Some(CacheRecovery {
                cause,
                quarantined_to: quarantine,
                recovered: salvage.recovered,
                skipped: salvage.skipped.len(),
            }),
        ))
    }

    /// Writes the cache to `path` **atomically**: the document is written
    /// to `<path>.tmp` and renamed into place, so a crash mid-write can
    /// never leave a truncated cache where a good one stood.
    ///
    /// # Errors
    ///
    /// Propagates write and rename failures (the temp file is cleaned up).
    pub fn save(&self, path: &str) -> Result<(), CacheError> {
        let mut text = self.to_json().to_string();
        text.push('\n');
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, text).map_err(|e| CacheError::WriteFailed(format!("`{tmp}`: {e}")))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            CacheError::WriteFailed(format!("rename `{tmp}` -> `{path}`: {e}"))
        })
    }
}

/// A clonable, thread-safe handle to one [`EstimationCache`] shared by
/// many readers and writers — the form a long-running service needs,
/// where concurrent request lanes and a batch evaluator all consult the
/// same memo.
///
/// The handle recovers from lock poisoning instead of propagating it:
/// every cache operation (a `BTreeMap<u64, CacheEntry>` lookup-clone or
/// insert of an already-constructed entry) leaves the map valid between
/// operations — the `u64` key's `Ord` cannot panic, and a panic while
/// cloning an entry out happens before the map is touched — so a thread
/// that panicked while holding the lock cannot have left a half-written
/// entry behind. Recovering the guard is therefore sound, and one
/// panicking request must not take the cache away from every other lane
/// (the same argument as `engine::lock_recovering`).
#[derive(Debug, Clone, Default)]
pub struct SharedEstimationCache {
    inner: std::sync::Arc<std::sync::Mutex<EstimationCache>>,
}

impl SharedEstimationCache {
    /// Wraps a cache in a shared handle.
    pub fn new(cache: EstimationCache) -> Self {
        SharedEstimationCache {
            inner: std::sync::Arc::new(std::sync::Mutex::new(cache)),
        }
    }

    /// Loads a cache from `path` with the quarantine-and-salvage
    /// behaviour of [`EstimationCache::load_or_recover`], wrapped in a
    /// shared handle.
    ///
    /// # Errors
    ///
    /// As for [`EstimationCache::load_or_recover`].
    pub fn load_or_recover(path: &str) -> Result<(Self, Option<CacheRecovery>), CacheError> {
        let (cache, recovery) = EstimationCache::load_or_recover(path)?;
        Ok((Self::new(cache), recovery))
    }

    /// Locks the cache, recovering the guard if a previous holder
    /// panicked (see the type-level soundness argument).
    pub fn lock(&self) -> std::sync::MutexGuard<'_, EstimationCache> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up a cached estimate.
    pub fn get(&self, key: u64) -> Option<CacheEntry> {
        self.lock().get(key)
    }

    /// Stores an estimate.
    pub fn insert(&self, key: u64, entry: CacheEntry) {
        self.lock().insert(key, entry);
    }

    /// Number of cached estimates.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Writes the cache to `path` atomically (see
    /// [`EstimationCache::save`]). The lock is held across the write, so
    /// the snapshot is consistent.
    ///
    /// # Errors
    ///
    /// As for [`EstimationCache::save`].
    pub fn save(&self, path: &str) -> Result<(), CacheError> {
        self.lock().save(path)
    }
}

/// What [`EstimationCache::salvage_json_text`] managed to keep.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheSalvage {
    /// Entries recovered intact.
    pub recovered: usize,
    /// Human-readable descriptions of the entries skipped.
    pub skipped: Vec<String>,
}

/// The outcome of a [`EstimationCache::load_or_recover`] that found a
/// damaged file.
#[derive(Debug)]
pub struct CacheRecovery {
    /// Why the file could not be used as-is.
    pub cause: CacheError,
    /// Where the damaged file was preserved.
    pub quarantined_to: String,
    /// Entries salvaged into the returned cache.
    pub recovered: usize,
    /// Entries dropped as malformed.
    pub skipped: usize,
}

impl std::fmt::Display for CacheRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}; quarantined to `{}`, salvaged {} entries ({} skipped)",
            self.cause, self.quarantined_to, self.recovered, self.skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_workloads::{exts, suite};

    /// A distinguishable extraction entry for round-trip tests.
    fn entry(cycles: u64) -> CacheEntry {
        let mut stats = ExecStats::new(1);
        stats.total_cycles = cycles;
        stats.inst_count = cycles / 2;
        stats.class_cycles[0] = cycles / 3;
        stats.custom_counts[0] = cycles % 5;
        stats.struct_activity[0] = cycles as f64 / 3.0;
        CacheEntry { stats }
    }

    #[test]
    fn keys_separate_programs_exts_and_configs() {
        let suite = suite::calibration_programs();
        let (a, b) = (&suite[0], &suite[1]);
        let config = ProcConfig::default();
        let ka = candidate_key(1, a.program(), a.ext(), &config);
        let kb = candidate_key(1, b.program(), b.ext(), &config);
        assert_ne!(ka, kb, "different programs must have different keys");

        let ke = candidate_key(1, a.program(), &exts::gf16(), &config);
        assert_ne!(ka, ke, "different extension sets must differ");

        let mut other = ProcConfig::default();
        other.clock_mhz += 1.0;
        let kc = candidate_key(1, a.program(), a.ext(), &other);
        assert_ne!(ka, kc, "different configs must differ");

        let km = candidate_key(2, a.program(), a.ext(), &config);
        assert_ne!(ka, km, "different models must differ");

        // Same content twice: identical key.
        assert_eq!(ka, candidate_key(1, a.program(), a.ext(), &config));
    }

    #[test]
    fn json_round_trip() -> Result<(), CacheError> {
        let mut cache = EstimationCache::new();
        cache.insert(42, entry(9876));
        cache.insert(7, entry(1));
        let text = cache.to_json().to_string();
        let reloaded = EstimationCache::from_json_text(&text)?;
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get(42), cache.get(42));
        assert_eq!(reloaded.get(7), cache.get(7));
        // Serialization is canonical: a second dump is byte-identical.
        assert_eq!(reloaded.to_json().to_string(), text);
        Ok(())
    }

    #[test]
    fn bad_documents_are_rejected() {
        assert!(matches!(
            EstimationCache::from_json_text("not json"),
            Err(CacheError::Corrupt(_))
        ));
        assert!(matches!(
            EstimationCache::from_json_text("{\"schema\":\"other/1\"}"),
            Err(CacheError::SchemaMismatch(_))
        ));
        assert!(matches!(
            EstimationCache::from_json_text(
                "{\"schema\":\"emx.dse-cache/2\",\"entries\":{\"zz\":{}}}"
            ),
            Err(CacheError::BadEntry(_))
        ));
        // A well-formed key whose value is not a stats document is a bad
        // entry, not a panic or a zeroed extraction.
        assert!(matches!(
            EstimationCache::from_json_text(
                "{\"schema\":\"emx.dse-cache/2\",\"entries\":{\"0000000000000001\":{}}}"
            ),
            Err(CacheError::BadEntry(_))
        ));
    }

    /// A scratch path under the system temp dir, cleaned up on drop.
    struct Scratch(String);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let pid = std::process::id();
            let path = std::env::temp_dir().join(format!("emx-dse-cache-{tag}-{pid}.json"));
            Scratch(path.to_string_lossy().into_owned())
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            for suffix in ["", ".tmp", ".corrupt"] {
                let _ = std::fs::remove_file(format!("{}{suffix}", self.0));
            }
        }
    }

    #[test]
    fn shared_cache_survives_concurrent_hammering_and_poisoning() {
        let shared = SharedEstimationCache::new(EstimationCache::new());

        // Poison the lock on purpose: a panic while holding the guard
        // must not take the cache away from every other thread.
        let poisoner = shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock();
            panic!("poisoning the shared cache lock on purpose");
        })
        .join();

        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 400;
        let scratch = Scratch::new("shared-hammer");
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let shared = shared.clone();
                let path = scratch.0.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let key = (t << 32) | i;
                        shared.insert(key, entry(i));
                        // Reads of our own writes are immediate; reads of
                        // other threads' keys must never tear or panic.
                        assert_eq!(shared.get(key).map(|e| e.stats.total_cycles), Some(i));
                        let _ = shared.get(((t + 1) % THREADS) << 32 | i);
                        // One thread interleaves atomic saves with the
                        // writers: every snapshot it takes is consistent.
                        if t == 0 && i % 64 == 0 {
                            shared.save(&path).expect("concurrent save");
                        }
                    }
                });
            }
        });
        assert_eq!(shared.len() as u64, THREADS * PER_THREAD);

        // The last snapshot written concurrently still parses cleanly.
        shared.save(&scratch.0).expect("final save");
        let reloaded = EstimationCache::load(&scratch.0).expect("reload");
        assert_eq!(reloaded.len() as u64, THREADS * PER_THREAD);
    }

    #[test]
    fn save_is_atomic_and_round_trips_through_disk() -> Result<(), CacheError> {
        let scratch = Scratch::new("atomic");
        let mut cache = EstimationCache::new();
        cache.insert(3, entry(2));
        cache.save(&scratch.0)?;
        assert!(
            !std::path::Path::new(&format!("{}.tmp", scratch.0)).exists(),
            "temp file must be renamed away"
        );
        let reloaded = EstimationCache::load(&scratch.0)?;
        assert_eq!(reloaded.get(3), cache.get(3));
        Ok(())
    }

    #[test]
    fn truncated_write_is_quarantined_and_run_starts_cold() -> Result<(), CacheError> {
        let scratch = Scratch::new("truncated");
        let mut cache = EstimationCache::new();
        cache.insert(9, entry(8));
        cache.save(&scratch.0)?;
        // Simulate a crash mid-write: chop the file in half.
        let text =
            std::fs::read_to_string(&scratch.0).map_err(|e| CacheError::Io(e.to_string()))?;
        std::fs::write(&scratch.0, &text[..text.len() / 2])
            .map_err(|e| CacheError::Io(e.to_string()))?;

        // Strict load refuses; recovery quarantines and starts cold.
        assert!(matches!(
            EstimationCache::load(&scratch.0),
            Err(CacheError::Corrupt(_))
        ));
        let (recovered, recovery) = EstimationCache::load_or_recover(&scratch.0)?;
        assert!(recovered.is_empty(), "nothing salvageable from cut JSON");
        let recovery = recovery.ok_or(CacheError::Corrupt("expected recovery".into()))?;
        assert!(matches!(recovery.cause, CacheError::Corrupt(_)));
        assert!(std::path::Path::new(&recovery.quarantined_to).exists());
        assert!(
            !std::path::Path::new(&scratch.0).exists(),
            "damaged file must be moved out of the way"
        );

        // A fresh save then works and reloads cleanly: the rebuild path.
        cache.save(&scratch.0)?;
        let (warm, recovery) = EstimationCache::load_or_recover(&scratch.0)?;
        assert!(recovery.is_none());
        assert_eq!(warm.get(9), cache.get(9));
        Ok(())
    }

    #[test]
    fn partial_damage_salvages_good_entries() -> Result<(), CacheError> {
        let scratch = Scratch::new("salvage");
        // One intact extraction plus one malformed entry, spliced in
        // through the document tree so the test is immune to the
        // serializer's formatting.
        let mut entries = Value::object();
        entries.set("zz", Value::object());
        entries.set("000000000000002a", entry(5).stats.to_json());
        let mut doc = Value::object();
        doc.set("schema", SCHEMA);
        doc.set("entries", entries);
        std::fs::write(&scratch.0, doc.to_string()).map_err(|e| CacheError::Io(e.to_string()))?;
        let (cache, recovery) = EstimationCache::load_or_recover(&scratch.0)?;
        assert_eq!(cache.len(), 1, "the intact entry survives");
        assert_eq!(cache.get(0x2a).map(|e| e.stats.total_cycles), Some(5));
        let recovery = recovery.ok_or(CacheError::Corrupt("expected recovery".into()))?;
        assert_eq!(recovery.recovered, 1);
        assert_eq!(recovery.skipped, 1);
        Ok(())
    }

    #[test]
    fn schema_mismatch_is_quarantined_not_trusted() -> Result<(), CacheError> {
        // A version-1 file (priced energies keyed by model fingerprint)
        // is the realistic foreign schema after the v2 migration: its
        // entries cannot be re-priced and must not be trusted.
        let scratch = Scratch::new("schema");
        std::fs::write(
            &scratch.0,
            "{\"schema\":\"emx.dse-cache/1\",\"entries\":{\
             \"000000000000002a\":{\"energy_pj\":1.0,\"cycles\":5}}}",
        )
        .map_err(|e| CacheError::Io(e.to_string()))?;
        let (cache, recovery) = EstimationCache::load_or_recover(&scratch.0)?;
        assert!(
            cache.is_empty(),
            "foreign-schema entries must not be trusted"
        );
        let recovery = recovery.ok_or(CacheError::Corrupt("expected recovery".into()))?;
        assert!(matches!(recovery.cause, CacheError::SchemaMismatch(_)));
        Ok(())
    }
}
