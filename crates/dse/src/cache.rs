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
//!
//! A cache remembers where its exact contents already sit on disk, so
//! saving a cache that has not changed since it was loaded or saved
//! writes nothing (see [`EstimationCache::save`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::SystemTime;

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

/// Formatting straight into the hash: FNV-1a consumes bytes one at a
/// time, so `write!(h, …)` hashes exactly the bytes `format!` would have
/// built, without building them.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
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
    // Writing into `Fnv` cannot fail.
    let _ = write!(h, "{ext:?}{config:?}");
    h.0
}

/// One cached extraction: the full template-variable counts of one
/// simulated candidate, ready to be re-priced under any macro-model.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The extracted execution statistics.
    pub stats: ExecStats,
}

/// A file that holds exactly the cache's entries, identified by its path
/// plus the length and modification time it had then.
#[derive(Debug, Clone, PartialEq)]
struct OnDisk {
    path: String,
    len: u64,
    modified: SystemTime,
}

impl OnDisk {
    fn of(path: &str, meta: &std::fs::Metadata) -> Option<Self> {
        Some(OnDisk {
            path: path.to_owned(),
            len: meta.len(),
            modified: meta.modified().ok()?,
        })
    }
}

/// A content-addressed map from [`candidate_key`] to extractions.
#[derive(Debug, Default)]
pub struct EstimationCache {
    entries: BTreeMap<u64, CacheEntry>,
    /// Set by a healthy load and by a save, cleared by every change to
    /// `entries`. Behind a `Mutex` because [`EstimationCache::save`]
    /// takes `&self`.
    clean: Mutex<Option<OnDisk>>,
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
        self.set_clean(None);
    }

    fn set_clean(&self, on_disk: Option<OnDisk>) {
        *self.clean.lock().unwrap_or_else(PoisonError::into_inner) = on_disk;
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
        self.set_clean(None);
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
        match read(path)? {
            Some((text, on_disk)) => {
                let cache = Self::from_json_text(&text)?;
                cache.set_clean(on_disk);
                Ok(cache)
            }
            None => Ok(Self::new()),
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
        let Some((text, on_disk)) = read(path)? else {
            return Ok((Self::new(), None));
        };
        let (cache, cause, salvage) = match Self::salvage_json_text(&text) {
            Ok((cache, salvage)) if salvage.skipped.is_empty() => {
                cache.set_clean(on_disk);
                return Ok((cache, None));
            }
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
    /// A clean save is a no-op. After a healthy [`EstimationCache::load`]
    /// or [`EstimationCache::load_or_recover`] of `path`, or a save to
    /// it, and with no [`EstimationCache::insert`] or
    /// [`EstimationCache::absorb`] since, the file already holds these
    /// entries; `save` then returns without writing, provided the file
    /// still has the length and modification time it had then. A file
    /// that was truncated, rewritten or replaced in the meantime fails
    /// that check and is written again. A load that found no file or
    /// quarantined a damaged one is never clean.
    ///
    /// # Errors
    ///
    /// Propagates write and rename failures (the temp file is cleaned up).
    pub fn save(&self, path: &str) -> Result<(), CacheError> {
        let mut clean = self.clean.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(on_disk) = clean.as_ref().filter(|d| d.path == path) {
            let now = std::fs::metadata(path).ok();
            if now.and_then(|m| OnDisk::of(path, &m)).as_ref() == Some(on_disk) {
                return Ok(());
            }
        }
        let mut text = self.to_json().to_string();
        text.push('\n');
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, text).map_err(|e| CacheError::WriteFailed(format!("`{tmp}`: {e}")))?;
        // The rename keeps the file's length and mtime, so they identify
        // what was written here even if another writer replaces it later.
        let written = std::fs::metadata(&tmp).ok();
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            CacheError::WriteFailed(format!("rename `{tmp}` -> `{path}`: {e}"))
        })?;
        *clean = written.and_then(|m| OnDisk::of(path, &m));
        Ok(())
    }
}

/// Reads the cache file at `path` with the length and modification time
/// it had when opened; `None` when there is no file. The metadata is
/// taken before the read, so a file changed during the read can only
/// mismatch it later, which forces a rewrite, never a skipped one.
fn read(path: &str) -> Result<Option<(String, Option<OnDisk>)>, CacheError> {
    let io = |e: std::io::Error| CacheError::Io(format!("`{path}`: {e}"));
    let mut file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io(e)),
    };
    let on_disk = file.metadata().ok().and_then(|m| OnDisk::of(path, &m));
    let mut text = String::new();
    std::io::Read::read_to_string(&mut file, &mut text).map_err(io)?;
    Ok(Some((text, on_disk)))
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
    /// the snapshot is consistent. As there, a save with nothing inserted
    /// since the last load or save of `path` writes nothing.
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

    /// Sets the file's mtime to 2000-01-01, so any rewrite shows.
    fn backdate(path: &str) -> SystemTime {
        let then = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(946_684_800);
        let file = std::fs::File::options()
            .write(true)
            .open(path)
            .expect("cache file opens");
        file.set_modified(then).expect("mtime settable");
        then
    }

    fn mtime(path: &str) -> SystemTime {
        std::fs::metadata(path)
            .and_then(|m| m.modified())
            .expect("cache file has an mtime")
    }

    /// A two-entry cache saved to a fresh scratch file, backdated.
    fn saved(tag: &str) -> (Scratch, SystemTime) {
        let scratch = Scratch::new(tag);
        let mut cache = EstimationCache::new();
        cache.insert(1, entry(10));
        cache.insert(2, entry(20));
        cache.save(&scratch.0).expect("cache saves");
        let then = backdate(&scratch.0);
        (scratch, then)
    }

    #[test]
    fn saving_a_freshly_loaded_cache_writes_nothing() -> Result<(), CacheError> {
        let (scratch, then) = saved("clean-load");
        let bytes = std::fs::read(&scratch.0).map_err(|e| CacheError::Io(e.to_string()))?;
        let cache = EstimationCache::load(&scratch.0)?;
        cache.save(&scratch.0)?;
        assert_eq!(
            mtime(&scratch.0),
            then,
            "a clean save must not touch the file"
        );
        let after = std::fs::read(&scratch.0).map_err(|e| CacheError::Io(e.to_string()))?;
        assert_eq!(after, bytes);

        let (recovered, recovery) = EstimationCache::load_or_recover(&scratch.0)?;
        assert!(recovery.is_none());
        recovered.save(&scratch.0)?;
        assert_eq!(
            mtime(&scratch.0),
            then,
            "nor after a healthy recovering load"
        );
        Ok(())
    }

    #[test]
    fn an_insert_after_loading_makes_the_save_write() -> Result<(), CacheError> {
        let (scratch, then) = saved("dirty");
        let mut cache = EstimationCache::load(&scratch.0)?;
        cache.insert(3, entry(30));
        cache.save(&scratch.0)?;
        assert_ne!(mtime(&scratch.0), then);
        assert_eq!(EstimationCache::load(&scratch.0)?.get(3), cache.get(3));

        // The save itself is a clean point: saving again writes nothing.
        // (The pause lets a rewrite show even with a coarse mtime clock.)
        let written = mtime(&scratch.0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.save(&scratch.0)?;
        assert_eq!(mtime(&scratch.0), written);

        // So does absorbing another cache.
        let before = backdate(&scratch.0);
        let mut cache = EstimationCache::load(&scratch.0)?;
        cache.absorb(EstimationCache::new());
        cache.save(&scratch.0)?;
        assert_ne!(mtime(&scratch.0), before);
        Ok(())
    }

    #[test]
    fn a_cache_loaded_from_a_missing_file_is_saved() -> Result<(), CacheError> {
        let scratch = Scratch::new("missing");
        let cache = EstimationCache::load(&scratch.0)?;
        cache.save(&scratch.0)?;
        assert!(EstimationCache::load(&scratch.0)?.is_empty());

        let other = Scratch::new("missing-recover");
        let (cache, recovery) = EstimationCache::load_or_recover(&other.0)?;
        assert!(recovery.is_none());
        cache.save(&other.0)?;
        assert!(std::path::Path::new(&other.0).exists());
        Ok(())
    }

    #[test]
    fn a_file_truncated_after_loading_is_rewritten() -> Result<(), CacheError> {
        let (scratch, _) = saved("cut-after-load");
        let cache = EstimationCache::load(&scratch.0)?;
        let text =
            std::fs::read_to_string(&scratch.0).map_err(|e| CacheError::Io(e.to_string()))?;
        std::fs::write(&scratch.0, &text[..text.len() / 2])
            .map_err(|e| CacheError::Io(e.to_string()))?;
        cache.save(&scratch.0)?;
        let reloaded = EstimationCache::load(&scratch.0)?;
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get(2), cache.get(2));
        Ok(())
    }

    #[test]
    fn a_shared_cache_that_only_hits_does_not_rewrite() -> Result<(), CacheError> {
        let (scratch, then) = saved("shared-hits");
        let (shared, recovery) = SharedEstimationCache::load_or_recover(&scratch.0)?;
        assert!(recovery.is_none());
        for key in [1, 2, 1] {
            assert!(shared.get(key).is_some());
            shared.save(&scratch.0)?;
        }
        assert_eq!(mtime(&scratch.0), then);

        shared.insert(4, entry(40));
        shared.save(&scratch.0)?;
        assert_ne!(mtime(&scratch.0), then, "a miss's insert is flushed");
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
