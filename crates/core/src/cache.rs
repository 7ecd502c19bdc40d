//! Two-tier content-addressed result cache: a process-wide in-memory hot
//! tier with byte-bounded LRU eviction, layered over a prefix-sharded
//! on-disk store.
//!
//! Every figure sweep, calibration pass, and serve request funnels through
//! here, and the dominant access pattern is *mostly-warm repetition*: the
//! same sweep points looked up again and again across figures, reruns, and
//! concurrent service clients. The hot tier answers those repeats with one
//! mutex acquisition and a key comparison — no filesystem read, no JSON
//! parse.
//!
//! ## Tiers
//!
//! * **Memory** — one LRU of parsed [`Value`]s behind one `Mutex`, under
//!   a byte budget (`--cache-mem-cap`, default [`DEFAULT_MEM_CAP`]).
//!   Inserting past the budget evicts least-recently-used entries first,
//!   and a value larger than the whole budget is never admitted, so
//!   residency is bounded by the cap. A lookup holds the lock for a map
//!   lookup and an `Arc` clone; the value is deep-copied after release.
//! * **Disk** — one JSON file per digest under a two-hex-prefix
//!   subdirectory (`<dir>/<d[0..2]>/<digest>.json`), so a full-scale sweep
//!   corpus never piles tens of thousands of files into one directory.
//!   Files at the cache root are neither read nor counted.
//!
//! ## Verification at both tiers
//!
//! An entry — memory or disk — stores the canonical JSON of the
//! [`JobKey`](crate::sweep::JobKey) it was recorded under, and a lookup
//! only hits when that matches the requesting key byte-for-byte. A digest
//! collision, a corrupted file, or a poisoned memory entry therefore
//! becomes a [`CacheLookup::KeyMismatch`] (recompute), never a wrong value.
//! The requesting key is serialized **once per job** into a
//! [`PreparedKey`] and threaded through load/store, instead of being
//! re-serialized at every verification site.
//!
//! Sharing: a front end opens its cache once and clones the handle; a
//! clone shares the directory and the memory tier. Hot tiers are also
//! registered process-wide *per cache directory* (canonicalized), so a
//! second open of the same directory shares the tier too, while caches
//! rooted elsewhere (tests, scratch sweeps) stay isolated.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use serde::{impl_serde_struct, Value};
use xtsim_machine::fingerprint::hex_digest;

/// Default in-memory hot-tier budget (bytes): 64 MiB.
pub const DEFAULT_MEM_CAP: u64 = 64 * 1024 * 1024;

/// A job key serialized once: the canonical JSON encoding plus the digest
/// derived from it. Constructed by `JobKey::prepare()`; both tiers verify
/// against `key_json` and address by `digest` without ever re-serializing
/// the key.
#[derive(Debug, Clone)]
pub struct PreparedKey {
    /// 128-bit hex digest of `key_json`.
    pub digest: String,
    /// Canonical JSON of the job key (object keys sorted, integral floats
    /// rendered `x.0`) — the byte string that load-time verification
    /// compares against.
    pub key_json: String,
}

impl PreparedKey {
    /// Build from an already-canonical key encoding (the digest is derived
    /// from it).
    pub fn from_canonical_json(key_json: String) -> PreparedKey {
        PreparedKey { digest: hex_digest(&key_json), key_json }
    }
}

/// Outcome of a verified cache lookup ([`DiskCache::load`]).
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Entry present and its embedded key matches the requesting key.
    Hit(Value),
    /// No entry in either tier (or an unreadable/corrupt file).
    Miss,
    /// Entry present but recorded under a *different* key — a digest
    /// collision or a corrupted/poisoned entry. Must be recomputed.
    KeyMismatch,
}

/// Aggregate state of a [`DiskCache`] across both tiers, for
/// `/stats`-style reporting.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Committed disk entries (`<digest>.json` files).
    pub entries: u64,
    /// Total bytes across committed disk entries.
    pub bytes: u64,
    /// In-flight or leaked temp files (`.<digest>.<pid>.<seq>.tmp`).
    pub tmp_files: u64,
    /// Entries resident in the memory tier.
    pub mem_entries: u64,
    /// Bytes resident in the memory tier (serialized-entry accounting).
    pub mem_bytes: u64,
    /// Memory-tier byte budget (0 = hot tier disabled).
    pub mem_cap_bytes: u64,
}

impl_serde_struct!(CacheStats { entries, bytes, tmp_files, mem_entries, mem_bytes, mem_cap_bytes });

/// Temp files older than this are presumed leaked by a crashed writer and
/// are reclaimed on [`DiskCache::new`], even when pid liveness can't be
/// probed. A live store-then-rename window is microseconds; an hour is far
/// outside any legitimate in-flight write.
const STALE_TMP_MAX_AGE: Duration = Duration::from_secs(3600);

// ------------------------------------------------------------------ metrics

/// Process-wide cache telemetry handles, registered once. Pure observation:
/// counters and wall-clock latency never influence lookup results, job
/// keys, or figure bytes.
struct CacheMetrics {
    hits_mem: Arc<xtsim_obs::Counter>,
    hits_disk: Arc<xtsim_obs::Counter>,
    misses: Arc<xtsim_obs::Counter>,
    key_mismatches_mem: Arc<xtsim_obs::Counter>,
    key_mismatches_disk: Arc<xtsim_obs::Counter>,
    stores: Arc<xtsim_obs::Counter>,
    store_bytes: Arc<xtsim_obs::Counter>,
    lookup_seconds_mem: Arc<xtsim_obs::Histogram>,
    lookup_seconds_disk: Arc<xtsim_obs::Histogram>,
    mem_evictions: Arc<xtsim_obs::Counter>,
    mem_oversize: Arc<xtsim_obs::Counter>,
    mem_bytes: Arc<xtsim_obs::Gauge>,
    mem_entries: Arc<xtsim_obs::Gauge>,
}

fn cache_metrics() -> &'static CacheMetrics {
    static M: OnceLock<CacheMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let lookups = "xtsim_cache_lookups_total";
        let lookups_help = "Cache lookups by verified outcome and serving tier.";
        let latency = "xtsim_cache_lookup_seconds";
        let latency_help = "Wall-clock cache lookup latency by serving tier \
                            (memory = hot-tier hit; disk = the lookup read the disk tier).";
        CacheMetrics {
            hits_mem: xtsim_obs::counter_with(
                lookups,
                lookups_help,
                &[("result", "hit"), ("tier", "memory")],
            ),
            hits_disk: xtsim_obs::counter_with(
                lookups,
                lookups_help,
                &[("result", "hit"), ("tier", "disk")],
            ),
            misses: xtsim_obs::counter_with(
                lookups,
                lookups_help,
                &[("result", "miss"), ("tier", "disk")],
            ),
            key_mismatches_mem: xtsim_obs::counter_with(
                lookups,
                lookups_help,
                &[("result", "key_mismatch"), ("tier", "memory")],
            ),
            key_mismatches_disk: xtsim_obs::counter_with(
                lookups,
                lookups_help,
                &[("result", "key_mismatch"), ("tier", "disk")],
            ),
            stores: xtsim_obs::counter(
                "xtsim_cache_stores_total",
                "Cache entries committed to disk.",
            ),
            store_bytes: xtsim_obs::counter(
                "xtsim_cache_store_bytes_total",
                "Serialized bytes written into committed cache entries.",
            ),
            lookup_seconds_mem: xtsim_obs::histogram_with(
                latency,
                latency_help,
                &[("tier", "memory")],
            ),
            lookup_seconds_disk: xtsim_obs::histogram_with(
                latency,
                latency_help,
                &[("tier", "disk")],
            ),
            mem_evictions: xtsim_obs::counter(
                "xtsim_cache_mem_evictions_total",
                "Memory-tier entries evicted by the byte-budgeted LRU.",
            ),
            mem_oversize: xtsim_obs::counter(
                "xtsim_cache_mem_oversize_total",
                "Values larger than the memory-tier budget (never admitted).",
            ),
            mem_bytes: xtsim_obs::gauge(
                "xtsim_cache_mem_bytes",
                "Bytes resident in the memory tier (serialized-entry accounting).",
            ),
            mem_entries: xtsim_obs::gauge(
                "xtsim_cache_mem_entries",
                "Entries resident in the memory tier.",
            ),
        }
    })
}

// ----------------------------------------------------------------- hot tier

struct MemEntry {
    key_json: String,
    value: Arc<Value>,
    bytes: u64,
    tick: u64,
}

/// The in-memory hot tier for one cache directory: a byte-budgeted LRU
/// behind one `Mutex`.
#[derive(Default)]
struct Lru {
    /// Digest → entry. BTreeMap: point lookups only, deterministic walks.
    entries: BTreeMap<String, MemEntry>,
    /// Recency tick → digest; the smallest tick is the LRU victim.
    order: BTreeMap<u64, String>,
    /// Last recency tick handed out.
    tick: u64,
    /// Bytes resident (serialized-entry accounting).
    bytes: u64,
    /// Byte budget; 0 disables the tier.
    cap: u64,
}

enum MemLookup {
    Hit(Arc<Value>),
    Miss,
    KeyMismatch,
}

impl Lru {
    fn publish(&self) {
        let m = cache_metrics();
        m.mem_bytes.set(self.bytes);
        m.mem_entries.set(self.entries.len() as u64);
    }

    fn remove(&mut self, digest: &str) {
        if let Some(e) = self.entries.remove(digest) {
            self.order.remove(&e.tick);
            self.bytes -= e.bytes;
        }
    }

    /// Evict LRU entries until the tier holds at most `budget` bytes.
    fn evict_to(&mut self, budget: u64) {
        while self.bytes > budget {
            let Some((_, digest)) = self.order.pop_first() else { break };
            let e = self.entries.remove(&digest).expect("lru digest present");
            self.bytes -= e.bytes;
            cache_metrics().mem_evictions.inc();
        }
    }

    /// Re-budget the tier (a front end passing `--cache-mem-cap` onto an
    /// already-registered directory), evicting down if it shrank.
    fn set_cap(&mut self, cap: u64) {
        self.cap = cap;
        self.evict_to(cap);
        self.publish();
    }

    fn lookup(&mut self, key: &PreparedKey) -> MemLookup {
        let Some(e) = self.entries.get_mut(&key.digest) else {
            return MemLookup::Miss;
        };
        if e.key_json != key.key_json {
            // Poisoned or colliding entry: it can never serve this key (and
            // by content-addressing it shouldn't exist at all) — drop it so
            // the recompute's store can land cleanly.
            self.remove(&key.digest);
            self.publish();
            return MemLookup::KeyMismatch;
        }
        // Touch: move the entry to the MRU end of the recency order.
        self.tick += 1;
        let digest = self.order.remove(&e.tick).expect("lru tick present");
        self.order.insert(self.tick, digest);
        e.tick = self.tick;
        MemLookup::Hit(Arc::clone(&e.value))
    }

    fn insert(&mut self, key: &PreparedKey, value: Arc<Value>, bytes: u64) {
        if self.cap == 0 {
            return;
        }
        if bytes > self.cap {
            cache_metrics().mem_oversize.inc();
            return;
        }
        self.remove(&key.digest);
        self.evict_to(self.cap - bytes);
        self.tick += 1;
        self.order.insert(self.tick, key.digest.clone());
        self.bytes += bytes;
        let entry = MemEntry { key_json: key.key_json.clone(), value, bytes, tick: self.tick };
        self.entries.insert(key.digest.clone(), entry);
        self.publish();
    }
}

/// Process-wide hot tiers, one per (canonicalized) cache directory: every
/// `DiskCache` opened onto the same directory shares one memory tier;
/// caches rooted elsewhere stay isolated. An explicit `cap` re-budgets the
/// directory's tier; a plain open (`DiskCache::new`) leaves it alone.
fn mem_for_dir(dir: &Path, cap: Option<u64>) -> Arc<Mutex<Lru>> {
    static REG: OnceLock<Mutex<BTreeMap<PathBuf, Arc<Mutex<Lru>>>>> = OnceLock::new();
    let key = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mut reg = REG.get_or_init(Default::default).lock().expect("mem-cache registry lock");
    let mem = reg
        .entry(key)
        .or_insert_with(|| Arc::new(Mutex::new(Lru { cap: DEFAULT_MEM_CAP, ..Lru::default() })));
    if let Some(cap) = cap {
        mem.lock().expect("mem-cache lock").set_cap(cap);
    }
    Arc::clone(mem)
}

// ---------------------------------------------------------------- disk tier

/// Two-tier content-addressed job cache: an in-memory LRU hot tier over one
/// JSON file per digest in two-hex-prefix subdirectories. A clone is another
/// handle on the same directory and hot tier.
#[derive(Clone)]
pub struct DiskCache {
    dir: PathBuf,
    mem: Arc<Mutex<Lru>>,
}

impl DiskCache {
    /// Open (creating if needed) a cache rooted at `dir` with the default
    /// memory-tier budget — or whatever budget the directory's hot tier was
    /// already configured with this process. Temp files leaked by writers
    /// that died between write and rename are swept — see
    /// [`DiskCache::sweep_stale_tmp`].
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        DiskCache::open(dir.into(), None)
    }

    /// Open a cache with an explicit memory-tier byte budget (`0` disables
    /// the hot tier). Re-budgets the directory's process-wide hot tier if
    /// it already exists, evicting down as needed.
    pub fn with_mem_cap(dir: impl Into<PathBuf>, cap_bytes: u64) -> std::io::Result<DiskCache> {
        DiskCache::open(dir.into(), Some(cap_bytes))
    }

    fn open(dir: PathBuf, cap: Option<u64>) -> std::io::Result<DiskCache> {
        std::fs::create_dir_all(&dir)?;
        let cache = DiskCache { mem: mem_for_dir(&dir, cap), dir };
        cache.sweep_stale_tmp(STALE_TMP_MAX_AGE);
        Ok(cache)
    }

    /// The conventional cache location used by the `figures` binary.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results/cache")
    }

    /// Cache directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, digest: &str) -> PathBuf {
        self.dir.join(digest.get(..2).unwrap_or("00")).join(format!("{digest}.json"))
    }

    /// Load and *verify* the cached entry for `key`: memory tier first
    /// (map lookup plus byte-exact key comparison), then disk (read,
    /// parse, and key verification, promoting the value into the memory
    /// tier on a hit). A digest collision, a foreign entry, or a poisoned
    /// memory entry is a [`CacheLookup::KeyMismatch`] — callers must
    /// recompute, exactly as for a plain miss.
    pub fn load(&self, key: &PreparedKey) -> CacheLookup {
        let m = cache_metrics();
        let sw = xtsim_obs::Stopwatch::start();
        // Bound first, so the lock is released before the deep copy below.
        let mem = self.lock_mem().lookup(key);
        match mem {
            MemLookup::Hit(v) => {
                let v = (*v).clone();
                m.lookup_seconds_mem.observe_since(&sw);
                m.hits_mem.inc();
                return CacheLookup::Hit(v);
            }
            MemLookup::KeyMismatch => {
                m.lookup_seconds_mem.observe_since(&sw);
                m.key_mismatches_mem.inc();
                return CacheLookup::KeyMismatch;
            }
            MemLookup::Miss => {}
        }
        let out = self.load_disk(key);
        m.lookup_seconds_disk.observe_since(&sw);
        match &out {
            CacheLookup::Hit(_) => m.hits_disk.inc(),
            CacheLookup::Miss => m.misses.inc(),
            CacheLookup::KeyMismatch => m.key_mismatches_disk.inc(),
        }
        out
    }

    fn load_disk(&self, key: &PreparedKey) -> CacheLookup {
        let Ok(text) = std::fs::read_to_string(self.path_for(&key.digest)) else {
            return CacheLookup::Miss;
        };
        let Ok(entry) = serde_json::from_str::<Value>(&text) else {
            return CacheLookup::Miss; // corrupt file: plain miss
        };
        let Value::Object(mut obj) = entry else {
            return CacheLookup::Miss;
        };
        let stored = obj.get("key").map(|k| serde_json::to_string(k).expect("Value serializes"));
        if stored.as_deref() != Some(key.key_json.as_str()) {
            return CacheLookup::KeyMismatch;
        }
        match obj.remove("value") {
            Some(v) => {
                let value = Arc::new(v);
                self.lock_mem().insert(key, Arc::clone(&value), text.len() as u64);
                CacheLookup::Hit((*value).clone())
            }
            None => CacheLookup::Miss,
        }
    }

    /// Store `value` (with its key, for load-time verification) under
    /// `key.digest`, populating both tiers. The entry is assembled by
    /// splicing the already-serialized key next to the serialized value —
    /// no deep clone of the result just to wrap it in a map. Writes to a
    /// temp file unique to this process *and* store call, then renames, so
    /// concurrent writers — even across processes sharing the cache
    /// directory — never tear each other's entries.
    pub fn store(&self, key: &PreparedKey, value: &Value) -> std::io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let value_json = serde_json::to_string(value).expect("value serializes");
        let text = format!("{{\"key\":{},\"value\":{}}}", key.key_json, value_json);
        let sub = self.dir.join(key.digest.get(..2).unwrap_or("00"));
        std::fs::create_dir_all(&sub)?;
        let tmp = sub.join(format!(
            ".{}.{}.{}.tmp",
            key.digest,
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = text.len() as u64;
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.path_for(&key.digest))?;
        let m = cache_metrics();
        m.stores.inc();
        m.store_bytes.add(bytes);
        // The hot tier keeps its own parsed copy (this clone *is* the
        // cached value, not serialization scaffolding).
        self.lock_mem().insert(key, Arc::new(value.clone()), bytes);
        Ok(())
    }

    fn lock_mem(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.mem.lock().expect("mem-cache lock")
    }

    /// Visit every file in the prefix subdirectories. Files at the cache
    /// root are not part of the store: `read_dir` on them fails and they
    /// are skipped.
    fn walk_files(&self, mut f: impl FnMut(&std::fs::DirEntry)) {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for sub in rd.filter_map(Result::ok).filter_map(|e| std::fs::read_dir(e.path()).ok()) {
            for e in sub.filter_map(Result::ok) {
                f(&e);
            }
        }
    }

    /// Remove leaked temp files from the prefix subdirectories, where
    /// [`DiskCache::store`] writes them. A writer crashing between
    /// `fs::write` and `fs::rename` strands its `.<digest>.<pid>.<seq>.tmp`
    /// file forever — nothing else ever touches that name again. A temp file
    /// is reclaimed when its recorded pid is provably dead (`/proc/<pid>`
    /// absent on systems that have `/proc`) or its mtime is older than
    /// `max_age`; fresh files from live writers are left alone. Returns the
    /// number of files removed.
    pub fn sweep_stale_tmp(&self, max_age: Duration) -> usize {
        let now = std::time::SystemTime::now();
        let mut removed = 0;
        self.walk_files(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !(name.starts_with('.') && name.ends_with(".tmp")) {
                return;
            }
            let dead_writer = tmp_writer_pid(&name).is_some_and(pid_provably_dead);
            let expired = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| now.duration_since(t).ok())
                .is_some_and(|age| age >= max_age);
            if (dead_writer || expired) && std::fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        });
        removed
    }

    /// Aggregate state across both tiers: disk entry count and byte total,
    /// temp files, and memory-tier residency/budget.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        self.walk_files(|entry| {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.extension().is_some_and(|x| x == "json") {
                stats.entries += 1;
                stats.bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
            } else if name.starts_with('.') && name.ends_with(".tmp") {
                stats.tmp_files += 1;
            }
        });
        let mem = self.lock_mem();
        stats.mem_entries = mem.entries.len() as u64;
        stats.mem_bytes = mem.bytes;
        stats.mem_cap_bytes = mem.cap;
        stats
    }

    /// Number of entries on disk.
    pub fn len(&self) -> usize {
        self.stats().entries as usize
    }

    /// True when the disk tier holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Writer pid recorded in a `.<digest>.<pid>.<seq>.tmp` file name.
fn tmp_writer_pid(name: &str) -> Option<u32> {
    name.strip_suffix(".tmp")?.rsplit('.').nth(1)?.parse().ok()
}

/// True only when the platform lets us *prove* the pid is gone (`/proc`
/// exists but `/proc/<pid>` doesn't). Elsewhere the age rule alone decides,
/// so a live writer's fresh temp file is never yanked out from under it.
fn pid_provably_dead(pid: u32) -> bool {
    Path::new("/proc").is_dir() && !Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtsim-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A prepared key whose digest is controlled by `seed` (canonical JSON
    /// of a one-field object, digest derived exactly as production keys).
    fn key(seed: u32) -> PreparedKey {
        PreparedKey::from_canonical_json(format!("{{\"seed\":{seed}}}"))
    }

    fn val(seed: u32) -> Value {
        let mut m = BTreeMap::new();
        m.insert("y".to_string(), Value::Int(i64::from(seed)));
        m.insert("pad".to_string(), Value::Str("x".repeat(64)));
        Value::Object(m)
    }

    #[test]
    fn roundtrip_hits_memory_then_disk() {
        let dir = tmp_dir("roundtrip");
        let cache = DiskCache::new(&dir).unwrap();
        let k = key(1);
        cache.store(&k, &val(1)).unwrap();
        // Entry landed in a two-hex-prefix subdirectory, not the root.
        assert!(dir.join(&k.digest[..2]).join(format!("{}.json", k.digest)).is_file());
        assert!(matches!(cache.load(&k), CacheLookup::Hit(v) if v == val(1)));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.mem_entries, 1);
        assert!(stats.mem_bytes > 0 && stats.mem_bytes <= stats.mem_cap_bytes);

        // A clone shares the directory and the hot tier...
        let clone = cache.clone();
        assert_eq!(clone.dir(), cache.dir());
        clone.store(&key(2), &val(2)).unwrap();
        assert_eq!(cache.stats().mem_entries, 2);
        std::fs::write(cache.path_for(&key(2).digest), "{ torn").unwrap();
        assert!(matches!(cache.load(&key(2)), CacheLookup::Hit(v) if v == val(2)));
        // ...as does a second handle opened on the same directory...
        let again = DiskCache::new(&dir).unwrap();
        assert_eq!(again.stats().mem_entries, 2);
        // ...while a different directory gets its own, empty one.
        let other_dir = tmp_dir("roundtrip-other");
        let other = DiskCache::new(&other_dir).unwrap();
        assert_eq!(other.stats().mem_entries, 0);
        assert!(matches!(other.load(&k), CacheLookup::Miss));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other_dir);
    }

    #[test]
    fn disk_hit_promotes_into_memory_tier() {
        let dir = tmp_dir("promote");
        // Store with the hot tier disabled, then re-enable: first load must
        // come from disk and promote, second from memory.
        let cold = DiskCache::with_mem_cap(&dir, 0).unwrap();
        let k = key(7);
        cold.store(&k, &val(7)).unwrap();
        assert_eq!(cold.stats().mem_entries, 0, "cap 0 admits nothing");

        let warm = DiskCache::with_mem_cap(&dir, DEFAULT_MEM_CAP).unwrap();
        assert!(matches!(warm.load(&k), CacheLookup::Hit(_)));
        assert_eq!(warm.stats().mem_entries, 1, "disk hit must promote");
        // Now corrupt the disk file: the verified memory copy still serves.
        std::fs::write(warm.path_for(&k.digest), "{ not json").unwrap();
        assert!(matches!(warm.load(&k), CacheLookup::Hit(v) if v == val(7)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn too_deeply_nested_entry_is_a_miss() {
        let dir = tmp_dir("deep");
        let cache = DiskCache::with_mem_cap(&dir, 0).unwrap();
        let k = key(5);
        cache.store(&k, &val(5)).unwrap();
        let deep = "[".repeat(20_000) + &"]".repeat(20_000);
        std::fs::write(cache.path_for(&k.digest), deep).unwrap();
        assert!(matches!(cache.load(&k), CacheLookup::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_memory_entry_is_a_key_mismatch_and_dropped() {
        let dir = tmp_dir("poison");
        let cache = DiskCache::new(&dir).unwrap();
        let k = key(3);
        cache.store(&k, &val(3)).unwrap();
        // Forge a lookup whose digest collides with k but whose canonical
        // key differs — as a real 128-bit collision would look.
        let forged = PreparedKey { digest: k.digest.clone(), key_json: "{\"seed\":999}".into() };
        assert!(matches!(cache.load(&forged), CacheLookup::KeyMismatch));
        // The poisoned-for-this-key entry was dropped from memory; the real
        // key still verifies from disk (and re-promotes).
        assert!(matches!(cache.load(&k), CacheLookup::Hit(_)));
        assert_eq!(cache.stats().mem_entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_oldest_and_respects_byte_budget() {
        let dir = tmp_dir("lru");
        let keys = [key(0), key(1), key(2)];
        let entry_bytes = keys
            .iter()
            .zip(0..)
            .map(|(k, s)| {
                let value_json = serde_json::to_string(&val(s)).unwrap();
                format!("{{\"key\":{},\"value\":{}}}", k.key_json, value_json).len() as u64
            })
            .max()
            .unwrap();
        // Budget for two entries plus slack smaller than one entry, so
        // storing a third entry evicts exactly the LRU one.
        let cap = entry_bytes * 2 + 16;
        let cache = DiskCache::with_mem_cap(&dir, cap).unwrap();
        let [ka, kb, kc] = &keys;
        cache.store(ka, &val(0)).unwrap();
        cache.store(kb, &val(1)).unwrap();
        // Touch A so B becomes the LRU victim.
        assert!(matches!(cache.load(ka), CacheLookup::Hit(_)));
        cache.store(kc, &val(2)).unwrap();
        let stats = cache.stats();
        assert!(stats.mem_bytes <= cap, "residency {} exceeds cap {cap}", stats.mem_bytes);

        // B was evicted from memory (loads go to disk and re-promote,
        // evicting the new LRU in turn); A and C are resident. Check
        // residency *without* load (which would reshuffle): corrupt B on
        // disk — if it were memory-resident it would still hit.
        std::fs::write(cache.path_for(&kb.digest), "{ torn").unwrap();
        assert!(
            matches!(cache.load(kb), CacheLookup::Miss),
            "LRU victim must have left the memory tier"
        );
        std::fs::write(cache.path_for(&ka.digest), "{ torn").unwrap();
        assert!(matches!(cache.load(ka), CacheLookup::Hit(_)), "touched entry must stay resident");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrinking_the_cap_evicts_down_and_zero_disables() {
        let dir = tmp_dir("recap");
        let cache = DiskCache::new(&dir).unwrap();
        for s in 0..32 {
            cache.store(&key(s), &val(s)).unwrap();
        }
        assert_eq!(cache.stats().mem_entries, 32);
        // Re-open with cap 0: the shared hot tier is re-budgeted and emptied.
        let disabled = DiskCache::with_mem_cap(&dir, 0).unwrap();
        let stats = disabled.stats();
        assert_eq!((stats.mem_entries, stats.mem_bytes, stats.mem_cap_bytes), (0, 0, 0));
        // Disk tier unaffected; loads still verify from disk, no admission.
        assert!(matches!(disabled.load(&key(5)), CacheLookup::Hit(_)));
        assert_eq!(disabled.stats().mem_entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversize_values_are_never_admitted() {
        let dir = tmp_dir("oversize");
        let cache = DiskCache::with_mem_cap(&dir, 4096).unwrap();
        let k = key(9);
        let mut m = BTreeMap::new();
        m.insert("blob".to_string(), Value::Str("z".repeat(10_000)));
        cache.store(&k, &Value::Object(m)).unwrap();
        assert_eq!(cache.stats().mem_entries, 0, "oversize value admitted");
        assert!(matches!(cache.load(&k), CacheLookup::Hit(_)), "disk still serves it");
        assert_eq!(cache.stats().mem_entries, 0, "oversize promotion admitted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flat_layout_leftovers_are_ignored() {
        let dir = tmp_dir("flat");
        std::fs::create_dir_all(&dir).unwrap();
        // A well-formed entry in the old flat layout, at the cache root.
        let k = key(0);
        let value_json = serde_json::to_string(&val(0)).unwrap();
        let flat = dir.join(format!("{}.json", k.digest));
        std::fs::write(&flat, format!("{{\"key\":{},\"value\":{}}}", k.key_json, value_json))
            .unwrap();

        let cache = DiskCache::new(&dir).unwrap();
        assert!(matches!(cache.load(&k), CacheLookup::Miss), "root entry was read");
        assert!(flat.is_file(), "root entry was moved");
        assert!(!cache.path_for(&k.digest).exists());
        assert_eq!(cache.stats().entries, 0, "root entry was counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_mixed_load_store_is_never_torn() {
        let dir = tmp_dir("mixed");
        // Small cap so eviction churns continuously under load.
        let cache = DiskCache::with_mem_cap(&dir, 8 * 1024).unwrap();
        let keys: Vec<PreparedKey> = (0..24).map(key).collect();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cache = &cache;
                let keys = &keys;
                s.spawn(move || {
                    for round in 0..50u32 {
                        let i = ((t * 7 + round) as usize) % keys.len();
                        if (t + round) % 3 == 0 {
                            cache.store(&keys[i], &val(i as u32)).unwrap();
                        } else {
                            match cache.load(&keys[i]) {
                                CacheLookup::Hit(v) => {
                                    assert_eq!(v, val(i as u32), "wrong value for key {i}");
                                }
                                CacheLookup::Miss => {}
                                CacheLookup::KeyMismatch => {
                                    panic!("key mismatch under mixed load")
                                }
                            }
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.mem_bytes <= 8 * 1024, "residency above cap: {}", stats.mem_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
