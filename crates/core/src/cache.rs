//! Two-tier content-addressed result cache: a process-wide sharded
//! in-memory hot tier with byte-bounded LRU eviction, layered over a
//! prefix-sharded on-disk store.
//!
//! Every figure sweep, calibration pass, and serve request funnels through
//! here, and the dominant access pattern is *mostly-warm repetition*: the
//! same sweep points looked up again and again across figures, reruns, and
//! concurrent service clients. The hot tier answers those repeats with one
//! shard-local mutex acquisition and a key comparison — no filesystem read,
//! no JSON parse.
//!
//! ## Tiers
//!
//! * **Memory** — [`MEM_SHARDS`] independent shards, each its own
//!   `Mutex` (so concurrent sweep workers rarely contend), keyed by the
//!   leading byte of the digest. Each shard holds parsed [`Value`]s under a
//!   byte-budgeted LRU: the process-wide cap (`--cache-mem-cap`, default
//!   [`DEFAULT_MEM_CAP`]) is split evenly across shards, and inserting past
//!   the budget evicts least-recently-used entries first. Entries larger
//!   than one shard's budget are never admitted, so total residency is
//!   provably bounded by the cap.
//! * **Disk** — one JSON file per digest under a two-hex-prefix
//!   subdirectory (`<dir>/<d[0..2]>/<digest>.json`), so a full-scale sweep
//!   corpus never piles tens of thousands of files into one directory.
//!   Entries from the older flat layout are migrated transparently on open.
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
//! Sharing: hot tiers are registered process-wide *per cache directory*
//! (canonicalized), so every [`DiskCache`] handle a service opens onto the
//! same directory shares one memory tier, while caches rooted elsewhere
//! (tests, scratch sweeps) stay isolated.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use serde::{impl_serde_struct, Value};
use xtsim_machine::fingerprint::hex_digest;

/// Default in-memory hot-tier budget (bytes): 64 MiB.
pub const DEFAULT_MEM_CAP: u64 = 64 * 1024 * 1024;

/// Number of independent hot-tier shards. Shard choice is the first hex
/// byte of the digest, so uniformly distributed digests spread evenly.
pub const MEM_SHARDS: usize = 16;

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
                "Values too large for one memory-tier shard budget (never admitted).",
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

#[derive(Default)]
struct MemShard {
    /// Digest → entry. BTreeMap: point lookups only, deterministic walks.
    entries: BTreeMap<String, MemEntry>,
    /// Recency tick → digest; the smallest tick is the LRU victim.
    lru: BTreeMap<u64, String>,
    bytes: u64,
}

impl MemShard {
    fn remove(&mut self, digest: &str) -> Option<MemEntry> {
        let e = self.entries.remove(digest)?;
        self.lru.remove(&e.tick);
        self.bytes -= e.bytes;
        Some(e)
    }

    /// Evict LRU entries until the shard holds at most `budget` bytes.
    /// Returns the number of entries evicted.
    fn evict_to(&mut self, budget: u64) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let Some((&tick, _)) = self.lru.iter().next() else { break };
            let digest = self.lru.remove(&tick).expect("lru tick present");
            let e = self.entries.remove(&digest).expect("lru digest present");
            self.bytes -= e.bytes;
            evicted += 1;
        }
        evicted
    }
}

enum MemLookup {
    Hit(Value),
    Miss,
    KeyMismatch,
}

/// The process-wide in-memory hot tier for one cache directory.
struct MemCache {
    shards: Vec<Mutex<MemShard>>,
    /// Total byte budget, split evenly across shards. 0 disables the tier.
    cap: AtomicU64,
    /// Global recency clock (monotonic; shared so LRU order is meaningful
    /// across shards even though eviction is shard-local).
    tick: AtomicU64,
    /// Residency totals, maintained under shard locks, read lock-free.
    total_bytes: AtomicU64,
    total_entries: AtomicU64,
}

impl MemCache {
    fn new(cap: u64) -> MemCache {
        MemCache {
            shards: (0..MEM_SHARDS).map(|_| Mutex::new(MemShard::default())).collect(),
            cap: AtomicU64::new(cap),
            tick: AtomicU64::new(0),
            total_bytes: AtomicU64::new(0),
            total_entries: AtomicU64::new(0),
        }
    }

    fn shard_budget(&self) -> u64 {
        self.cap.load(Ordering::Relaxed) / MEM_SHARDS as u64
    }

    fn shard_for(&self, digest: &str) -> &Mutex<MemShard> {
        let idx = usize::from_str_radix(digest.get(..2).unwrap_or("0"), 16).unwrap_or(0);
        &self.shards[idx % MEM_SHARDS]
    }

    fn publish_totals(&self) {
        let m = cache_metrics();
        m.mem_bytes.set(self.total_bytes.load(Ordering::Relaxed));
        m.mem_entries.set(self.total_entries.load(Ordering::Relaxed));
    }

    /// Re-budget the tier (e.g. a front end passing `--cache-mem-cap` onto
    /// an already-registered directory), evicting down if it shrank.
    fn set_cap(&self, cap: u64) {
        self.cap.store(cap, Ordering::Relaxed);
        let budget = cap / MEM_SHARDS as u64;
        let mut evicted = 0;
        for shard in &self.shards {
            evicted += shard.lock().expect("mem-cache shard lock").evict_to(budget);
        }
        if evicted > 0 {
            cache_metrics().mem_evictions.add(evicted);
            self.recount();
        }
        self.publish_totals();
    }

    /// Recompute residency totals from the shards (slow path, only after
    /// bulk eviction).
    fn recount(&self) {
        let (mut bytes, mut entries) = (0u64, 0u64);
        for shard in &self.shards {
            let s = shard.lock().expect("mem-cache shard lock");
            bytes += s.bytes;
            entries += s.entries.len() as u64;
        }
        self.total_bytes.store(bytes, Ordering::Relaxed);
        self.total_entries.store(entries, Ordering::Relaxed);
    }

    fn lookup(&self, key: &PreparedKey) -> MemLookup {
        if self.cap.load(Ordering::Relaxed) == 0 {
            return MemLookup::Miss;
        }
        let mut s = self.shard_for(&key.digest).lock().expect("mem-cache shard lock");
        let Some(e) = s.entries.get(&key.digest) else {
            return MemLookup::Miss;
        };
        if e.key_json != key.key_json {
            // Poisoned or colliding entry: it can never serve this key (and
            // by content-addressing it shouldn't exist at all) — drop it so
            // the recompute's store can land cleanly.
            s.remove(&key.digest);
            self.total_entries.fetch_sub(1, Ordering::Relaxed);
            drop(s);
            self.recount_bytes_only();
            return MemLookup::KeyMismatch;
        }
        let value = Arc::clone(&e.value);
        // Touch: move the entry to the MRU end of the recency order.
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let old = e.tick;
        s.lru.remove(&old);
        s.lru.insert(tick, key.digest.clone());
        s.entries.get_mut(&key.digest).expect("entry present").tick = tick;
        MemLookup::Hit((*value).clone())
    }

    fn recount_bytes_only(&self) {
        let bytes: u64 = self
            .shards
            .iter()
            .map(|s| s.lock().expect("mem-cache shard lock").bytes)
            .sum();
        self.total_bytes.store(bytes, Ordering::Relaxed);
        self.publish_totals();
    }

    fn insert(&self, key: &PreparedKey, value: Arc<Value>, bytes: u64) {
        let budget = self.shard_budget();
        if budget == 0 {
            return;
        }
        if bytes > budget {
            cache_metrics().mem_oversize.inc();
            return;
        }
        let mut s = self.shard_for(&key.digest).lock().expect("mem-cache shard lock");
        let mut entry_delta: i64 = 1;
        let mut byte_delta: i64 = bytes as i64;
        if let Some(old) = s.remove(&key.digest) {
            entry_delta -= 1;
            byte_delta -= old.bytes as i64;
        }
        let evicted_bytes_before = s.bytes;
        let evicted = s.evict_to(budget - bytes);
        if evicted > 0 {
            byte_delta -= (evicted_bytes_before - s.bytes) as i64;
            entry_delta -= evicted as i64;
            cache_metrics().mem_evictions.add(evicted);
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        s.lru.insert(tick, key.digest.clone());
        s.bytes += bytes;
        s.entries
            .insert(key.digest.clone(), MemEntry { key_json: key.key_json.clone(), value, bytes, tick });
        drop(s);
        add_signed(&self.total_bytes, byte_delta);
        add_signed(&self.total_entries, entry_delta);
        self.publish_totals();
    }

    fn stats(&self) -> (u64, u64, u64) {
        (
            self.total_entries.load(Ordering::Relaxed),
            self.total_bytes.load(Ordering::Relaxed),
            self.cap.load(Ordering::Relaxed),
        )
    }
}

fn add_signed(a: &AtomicU64, delta: i64) {
    if delta >= 0 {
        a.fetch_add(delta as u64, Ordering::Relaxed);
    } else {
        a.fetch_sub((-delta) as u64, Ordering::Relaxed);
    }
}

/// Process-wide hot tiers, one per (canonicalized) cache directory: every
/// `DiskCache` a service opens onto the same directory shares one memory
/// tier; caches rooted elsewhere stay isolated.
fn mem_for_dir(dir: &Path, cap: Option<u64>) -> Arc<MemCache> {
    static REG: OnceLock<Mutex<BTreeMap<PathBuf, Arc<MemCache>>>> = OnceLock::new();
    let key = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mut reg = REG.get_or_init(Default::default).lock().expect("mem-cache registry lock");
    match reg.get(&key) {
        Some(mem) => {
            let mem = Arc::clone(mem);
            // An explicit cap re-budgets the existing tier; a plain open
            // (`DiskCache::new`) leaves the configured budget alone.
            if let Some(cap) = cap {
                mem.set_cap(cap);
            }
            mem
        }
        None => {
            let mem = Arc::new(MemCache::new(cap.unwrap_or(DEFAULT_MEM_CAP)));
            reg.insert(key, Arc::clone(&mem));
            mem
        }
    }
}

// ---------------------------------------------------------------- disk tier

/// Two-tier content-addressed job cache: a sharded in-memory LRU hot tier
/// over one JSON file per digest in two-hex-prefix subdirectories.
pub struct DiskCache {
    dir: PathBuf,
    mem: Arc<MemCache>,
}

impl DiskCache {
    /// Open (creating if needed) a cache rooted at `dir` with the default
    /// memory-tier budget — or whatever budget the directory's hot tier was
    /// already configured with this process. Flat-layout entries from older
    /// caches are migrated into prefix subdirectories, and temp files
    /// leaked by writers that died between write and rename are swept —
    /// see [`DiskCache::sweep_stale_tmp`].
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
        cache.migrate_flat_entries();
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

    /// Move flat-layout entries (`<dir>/<digest>.json`, the pre-prefix
    /// layout) into their two-hex-prefix subdirectories. Rename is atomic,
    /// so concurrent openers race benignly: one wins, the rest no-op.
    /// Returns the number of entries migrated.
    pub fn migrate_flat_entries(&self) -> usize {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut moved = 0;
        for entry in rd.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(stem) = name.strip_suffix(".json") else { continue };
            if !is_hex_digest(stem) {
                continue;
            }
            let sub = self.dir.join(&stem[..2]);
            if std::fs::create_dir_all(&sub).is_ok()
                && std::fs::rename(&path, sub.join(&name)).is_ok()
            {
                moved += 1;
            }
        }
        moved
    }

    /// Load and *verify* the cached entry for `key`: memory tier first
    /// (shard lookup plus byte-exact key comparison), then disk (read,
    /// parse, and key verification, promoting the value into the memory
    /// tier on a hit). A digest collision, a foreign entry, or a poisoned
    /// memory entry is a [`CacheLookup::KeyMismatch`] — callers must
    /// recompute, exactly as for a plain miss.
    pub fn load(&self, key: &PreparedKey) -> CacheLookup {
        let m = cache_metrics();
        let sw = xtsim_obs::Stopwatch::start();
        match self.mem.lookup(key) {
            MemLookup::Hit(v) => {
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
                self.mem.insert(key, Arc::clone(&value), text.len() as u64);
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
        self.mem.insert(key, Arc::new(value.clone()), bytes);
        Ok(())
    }

    /// Visit every file in the store: prefix subdirectories first, then
    /// stragglers at the top level (pre-migration entries, root temp files).
    fn walk_files(&self, mut f: impl FnMut(&std::fs::DirEntry)) {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in rd.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                if let Ok(sub) = std::fs::read_dir(&path) {
                    for e in sub.filter_map(Result::ok) {
                        f(&e);
                    }
                }
            } else {
                f(&entry);
            }
        }
    }

    /// Remove leaked temp files from the whole store (root and prefix
    /// subdirectories). A writer crashing between `fs::write` and
    /// `fs::rename` in [`DiskCache::store`] strands its
    /// `.<digest>.<pid>.<seq>.tmp` file forever — nothing else ever touches
    /// that name again. A temp file is reclaimed when its recorded pid is
    /// provably dead (`/proc/<pid>` absent on systems that have `/proc`) or
    /// its mtime is older than `max_age`; fresh files from live writers are
    /// left alone. Returns the number of files removed.
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
        let (mem_entries, mem_bytes, mem_cap) = self.mem.stats();
        stats.mem_entries = mem_entries;
        stats.mem_bytes = mem_bytes;
        stats.mem_cap_bytes = mem_cap;
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

fn is_hex_digest(s: &str) -> bool {
    s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit())
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

        // A second handle on the same directory shares the hot tier...
        let again = DiskCache::new(&dir).unwrap();
        assert_eq!(again.stats().mem_entries, 1);
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
        // All test digests share a first byte? No — force one shard by
        // budgeting for it: use a cap where each shard holds ~2 entries and
        // drive three same-shard keys by brute-force seed search.
        let probe = DiskCache::with_mem_cap(&dir, 0).unwrap();
        let mut same_shard = Vec::new();
        let want = key(0).digest[..2].to_string();
        let mut seed = 0u32;
        while same_shard.len() < 3 {
            let k = key(seed);
            if k.digest[..2] == want[..] {
                same_shard.push((seed, k));
            }
            seed += 1;
        }
        drop(probe);
        let entry_bytes = same_shard
            .iter()
            .map(|(s, k)| {
                let value_json = serde_json::to_string(&val(*s)).unwrap();
                format!("{{\"key\":{},\"value\":{}}}", k.key_json, value_json).len() as u64
            })
            .max()
            .unwrap();
        // Budget one shard for two entries plus slack smaller than one entry
        // (cap is split evenly across MEM_SHARDS), so storing a third entry
        // evicts exactly the LRU one.
        let cap = (entry_bytes * 2 + 16) * MEM_SHARDS as u64;
        let cache = DiskCache::with_mem_cap(&dir, cap).unwrap();
        let (sa, ka) = &same_shard[0];
        let (sb, kb) = &same_shard[1];
        let (sc, kc) = &same_shard[2];
        cache.store(ka, &val(*sa)).unwrap();
        cache.store(kb, &val(*sb)).unwrap();
        // Touch A so B becomes the LRU victim.
        assert!(matches!(cache.load(ka), CacheLookup::Hit(_)));
        cache.store(kc, &val(*sc)).unwrap();
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
        let cache = DiskCache::with_mem_cap(&dir, 4096).unwrap(); // 256 B/shard
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
    fn flat_layout_entries_migrate_on_open() {
        let dir = tmp_dir("migrate");
        std::fs::create_dir_all(&dir).unwrap();
        // Write three entries in the pre-PR flat layout, byte-compatible
        // with what the old store produced.
        let mut keys = Vec::new();
        for s in 0..3 {
            let k = key(s);
            let value_json = serde_json::to_string(&val(s)).unwrap();
            std::fs::write(
                dir.join(format!("{}.json", k.digest)),
                format!("{{\"key\":{},\"value\":{}}}", k.key_json, value_json),
            )
            .unwrap();
            keys.push(k);
        }
        // A non-digest json file must be left where it is.
        std::fs::write(dir.join("README.json"), "{}").unwrap();

        let cache = DiskCache::with_mem_cap(&dir, 0).unwrap();
        for (s, k) in keys.iter().enumerate() {
            assert!(
                dir.join(&k.digest[..2]).join(format!("{}.json", k.digest)).is_file(),
                "entry {s} not migrated"
            );
            assert!(!dir.join(format!("{}.json", k.digest)).exists());
            assert!(matches!(cache.load(k), CacheLookup::Hit(v) if v == val(s as u32)));
        }
        assert!(dir.join("README.json").exists(), "foreign file must not be moved");
        // stats counts the migrated entries (README.json is also a .json
        // file at the root; it stays counted — harmless accounting).
        assert!(cache.stats().entries >= 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_mixed_load_store_is_never_torn_across_shards() {
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
