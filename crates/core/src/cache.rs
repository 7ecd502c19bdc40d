//! Two-tier content-addressed result cache: an in-memory tier owned by each
//! cache handle, layered over a prefix-sharded on-disk store.
//!
//! Every figure sweep, calibration pass, and serve request funnels through
//! here, and the dominant access pattern is *mostly-warm repetition*: the
//! same sweep points looked up again and again across figures, reruns, and
//! concurrent service clients. The memory tier answers those repeats with
//! one mutex acquisition and a key comparison — no filesystem read, no JSON
//! parse.
//!
//! ## Tiers
//!
//! * **Memory** — parsed [`Value`]s behind one `Mutex`, under a byte budget
//!   ([`DEFAULT_MEM_CAP`]; `0` keeps the cache on disk only). A value is
//!   admitted only while residency stays within the budget, so residency is
//!   bounded without evicting anything: once the tier is full, further
//!   values are served from disk. Every figure and ablation at both scales
//!   comes to about 0.5 MB of entries, far below the default budget. A
//!   lookup holds the lock for a map lookup and an `Arc` clone; the value
//!   is deep-copied after release.
//! * **Disk** — one JSON file per digest under a two-hex-prefix
//!   subdirectory (`<dir>/<d[0..2]>/<digest>.json`), so a full-scale sweep
//!   corpus never piles tens of thousands of files into one directory.
//!   Files at the cache root are neither read nor counted.
//!
//! ## Verification at both tiers
//!
//! An entry — memory or disk — stores the canonical JSON of the
//! [`JobKey`](crate::sweep::JobKey) it was recorded under, and a lookup
//! only hits when that matches the requesting key byte-for-byte. A disk
//! entry, `{"key":…,"value_digest":"…","value":…}`, also carries the digest
//! of its value's JSON, checked before the value is parsed. A digest
//! collision or a poisoned memory entry is a [`CacheLookup::KeyMismatch`];
//! a truncated or corrupted file, or one without a value digest, is a
//! [`CacheLookup::Miss`]. Either way the job is recomputed: a damaged entry
//! is never a wrong value. The requesting key is serialized into a
//! [`PreparedKey`] and threaded through load/store, instead of being
//! re-serialized at every verification site: once per job per run by
//! [`run_figure`](crate::sweep::run_figure), and once per figure per
//! process by a caller that keeps its keys across runs
//! ([`run_figure_prepared`](crate::sweep::run_figure_prepared)).
//!
//! Sharing: the memory tier belongs to the handle. A front end opens its
//! cache once and clones the handle, and a clone shares the directory and
//! the memory tier. A second open of the same directory shares only the
//! disk and starts with an empty memory tier, and dropping the last handle
//! frees its tier. The residency gauges `xtsim_cache_mem_bytes` and
//! `xtsim_cache_mem_entries` read the sum over every live tier.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use serde::{impl_serde_struct, Value};
use xtsim_machine::fingerprint::hex_digest;

/// Memory-tier byte budget of [`DiskCache::new`]: 64 MiB.
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
    /// Memory-tier byte budget (0 = disk only).
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
            mem_oversize: xtsim_obs::counter(
                "xtsim_cache_mem_oversize_total",
                "Values not admitted to the memory tier because it is at its byte budget.",
            ),
            mem_bytes: xtsim_obs::gauge(
                "xtsim_cache_mem_bytes",
                "Bytes resident in the memory tiers of all live cache handles \
                 (serialized-entry accounting).",
            ),
            mem_entries: xtsim_obs::gauge(
                "xtsim_cache_mem_entries",
                "Entries resident in the memory tiers of all live cache handles.",
            ),
        }
    })
}

// -------------------------------------------------------------- memory tier

struct MemEntry {
    key_json: String,
    value: Arc<Value>,
    bytes: u64,
}

/// The memory tier of one cache handle and its clones: parsed values under
/// a byte budget, behind one `Mutex`. Nothing is ever evicted; a value that
/// would take residency past the budget is not admitted. The residency
/// gauges sum over every live tier in the process: each tier adds what it
/// admits, subtracts what it removes, and takes its share out when dropped.
struct MemTier {
    /// Digest → entry. BTreeMap: point lookups only, deterministic walks.
    entries: BTreeMap<String, MemEntry>,
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

impl MemTier {
    fn remove(&mut self, digest: &str) {
        if let Some(e) = self.entries.remove(digest) {
            self.bytes -= e.bytes;
            let m = cache_metrics();
            m.mem_bytes.sub(e.bytes);
            m.mem_entries.sub(1);
        }
    }

    fn lookup(&mut self, key: &PreparedKey) -> MemLookup {
        let Some(e) = self.entries.get(&key.digest) else {
            return MemLookup::Miss;
        };
        if e.key_json != key.key_json {
            // Poisoned or colliding entry: it can never serve this key (and
            // by content-addressing it shouldn't exist at all) — drop it so
            // the recompute's store can land cleanly.
            self.remove(&key.digest);
            return MemLookup::KeyMismatch;
        }
        MemLookup::Hit(Arc::clone(&e.value))
    }

    fn insert(&mut self, key: &PreparedKey, value: Arc<Value>, bytes: u64) {
        if self.cap == 0 {
            return;
        }
        self.remove(&key.digest);
        let m = cache_metrics();
        if self.bytes + bytes > self.cap {
            m.mem_oversize.inc();
        } else {
            self.bytes += bytes;
            let entry = MemEntry { key_json: key.key_json.clone(), value, bytes };
            self.entries.insert(key.digest.clone(), entry);
            m.mem_bytes.add(bytes);
            m.mem_entries.add(1);
        }
    }
}

impl Drop for MemTier {
    fn drop(&mut self) {
        // An empty tier has nothing to take out: leave the metrics
        // unregistered, as a cache that was only opened never touched them.
        if !self.entries.is_empty() {
            let m = cache_metrics();
            m.mem_bytes.sub(self.bytes);
            m.mem_entries.sub(self.entries.len() as u64);
        }
    }
}

// ---------------------------------------------------------------- disk tier

/// Two-tier content-addressed job cache: a memory tier owned by this handle
/// over one JSON file per digest in two-hex-prefix subdirectories. A clone
/// is another handle on the same directory and memory tier.
#[derive(Clone)]
pub struct DiskCache {
    dir: PathBuf,
    mem: Arc<Mutex<MemTier>>,
}

impl DiskCache {
    /// Open (creating if needed) a cache rooted at `dir` with an empty
    /// memory tier of [`DEFAULT_MEM_CAP`] bytes. Temp files leaked by
    /// writers that died between write and rename are swept — see
    /// [`DiskCache::sweep_stale_tmp`].
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        DiskCache::with_mem_cap(dir, DEFAULT_MEM_CAP)
    }

    /// Open a cache whose memory tier holds at most `cap_bytes` (`0` keeps
    /// it on disk only).
    pub fn with_mem_cap(dir: impl Into<PathBuf>, cap_bytes: u64) -> std::io::Result<DiskCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mem = MemTier { entries: BTreeMap::new(), bytes: 0, cap: cap_bytes };
        let cache = DiskCache { dir, mem: Arc::new(Mutex::new(mem)) };
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
    /// (map lookup plus byte-exact key comparison), then disk (read, key
    /// and value-digest verification, parse, promoting the value into the
    /// memory tier on a hit). A digest collision, a foreign entry, or a
    /// poisoned memory entry is a [`CacheLookup::KeyMismatch`] — callers
    /// must recompute, exactly as for a plain miss.
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
        let Some(rest) = text.strip_prefix("{\"key\":").and_then(|t| t.strip_prefix(&*key.key_json))
        else {
            // A well-formed entry under another key is a digest collision;
            // anything else is a damaged file.
            let foreign = serde_json::from_str::<Value>(&text)
                .is_ok_and(|v| v.as_object().is_some_and(|o| o.contains_key("key")));
            return if foreign { CacheLookup::KeyMismatch } else { CacheLookup::Miss };
        };
        let Some(value) = verified_value(rest).and_then(|v| serde_json::from_str::<Value>(v).ok())
        else {
            return CacheLookup::Miss;
        };
        let value = Arc::new(value);
        self.lock_mem().insert(key, Arc::clone(&value), text.len() as u64);
        CacheLookup::Hit((*value).clone())
    }

    /// Store `value` (with its key and the digest of its JSON, for
    /// load-time verification) under `key.digest`, populating both tiers.
    /// The entry is assembled by splicing the already-serialized key next
    /// to the serialized value — no deep clone of the result just to wrap
    /// it in a map. Writes to a temp file unique to this process *and*
    /// store call, then renames, so concurrent writers — even across
    /// processes sharing the cache directory — never tear each other's
    /// entries.
    pub fn store(&self, key: &PreparedKey, value: &Value) -> std::io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let value_json = serde_json::to_string(value).expect("value serializes");
        let text = format!(
            "{{\"key\":{},\"value_digest\":\"{}\",\"value\":{}}}",
            key.key_json,
            hex_digest(&value_json),
            value_json
        );
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
        // The memory tier keeps its own parsed copy (this clone *is* the
        // cached value, not serialization scaffolding).
        self.lock_mem().insert(key, Arc::new(value.clone()), bytes);
        Ok(())
    }

    fn lock_mem(&self) -> std::sync::MutexGuard<'_, MemTier> {
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

/// The value JSON of an entry whose `{"key":<key>` prefix has been
/// checked, provided the rest is laid out as [`DiskCache::store`] writes it
/// and the value still matches its digest. An entry without a digest or
/// with a damaged value is `None`.
fn verified_value(rest: &str) -> Option<&str> {
    let (digest, value) = rest.strip_prefix(",\"value_digest\":\"")?.split_once("\",\"value\":")?;
    let value = value.strip_suffix('}')?;
    (hex_digest(value) == digest).then_some(value)
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

        // A clone shares the directory and the memory tier.
        let clone = cache.clone();
        assert_eq!(clone.dir(), cache.dir());
        clone.store(&key(2), &val(2)).unwrap();
        assert_eq!(cache.stats().mem_entries, 2);
        std::fs::write(cache.path_for(&key(2).digest), "{ torn").unwrap();
        assert!(matches!(cache.load(&key(2)), CacheLookup::Hit(v) if v == val(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_handle_owns_its_memory_tier() {
        let dir = tmp_dir("owner");
        let cache = DiskCache::new(&dir).unwrap();
        let k = key(1);
        cache.store(&k, &val(1)).unwrap();
        let clone = cache.clone();
        assert_eq!(clone.stats().mem_entries, 1);
        // A second open of the same directory shares the disk, not the tier.
        let again = DiskCache::new(&dir).unwrap();
        assert_eq!(again.stats().mem_entries, 0);
        assert!(matches!(again.load(&k), CacheLookup::Hit(v) if v == val(1)));
        assert_eq!((again.stats().mem_entries, cache.stats().mem_entries), (1, 1));
        // Dropping every clone frees the tier and the values in it.
        let tier = Arc::downgrade(&cache.mem);
        drop(cache);
        assert!(tier.upgrade().is_some(), "a live clone keeps the tier");
        drop(clone);
        assert!(tier.upgrade().is_none(), "the tier outlived its last handle");
        assert_eq!(DiskCache::new(&dir).unwrap().stats().mem_entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_hit_promotes_into_memory_tier() {
        let dir = tmp_dir("promote");
        // Store through a disk-only handle, then load through one with a
        // memory tier: the first load comes from disk and promotes, the
        // second from memory.
        let cold = DiskCache::with_mem_cap(&dir, 0).unwrap();
        let k = key(7);
        cold.store(&k, &val(7)).unwrap();
        assert_eq!(cold.stats().mem_entries, 0, "cap 0 admits nothing");

        let warm = DiskCache::new(&dir).unwrap();
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

    /// Every truncation and seeded single-byte substitutions of a stored
    /// entry load as a miss, a key mismatch or the exact stored value:
    /// never another value, never a panic.
    #[test]
    fn damaged_entries_never_load_another_value() {
        let dir = tmp_dir("damage");
        let cache = DiskCache::with_mem_cap(&dir, 0).unwrap();
        let k = key(4);
        let mut m = BTreeMap::new();
        m.insert("pp_min_us".to_string(), Value::Float(3.8540020000000004));
        m.insert("bw".to_string(), Value::Array(vec![Value::Float(0.5), Value::Float(1.25)]));
        m.insert("label".to_string(), Value::Str("XT4-SN".into()));
        m.insert("n".to_string(), Value::Int(12));
        let stored = Value::Object(m);
        cache.store(&k, &stored).unwrap();
        let path = cache.path_for(&k.digest);
        let entry = std::fs::read(&path).unwrap();
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            cache.load(&k)
        };
        for n in 0..entry.len() {
            if let CacheLookup::Hit(v) = load(&entry[..n]) {
                assert_eq!(v, stored, "truncation to {n} bytes served another value");
            }
        }
        let alphabet = b"0123456789.-+eE,:\"{}[] aflnrstu";
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..600 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let i = (rng % entry.len() as u64) as usize;
            let b = alphabet[(rng >> 40) as usize % alphabet.len()];
            let mut bytes = entry.clone();
            bytes[i] = b;
            if let CacheLookup::Hit(v) = load(&bytes) {
                assert_eq!(v, stored, "byte {i} set to {:?} served another value", b as char);
            }
        }
        assert!(matches!(load(&entry), CacheLookup::Hit(v) if v == stored));
        // The previous layout, without a value digest, is a miss.
        let value_json = serde_json::to_string(&stored).unwrap();
        let old = format!("{{\"key\":{},\"value\":{value_json}}}", k.key_json);
        assert!(matches!(load(old.as_bytes()), CacheLookup::Miss));
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
    fn a_full_tier_admits_nothing_more() {
        let dir = tmp_dir("full");
        let cache = DiskCache::new(&dir).unwrap();
        let keys = [key(0), key(1), key(2)];
        for (k, s) in keys.iter().zip(0..) {
            cache.store(k, &val(s)).unwrap();
        }
        // Room for the first two entries plus slack smaller than one entry.
        let cap = cache.stats().mem_bytes * 2 / 3 + 16;
        let cache = DiskCache::with_mem_cap(&dir, cap).unwrap();
        let [ka, kb, kc] = &keys;
        for k in [ka, kb, kc, ka] {
            assert!(matches!(cache.load(k), CacheLookup::Hit(_)));
        }
        let stats = cache.stats();
        assert_eq!(stats.mem_entries, 2);
        assert!(stats.mem_bytes <= cap, "residency {} exceeds cap {cap}", stats.mem_bytes);
        // A and B stay resident (they hit with their files torn); C was
        // never admitted, so it is read from disk every time.
        for k in [ka, kb, kc] {
            std::fs::write(cache.path_for(&k.digest), "{ torn").unwrap();
        }
        assert!(matches!(cache.load(ka), CacheLookup::Hit(v) if v == val(0)));
        assert!(matches!(cache.load(kb), CacheLookup::Hit(v) if v == val(1)));
        assert!(matches!(cache.load(kc), CacheLookup::Miss));
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
        // Small cap: the tier fills early and later values stay on disk.
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
