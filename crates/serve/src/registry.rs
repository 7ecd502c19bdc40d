//! Append-only run registry: one JSONL line per completed figure run.
//!
//! The registry is the service's durable memory — restart it and the
//! dashboard's history is still there. Records are self-describing
//! (`schema: "xtsim-registry-v1"`) and carry everything needed to
//! reproduce or audit the run: engine version, canonical request params,
//! outcome, queue timing, and the run's per-figure [`FigureMetrics`]
//! record. Appends are a single `write` of one line, so concurrent
//! writers (or a crash mid-append) can at worst tear the final line —
//! which [`Registry::replay`] tolerates by skipping it, counted.

use std::io::Write;
use std::path::{Path, PathBuf};

use serde::Value;
use xtsim::sweep::FigureMetrics;

use crate::queue::{RunRequest, RunStatus};

/// Schema tag stamped into every record.
pub const REGISTRY_SCHEMA: &str = "xtsim-registry-v1";

/// Replay outcome: the parsed records plus how many lines were skipped as
/// corrupt (torn final line from a crashed writer, manual edits, ...).
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Records in append order.
    pub records: Vec<Value>,
    /// Unparsable lines skipped.
    pub skipped: u64,
}

/// Append-only JSONL registry rooted at a directory (`<dir>/runs.jsonl`).
pub struct Registry {
    path: PathBuf,
}

impl Registry {
    /// Open (creating if needed) the registry under `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Registry> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Registry { path: dir.join("runs.jsonl") })
    }

    /// The conventional registry location used by `xtsim-serve`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results/registry")
    }

    /// Path of the JSONL file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record as a single JSONL line.
    pub fn append(&self, record: &Value) -> std::io::Result<()> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::other(format!("record serializes: {e:?}")))?;
        line.push('\n');
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        // One write call for line + newline keeps concurrent appends whole.
        f.write_all(line.as_bytes())
    }

    /// Read every record back, skipping (and counting) corrupt lines. A
    /// missing file is an empty registry, not an error.
    pub fn replay(&self) -> Replay {
        let mut out = Replay::default();
        let Ok(bytes) = std::fs::read(&self.path) else {
            return out;
        };
        // Split bytes, not text: an invalid UTF-8 byte (a write torn inside
        // a multi-byte character) must cost only its own line.
        for raw in bytes.split(|&b| b == b'\n') {
            let Ok(line) = std::str::from_utf8(raw) else {
                out.skipped += 1;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<Value>(line) {
                Ok(v) => out.records.push(v),
                Err(_) => out.skipped += 1,
            }
        }
        out
    }
}

/// Build the registry record for a finished run. `outcome` is the run's
/// record, or its error text when it failed. `wait_secs` is the time it sat
/// queued and `exec_secs` the time the executor spent on it.
/// `finished_unix` is seconds since the Unix epoch, captured by the caller
/// (the service's clock is the only wall clock in the stack; simulated
/// results never depend on it).
pub fn make_record(
    id: u64,
    request: &RunRequest,
    outcome: Result<&FigureMetrics, &str>,
    wait_secs: f64,
    exec_secs: f64,
    finished_unix: f64,
) -> Value {
    let mut m = std::collections::BTreeMap::new();
    m.insert("schema".into(), REGISTRY_SCHEMA.into());
    m.insert("run_id".into(), id.into());
    m.insert("engine_version".into(), xtsim::sweep::ENGINE_VERSION.into());
    m.insert("figure".into(), request.figure.as_str().into());
    m.insert("scale".into(), request.scale.label().into());
    // Canonical params: everything that shaped the run, in one object.
    let mut params = std::collections::BTreeMap::new();
    params.insert("figure".into(), request.figure.as_str().into());
    params.insert("scale".into(), request.scale.label().into());
    params.insert("jobs".into(), request.jobs.into());
    m.insert("params".into(), Value::Object(params));
    // Queue timing (absent on records from before these fields existed;
    // replay consumers must treat them as optional).
    m.insert("wait_secs".into(), wait_secs.into());
    m.insert("exec_secs".into(), exec_secs.into());
    match outcome {
        Ok(fm) => {
            m.insert("outcome".into(), RunStatus::Done.label().into());
            m.insert("wall_secs".into(), fm.wall_secs.into());
            m.insert("computed".into(), fm.computed.into());
            m.insert("cached".into(), fm.cached.into());
            m.insert("key_mismatches".into(), fm.key_mismatches.into());
            m.insert("metrics".into(), serde_json::to_value(fm).expect("FigureMetrics serializes"));
        }
        Err(e) => {
            m.insert("outcome".into(), RunStatus::Failed.label().into());
            m.insert("error".into(), e.into());
        }
    }
    m.insert("finished_unix".into(), finished_unix.into());
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtsim::report::Scale;

    fn request(figure: &str) -> RunRequest {
        RunRequest { figure: figure.into(), scale: Scale::Quick, jobs: 2 }
    }

    fn record(id: u64, figure: &str, wall: f64) -> Value {
        let fm = FigureMetrics {
            figure: figure.into(),
            total_jobs: 4,
            computed: 3,
            cached: 1,
            wall_secs: wall,
            ..FigureMetrics::default()
        };
        make_record(id, &request(figure), Ok(&fm), 0.25, wall, 1754000000.0 + id as f64)
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object().unwrap().keys().map(String::as_str).collect()
    }

    /// Each line keeps the keys it has always carried: the outcome's own
    /// fields, and the run's record under `metrics`.
    #[test]
    fn record_keys_by_outcome() {
        let done = record(1, "fig02", 1.5);
        assert_eq!(
            keys(&done),
            [
                "cached",
                "computed",
                "engine_version",
                "exec_secs",
                "figure",
                "finished_unix",
                "key_mismatches",
                "metrics",
                "outcome",
                "params",
                "run_id",
                "scale",
                "schema",
                "wait_secs",
                "wall_secs",
            ]
        );
        let metrics = done.as_object().unwrap().get("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().get("total_jobs"), Some(&Value::Int(4)));
        let failed = make_record(2, &request("fig02"), Err("boom"), 0.0, 0.1, 1754000000.0);
        assert_eq!(
            keys(&failed),
            [
                "engine_version",
                "error",
                "exec_secs",
                "figure",
                "finished_unix",
                "outcome",
                "params",
                "run_id",
                "scale",
                "schema",
                "wait_secs",
            ]
        );
        assert_eq!(failed.as_object().unwrap().get("outcome").unwrap().as_str(), Some("failed"));
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = std::env::temp_dir().join(format!("xtsim-registry-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::open(&dir).unwrap();
        assert!(reg.replay().records.is_empty(), "fresh registry must be empty");
        let recs: Vec<Value> = (1..=3).map(|i| record(i, "fig02", 0.5 * i as f64)).collect();
        for r in &recs {
            reg.append(r).unwrap();
        }
        // A reopened registry replays byte-equal records in append order.
        let replay = Registry::open(&dir).unwrap().replay();
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.records, recs);
        let first = replay.records[0].as_object().unwrap();
        assert_eq!(first.get("schema").unwrap().as_str(), Some(REGISTRY_SCHEMA));
        assert_eq!(first.get("outcome").unwrap().as_str(), Some("done"));
        assert_eq!(
            first.get("params").unwrap().as_object().unwrap().get("jobs"),
            Some(&Value::Int(2))
        );
        assert_eq!(first.get("wait_secs").unwrap().as_f64(), Some(0.25));
        assert_eq!(first.get("exec_secs").unwrap().as_f64(), Some(0.5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_tolerates_records_without_queue_timing() {
        // Records appended by versions that predate wait_secs/exec_secs
        // simply lack the keys; replay must hand them back unchanged.
        let dir =
            std::env::temp_dir().join(format!("xtsim-registry-old-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::open(&dir).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(reg.path())
            .unwrap();
        f.write_all(
            b"{\"schema\":\"xtsim-registry-v1\",\"run_id\":7,\"figure\":\"fig02\",\
              \"outcome\":\"done\",\"wall_secs\":1.5,\"finished_unix\":1754000000.0}\n",
        )
        .unwrap();
        drop(f);
        let replay = reg.replay();
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.records.len(), 1);
        let rec = replay.records[0].as_object().unwrap();
        assert!(rec.get("wait_secs").is_none());
        assert!(rec.get("exec_secs").is_none());
        assert_eq!(rec.get("run_id").unwrap().as_i64(), Some(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_torn_final_line() {
        let dir = std::env::temp_dir().join(format!("xtsim-registry-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::open(&dir).unwrap();
        reg.append(&record(1, "fig02", 1.0)).unwrap();
        // Simulate a writer that died mid-append.
        let mut f = std::fs::OpenOptions::new().append(true).open(reg.path()).unwrap();
        f.write_all(b"{\"schema\":\"xtsim-regist").unwrap();
        drop(f);
        let replay = reg.replay();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_too_deeply_nested_lines() {
        let dir = std::env::temp_dir().join(format!("xtsim-registry-deep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::open(&dir).unwrap();
        reg.append(&record(1, "fig02", 1.0)).unwrap();
        let mut f = std::fs::OpenOptions::new().append(true).open(reg.path()).unwrap();
        let deep = "[".repeat(20_000) + &"]".repeat(20_000) + "\n";
        f.write_all(deep.as_bytes()).unwrap();
        drop(f);
        reg.append(&record(2, "fig12", 2.0)).unwrap();
        let replay = reg.replay();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_invalid_utf8_lines_only() {
        let dir = std::env::temp_dir().join(format!("xtsim-registry-utf8-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::open(&dir).unwrap();
        reg.append(&record(1, "fig02", 1.0)).unwrap();
        let mut f = std::fs::OpenOptions::new().append(true).open(reg.path()).unwrap();
        f.write_all(b"\xff\xfe\n").unwrap();
        drop(f);
        reg.append(&record(2, "fig12", 2.0)).unwrap();
        // A record torn inside the two-byte UTF-8 encoding of `é`.
        let mut f = std::fs::OpenOptions::new().append(true).open(reg.path()).unwrap();
        f.write_all(b"{\"figure\":\"caf\xc3").unwrap();
        drop(f);
        let replay = reg.replay();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.skipped, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
