//! `POST /runs` answers every body with 202, 400, 404 or 429 and never
//! panics. The bodies are a valid request truncated at every byte, wrong
//! field types, out-of-range `jobs`, unknown figure ids, non-UTF-8 bytes,
//! 200-deep nesting and a few hundred seeded byte mutations of a valid
//! request, all driven through `server::handle` on a stub executor.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use xtsim_serve::http::Request;
use xtsim_serve::queue::{executor, RunOutput, RunRequest, Scheduler};
use xtsim_serve::server::{handle, AppState};

const VALID: &str = r#"{"figure": "fig02", "scale": "quick", "jobs": 2}"#;

fn stub_state() -> AppState {
    let exec = executor(|_id, req: &RunRequest, _wait: f64| {
        Ok(RunOutput {
            result_json: req.figure.as_str().into(),
            wall_secs: 0.0,
            computed: 0,
            cached: 0,
        })
    });
    AppState {
        scheduler: Scheduler::new(4, 1, exec),
        registry: None,
        cache: None,
        bench_root: PathBuf::from("."),
        default_jobs: 1,
        started: Instant::now(),
    }
}

fn request(method: &str, path: &str, body: &[u8]) -> Request {
    Request { method: method.into(), path: path.into(), query: String::new(), body: body.to_vec() }
}

fn post(state: &AppState, body: &[u8]) -> u16 {
    handle(&request("POST", "/runs", body), state).status
}

/// A `{"figure": "fig02", <field>}` body.
fn with_field(field: &str) -> Vec<u8> {
    format!(r#"{{"figure": "fig02", {field}}}"#).into_bytes()
}

/// xorshift64*: a seeded, dependency-free source of mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `VALID` with one to four bytes overwritten, inserted or deleted.
fn mutated(rng: &mut Rng) -> Vec<u8> {
    let mut b = VALID.as_bytes().to_vec();
    for _ in 0..=rng.below(4) {
        let i = rng.below(b.len());
        match rng.below(3) {
            0 => b[i] = rng.next() as u8,
            1 => b.insert(i, rng.next() as u8),
            _ => {
                b.remove(i);
            }
        }
    }
    b
}

/// Bodies that must get exactly `status`.
fn pinned() -> Vec<(Vec<u8>, u16)> {
    let mut out = Vec::new();
    for field in [
        r#""jobs": 0"#,
        r#""jobs": -1"#,
        r#""jobs": 1e30"#,
        r#""jobs": "2""#,
        r#""jobs": 1.5"#,
        r#""jobs": [2]"#,
        r#""scale": 1"#,
        r#""scale": "huge""#,
    ] {
        out.push((with_field(field), 400));
    }
    for body in [
        r#"{"figure": 2}"#,
        r#"{"figure": ["fig02"]}"#,
        r#"{"figure": {"id": "fig02"}}"#,
        r#"{"figure": null}"#,
        r#"{"scale": "quick"}"#,
        r#"["fig02"]"#,
        "\"fig02\"",
    ] {
        out.push((body.as_bytes().to_vec(), 400));
    }
    for id in ["figZZ", "", "FIG02", "fig02 ", "../fig02", "abl-", "caf\u{e9}"] {
        out.push((format!(r#"{{"figure": "{id}"}}"#).into_bytes(), 404));
    }
    // Non-UTF-8: stray bytes, and a valid request with one spliced in.
    out.push((b"\xff\xfe".to_vec(), 400));
    let mut spliced = VALID.as_bytes().to_vec();
    spliced.insert(14, 0xc3);
    out.push((spliced, 400));
    // 200-deep nesting is past the parser's 128-level cap.
    out.push((("[".repeat(200) + &"]".repeat(200)).into_bytes(), 400));
    out.push((with_field(&format!(r#""jobs": {}2{}"#, "[".repeat(200), "]".repeat(200))), 400));
    out.push((
        with_field(&format!(r#""x": {}1{}"#, r#"{"a": "#.repeat(200), "}".repeat(200))),
        400,
    ));
    out
}

#[test]
fn post_runs_answers_every_body_without_panicking() {
    let state = stub_state();
    let mut bodies: Vec<Vec<u8>> =
        (0..=VALID.len()).map(|n| VALID.as_bytes()[..n].to_vec()).collect();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    bodies.extend((0..300).map(|_| mutated(&mut rng)));
    let mut seen = BTreeSet::new();
    for body in &bodies {
        let status = post(&state, body);
        assert!(
            matches!(status, 202 | 400 | 404 | 429),
            "status {status} for body {:?}",
            String::from_utf8_lossy(body)
        );
        seen.insert(status);
    }
    // The mutations reach both the parser's rejections and admission.
    assert!(seen.contains(&400) && seen.contains(&202), "statuses seen: {seen:?}");
    for (body, want) in pinned() {
        assert_eq!(post(&state, &body), want, "body {:?}", String::from_utf8_lossy(&body));
    }
    // Only the untruncated request is whole; every proper prefix is a 400.
    for n in 0..VALID.len() {
        assert_eq!(post(&state, &VALID.as_bytes()[..n]), 400, "prefix of {n} bytes");
    }
    assert_eq!(handle(&request("GET", "/stats", b""), &state).status, 200);
    state.scheduler.shutdown();
}
