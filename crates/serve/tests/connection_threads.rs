//! `serve` answers on reused connection threads: sequential requests start
//! only a few threads, clients that connect and send nothing block no one,
//! and the pool still answers after they hang up. Runs a real listener over
//! a stub executor. `xtsim_http_threads_started_total` is process-wide, so
//! this binary holds only this test.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xtsim_serve::queue::{executor, RunOutput, RunRequest, Scheduler};
use xtsim_serve::server::{serve, AppState};

fn threads_started() -> u64 {
    xtsim_obs::snapshot().counter_sum("xtsim_http_threads_started_total", &[])
}

/// Serve a stub-executor state on an ephemeral port; returns the port.
fn start_server() -> u16 {
    let exec = executor(|_id, req: &RunRequest, _wait: f64| {
        Ok(RunOutput {
            result_json: req.figure.as_str().into(),
            wall_secs: 0.0,
            computed: 0,
            cached: 0,
        })
    });
    let state = Arc::new(AppState {
        scheduler: Scheduler::new(4, 1, exec),
        registry: None,
        cache: None,
        bench_root: PathBuf::from("."),
        default_jobs: 1,
        started: Instant::now(),
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || serve(listener, state));
    port
}

/// `GET /stats` on a fresh connection; returns the status code.
fn get_stats(port: u16) -> u16 {
    let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /stats HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let head = String::from_utf8_lossy(&raw);
    head.split_whitespace().nth(1).and_then(|c| c.parse().ok()).expect("a status line")
}

#[test]
fn threads_are_reused_and_stalled_clients_block_no_one() {
    let port = start_server();
    for _ in 0..200 {
        assert_eq!(get_stats(port), 200);
    }
    let reused = threads_started();
    assert!(reused <= 4, "{reused} threads started for 200 sequential requests");

    // Forty clients connect and send nothing. Each holds the thread that
    // accepted it, so the pool grows until 40 threads wait on them and at
    // least one more waits in `accept`.
    let stalled: Vec<TcpStream> =
        (0..40).map(|_| TcpStream::connect(("127.0.0.1", port)).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    while threads_started() < 41 {
        assert!(Instant::now() < deadline, "only {} threads started", threads_started());
        std::thread::sleep(Duration::from_millis(5));
    }
    let asked = Instant::now();
    assert_eq!(get_stats(port), 200);
    let waited = asked.elapsed();
    assert!(waited < Duration::from_secs(2), "GET /stats took {waited:?} beside 40 stalled ones");

    drop(stalled);
    assert_eq!(get_stats(port), 200, "serve stopped answering after the stalled clients left");
}
