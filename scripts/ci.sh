#!/usr/bin/env bash
# CI gate: lockfile freshness, lint, build, the repository benchmark's
# smoke run, full test suite (includes the golden-figure regression
# harness, the sweep-engine determinism/cache tests, the two-tier cache
# interleaving property tests, the observability trace/metrics consistency
# tests, and the cache-key and JSON-string property tests), then a
# cache-disabled quick-scale smoke run of the figures binary itself, a
# rerun over a damaged cache that must match an uncached run, a
# trace/metrics export smoke, a dispatch-order check (largest cost hint
# first) that also checks a --metrics run without --trace captures no
# spans, CLI validation checks (bad tokens, missing values, uncreatable
# output paths), a serve smoke with a parallel-clients phase over the
# shared memory tier and a too-deeply-nested body probe, and the bench gate
# (including the >=2x memory-vs-disk cache acceptance check, the same-
# instant flow-lane bench that guards the executor's indexed lanes, the
# spawn/join bench that guards its task storage, and the lock-step fluid
# bench that guards the fluid pool's once-per-instant advance).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lockfiles up to date =="
# A manifest edit whose Cargo.lock update was not committed must fail here,
# not be rewritten silently by the runner's cargo. The second call only
# reads benchmark/.
cargo metadata --locked --offline --format-version 1 >/dev/null
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== xtsim-lint (determinism & DES-safety, deny warnings, time budget) =="
out="$(mktemp -d)"
cargo build --release -p xtsim-lint
# Wall-time budget: the structural pass (item parse + call graph + four
# interprocedural rules) must stay interactive. 10s is ~20x the observed
# cost on this container — the gate catches accidental quadratic blowups,
# not load jitter.
lint_start_ns="$(date +%s%N)"
target/release/xtsim-lint \
    --workspace --deny warnings --json "$out/lint.json" \
    --call-graph "$out/callgraph.json"
lint_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
echo "lint wall time: ${lint_ms} ms"
if [ "$lint_ms" -gt 10000 ]; then
    echo "xtsim-lint exceeded its 10s wall-time budget (${lint_ms} ms)"; exit 1
fi
# The machine outputs must keep the documented shapes and agree with the
# committed baseline: no errors, no un-baselined warnings, no stale
# entries; interprocedural findings carry witness chains; the call-graph
# artifact is internally consistent.
python3 - "$out/lint.json" "$out/callgraph.json" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
assert rec["schema"] == "xtsim-lint-v2", f"bad schema: {rec.get('schema')}"
assert rec["files_scanned"] > 50, "scanned suspiciously few files"
s = rec["summary"]
assert s["errors"] == 0, f"lint errors: {s['errors']}"
assert s["warnings"] == 0, f"un-baselined lint warnings: {s['warnings']}"
assert s["stale_baseline"] == 0, f"stale baseline entries: {s['stale_baseline']}"
interproc = {"transitive-taint", "lock-order-cycle", "panic-propagation", "blocking-in-poll"}
for f in rec["findings"]:
    assert {"file", "line", "col", "rule", "severity", "chain"} <= f.keys(), f"finding missing keys: {f}"
    if f["rule"] in interproc:
        assert f["chain"], f"interprocedural finding without a witness chain: {f}"
    for hop in f["chain"]:
        assert {"function", "file", "line"} <= hop.keys(), f"bad chain hop: {hop}"
assert isinstance(rec["unsafe_inventory"], dict)
assert set(rec["unsafe_inventory"]) == {"crates/des"}, (
    f"unsafe crept into a new crate: {sorted(rec['unsafe_inventory'])}"
)

g = json.load(open(sys.argv[2]))
assert g["schema"] == "xtsim-callgraph-v1", f"bad callgraph schema: {g.get('schema')}"
st = g["stats"]
assert st["functions"] == len(g["functions"]) > 100, st
assert st["unresolved"] == len(g["unresolved"]), st
assert st["edges"] == sum(len(f["calls"]) for f in g["functions"]), st
assert st["edges"] > 50, "call graph resolved suspiciously few edges"
ids = {f["id"] for f in g["functions"]}
for f in g["functions"]:
    assert {"id", "function", "module", "file", "line", "calls"} <= f.keys(), f
    for c in f["calls"]:
        assert c["to"] in ids, f"dangling edge {f['function']} -> {c['to']}"
for u in g["unresolved"]:
    assert {"from", "name", "line", "reason"} <= u.keys(), u
EOF
# The v2 reader must keep accepting v1 baselines end-to-end: run against a
# committed v1 sample whose two entries match nothing, so both must come
# back stale (proving they were parsed), without --deny so stale entries
# don't fail this probe run.
target/release/xtsim-lint --workspace \
    --baseline crates/lint/tests/data/baseline-v1-sample.json \
    --json "$out/lint-v1.json" >/dev/null
python3 - "$out/lint-v1.json" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
s = rec["summary"]
assert s["stale_baseline"] == 2, f"v1 sample: expected both entries stale, got {s['stale_baseline']}"
EOF
# A baseline nested deeper than the JSON reader's cap (200,000 `[`) must be
# a usage error, exit 2 naming the depth, not a stack-overflow abort.
python3 -c 'print("[" * 200000, end="")' > "$out/deep-baseline.json"
rc=0
err="$(target/release/xtsim-lint --workspace --baseline "$out/deep-baseline.json" 2>&1 >/dev/null)" || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "deep baseline: expected exit 2, got $rc"; echo "$err"; exit 1
fi
case "$err" in
    *"nesting deeper than 128"*) ;;
    *) echo "deep baseline: error does not name the nesting depth:"; echo "$err"; exit 1;;
esac
rm -rf "$out"

echo "== build (release) =="
cargo build --workspace --release

echo "== repository benchmark smoke (quick outputs vs pins, result lines) =="
# Every benchmark workload at quick scale, seeds 0, 1 and 2: outputs must
# match benchmark/expected/ and each result line must carry every metric
# BENCHMARK.json declares.
bash benchmark/run.sh --smoke

echo "== tests =="
# Root-package tests carry the golden gate; --workspace adds every crate's
# unit/integration tests (sweep engine, cache keys, simulator layers, the
# offline compat shims).
cargo test --workspace -q

echo "== figures smoke (quick scale, cache off) =="
out="$(mktemp -d)"
cargo run --release -p xtsim-bench --bin figures -- \
    --all --quick --no-cache --jobs 4 --out "$out" >/dev/null
for id in table1 fig01 fig12 fig23; do
    test -s "$out/$id.json" || { echo "missing $id.json"; exit 1; }
done
rm -rf "$out"

echo "== damaged cache (truncated entries, a leftover at the cache root) =="
# A truncated entry is a miss and is recomputed; a file at the cache root
# (the retired flat layout) is never read. The rerun must exit 0 and write
# the bytes of an uncached run.
out="$(mktemp -d)"
target/release/figures --quick --only fig02 --jobs 2 \
    --cache-dir "$out/cache" --out "$out/cold" >/dev/null
python3 - "$out/cache" <<'EOF'
import glob, os, sys
cache = sys.argv[1]
entries = glob.glob(f"{cache}/??/*.json")
assert entries, "fig02 left no cache entries"
for path in entries:
    os.truncate(path, os.path.getsize(path) // 2)
# Garbage under a real entry's <32-hex>.json name, at the root.
open(os.path.join(cache, os.path.basename(entries[0])), "w").write("{ garbage")
EOF
target/release/figures --quick --only fig02 --jobs 2 \
    --cache-dir "$out/cache" --out "$out/damaged" >/dev/null
target/release/figures --quick --only fig02 --jobs 2 --no-cache --out "$out/ref" >/dev/null
diff -r "$out/ref" "$out/damaged" || { echo "damaged-cache rerun differs from --no-cache"; exit 1; }
rm -rf "$out"

echo "== trace/metrics export smoke =="
out="$(mktemp -d)"
cargo run --release -p xtsim-bench --bin figures -- \
    --quick --no-cache --only fig02 --jobs 2 --out "$out" \
    --trace "$out/traces" --metrics "$out/metrics.json" >/dev/null
test -s "$out/metrics.json" || { echo "missing metrics.json"; exit 1; }
ls "$out"/traces/*.trace.json >/dev/null || { echo "no trace files"; exit 1; }
# Every exported artifact must be well-formed JSON with the expected shape.
python3 - "$out" <<'EOF'
import glob, json, sys
out = sys.argv[1]
metrics = json.load(open(f"{out}/metrics.json"))
assert metrics["figures"], "metrics record lists no figures"
fig = metrics["figures"][0]
assert fig["computed"] == len(fig["trace_files"]), "one trace per computed job"
assert fig["sim_total_secs"] > 0, "no simulated time attributed"
# Per-job schedule: every computed job was timed from the figure's start.
for job in fig["jobs"]:
    if not job["cached"]:
        assert job["wall_secs"] > 0, f"job {job['index']}: no wall time: {job}"
        assert job["start_secs"] >= 0, f"job {job['index']}: bad start: {job}"
for path in glob.glob(f"{out}/traces/*.trace.json"):
    trace = json.load(open(path))
    assert trace["traceEvents"], f"{path}: empty traceEvents"
    assert all(ev["ph"] == "X" for ev in trace["traceEvents"])
EOF
rm -rf "$out"

echo "== dispatch order (cache misses start largest cost hint first) =="
# fig18 lists each POP ladder in ascending task count; with one worker the
# start offsets in the metrics record give the dispatch order directly,
# whatever the machine's speed. Without --trace the record carries no
# spans: only --trace turns span capture on.
out="$(mktemp -d)"
cargo run --release -p xtsim-bench --bin figures -- \
    --quick --only fig18 --no-cache --jobs 1 --out "$out" \
    --metrics "$out/metrics.json" >/dev/null
python3 - "$out/metrics.json" <<'EOF'
import json, sys
fig = json.load(open(sys.argv[1]))["figures"][0]
jobs = sorted((j for j in fig["jobs"] if not j["cached"]), key=lambda j: j["start_secs"])
costs = [j["cost"] for j in jobs]
assert len(costs) == fig["computed"] > 1, fig
assert all(a >= b for a, b in zip(costs, costs[1:])), f"fig18 dispatched out of cost order: {costs}"
assert fig["spans"] == 0, f"--metrics without --trace captured {fig['spans']} spans"
assert fig["trace_files"] == [], f"--metrics without --trace wrote traces: {fig['trace_files']}"
assert all(j["trace"] is None for j in fig["jobs"]), "a job carries a trace summary without --trace"
EOF
rm -rf "$out"

echo "== figures --only validation (unknown ids must fail, exit 2) =="
if cargo run --release -p xtsim-bench --bin figures -- \
    --quick --no-cache --only figZZ --out "$(mktemp -d)" >/dev/null 2>&1; then
    echo "figures --only figZZ must exit nonzero"; exit 1
fi

echo "== CLI validation (bad tokens and missing values exit 2 and name them) =="
# Both binaries share xtsim::cli parsing: an unparsable count or byte size
# must exit 2 and quote the offending token, never panic or silently
# default. A flag given without its value must exit 2 and name the flag.
check_bad_token() {
    local desc="$1"; shift
    local token="$1"; shift
    local rc=0 err
    err="$("$@" 2>&1 >/dev/null)" || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "$desc: expected exit 2, got $rc"; echo "$err"; exit 1
    fi
    case "$err" in
        *"$token"*) ;;
        *) echo "$desc: stderr does not name the token $token:"; echo "$err"; exit 1;;
    esac
}
cargo build --release -p xtsim-serve -p xtsim-bench
check_bad_token "figures --jobs abc" "abc" \
    target/release/figures --quick --no-cache --jobs abc --out "$(mktemp -d)"
check_bad_token "figures --cache-mem-cap 12parsecs" "12parsecs" \
    target/release/figures --quick --cache-mem-cap 12parsecs --out "$(mktemp -d)"
check_bad_token "figures --out (no value)" "--out" \
    target/release/figures --quick --no-cache --out
# An output location below a regular file cannot be created (ENOTDIR, even
# as root): exit 2 naming the flag before any figure runs, not a panic.
f="$(mktemp)"
check_bad_token "figures --out below a file" "--out" \
    target/release/figures --quick --no-cache --only table1 --out "$f/sub"
check_bad_token "figures --metrics below a file" "--metrics" \
    target/release/figures --quick --no-cache --only table1 --out "$(mktemp -d)" \
    --metrics "$f/sub/m.json"
rm -f "$f"
check_bad_token "xtsim-serve --jobs abc" "abc" \
    target/release/xtsim-serve --port 0 --jobs abc
check_bad_token "xtsim-serve --cache-mem-cap 12parsecs" "12parsecs" \
    target/release/xtsim-serve --port 0 --cache-mem-cap 12parsecs

echo "== xtsim-serve smoke (submit, poll, byte-diff vs CLI, stats, /metrics) =="
out="$(mktemp -d)"
# CLI artifact first (its own cache), then the service computes the same
# figure cold in a separate cache and again warm — all three byte-identical.
cargo run --release -p xtsim-bench --bin figures -- \
    --quick --only fig02 --jobs 2 --cache-dir "$out/cli-cache" --out "$out/cli" >/dev/null
cargo build --release -p xtsim-serve
target/release/xtsim-serve --port 0 --cache-dir "$out/serve-cache" \
    --cache-mem-cap 64m \
    --registry-dir "$out/registry" --max-concurrent 1 --jobs 2 \
    --bench-root . --events "$out/events.jsonl" >"$out/serve.log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$out/serve.log")"
    [ -n "$port" ] && break
    sleep 0.1
done
[ -n "$port" ] || { echo "xtsim-serve did not come up"; cat "$out/serve.log"; exit 1; }
python3 - "$port" "$out" <<'EOF'
import json, sys, time, urllib.error, urllib.request

port, out = sys.argv[1:3]
base = f"http://127.0.0.1:{port}"

def req(method, path, body=None):
    # bytes go out verbatim; anything else is sent as JSON.
    data = body if isinstance(body, bytes) or body is None else json.dumps(body).encode()
    try:
        with urllib.request.urlopen(
            urllib.request.Request(base + path, method=method, data=data), timeout=60
        ) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as e:
        return e.code, e.read()

def run_to_completion(body):
    code, resp = req("POST", "/runs", body)
    assert code == 202, f"submit: {code} {resp}"
    rid = json.loads(resp)["id"]
    deadline = time.time() + 300
    while time.time() < deadline:
        env = json.loads(req("GET", f"/runs/{rid}")[1])
        if env["status"] in ("done", "failed"):
            break
        time.sleep(0.2)
    assert env["status"] == "done", f"run {rid}: {env}"
    code, body_bytes = req("GET", f"/runs/{rid}/result")
    assert code == 200
    return env, body_bytes

# Unknown figure ids 404 with the ids listed (same validation as --only).
code, resp = req("POST", "/runs", {"figure": "figZZ"})
assert code == 404 and b"figZZ" in resp, f"unknown id: {code} {resp}"

# A body nested 20,000 deep is past the JSON parser's depth cap: a 400, and
# the server keeps answering (unbounded recursion used to overflow the
# handler thread's stack and abort the process).
code, resp = req("POST", "/runs", b"[" * 20000 + b"]" * 20000)
assert code == 400, f"deeply nested body: {code} {resp[:200]}"
code, _ = req("GET", "/stats")
assert code == 200, f"/stats after the deeply nested body: {code}"

# Cold service run (fresh cache), then warm rerun from the same cache.
env, cold = run_to_completion({"figure": "fig02", "scale": "quick", "jobs": 2})
open(f"{out}/serve_cold.json", "wb").write(cold)
env, warm = run_to_completion({"figure": "fig02", "scale": "quick", "jobs": 2})
assert env["cached"] > 0, f"second run did not hit the cache: {env}"
open(f"{out}/serve_warm.json", "wb").write(warm)

# Parallel-clients phase: four clients hammer the same figure at once.
# Every response must be byte-identical (diffed against the CLI artifact
# below) and the shared memory tier must serve at least some of them.
from concurrent.futures import ThreadPoolExecutor
with ThreadPoolExecutor(max_workers=4) as pool:
    par = list(pool.map(
        lambda _: run_to_completion({"figure": "fig02", "scale": "quick", "jobs": 2}),
        range(4),
    ))
for i, (penv, pbody) in enumerate(par):
    open(f"{out}/serve_par_{i}.json", "wb").write(pbody)
    assert penv["cached"] > 0, f"parallel client {i} missed the warm cache: {penv}"

# A second figure, cold, so the newest registry record is not fig02's.
env, _ = run_to_completion({"figure": "fig12", "scale": "quick", "jobs": 2})

# /stats keeps the documented shape.
stats = json.loads(req("GET", "/stats")[1])
assert stats["schema"] == "xtsim-serve-stats-v1", stats
assert stats["engine_version"] >= 1
for k in ("queued", "running", "done", "failed", "rejected", "capacity", "workers"):
    assert k in stats["queue"], f"queue stats missing {k}"
assert stats["queue"]["done"] >= 7
assert stats["cache"]["entries"] > 0
# Two-tier cache stats: the hot tier holds promoted entries, stays under
# its configured cap, and reports the cap the server was started with.
assert stats["cache"]["mem_entries"] > 0, stats["cache"]
assert 0 < stats["cache"]["mem_bytes"] <= stats["cache"]["mem_cap_bytes"], stats["cache"]
assert stats["cache"]["mem_cap_bytes"] == 64 * 1024 * 1024, stats["cache"]
assert stats["registry"]["records"] >= 7
assert stats["registry"]["skipped"] == 0

# The registry replays every completed run; the dashboard renders SVG.
reg = json.loads(req("GET", "/registry")[1])
assert len(reg["records"]) >= 7
rec = reg["records"][-1]
assert rec["schema"] == "xtsim-registry-v1" and rec["figure"] == "fig12"
assert rec["outcome"] == "done" and rec["wall_secs"] > 0
assert rec["params"]["scale"] == "quick"
# Queue timing rides along on every new record and the run envelope.
assert rec["wait_secs"] >= 0 and rec["exec_secs"] > 0, rec
assert env["wait_secs"] >= 0 and env["exec_secs"] > 0, env
code, dash = req("GET", "/dashboard")
assert code == 200 and b"<svg" in dash, "dashboard missing inline SVG"
assert b"Telemetry" in dash, "dashboard missing telemetry panel"

# /metrics serves valid Prometheus text exposition after the cold+warm
# runs: every sample line parses, each series has TYPE metadata, the
# cache-hit counter reflects the warm run, and the queue-wait histogram
# observed both runs.
code, body = req("GET", "/metrics")
assert code == 200, f"/metrics: {code}"
text = body.decode()
types, samples = {}, {}
for line in text.splitlines():
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split(" ", 3)
        types[name] = kind
        continue
    if line.startswith("#") or not line.strip():
        continue
    name_part, _, value = line.rpartition(" ")
    name = name_part.split("{", 1)[0]
    float(value)  # every sample value must parse
    base = name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
    assert base in types, f"sample {name} has no # TYPE metadata"
    samples[name_part] = float(value)
assert types.get("xtsim_cache_lookups_total") == "counter", types
assert types.get("xtsim_queue_wait_seconds") == "histogram", types
assert types.get("xtsim_http_requests_total") == "counter", types
hits = sum(v for k, v in samples.items()
           if k.startswith("xtsim_cache_lookups_total") and 'result="hit"' in k)
assert hits > 0, "warm run did not register a cache hit in /metrics"
# Two-tier instrumentation: hits are split by tier, the warm/parallel runs
# must land some in the memory tier, and the eviction counter + residency
# gauges keep their documented names and types even when idle at zero.
mem_hits = sum(v for k, v in samples.items()
               if k.startswith("xtsim_cache_lookups_total")
               and 'result="hit"' in k and 'tier="memory"' in k)
assert mem_hits > 0, "no memory-tier cache hits in /metrics"
assert types.get("xtsim_cache_mem_evictions_total") == "counter", types
assert "xtsim_cache_mem_evictions_total" in samples, "eviction counter not exported"
assert types.get("xtsim_cache_mem_bytes") == "gauge", types
assert types.get("xtsim_cache_mem_entries") == "gauge", types
assert types.get("xtsim_cache_lookup_seconds") == "histogram", types
assert samples.get("xtsim_cache_mem_bytes", 0) > 0, "memory tier reports no residency"
assert samples.get("xtsim_cache_mem_bytes", 0) <= 64 * 1024 * 1024, "residency above cap"
waits = samples.get("xtsim_queue_wait_seconds_count", 0)
assert waits >= 7, f"queue wait histogram saw {waits} runs, expected >= 7"
infs = [v for k, v in samples.items()
        if k.startswith("xtsim_queue_wait_seconds_bucket") and 'le="+Inf"' in k]
assert infs and infs[0] == waits, "queue wait +Inf bucket != _count"
EOF
# Byte-identity with the CLI artifact, cold and warm.
diff "$out/cli/fig02.json" "$out/serve_cold.json" || {
    echo "service result (cold) differs from figures CLI output"; exit 1;
}
diff "$out/cli/fig02.json" "$out/serve_warm.json" || {
    echo "service result (warm) differs from figures CLI output"; exit 1;
}
for i in 0 1 2 3; do
    diff "$out/cli/fig02.json" "$out/serve_par_$i.json" || {
        echo "parallel client $i result differs from figures CLI output"; exit 1;
    }
done
kill "$serve_pid" 2>/dev/null || true
trap - EXIT
# The --events JSONL sink exists and every line is a schema-tagged record
# (a clean smoke may legitimately log nothing; format still must hold).
test -e "$out/events.jsonl" || { echo "--events did not create the sink"; exit 1; }
python3 - "$out/events.jsonl" <<'EOF'
import json, sys
for line in open(sys.argv[1]):
    rec = json.loads(line)
    assert rec["schema"] == "xtsim-events-v1", rec
    assert {"ts_unix", "level", "target", "message"} <= rec.keys(), rec
EOF
# One-shot dashboard mode renders from the registry alone.
target/release/xtsim-serve --registry-dir "$out/registry" --bench-root . \
    --dashboard "$out/dash" >/dev/null
grep -q "<svg" "$out/dash/index.html" || { echo "one-shot dashboard has no SVG"; exit 1; }
rm -rf "$out"

echo "== bench smoke (quick stress benches + threshold gate + JSON shape) =="
out="$(mktemp -d)"
# --check compares against the committed quick-scale baseline and fails on
# a >2x regression; tolerance is deliberately loose because the quick
# schedule takes few samples (see BENCH_QUICK.json for the recorded floor).
# cache/concurrent_mixed_8t is deliberately absent from that baseline: 8
# threads timesliced onto this single-core container make its median pure
# scheduling noise (2x run-to-run swings observed). It must still run and
# report (asserted below); the tier speed gate is the within-run memory-
# vs-disk ratio, which machine load cancels out of.
scripts/bench.sh --quick --out "$out/bench.json" --check BENCH_QUICK.json:1.0 >/dev/null
python3 - "$out/bench.json" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
assert rec["schema"] == "xtsim-bench-v1", f"bad schema: {rec.get('schema')}"
assert rec["quick"] is True, "quick run must record quick=true"
benches = rec["benches"]
for name in (
    "des_events/spawn_join_100k",
    "des_events/flow_lanes_4k",
    "fluid_pool/flows_1k",
    "fluid_pool/flows_10k",
    "fluid_pool/lockstep_1k",
    "alltoall_fluid/ranks_256",
    "alltoall_fluid/ranks_1024",
    "cache/cold_miss",
    "cache/warm_disk_hit",
    "cache/warm_memory_hit",
    "cache/concurrent_mixed_8t",
):
    b = benches.get(name)
    assert b, f"missing bench {name}"
    ms = b.get("median_ms", b.get("after_ms"))
    assert ms and ms > 0, f"{name}: no positive timing"
    assert b.get("iters", 1) >= 1, f"{name}: no iterations"

# The hot tier must actually be hot: a warm memory-tier lookup has to beat
# a warm disk-tier lookup by at least 2x median, or the two-tier design is
# not paying for itself (ISSUE 9 acceptance gate).
def ms(name):
    b = benches[name]
    return b.get("median_ms", b.get("after_ms"))
assert ms("cache/warm_memory_hit") * 2 <= ms("cache/warm_disk_hit"), (
    f"memory tier not >=2x faster than disk tier: "
    f"{ms('cache/warm_memory_hit'):.3f} ms vs {ms('cache/warm_disk_hit'):.3f} ms"
)
# The committed before/after record must keep the same shape.
committed = json.load(open("BENCH_PR4.json"))
assert committed["schema"] == "xtsim-bench-v1"
for name, b in committed["benches"].items():
    assert "after_ms" in b or "median_ms" in b, f"BENCH_PR4.json {name}: no timing"
EOF
rm -rf "$out"

echo "CI gate passed."
