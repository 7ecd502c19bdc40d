//! Static dashboard generator: one self-contained HTML page with inline
//! SVG — no scripts, no external assets, viewable from `file://` or the
//! service's `GET /dashboard`.
//!
//! Two data sources, both optional:
//! * the run registry (wall-clock trend per figure across runs, outcome
//!   counts) — run-to-run deviations become visible as a kinked sparkline
//!   instead of a narrative;
//! * committed bench records (`BENCH_*.json` in the repo root) — median
//!   per bench compared across files as horizontal bars.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::Value;
use xtsim::sweep::CacheStats;

use crate::queue::QueueStats;

/// Escape text for an HTML/SVG context.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

/// Compact number for labels: 3 significant-ish decimals, no trailing zeros.
fn fmt(v: f64) -> String {
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Inline sparkline of `values` in order (left to right), auto-scaled.
fn sparkline(values: &[f64], w: u32, h: u32) -> String {
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if (hi - lo).abs() < 1e-12 { 1.0 } else { hi - lo };
    let (wf, hf) = (f64::from(w), f64::from(h));
    let pts: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let x = if values.len() == 1 {
                wf / 2.0
            } else {
                2.0 + (wf - 4.0) * i as f64 / (values.len() - 1) as f64
            };
            let y = 2.0 + (hf - 4.0) * (1.0 - (v - lo) / span);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" role=\"img\">\
         <polyline points=\"{}\" fill=\"none\" stroke=\"#2a6f97\" stroke-width=\"1.5\"/></svg>",
        pts.join(" ")
    )
}

/// Horizontal bar scaled against `max` with an inline value label.
fn bar(v: f64, max: f64, color: &str) -> String {
    let w = if max > 0.0 { (220.0 * v / max).max(1.0) } else { 1.0 };
    format!(
        "<svg width=\"300\" height=\"14\" viewBox=\"0 0 300 14\">\
         <rect x=\"0\" y=\"2\" width=\"{w:.1}\" height=\"10\" fill=\"{color}\"/>\
         <text x=\"{:.1}\" y=\"11\" font-size=\"10\" fill=\"#333\">{} ms</text></svg>",
        w + 4.0,
        fmt(v)
    )
}

/// Median-ish timing of one bench entry (plain runs record `median_ms`,
/// before/after runs record `after_ms`).
fn bench_ms(entry: &Value) -> Option<f64> {
    let o = entry.as_object()?;
    o.get("median_ms").or_else(|| o.get("after_ms")).and_then(Value::as_f64)
}

/// Load every `BENCH_*.json` under `root`, sorted by file name.
pub fn collect_bench_files(root: &Path) -> Vec<(String, Value)> {
    let Ok(rd) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut names: Vec<String> = rd
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    names
        .into_iter()
        .filter_map(|n| {
            let text = std::fs::read_to_string(root.join(&n)).ok()?;
            let v = serde_json::from_str::<Value>(&text).ok()?;
            Some((n, v))
        })
        .collect()
}

/// Per-figure registry history: wall-clock per completed run, in append
/// order, plus outcome counts.
fn registry_by_figure(records: &[Value]) -> BTreeMap<String, (Vec<f64>, BTreeMap<String, u64>)> {
    let mut by_fig: BTreeMap<String, (Vec<f64>, BTreeMap<String, u64>)> = BTreeMap::new();
    for r in records {
        let Some(o) = r.as_object() else { continue };
        let Some(fig) = o.get("figure").and_then(Value::as_str) else { continue };
        let entry = by_fig.entry(fig.to_string()).or_default();
        if let Some(w) = o.get("wall_secs").and_then(Value::as_f64) {
            entry.0.push(w);
        }
        let outcome = o.get("outcome").and_then(Value::as_str).unwrap_or("unknown");
        *entry.1.entry(outcome.to_string()).or_insert(0) += 1;
    }
    by_fig
}

/// Render the full dashboard page.
///
/// `telemetry` is an explicit snapshot (not the live global registry) so
/// rendering stays a pure function of its inputs — the same-inputs,
/// same-bytes determinism test depends on it.
pub fn render(
    registry_records: &[Value],
    bench_files: &[(String, Value)],
    cache: Option<&CacheStats>,
    queue: Option<&QueueStats>,
    telemetry: Option<&xtsim_obs::Snapshot>,
) -> String {
    let mut page = String::from(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>xtsim dashboard</title><style>\
         body{font-family:system-ui,sans-serif;margin:2em;color:#222}\
         h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em;\
         border-bottom:1px solid #ccc;padding-bottom:.2em}\
         table{border-collapse:collapse;margin-top:.5em}\
         td,th{padding:.25em .7em;text-align:left;font-size:.9em;\
         border-bottom:1px solid #eee}th{color:#555}\
         .tiles{display:flex;gap:1.5em;margin-top:.5em}\
         .tile{border:1px solid #ddd;border-radius:6px;padding:.6em 1em}\
         .tile b{display:block;font-size:1.3em}\
         .muted{color:#777;font-size:.85em}</style></head><body>\
         <h1>xtsim — sweep service dashboard</h1>",
    );

    // --- stats tiles -------------------------------------------------------
    page.push_str("<div class=\"tiles\">");
    if let Some(q) = queue {
        for (label, v) in [
            ("runs done", q.done),
            ("queued", q.queued),
            ("running", q.running),
            ("rejected (429)", q.rejected),
        ] {
            page.push_str(&format!("<div class=\"tile\"><b>{v}</b>{label}</div>"));
        }
    }
    if let Some(c) = cache {
        page.push_str(&format!(
            "<div class=\"tile\"><b>{}</b>cache entries ({:.1} MiB)</div>",
            c.entries,
            c.bytes as f64 / (1024.0 * 1024.0)
        ));
        page.push_str(&format!(
            "<div class=\"tile\"><b>{}</b>memory-tier entries ({:.1} / {:.0} MiB)</div>",
            c.mem_entries,
            c.mem_bytes as f64 / (1024.0 * 1024.0),
            c.mem_cap_bytes as f64 / (1024.0 * 1024.0)
        ));
    }
    page.push_str(&format!(
        "<div class=\"tile\"><b>{}</b>registry records</div></div>",
        registry_records.len()
    ));

    // --- registry trends ---------------------------------------------------
    page.push_str("<h2>Run registry — wall-clock per figure</h2>");
    let by_fig = registry_by_figure(registry_records);
    if by_fig.is_empty() {
        page.push_str("<p class=\"muted\">No registry records yet.</p>");
    } else {
        page.push_str(
            "<table><tr><th>figure</th><th>runs</th><th>last</th><th>min</th>\
             <th>max</th><th>trend</th><th>outcomes</th></tr>",
        );
        for (fig, (walls, outcomes)) in &by_fig {
            let (last, lo, hi) = if walls.is_empty() {
                ("-".to_string(), "-".to_string(), "-".to_string())
            } else {
                (
                    format!("{} s", fmt(*walls.last().unwrap())),
                    format!("{} s", fmt(walls.iter().copied().fold(f64::INFINITY, f64::min))),
                    format!("{} s", fmt(walls.iter().copied().fold(0.0f64, f64::max))),
                )
            };
            let outcome_text = outcomes
                .iter()
                .map(|(k, v)| format!("{}×{}", v, esc(k)))
                .collect::<Vec<_>>()
                .join(", ");
            page.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{last}</td><td>{lo}</td><td>{hi}</td>\
                 <td>{}</td><td>{outcome_text}</td></tr>",
                esc(fig),
                walls.len(),
                sparkline(walls, 160, 28),
            ));
        }
        page.push_str("</table>");
    }

    // --- telemetry ---------------------------------------------------------
    if let Some(snap) = telemetry {
        page.push_str("<h2>Telemetry (live metrics registry)</h2>");
        let hits = snap.counter_sum("xtsim_cache_lookups_total", &[("result", "hit")]);
        let mem_hits =
            snap.counter_sum("xtsim_cache_lookups_total", &[("result", "hit"), ("tier", "memory")]);
        let misses = snap.counter_sum("xtsim_cache_lookups_total", &[("result", "miss")]);
        let mismatches =
            snap.counter_sum("xtsim_cache_lookups_total", &[("result", "key_mismatch")]);
        let lookups = hits + misses + mismatches;
        page.push_str("<div class=\"tiles\">");
        if lookups > 0 {
            page.push_str(&format!(
                "<div class=\"tile\"><b>{}%</b>cache hit ratio ({hits}/{lookups} lookups)</div>",
                fmt(100.0 * hits as f64 / lookups as f64)
            ));
            page.push_str(&format!(
                "<div class=\"tile\"><b>{}%</b>memory-tier share of hits \
                 ({mem_hits}/{hits})</div>",
                if hits > 0 { fmt(100.0 * mem_hits as f64 / hits as f64) } else { fmt(0.0) }
            ));
        } else {
            page.push_str(
                "<div class=\"tile\"><b>&ndash;</b>cache hit ratio (no lookups yet)</div>",
            );
        }
        page.push_str(&format!(
            "<div class=\"tile\"><b>{}</b>queue rejections (429)</div>",
            snap.counter_sum("xtsim_queue_rejected_total", &[])
        ));
        page.push_str(&format!(
            "<div class=\"tile\"><b>{}</b>HTTP requests</div></div>",
            snap.counter_sum("xtsim_http_requests_total", &[])
        ));

        page.push_str("<h2>Queue wait latency</h2>");
        let wait = snap
            .family("xtsim_queue_wait_seconds")
            .and_then(|f| f.series.first())
            .and_then(|s| match &s.value {
                xtsim_obs::SeriesValue::Histogram(h) if h.count > 0 => Some(h.clone()),
                _ => None,
            });
        match wait {
            None => page.push_str("<p class=\"muted\">No queued runs observed yet.</p>"),
            Some(h) => {
                let max = h.bucket_counts.iter().copied().max().unwrap_or(1).max(1) as f64;
                page.push_str(&format!(
                    "<p class=\"muted\">{} waits, mean {} s</p>\
                     <table><tr><th>&le; seconds</th><th>runs</th></tr>",
                    h.count,
                    fmt(h.mean())
                ));
                for (i, &n) in h.bucket_counts.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let le = xtsim_obs::metrics::BUCKET_BOUNDS
                        .get(i)
                        .map_or("+Inf".to_string(), |b| format!("{b}"));
                    let w = (220.0 * n as f64 / max).max(1.0);
                    page.push_str(&format!(
                        "<tr><td>{le}</td><td><svg width=\"300\" height=\"14\" \
                         viewBox=\"0 0 300 14\"><rect x=\"0\" y=\"2\" width=\"{w:.1}\" \
                         height=\"10\" fill=\"#43aa8b\"/><text x=\"{:.1}\" y=\"11\" \
                         font-size=\"10\" fill=\"#333\">{n}</text></svg></td></tr>",
                        w + 4.0
                    ));
                }
                page.push_str("</table>");
            }
        }
    }

    // --- bench medians -----------------------------------------------------
    page.push_str("<h2>Bench medians (committed BENCH_*.json)</h2>");
    if bench_files.is_empty() {
        page.push_str("<p class=\"muted\">No bench records found.</p>");
    } else {
        // Union of bench names across files, each compared side by side.
        let mut by_bench: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
        for (fname, rec) in bench_files {
            let Some(benches) = rec.as_object().and_then(|o| o.get("benches")).and_then(Value::as_object)
            else {
                continue;
            };
            for (bench, entry) in benches {
                if let Some(ms) = bench_ms(entry) {
                    by_bench.entry(bench.clone()).or_default().push((fname.clone(), ms));
                }
            }
        }
        page.push_str("<table><tr><th>bench</th><th>file</th><th>median</th></tr>");
        for (bench, rows) in &by_bench {
            let max = rows.iter().map(|(_, ms)| *ms).fold(0.0f64, f64::max);
            for (i, (fname, ms)) in rows.iter().enumerate() {
                let name = if i == 0 { esc(bench) } else { String::new() };
                page.push_str(&format!(
                    "<tr><td>{name}</td><td class=\"muted\">{}</td><td>{}</td></tr>",
                    esc(fname),
                    bar(*ms, max, "#577590"),
                ));
            }
        }
        page.push_str("</table>");
    }

    page.push_str("</body></html>");
    page
}

/// One-shot mode: write the dashboard as `index.html` under `dir`.
pub fn write_to(dir: &Path, html: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("index.html");
    std::fs::write(&path, html)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(figure: &str, wall: f64, outcome: &str) -> Value {
        let mut m = BTreeMap::new();
        m.insert("figure".to_string(), figure.into());
        m.insert("wall_secs".to_string(), wall.into());
        m.insert("outcome".to_string(), outcome.into());
        Value::Object(m)
    }

    #[test]
    fn renders_registry_trends_and_bench_bars() {
        let records = vec![rec("fig02", 1.0, "done"), rec("fig02", 1.4, "done"), rec("fig12", 0.2, "failed")];
        let bench = serde_json::from_str::<Value>(
            "{\"schema\":\"xtsim-bench-v1\",\"benches\":{\"fluid_pool/flows_1k\":{\"median_ms\":12.5,\"iters\":5}}}",
        )
        .unwrap();
        let html = render(&records, &[("BENCH_X.json".to_string(), bench)], None, None, None);
        assert!(html.contains("<svg"), "no inline SVG rendered");
        assert!(html.contains("fig02") && html.contains("fig12"));
        assert!(html.contains("fluid_pool/flows_1k"));
        assert!(html.contains("12.5 ms"));
        assert!(html.contains("1×failed"));
        // Deterministic: same inputs, same bytes.
        let again = render(&records, &[], None, None, None);
        let again2 = render(&records, &[], None, None, None);
        assert_eq!(again, again2);
    }

    #[test]
    fn telemetry_panel_renders_hit_ratio_and_wait_histogram() {
        // A private registry keeps this test independent of whatever other
        // tests did to the process-global one.
        let reg = xtsim_obs::Registry::new();
        reg.counter_with("xtsim_cache_lookups_total", "h", &[("result", "hit")]).add(3);
        reg.counter_with("xtsim_cache_lookups_total", "h", &[("result", "miss")]).add(1);
        let wait = reg.histogram("xtsim_queue_wait_seconds", "h");
        wait.observe(0.004);
        wait.observe(0.004);
        wait.observe(1.3);
        let snap = reg.snapshot();

        let html = render(&[], &[], None, None, Some(&snap));
        assert!(html.contains("cache hit ratio"), "hit-ratio tile missing");
        assert!(html.contains("75%"), "3/4 lookups must render as 75%: {html}");
        assert!(html.contains("Queue wait latency"));
        assert!(html.contains("<td>0.005</td>"), "0.004s waits land in the 5ms bucket");
        assert!(html.contains(">2</text>"), "bucket count 2 must appear in the bar label");
        // Deterministic for a fixed snapshot.
        assert_eq!(
            render(&[], &[], None, None, Some(&snap)),
            render(&[], &[], None, None, Some(&snap))
        );

        // An empty snapshot renders placeholders, not panics.
        let empty = xtsim_obs::Registry::new().snapshot();
        let html = render(&[], &[], None, None, Some(&empty));
        assert!(html.contains("no lookups yet"));
        assert!(html.contains("No queued runs observed yet"));
    }

    #[test]
    fn one_shot_writes_index_html() {
        let dir = std::env::temp_dir().join(format!("xtsim-dash-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_to(&dir, "<html></html>").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "<html></html>");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparkline_handles_degenerate_inputs() {
        assert_eq!(sparkline(&[], 100, 20), "");
        assert!(sparkline(&[5.0], 100, 20).contains("polyline"));
        assert!(sparkline(&[3.0, 3.0, 3.0], 100, 20).contains("polyline"));
    }
}
