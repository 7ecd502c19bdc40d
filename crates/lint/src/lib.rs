#![forbid(unsafe_code)]
//! # xtsim-lint — determinism & DES-safety static analysis
//!
//! The repo's headline claim — every paper figure regenerates
//! byte-identically across serial/parallel sweeps and across PRs — rests on
//! an invariant the compiler does not enforce: simulator crates must be free
//! of nondeterminism sources. This crate enforces it mechanically with a
//! token-pattern pass over a hand-rolled lexer (no `syn`; the build
//! container is offline). Its only dependencies are the workspace
//! `serde`/`serde_json` shims, for the JSON report, call graph and baseline.
//!
//! Rule catalog (see `lint.toml` for path scoping; `--explain RULE` for
//! rationale, examples, and suppression syntax):
//!
//! | rule | severity | what |
//! |------|----------|------|
//! | `nondet-map-iter` | error | iterating `HashMap`/`HashSet` in sim crates |
//! | `wallclock-in-sim` | error | `Instant::now`/`SystemTime` outside allowlisted harness paths |
//! | `ambient-rng` | error | `thread_rng`/entropy seeding outside test code |
//! | `refcell-reentrant-borrow` | error | two borrows of one `RefCell` in a statement |
//! | `panic-in-hot-path` | warn/note | `unwrap`/`expect` (warn) and indexing (note) in DES hot paths |
//! | `unsafe-without-safety-comment` | warn | `unsafe` lacking a `// SAFETY:` comment |
//! | `transitive-taint` | error | sim code reaching wallclock/RNG through any call chain |
//! | `lock-order-cycle` | error | cycle in the lock acquisition-order graph |
//! | `panic-propagation` | warn | hot-path fn calling may-panic code outside the hot set |
//! | `blocking-in-poll` | warn | std lock/Condvar wait reachable from `fn poll` |
//!
//! The last four are interprocedural: a recursive-descent signature parser
//! ([`parser`]) builds a workspace-wide approximate call graph ([`graph`];
//! unresolved edges are recorded, never guessed) and [`interproc`] walks it.
//! Their diagnostics carry the full witness call chain. One recognizer,
//! `rules::recognize`, decides which tokens read the wall clock, draw OS
//! entropy, or call `.unwrap()`/`.expect()`: the token rules report them and
//! the parser records them as the facts those walks start from.
//!
//! Suppression is an inline `// xtsim-lint: allow(<rule>, "<why>")` comment
//! or a committed `lint-baseline.json`; unused allows and stale baseline
//! entries are themselves reported, so suppressions stay honest.
//!
//! Run it via the binary:
//!
//! ```text
//! cargo run -p xtsim-lint -- --workspace --deny warnings --json out.json \
//!     --call-graph callgraph.json
//! ```

pub mod config;
pub mod explain;
pub mod graph;
pub mod interproc;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use config::Config;
use parser::FactKind;
use report::{BaselineEntry, Report, Suppressed, SuppressedHow};
use rules::{rule_id, FileContext, Finding, Severity};

/// Scan one file's source text with the *token* rules only and return its
/// findings after inline-allow processing, plus its `unsafe` count. The
/// interprocedural rules need the whole workspace — see [`analyze_sources`].
/// `path` must be workspace-relative with `/` separators.
pub fn scan_source(
    path: &str,
    src: &str,
    cfg: &Config,
) -> (Vec<Finding>, Vec<Suppressed>, usize) {
    let mut ctx = FileContext::new(path, src, cfg);
    let raw = rules::run_rules(&ctx, cfg);
    let (findings, suppressed) = apply_allows(&mut ctx, raw, path);
    (findings, suppressed, ctx.unsafe_count)
}

/// Split `raw` into kept findings and allow-suppressed ones, then report
/// allows that suppressed nothing.
fn apply_allows(
    ctx: &mut FileContext,
    raw: Vec<Finding>,
    path: &str,
) -> (Vec<Finding>, Vec<Suppressed>) {
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for f in raw {
        let allow = ctx.allows.iter_mut().find(|a| {
            a.rule == f.rule && a.applies_to.contains(&f.line)
        });
        match allow {
            Some(a) => {
                a.used = true;
                let reason = a.reason.clone();
                suppressed.push(Suppressed { finding: f, how: SuppressedHow::Allow { reason } });
            }
            None => findings.push(f),
        }
    }
    // Allows that suppressed nothing are findings themselves.
    for a in &ctx.allows {
        if !a.used {
            findings.push(Finding {
                file: path.to_string(),
                line: a.line,
                col: a.col,
                rule: rule_id::UNUSED_ALLOW,
                severity: Severity::Warn,
                message: format!(
                    "allow({}, …) suppresses nothing — the finding it excused is gone",
                    a.rule
                ),
                suggestion: "delete the stale allow comment".to_string(),
                snippet: String::new(),
                chain: Vec::new(),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    (findings, suppressed)
}

/// Per-file outcome of [`analyze_sources`].
pub struct FileAnalysis {
    pub path: String,
    pub findings: Vec<Finding>,
    pub suppressed: Vec<Suppressed>,
    pub unsafe_count: usize,
}

/// Analyze a whole set of sources together: token rules per file, plus the
/// call-graph pass and the four interprocedural rules across all of them.
/// `sources` holds `(workspace-relative path, text)` pairs.
pub fn analyze_sources(
    sources: &[(String, String)],
    cfg: &Config,
) -> (Vec<FileAnalysis>, graph::CallGraph) {
    let mut ctxs: Vec<FileContext> = sources
        .iter()
        .map(|(path, src)| FileContext::new(path, src, cfg))
        .collect();
    let mut decls = Vec::new();
    for ctx in &ctxs {
        decls.extend(parser::parse_file(ctx));
    }
    let g = graph::build(decls);
    let inter = interproc::run_interproc(&g, cfg);

    let mut out = Vec::new();
    for ctx in ctxs.iter_mut() {
        let path = ctx.path.to_string();
        // An inline allow on a wallclock/RNG/panic/blocking/lock site stops
        // that fact from seeding the interprocedural analyses (see
        // `parser`), which is real work even when no token finding exists on
        // that line — mark those allows used so they aren't flagged stale.
        for d in g.fns.iter().filter(|d| d.file == path) {
            for fa in &d.facts {
                if !fa.allowed {
                    continue;
                }
                let rules: &[&str] = match fa.kind {
                    FactKind::Wallclock => {
                        &[rule_id::WALLCLOCK_IN_SIM, rule_id::TRANSITIVE_TAINT]
                    }
                    FactKind::Rng => &[rule_id::AMBIENT_RNG, rule_id::TRANSITIVE_TAINT],
                    FactKind::Panic => {
                        &[rule_id::PANIC_IN_HOT_PATH, rule_id::PANIC_PROPAGATION]
                    }
                    FactKind::Blocking => &[rule_id::BLOCKING_IN_POLL],
                };
                mark_used(ctx, rules, fa.line);
            }
            for l in &d.locks {
                if l.allowed {
                    mark_used(ctx, &[rule_id::LOCK_ORDER_CYCLE], l.line);
                }
            }
        }
        let mut raw = rules::run_rules(ctx, cfg);
        raw.extend(inter.iter().filter(|f| f.file == path).cloned());
        let (findings, suppressed) = apply_allows(ctx, raw, &path);
        out.push(FileAnalysis {
            path,
            findings,
            suppressed,
            unsafe_count: ctx.unsafe_count,
        });
    }
    (out, g)
}

fn mark_used(ctx: &mut FileContext, rules: &[&str], line: u32) {
    for a in ctx.allows.iter_mut() {
        if a.applies_to.contains(&line) && rules.contains(&a.rule.as_str()) {
            a.used = true;
        }
    }
}

/// Options for [`run`].
pub struct RunOptions {
    /// Workspace root; findings are reported relative to it.
    pub root: PathBuf,
    /// Baseline entries (already parsed), if a baseline is in use.
    pub baseline: Vec<BaselineEntry>,
}

/// Walk every `.rs` file under `root` (respecting `cfg.exclude`), run the
/// full rule catalog (token + interprocedural), apply inline allows and the
/// baseline, and assemble the [`Report`] (which carries the call graph for
/// `--call-graph`).
pub fn run(cfg: &Config, opts: &RunOptions) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_rs_files(&opts.root, &opts.root, cfg, &mut files)
        .map_err(|e| format!("walking {}: {e}", opts.root.display()))?;
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let abs = opts.root.join(&rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("reading {}: {e}", abs.display()))?;
        sources.push((rel, src));
    }
    let (analyses, call_graph) = analyze_sources(&sources, cfg);

    // Baseline as a multiset so duplicate snippets on one line-pair each
    // suppress one finding.
    let mut baseline: BTreeMap<BaselineEntry, usize> = BTreeMap::new();
    for e in &opts.baseline {
        *baseline.entry(e.clone()).or_insert(0) += 1;
    }

    let mut report = Report {
        root: opts.root.display().to_string(),
        call_graph,
        ..Report::default()
    };
    for fa in analyses {
        report.files_scanned += 1;
        report.suppressed.extend(fa.suppressed);
        if fa.unsafe_count > 0 {
            *report
                .unsafe_inventory
                .entry(crate_of(&fa.path).to_string())
                .or_insert(0) += fa.unsafe_count;
        }
        for f in fa.findings {
            // Notes never gate CI and are never baselined, so they must not
            // consume entries that a warn on the same line would need (an
            // `expect` call is both an expect-warn and an indexing-note
            // candidate with identical snippets).
            if f.severity < Severity::Warn {
                report.findings.push(f);
                continue;
            }
            let key = BaselineEntry {
                file: f.file.clone(),
                rule: f.rule.to_string(),
                snippet: f.snippet.clone(),
                function: f.chain.first().map(|h| h.function.clone()),
            };
            match baseline.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    report.suppressed.push(Suppressed { finding: f, how: SuppressedHow::Baseline });
                }
                _ => report.findings.push(f),
            }
        }
    }
    report.stale_baseline = baseline
        .into_iter()
        .flat_map(|(e, n)| std::iter::repeat_n(e, n))
        .collect();
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// The crate directory a workspace-relative path belongs to, for the unsafe
/// inventory: `crates/des/src/x.rs` → `crates/des`;
/// `crates/compat/serde/src/lib.rs` → `crates/compat/serde`; anything else →
/// the root package.
pub fn crate_of(rel: &str) -> &str {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", "compat", name, ..] => {
            let end = "crates/compat/".len() + name.len();
            &rel[..end]
        }
        ["crates", name, ..] => {
            let end = "crates/".len() + name.len();
            &rel[..end]
        }
        _ => "xt4-repro",
    }
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .expect("walk stays under root")
            .to_string_lossy()
            .replace('\\', "/");
        if cfg.is_excluded(&rel) {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if ty.is_file() && name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/des/src/fluid.rs"), "crates/des");
        assert_eq!(crate_of("crates/compat/serde/src/lib.rs"), "crates/compat/serde");
        assert_eq!(crate_of("src/lib.rs"), "xt4-repro");
        assert_eq!(crate_of("tests/goldens.rs"), "xt4-repro");
    }

    #[test]
    fn inline_allow_suppresses_and_is_marked_used() {
        let cfg = Config::parse("[lint]\nsim_crates = [\"**\"]\n").unwrap();
        let src = "fn f() {\n    // xtsim-lint: allow(wallclock-in-sim, \"demo\")\n    let _ = std::time::Instant::now();\n}\n";
        let (findings, suppressed, _) = scan_source("a.rs", src, &cfg);
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(suppressed.len(), 1);
        assert!(matches!(&suppressed[0].how, SuppressedHow::Allow { reason } if reason == "demo"));
    }

    #[test]
    fn unused_allow_is_reported() {
        let cfg = Config::parse("[lint]\n").unwrap();
        let src = "// xtsim-lint: allow(ambient-rng, \"nothing here\")\nfn f() {}\n";
        let (findings, _, _) = scan_source("a.rs", src, &cfg);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, rule_id::UNUSED_ALLOW);
    }

    #[test]
    fn same_line_allow_works() {
        let cfg = Config::parse("[lint]\nsim_crates = [\"**\"]\n").unwrap();
        let src = "fn f() { let _ = std::time::Instant::now(); } // xtsim-lint: allow(wallclock-in-sim, \"same line\")\n";
        let (findings, suppressed, _) = scan_source("a.rs", src, &cfg);
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(suppressed.len(), 1);
    }
}
