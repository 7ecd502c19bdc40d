//! The four interprocedural rules over the [`crate::graph`] call graph:
//! transitive wallclock/RNG taint, lock-order cycles, panic propagation into
//! hot paths, and blocking primitives reachable from `fn poll` bodies.
//!
//! Reachability is a reverse BFS from fact-holding functions, so every
//! diagnostic carries a *shortest* witness chain. Reporting is
//! frontier-based: the function blamed is the last in-scope one before the
//! chain leaves the rule's scope — the root-cause site a reader can actually
//! fix — not every caller above it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::Config;
use crate::graph::CallGraph;
use crate::parser::{FactKind, FnDecl};
use crate::rules::{rule_id, ChainHop, Finding, Severity};

/// Run all four rules; findings are sorted by (file, line, rule).
pub fn run_interproc(g: &CallGraph, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    transitive_taint(g, cfg, &mut out);
    lock_order_cycle(g, cfg, &mut out);
    panic_propagation(g, cfg, &mut out);
    blocking_in_poll(g, cfg, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

// ---------------------------------------------------------------------------
// reachability

/// How a function reaches a fact: it holds one directly, or its call at
/// `line` leads to a function that does.
enum Hop {
    Direct { line: u32, what: String, kind: FactKind },
    Call { line: u32, to: usize },
}

/// Reverse BFS from every function `seed` accepts: `status[f]` is the first
/// hop of a shortest chain from `f` to a seeded fact, or `None` if
/// unreachable.
fn reach(g: &CallGraph, seed: impl Fn(&FnDecl) -> Option<(u32, String, FactKind)>) -> Vec<Option<Hop>> {
    let n = g.fns.len();
    let mut status: Vec<Option<Hop>> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    for (i, f) in g.fns.iter().enumerate() {
        match seed(f) {
            Some((line, what, kind)) => {
                status.push(Some(Hop::Direct { line, what, kind }));
                queue.push_back(i);
            }
            None => status.push(None),
        }
    }
    let mut radj: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (i, es) in g.edges.iter().enumerate() {
        for e in es {
            radj[e.to].push((i, e.line));
        }
    }
    while let Some(gi) = queue.pop_front() {
        for &(f, line) in &radj[gi] {
            if status[f].is_none() {
                status[f] = Some(Hop::Call { line, to: gi });
                queue.push_back(f);
            }
        }
    }
    status
}

/// A materialized witness chain plus its terminal fact.
struct Chain {
    hops: Vec<ChainHop>,
    kind: FactKind,
    what: String,
    src_file: String,
    src_line: u32,
}

/// Follow `status` hops from `start` down to the fact.
fn chain_from(g: &CallGraph, start: usize, status: &[Option<Hop>]) -> Option<Chain> {
    let mut hops = Vec::new();
    let mut cur = start;
    loop {
        match status[cur].as_ref()? {
            Hop::Call { line, to } => {
                hops.push(ChainHop {
                    function: g.fns[cur].display(),
                    file: g.fns[cur].file.clone(),
                    line: *line,
                });
                cur = *to;
                if hops.len() > g.fns.len() {
                    return None; // defensive: BFS parents cannot cycle
                }
            }
            Hop::Direct { line, what, kind } => {
                hops.push(ChainHop {
                    function: g.fns[cur].display(),
                    file: g.fns[cur].file.clone(),
                    line: *line,
                });
                return Some(Chain {
                    hops,
                    kind: *kind,
                    what: what.clone(),
                    src_file: g.fns[cur].file.clone(),
                    src_line: *line,
                });
            }
        }
    }
}

/// Render a chain as `a (file:1) -> b (file:2)` for messages.
fn chain_text(hops: &[ChainHop]) -> String {
    hops.iter()
        .map(|h| format!("{} ({}:{})", h.function, h.file, h.line))
        .collect::<Vec<_>>()
        .join(" -> ")
}

fn interproc_finding(
    f: &FnDecl,
    rule: &'static str,
    severity: Severity,
    message: String,
    suggestion: String,
    chain: Vec<ChainHop>,
) -> Finding {
    Finding {
        file: f.file.clone(),
        line: f.line,
        col: f.col,
        rule,
        severity,
        message,
        suggestion,
        snippet: f.snippet.clone(),
        chain,
    }
}

// ---------------------------------------------------------------------------
// transitive-taint

fn transitive_taint(g: &CallGraph, cfg: &Config, out: &mut Vec<Finding>) {
    let is_source = |fa: &crate::parser::Fact| {
        !fa.allowed && matches!(fa.kind, FactKind::Wallclock | FactKind::Rng)
    };
    let status = reach(g, |f| {
        f.facts.iter().find(|fa| is_source(fa)).map(|fa| (fa.line, fa.what.clone(), fa.kind))
    });
    let in_scope =
        |f: &FnDecl| cfg.is_sim_crate(&f.file) && !cfg.rule_allows(rule_id::TRANSITIVE_TAINT, &f.file);
    for (i, f) in g.fns.iter().enumerate() {
        if !in_scope(f) || f.facts.iter().any(is_source) {
            // Out of scope, or the direct-fact token rules already flag it.
            continue;
        }
        // Frontier: a tainted callee that is itself outside this rule's
        // scope (harness/allowlisted/compat code). In-scope tainted callees
        // get their own finding instead — blame lands once, at the boundary.
        let Some(e) = g.edges[i]
            .iter()
            .find(|e| status[e.to].is_some() && !in_scope(&g.fns[e.to]))
        else {
            continue;
        };
        let Some(mut tail) = chain_from(g, e.to, &status) else { continue };
        let mut hops =
            vec![ChainHop { function: f.display(), file: f.file.clone(), line: e.line }];
        hops.append(&mut tail.hops);
        let kind_str = match tail.kind {
            FactKind::Rng => "ambient RNG",
            _ => "the wall clock",
        };
        out.push(interproc_finding(
            f,
            rule_id::TRANSITIVE_TAINT,
            Severity::Error,
            format!(
                "sim function `{}` transitively reaches {kind_str} (`{}` at {}:{}): {}",
                f.display(),
                tail.what,
                tail.src_file,
                tail.src_line,
                chain_text(&hops),
            ),
            "route timing/entropy through the sim harness (SimHandle::now / seeded rng); if \
             the whole chain is measurement-side, allowlist the caller under \
             [allow.transitive-taint] in lint.toml or annotate the source site"
                .to_string(),
            hops,
        ));
    }
}

// ---------------------------------------------------------------------------
// panic-propagation

fn panic_propagation(g: &CallGraph, cfg: &Config, out: &mut Vec<Finding>) {
    let status = reach(g, |f| {
        f.facts
            .iter()
            .find(|fa| !fa.allowed && fa.kind == FactKind::Panic)
            .map(|fa| (fa.line, fa.what.clone(), fa.kind))
    });
    for (i, f) in g.fns.iter().enumerate() {
        if !cfg.is_hot_path(&f.file) || cfg.rule_allows(rule_id::PANIC_PROPAGATION, &f.file) {
            continue;
        }
        // Direct panics in hot files are panic-in-hot-path's domain (and the
        // baseline's); this rule adds the cross-file half: calls that leave
        // the hot set and reach a panic there.
        let Some(e) = g.edges[i]
            .iter()
            .find(|e| !cfg.is_hot_path(&g.fns[e.to].file) && status[e.to].is_some())
        else {
            continue;
        };
        let Some(mut tail) = chain_from(g, e.to, &status) else { continue };
        let mut hops =
            vec![ChainHop { function: f.display(), file: f.file.clone(), line: e.line }];
        hops.append(&mut tail.hops);
        out.push(interproc_finding(
            f,
            rule_id::PANIC_PROPAGATION,
            Severity::Warn,
            format!(
                "hot-path function `{}` calls into code that may panic (`{}` at {}:{}): {}",
                f.display(),
                tail.what,
                tail.src_file,
                tail.src_line,
                chain_text(&hops),
            ),
            "make the callee infallible or return a Result; a panic mid-event-dispatch aborts \
             the whole simulation"
                .to_string(),
            hops,
        ));
    }
}

// ---------------------------------------------------------------------------
// blocking-in-poll

fn blocking_in_poll(g: &CallGraph, cfg: &Config, out: &mut Vec<Finding>) {
    let status = reach(g, |f| {
        f.facts
            .iter()
            .find(|fa| !fa.allowed && fa.kind == FactKind::Blocking)
            .map(|fa| (fa.line, fa.what.clone(), fa.kind))
    });
    for (i, f) in g.fns.iter().enumerate() {
        if f.name != "poll"
            || !cfg.is_poll_path(&f.file)
            || cfg.rule_allows(rule_id::BLOCKING_IN_POLL, &f.file)
        {
            continue;
        }
        let Some(chain) = chain_from(g, i, &status) else { continue };
        out.push(interproc_finding(
            f,
            rule_id::BLOCKING_IN_POLL,
            Severity::Warn,
            format!(
                "`{}` can block the executor thread (`{}` at {}:{}): {}",
                f.display(),
                chain.what,
                chain.src_file,
                chain.src_line,
                chain_text(&chain.hops),
            ),
            "poll bodies must stay non-blocking: hand the wait to the DES scheduler \
             (events/wakers), or annotate the blocking site with \
             allow(blocking-in-poll, \"<bounded-wait argument>\")"
                .to_string(),
            chain.hops,
        ));
    }
}

// ---------------------------------------------------------------------------
// lock-order-cycle

/// How a function's transitive lock set reaches a key.
#[derive(Clone)]
enum LHop {
    Local { line: u32 },
    Via { line: u32, callee: usize },
}

/// Every lock key each function acquires itself or through anything it
/// calls: a least fixpoint. Each function starts from its own acquisitions,
/// then every round unions in the sets its callees had after the previous
/// round, until nothing changes. The result does not depend on declaration
/// order (all members of a call-graph cycle end with the same keys), and
/// each key's first hop is the first call edge on a shortest path to an
/// acquisition, so witness chains always end at one.
fn trans_locks(g: &CallGraph) -> Vec<BTreeMap<String, LHop>> {
    let mut sets: Vec<BTreeMap<String, LHop>> = g
        .fns
        .iter()
        .map(|f| {
            let mut m = BTreeMap::new();
            for a in f.locks.iter().filter(|a| !a.allowed) {
                m.entry(a.key.clone()).or_insert(LHop::Local { line: a.line });
            }
            m
        })
        .collect();
    loop {
        let prev = sets.clone();
        let mut grew = false;
        for (i, es) in g.edges.iter().enumerate() {
            for e in es {
                for k in prev[e.to].keys() {
                    if !sets[i].contains_key(k) {
                        sets[i].insert(k.clone(), LHop::Via { line: e.line, callee: e.to });
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            return sets;
        }
    }
}

/// Chain from `start`'s body to where `key` is finally acquired.
fn lock_chain(
    g: &CallGraph,
    start: usize,
    key: &str,
    sets: &[BTreeMap<String, LHop>],
) -> Vec<ChainHop> {
    let mut hops = Vec::new();
    let mut cur = start;
    loop {
        match sets[cur].get(key) {
            Some(LHop::Local { line }) => {
                hops.push(ChainHop {
                    function: g.fns[cur].display(),
                    file: g.fns[cur].file.clone(),
                    line: *line,
                });
                break;
            }
            Some(LHop::Via { line, callee }) => {
                hops.push(ChainHop {
                    function: g.fns[cur].display(),
                    file: g.fns[cur].file.clone(),
                    line: *line,
                });
                cur = *callee;
                if hops.len() > g.fns.len() {
                    break;
                }
            }
            None => break,
        }
    }
    hops
}

/// One observed "holds A, acquires B" ordering.
struct Witness {
    fn_idx: usize,
    /// Acquisition of the held lock.
    first_line: u32,
    /// The second acquisition (direct) or the call that leads to it.
    second_line: u32,
    /// `Some(callee)` when the second acquisition is behind a call.
    via: Option<usize>,
}

fn lock_order_cycle(g: &CallGraph, cfg: &Config, out: &mut Vec<Finding>) {
    let sets = trans_locks(g);

    // Acquisition-order edges, first witness kept per ordered key pair.
    let mut ledges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        if cfg.rule_allows(rule_id::LOCK_ORDER_CYCLE, &f.file) {
            continue;
        }
        for a in &f.locks {
            if a.allowed {
                continue;
            }
            for b in &f.locks {
                if b.tok > a.tok && b.tok < a.scope_end && !b.allowed {
                    ledges.entry((a.key.clone(), b.key.clone())).or_insert(Witness {
                        fn_idx: i,
                        first_line: a.line,
                        second_line: b.line,
                        via: None,
                    });
                }
            }
            for e in &g.edges[i] {
                if e.tok > a.tok && e.tok < a.scope_end {
                    for k in sets[e.to].keys() {
                        ledges.entry((a.key.clone(), k.clone())).or_insert(Witness {
                            fn_idx: i,
                            first_line: a.line,
                            second_line: e.line,
                            via: Some(e.to),
                        });
                    }
                }
            }
        }
    }

    // Strongly connected components over the key graph; any SCC with more
    // than one node — or a self-loop — is a deadlock-capable cycle.
    let nodes: BTreeSet<&String> = ledges.keys().flat_map(|(a, b)| [a, b]).collect();
    let reaches = |from: &String, to: &String| -> bool {
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            for ((a, b), _) in ledges.range((x.clone(), String::new())..) {
                if a != x {
                    break;
                }
                if b == to {
                    return true;
                }
                if seen.insert(b) {
                    stack.push(b);
                }
            }
        }
        false
    };
    let mut in_cycle: Vec<&String> =
        nodes.iter().copied().filter(|k| reaches(k, k)).collect();
    in_cycle.sort();

    // Group cyclic nodes into components (mutual reachability).
    let mut assigned: BTreeSet<&String> = BTreeSet::new();
    for &k in &in_cycle {
        if assigned.contains(k) {
            continue;
        }
        let comp: Vec<&String> = in_cycle
            .iter()
            .copied()
            .filter(|&m| m == k || (reaches(k, m) && reaches(m, k)))
            .collect();
        for &m in &comp {
            assigned.insert(m);
        }
        // Every intra-component edge is part of the cycle; list each with
        // its witness (for a 2-cycle this is exactly both directions).
        let comp_set: BTreeSet<&String> = comp.iter().copied().collect();
        let mut lines = Vec::new();
        let mut chain: Vec<ChainHop> = Vec::new();
        let mut first: Option<&Witness> = None;
        for ((ka, kb), w) in &ledges {
            if !comp_set.contains(ka) || !comp_set.contains(kb) {
                continue;
            }
            let f = &g.fns[w.fn_idx];
            let how = match w.via {
                None => format!("acquires `{kb}` ({}:{})", f.file, w.second_line),
                Some(callee) => {
                    let sub_chain = lock_chain(g, callee, kb, &sets);
                    format!(
                        "acquires `{kb}` via call ({}:{}) -> {}",
                        f.file,
                        w.second_line,
                        chain_text(&sub_chain),
                    )
                }
            };
            lines.push(format!(
                "`{}` holds `{ka}` ({}:{}) then {how}",
                f.display(),
                f.file,
                w.first_line,
            ));
            if first.is_none() {
                first = Some(w);
                chain.push(ChainHop {
                    function: f.display(),
                    file: f.file.clone(),
                    line: w.first_line,
                });
                chain.push(ChainHop {
                    function: f.display(),
                    file: f.file.clone(),
                    line: w.second_line,
                });
                if let Some(callee) = w.via {
                    chain.extend(lock_chain(g, callee, kb, &sets));
                }
            }
        }
        let Some(w) = first else { continue };
        let f = &g.fns[w.fn_idx];
        let keys: Vec<String> = comp.iter().map(|k| format!("`{k}`")).collect();
        out.push(interproc_finding(
            f,
            rule_id::LOCK_ORDER_CYCLE,
            Severity::Error,
            format!(
                "lock acquisition-order cycle among {}: {}",
                keys.join(", "),
                lines.join("; "),
            ),
            "impose a global acquisition order (always take these locks in one fixed \
             sequence) or collapse the critical sections; a cycle means two threads can \
             deadlock holding one lock each"
                .to_string(),
            chain,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::rules::FileContext;

    fn lock_findings(files: &[(&str, &str)]) -> Vec<String> {
        let cfg = Config::parse("[lint]\n").unwrap();
        let mut decls = Vec::new();
        for (path, src) in files {
            decls.extend(parse_file(&FileContext::new(path, src, &cfg)));
        }
        let g = crate::graph::build(decls);
        run_interproc(&g, &cfg)
            .iter()
            .map(|f| format!("{}:{} {}", f.file, f.line, f.message))
            .collect()
    }

    #[test]
    fn lock_sets_do_not_depend_on_declaration_order() {
        // `f1` and `f2x` call each other; `holds_a` reaches `f1`'s lock of
        // B through `f2x` while holding A, and `holds_b` takes B then A.
        let locks = (
            "src/locks.rs",
            "fn f1() { B.lock(); f2x(); }\n\
             fn holds_a() { let _g = A.lock(); f2x(); }\n\
             fn holds_b() { let _g = B.lock(); A.lock(); }\n",
        );
        let calls = ("src/calls.rs", "fn f2x() { f1(); }\n");
        let f2x_first = lock_findings(&[calls, locks]);
        let f1_first = lock_findings(&[locks, calls]);
        assert_eq!(f2x_first.len(), 1, "{f2x_first:?}");
        assert!(f2x_first[0].contains("lock acquisition-order cycle"), "{f2x_first:?}");
        assert_eq!(f1_first, f2x_first);
    }
}
