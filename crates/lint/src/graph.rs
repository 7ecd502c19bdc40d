//! Workspace-wide call graph over the [`crate::parser`] item index.
//!
//! Resolution is deliberately approximate — module-path + method-name
//! matching, no type inference — and honest about it: an edge is added only
//! when exactly one candidate survives filtering; everything else is either
//! counted as external (std/closure calls) or recorded in
//! [`CallGraph::unresolved`], never guessed. Method names that collide with
//! ubiquitous std methods (`clone`, `insert`, `lock`, …) are never resolved
//! unqualified; qualified calls (`DiskCache::load`) still resolve.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::FnDecl;

/// A resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee index into [`CallGraph::fns`].
    pub to: usize,
    /// Call-site position in the caller's file.
    pub line: u32,
    pub col: u32,
    /// Call-site code-token index (orders calls against lock scopes).
    pub tok: usize,
}

/// A call we could not pin to one workspace function.
#[derive(Debug, Clone)]
pub struct Unresolved {
    /// Caller index into [`CallGraph::fns`].
    pub from: usize,
    /// Callee name as written.
    pub name: String,
    pub line: u32,
    /// Why resolution declined to guess.
    pub reason: String,
}

/// The workspace call graph (test functions excluded on both ends).
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnDecl>,
    /// Outgoing resolved edges, indexed like `fns`.
    pub edges: Vec<Vec<Edge>>,
    /// Calls with workspace candidates that stayed ambiguous.
    pub unresolved: Vec<Unresolved>,
    /// Calls with no workspace candidate (std, closures, shim-external).
    pub external_calls: usize,
    /// Unqualified method calls skipped because the name collides with a
    /// common std method (would resolve to the wrong thing more often than
    /// the right one).
    pub denylisted_method_calls: usize,
}

impl CallGraph {
    /// Look up a function index by display name (tests/diagnostics).
    pub fn find(&self, display: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.display() == display)
    }
}

/// Method names so common on std types that an unqualified `.name(…)` call
/// must not resolve to a same-named workspace method. Qualified calls
/// (`Type::name`) are unaffected. Losing these edges under-approximates
/// reachability; EXPERIMENTS.md documents the trade.
const STD_METHOD_COLLISIONS: [&str; 66] = [
    "all", "and_then", "any", "append", "as_bytes", "as_mut", "as_ref", "as_str", "borrow",
    "borrow_mut", "bytes", "chain", "chars", "clear", "clone", "cmp", "collect", "contains",
    "contains_key", "count", "drain", "drop", "ends_with", "entry", "eq", "expect", "extend",
    "filter", "find", "first", "flush", "fmt", "fold", "from", "get", "get_mut", "hash", "insert",
    "into", "into_iter", "is_empty", "iter", "iter_mut", "join", "keys", "last", "len", "lines",
    "lock", "map", "max", "min", "next", "parse", "pop", "position", "push", "read", "recv",
    "remove", "send", "sort", "split", "starts_with", "sum", "take",
];

/// Also never resolved unqualified: std sync/IO verbs, such as the atomics'
/// `load`/`store`, whose workspace namesakes (e.g. `DiskCache::load`,
/// `SimBarrier::wait`) are reachable via qualified paths.
const STD_SYNC_COLLISIONS: [&str; 12] = [
    "load", "notify_all", "notify_one", "replace", "set", "store", "swap", "to_string",
    "truncate", "unwrap", "wait", "write",
];

fn is_std_collision(name: &str) -> bool {
    STD_METHOD_COLLISIONS.binary_search(&name).is_ok() || STD_SYNC_COLLISIONS.contains(&name)
}

/// Build the call graph from every parsed declaration. Test functions are
/// dropped entirely: they are neither callers (tests may do anything) nor
/// candidates (production code cannot call them).
pub fn build(decls: Vec<FnDecl>) -> CallGraph {
    let fns: Vec<FnDecl> = decls.into_iter().filter(|d| !d.is_test).collect();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let known_types: BTreeSet<&str> =
        fns.iter().filter_map(|f| f.self_ty.as_deref()).collect();
    let known_mods: BTreeSet<&str> =
        fns.iter().flat_map(|f| f.module.iter().map(String::as_str)).collect();

    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
    let mut unresolved = Vec::new();
    let mut external_calls = 0usize;
    let mut denylisted = 0usize;

    for i in 0..fns.len() {
        for c in &fns[i].calls {
            let cands = match by_name.get(c.name.as_str()) {
                Some(v) => v.as_slice(),
                None => {
                    external_calls += 1;
                    continue;
                }
            };
            let mut push_unresolved = |reason: String| {
                unresolved.push(Unresolved { from: i, name: c.name.clone(), line: c.line, reason });
            };
            if c.is_method {
                if is_std_collision(&c.name) {
                    denylisted += 1;
                    continue;
                }
                let matched: Vec<usize> =
                    cands.iter().copied().filter(|&k| fns[k].has_self).collect();
                // No same-file tie-break here: the receiver's type is
                // unknown, so picking the local impl would be a guess.
                match matched.as_slice() {
                    [] => external_calls += 1,
                    [k] => edges[i].push(Edge { to: *k, line: c.line, col: c.col, tok: c.tok }),
                    many => push_unresolved(format!(
                        "ambiguous method ({} workspace candidates)",
                        many.len()
                    )),
                }
                continue;
            }
            // Path-qualified call: match the last meaningful qualifier
            // against the candidate's impl type or module path.
            let qual: Vec<&str> = c
                .qual
                .iter()
                .map(String::as_str)
                .filter(|q| !matches!(*q, "crate" | "super" | "self" | "std" | "core" | "alloc"))
                .collect();
            let q = match qual.last() {
                Some(&"Self") => match fns[i].self_ty.as_deref() {
                    Some(t) => Some(t.to_string()),
                    None => {
                        push_unresolved("`Self::` outside an impl block".to_string());
                        continue;
                    }
                },
                Some(q) => Some(q.to_string()),
                None => None,
            };
            match q {
                Some(q) => {
                    let matched: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&k| {
                            fns[k].self_ty.as_deref() == Some(q.as_str())
                                || fns[k].module.iter().any(|m| m == &q)
                        })
                        .collect();
                    match narrow(&fns, &matched, &fns[i].file) {
                        Narrowed::One(k) => {
                            edges[i].push(Edge { to: k, line: c.line, col: c.col, tok: c.tok })
                        }
                        Narrowed::Many(n) => push_unresolved(format!(
                            "ambiguous path call `{q}::{}` ({n} candidates)",
                            c.name
                        )),
                        Narrowed::None => {
                            if known_types.contains(q.as_str()) || known_mods.contains(q.as_str())
                            {
                                push_unresolved(format!(
                                    "qualifier `{q}` is known but has no `{}`",
                                    c.name
                                ));
                            } else {
                                // `Vec::new`, `String::from`, … — external type.
                                external_calls += 1;
                            }
                        }
                    }
                }
                None => {
                    // Plain call: free functions only (associated fns need a
                    // `Type::` path; a local closure of the same name wins in
                    // rustc, which is the documented false-edge risk).
                    let matched: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&k| fns[k].self_ty.is_none())
                        .collect();
                    match narrow(&fns, &matched, &fns[i].file) {
                        Narrowed::One(k) => {
                            edges[i].push(Edge { to: k, line: c.line, col: c.col, tok: c.tok })
                        }
                        Narrowed::None => external_calls += 1,
                        Narrowed::Many(n) => push_unresolved(format!(
                            "ambiguous free function ({n} workspace candidates)"
                        )),
                    }
                }
            }
        }
    }
    CallGraph { fns, edges, unresolved, external_calls, denylisted_method_calls: denylisted }
}

enum Narrowed {
    None,
    One(usize),
    Many(usize),
}

/// Collapse a candidate set: unique match wins; otherwise a unique match in
/// the caller's own file wins (local helper shadows same-named items
/// elsewhere); otherwise stay ambiguous.
fn narrow(fns: &[FnDecl], matched: &[usize], caller_file: &str) -> Narrowed {
    match matched {
        [] => Narrowed::None,
        [one] => Narrowed::One(*one),
        many => {
            let local: Vec<usize> =
                many.iter().copied().filter(|&k| fns[k].file == caller_file).collect();
            match local.as_slice() {
                [one] => Narrowed::One(*one),
                _ => Narrowed::Many(many.len()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::parser::parse_file;
    use crate::rules::FileContext;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let cfg = Config::parse("[lint]\ntest_paths = [\"**/tests/**\"]\n").unwrap();
        let mut decls = Vec::new();
        for (path, src) in files {
            let ctx = FileContext::new(path, src, &cfg);
            decls.extend(parse_file(&ctx));
        }
        build(decls)
    }

    fn edge_names(g: &CallGraph, from: &str) -> Vec<String> {
        let i = g.find(from).unwrap();
        g.edges[i].iter().map(|e| g.fns[e.to].display()).collect()
    }

    #[test]
    fn resolves_free_method_and_qualified_calls_across_files() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry(w: Worker) { helper(); w.step(); timing::stamp(); }",
            ),
            ("crates/a/src/util.rs", "pub fn helper() {}"),
            (
                "crates/a/src/worker.rs",
                "pub struct Worker; impl Worker { pub fn step(&self) {} }",
            ),
            ("crates/b/src/timing.rs", "pub fn stamp() {}"),
        ]);
        assert_eq!(edge_names(&g, "entry"), vec!["helper", "Worker::step", "stamp"]);
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
    }

    #[test]
    fn ambiguous_methods_are_recorded_not_guessed() {
        let g = graph_of(&[
            ("a.rs", "struct A; impl A { fn step(&self) {} } fn f(x: A) { x.step(); }"),
            ("b.rs", "struct B; impl B { fn step(&self) {} }"),
        ]);
        // Two `step` candidates in different files: no edge, one unresolved.
        assert!(edge_names(&g, "f").is_empty());
        assert_eq!(g.unresolved.len(), 1);
        assert!(g.unresolved[0].reason.contains("ambiguous"), "{:?}", g.unresolved);
    }

    #[test]
    fn same_file_candidate_narrows_ambiguity() {
        let g = graph_of(&[
            ("a.rs", "struct A; impl A { fn step(&self) {} } fn f(x: A) { x.step(); }"),
            ("tests/b.rs", "struct B; impl B { fn step(&self) {} }"),
        ]);
        // The second `step` is test code, so the first is unique again.
        assert_eq!(edge_names(&g, "f"), vec!["A::step"]);
    }

    #[test]
    fn std_collision_methods_never_resolve_unqualified() {
        let g = graph_of(&[(
            "a.rs",
            "struct M; impl M { fn insert(&self) {} fn wait(&self) {} }\n\
             fn f(m: M, t: std::collections::BTreeMap<u32, u32>) { t.insert(1, 2); m.wait(); }\n\
             fn q(m: &M) { M::wait(m); }",
        )]);
        assert!(edge_names(&g, "f").is_empty());
        assert_eq!(g.denylisted_method_calls, 2);
        // …but the qualified path still resolves.
        assert_eq!(edge_names(&g, "q"), vec!["M::wait"]);
    }

    #[test]
    fn atomic_load_never_resolves_to_a_workspace_load() {
        let g = graph_of(&[
            ("cache.rs", "pub struct Cache; impl Cache { pub fn load(&self) {} }"),
            (
                "metrics.rs",
                "fn get(x: &std::sync::atomic::AtomicU64) -> u64 { x.load(Ordering::Relaxed) }",
            ),
        ]);
        assert!(edge_names(&g, "get").is_empty());
        assert_eq!(g.denylisted_method_calls, 1);
    }

    #[test]
    fn external_and_self_calls() {
        let g = graph_of(&[(
            "a.rs",
            "struct S; impl S { fn go(&self) { Self::assoc(); } fn assoc() {} }\n\
             fn f() { Vec::<u32>::new(); external_thing(); }",
        )]);
        assert_eq!(edge_names(&g, "S::go"), vec!["S::assoc"]);
        // Vec::new (unknown qualifier) and external_thing (no candidate).
        assert_eq!(g.external_calls, 2);
    }

    #[test]
    fn known_qualifier_without_match_is_unresolved() {
        let g = graph_of(&[(
            "a.rs",
            "struct S; impl S { fn real(&self) {} } fn ghost() {} fn f() { S::ghost(); }",
        )]);
        assert_eq!(g.unresolved.len(), 1);
        assert!(g.unresolved[0].reason.contains("known"), "{:?}", g.unresolved);
    }
}
