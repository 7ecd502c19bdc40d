//! `--explain RULE`: rationale, a minimal example, and the suppression
//! syntax for every rule in the catalog. The text here is the authoritative
//! rule documentation; README's table is generated from the same IDs.

use crate::rules::rule_id;

/// One rule's documentation.
pub struct RuleDoc {
    pub rule: &'static str,
    pub severity: &'static str,
    /// One-line summary (also used for the README table).
    pub summary: &'static str,
    /// Why the rule exists, in this workspace specifically.
    pub rationale: &'static str,
    /// A minimal triggering example.
    pub example: &'static str,
    /// How to suppress a true-but-accepted finding.
    pub suppression: &'static str,
}

/// Every rule, in catalog order (token rules first, then interprocedural).
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        rule: rule_id::NONDET_MAP_ITER,
        severity: "error",
        summary: "iterating HashMap/HashSet in sim crates",
        rationale: "HashMap/HashSet iteration order depends on RandomState, so any sim \
result derived from it differs run to run — breaking the byte-identical goldens and the \
serial-vs-parallel sweep identity. Use BTreeMap/BTreeSet or sort before iterating.",
        example: "for (k, v) in &self.flows { ... }   // flows: HashMap<_, _>",
        suppression: "// xtsim-lint: allow(nondet-map-iter, \"order-insensitive fold\")",
    },
    RuleDoc {
        rule: rule_id::WALLCLOCK_IN_SIM,
        severity: "error",
        summary: "Instant::now/SystemTime in sim code",
        rationale: "Simulated time must come from the DES clock. A wall-clock read in a sim \
crate couples results to host speed and load; measurement belongs in the harness paths \
allowlisted in lint.toml.",
        example: "let t0 = std::time::Instant::now();",
        suppression: "// xtsim-lint: allow(wallclock-in-sim, \"harness-side timing\") or \
[allow.wallclock-in-sim] paths in lint.toml",
    },
    RuleDoc {
        rule: rule_id::AMBIENT_RNG,
        severity: "error",
        summary: "thread_rng/OsRng/entropy seeding outside tests",
        rationale: "All randomness must flow from the run's named seed so figures \
regenerate exactly. Ambient entropy (thread_rng, from_entropy, OsRng) silently reseeds \
per process.",
        example: "let mut rng = rand::thread_rng();",
        suppression: "// xtsim-lint: allow(ambient-rng, \"why\") or [allow.ambient-rng] \
paths in lint.toml",
    },
    RuleDoc {
        rule: rule_id::REFCELL_REENTRANT_BORROW,
        severity: "error",
        summary: "two borrows of one RefCell in a statement",
        rationale: "`x.borrow_mut()` while `x.borrow()` is live in the same statement \
panics at runtime; in an event handler that takes down the whole simulation.",
        example: "f(cell.borrow(), cell.borrow_mut());",
        suppression: "// xtsim-lint: allow(refcell-reentrant-borrow, \"distinct cells\")",
    },
    RuleDoc {
        rule: rule_id::PANIC_IN_HOT_PATH,
        severity: "warn (indexing: note)",
        summary: "unwrap/expect/indexing in DES hot paths",
        rationale: "Hot paths (lint.toml `hot_paths`) run once per simulated event; a panic \
there aborts a multi-hour sweep. Prefer match/if-let or propagate a Result. Indexing is \
note-level: visible in JSON, never gating.",
        example: "let ev = self.queue.pop().expect(\"non-empty\");",
        suppression: "// xtsim-lint: allow(panic-in-hot-path, \"invariant: ...\") or a \
lint-baseline.json entry",
    },
    RuleDoc {
        rule: rule_id::UNSAFE_WITHOUT_SAFETY_COMMENT,
        severity: "warn",
        summary: "unsafe block lacking a // SAFETY: comment",
        rationale: "Every unsafe block must state the invariant that makes it sound; the \
per-crate unsafe inventory in the JSON report is CI-pinned so new unsafe is a conscious \
decision.",
        example: "unsafe { ptr.read() }   // no SAFETY: comment above",
        suppression: "write the // SAFETY: comment (preferred), or \
// xtsim-lint: allow(unsafe-without-safety-comment, \"why\")",
    },
    RuleDoc {
        rule: rule_id::THREAD_SHARED_MUT,
        severity: "warn",
        summary: "static mut or non-Sync shared state in threaded code",
        rationale: "The sweep worker pool and the serve pool are the only sanctioned \
threading; shared mutable statics bypass their synchronization and no test can catch the \
race deterministically.",
        example: "static mut COUNTER: u64 = 0;",
        suppression: "// xtsim-lint: allow(thread-shared-mut, \"single-threaded init\")",
    },
    RuleDoc {
        rule: rule_id::MALFORMED_ALLOW,
        severity: "warn",
        summary: "allow comment that doesn't parse or names no rule",
        rationale: "A typo'd suppression silently suppresses nothing; better to fail loudly \
than to believe a finding was excused.",
        example: "// xtsim-lint: allow(wallclock)   // missing reason, unknown rule",
        suppression: "fix the comment: // xtsim-lint: allow(<rule>, \"<reason>\")",
    },
    RuleDoc {
        rule: rule_id::UNUSED_ALLOW,
        severity: "warn",
        summary: "allow comment that suppresses nothing",
        rationale: "When the excused finding is fixed, the allow must go too, or dead \
suppressions accumulate and hide future regressions on the same line.",
        example: "// xtsim-lint: allow(ambient-rng, \"...\") above clean code",
        suppression: "delete the stale allow comment",
    },
    RuleDoc {
        rule: rule_id::TRANSITIVE_TAINT,
        severity: "error",
        summary: "sim code reaching wallclock/RNG through any call chain",
        rationale: "The token rules only see direct calls; a sim function that calls a \
helper that calls Instant::now is just as nondeterministic. This rule walks the \
approximate call graph and reports the frontier function — the last sim-scope caller \
before the chain escapes into harness/compat code — with the full chain in the \
diagnostic, so blame lands once at the fixable boundary.",
        example: "fn step(&mut self) { self.metrics.observe(); }   // observe() -> Instant::now()",
        suppression: "// xtsim-lint: allow(transitive-taint, \"why\") on the fn, or \
[allow.transitive-taint] paths in lint.toml for measurement-side callers",
    },
    RuleDoc {
        rule: rule_id::LOCK_ORDER_CYCLE,
        severity: "error",
        summary: "cycle in the Mutex/RwLock acquisition-order graph",
        rationale: "If one code path locks A then B and another locks B then A (directly \
or through calls), two threads can deadlock holding one each. Lock keys approximate \
identity as file-stem:receiver-tail; the diagnostic lists every edge of the cycle with \
its witness path so both orderings are visible.",
        example: "fn a(){ let g = x.lock(); y.lock(); }  fn b(){ let g = y.lock(); x.lock(); }",
        suppression: "// xtsim-lint: allow(lock-order-cycle, \"why\") on an acquisition \
site, or [allow.lock-order-cycle] paths in lint.toml",
    },
    RuleDoc {
        rule: rule_id::PANIC_PROPAGATION,
        severity: "warn",
        summary: "hot-path fn calling may-panic code outside the hot set",
        rationale: "panic-in-hot-path only sees panics written in hot files; this rule \
adds the calls that leave the hot set and reach an unwrap/expect/panic! elsewhere. The \
chain in the diagnostic shows where the panic actually lives.",
        example: "fn dispatch(&mut self) { helper(); }   // helper() in another file unwraps",
        suppression: "// xtsim-lint: allow(panic-propagation, \"why\") on the hot fn, or \
fix/annotate the panic site (its own allow un-seeds the chain)",
    },
    RuleDoc {
        rule: rule_id::BLOCKING_IN_POLL,
        severity: "warn",
        summary: "std sync lock/Condvar wait reachable from fn poll",
        rationale: "The DES executor is single-threaded cooperative: a poll body that \
blocks on a std Mutex/Condvar (directly or transitively) stalls every other task on its \
thread. Waits belong in the event scheduler.",
        example: "fn poll(...) -> Poll<()> { let g = self.shared.lock().unwrap(); ... }",
        suppression: "// xtsim-lint: allow(blocking-in-poll, \"bounded: ...\") on the \
blocking site or the poll fn",
    },
];

/// Look up one rule's doc by ID.
pub fn find(rule: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.rule == rule)
}

/// Render `--explain RULE` text.
pub fn explain(rule: &str) -> Option<String> {
    let d = find(rule)?;
    Some(format!(
        "{} ({})\n\n  {}\n\nWhy\n  {}\n\nExample\n  {}\n\nSuppression\n  {}\n",
        d.rule, d.severity, d.summary, d.rationale, d.example, d.suppression
    ))
}

/// All rule IDs, for `--explain` error text.
pub fn rule_ids() -> Vec<&'static str> {
    RULE_DOCS.iter().map(|d| d.rule).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_doc() {
        for id in [
            rule_id::NONDET_MAP_ITER,
            rule_id::WALLCLOCK_IN_SIM,
            rule_id::AMBIENT_RNG,
            rule_id::REFCELL_REENTRANT_BORROW,
            rule_id::PANIC_IN_HOT_PATH,
            rule_id::UNSAFE_WITHOUT_SAFETY_COMMENT,
            rule_id::THREAD_SHARED_MUT,
            rule_id::MALFORMED_ALLOW,
            rule_id::UNUSED_ALLOW,
            rule_id::TRANSITIVE_TAINT,
            rule_id::LOCK_ORDER_CYCLE,
            rule_id::PANIC_PROPAGATION,
            rule_id::BLOCKING_IN_POLL,
        ] {
            assert!(find(id).is_some(), "no doc for {id}");
            assert!(explain(id).unwrap().contains(id));
        }
    }

    #[test]
    fn unknown_rule_is_none() {
        assert!(explain("no-such-rule").is_none());
        assert!(rule_ids().len() >= 13);
    }
}
