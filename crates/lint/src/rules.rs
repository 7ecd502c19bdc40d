//! The token-pattern rule engine and the rule catalog.
//!
//! Rules walk the comment-stripped token stream of one file (plus a little
//! file-level context: path scoping from `lint.toml`, `#[cfg(test)]` spans,
//! inline allow comments) and emit [`Finding`]s. Pattern matching is
//! deliberately heuristic — this is a token-level pass, not a type checker —
//! so every rule has an inline escape hatch:
//!
//! ```text
//! // xtsim-lint: allow(<rule-id>, "<reason>")
//! ```
//!
//! which suppresses findings of `<rule-id>` on the comment's own line, or on
//! the next code line when the comment stands alone.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::lexer::{lex, Tok, Token};

/// Rule identifiers (also the `allow(...)` names).
pub mod rule_id {
    /// Iterating a `HashMap`/`HashSet` in a simulator crate.
    pub const NONDET_MAP_ITER: &str = "nondet-map-iter";
    /// Reading the wall clock outside the allowlisted harness paths.
    pub const WALLCLOCK_IN_SIM: &str = "wallclock-in-sim";
    /// Entropy-seeded / ambient RNG outside test code.
    pub const AMBIENT_RNG: &str = "ambient-rng";
    /// Two borrows of one `RefCell` reachable in a single statement.
    pub const REFCELL_REENTRANT_BORROW: &str = "refcell-reentrant-borrow";
    /// `unwrap`/`expect` (warn) and indexing (note) in DES hot paths.
    pub const PANIC_IN_HOT_PATH: &str = "panic-in-hot-path";
    /// `unsafe` without a nearby `// SAFETY:` comment.
    pub const UNSAFE_WITHOUT_SAFETY_COMMENT: &str = "unsafe-without-safety-comment";
    /// An `xtsim-lint:` comment that does not parse.
    pub const MALFORMED_ALLOW: &str = "malformed-allow";
    /// `static mut` or a non-`Sync` global in a simulator crate.
    pub const THREAD_SHARED_MUT: &str = "thread-shared-mut";
    /// An allow comment that suppressed nothing.
    pub const UNUSED_ALLOW: &str = "unused-allow";
    /// A sim-crate function reaching wallclock/ambient-RNG through calls.
    pub const TRANSITIVE_TAINT: &str = "transitive-taint";
    /// A cycle in the lock acquisition-order graph.
    pub const LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
    /// A hot-path function calling a may-panic function outside hot files.
    pub const PANIC_PROPAGATION: &str = "panic-propagation";
    /// A std sync lock/Condvar wait reachable from a `fn poll` body.
    pub const BLOCKING_IN_POLL: &str = "blocking-in-poll";
}

/// Finding severity. `Note` is informational and never fails the run;
/// `Warn` fails under `--deny warnings`; `Error` always fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Note,
    Warn,
    Error,
}

impl Severity {
    /// Lowercase name used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One hop of an interprocedural call chain: `function` (at `file`) does
/// the next step of the chain at `line` — a call for intermediate hops, the
/// offending token itself for the terminal hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    pub function: String,
    pub file: String,
    pub line: u32,
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative `/`-separated path.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
    pub suggestion: String,
    /// The trimmed source line — the baseline key component that survives
    /// line-number drift.
    pub snippet: String,
    /// Interprocedural rules attach the witness call chain (first hop is the
    /// flagged function); token rules leave it empty.
    pub chain: Vec<ChainHop>,
}

/// A parsed `// xtsim-lint: allow(rule, "reason")` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    pub reason: String,
    pub line: u32,
    pub col: u32,
    /// Lines this allow applies to (its own, plus the next code line when
    /// the comment stands alone).
    pub applies_to: Vec<u32>,
    pub used: bool,
}

/// Everything the rules know about one file.
pub struct FileContext<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    /// Source lines (for snippets).
    pub lines: Vec<&'a str>,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub code: Vec<usize>,
    /// Line ranges covered by `#[cfg(test)]` items.
    pub test_spans: Vec<(u32, u32)>,
    /// Whole file is test/bench/example code (by path).
    pub path_is_test: bool,
    /// Parsed allow comments.
    pub allows: Vec<Allow>,
    /// Count of `unsafe` tokens (for the per-crate inventory).
    pub unsafe_count: usize,
}

impl<'a> FileContext<'a> {
    /// Lex and annotate `src`.
    pub fn new(path: &'a str, src: &'a str, cfg: &Config) -> FileContext<'a> {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let lines: Vec<&str> = src.lines().collect();
        let test_spans = find_cfg_test_spans(&tokens, &code);
        let path_is_test = cfg.is_test_path(path);
        let mut ctx = FileContext {
            path,
            lines,
            tokens,
            code,
            test_spans,
            path_is_test,
            allows: Vec::new(),
            unsafe_count: 0,
        };
        ctx.allows = collect_allows(&ctx);
        ctx.unsafe_count = ctx
            .code
            .iter()
            .filter(|&&i| ctx.tokens[i].is_ident("unsafe"))
            .count();
        ctx
    }

    /// The `idx`-th code token.
    fn ct(&self, idx: usize) -> &Token {
        &self.tokens[self.code[idx]]
    }

    /// Trimmed text of a 1-based source line.
    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Is `line` inside test code?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.path_is_test || self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn finding(
        &self,
        idx: usize,
        rule: &'static str,
        severity: Severity,
        message: String,
        suggestion: &str,
    ) -> Finding {
        let t = self.ct(idx);
        Finding {
            file: self.path.to_string(),
            line: t.line,
            col: t.col,
            rule,
            severity,
            message,
            suggestion: suggestion.to_string(),
            snippet: self.snippet(t.line),
            chain: Vec::new(),
        }
    }
}

/// Run the whole catalog over one file.
pub fn run_rules(ctx: &FileContext, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    nondet_map_iter(ctx, cfg, &mut out);
    hazard_tokens(ctx, cfg, &mut out);
    refcell_reentrant_borrow(ctx, cfg, &mut out);
    unsafe_without_safety_comment(ctx, cfg, &mut out);
    thread_shared_mut(ctx, cfg, &mut out);
    malformed_allow_comments(ctx, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    // `for x in map.iter()` trips both the for-loop and the method-call
    // pattern; one diagnostic per line is enough for this rule.
    out.dedup_by(|a, b| {
        a.rule == rule_id::NONDET_MAP_ITER && b.rule == rule_id::NONDET_MAP_ITER && a.line == b.line
    });
    out
}

// ---------------------------------------------------------------------------
// allow comments

/// Recognize `xtsim-lint: allow(rule, "reason")` inside a comment.
fn parse_allow(text: &str) -> Option<Result<(String, String), String>> {
    let rest = text.trim().strip_prefix("xtsim-lint:")?.trim();
    let inner = match rest.strip_prefix("allow(").and_then(|s| s.strip_suffix(')')) {
        Some(inner) => inner,
        None => return Some(Err("expected `allow(<rule>, \"<reason>\")`".to_string())),
    };
    let (rule, reason) = match inner.split_once(',') {
        Some(parts) => parts,
        None => {
            return Some(Err(
                "missing reason: `allow(<rule>, \"<reason>\")` requires a quoted why".to_string(),
            ))
        }
    };
    let rule = rule.trim().to_string();
    let reason = reason.trim();
    let reason = match reason.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        Some(r) if !r.trim().is_empty() => r.to_string(),
        _ => return Some(Err("reason must be a non-empty quoted string".to_string())),
    };
    if rule.is_empty() {
        return Some(Err("empty rule name".to_string()));
    }
    Some(Ok((rule, reason)))
}

fn collect_allows(ctx: &FileContext) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, t) in ctx.tokens.iter().enumerate() {
        let text = match &t.tok {
            Tok::LineComment(s) | Tok::BlockComment(s) => s,
            _ => continue,
        };
        let Some(Ok((rule, reason))) = parse_allow(text) else {
            continue; // malformed ones become findings elsewhere
        };
        // Standalone comment (no code token earlier on its line) also covers
        // the next code line.
        let alone = !ctx.tokens[..i]
            .iter()
            .any(|p| !p.is_comment() && p.line == t.line);
        let mut applies_to = vec![t.line];
        if alone {
            if let Some(next) = ctx
                .tokens[i + 1..]
                .iter()
                .find(|p| !p.is_comment() && p.line > t.line)
            {
                applies_to.push(next.line);
            }
        }
        allows.push(Allow {
            rule,
            reason,
            line: t.line,
            col: t.col,
            applies_to,
            used: false,
        });
    }
    allows
}

fn malformed_allow_comments(ctx: &FileContext, out: &mut Vec<Finding>) {
    for t in &ctx.tokens {
        let text = match &t.tok {
            Tok::LineComment(s) | Tok::BlockComment(s) => s,
            _ => continue,
        };
        if let Some(Err(why)) = parse_allow(text) {
            out.push(Finding {
                file: ctx.path.to_string(),
                line: t.line,
                col: t.col,
                rule: rule_id::MALFORMED_ALLOW,
                severity: Severity::Warn,
                message: format!("unparseable xtsim-lint comment: {why}"),
                suggestion: "write `// xtsim-lint: allow(<rule-id>, \"<why>\")`".to_string(),
                snippet: ctx.snippet(t.line),
                chain: Vec::new(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// cfg(test) spans

/// Line ranges of items annotated `#[cfg(test)]` (or `#[cfg(all(test, …))]`):
/// from the item's opening `{` to its matching `}`.
fn find_cfg_test_spans(tokens: &[Token], code: &[usize]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        let t = &tokens[code[i]];
        if t.is_punct('#') && tokens[code[i + 1]].is_punct('[') {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut has_cfg = false;
            let mut has_test = false;
            let mut has_not = false;
            while j < code.len() && depth > 0 {
                let a = &tokens[code[j]];
                match &a.tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => depth -= 1,
                    Tok::Ident(s) if s == "cfg" => has_cfg = true,
                    Tok::Ident(s) if s == "test" => has_test = true,
                    Tok::Ident(s) if s == "not" => has_not = true,
                    _ => {}
                }
                j += 1;
            }
            if has_cfg && has_test && !has_not {
                // Find the annotated item's `{ … }` body.
                let mut k = j;
                while k < code.len() && !tokens[code[k]].is_punct('{') {
                    // A `;`-terminated item (e.g. `#[cfg(test)] use …;`) has
                    // no body to span.
                    if tokens[code[k]].is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if k < code.len() && tokens[code[k]].is_punct('{') {
                    let open_line = tokens[code[k]].line;
                    let mut braces = 1usize;
                    let mut m = k + 1;
                    while m < code.len() && braces > 0 {
                        match tokens[code[m]].tok {
                            Tok::Punct('{') => braces += 1,
                            Tok::Punct('}') => braces -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    let close_line = tokens[code[m.saturating_sub(1)]].line;
                    spans.push((open_line, close_line));
                    i = m;
                    continue;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

// ---------------------------------------------------------------------------
// nondet-map-iter

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 10] = [
    "iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "retain",
    "into_keys", "into_values",
];
/// Methods that forward to an inner cell/handle when walking back to a
/// receiver: `map.borrow_mut().iter()` iterates `map`.
const PASSTHROUGH_METHODS: [&str; 6] = ["borrow", "borrow_mut", "lock", "as_ref", "as_mut", "clone"];

fn nondet_map_iter(ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
    if !cfg.is_sim_crate(ctx.path) || cfg.rule_allows(rule_id::NONDET_MAP_ITER, ctx.path) {
        return;
    }
    let map_vars = collect_map_vars(ctx);
    if map_vars.is_empty() {
        return;
    }
    let n = ctx.code.len();
    for i in 0..n {
        if ctx.is_test_line(ctx.ct(i).line) {
            continue;
        }
        // `recv.method(` where method is an iteration method.
        if i >= 1
            && i + 1 < n
            && ctx.ct(i).ident().is_some_and(|m| ITER_METHODS.contains(&m))
            && ctx.ct(i - 1).is_punct('.')
            && ctx.ct(i + 1).is_punct('(')
        {
            if let Some(name) = receiver_ident(ctx, i - 1) {
                if map_vars.contains(name) {
                    let method = ctx.ct(i).ident().unwrap_or_default().to_string();
                    out.push(ctx.finding(
                        i,
                        rule_id::NONDET_MAP_ITER,
                        Severity::Error,
                        format!(
                            "`{name}.{method}()` iterates a HashMap/HashSet in a simulator \
                             crate; RandomState iteration order can leak into simulation \
                             results"
                        ),
                        "use BTreeMap/BTreeSet or collect-and-sort keys before iterating; if \
                         order provably cannot reach sim output, annotate with // xtsim-lint: \
                         allow(nondet-map-iter, \"<why>\")",
                    ));
                }
            }
        }
        // `for pat in <expr mentioning a map var> {`
        if ctx.ct(i).is_ident("for") {
            if let Some(name) = for_loop_over_map(ctx, i, &map_vars) {
                out.push(ctx.finding(
                    i,
                    rule_id::NONDET_MAP_ITER,
                    Severity::Error,
                    format!(
                        "`for … in` over HashMap/HashSet `{name}` in a simulator crate; \
                         RandomState iteration order can leak into simulation results"
                    ),
                    "use BTreeMap/BTreeSet or iterate sorted keys; if order provably cannot \
                     reach sim output, annotate with // xtsim-lint: allow(nondet-map-iter, \
                     \"<why>\")",
                ));
            }
        }
    }
}

/// Identifiers bound (anywhere in the file) to a `HashMap`/`HashSet` type:
/// `name: …HashMap<…>` annotations (fields, params, lets) and
/// `let [mut] name = …HashMap::new()`-style initializations.
fn collect_map_vars(ctx: &FileContext) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    let n = ctx.code.len();
    for i in 0..n {
        // A test-only binding must not poison a production identifier of the
        // same name (findings on test lines are skipped anyway).
        if ctx.is_test_line(ctx.ct(i).line) {
            continue;
        }
        // `name : <type…>` — not a path segment (`a::name`).
        if let Some(name) = ctx.ct(i).ident() {
            let colon = i + 1 < n
                && ctx.ct(i + 1).is_punct(':')
                && !(i + 2 < n && ctx.ct(i + 2).is_punct(':'))
                && !(i >= 1 && ctx.ct(i - 1).is_punct(':'));
            if colon && type_mentions_hash(ctx, i + 2) {
                vars.insert(name.to_string());
            }
        }
        // `let [mut] name … = … HashMap::… ;`
        if ctx.ct(i).is_ident("let") {
            let mut j = i + 1;
            if j < n && ctx.ct(j).is_ident("mut") {
                j += 1;
            }
            let Some(name) = ctx.code.get(j).map(|&t| &ctx.tokens[t]).and_then(Token::ident)
            else {
                continue;
            };
            let name = name.to_string();
            // Scan the initializer up to the statement's `;`.
            let mut k = j + 1;
            let mut depth = 0i32;
            let mut saw_hash = false;
            while k < n {
                let t = ctx.ct(k);
                match &t.tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Tok::Punct(';') if depth == 0 => break,
                    Tok::Ident(s) if HASH_TYPES.contains(&s.as_str()) => saw_hash = true,
                    _ => {}
                }
                k += 1;
            }
            if saw_hash {
                vars.insert(name);
            }
        }
    }
    vars
}

/// Does the type expression starting at code index `i` mention
/// `HashMap`/`HashSet` before ending (at `, ; = ) {` at angle-depth 0)?
fn type_mentions_hash(ctx: &FileContext, mut i: usize) -> bool {
    let mut angle = 0i32;
    let mut paren = 0i32;
    while i < ctx.code.len() {
        let t = ctx.ct(i);
        match &t.tok {
            Tok::Ident(s) if HASH_TYPES.contains(&s.as_str()) => return true,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') if paren > 0 => paren -= 1,
            Tok::Punct(',') | Tok::Punct(';') | Tok::Punct('=') | Tok::Punct('{')
            | Tok::Punct(')') | Tok::Punct(']')
                if angle <= 0 && paren <= 0 =>
            {
                return false
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// Walking back from the `.` at code index `dot`, find the root identifier
/// of a receiver chain, skipping passthrough method calls and index groups:
/// `self.world.gates.borrow_mut()` → `gates`; `engines[dst].iter()` →
/// `engines`.
fn receiver_ident<'c>(ctx: &'c FileContext, dot: usize) -> Option<&'c str> {
    let mut j = dot.checked_sub(1)?;
    loop {
        match &ctx.ct(j).tok {
            Tok::Punct(')') => {
                // Skip the call's argument list, then require a passthrough
                // method name so `make_map().iter()` doesn't resolve to a
                // variable.
                j = skip_group_back(ctx, j, '(', ')')?;
                let m = ctx.ct(j).ident()?;
                if !PASSTHROUGH_METHODS.contains(&m) {
                    return None;
                }
                j = j.checked_sub(1)?;
                if !ctx.ct(j).is_punct('.') {
                    return None;
                }
                j = j.checked_sub(1)?;
            }
            Tok::Punct(']') => {
                // Step to the indexed expression's last token (usually the
                // ident before `[`), and let the next iteration consume it.
                j = skip_group_back(ctx, j, '[', ']')?;
            }
            Tok::Ident(name) => return Some(name),
            _ => return None,
        }
    }
}

/// With `close` at code index `j`, return the index just before the matching
/// opener.
fn skip_group_back(ctx: &FileContext, j: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = j;
    loop {
        let t = ctx.ct(k);
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return k.checked_sub(1);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// For a `for` at code index `i`, return a map variable mentioned in the
/// iterated expression (between `in` and the body `{`).
fn for_loop_over_map(ctx: &FileContext, i: usize, map_vars: &BTreeSet<String>) -> Option<String> {
    let n = ctx.code.len();
    // Find `in` at pattern depth 0.
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < n {
        let t = ctx.ct(j);
        match &t.tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Ident(s) if s == "in" && depth == 0 => break,
            Tok::Punct('{') | Tok::Punct(';') => return None,
            _ => {}
        }
        j += 1;
    }
    // Scan the iterated expression to the body's `{`.
    let mut k = j + 1;
    let mut depth = 0i32;
    while k < n {
        let t = ctx.ct(k);
        match &t.tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => return None,
            Tok::Punct(';') => return None,
            Tok::Ident(name) if map_vars.contains(name.as_str()) => {
                return Some(name.clone());
            }
            _ => {}
        }
        k += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// hazard tokens: wallclock-in-sim, ambient-rng, panic-in-hot-path

/// Identifiers that seed an RNG from OS entropy.
const AMBIENT_RNG_IDENTS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "from_os_rng"];

/// A token that reads the wall clock, draws OS entropy, or may panic through
/// `.unwrap()`/`.expect()`. [`recognize`] is the only place these patterns
/// live: [`run_rules`] reports each one under its rule, and the parser
/// records the ones inside `fn` bodies as facts that seed the
/// interprocedural rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hazard {
    /// `Instant::now`, `SystemTime`, `UNIX_EPOCH`.
    Clock,
    /// The xtsim-obs wall-clock timers: `Stopwatch`, `start_timer`,
    /// `observe_since`.
    Timer,
    /// One of [`AMBIENT_RNG_IDENTS`].
    Entropy,
    /// A `.unwrap()` or `.expect(…)` call.
    Unwrap,
}

impl Hazard {
    /// The rule that reports this hazard (and whose inline allow excuses it).
    pub(crate) fn rule(self) -> &'static str {
        match self {
            Hazard::Clock | Hazard::Timer => rule_id::WALLCLOCK_IN_SIM,
            Hazard::Entropy => rule_id::AMBIENT_RNG,
            Hazard::Unwrap => rule_id::PANIC_IN_HOT_PATH,
        }
    }
}

/// Is the code token at index `i` a [`Hazard`]?
pub(crate) fn recognize(ctx: &FileContext, i: usize) -> Option<Hazard> {
    let name = ctx.ct(i).ident()?;
    let next = |k: usize| ctx.code.get(i + k).map(|&t| &ctx.tokens[t]);
    let hazard = match name {
        // Only the *call* reads the clock; a bare import is harmless.
        "Instant"
            if next(1)?.is_punct(':') && next(2)?.is_punct(':') && next(3)?.is_ident("now") =>
        {
            Hazard::Clock
        }
        "SystemTime" | "UNIX_EPOCH" => Hazard::Clock,
        // The xtsim-obs telemetry API is a wall clock behind a nicer name:
        // Stopwatch wraps Instant, start_timer/observe_since record elapsed
        // wall time. Flagging the tokens keeps sim crates from laundering a
        // clock read through the metrics layer.
        "Stopwatch" | "start_timer" | "observe_since" => Hazard::Timer,
        "unwrap" | "expect" if i >= 1 && ctx.ct(i - 1).is_punct('.') && next(1)?.is_punct('(') => {
            Hazard::Unwrap
        }
        _ if AMBIENT_RNG_IDENTS.contains(&name) => Hazard::Entropy,
        _ => return None,
    };
    Some(hazard)
}

/// Report every recognized [`Hazard`] outside test code, under its rule's
/// path scoping (`.unwrap()`/`.expect()` only in hot paths), plus
/// `panic-in-hot-path`'s indexing notes. This stays a per-file token pass
/// rather than the zero-hop case of the interprocedural rules: the parser
/// only sees `fn` bodies, so `static T: LazyLock<Instant> =
/// LazyLock::new(Instant::now);` would otherwise go unflagged.
fn hazard_tokens(ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
    let hot = cfg.is_hot_path(ctx.path) && !cfg.rule_allows(rule_id::PANIC_IN_HOT_PATH, ctx.path);
    for i in 0..ctx.code.len() {
        let t = ctx.ct(i);
        if ctx.is_test_line(t.line) {
            continue;
        }
        let what = t.ident().unwrap_or_default();
        // `ident[…]` indexing — note (informational: slab indexing is the
        // engine's idiom; bounds panics are still panics, so inventory it).
        if hot && t.ident().is_some() && i + 1 < ctx.code.len() && ctx.ct(i + 1).is_punct('[') {
            out.push(ctx.finding(
                i,
                rule_id::PANIC_IN_HOT_PATH,
                Severity::Note,
                format!("indexing `{what}[…]` in a DES hot path can panic on out-of-bounds"),
                "informational: use get()/get_mut() where a miss is reachable",
            ));
        }
        let Some(h) = recognize(ctx, i) else { continue };
        let in_scope = match h {
            Hazard::Unwrap => hot,
            _ => !cfg.rule_allows(h.rule(), ctx.path),
        };
        if !in_scope {
            continue;
        }
        let (severity, message, suggestion) = match h {
            Hazard::Clock => (
                Severity::Error,
                format!(
                    "`{what}` reads the wall clock; simulation results must depend only on \
                     the virtual clock, or figures stop being reproducible"
                ),
                "use SimHandle::now() for simulated time; wall-clock *measurement* belongs in \
                 the paths allowlisted under [allow.wallclock-in-sim] in lint.toml",
            ),
            Hazard::Timer => (
                Severity::Error,
                format!(
                    "`{what}` is a wall-clock telemetry timer (xtsim-obs); calling it here \
                     routes real time into simulation code"
                ),
                "record latencies from the harness side (sweep engine, serve layer) or \
                 allowlist the measurement under [allow.wallclock-in-sim] in lint.toml",
            ),
            Hazard::Entropy => (
                Severity::Error,
                format!(
                    "`{what}` draws OS entropy; simulations must use seeded, deterministic \
                     RNG streams (SimHandle::rng / seed_from_u64)"
                ),
                "thread seeds through JobKey/MachineSpec so reruns reproduce; entropy is only \
                 acceptable in test scaffolding",
            ),
            Hazard::Unwrap => (
                Severity::Warn,
                format!(
                    "`.{what}()` in a DES hot path; a panic mid-event-dispatch aborts the \
                     whole simulation"
                ),
                "prefer returning/propagating, or document the invariant in the expect \
                 message and baseline it (lint-baseline.json)",
            ),
        };
        out.push(ctx.finding(i, h.rule(), severity, message, suggestion));
    }
}

// ---------------------------------------------------------------------------
// refcell-reentrant-borrow

fn refcell_reentrant_borrow(ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.rule_allows(rule_id::REFCELL_REENTRANT_BORROW, ctx.path) {
        return;
    }
    let n = ctx.code.len();
    let mut stmt_start = 0usize;
    // Paren/bracket nesting within the current segment: a `,` at depth 0
    // separates match arms (only one arm ever runs), while a `,` inside
    // `(…)`/`[…]` separates call arguments or array elements (whose borrow
    // guards do coexist).
    let mut depth = 0i32;
    let mut i = 0usize;
    while i <= n {
        let boundary = i == n || {
            let t = ctx.ct(i);
            match &t.tok {
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => true,
                Tok::Punct(',') => depth <= 0,
                Tok::Punct('(') | Tok::Punct('[') => {
                    depth += 1;
                    false
                }
                Tok::Punct(')') | Tok::Punct(']') => {
                    depth -= 1;
                    false
                }
                _ => false,
            }
        };
        if boundary {
            check_stmt_borrows(ctx, stmt_start, i, out);
            stmt_start = i + 1;
            depth = 0;
        }
        i += 1;
    }
}

fn check_stmt_borrows(ctx: &FileContext, start: usize, end: usize, out: &mut Vec<Finding>) {
    // Collect (receiver-path, is_mut, code-index) for each borrow call.
    let mut borrows: Vec<(String, bool, usize)> = Vec::new();
    let mut i = start;
    while i < end {
        let t = ctx.ct(i);
        let is_mut = match t.ident() {
            Some("borrow_mut") => true,
            Some("borrow") => false,
            _ => {
                i += 1;
                continue;
            }
        };
        let called = i >= 1
            && i + 1 < end
            && ctx.ct(i - 1).is_punct('.')
            && ctx.ct(i + 1).is_punct('(');
        if called {
            if let Some(path) = receiver_path(ctx, i - 1) {
                borrows.push((path, is_mut, i));
            }
        }
        i += 1;
    }
    for (k, (path, is_mut, idx)) in borrows.iter().enumerate() {
        for (prev_path, prev_mut, _) in &borrows[..k] {
            if path == prev_path && (*is_mut || *prev_mut) {
                let kinds = match (prev_mut, is_mut) {
                    (true, true) => "borrow_mut × borrow_mut",
                    (true, false) => "borrow_mut then borrow",
                    (false, true) => "borrow then borrow_mut",
                    (false, false) => unreachable!("shared × shared not flagged"),
                };
                out.push(ctx.finding(
                    *idx,
                    rule_id::REFCELL_REENTRANT_BORROW,
                    Severity::Error,
                    format!(
                        "two borrows of RefCell `{path}` reachable in one statement \
                         ({kinds}); both guards live at once panics at runtime"
                    ),
                    "bind the first borrow in its own `let` and end its scope before the \
                     second, or restructure to borrow once",
                ));
                break;
            }
        }
    }
}

/// Full dotted receiver path before the `.` at code index `dot`, including
/// index expressions so `engines[a]` and `engines[b]` stay distinct:
/// `self.world.engines[self.rank]`.
pub(crate) fn receiver_path(ctx: &FileContext, dot: usize) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot.checked_sub(1)?;
    loop {
        match &ctx.ct(j).tok {
            Tok::Punct(']') => {
                // `before` is the last token of the indexed expression; the
                // `[` sits at before+1, the inner tokens at before+2..j.
                let before = skip_group_back(ctx, j, '[', ']')?;
                let inner: Vec<String> =
                    ((before + 2)..j).map(|k| token_text(&ctx.ct(k).tok)).collect();
                parts.push(format!("[{}]", inner.join("")));
                j = before;
                // Let the next iteration consume the indexed expression
                // itself (`engines` in `engines[dst]`).
                continue;
            }
            Tok::Punct(')') => {
                // A call in the chain: keep `name()` as a path component.
                let before = skip_group_back(ctx, j, '(', ')')?;
                let m = ctx.ct(before).ident()?.to_string();
                parts.push(format!("{m}()"));
                j = before;
            }
            Tok::Ident(name) => {
                parts.push(name.clone());
                j = match j.checked_sub(1) {
                    Some(p) if ctx.ct(p).is_punct('.') => match p.checked_sub(1) {
                        Some(q) => q,
                        None => break,
                    },
                    _ => break,
                };
                continue;
            }
            _ => break,
        }
        // After a group, expect `.` to continue the chain.
        j = match j.checked_sub(1) {
            Some(p) if ctx.ct(p).is_punct('.') => match p.checked_sub(1) {
                Some(q) => q,
                None => break,
            },
            _ => break,
        };
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some(parts.join("."))
}

fn token_text(tok: &Tok) -> String {
    match tok {
        Tok::Ident(s) | Tok::Num(s) => s.clone(),
        Tok::Lifetime(s) => format!("'{s}"),
        Tok::Punct(c) => c.to_string(),
        Tok::Str => "\"…\"".to_string(),
        Tok::Char => "'…'".to_string(),
        Tok::LineComment(_) | Tok::BlockComment(_) => String::new(),
    }
}

// ---------------------------------------------------------------------------
// unsafe-without-safety-comment

/// How many lines above an `unsafe` token a `SAFETY:` comment still counts.
const SAFETY_COMMENT_WINDOW: u32 = 6;

fn unsafe_without_safety_comment(ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.rule_allows(rule_id::UNSAFE_WITHOUT_SAFETY_COMMENT, ctx.path) {
        return;
    }
    let safety_lines: Vec<u32> = ctx
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::LineComment(s) | Tok::BlockComment(s) if s.contains("SAFETY") => Some(t.line),
            _ => None,
        })
        .collect();
    for i in 0..ctx.code.len() {
        let t = ctx.ct(i);
        if !t.is_ident("unsafe") {
            continue;
        }
        let covered = safety_lines
            .iter()
            .any(|&l| l <= t.line && t.line - l <= SAFETY_COMMENT_WINDOW);
        if !covered {
            out.push(ctx.finding(
                i,
                rule_id::UNSAFE_WITHOUT_SAFETY_COMMENT,
                Severity::Warn,
                "`unsafe` without a nearby `// SAFETY:` comment".to_string(),
                "state the invariant that makes this sound in a `// SAFETY:` comment \
                 directly above the unsafe block",
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// thread-shared-mut

/// Interior-mutability / shared-ownership types that are not `Sync`: a
/// global of such a type is exactly the state that sweep jobs running on
/// different worker threads must not share.
const NON_SYNC_TYPES: [&str; 4] = ["RefCell", "Cell", "UnsafeCell", "Rc"];

/// Flag `static mut` items and non-`Sync` `static` globals in simulator
/// crates. The sweep pool runs one job's world per worker thread; any
/// process-global mutable state would couple concurrent jobs and break both
/// memory safety (for `static mut`) and determinism. `thread_local!`
/// statics are exempt — per-thread state is the sanctioned pattern (trace
/// capture).
fn thread_shared_mut(ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
    if !cfg.is_sim_crate(ctx.path) || cfg.rule_allows(rule_id::THREAD_SHARED_MUT, ctx.path) {
        return;
    }
    let tl_spans = thread_local_spans(ctx);
    let n = ctx.code.len();
    for i in 0..n {
        let t = ctx.ct(i);
        if !t.is_ident("static") || ctx.is_test_line(t.line) {
            continue;
        }
        if tl_spans.iter().any(|&(a, b)| t.line >= a && t.line <= b) {
            continue;
        }
        if i + 1 < n && ctx.ct(i + 1).is_ident("mut") {
            let name = ctx
                .code
                .get(i + 2)
                .map(|&k| &ctx.tokens[k])
                .and_then(Token::ident)
                .unwrap_or("_");
            out.push(ctx.finding(
                i,
                rule_id::THREAD_SHARED_MUT,
                Severity::Error,
                format!(
                    "`static mut {name}` in a simulator crate; sweep workers run jobs on \
                     parallel threads, and writable process globals are a data race and a \
                     determinism leak"
                ),
                "move the state into the Sim world (Rc/RefCell inside one job's world), use \
                 thread_local!, or an atomic with documented ordering",
            ));
            continue;
        }
        // `static NAME : <type> = …;` — non-Sync type mention in the
        // annotation. (Such code is usually rejected by rustc too; the lint
        // exists to catch it in cfg-gated or macro-expanded paths rustc
        // may not see on every build.)
        if let Some(colon) = ctx.code.get(i + 2).map(|&k| &ctx.tokens[k]) {
            if colon.is_punct(':') && ctx.ct(i + 1).ident().is_some() {
                let name = ctx.ct(i + 1).ident().unwrap_or("_").to_string();
                if static_type_mentions_non_sync(ctx, i + 3) {
                    out.push(ctx.finding(
                        i,
                        rule_id::THREAD_SHARED_MUT,
                        Severity::Error,
                        format!(
                            "global `static {name}` has a non-Sync type \
                             (Cell/RefCell/Rc/UnsafeCell); jobs on different worker threads \
                             must not share interior-mutable state"
                        ),
                        "wrap per-thread state in thread_local!, or keep it inside the job's \
                         Sim world",
                    ));
                }
            }
        }
    }
}

/// Line spans of `thread_local! { … }` invocations.
fn thread_local_spans(ctx: &FileContext) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let n = ctx.code.len();
    let mut i = 0;
    while i + 2 < n {
        if ctx.ct(i).is_ident("thread_local")
            && ctx.ct(i + 1).is_punct('!')
            && ctx.ct(i + 2).is_punct('{')
        {
            let open_line = ctx.ct(i + 2).line;
            let mut depth = 1usize;
            let mut j = i + 3;
            while j < n && depth > 0 {
                match ctx.ct(j).tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let close_line = ctx.ct(j.saturating_sub(1)).line;
            spans.push((open_line, close_line));
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// Does the type annotation starting at code index `i` (after the `:`)
/// mention a non-`Sync` wrapper before its `=` or `;` at angle-depth 0?
fn static_type_mentions_non_sync(ctx: &FileContext, mut i: usize) -> bool {
    let mut angle = 0i32;
    while i < ctx.code.len() {
        let t = ctx.ct(i);
        match &t.tok {
            Tok::Ident(s) if NON_SYNC_TYPES.contains(&s.as_str()) => return true,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('=') | Tok::Punct(';') if angle <= 0 => return false,
            _ => {}
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_cfg() -> Config {
        Config::parse(
            r#"
[lint]
sim_crates = ["**"]
hot_paths = ["hot.rs"]
test_paths = ["**/tests/**"]
"#,
        )
        .unwrap()
    }

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let cfg = sim_cfg();
        let ctx = FileContext::new(path, src, &cfg);
        run_rules(&ctx, &cfg)
    }

    #[test]
    fn detects_map_iteration_via_annotation_and_ctor() {
        let src = r#"
use std::collections::HashMap;
struct S { m: HashMap<u32, u32> }
fn f(s: &S) -> u32 { s.m.values().sum() }
fn g() {
    let mut local = HashMap::new();
    local.insert(1, 2);
    for (k, v) in &local { drop((k, v)); }
}
"#;
        let f = run("a.rs", src);
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec![rule_id::NONDET_MAP_ITER; 2], "{f:#?}");
    }

    #[test]
    fn keyed_access_is_not_iteration() {
        let src = r#"
use std::collections::HashMap;
fn f() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    let _ = m.get(&1);
    m.remove(&1);
    m.entry(3).or_insert(4);
}
"#;
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn map_iter_through_refcell_borrow() {
        let src = r#"
use std::cell::RefCell;
use std::collections::HashMap;
struct S { gates: RefCell<HashMap<u64, u64>> }
fn f(s: &S) -> usize { s.gates.borrow().keys().count() }
"#;
        let f = run("a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rule_id::NONDET_MAP_ITER);
        assert!(f[0].message.contains("gates.keys()"), "{}", f[0].message);
    }

    #[test]
    fn btreemap_is_fine() {
        let src = r#"
use std::collections::BTreeMap;
fn f() {
    let mut m: BTreeMap<u32, u32> = BTreeMap::new();
    for (k, v) in &m { drop((k, v)); }
    let _ = m.values().count();
}
"#;
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn vec_iter_named_like_nothing_is_fine() {
        // `iter()` on a non-map receiver must not fire.
        let src = "fn f(v: &Vec<u32>) -> u32 { v.iter().sum() }";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn wallclock_instant_now_and_systemtime() {
        let src = r#"
fn f() -> std::time::Instant { std::time::Instant::now() }
fn g() { let _ = std::time::SystemTime::now(); }
"#;
        let f = run("a.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == rule_id::WALLCLOCK_IN_SIM));
    }

    #[test]
    fn instant_import_alone_is_fine() {
        assert!(run("a.rs", "use std::time::Instant;").is_empty());
    }

    #[test]
    fn reentrant_borrow_same_statement() {
        let src = "fn f(c: &std::cell::RefCell<u32>) { merge(c.borrow_mut(), c.borrow_mut()); }";
        let f = run("a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rule_id::REFCELL_REENTRANT_BORROW);
    }

    #[test]
    fn sequential_statements_do_not_flag() {
        let src = r#"
fn f(c: &std::cell::RefCell<u32>) {
    *c.borrow_mut() += 1;
    *c.borrow_mut() += 1;
}
"#;
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn distinct_receivers_do_not_flag() {
        let src =
            "fn f(a: &std::cell::RefCell<u32>, b: &std::cell::RefCell<u32>) { merge(a.borrow_mut(), b.borrow_mut()); }";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn distinct_indices_do_not_flag() {
        let src = "fn f(v: &[std::cell::RefCell<u32>]) { merge(v[0].borrow_mut(), v[1].borrow_mut()); }";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn same_index_does_flag() {
        let src = "fn f(v: &[std::cell::RefCell<u32>]) { merge(v[0].borrow_mut(), v[0].borrow_mut()); }";
        let f = run("a.rs", src);
        assert_eq!(f.len(), 1, "{f:#?}");
    }

    #[test]
    fn hot_path_unwrap_warns_and_index_notes() {
        let src = "fn f(v: &[u32], o: Option<u32>) -> u32 { v[0] + o.unwrap() }";
        let f = run("hot.rs", src);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(f
            .iter()
            .any(|x| x.severity == Severity::Warn && x.message.contains("unwrap")));
        assert!(f
            .iter()
            .any(|x| x.severity == Severity::Note && x.message.contains("indexing")));
        // Same file content, not a hot path: nothing fires.
        assert!(run("cold.rs", src).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "fn f(p: *const u32) -> u32 { unsafe { *p } }";
        let f = run("a.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rule_id::UNSAFE_WITHOUT_SAFETY_COMMENT);
        let good = "fn f(p: *const u32) -> u32 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
        assert!(run("a.rs", good).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt_from_determinism_rules() {
        let src = r#"
fn prod() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        for x in m.keys() { drop(x); }
        let _ = std::time::Instant::now();
    }
}
"#;
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn test_paths_are_exempt() {
        let src = "fn t() { let _ = std::time::Instant::now(); }";
        assert!(run("crates/x/tests/a.rs", src).is_empty());
        assert_eq!(run("crates/x/src/a.rs", src).len(), 1);
    }

    #[test]
    fn malformed_allow_is_flagged() {
        let src = "// xtsim-lint: allow(nondet-map-iter)\nfn f() {}";
        let f = run("a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rule_id::MALFORMED_ALLOW);
    }

    #[test]
    fn strings_and_comments_do_not_fire_rules() {
        let src = r#"
fn f() -> &'static str {
    // Instant::now() in a comment, thread_rng() too
    "Instant::now() SystemTime unsafe thread_rng"
}
"#;
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn static_mut_and_non_sync_globals_flagged() {
        let src = r#"
static mut COUNTER: u64 = 0;
static TABLE: std::cell::RefCell<Vec<u32>> = todo!();
static OK: u64 = 7;
static ATOMIC: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
"#;
        let f = run("a.rs", src);
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec![rule_id::THREAD_SHARED_MUT; 2], "{f:#?}");
        assert!(f[0].message.contains("static mut COUNTER"));
        assert!(f[1].message.contains("TABLE"));
    }

    #[test]
    fn thread_local_statics_are_exempt() {
        let src = r#"
thread_local! {
    static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static BUF: std::cell::RefCell<Vec<u8>> = std::cell::RefCell::new(Vec::new());
}
fn f() { DEPTH.with(|d| d.get()); }
"#;
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn static_lifetime_is_not_a_static_item() {
        let src = "fn f(s: &'static str) -> &'static str { s }";
        assert!(run("a.rs", src).is_empty());
    }

    #[test]
    fn ambient_rng_flagged_outside_tests() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }";
        let f = run("a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rule_id::AMBIENT_RNG);
    }
}
