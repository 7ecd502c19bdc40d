//! A recursive-descent item/signature parser over the token stream: just
//! enough structure to build a workspace-wide function index — module
//! nesting, `impl` blocks (including `impl Trait for Type` inside function
//! bodies), `fn` signatures, and per-body call sites, lock acquisitions, and
//! determinism-relevant "facts" (wall-clock reads, ambient RNG, panic
//! sources, blocking primitives). Wall-clock, RNG and `.unwrap()`/`.expect()`
//! facts come from `rules::recognize`, the token rules' own recognizer.
//!
//! Like the lexer, the parser never fails: malformed input degrades to
//! fewer recognized items, never to a panic. It is deliberately *not* a
//! type checker — resolution downstream (see [`crate::graph`]) is
//! module-path + method-name matching, and anything ambiguous is recorded
//! as unresolved rather than guessed.

use crate::lexer::{Tok, Token};
use crate::rules::{recognize, FileContext, Hazard};

/// One `fn` with a body, as indexed for the call graph.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Bare function name.
    pub name: String,
    /// `impl` type the fn belongs to, if any (last path segment, generics
    /// stripped): `impl fluid::Pool { fn f… }` → `Pool`.
    pub self_ty: Option<String>,
    /// Module path: crate dir, file-stem module, then inline `mod`s.
    pub module: Vec<String>,
    /// Does the signature take `self` (any form)?
    pub has_self: bool,
    /// Workspace-relative `/`-separated file path.
    pub file: String,
    /// Position of the `fn` keyword.
    pub line: u32,
    pub col: u32,
    /// Trimmed source text of the declaration line (baseline key material).
    pub snippet: String,
    /// Inside `#[cfg(test)]` or a configured test path.
    pub is_test: bool,
    /// Calls made in the body, in token order.
    pub calls: Vec<CallSite>,
    /// Determinism/panic/blocking facts found directly in the body.
    pub facts: Vec<Fact>,
    /// Lock acquisitions in the body, in token order.
    pub locks: Vec<LockAcq>,
}

impl FnDecl {
    /// Display name: `Type::name` or `name`.
    pub fn display(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Path qualifier segments before the name (`a::b::f` → `["a","b"]`);
    /// empty for plain and method calls.
    pub qual: Vec<String>,
    /// `receiver.name(…)` method-call syntax.
    pub is_method: bool,
    pub line: u32,
    pub col: u32,
    /// Code-token index of the callee name (orders calls vs. lock scopes).
    pub tok: usize,
}

/// What kind of fact a body token establishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactKind {
    /// Reads the wall clock (`Instant::now`, `SystemTime`, telemetry timers).
    Wallclock,
    /// Draws ambient/OS entropy.
    Rng,
    /// May panic (`unwrap`/`expect`/`panic!`-family macros).
    Panic,
    /// May block the thread (`.lock()`, Condvar waits, `thread::sleep`).
    Blocking,
}

/// A determinism-relevant token the body contains.
#[derive(Debug, Clone)]
pub struct Fact {
    pub kind: FactKind,
    /// The token that established the fact (for diagnostics).
    pub what: String,
    pub line: u32,
    pub col: u32,
    /// Covered by an inline `xtsim-lint: allow(…)` for the corresponding
    /// rule — allowed facts never seed interprocedural analyses.
    pub allowed: bool,
}

/// One lock acquisition (`recv.lock()` / zero-arg `.read()` / `.write()`).
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Normalized lock identity: `file-stem:receiver-tail` (indices
    /// stripped, so every element of a lock array maps to one key — see
    /// EXPERIMENTS.md for why that is the *conservative* choice).
    pub key: String,
    /// `lock` | `read` | `write`.
    pub method: String,
    pub line: u32,
    pub col: u32,
    /// Code-token index of the method name.
    pub tok: usize,
    /// Code-token index (exclusive) where the guard is dead: end of the
    /// enclosing block for `let`-bound guards (or an explicit `drop(g)`),
    /// end of statement for temporaries.
    pub scope_end: usize,
    /// Covered by an inline `allow(lock-order-cycle, …)` on its line.
    pub allowed: bool,
}

/// Keywords that look like `name(` but are not calls.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "return", "loop", "break", "continue", "move", "in", "as",
    "let", "else", "unsafe", "fn", "where",
];

/// Macro names that may panic at runtime (`debug_assert*` excluded: they
/// compile out of release sims and inventorying them drowns the signal).
const PANIC_MACROS: [&str; 7] =
    ["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Method names that acquire a std lock when called with no arguments.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Method names that block on a Condvar.
const CONDVAR_WAITS: [&str; 3] = ["wait", "wait_timeout", "wait_while"];

/// Parse every `fn` (with a body) in one file.
pub fn parse_file(ctx: &FileContext) -> Vec<FnDecl> {
    let mut out = Vec::new();
    let module = file_module(ctx.path);
    let mut p = Parser { ctx, module, out: &mut out };
    let n = p.ctx.code.len();
    p.items(0, n, &[], None);
    out
}

/// Module path a file contributes: crate dir name + file stem
/// (`lib`/`main`/`mod` stems contribute the parent dir instead).
fn file_module(path: &str) -> Vec<String> {
    let parts: Vec<&str> = path.split('/').collect();
    let mut module = Vec::new();
    if let ["crates", krate, ..] = parts.as_slice() {
        module.push(krate.to_string());
    }
    if let Some(file) = parts.last() {
        let stem = file.strip_suffix(".rs").unwrap_or(file);
        match stem {
            "lib" | "main" | "mod" => {
                if parts.len() >= 2 {
                    let dir = parts[parts.len() - 2];
                    // `src` is a layout dir, not a module — except for the
                    // root package, where it's the only name we have.
                    if (dir != "src" || module.is_empty())
                        && Some(&dir) != module.first().map(|s| s.as_str()).as_ref()
                    {
                        module.push(dir.to_string());
                    }
                }
            }
            s => module.push(s.to_string()),
        }
    }
    module
}

struct Parser<'a, 'b> {
    ctx: &'a FileContext<'a>,
    module: Vec<String>,
    out: &'b mut Vec<FnDecl>,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn ct(&self, i: usize) -> &Token {
        &self.ctx.tokens[self.ctx.code[i]]
    }

    /// Index just past the `}` matching the `{` at code index `open`.
    fn match_brace(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            match self.ct(i).tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Walk items in `[start, end)`: modules, impls, fns; everything else is
    /// skipped token-by-token.
    fn items(&mut self, start: usize, end: usize, mods: &[String], self_ty: Option<&str>) {
        let mut i = start;
        while i < end {
            let t = self.ct(i);
            match t.ident() {
                Some("mod")
                    if i + 2 < end
                        && self.ct(i + 1).ident().is_some()
                        && self.ct(i + 2).is_punct('{') =>
                {
                    let name = self.ct(i + 1).ident().unwrap_or_default().to_string();
                    let close = self.match_brace(i + 2, end);
                    let mut inner = mods.to_vec();
                    inner.push(name);
                    self.items(i + 3, close.saturating_sub(1), &inner, self_ty);
                    i = close;
                }
                Some("impl") => {
                    // Scan to the body `{`; a `;` first means type-position
                    // `impl Trait` (type alias), not a block.
                    let (body, ty) = self.impl_header(i + 1, end);
                    match body {
                        Some(open) => {
                            let close = self.match_brace(open, end);
                            self.items(open + 1, close.saturating_sub(1), mods, ty.as_deref());
                            i = close;
                        }
                        None => i += 1,
                    }
                }
                Some("fn") if i + 1 < end && self.ct(i + 1).ident().is_some() => {
                    i = self.function(i, end, mods, self_ty);
                }
                _ => i += 1,
            }
        }
    }

    /// Parse an `impl` header starting after the keyword: returns the body
    /// `{` index (or `None` for type-position `impl Trait`) and the
    /// extracted self-type name.
    fn impl_header(&self, start: usize, end: usize) -> (Option<usize>, Option<String>) {
        let mut i = start;
        // Skip leading generics `<…>`.
        if i < end && self.ct(i).is_punct('<') {
            i = self.skip_angles(i, end);
        }
        let ty_start = i;
        let mut angle = 0i32;
        let mut for_pos = None;
        while i < end {
            let t = self.ct(i);
            match &t.tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if i > 0 && !self.ct(i - 1).is_punct('-') => angle -= 1,
                Tok::Punct('{') if angle <= 0 => {
                    let ty_from = for_pos.map_or(ty_start, |p: usize| p + 1);
                    return (Some(i), self.type_name(ty_from, i));
                }
                Tok::Punct(';') if angle <= 0 => return (None, None),
                Tok::Ident(s) if s == "for" && angle == 0 => for_pos = Some(i),
                Tok::Ident(s) if s == "where" && angle <= 0 => {
                    // Type ends at the `where`; keep scanning for `{`.
                    let ty_from = for_pos.map_or(ty_start, |p: usize| p + 1);
                    let ty = self.type_name(ty_from, i);
                    let mut j = i + 1;
                    let mut a = 0i32;
                    while j < end {
                        match &self.ct(j).tok {
                            Tok::Punct('<') => a += 1,
                            Tok::Punct('>') if !self.ct(j - 1).is_punct('-') => a -= 1,
                            Tok::Punct('{') if a <= 0 => return (Some(j), ty),
                            Tok::Punct(';') if a <= 0 => return (None, ty),
                            _ => {}
                        }
                        j += 1;
                    }
                    return (None, ty);
                }
                _ => {}
            }
            i += 1;
        }
        (None, None)
    }

    /// Last path segment of the leading type path in `[from, to)`:
    /// `fluid::Pool<T>` → `Pool`; `&mut Foo` → `Foo`.
    fn type_name(&self, from: usize, to: usize) -> Option<String> {
        let mut last = None;
        let mut i = from;
        while i < to {
            match &self.ct(i).tok {
                Tok::Ident(s) if s == "dyn" || s == "mut" || s == "const" => {}
                Tok::Ident(s) => {
                    last = Some(s.clone());
                    // Stop unless a `::` continues the path.
                    if !(i + 2 < to && self.ct(i + 1).is_punct(':') && self.ct(i + 2).is_punct(':'))
                    {
                        break;
                    }
                    i += 2;
                }
                Tok::Punct('&') | Tok::Punct('*') => {}
                Tok::Lifetime(_) => {}
                Tok::Punct('<') => break,
                _ => break,
            }
            i += 1;
        }
        last
    }

    /// Index just past a balanced `<…>` starting at `open`.
    fn skip_angles(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            match &self.ct(i).tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if i > 0 && !self.ct(i - 1).is_punct('-') => {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Parse one `fn` starting at the keyword; returns the index to resume
    /// from.
    fn function(&mut self, kw: usize, end: usize, mods: &[String], self_ty: Option<&str>) -> usize {
        let name_tok = self.ct(kw + 1);
        let name = name_tok.ident().unwrap_or_default().to_string();
        let (line, col) = (self.ct(kw).line, self.ct(kw).col);
        let mut i = kw + 2;
        if i < end && self.ct(i).is_punct('<') {
            i = self.skip_angles(i, end);
        }
        if i >= end || !self.ct(i).is_punct('(') {
            return kw + 2;
        }
        // Parameter list: find the matching `)` and look for a leading
        // `self` at paren depth 1.
        let params_open = i;
        let mut depth = 0i32;
        let mut has_self = false;
        while i < end {
            match &self.ct(i).tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(s) if s == "self" && depth == 1 && i <= params_open + 4 => {
                    has_self = true;
                }
                _ => {}
            }
            i += 1;
        }
        i += 1; // past `)`
        // Return type / where clause, up to the body `{` or a `;`.
        let mut angle = 0i32;
        while i < end {
            match &self.ct(i).tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !self.ct(i - 1).is_punct('-') => angle -= 1,
                Tok::Punct('{') if angle <= 0 => break,
                Tok::Punct(';') if angle <= 0 => return i + 1, // bodiless decl
                Tok::Punct('(') => angle += 1, // tuple types in returns
                Tok::Punct(')') => angle -= 1,
                _ => {}
            }
            i += 1;
        }
        if i >= end {
            return end;
        }
        let body_open = i;
        let body_close = self.match_brace(body_open, end);
        let mut module: Vec<String> = self.module.clone();
        module.extend(mods.iter().cloned());
        let snippet = self
            .ctx
            .lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        let mut decl = FnDecl {
            name,
            self_ty: self_ty.map(str::to_string),
            module,
            has_self,
            file: self.ctx.path.to_string(),
            line,
            col,
            snippet,
            is_test: self.ctx.is_test_line(line),
            calls: Vec::new(),
            facts: Vec::new(),
            locks: Vec::new(),
        };
        self.body(body_open + 1, body_close.saturating_sub(1), mods, self_ty, &mut decl);
        self.out.push(decl);
        body_close
    }

    /// Scan a body for calls/facts/locks; nested items recurse back into
    /// [`Parser::items`] and are excluded from the enclosing body.
    fn body(
        &mut self,
        start: usize,
        end: usize,
        mods: &[String],
        self_ty: Option<&str>,
        decl: &mut FnDecl,
    ) {
        let mut i = start;
        while i < end {
            let t = self.ct(i);
            match t.ident() {
                // Nested items: index them separately, skip their range here.
                Some("fn") if i + 1 < end && self.ct(i + 1).ident().is_some() => {
                    let resume = {
                        let before = self.out.len();
                        let r = self.function(i, end, mods, self_ty);
                        debug_assert!(self.out.len() >= before);
                        r
                    };
                    i = resume;
                    continue;
                }
                Some("impl") => {
                    let (body, ty) = self.impl_header(i + 1, end);
                    if let Some(open) = body {
                        let close = self.match_brace(open, end);
                        self.items(open + 1, close.saturating_sub(1), mods, ty.as_deref());
                        i = close;
                        continue;
                    }
                }
                _ => {}
            }
            self.scan_token(i, end, decl);
            i += 1;
        }
        // Resolve guard scopes now that the whole body is known.
        self.finish_lock_scopes(start, end, decl);
    }

    /// Inspect one body token for call sites, facts, and lock acquisitions.
    fn scan_token(&self, i: usize, end: usize, decl: &mut FnDecl) {
        let t = self.ct(i);
        let Some(name) = t.ident() else { return };
        let (line, col) = (t.line, t.col);

        // Wall-clock, RNG and `.unwrap()`/`.expect()` facts: the token rules'
        // own recognizer, so the two passes cannot drift apart.
        if let Some(h) = recognize(self.ctx, i) {
            let (kind, what) = match h {
                Hazard::Clock | Hazard::Timer => (FactKind::Wallclock, name.to_string()),
                Hazard::Entropy => (FactKind::Rng, name.to_string()),
                Hazard::Unwrap => (FactKind::Panic, format!(".{name}()")),
            };
            let allowed = self.fact_allowed(h.rule(), line);
            decl.facts.push(Fact { kind, what, line, col, allowed });
        }

        // Macro invocation `name!(…)` / `name![…]` / `name!{…}`.
        if i + 1 < end && self.ct(i + 1).is_punct('!') {
            if PANIC_MACROS.contains(&name) {
                decl.facts.push(Fact {
                    kind: FactKind::Panic,
                    what: format!("{name}!"),
                    line,
                    col,
                    allowed: self.fact_allowed(crate::rules::rule_id::PANIC_IN_HOT_PATH, line),
                });
            }
            return;
        }

        // Calls: `name(` with optional turbofish, method/path/plain.
        let mut after = i + 1;
        if i + 3 < end
            && self.ct(i + 1).is_punct(':')
            && self.ct(i + 2).is_punct(':')
            && self.ct(i + 3).is_punct('<')
        {
            after = self.skip_angles(i + 3, end); // `name::<T>(`
        }
        if after >= end || !self.ct(after).is_punct('(') || NON_CALL_KEYWORDS.contains(&name) {
            return;
        }
        let is_method = i >= 1 && self.ct(i - 1).is_punct('.');
        let mut qual = Vec::new();
        if !is_method {
            // Walk `a::b::` backwards, stepping over `::<T>` turbofish
            // segments (`Vec::<u32>::new` has qualifier `Vec`).
            let mut j = i;
            loop {
                if j < 3 || !self.ct(j - 1).is_punct(':') || !self.ct(j - 2).is_punct(':') {
                    break;
                }
                let mut p = j - 3;
                if self.ct(p).is_punct('>') {
                    let mut depth = 0i32;
                    loop {
                        match self.ct(p).tok {
                            Tok::Punct('>') => depth += 1,
                            Tok::Punct('<') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if p == 0 {
                            break;
                        }
                        p -= 1;
                    }
                    if depth != 0
                        || p < 3
                        || !self.ct(p - 1).is_punct(':')
                        || !self.ct(p - 2).is_punct(':')
                    {
                        break;
                    }
                    p -= 3;
                }
                match self.ct(p).ident() {
                    Some(seg) => {
                        qual.push(seg.to_string());
                        j = p;
                    }
                    None => break,
                }
            }
            qual.reverse();
        }

        // Blocking facts: Condvar waits, `thread::sleep`, zero-arg std locks.
        let zero_args = self.ct(after).is_punct('(') && after + 1 < end && self.ct(after + 1).is_punct(')');
        let blocking = (is_method && CONDVAR_WAITS.contains(&name))
            || (qual.last().is_some_and(|q| q == "thread") && name == "sleep")
            || (is_method && LOCK_METHODS.contains(&name) && zero_args);
        if blocking {
            decl.facts.push(Fact {
                kind: FactKind::Blocking,
                what: if is_method { format!(".{name}()") } else { format!("{}::{name}", qual.join("::")) },
                line,
                col,
                allowed: self.fact_allowed(crate::rules::rule_id::BLOCKING_IN_POLL, line),
            });
        }
        // Lock acquisitions: `.lock()` and zero-arg `.read()`/`.write()`
        // (`read(buf)`-style I/O calls take arguments and are skipped).
        if is_method && LOCK_METHODS.contains(&name) && zero_args {
            if let Some(path) = crate::rules::receiver_path(self.ctx, i - 1) {
                decl.locks.push(LockAcq {
                    key: lock_key(self.ctx.path, &path),
                    method: name.to_string(),
                    line,
                    col,
                    tok: i,
                    scope_end: end, // fixed up in finish_lock_scopes
                    allowed: self.fact_allowed(crate::rules::rule_id::LOCK_ORDER_CYCLE, line),
                });
            }
        }

        decl.calls.push(CallSite { name: name.to_string(), qual, is_method, line, col, tok: i });
    }

    /// Is the fact on `line` covered by an inline allow for `rule` or for
    /// its interprocedural counterpart? Allowed facts never seed the
    /// interprocedural analyses. Path allowlists deliberately do NOT count:
    /// a wallclock-allowlisted harness file is still a taint *source* — what
    /// the allowlist excuses is reading the clock there, not sim code
    /// calling into it.
    fn fact_allowed(&self, rule: &str, line: u32) -> bool {
        use crate::rules::rule_id;
        self.ctx.allows.iter().any(|a| {
            a.applies_to.contains(&line)
                && (a.rule == rule
                    || ((rule == rule_id::WALLCLOCK_IN_SIM || rule == rule_id::AMBIENT_RNG)
                        && a.rule == rule_id::TRANSITIVE_TAINT)
                    || (rule == rule_id::PANIC_IN_HOT_PATH
                        && a.rule == rule_id::PANIC_PROPAGATION))
        })
    }

    /// Compute guard lifetimes for the acquisitions in `decl`: `let`-bound
    /// guards live to the end of their enclosing block (or an explicit
    /// `drop(…)` of the binding), temporaries to the end of the statement.
    fn finish_lock_scopes(&self, start: usize, end: usize, decl: &mut FnDecl) {
        if decl.locks.is_empty() {
            return;
        }
        // Brace pairs within the body.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for i in start..end {
            match self.ct(i).tok {
                Tok::Punct('{') => stack.push(i),
                Tok::Punct('}') => {
                    if let Some(open) = stack.pop() {
                        pairs.push((open, i));
                    }
                }
                _ => {}
            }
        }
        for lk in &mut decl.locks {
            // Statement start: walk back to the nearest `;`/`{`/`}` at
            // depth 0 (closing delimiters of groups the site is inside are
            // skipped).
            let mut j = lk.tok;
            let mut depth = 0i32;
            let stmt_start = loop {
                if j == start {
                    break start;
                }
                j -= 1;
                match self.ct(j).tok {
                    Tok::Punct(')') | Tok::Punct(']') => depth += 1,
                    Tok::Punct('(') | Tok::Punct('[') => depth -= 1,
                    Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') if depth <= 0 => {
                        break j + 1;
                    }
                    _ => {}
                }
            };
            let let_bound = self.ct(stmt_start).is_ident("let");
            let guard_name = if let_bound {
                let mut k = stmt_start + 1;
                if k < end && self.ct(k).is_ident("mut") {
                    k += 1;
                }
                self.ct(k).ident().map(str::to_string)
            } else {
                None
            };
            if let_bound {
                // Enclosing block's `}` bounds the guard.
                let mut close = end;
                for &(o, c) in &pairs {
                    if o < lk.tok && lk.tok < c && c < close {
                        close = c;
                    }
                }
                // An explicit `drop(name)` before that ends it earlier.
                if let Some(name) = &guard_name {
                    for k in lk.tok..close.min(end) {
                        if self.ct(k).is_ident("drop")
                            && k + 2 < end
                            && self.ct(k + 1).is_punct('(')
                            && self.ct(k + 2).is_ident(name)
                        {
                            close = k;
                            break;
                        }
                    }
                }
                lk.scope_end = close;
            } else {
                // Temporary guard: dead at the end of the statement.
                let mut k = lk.tok;
                let mut d = 0i32;
                lk.scope_end = loop {
                    if k >= end {
                        break end;
                    }
                    match self.ct(k).tok {
                        Tok::Punct('(') | Tok::Punct('[') => d += 1,
                        Tok::Punct(')') | Tok::Punct(']') => d -= 1,
                        Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') if d <= 0 => break k,
                        _ => {}
                    }
                    k += 1;
                };
            }
        }
    }
}

/// Normalized lock identity: file stem plus the receiver path with index
/// expressions collapsed (`self.shards[i]` → `cache:shards`). Collapsing
/// indices is deliberately conservative: two *different* elements of one
/// lock array acquired together is exactly the unordered-shard-pair hazard
/// the cycle rule exists to catch.
pub fn lock_key(path: &str, receiver: &str) -> String {
    let stem = path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(path);
    // Strip `[…]` index groups, then keep only the final path component:
    // the field that actually holds the lock. Local binding heads
    // (`s.inner` vs `self.inner`) must not split one lock into two keys.
    let mut cleaned = String::new();
    let mut depth = 0i32;
    for c in receiver.chars() {
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            c if depth <= 0 => cleaned.push(c),
            _ => {}
        }
    }
    let tail = cleaned
        .split('.')
        .rfind(|p| !p.is_empty())
        .unwrap_or(cleaned.as_str())
        .to_string();
    format!("{stem}:{tail}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn parse(path: &str, src: &str) -> Vec<FnDecl> {
        let cfg = Config::parse("[lint]\n").unwrap();
        let ctx = FileContext::new(path, src, &cfg);
        parse_file(&ctx)
    }

    #[test]
    fn indexes_free_fns_methods_and_modules() {
        let src = r#"
fn top() { helper(); }
mod inner {
    pub fn helper() {}
}
struct S;
impl S {
    fn method(&self) -> u32 { self.other() }
    fn other(&self) -> u32 { 7 }
}
"#;
        let fns = parse("crates/des/src/executor.rs", src);
        let names: Vec<String> = fns.iter().map(FnDecl::display).collect();
        assert_eq!(names, vec!["top", "helper", "S::method", "S::other"]);
        assert_eq!(fns[0].module, vec!["des", "executor"]);
        assert_eq!(fns[1].module, vec!["des", "executor", "inner"]);
        assert!(fns[2].has_self);
        assert_eq!(fns[0].calls.len(), 1);
        assert_eq!(fns[0].calls[0].name, "helper");
        assert!(fns[2].calls[0].is_method);
    }

    #[test]
    fn impl_trait_for_type_and_nested_impls() {
        let src = r#"
impl Future for Sleep<'_> {
    fn poll(&mut self) -> u32 { 1 }
}
fn wrapper() {
    struct Local;
    impl Drop for Local {
        fn drop(&mut self) { cleanup(); }
    }
    body_call();
}
"#;
        let fns = parse("a.rs", src);
        let names: Vec<String> = fns.iter().map(FnDecl::display).collect();
        assert_eq!(names, vec!["Sleep::poll", "Local::drop", "wrapper"]);
        // wrapper's body excludes the nested impl's calls.
        let wrapper = &fns[2];
        assert_eq!(wrapper.calls.len(), 1);
        assert_eq!(wrapper.calls[0].name, "body_call");
    }

    #[test]
    fn qualified_and_turbofish_calls() {
        let src = "fn f() { a::b::g(); Vec::<u32>::new(); h(); }";
        let fns = parse("a.rs", src);
        let calls = &fns[0].calls;
        assert_eq!(calls[0].name, "g");
        assert_eq!(calls[0].qual, vec!["a", "b"]);
        assert_eq!(calls[1].name, "new");
        assert_eq!(calls[1].qual, vec!["Vec"]);
        assert_eq!(calls[2].name, "h");
        assert!(calls[2].qual.is_empty());
    }

    #[test]
    fn facts_wallclock_rng_panic_blocking() {
        let src = r#"
fn f(m: &std::sync::Mutex<u32>, o: Option<u32>) {
    let _ = std::time::Instant::now();
    let _ = rand::thread_rng();
    let _ = o.unwrap();
    panic!("boom");
    let _g = m.lock().unwrap();
}
"#;
        let fns = parse("a.rs", src);
        let kinds: Vec<FactKind> = fns[0].facts.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FactKind::Wallclock));
        assert!(kinds.contains(&FactKind::Rng));
        assert!(kinds.contains(&FactKind::Panic));
        assert!(kinds.contains(&FactKind::Blocking));
        assert_eq!(fns[0].locks.len(), 1);
        assert_eq!(fns[0].locks[0].key, "a:m");
    }

    #[test]
    fn lock_scopes_let_vs_temp() {
        let src = r#"
fn f(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g = a.lock().unwrap();
    let h = b.lock().unwrap();
    drop(g);
}
fn t(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    *a.lock().unwrap() += 1;
    *b.lock().unwrap() += 1;
}
"#;
        let fns = parse("x.rs", src);
        let f = &fns[0];
        assert_eq!(f.locks.len(), 2);
        // `g` is explicitly dropped, so its scope ends at the drop; `b`'s
        // acquisition still happens inside it (token order).
        assert!(f.locks[0].scope_end > f.locks[1].tok);
        let t = &fns[1];
        // Temp guards die at statement end: the second acquisition is
        // outside the first's scope.
        assert!(t.locks[0].scope_end < t.locks[1].tok);
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let src = "fn f(s: &mut S, buf: &mut [u8]) { s.read(buf); s.inner.read(); }";
        let fns = parse("a.rs", src);
        assert_eq!(fns[0].locks.len(), 1);
        assert_eq!(fns[0].locks[0].key, "a:inner");
    }

    #[test]
    fn bodiless_trait_methods_are_skipped() {
        let src = "trait T { fn decl(&self); fn with_body(&self) { go(); } }";
        let fns = parse("a.rs", src);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_body"]);
    }

    #[test]
    fn file_module_paths() {
        assert_eq!(file_module("crates/des/src/fluid.rs"), vec!["des", "fluid"]);
        assert_eq!(file_module("crates/des/src/lib.rs"), vec!["des"]);
        assert_eq!(file_module("src/lib.rs"), vec!["src"]);
        assert_eq!(file_module("crates/core/src/cache.rs"), vec!["core", "cache"]);
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in [
            "fn", "fn (", "impl", "impl {", "mod {", "fn f(", "fn f() {", "impl X for {",
            "fn f<T(>) {}", "}}}}", "fn f() { a.lock() ",
        ] {
            let _ = parse("a.rs", src);
        }
    }
}
