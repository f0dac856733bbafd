//! The LS3DF source lint pass — a token-aware analysis engine (no `syn`,
//! no external deps — the build runs offline). Every file is lexed by
//! [`crate::lexer`] into real tokens, so rules fire on code only:
//! `Instant::now()` inside a string literal, `Ordering::Relaxed` in a doc
//! comment, or `unsafe` in a raw string can never trip a rule (the
//! failure mode of the old line-stripping lint — see
//! `tests/fixtures/` for the regression corpus).
//!
//! Rules (the ids are what `//~ ERROR` fixture markers and the report
//! use). The no-panic, exact-float-compare and hash-container rules are
//! clippy's (`clippy.toml` and the lint attributes every library root
//! carries, which `forbid-unsafe` checks), and unseeded randomness does
//! not compile: the vendored `rand` has no entropy source.
//!
//! * `unsafe-comment` — every `unsafe` needs a `// SAFETY:` comment on
//!   one of the three preceding lines (or its own).
//! * `hot-alloc` — no `vec![`, `Vec::with_capacity`, `.to_vec()`, or
//!   `.clone()` in the SCF hot-path files (`crates/fft/src/` and the
//!   `hamiltonian`/`solver`/`basis` modules of `ls3df-pw`) unless an
//!   `// alloc-audit:` comment within the 3-line window explains why the
//!   allocation is outside the steady-state loop.
//! * `raw-timer` — no ad-hoc `std::time::Instant` in the instrumented
//!   crates (`crates/fft`, `crates/pw`, `crates/core`, `crates/dist`):
//!   timing must flow through `ls3df-obs` so every measurement lands in
//!   the run report. Escape: `// obs-audit:` in the 3-line window.
//! * `atomic-ordering` — every `Ordering::{Relaxed, Acquire, Release,
//!   AcqRel, SeqCst}` in the unsafe/concurrency pool (`shims/rayon/src/`,
//!   `crates/obs/src/`, `src/`) must carry an `// ORDERING:` comment on
//!   its line or the 3 above justifying the memory ordering (why this
//!   strength suffices, what it synchronizes with). Applies to test code
//!   too. Every site — justified or not — is inventoried in
//!   `target/lint-report.json`, so the concurrency surface is reviewable
//!   at a glance before the fragment/processor-group refactor multiplies
//!   it.
//! * `float-reduce` — in the physics crates (`crates/{core,pw,fft,math}/
//!   src`), no schedule-shaped floating-point reduction over a parallel
//!   iterator: a `.sum()`/`.fold(..)`/`.reduce(..)` chained directly on a
//!   `par_iter`-family source, or a `+=`/`-=`/`*=` accumulation inside a
//!   parallel `for_each` closure. The LS3DF determinism contract (thread-
//!   matrix bit-identity) holds because every reduction is a fixed-order
//!   tree (`ls3df_pw::density`, the ordered-`collect` house pattern) —
//!   this rule keeps it honest *by construction*, not just by test.
//!   Escape: a `// reduce-audit:` comment within 8 lines above the
//!   parallel source or the offending token — the wider window because
//!   determinism arguments are written as paragraphs. (The pre-PR-6
//!   `// Audited reduction:` phrasing is no longer honored; every site
//!   has been converted.)
//! * `forbid-unsafe` — the workspace's unsafe surface is exactly three
//!   places: `shims/rayon` (the work-stealing pool), the `ls3df` facade
//!   (`src/alloc_count.rs`), and one item of `crates/math`: the call into
//!   the feature-gated (AVX2 + FMA, AVX-512) instantiations of the packed
//!   GEMM kernel in `crates/math/src/microkernel.rs`. Those crate roots must carry
//!   `#![deny(unsafe_code)]` (with per-site `#[allow]` + `SAFETY:`
//!   comments); every other crate root must carry
//!   `#![forbid(unsafe_code)]`, and an `unsafe` token anywhere in a
//!   forbidden crate is a violation in its own right. In `crates/math`
//!   the allowance is a count, not a scope: the first `unsafe` token of
//!   `microkernel.rs` is the audited one, a second one there — or any in
//!   another file of the crate — fires. Every library root must also
//!   carry [`ROOT_LINT_ATTRS`], so a new crate cannot skip the rules
//!   clippy enforces.
//!
//! Machine-readable output: every run writes `target/lint-report.json`
//! (schema `ls3df-lint-report/v2`) with per-rule violation counts, file
//! counts, and the full atomic-ordering inventory, so BENCH-style trend
//! tracking can pick it up.
//! The run's stdout summary is a table of violations and escape
//! comments (`// SAFETY:`, `// alloc-audit:`, …) per rule.

use crate::lexer::{self, Token, TokenKind};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Every rule id, in reporting order.
pub const RULES: [&str; 6] = [
    "unsafe-comment",
    "hot-alloc",
    "raw-timer",
    "atomic-ordering",
    "float-reduce",
    "forbid-unsafe",
];

/// The escape marker of each rule that has one: a plain `//` comment
/// carrying it, inside the rule's line window, silences a hit. Counting
/// those comments next to the violations shows how often a rule fires on
/// real code and is argued down, as opposed to never firing at all.
const ESCAPE_MARKERS: [(&str, &str); 5] = [
    ("unsafe-comment", "SAFETY:"),
    ("hot-alloc", "alloc-audit:"),
    ("raw-timer", "obs-audit:"),
    ("atomic-ordering", "ORDERING:"),
    ("float-reduce", "reduce-audit:"),
];

/// Files whose steady-state behavior the `alloc-count` test guards:
/// allocation-looking calls here need an `// alloc-audit:` justification.
const HOT_PATHS: [&str; 3] = [
    "crates/pw/src/hamiltonian.rs",
    "crates/pw/src/solver.rs",
    "crates/pw/src/basis.rs",
];

fn is_hot_path(path: &str) -> bool {
    path.starts_with("crates/fft/src/") || HOT_PATHS.contains(&path)
}

/// The unsafe/concurrency pool: every atomic memory ordering here needs
/// an `// ORDERING:` justification and lands in the report inventory.
const ATOMIC_SCOPE: [&str; 3] = ["shims/rayon/src/", "crates/obs/src/", "src/"];

fn in_atomic_scope(path: &str) -> bool {
    ATOMIC_SCOPE.iter().any(|p| path.starts_with(p))
}

/// Crates whose reductions must be fixed-order trees (the determinism
/// contract's floating-point surface).
const FLOAT_REDUCE_SCOPE: [&str; 4] = [
    "crates/core/src/",
    "crates/pw/src/",
    "crates/fft/src/",
    "crates/math/src/",
];

fn in_float_reduce_scope(path: &str) -> bool {
    FLOAT_REDUCE_SCOPE.iter().any(|p| path.starts_with(p))
}

/// Crates allowed to contain `unsafe` (root must `#![deny(unsafe_code)]`
/// and every site needs `#[allow]` + `SAFETY:`). Everything else must
/// `#![forbid(unsafe_code)]`.
const UNSAFE_CRATES: [&str; 3] = ["shims/rayon/", "src/", "crates/math/"];

/// `crates/math/` is on the surface for a single `unsafe`: the dispatch
/// into the `#[target_feature]` instantiations of the packed GEMM kernel
/// (AVX2 + FMA and AVX-512; the baseline tier needs none), in this file.
/// Every other `unsafe` token in the crate is a `forbid-unsafe`
/// violation.
const MATH_UNSAFE_FILE: &str = "crates/math/src/microkernel.rs";

fn in_unsafe_crate(path: &str) -> bool {
    UNSAFE_CRATES.iter().any(|p| path.starts_with(p))
}

/// Is `path` a crate root whose attributes the `forbid-unsafe` rule
/// checks? Library roots only — binaries and examples are covered by the
/// per-token check instead.
fn is_crate_root(path: &str) -> bool {
    if path == "src/lib.rs" {
        return true;
    }
    let parts: Vec<&str> = path.split('/').collect();
    matches!(parts.as_slice(), [top, _, "src", "lib.rs"] if *top == "crates" || *top == "shims")
}

/// The lint attributes every library root carries beside its
/// `unsafe_code` level: through them (and `clippy.toml`), clippy keeps
/// panics and exact float compares out of library code.
pub const ROOT_LINT_ATTRS: [&str; 2] = [
    "#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]",
    "#![cfg_attr(not(test), warn(clippy::float_cmp))]",
];

/// The parallel-iterator sources of the rayon shim: a reduction chained
/// on any of these is schedule-shaped unless audited.
const PAR_SOURCES: [&str; 6] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
];

/// Directories under the workspace root that contain lintable sources.
const SOURCE_ROOTS: [&str; 5] = ["crates", "shims", "src", "tests", "examples"];

/// One rule hit.
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// One `Ordering::…` site found by the `atomic-ordering` rule —
/// justified or not, every site is inventoried in the report.
pub struct OrderingSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The ordering variant (`Relaxed`, `Acquire`, …).
    pub ordering: String,
    /// The text after `ORDERING:` when justified, `None` otherwise.
    pub justification: Option<String>,
}

/// Everything the engine extracts from one file.
#[derive(Default)]
pub struct FileReport {
    /// Rule hits, in source order.
    pub violations: Vec<Violation>,
    /// Atomic-ordering inventory entries (in-scope files only).
    pub ordering_sites: Vec<OrderingSite>,
}

/// Runs the lint pass over the workspace; returns the number of
/// violations (0 = clean) and writes the machine-readable report to
/// `target/lint-report.json`.
pub fn run(root: &Path) -> Result<usize, String> {
    let mut files = Vec::new();
    for dir in SOURCE_ROOTS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    let mut ordering_sites = Vec::new();
    let mut escapes = [0usize; ESCAPE_MARKERS.len()];
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let content =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {rel}: {e}"))?;
        count_escape_comments(&content, &mut escapes);
        let report = lint_source(&rel, &content);
        violations.extend(report.violations);
        ordering_sites.extend(report.ordering_sites);
    }

    let mut out = String::new();
    for v in &violations {
        let _ = writeln!(out, "{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
    }
    if !out.is_empty() {
        eprint!("{out}");
    }
    println!(
        "xtask lint: {} files, {} violation(s)",
        files.len(),
        violations.len()
    );
    println!(
        "  {:<16} {:>10} {:>15}",
        "rule", "violations", "escape comments"
    );
    for rule in RULES {
        let hits = violations.iter().filter(|v| v.rule == rule).count();
        let escaped = ESCAPE_MARKERS
            .iter()
            .position(|(r, _)| *r == rule)
            .map_or("-".to_string(), |k| escapes[k].to_string());
        println!("  {rule:<16} {hits:>10} {escaped:>15}");
    }
    write_report(root, files.len(), &violations, &ordering_sites)?;
    Ok(violations.len())
}

/// Adds to `counts` (one slot per [`ESCAPE_MARKERS`] entry) the plain
/// `//` comments in `content` that carry that entry's marker. Doc
/// comments describe a marker; they do not invoke it.
fn count_escape_comments(content: &str, counts: &mut [usize; ESCAPE_MARKERS.len()]) {
    for t in lexer::lex(content) {
        if t.kind != TokenKind::LineComment
            || t.text.starts_with("///")
            || t.text.starts_with("//!")
        {
            continue;
        }
        for (count, (_, marker)) in counts.iter_mut().zip(ESCAPE_MARKERS) {
            *count += usize::from(t.text.contains(marker));
        }
    }
}

/// Lints a single source file (no filesystem): the entry
/// point the fixture corpus drives. `path` is workspace-relative and
/// decides rule scoping exactly as in a real run.
pub fn lint_source(path: &str, content: &str) -> FileReport {
    let tokens = lexer::lex(content);
    let file = FileCtx {
        path,
        raw_lines: content.lines().collect(),
        toks: lexer::code_tokens(&tokens),
        test_start_line: test_region_start(&tokens),
        path_exempt: is_test_path(path),
    };
    let mut report = FileReport::default();
    rule_unsafe_comment(&file, &mut report);
    rule_hot_alloc(&file, &mut report);
    rule_raw_timer(&file, &mut report);
    rule_atomic_ordering(&file, &mut report);
    rule_float_reduce(&file, &mut report);
    rule_forbid_unsafe(&file, &mut report);
    report
}

// ---------------------------------------------------------------------------
// Per-file context and token helpers
// ---------------------------------------------------------------------------

struct FileCtx<'a> {
    path: &'a str,
    raw_lines: Vec<&'a str>,
    /// Code tokens only — comments are filtered out up front, so a rule
    /// that matches idents can never fire inside one.
    toks: Vec<&'a Token<'a>>,
    /// 1-based line of the first `#[cfg(test)]`; `usize::MAX` when none.
    test_start_line: usize,
    path_exempt: bool,
}

impl FileCtx<'_> {
    /// Is this 1-based line test code (path-exempt file or past the
    /// first `#[cfg(test)]`)?
    fn in_test(&self, line: usize) -> bool {
        self.path_exempt || line >= self.test_start_line
    }

    /// Does any raw line in `[line - above, line]` (1-based) contain
    /// `marker`? The standard escape-hatch window is `above = 3`.
    fn window_has(&self, line: usize, above: usize, marker: &str) -> bool {
        let lo = line.saturating_sub(above + 1);
        self.raw_lines[lo..line.min(self.raw_lines.len())]
            .iter()
            .any(|l| l.contains(marker))
    }

    fn report(&self, out: &mut FileReport, line: usize, rule: &'static str, message: String) {
        out.violations.push(Violation {
            path: self.path.to_string(),
            line,
            rule,
            message,
        });
    }
}

fn is_ident(t: &Token<'_>, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token<'_>, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

/// 1-based line of the first `#[cfg(test)]` attribute (house convention:
/// the unit-test module closes the file), or `usize::MAX`.
fn test_region_start(tokens: &[Token<'_>]) -> usize {
    let toks = lexer::code_tokens(tokens);
    for i in 0..toks.len() {
        let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
        if toks[i..].len() >= pat.len()
            && toks[i..i + pat.len()]
                .iter()
                .zip(pat)
                .all(|(t, p)| t.text == p)
        {
            return toks[i].line;
        }
    }
    usize::MAX
}

/// Is the whole file exempt from the library-only rules? Tests, benches
/// and examples may assert and compare exactly.
fn is_test_path(path: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| path.starts_with(d) || path.contains(&format!("/{d}")))
}

// ---------------------------------------------------------------------------
// Rule passes
// ---------------------------------------------------------------------------

fn rule_unsafe_comment(f: &FileCtx<'_>, out: &mut FileReport) {
    // Policed everywhere, tests included.
    for t in &f.toks {
        if is_ident(t, "unsafe") && !f.window_has(t.line, 3, "SAFETY:") {
            f.report(
                out,
                t.line,
                "unsafe-comment",
                "`unsafe` without a `// SAFETY:` comment on it or the 3 lines above".into(),
            );
        }
    }
}

fn rule_hot_alloc(f: &FileCtx<'_>, out: &mut FileReport) {
    if !is_hot_path(f.path) {
        return;
    }
    for i in 0..f.toks.len() {
        let t = f.toks[i];
        if f.in_test(t.line) {
            continue;
        }
        let allocates = (is_ident(t, "vec") && f.toks.get(i + 1).is_some_and(|n| is_punct(n, "!")))
            || (is_ident(t, "Vec")
                && f.toks.get(i + 1).is_some_and(|n| is_punct(n, "::"))
                && f.toks
                    .get(i + 2)
                    .is_some_and(|n| is_ident(n, "with_capacity")))
            || (is_punct(t, ".")
                && f.toks
                    .get(i + 1)
                    .is_some_and(|n| is_ident(n, "to_vec") || is_ident(n, "clone"))
                && f.toks.get(i + 2).is_some_and(|n| is_punct(n, "(")));
        if allocates && !f.window_has(t.line, 3, "alloc-audit:") {
            f.report(
                out,
                t.line,
                "hot-alloc",
                "allocation in an SCF hot-path file — justify with an \
                 `// alloc-audit:` comment on it or the 3 lines above, \
                 or move it out of the steady-state loop"
                    .into(),
            );
        }
    }
}

/// Files where timing must flow through ls3df-obs: the four
/// instrumented crates (the transport layer records send/recv latency
/// histograms, so its timing is report-bearing too). `ls3df-obs` itself
/// (crates/obs) owns the raw clock and is out of scope by construction.
fn raw_timer_in_scope(path: &str) -> bool {
    [
        "crates/fft/src/",
        "crates/pw/src/",
        "crates/core/src/",
        "crates/dist/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

fn rule_raw_timer(f: &FileCtx<'_>, out: &mut FileReport) {
    if !raw_timer_in_scope(f.path) || f.path_exempt {
        return;
    }
    for t in &f.toks {
        if f.in_test(t.line) {
            continue;
        }
        if is_ident(t, "Instant") && !f.window_has(t.line, 3, "obs-audit:") {
            f.report(
                out,
                t.line,
                "raw-timer",
                "ad-hoc `Instant` in an instrumented crate — time through \
                 ls3df-obs (`Stopwatch` or `span!`) so the measurement \
                 reaches the run report, or justify with an \
                 `// obs-audit:` comment on it or the 3 lines above"
                    .into(),
            );
        }
    }
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn rule_atomic_ordering(f: &FileCtx<'_>, out: &mut FileReport) {
    if !in_atomic_scope(f.path) {
        return;
    }
    // Policed everywhere, tests included: a test's atomics document the
    // contract just like library code's.
    for i in 0..f.toks.len() {
        let t = f.toks[i];
        if !is_ident(t, "Ordering") || !f.toks.get(i + 1).is_some_and(|n| is_punct(n, "::")) {
            continue;
        }
        let Some(variant) = f
            .toks
            .get(i + 2)
            .filter(|n| ATOMIC_ORDERINGS.iter().any(|o| is_ident(n, o)))
        else {
            continue; // `cmp::Ordering::Less` and friends are not atomics
        };
        let justification = ordering_justification(f, t.line);
        if justification.is_none() {
            f.report(
                out,
                t.line,
                "atomic-ordering",
                format!(
                    "`Ordering::{}` without an `// ORDERING:` justification on its \
                     line or the 3 above — state why this memory ordering suffices",
                    variant.text
                ),
            );
        }
        out.ordering_sites.push(OrderingSite {
            path: f.path.to_string(),
            line: t.line,
            ordering: variant.text.to_string(),
            justification,
        });
    }
}

/// The text after `ORDERING:` in the escape window, when present.
fn ordering_justification(f: &FileCtx<'_>, line: usize) -> Option<String> {
    let lo = line.saturating_sub(4);
    for l in f.raw_lines[lo..line.min(f.raw_lines.len())].iter().rev() {
        if let Some(pos) = l.find("ORDERING:") {
            return Some(l[pos + "ORDERING:".len()..].trim().to_string());
        }
    }
    None
}

/// `reduce-audit:` is the one and only escape phrasing; the legacy
/// `Audited reduction:` form was retired once the last sites converted.
fn reduce_audited(f: &FileCtx<'_>, line: usize) -> bool {
    f.window_has(line, 8, "reduce-audit:")
}

fn rule_float_reduce(f: &FileCtx<'_>, out: &mut FileReport) {
    if !in_float_reduce_scope(f.path) || f.path_exempt {
        return;
    }
    for i in 0..f.toks.len() {
        let t = f.toks[i];
        if f.in_test(t.line) || !PAR_SOURCES.iter().any(|s| is_ident(t, s)) {
            continue;
        }
        scan_par_chain(f, out, i);
    }
}

/// Walks the method chain after a parallel-source token, flagging
/// schedule-shaped reductions. `depth` is bracket nesting relative to
/// the chain: terminal adapters live at depth 0; closure bodies are
/// deeper. An ordered `collect` ends the parallel part of the chain.
fn scan_par_chain(f: &FileCtx<'_>, out: &mut FileReport, start: usize) {
    let par_line = f.toks[start].line;
    let mut depth = 0i64;
    let mut i = start + 1;
    while i < f.toks.len() {
        let t = f.toks[i];
        match t.text {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokenKind::Punct => {
                depth -= 1;
                if depth < 0 {
                    return; // left the enclosing expression
                }
            }
            ";" if t.kind == TokenKind::Punct && depth == 0 => return,
            _ => {}
        }
        if depth == 0 && is_punct(t, ".") {
            if let Some(m) = f.toks.get(i + 1) {
                if is_ident(m, "collect") {
                    return; // materialized in source order — the house pattern
                }
                if is_ident(m, "sum") || is_ident(m, "fold") || is_ident(m, "reduce") {
                    if !reduce_audited(f, par_line) && !reduce_audited(f, m.line) {
                        f.report(
                            out,
                            m.line,
                            "float-reduce",
                            format!(
                                "`.{}(..)` chained on a parallel iterator — combine through \
                                 a fixed-order tree (ordered `collect` + sequential \
                                 combine, see ls3df_pw::density) or justify with \
                                 `// reduce-audit:`",
                                m.text
                            ),
                        );
                    }
                    return;
                }
                if is_ident(m, "for_each") {
                    scan_for_each_closure(f, out, i + 1, par_line);
                    return;
                }
            }
        }
        i += 1;
    }
}

/// Flags `+=`-style accumulation inside a parallel `for_each` closure:
/// the iteration order over items is schedule-dependent, so compound
/// assignment onto anything shared is a determinism (or soundness) bug.
fn scan_for_each_closure(
    f: &FileCtx<'_>,
    out: &mut FileReport,
    for_each_idx: usize,
    par_line: usize,
) {
    let mut depth = 0i64;
    let mut entered = false;
    for i in for_each_idx..f.toks.len() {
        let t = f.toks[i];
        match t.text {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => {
                depth += 1;
                entered = true;
            }
            ")" | "]" | "}" if t.kind == TokenKind::Punct => {
                depth -= 1;
                if entered && depth == 0 {
                    return; // closed the for_each argument list
                }
            }
            "+=" | "-=" | "*="
                if t.kind == TokenKind::Punct
                    && !reduce_audited(f, par_line)
                    && !reduce_audited(f, t.line) =>
            {
                f.report(
                    out,
                    t.line,
                    "float-reduce",
                    format!(
                        "`{}` accumulation inside a parallel `for_each` — item \
                         order is schedule-dependent; reduce through an ordered \
                         `collect` + fixed-order combine, or justify the \
                         disjointness with `// reduce-audit:`",
                        t.text
                    ),
                );
                return; // one report per closure is enough
            }
            _ => {}
        }
    }
}

fn rule_forbid_unsafe(f: &FileCtx<'_>, out: &mut FileReport) {
    let designated = in_unsafe_crate(f.path);
    if is_crate_root(f.path) {
        let want = if designated { "deny" } else { "forbid" };
        if !has_inner_attr(f, &format!("#![{want}(unsafe_code)]")) {
            f.report(
                out,
                1,
                "forbid-unsafe",
                format!(
                    "crate root must carry `#![{want}(unsafe_code)]` — {}",
                    if designated {
                        "this crate is on the audited unsafe surface (per-site \
                         `#[allow]` + `SAFETY:` only)"
                    } else {
                        "the workspace's unsafe surface is shims/rayon, \
                         src/alloc_count.rs and one call in crates/math/src/microkernel.rs"
                    }
                ),
            );
        }
        for attr in ROOT_LINT_ATTRS.iter().filter(|a| !has_inner_attr(f, a)) {
            f.report(
                out,
                1,
                "forbid-unsafe",
                format!(
                    "crate root must carry `{attr}` — clippy enforces the library rules through it"
                ),
            );
        }
    }
    // How many `unsafe` tokens this file may carry, and what to say about
    // the rest.
    let (allowed, message) = if f.path.starts_with("crates/math/") {
        (
            usize::from(f.path == MATH_UNSAFE_FILE),
            "ls3df-math's audited surface is one `unsafe`: the call into the \
             feature-gated instantiations of the packed kernel (microkernel::run) — \
             this is another",
        )
    } else if !designated {
        (
            0,
            "`unsafe` outside the audited surface (shims/rayon, src/alloc_count.rs, \
             microkernel::run in crates/math) — move the code behind a safe API there",
        )
    } else {
        return;
    };
    let unsafe_tokens = f.toks.iter().filter(|t| is_ident(t, "unsafe"));
    for t in unsafe_tokens.skip(allowed) {
        f.report(out, t.line, "forbid-unsafe", message.into());
    }
}

/// Does the file's code carry `attr`, token for token?
fn has_inner_attr(f: &FileCtx<'_>, attr: &str) -> bool {
    let tokens = lexer::lex(attr);
    let pat = lexer::code_tokens(&tokens);
    f.toks
        .windows(pat.len())
        .any(|w| w.iter().zip(&pat).all(|(t, p)| t.text == p.text))
}

// ---------------------------------------------------------------------------
// File walk, report
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            // `fixtures` holds the lint engine's own known-positive
            // corpus — linting it would report every planted violation.
            if name != "target" && name != ".git" && name != "fixtures" {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Writes `target/lint-report.json`: per-rule counts plus the full
/// atomic-ordering inventory (hand-rolled JSON — same no-deps policy as
/// `ls3df-obs`).
fn write_report(
    root: &Path,
    files_scanned: usize,
    violations: &[Violation],
    ordering_sites: &[OrderingSite],
) -> Result<(), String> {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ls3df-lint-report/v2\",");
    let _ = writeln!(json, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(json, "  \"violations\": {},", violations.len());
    json.push_str("  \"rules\": {\n");
    for (k, rule) in RULES.iter().enumerate() {
        let count = violations.iter().filter(|v| v.rule == *rule).count();
        let comma = if k + 1 < RULES.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{rule}\": {count}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"atomic_ordering_inventory\": [\n");
    for (k, site) in ordering_sites.iter().enumerate() {
        let comma = if k + 1 < ordering_sites.len() {
            ","
        } else {
            ""
        };
        let justification = match &site.justification {
            Some(j) => format!("\"{}\"", json_escape(j)),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"file\": \"{}\", \"line\": {}, \"ordering\": \"{}\", \
             \"justification\": {}}}{comma}",
            json_escape(&site.path),
            site.line,
            site.ordering,
            justification
        );
    }
    json.push_str("  ]\n}\n");

    let target = root.join("target");
    std::fs::create_dir_all(&target).map_err(|e| format!("cannot create target/: {e}"))?;
    let path = target.join("lint-report.json");
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(path: &str, src: &str) -> Vec<(usize, &'static str)> {
        lint_source(path, src)
            .violations
            .into_iter()
            .map(|v| (v.line, v.rule))
            .collect()
    }

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        violations(path, src).into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn test_region_starts_at_cfg_test() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { Instant::now(); }\n}\n";
        assert!(violations("crates/core/src/scf.rs", src).is_empty());
        let src = "fn lib() { Instant::now(); }\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(
            violations("crates/core/src/scf.rs", src),
            [(1, "raw-timer")]
        );
    }

    #[test]
    fn hot_alloc_scoping_and_escape() {
        assert!(is_hot_path("crates/fft/src/plan.rs"));
        assert!(is_hot_path("crates/pw/src/solver.rs"));
        assert!(!is_hot_path("crates/pw/src/mixing.rs"));
        let v = rules_hit(
            "crates/fft/src/plan.rs",
            "fn f() { let v = data.to_vec(); }",
        );
        assert!(v.contains(&"hot-alloc"));
        let v = rules_hit(
            "crates/fft/src/plan.rs",
            "// alloc-audit: one-time plan setup\nfn f() { let v = vec![0; n]; }",
        );
        assert!(!v.contains(&"hot-alloc"));
        let v = rules_hit(
            "crates/pw/src/mixing.rs",
            "fn f() { let v = data.to_vec(); }",
        );
        assert!(!v.contains(&"hot-alloc"));
        // Non-allocating lines are fine in scope.
        let v = rules_hit("crates/pw/src/solver.rs", "fn f() { let v = Vec::new(); }");
        assert!(!v.contains(&"hot-alloc"));
    }

    #[test]
    fn raw_timer_scoping_and_escape() {
        let v = rules_hit(
            "crates/core/src/scf.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(v.contains(&"raw-timer"));
        // Identifiers merely containing the word do not fire.
        let v = rules_hit(
            "crates/core/src/scf.rs",
            "fn f() { let x = InstantaneousRate::new(); }",
        );
        assert!(!v.contains(&"raw-timer"));
        let v = rules_hit(
            "crates/core/src/scf.rs",
            "// obs-audit: diagnostic outside the report\nfn f() { let t = std::time::Instant::now(); }",
        );
        assert!(!v.contains(&"raw-timer"));
        let v = rules_hit(
            "crates/bench/src/bin/fig6.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(!v.contains(&"raw-timer"));
        // The transport layer is in scope (latency histograms are
        // report-bearing timing), with the same escape hatch.
        let v = rules_hit(
            "crates/dist/src/local.rs",
            "fn f() { let deadline = Instant::now(); }",
        );
        assert!(v.contains(&"raw-timer"));
        let v = rules_hit(
            "crates/dist/src/local.rs",
            "// obs-audit: socket bookkeeping, not a measurement\nfn f() { let deadline = Instant::now(); }",
        );
        assert!(!v.contains(&"raw-timer"));
    }

    #[test]
    fn atomic_ordering_justified_vs_bare() {
        let path = "shims/rayon/src/pool.rs";
        let bare = "fn f() { x.store(true, Ordering::Release); }";
        let v = lint_source(path, bare);
        assert_eq!(v.violations.len(), 1);
        assert_eq!(v.violations[0].rule, "atomic-ordering");
        assert_eq!(v.ordering_sites.len(), 1);
        assert!(v.ordering_sites[0].justification.is_none());

        let ok = "// ORDERING: Release pairs with the Acquire probe\n\
                  fn f() { x.store(true, Ordering::Release); }";
        let v = lint_source(path, ok);
        assert!(v.violations.is_empty());
        assert_eq!(
            v.ordering_sites[0].justification.as_deref(),
            Some("Release pairs with the Acquire probe")
        );

        // `cmp::Ordering` is not an atomic.
        let cmp = "fn f() { let o = std::cmp::Ordering::Less; }";
        let v = lint_source(path, cmp);
        assert!(v.violations.is_empty() && v.ordering_sites.is_empty());

        // Out-of-scope files are not policed (and not inventoried).
        let v = lint_source("crates/pw/src/mixing.rs", bare);
        assert!(v.violations.is_empty() && v.ordering_sites.is_empty());
    }

    #[test]
    fn ordering_in_doc_comment_is_invisible() {
        let src = "/// Uses `Ordering::Relaxed` internally.\n// Ordering::SeqCst too\nfn f() {}";
        let v = lint_source("shims/rayon/src/pool.rs", src);
        assert!(v.violations.is_empty() && v.ordering_sites.is_empty());
    }

    #[test]
    fn float_reduce_flags_terminal_reductions() {
        let path = "crates/pw/src/density.rs";
        let bad = "fn f() { let s = xs.par_iter().map(|x| x * 2.0).sum::<f64>(); }";
        assert!(rules_hit(path, bad).contains(&"float-reduce"));
        let bad = "fn f() { let s = xs.into_par_iter().fold(0.0, |a, b| a + b); }";
        assert!(rules_hit(path, bad).contains(&"float-reduce"));
        // The house pattern — ordered collect — is clean.
        let ok = "fn f() { let v: Vec<f64> = xs.par_iter().map(|x| x * 2.0).collect(); }";
        assert!(!rules_hit(path, ok).contains(&"float-reduce"));
        // A sequential sum *after* the materializing collect is clean.
        let ok = "fn f() { let v: Vec<f64> = xs.par_iter().map(g).collect(); let s: f64 = v.iter().sum(); }";
        assert!(!rules_hit(path, ok).contains(&"float-reduce"));
        // Sequential iterators are out of scope entirely.
        let ok = "fn f() { let s = xs.iter().sum::<f64>(); }";
        assert!(!rules_hit(path, ok).contains(&"float-reduce"));
        // An audited site is exempt.
        let ok = "// reduce-audit: integer count, order-free\nfn f() { let s = xs.par_iter().map(|x| x * 2.0).sum::<f64>(); }";
        assert!(!rules_hit(path, ok).contains(&"float-reduce"));
    }

    #[test]
    fn float_reduce_flags_for_each_accumulation() {
        let path = "crates/math/src/gemm.rs";
        let bad = "fn f() { xs.par_iter().for_each(|x| { total += x; }); }";
        assert!(rules_hit(path, bad).contains(&"float-reduce"));
        // Disjoint-output for_each without compound assignment is clean.
        let ok = "fn f() { rows.par_chunks_mut(n).for_each(|r| { fill(r); }); }";
        assert!(!rules_hit(path, ok).contains(&"float-reduce"));
        // The retired legacy phrasing no longer escapes anything.
        let bad = "// Audited reduction: disjoint rows, sequential inner loops\n\
                   fn f() { rows.par_chunks_mut(n).for_each(|r| { r[0] += 1.0; }); }";
        assert!(rules_hit(path, bad).contains(&"float-reduce"));
        // The canonical phrasing is honored within its 8-line window.
        let ok = "// reduce-audit: disjoint rows, sequential inner loops\n\
                  fn f() { rows.par_chunks_mut(n).for_each(|r| { r[0] += 1.0; }); }";
        assert!(!rules_hit(path, ok).contains(&"float-reduce"));
        // `+=` inside a *sequential* for_each is out of scope.
        let ok = "fn f() { xs.iter().for_each(|x| { total += x; }); }";
        assert!(!rules_hit(path, ok).contains(&"float-reduce"));
    }

    /// A crate root with every lint attribute and the given
    /// `unsafe_code` level.
    fn root(level: &str) -> String {
        format!(
            "#![{level}(unsafe_code)]\n{}\nfn f() {{}}",
            ROOT_LINT_ATTRS.join("\n")
        )
    }

    #[test]
    fn forbid_unsafe_root_attributes() {
        // A non-designated crate root needs forbid…
        let v = rules_hit("crates/fft/src/lib.rs", &root("warn"));
        assert_eq!(v, ["forbid-unsafe"]);
        assert!(rules_hit("crates/fft/src/lib.rs", &root("forbid")).is_empty());
        // ls3df-obs holds no `unsafe` and is off the surface.
        assert_eq!(
            rules_hit("crates/obs/src/lib.rs", &root("deny")),
            ["forbid-unsafe"]
        );
        // …a designated one needs deny…
        assert_eq!(
            rules_hit("shims/rayon/src/lib.rs", &root("forbid")),
            ["forbid-unsafe"]
        );
        assert!(rules_hit("shims/rayon/src/lib.rs", &root("deny")).is_empty());
        // …and unsafe tokens outside the surface fire wherever they are.
        let v = rules_hit(
            "crates/fft/src/plan.rs",
            "// SAFETY: irrelevant\nfn f() { unsafe { g() } }",
        );
        assert!(v.contains(&"forbid-unsafe"));
        // Inside the surface, `unsafe` is the unsafe-comment rule's job.
        let v = rules_hit(
            "shims/rayon/src/pool.rs",
            "// SAFETY: contract upheld by caller\nfn f() { unsafe { g() } }",
        );
        assert!(!v.contains(&"forbid-unsafe"));
    }

    #[test]
    fn forbid_unsafe_names_the_missing_lint_attribute() {
        for (k, attr) in ROOT_LINT_ATTRS.iter().enumerate() {
            let src = root("forbid").replace(attr, "");
            let v = lint_source("crates/grid/src/lib.rs", &src).violations;
            assert_eq!(v.len(), 1);
            assert!(v[0].message.contains(attr));
            assert!(!v[0].message.contains(ROOT_LINT_ATTRS[1 - k]));
        }
        // Only library roots carry them: a module or a bin need not.
        let bare = "#![forbid(unsafe_code)]\nfn f() {}";
        assert!(rules_hit("crates/grid/src/io.rs", bare).is_empty());
        assert!(rules_hit("crates/bench/src/bin/fig5.rs", bare).is_empty());
    }

    #[test]
    fn forbid_unsafe_allows_math_exactly_one_item() {
        // The math root is on the surface: deny, not forbid.
        assert_eq!(
            rules_hit("crates/math/src/lib.rs", &root("forbid")),
            ["forbid-unsafe"]
        );
        assert!(rules_hit("crates/math/src/lib.rs", &root("deny")).is_empty());
        // The dispatch call in microkernel.rs is the one allowed `unsafe`…
        let one = "// SAFETY: tier detected\nfn run() { unsafe { avx2() } }";
        assert!(!rules_hit(MATH_UNSAFE_FILE, one).contains(&"forbid-unsafe"));
        // …a second one in the same file fires (on its own line only)…
        let two = format!("{one}\n// SAFETY: no\nfn more() {{ unsafe {{ g() }} }}");
        let hits: Vec<usize> = violations(MATH_UNSAFE_FILE, &two)
            .into_iter()
            .filter(|&(_, rule)| rule == "forbid-unsafe")
            .map(|(line, _)| line)
            .collect();
        assert_eq!(hits, [4]);
        // …and so does any `unsafe` elsewhere in the crate.
        assert!(rules_hit("crates/math/src/gemm.rs", one).contains(&"forbid-unsafe"));
    }

    #[test]
    fn unsafe_in_string_is_invisible() {
        let src = "fn f() { let s = \"unsafe\"; let r = r#\"unsafe { }\"#; }";
        assert!(violations("crates/fft/src/plan.rs", src).is_empty());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
