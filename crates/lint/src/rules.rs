//! Rules R1–R7: the determinism & unsafe-discipline contract.
//!
//! Each rule works on the token stream from [`crate::lexer`], never on
//! raw text, so occurrences inside strings, comments, and test modules
//! can never produce findings. Rules that demand an accompanying
//! comment (`R1`, `R5`, `R6`) resolve it through per-line bookkeeping:
//! a trailing comment on the same line, or a comment reached by walking
//! upward across blank lines, other comments, and attribute-only lines.

use crate::lexer::{lex, test_mask, Comment, Tok};

/// A single lint finding at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id: "R1".."R7".
    pub rule: &'static str,
    pub message: String,
}

/// Crates whose library code must be bit-deterministic (R2 scope).
const DETERMINISTIC_CRATES: &[&str] = &["tensor", "nn", "core", "fleet", "data", "sim"];

/// Crates allowed to read the wall clock (R3 allowlist).
const WALLCLOCK_ALLOWED: &[&str] = &["obs", "serve", "bench"];

/// Crates whose request paths carry the R6 unwrap/expect budget: code a
/// remote client can reach must answer with typed errors, not panics.
const PANIC_BUDGETED_CRATES: &[&str] = &["serve", "net"];

/// Crates whose kernels must never fuse a multiply into an add (R7).
const NEVER_FUSED_CRATES: &[&str] = &["tensor"];

/// Fragments of the fused multiply-add intrinsics' names (R7).
const FUSED_INTRINSICS: &[&str] = &["fmadd", "fmsub", "fnmadd", "fnmsub"];

/// Atomic orderings stronger than `Relaxed` (R5b).
const STRONG_ORDERINGS: &[&str] = &["SeqCst", "Acquire", "Release", "AcqRel"];

/// Extract the crate name from a workspace-relative path:
/// `crates/tensor/src/...` → `tensor`; the root facade (`src/...`)
/// reports as `ntt`.
pub fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name;
        }
    }
    "ntt"
}

/// Per-line facts derived from the lex, used by comment-seeking rules.
struct LineFacts {
    /// Non-doc comment covers this line.
    nondoc_comment: Vec<bool>,
    /// Any comment covers this line; value is indices into `comments`.
    comment_at: Vec<Vec<usize>>,
    /// Line has at least one token that is not part of an attribute.
    code: Vec<bool>,
    /// Line has tokens, all of which belong to attributes.
    attr_only: Vec<bool>,
}

fn line_facts(toks: &[Tok], comments: &[Comment], max_line: u32) -> LineFacts {
    let n = max_line as usize + 2;
    let mut f = LineFacts {
        nondoc_comment: vec![false; n],
        comment_at: vec![Vec::new(); n],
        code: vec![false; n],
        attr_only: vec![false; n],
    };
    for (ci, c) in comments.iter().enumerate() {
        for l in c.start_line..=c.end_line {
            let l = l as usize;
            if l < n {
                f.comment_at[l].push(ci);
                if !c.doc {
                    f.nondoc_comment[l] = true;
                }
            }
        }
    }
    let attr = attribute_mask(toks);
    let mut has_tok = vec![false; n];
    let mut all_attr = vec![true; n];
    for (t, &a) in toks.iter().zip(&attr) {
        let l = t.line as usize;
        if l < n {
            has_tok[l] = true;
            if !a {
                all_attr[l] = false;
            }
        }
    }
    for l in 0..n {
        f.code[l] = has_tok[l] && !all_attr[l];
        f.attr_only[l] = has_tok[l] && all_attr[l];
    }
    f
}

/// Marks tokens belonging to `#[...]` / `#![...]` attributes.
fn attribute_mask(toks: &[Tok]) -> Vec<bool> {
    let n = toks.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if toks[i].is_sym('#') {
            let inner = i + 1 < n && toks[i + 1].is_sym('!');
            let lb = i + if inner { 2 } else { 1 };
            if lb < n && toks[lb].is_sym('[') {
                let mut depth = 0usize;
                let mut j = lb;
                while j < n {
                    if toks[j].is_sym('[') {
                        depth += 1;
                    } else if toks[j].is_sym(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let end = j.min(n - 1);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// True if a comment whose text satisfies `pred` accompanies line `at`:
/// trailing on the same line, or reached by walking upward across
/// comments, blank lines, and attribute-only lines — stopping at the
/// first real code line.
fn has_comment_above(
    facts: &LineFacts,
    comments: &[Comment],
    at: u32,
    pred: impl Fn(&Comment) -> bool,
) -> bool {
    let n = facts.code.len();
    let at = at as usize;
    if at < n {
        for &ci in &facts.comment_at[at] {
            if comments[ci].start_line as usize == at && pred(&comments[ci]) {
                return true;
            }
        }
    }
    let mut l = at.saturating_sub(1);
    while l >= 1 {
        if l >= n {
            break;
        }
        if !facts.comment_at[l].is_empty() {
            let mut jump_to = l;
            for &ci in &facts.comment_at[l] {
                if pred(&comments[ci]) {
                    return true;
                }
                jump_to = jump_to.min(comments[ci].start_line as usize);
            }
            if facts.code[l] {
                // Comment trails real code on this line; if it did not
                // satisfy the predicate, the walk ends here.
                return false;
            }
            l = jump_to.saturating_sub(1);
            continue;
        }
        if facts.code[l] {
            return false;
        }
        // Blank or attribute-only line: keep walking.
        l -= 1;
    }
    false
}

fn contains_ci(haystack: &str, needle: &str) -> bool {
    haystack.to_ascii_lowercase().contains(needle)
}

/// Lint one file. `path` must be workspace-relative with `/` separators.
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let mask = test_mask(toks);
    let max_line = toks
        .iter()
        .map(|t| t.line)
        .chain(lexed.comments.iter().map(|c| c.end_line))
        .max()
        .unwrap_or(1);
    let facts = line_facts(toks, &lexed.comments, max_line);
    let krate = crate_of(path);
    let deterministic = DETERMINISTIC_CRATES.contains(&krate);
    let clock_ok = WALLCLOCK_ALLOWED.contains(&krate);
    let panic_budgeted = PANIC_BUDGETED_CRATES.contains(&krate);
    let never_fused = NEVER_FUSED_CRATES.contains(&krate);
    let mut out = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        out.push(Finding {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    let n = toks.len();
    for i in 0..n {
        if mask[i] {
            continue;
        }
        let t = &toks[i];

        // R1: unsafe needs // SAFETY: (doc "# Safety" also accepted).
        if t.is_word("unsafe") {
            // Exempt fn-pointer types: `unsafe fn(..)`, `unsafe extern "C" fn(..)`.
            let mut j = i + 1;
            if j < n && toks[j].is_word("extern") {
                j += 1;
            }
            let is_fn_ptr = j + 1 < n && toks[j].is_word("fn") && toks[j + 1].is_sym('(');
            if !is_fn_ptr
                && !has_comment_above(&facts, &lexed.comments, t.line, |c| {
                    contains_ci(&c.text, "safety")
                })
            {
                push(
                    t.line,
                    "R1",
                    "`unsafe` without an immediately preceding `// SAFETY:` comment".into(),
                );
            }
        }

        // R2: no HashMap/HashSet in deterministic crates.
        if deterministic && (t.is_word("HashMap") || t.is_word("HashSet")) {
            push(
                t.line,
                "R2",
                format!(
                    "`{}` in deterministic crate `{}` — iteration order is \
                     unstable; use BTreeMap/BTreeSet or sort keys",
                    t.word().unwrap_or_default(),
                    krate
                ),
            );
        }

        // R3: no wall clock outside obs/serve/bench.
        if !clock_ok {
            if t.is_word("Instant")
                && i + 2 < n
                && toks[i + 1].is_sym(':')
                && toks[i + 2].is_sym(':')
                && i + 3 < n
                && toks[i + 3].is_word("now")
            {
                push(
                    t.line,
                    "R3",
                    format!(
                        "`Instant::now()` in crate `{krate}` — wall clock reads \
                         belong in obs/serve/bench (use `ntt_obs::Stopwatch`)"
                    ),
                );
            }
            if t.is_word("SystemTime") {
                push(
                    t.line,
                    "R3",
                    format!(
                        "`SystemTime` in crate `{krate}` — wall clock reads \
                         belong in obs/serve/bench"
                    ),
                );
            }
        }

        // R4: no unseeded entropy anywhere.
        if t.is_word("thread_rng") || t.is_word("from_entropy") || t.is_word("RandomState") {
            push(
                t.line,
                "R4",
                format!(
                    "`{}` is unseeded entropy — all randomness must flow from \
                     an explicit seed",
                    t.word().unwrap_or_default()
                ),
            );
        }

        // R5a: #[allow(...)] needs a justification comment (non-doc).
        if t.is_sym('#') {
            let inner = i + 1 < n && toks[i + 1].is_sym('!');
            let lb = i + if inner { 2 } else { 1 };
            if lb + 1 < n && toks[lb].is_sym('[') && toks[lb + 1].is_word("allow") {
                let justified = has_comment_above(&facts, &lexed.comments, t.line, |c| !c.doc);
                if !justified {
                    push(
                        t.line,
                        "R5",
                        "`#[allow(...)]` without a justification comment".into(),
                    );
                }
            }
        }

        // R5b: non-Relaxed atomic orderings need a justification comment.
        if t.is_word("Ordering") && i + 3 < n && toks[i + 1].is_sym(':') && toks[i + 2].is_sym(':')
        {
            if let Some(w) = toks[i + 3].word() {
                if STRONG_ORDERINGS.contains(&w)
                    && !has_comment_above(&facts, &lexed.comments, t.line, |c| !c.doc)
                {
                    push(
                        t.line,
                        "R5",
                        format!(
                            "`Ordering::{w}` without a justification comment \
                             (why is Relaxed not enough?)"
                        ),
                    );
                }
            }
        }

        // R6: unwrap()/expect() budget on serving paths (serve + net).
        if panic_budgeted
            && t.is_sym('.')
            && i + 2 < n
            && (toks[i + 1].is_word("unwrap") || toks[i + 1].is_word("expect"))
            && toks[i + 2].is_sym('(')
        {
            let justified =
                has_comment_above(&facts, &lexed.comments, toks[i + 1].line, |c| !c.doc);
            if !justified {
                push(
                    toks[i + 1].line,
                    "R6",
                    format!(
                        "`.{}()` on a serving path — return a typed error, or \
                         justify with a `// PANIC-OK:` comment",
                        toks[i + 1].word().unwrap_or_default()
                    ),
                );
            }
        }

        // R7: no fused multiply-add in the tensor kernels.
        if let Some(w) = t.word().filter(|_| never_fused) {
            if w == "mul_add" || FUSED_INTRINSICS.iter().any(|f| w.contains(f)) {
                push(
                    t.line,
                    "R7",
                    format!(
                        "`{w}` fuses a multiply into an add — one rounding \
                         where the other arms round twice ties the bits to \
                         the host; multiply, then add"
                    ),
                );
            }
        }
    }

    // R7 (cont.): no `#[target_feature(enable = "..fma..")]`, under
    // which LLVM may contract the kernels' multiplies and adds.
    for lit in lexed.strings.iter().filter(|_| never_fused) {
        let at = lit.next_tok;
        let in_enable = at >= 4
            && !mask[at - 1]
            && toks[at - 1].is_sym('=')
            && toks[at - 2].is_word("enable")
            && toks[at - 3].is_sym('(')
            && toks[at - 4].is_word("target_feature");
        if in_enable && lit.text.split(',').any(|f| f.trim() == "fma") {
            push(
                lit.line,
                "R7",
                format!(
                    "`target_feature(enable = \"{}\")` enables FMA — the \
                     kernels must multiply, then add, on every arm",
                    lit.text
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        scan_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    // ---- R1 ----

    #[test]
    fn r1_flags_bare_unsafe_block() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        assert_eq!(rules_hit("crates/tensor/src/x.rs", src), vec!["R1"]);
    }

    #[test]
    fn r1_accepts_safety_comment_above() {
        let src = "fn f() {\n    // SAFETY: bounds checked above.\n    unsafe { op() }\n}";
        assert!(rules_hit("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn r1_accepts_trailing_safety_comment() {
        let src = "fn f() { unsafe { op() } // SAFETY: caller contract.\n}";
        assert!(rules_hit("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn r1_accepts_doc_safety_section_through_attributes() {
        let src = "/// Does things.\n///\n/// # Safety\n/// Caller must own the pointer.\n\
                   #[cfg(target_arch = \"x86_64\")]\n#[target_feature(enable = \"avx2\")]\n\
                   pub unsafe fn micro(p: *mut f32) {}";
        assert!(rules_hit("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn r1_exempts_fn_pointer_types() {
        let src = "type KernelFn = unsafe fn(*const f32, *mut f32);\n\
                   type ExternFn = unsafe extern \"C\" fn() -> i32;";
        assert!(rules_hit("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn r1_ignores_unsafe_in_strings_and_comments() {
        let src = "// an unsafe remark\nfn f() { let s = \"unsafe { }\"; let r = r#\"unsafe\"#; }";
        assert!(rules_hit("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn r1_unrelated_comment_does_not_count() {
        let src = "fn f() {\n    // fast path\n    unsafe { op() }\n}";
        assert_eq!(rules_hit("crates/tensor/src/x.rs", src), vec!["R1"]);
    }

    // ---- R2 ----

    #[test]
    fn r2_flags_hashmap_in_deterministic_crate() {
        let src = "use std::collections::HashMap;\nfn f() -> HashMap<u8, u8> { HashMap::new() }";
        let hits = rules_hit("crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|r| *r == "R2"));
    }

    #[test]
    fn r2_allows_hashmap_outside_deterministic_crates() {
        let src = "use std::collections::HashMap;";
        assert!(rules_hit("crates/obs/src/x.rs", src).is_empty());
    }

    #[test]
    fn r2_allows_hashmap_in_test_module() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}";
        assert!(rules_hit("crates/sim/src/x.rs", src).is_empty());
    }

    // ---- R3 ----

    #[test]
    fn r3_flags_instant_now_and_systemtime() {
        let src =
            "fn f() { let t = std::time::Instant::now(); }\nfn g(x: std::time::SystemTime) {}";
        let hits = rules_hit("crates/fleet/src/x.rs", src);
        assert_eq!(hits, vec!["R3", "R3"]);
    }

    #[test]
    fn r3_allows_wall_clock_in_allowlisted_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert!(rules_hit("crates/obs/src/x.rs", src).is_empty());
        assert!(rules_hit("crates/serve/src/x.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/x.rs", src).is_empty());
        // The wire tier hands deadlines to the `Batcher` as relative
        // `Duration`s and never reads a clock itself.
        assert_eq!(rules_hit("crates/net/src/x.rs", src), vec!["R3"]);
    }

    #[test]
    fn r3_does_not_flag_instant_type_uses() {
        // Holding or comparing Instants is fine; only the read is banned.
        let src = "use std::time::Instant;\nfn f(a: Instant, b: Instant) -> bool { a < b }";
        assert!(rules_hit("crates/fleet/src/x.rs", src).is_empty());
    }

    // ---- R4 ----

    #[test]
    fn r4_flags_unseeded_entropy_everywhere() {
        let src = "fn f() { let r = thread_rng(); }";
        assert_eq!(rules_hit("crates/obs/src/x.rs", src), vec!["R4"]);
        let src2 = "fn g() { let s = RandomState::new(); }";
        assert_eq!(rules_hit("crates/serve/src/x.rs", src2), vec!["R4"]);
        let src3 = "fn h() { let r = SmallRng::from_entropy(); }";
        assert_eq!(rules_hit("src/lib.rs", src3), vec!["R4"]);
    }

    // ---- R5 ----

    #[test]
    fn r5_flags_unjustified_allow() {
        let src = "#[allow(dead_code)]\nfn f() {}";
        assert_eq!(rules_hit("crates/nn/src/x.rs", src), vec!["R5"]);
    }

    #[test]
    fn r5_accepts_trailing_or_preceding_comment() {
        let src = "#[allow(dead_code)] // kept for the serde seam\nfn f() {}\n\
                   // staged API, wired in next PR\n#[allow(unused)]\nfn g() {}";
        assert!(rules_hit("crates/nn/src/x.rs", src).is_empty());
    }

    #[test]
    fn r5_doc_comment_is_not_justification() {
        let src = "/// Frobnicates.\n#[allow(dead_code)]\nfn f() {}";
        assert_eq!(rules_hit("crates/nn/src/x.rs", src), vec!["R5"]);
    }

    #[test]
    fn r5_flags_strong_ordering_without_comment() {
        let src = "fn f(a: &AtomicUsize) { a.load(Ordering::SeqCst); }";
        assert_eq!(rules_hit("crates/obs/src/x.rs", src), vec!["R5"]);
    }

    #[test]
    fn r5_accepts_justified_ordering_and_ignores_relaxed_and_cmp() {
        let src = "fn f(a: &AtomicUsize) {\n\
                   a.load(Ordering::Relaxed);\n\
                   // pairs with the Release store in push()\n\
                   a.load(Ordering::Acquire);\n\
                   let _ = std::cmp::Ordering::Less;\n}";
        assert!(rules_hit("crates/obs/src/x.rs", src).is_empty());
    }

    // ---- R6 ----

    #[test]
    fn r6_flags_unwrap_and_expect_in_serve() {
        let src =
            "fn f(x: Option<u8>) { x.unwrap(); }\nfn g(x: Option<u8>) { x.expect(\"boom\"); }";
        assert_eq!(rules_hit("crates/serve/src/x.rs", src), vec!["R6", "R6"]);
    }

    #[test]
    fn r6_accepts_panic_ok_comment() {
        let src = "fn f(x: Option<u8>) {\n    // PANIC-OK: invariant checked at construction.\n    x.unwrap();\n}";
        assert!(rules_hit("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn r6_only_applies_to_serving_crates_and_not_tests() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) { x.unwrap(); } }";
        assert!(rules_hit("crates/serve/src/x.rs", test_src).is_empty());
        assert!(rules_hit("crates/net/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn r6_covers_net_request_paths() {
        // A remote client reaches crates/net code directly: the same
        // no-panic budget as crates/serve applies.
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(rules_hit("crates/net/src/server.rs", src), vec!["R6"]);
        let ok = "fn f(x: Option<u8>) {\n    // PANIC-OK: checked above.\n    x.unwrap();\n}";
        assert!(rules_hit("crates/net/src/server.rs", ok).is_empty());
    }

    #[test]
    fn r6_does_not_flag_unwrap_or_else() {
        let src = "fn f(x: Result<u8, u8>) { x.unwrap_or_else(|e| e); }";
        assert!(rules_hit("crates/serve/src/x.rs", src).is_empty());
    }

    // ---- R7 ----

    #[test]
    fn r7_flags_every_fused_form_in_tensor() {
        let path = "crates/tensor/src/kernels.rs";
        for name in [
            "_mm512_fmadd_ps",
            "_mm256_fmsub_ps",
            "_mm_fnmadd_ss",
            "_mm512_fnmsub_pd",
        ] {
            let src = format!("fn f(a: V, b: V, c: V) -> V {{ {name}(a, b, c) }}");
            assert_eq!(rules_hit(path, &src), vec!["R7"], "{name}");
        }
        let src = "fn f(a: f32, b: f32, c: f32) -> f32 { a.mul_add(b, c) }";
        assert_eq!(rules_hit(path, src), vec!["R7"]);
        for feats in ["fma", "avx2,fma", "fma, avx2"] {
            let src = format!("#[target_feature(enable = \"{feats}\")]\nfn f() {{}}");
            assert_eq!(rules_hit(path, &src), vec!["R7"], "{feats}");
        }
    }

    #[test]
    fn r7_ignores_comments_strings_tests_and_other_crates() {
        let path = "crates/tensor/src/kernels.rs";
        let src = "// never `_mm512_fmadd_ps`, never `mul_add`\n\
                   /// nor `enable = \"fma\"`\n\
                   fn f() -> &'static str { \"_mm512_fmadd_ps mul_add\" }\n\
                   #[cfg(target_feature = \"fma\")]\nfn g() {}\n\
                   #[target_feature(enable = \"avx512f\")]\n/// # Safety\n/// AVX-512F.\n\
                   unsafe fn h() {}";
        assert!(rules_hit(path, src).is_empty());
        let tests = "#[cfg(test)]\nmod tests {\n    fn f(a: f32) -> f32 { a.mul_add(a, a) }\n\
                     #[target_feature(enable = \"fma\")]\n    fn g() { _mm512_fmadd_ps() }\n}";
        assert!(rules_hit(path, tests).is_empty());
        let fused = "fn f(a: f32) -> f32 { a.mul_add(a, _mm256_fmadd_ps()) }\n\
                     #[target_feature(enable = \"fma\")]\nfn g() {}";
        assert!(rules_hit("crates/nn/src/x.rs", fused).is_empty());
        assert!(rules_hit("src/lib.rs", fused).is_empty());
    }

    // ---- crate_of ----

    #[test]
    fn crate_of_extracts_names() {
        assert_eq!(crate_of("crates/tensor/src/kernels.rs"), "tensor");
        assert_eq!(crate_of("src/lib.rs"), "ntt");
    }
}
