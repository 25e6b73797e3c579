//! A hand-rolled Rust lexer: just enough of the language to lint it.
//!
//! The scanner needs three things `grep` cannot give it: (1) tokens
//! that are provably *code* — never the inside of a string literal or a
//! comment; (2) the comments themselves, with line spans, so rules can
//! demand `// SAFETY:` and justification comments in the right place;
//! (3) which tokens live inside `#[cfg(test)]` items or `mod tests`
//! blocks, so test code is exempt from production rules.
//!
//! It is not a full lexer (no float-suffix pedantry, no shebang
//! handling) but it is exact on the constructs that would otherwise
//! cause false findings: nested block comments, raw strings
//! (`r#"..."#` with any `#` depth), byte/C strings, raw identifiers
//! (`r#type`), and char literals vs lifetimes (`'a'` vs `'a`).

/// One significant token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// 1-based source line.
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier, keyword, or numeric literal.
    Word(String),
    /// Single punctuation character (`::` arrives as two `:`).
    Sym(char),
}

impl Tok {
    pub fn is_word(&self, w: &str) -> bool {
        matches!(&self.kind, TokKind::Word(s) if s == w)
    }

    pub fn is_sym(&self, c: char) -> bool {
        matches!(&self.kind, TokKind::Sym(s) if *s == c)
    }

    pub fn word(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Word(s) => Some(s),
            TokKind::Sym(_) => None,
        }
    }
}

/// One comment (line or block), with the lines it covers.
#[derive(Debug, Clone)]
pub struct Comment {
    pub start_line: u32,
    pub end_line: u32,
    /// Raw text including the `//` / `/*` markers.
    pub text: String,
    /// `///`, `//!`, `/**`, or `/*!` — documentation, not annotation.
    pub doc: bool,
}

/// One plain `"..."` string literal: its text between the quotes,
/// escapes left as written, and where it sits among the tokens.
#[derive(Debug, Clone)]
pub struct StrLit {
    pub line: u32,
    pub text: String,
    /// Index in [`Lexed::toks`] of the first token after the literal.
    pub next_tok: usize,
}

/// Lexed file: tokens plus the comments and plain string literals the
/// tokenizer skipped.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    pub strings: Vec<StrLit>,
}

pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n {
            if b[i + 1] == '/' {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                let doc = text.starts_with("///") || text.starts_with("//!");
                out.comments.push(Comment {
                    start_line: line,
                    end_line: line,
                    text,
                    doc,
                });
                continue;
            }
            if b[i + 1] == '*' {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let text: String = b[start..i].iter().collect();
                let doc = text.starts_with("/**") || text.starts_with("/*!");
                out.comments.push(Comment {
                    start_line,
                    end_line: line,
                    text,
                    doc,
                });
                continue;
            }
        }
        // String-ish literals, including prefixed forms. Probe for a
        // prefix of ident chars immediately followed by a quote — that
        // covers "", b"", c"", r"", br"", cr"", and r#"..."# at any
        // hash depth — while leaving raw identifiers (r#type) alone.
        if c == '"' {
            let (start, start_line) = (i, line);
            i = skip_string(&b, i, &mut line);
            out.strings.push(StrLit {
                line: start_line,
                text: b[start + 1..(i - 1).max(start + 1)].iter().collect(),
                next_tok: out.toks.len(),
            });
            continue;
        }
        if (c == 'r' || c == 'b' || c == 'c') && i + 1 < n {
            let mut j = i;
            // Up to two prefix letters (br, cr), then optional #s (raw).
            while j < n && (b[j] == 'r' || b[j] == 'b' || b[j] == 'c') && j - i < 2 {
                j += 1;
            }
            let hash_start = j;
            while j < n && b[j] == '#' {
                j += 1;
            }
            let hashes = j - hash_start;
            if j < n && b[j] == '"' {
                // Raw/byte/C string: for raw forms the terminator is
                // `"` + `hashes` `#`s, with no escapes; plain b"/c"
                // still honor escapes.
                let raw = b[i..hash_start].contains(&'r');
                if raw || hashes > 0 {
                    i = skip_raw_string(&b, j, hashes, &mut line);
                } else {
                    i = skip_string(&b, j, &mut line);
                }
                continue;
            }
            if hashes > 0 && j < n && is_ident_char(b[j]) {
                // Raw identifier r#type: emit the ident without r#.
                let start = j;
                while j < n && is_ident_char(b[j]) {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Word(b[start..j].iter().collect()),
                    line,
                });
                i = j;
                continue;
            }
            if b[i] == 'b' && i + 1 < n && b[i + 1] == '\'' {
                // Byte char literal b'x'.
                i = skip_char_literal(&b, i + 1, &mut line);
                continue;
            }
            // Fall through: ordinary identifier starting with r/b/c.
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // A lifetime is `'` + ident not followed by a closing `'`.
            let mut j = i + 1;
            if j < n && b[j] == '\\' {
                i = skip_char_literal(&b, i, &mut line);
                continue;
            }
            while j < n && is_ident_char(b[j]) {
                j += 1;
            }
            if j < n && b[j] == '\'' && j > i + 1 {
                // 'a' or '_' — only a char literal if exactly one char
                // (multi-char like 'abc' cannot appear; `j - i - 1 == 1`).
                if j - i - 1 == 1 {
                    i = j + 1;
                    continue;
                }
            }
            if j == i + 1 && j < n {
                // Non-ident char like '\n' handled above; ' ' or '(' etc.
                i = skip_char_literal(&b, i, &mut line);
                continue;
            }
            // Lifetime: skip the quote, the ident lexes as a word next.
            i += 1;
            continue;
        }
        // Identifiers / keywords.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && is_ident_char(b[i]) {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Word(b[start..i].iter().collect()),
                line,
            });
            continue;
        }
        // Numbers (loose: 0xff, 1_000, 1e-3 lexes as `1e`, `-`, `3`,
        // which is fine — rules never inspect numerics).
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (is_ident_char(b[i]) || (b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Word(b[start..i].iter().collect()),
                line,
            });
            continue;
        }
        out.toks.push(Tok {
            kind: TokKind::Sym(c),
            line,
        });
        if c == '\n' {
            line += 1;
        }
        i += 1;
    }
    let _ = count_lines;
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Skip a `"..."` literal starting at the opening quote; returns the
/// index just past the closing quote.
fn skip_string(b: &[char], open: usize, line: &mut u32) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string whose opening quote is at `open` with `hashes`
/// leading `#`s; no escapes, terminated by `"` + the same `#` count.
fn skip_raw_string(b: &[char], open: usize, hashes: usize, line: &mut u32) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        if b[i] == '\n' {
            *line += 1;
        }
        if b[i] == '"' {
            let mut k = 0usize;
            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == '#' {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Skip a char literal starting at the opening `'`.
fn skip_char_literal(b: &[char], open: usize, line: &mut u32) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

// ---------------------------------------------------------------------
// Test-region detection.

/// Marks each token as test code or not. Test code is: any item behind
/// a `#[cfg(...test...)]` attribute (the whole braced body or the
/// `;`-terminated item), and any `mod tests { ... }` / `mod test { ... }`
/// body. A file-level `#![cfg(test)]` marks the entire file.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let n = toks.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if toks[i].is_sym('#') {
            let inner = i + 1 < n && toks[i + 1].is_sym('!');
            let lb = i + if inner { 2 } else { 1 };
            if lb < n && toks[lb].is_sym('[') {
                let rb = match matching(toks, lb, '[', ']') {
                    Some(r) => r,
                    None => break,
                };
                let mut saw_cfg = false;
                let mut saw_test = false;
                for t in &toks[lb..rb] {
                    if t.is_word("cfg") {
                        saw_cfg = true;
                    }
                    if t.is_word("test") {
                        saw_test = true;
                    }
                }
                if saw_cfg && saw_test {
                    if inner {
                        // #![cfg(test)]: whole file is test code.
                        for m in mask.iter_mut() {
                            *m = true;
                        }
                        return mask;
                    }
                    let end = item_end(toks, rb + 1).unwrap_or(n - 1);
                    for m in mask.iter_mut().take(end + 1).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
                i = rb + 1;
                continue;
            }
        }
        if toks[i].is_word("mod")
            && i + 2 < n
            && (toks[i + 1].is_word("tests") || toks[i + 1].is_word("test"))
            && toks[i + 2].is_sym('{')
        {
            let end = matching(toks, i + 2, '{', '}').unwrap_or(n - 1);
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the sym matching `open` at `at` (same kind nesting).
fn matching(toks: &[Tok], at: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(at) {
        if t.is_sym(open) {
            depth += 1;
        } else if t.is_sym(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// End of the item starting at `from` (inclusive token index): skips
/// over any further attributes, then runs to the matching `}` of the
/// first body brace, or to the first top-level `;` for braceless items
/// (`#[cfg(test)] use ...;`).
fn item_end(toks: &[Tok], mut from: usize) -> Option<usize> {
    let n = toks.len();
    // Chained attributes: #[cfg(test)] #[derive(..)] struct ...
    while from < n && toks[from].is_sym('#') {
        let lb = from + 1;
        if lb < n && toks[lb].is_sym('[') {
            from = matching(toks, lb, '[', ']')? + 1;
        } else {
            break;
        }
    }
    let mut depth_paren = 0isize;
    let mut depth_brack = 0isize;
    let mut j = from;
    while j < n {
        let t = &toks[j];
        if t.is_sym('(') {
            depth_paren += 1;
        } else if t.is_sym(')') {
            depth_paren -= 1;
        } else if t.is_sym('[') {
            depth_brack += 1;
        } else if t.is_sym(']') {
            depth_brack -= 1;
        } else if t.is_sym('{') {
            return matching(toks, j, '{', '}');
        } else if t.is_sym(';') && depth_paren == 0 && depth_brack == 0 {
            return Some(j);
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter_map(|t| t.word().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_and_comments_are_skipped() {
        let src = r##"
            let a = "unsafe HashMap"; // unsafe in a comment
            /* thread_rng in a block /* nested */ comment */
            let b = r#"Instant::now() inside raw"#;
            let c = 'x';
            let d: &'static str = "s";
        "##;
        let w = words(src);
        assert!(!w.iter().any(|s| s == "unsafe"));
        assert!(!w.iter().any(|s| s == "HashMap"));
        assert!(!w.iter().any(|s| s == "thread_rng"));
        assert!(!w.iter().any(|s| s == "Instant"));
        assert!(w.iter().any(|s| s == "static"), "lifetime ident lexes");
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
        assert!(lx.comments[1].text.contains("nested"));
    }

    #[test]
    fn raw_hash_strings_terminate_on_matching_hashes() {
        let src = r####"let x = r##"quote " and "# inside"##; let unsafe_after = 1;"####;
        let w = words(src);
        assert!(w.iter().any(|s| s == "unsafe_after"));
        assert!(!w.iter().any(|s| s == "inside"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a u8) { let c = '\\n'; let q = '\"'; let u = 'u'; }";
        let w = words(src);
        // The quote char literal must not open a string that swallows
        // the rest of the file.
        assert!(w.iter().any(|s| s == "u8"));
        assert_eq!(w.iter().filter(|s| *s == "a").count(), 2, "lifetime idents");
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\";\n/* c\nc */\nunsafe {}\n";
        let lx = lex(src);
        let t = lx.toks.iter().find(|t| t.is_word("unsafe")).unwrap();
        assert_eq!(t.line, 5);
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = r#"
            fn prod() { }
            #[cfg(test)]
            mod tests {
                fn t() { let h: HashMap<u8, u8> = HashMap::new(); }
            }
            fn also_prod() { }
        "#;
        let lx = lex(src);
        let mask = test_mask(&lx.toks);
        for (t, &m) in lx.toks.iter().zip(&mask) {
            if t.is_word("HashMap") {
                assert!(m, "HashMap inside cfg(test) must be masked");
            }
            if t.is_word("also_prod") || t.is_word("prod") {
                assert!(!m, "production tokens must stay unmasked");
            }
        }
    }

    #[test]
    fn cfg_test_braceless_item_is_masked() {
        let src = "#[cfg(test)] use std::collections::HashMap; fn prod() {}";
        let lx = lex(src);
        let mask = test_mask(&lx.toks);
        for (t, &m) in lx.toks.iter().zip(&mask) {
            if t.is_word("HashMap") {
                assert!(m);
            }
            if t.is_word("prod") {
                assert!(!m);
            }
        }
    }

    #[test]
    fn mod_tests_without_cfg_is_masked() {
        let src = "mod tests { fn f() { x.unwrap(); } } fn prod() {}";
        let lx = lex(src);
        let mask = test_mask(&lx.toks);
        for (t, &m) in lx.toks.iter().zip(&mask) {
            if t.is_word("unwrap") {
                assert!(m);
            }
            if t.is_word("prod") {
                assert!(!m);
            }
        }
    }

    #[test]
    fn cfg_all_test_is_masked() {
        let src = "#[cfg(all(test, unix))] fn t() { thread_rng(); } fn prod() {}";
        let lx = lex(src);
        let mask = test_mask(&lx.toks);
        for (t, &m) in lx.toks.iter().zip(&mask) {
            if t.is_word("thread_rng") {
                assert!(m);
            }
            if t.is_word("prod") {
                assert!(!m);
            }
        }
    }

    #[test]
    fn raw_identifiers_lex_as_words() {
        let w = words("let r#type = 1; let rr = r#fn;");
        assert!(w.iter().any(|s| s == "type"));
        assert!(w.iter().any(|s| s == "fn"));
    }
}
