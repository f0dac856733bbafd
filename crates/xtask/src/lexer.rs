//! A small hand-rolled Rust lexer for the lint engine — no `syn`, no
//! external deps (the build runs offline; same policy as `ls3df-obs`'s
//! in-house JSON writer).
//!
//! The lexer turns a source file into a flat token list with line
//! numbers. It is *not* a full Rust front end: it has no macro
//! expansion, no parse tree, and it treats every keyword as an
//! identifier. What it does get exactly right is the part the old
//! line-oriented lint could only approximate — the boundaries of
//! comments, string literals (cooked, raw, byte), char literals vs
//! lifetimes (including `'\u{…}'` escapes longer than the old
//! fixed-width window), nested block comments, and multi-character
//! operators. Rule passes therefore see `panic!` inside a string as a
//! [`TokenKind::Str`] token, `Ordering::Relaxed` inside a doc comment as
//! a [`TokenKind::LineComment`] token, and never confuse `<=` with `=`.
//!
//! Guarantees the rule passes rely on:
//!
//! * every byte of the input belongs to exactly one token (whitespace is
//!   skipped, everything else is covered);
//! * `line` is the 1-based line of the token's first byte;
//! * maximal munch for operators (`PUNCTS` is longest-first), so `==`
//!   never lexes as two `=`;
//! * comment tokens carry their full text (`// …`, `/* … */`) so escape
//!   hatches (`// SAFETY:`, `// ORDERING:`, …) can be matched against
//!   real comments instead of raw lines.

/// What a token is. Classification is shallow on purpose: rules match
/// on (kind, text) pairs and short sequences of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `fn`, `Ordering`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`) — the tick plus its identifier.
    Lifetime,
    /// Integer literal (`42`, `0xff`, `1_000u64`), incl. tuple indices.
    Int,
    /// Float literal (`1.0`, `2.`, `1e-3`, `0.5f32`).
    Float,
    /// Cooked string or byte-string literal (`"…"`, `b"…"`), escapes and
    /// embedded newlines included.
    Str,
    /// Raw string or raw byte-string literal (`r"…"`, `r#"…"#`, `br#"…"#`).
    RawStr,
    /// Char or byte literal (`'x'`, `'\n'`, `'\u{1F600}'`, `b'\0'`).
    Char,
    /// Line comment, doc comments included (`//`, `///`, `//!`).
    LineComment,
    /// Block comment, nesting handled (`/* /* … */ */`, `/** … */`).
    BlockComment,
    /// Operator or punctuation, maximal munch (`==`, `+=`, `::`, `..=`).
    Punct,
}

impl TokenKind {
    /// Comment tokens — skipped by [`code_tokens`].
    pub fn is_comment(self) -> bool {
        matches!(self, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// One lexed token: classification, exact source text, 1-based start line.
#[derive(Clone, Copy, Debug)]
pub struct Token<'a> {
    /// Shallow classification (see [`TokenKind`]).
    pub kind: TokenKind,
    /// The token's exact source text (escapes unprocessed).
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: usize,
}

/// Multi-character operators, longest first (maximal munch).
const PUNCTS: [&str; 25] = [
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "=",
];

/// Lexes `src` into tokens. Never fails: malformed input (an unclosed
/// string, a stray byte) degrades into best-effort tokens rather than an
/// error, because the lint must still run over work-in-progress code.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
    }
    .run()
}

/// Indices of `tokens` that are code (not comments): the view most rule
/// passes iterate.
pub fn code_tokens<'a>(tokens: &'a [Token<'a>]) -> Vec<&'a Token<'a>> {
    tokens.iter().filter(|t| !t.kind.is_comment()).collect()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token<'a>> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => out.push(self.line_comment()),
                b'/' if self.peek(1) == Some(b'*') => out.push(self.block_comment()),
                b'"' => out.push(self.cooked_string(self.pos)),
                b'\'' => out.push(self.char_or_lifetime()),
                b'r' if self.raw_string_ahead(self.pos) => out.push(self.raw_string(self.pos)),
                b'b' if self.peek(1) == Some(b'"') => {
                    let start = self.pos;
                    self.pos += 1; // past the b; cooked_string eats the quote
                    out.push(self.cooked_string(start));
                }
                b'b' if self.peek(1) == Some(b'\'') => {
                    let start = self.pos;
                    self.pos += 1;
                    out.push(self.byte_char(start));
                }
                b'b' if self.peek(1) == Some(b'r') && self.raw_string_ahead(self.pos + 1) => {
                    let start = self.pos;
                    self.pos += 1;
                    out.push(self.raw_string(start));
                }
                _ if is_ident_start(b) => out.push(self.ident()),
                _ if b.is_ascii_digit() => out.push(self.number()),
                _ => out.push(self.punct()),
            }
        }
        out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn token(&self, kind: TokenKind, start: usize, line: usize) -> Token<'a> {
        Token {
            kind,
            text: &self.src[start..self.pos],
            line,
        }
    }

    /// Advances one byte, tracking line numbers inside multi-line tokens.
    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn line_comment(&mut self) -> Token<'a> {
        let (start, line) = (self.pos, self.line);
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        self.token(TokenKind::LineComment, start, line)
    }

    fn block_comment(&mut self) -> Token<'a> {
        let (start, line) = (self.pos, self.line);
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.bytes[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.bytes[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.bump();
            }
        }
        self.token(TokenKind::BlockComment, start, line)
    }

    /// A `"…"` literal; `start` may point at a `b` prefix. The caller has
    /// positioned `self.pos` on the opening quote.
    fn cooked_string(&mut self, start: usize) -> Token<'a> {
        let line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => {
                    self.bump();
                    if self.pos < self.bytes.len() {
                        self.bump(); // the escaped byte (may be a newline)
                    }
                }
                b'"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.bump(),
            }
        }
        self.token(TokenKind::Str, start, line)
    }

    /// Is `r"` / `r#…#"` ahead at `at` (which points at the `r`)?
    fn raw_string_ahead(&self, at: usize) -> bool {
        let mut j = at + 1;
        while self.bytes.get(j) == Some(&b'#') {
            j += 1;
        }
        j > at && self.bytes.get(j) == Some(&b'"')
    }

    /// A raw string starting at `start` (`r…` or `br…`); `self.pos` is on
    /// the `r`.
    fn raw_string(&mut self, start: usize) -> Token<'a> {
        let line = self.line;
        self.pos += 1; // the r
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'"' {
                let mut h = 0usize;
                while h < hashes && self.bytes.get(self.pos + 1 + h) == Some(&b'#') {
                    h += 1;
                }
                if h == hashes {
                    self.pos += 1 + hashes;
                    return self.token(TokenKind::RawStr, start, line);
                }
            }
            self.bump();
        }
        self.token(TokenKind::RawStr, start, line)
    }

    /// `'x'`-style literal or `'a` lifetime. A lifetime is a tick
    /// followed by an identifier *not* closed by another tick (so `'a'`
    /// is a char, `'a` is a lifetime) — the classic ambiguity the old
    /// fixed-window heuristic got wrong for long `'\u{…}'` escapes.
    fn char_or_lifetime(&mut self) -> Token<'a> {
        let (start, line) = (self.pos, self.line);
        if let Some(b) = self.peek(1) {
            if is_ident_start(b) && b != b'\\' {
                // Scan the identifier after the tick; a closing tick right
                // after makes it a char literal ('x'), otherwise lifetime.
                let mut j = self.pos + 2;
                while self.bytes.get(j).copied().is_some_and(is_ident_char) {
                    j += 1;
                }
                if self.bytes.get(j) != Some(&b'\'') {
                    self.pos = j;
                    return self.token(TokenKind::Lifetime, start, line);
                }
            }
        }
        // Char literal: tick, one (possibly escaped, possibly multi-byte)
        // char, closing tick.
        self.pos += 1;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => {
                    self.bump();
                    if self.pos < self.bytes.len() {
                        self.bump();
                    }
                }
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                _ => self.bump(),
            }
        }
        self.token(TokenKind::Char, start, line)
    }

    /// `b'x'` byte literal; `self.pos` is on the quote, `start` on the b.
    fn byte_char(&mut self, start: usize) -> Token<'a> {
        let line = self.line;
        self.pos += 1;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => {
                    self.bump();
                    if self.pos < self.bytes.len() {
                        self.bump();
                    }
                }
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                _ => self.bump(),
            }
        }
        self.token(TokenKind::Char, start, line)
    }

    fn ident(&mut self) -> Token<'a> {
        let (start, line) = (self.pos, self.line);
        // `r#ident` raw identifiers lex as one Ident token.
        if self.bytes[self.pos] == b'r' && self.peek(1) == Some(b'#') {
            self.pos += 2;
        }
        while self.bytes.get(self.pos).copied().is_some_and(is_ident_char) {
            self.pos += 1;
        }
        self.token(TokenKind::Ident, start, line)
    }

    fn number(&mut self) -> Token<'a> {
        let (start, line) = (self.pos, self.line);
        let mut float = false;
        if self.bytes[self.pos] == b'0' && matches!(self.peek(1), Some(b'x' | b'o' | b'b')) {
            // Radix literal: digits + underscores + hex letters + suffix.
            self.pos += 2;
            while self.bytes.get(self.pos).copied().is_some_and(is_ident_char) {
                self.pos += 1;
            }
            return self.token(TokenKind::Int, start, line);
        }
        while self
            .bytes
            .get(self.pos)
            .copied()
            .is_some_and(|b| b.is_ascii_digit() || b == b'_')
        {
            self.pos += 1;
        }
        // A fractional part only if the `.` is not a method call (`1.max`)
        // and not a range (`1..n`).
        if self.bytes.get(self.pos) == Some(&b'.') {
            let after = self.bytes.get(self.pos + 1).copied();
            let fractional = match after {
                Some(b) if b.is_ascii_digit() => true,
                Some(b) if is_ident_start(b) || b == b'.' => false,
                _ => true, // `2.` at expression end
            };
            if fractional {
                float = true;
                self.pos += 1;
                while self
                    .bytes
                    .get(self.pos)
                    .copied()
                    .is_some_and(|b| b.is_ascii_digit() || b == b'_')
                {
                    self.pos += 1;
                }
            }
        }
        // Exponent.
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            let mut j = self.pos + 1;
            if matches!(self.bytes.get(j), Some(b'+' | b'-')) {
                j += 1;
            }
            if self
                .bytes
                .get(j)
                .copied()
                .is_some_and(|b| b.is_ascii_digit())
            {
                float = true;
                self.pos = j;
                while self
                    .bytes
                    .get(self.pos)
                    .copied()
                    .is_some_and(|b| b.is_ascii_digit() || b == b'_')
                {
                    self.pos += 1;
                }
            }
        }
        // Type suffix (`f64`, `u32`, …) rides along with the literal.
        if self
            .bytes
            .get(self.pos)
            .copied()
            .is_some_and(is_ident_start)
        {
            let suffix_start = self.pos;
            while self.bytes.get(self.pos).copied().is_some_and(is_ident_char) {
                self.pos += 1;
            }
            if self.src[suffix_start..self.pos].starts_with('f') {
                float = true;
            }
        }
        self.token(
            if float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
            start,
            line,
        )
    }

    fn punct(&mut self) -> Token<'a> {
        let (start, line) = (self.pos, self.line);
        for op in PUNCTS {
            if self.src[self.pos..].starts_with(op) {
                self.pos += op.len();
                return self.token(TokenKind::Punct, start, line);
            }
        }
        // Single byte (or one UTF-8 scalar, so we never split a char).
        let len = self.src[self.pos..]
            .chars()
            .next()
            .map_or(1, char::len_utf8);
        self.pos += len;
        self.token(TokenKind::Punct, start, line)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_keywords_and_puncts() {
        let toks = kinds("unsafe fn f(x: u32) -> bool { x == 3 }");
        assert!(toks.contains(&(TokenKind::Ident, "unsafe")));
        assert!(toks.contains(&(TokenKind::Punct, "->")));
        assert!(toks.contains(&(TokenKind::Punct, "==")));
        assert!(toks.contains(&(TokenKind::Int, "3")));
    }

    #[test]
    fn maximal_munch_never_splits_operators() {
        let toks = kinds("a <= b >= c != d == e => f :: g += h ..= i");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(puncts, ["<=", ">=", "!=", "==", "=>", "::", "+=", "..="]);
    }

    #[test]
    fn strings_and_comments_are_single_tokens() {
        let toks = kinds("let s = \"panic! .unwrap()\"; // Ordering::Relaxed here");
        assert!(toks
            .iter()
            .any(|&(k, t)| k == TokenKind::Str && t.contains("panic!")));
        assert!(toks
            .iter()
            .any(|&(k, t)| k == TokenKind::LineComment && t.contains("Ordering::Relaxed")));
        // No Ident token carries the quarantined words.
        assert!(!toks
            .iter()
            .any(|&(k, t)| k == TokenKind::Ident && (t == "panic" || t == "Ordering")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds("let x = r#\"unsafe \" inner\"#; let y = br##\"thread_rng()\"##;");
        let raws: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::RawStr)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(raws.len(), 2);
        assert!(raws[0].contains("unsafe"));
        assert!(raws[1].starts_with("br##"));
        assert!(!toks
            .iter()
            .any(|&(k, t)| k == TokenKind::Ident && t == "thread_rng"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ let a = 1;");
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert!(toks[0].1.ends_with("still comment */"));
        assert!(toks.iter().any(|&(k, t)| k == TokenKind::Ident && t == "a"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let u = '\\u{1F600}'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(chars, ["'x'", "'\\u{1F600}'"]);
    }

    #[test]
    fn numbers_floats_and_tuple_access() {
        let toks = kinds(
            "let a = 1.0; let b = x.0; let c = 1e-3; let d = 2.; let e = 1.max(2); let f = 0xff;",
        );
        let floats: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Float)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(floats, ["1.0", "1e-3", "2."]);
        // `x.0` and `1.max` keep their integer parts.
        assert!(toks.iter().any(|&(k, t)| k == TokenKind::Int && t == "0"));
        assert!(toks.iter().any(|&(k, t)| k == TokenKind::Int && t == "1"));
        assert!(toks
            .iter()
            .any(|&(k, t)| k == TokenKind::Int && t == "0xff"));
    }

    #[test]
    fn float_suffixes_classify_as_float() {
        let toks = kinds("let a = 1f64; let b = 3u32; let c = 0.5f32;");
        assert!(toks
            .iter()
            .any(|&(k, t)| k == TokenKind::Float && t == "1f64"));
        assert!(toks
            .iter()
            .any(|&(k, t)| k == TokenKind::Int && t == "3u32"));
        assert!(toks
            .iter()
            .any(|&(k, t)| k == TokenKind::Float && t == "0.5f32"));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "let a = 1;\nlet s = \"two\nlines\";\nlet b = 2;\n";
        let toks = lex(src);
        let b = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident && t.text == "b")
            .unwrap();
        // The string occupies lines 2–3, so `let b` lands on line 4; the
        // string token itself reports the line it *starts* on.
        assert_eq!(b.line, 4);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(s.line, 2);
    }

    #[test]
    fn tokens_are_contiguous_source_slices() {
        // Every token's text must reappear verbatim, in order, in the
        // source — i.e. the lexer only ever skips whitespace.
        let src = "fn f() { let x = \"s\"; /* c */ x.len() + 1.5 }";
        let mut cursor = 0;
        for t in lex(src) {
            let at = src[cursor..].find(t.text).expect("token text in source") + cursor;
            assert!(src[cursor..at].chars().all(char::is_whitespace));
            cursor = at + t.text.len();
        }
        assert!(src[cursor..].chars().all(char::is_whitespace));
    }
}
