//! A hand-rolled Rust lexer, just deep enough for lint rules.
//!
//! The workspace's Cargo.lock is deliberately dependency-free, so `syn` is
//! off the table. This lexer understands exactly what the rule engine
//! needs and nothing more:
//!
//! * string literals (plain, raw, byte, byte-raw) and char literals are
//!   consumed whole, so `"Vec::new()"` inside a string never triggers a rule;
//! * lifetimes (`'a`, `'static`) are distinguished from char literals;
//! * line and block comments (nested, as Rust's are) are stripped from the
//!   token stream but scanned for `dsa-lint:` pragmas;
//! * everything else becomes an identifier, a number, or a punctuation
//!   token (with `::`, `->` and `=>` kept as single tokens), each tagged
//!   with its 1-based source line.

/// What a token is, as far as the rules care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`as`, `static`, `Rc`, …).
    Ident,
    /// Numeric literal.
    Number,
    /// String or char literal (contents dropped).
    Literal,
    /// Punctuation; `::`, `->` and `=>` are single tokens.
    Punct,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// Token text (empty for [`TokenKind::Literal`]).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// An inline suppression found in a comment:
/// `// dsa-lint: allow(rule, reason)`.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// The rule name inside `allow(...)` (not yet canonicalized).
    pub rule: String,
    /// The documented reason (may be empty — the rule engine rejects that).
    pub reason: String,
    /// 1-based line the pragma comment starts on.
    pub line: u32,
}

/// Output of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The comment-free, literal-collapsed token stream.
    pub tokens: Vec<Token>,
    /// Every `dsa-lint:` pragma found in comments.
    pub pragmas: Vec<Pragma>,
}

/// Lexes `source` (one Rust file).
pub fn lex(source: &str) -> Lexed {
    Lexer { chars: source.chars().collect(), pos: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    self.bump();
                    self.string_body();
                    self.push(TokenKind::Literal, String::new(), line);
                }
                'r' | 'b' if self.raw_or_byte_string() => {
                    self.push(TokenKind::Literal, String::new(), line);
                }
                '\'' => self.quote(),
                c if c.is_alphabetic() || c == '_' => {
                    let mut text = String::new();
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokenKind::Ident, text, line);
                }
                c if c.is_ascii_digit() => {
                    let mut text = String::new();
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokenKind::Number, text, line);
                }
                _ => {
                    self.bump();
                    let text = match (c, self.peek(0)) {
                        (':', Some(':')) => {
                            self.bump();
                            "::".to_string()
                        }
                        ('-', Some('>')) => {
                            self.bump();
                            "->".to_string()
                        }
                        ('=', Some('>')) => {
                            self.bump();
                            "=>".to_string()
                        }
                        _ => c.to_string(),
                    };
                    self.push(TokenKind::Punct, text, line);
                }
            }
        }
        self.out
    }

    /// Consumes `//...` to end of line; scans for a pragma. Doc comments
    /// (`///`, `//!`) are documentation, not directives — syntax examples
    /// in them must not register as real pragmas.
    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        let is_doc = text.starts_with("///") || text.starts_with("//!");
        if !is_doc {
            self.scan_pragma(&text, line);
        }
    }

    /// Consumes a (nested) `/* ... */` block comment; scans for pragmas.
    fn block_comment(&mut self) {
        let line = self.line;
        let mut depth = 0usize;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        let is_doc = text.starts_with('*') || text.starts_with('!');
        if !is_doc {
            self.scan_pragma(&text, line);
        }
    }

    /// Parses `dsa-lint: allow(rule[, reason])` out of comment text.
    fn scan_pragma(&mut self, text: &str, line: u32) {
        let Some(at) = text.find("dsa-lint:") else { return };
        let rest = text[at + "dsa-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else { return };
        let Some(close) = args.find(')') else { return };
        let inner = &args[..close];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        self.out.pragmas.push(Pragma { rule: rule.to_string(), reason: reason.to_string(), line });
    }

    /// Consumes the body of a `"`-delimited string (opening quote already
    /// consumed).
    fn string_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// Tries to consume a raw/byte string starting at the current `r`/`b`.
    /// Returns false (consuming nothing) if this is just an identifier.
    fn raw_or_byte_string(&mut self) -> bool {
        // Recognized shapes: r"…", r#"…"#…, b"…", br"…", br#"…"#, b'…'.
        let mut ahead = 1; // past the leading r/b
        let first = self.peek(0);
        if first == Some('b') {
            match self.peek(1) {
                Some('\'') => {
                    // Byte char literal b'x'.
                    self.bump(); // b
                    self.bump(); // '
                    while let Some(c) = self.bump() {
                        match c {
                            '\\' => {
                                self.bump();
                            }
                            '\'' => break,
                            _ => {}
                        }
                    }
                    return true;
                }
                Some('r') => ahead = 2,
                Some('"') => {
                    self.bump(); // b
                    self.bump(); // "
                    self.string_body();
                    return true;
                }
                _ => return false,
            }
        }
        // At this point we need r[#*]" at offset `ahead - 1`.
        let mut hashes = 0usize;
        loop {
            match self.peek(ahead) {
                Some('#') => {
                    hashes += 1;
                    ahead += 1;
                }
                Some('"') => break,
                _ => return false,
            }
        }
        // Commit: consume prefix, quote, then scan for `"` + hashes.
        for _ in 0..=ahead {
            self.bump();
        }
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        true
    }

    /// Disambiguates lifetimes from char literals at a `'`.
    fn quote(&mut self) {
        let line = self.line;
        self.bump(); // the quote
        match self.peek(0) {
            // Escape: definitely a char literal. Consume the backslash and
            // the escaped char (so `'\''` doesn't end early), then scan to
            // the closing quote (covers multi-char escapes like `'\u{41}'`).
            Some('\\') => {
                self.bump();
                self.bump();
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::Literal, String::new(), line);
            }
            // Identifier-start char: 'a' (char) vs 'a (lifetime) — decided
            // by whether a closing quote follows immediately.
            Some(c) if c.is_alphanumeric() || c == '_' => {
                if self.peek(1) == Some('\'') {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::Literal, String::new(), line);
                } else {
                    let mut text = String::from("'");
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokenKind::Ident, text, line);
                }
            }
            // Any other char ('(' etc.): a one-char literal.
            Some(_) => {
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokenKind::Literal, String::new(), line);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokenKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let src = r##"let s = "unwrap() Instant::now()"; let r = r#"expect("x")"#;"##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "let", "r"]);
    }

    #[test]
    fn comments_are_stripped_but_pragmas_found() {
        let src = "// dsa-lint: allow(unwrap, const table lookup)\nlet x = 1; /* unwrap() */";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().all(|t| t.text != "unwrap"));
        assert_eq!(lexed.pragmas.len(), 1);
        assert_eq!(lexed.pragmas[0].rule, "unwrap");
        assert_eq!(lexed.pragmas[0].reason, "const table lookup");
        assert_eq!(lexed.pragmas[0].line, 1);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let p = '('; let n = '\\n'; }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed.tokens.iter().filter(|t| t.text.starts_with('\'')).collect();
        assert_eq!(lifetimes.len(), 2, "two 'a lifetimes: {lifetimes:?}");
        let literals = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Literal).count();
        assert_eq!(literals, 3, "'x', '(' and '\\n'");
    }

    #[test]
    fn multi_char_puncts_are_single_tokens() {
        let toks = lex("a::b -> c => d");
        let puncts: Vec<_> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(puncts, vec!["::", "->", "=>"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        assert_eq!(idents(src), vec!["let", "x"]);
    }

    #[test]
    fn lines_are_tracked() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn byte_and_raw_strings() {
        let src = "let a = b\"unwrap\"; let b = br#\"expect\"#; let c = b'x';";
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"expect".to_string()));
    }

    #[test]
    fn doc_comments_do_not_register_pragmas() {
        let src = "/// `// dsa-lint: allow(unwrap, reason)`\n\
                   //! dsa-lint: allow(unwrap, reason)\n\
                   /** dsa-lint: allow(unwrap, reason) */\n\
                   // dsa-lint: allow(unwrap, real one)\n";
        let lexed = lex(src);
        assert_eq!(lexed.pragmas.len(), 1);
        assert_eq!(lexed.pragmas[0].line, 4);
    }

    #[test]
    fn pragma_without_reason_is_captured_empty() {
        let lexed = lex("// dsa-lint: allow(float-cast)\n");
        assert_eq!(lexed.pragmas[0].reason, "");
    }
}
