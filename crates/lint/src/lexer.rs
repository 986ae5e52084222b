//! A minimal Rust lexer — just enough token structure for the invariant
//! rules in [`crate::rules`], in the same hand-rolled spirit as the
//! service crate's `minijson`.
//!
//! The lexer's one job is to separate *code* from *non-code*: string
//! literals, character literals and comments must never produce identifier
//! tokens (otherwise `"panic!"` inside an error message would look like a
//! panic site), while comments must stay addressable (the suppression
//! syntax lives in them). Everything else — numbers,
//! punctuation, lifetimes — is tokenized loosely: the rules only pattern
//! match on identifier/punctuation sequences, so sub-token precision
//! (e.g. float literals lexing as three tokens) is deliberately not a goal.

/// What a token is, with just enough payload for rule matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, …).
    Ident,
    /// One punctuation character (`.`, `!`, `{`, …).
    Punct(char),
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Numeric literal (lexed loosely; `1.5` is `Num . Num`).
    Num,
    /// `// …` comment (doc comments included).
    LineComment,
    /// `/* … */` comment (nesting handled).
    BlockComment,
}

/// One lexed token: kind, verbatim text and 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Token {
    /// Whether this token is a comment (line or block).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// Whether this token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Whether this token is this punctuation character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct(ch)
    }
}

/// Tokenizes `source`. Never fails: unterminated literals are closed at
/// end-of-file (the tool lints real, compiling code; graceful degradation
/// beats erroring out mid-walk).
pub fn tokenize(source: &str) -> Vec<Token> {
    Lexer { chars: source.chars().collect(), pos: 0, line: 1 }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.chars.get(self.pos).copied();
        if let Some(ch) = ch {
            self.pos += 1;
            if ch == '\n' {
                self.line += 1;
            }
        }
        ch
    }

    fn run(mut self) -> Vec<Token> {
        let mut tokens = Vec::new();
        while let Some(ch) = self.peek(0) {
            let line = self.line;
            let start = self.pos;
            match ch {
                c if c.is_whitespace() => {
                    self.bump();
                    continue;
                }
                '/' if self.peek(1) == Some('/') => {
                    while let Some(c) = self.peek(0) {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                    tokens.push(self.token(TokenKind::LineComment, start, line));
                }
                '/' if self.peek(1) == Some('*') => {
                    self.block_comment();
                    tokens.push(self.token(TokenKind::BlockComment, start, line));
                }
                '"' => {
                    self.string_literal();
                    tokens.push(self.token(TokenKind::Str, start, line));
                }
                'r' | 'b' if self.raw_or_byte_string() => {
                    tokens.push(self.token(TokenKind::Str, start, line));
                }
                // Raw identifier `r#type` — one Ident token with the `r#`
                // prefix kept verbatim, so keyword matching can never
                // confuse `r#fn` with `fn`. (Raw *strings* `r#"…"#` are
                // consumed by the arm above; its guard sees the quote.)
                'r' if self.peek(1) == Some('#')
                    && self.peek(2).is_some_and(|c| c.is_alphabetic() || c == '_') =>
                {
                    self.bump(); // r
                    self.bump(); // #
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    tokens.push(self.token(TokenKind::Ident, start, line));
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump(); // b
                    self.char_literal();
                    tokens.push(self.token(TokenKind::Char, start, line));
                }
                '\'' => {
                    let kind = self.char_or_lifetime();
                    tokens.push(self.token(kind, start, line));
                }
                c if c.is_alphabetic() || c == '_' => {
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    tokens.push(self.token(TokenKind::Ident, start, line));
                }
                c if c.is_ascii_digit() => {
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    tokens.push(self.token(TokenKind::Num, start, line));
                }
                c => {
                    self.bump();
                    tokens.push(Token { kind: TokenKind::Punct(c), text: c.to_string(), line });
                }
            }
        }
        tokens
    }

    fn token(&self, kind: TokenKind, start: usize, line: u32) -> Token {
        Token { kind, text: self.chars[start..self.pos].iter().collect(), line }
    }

    fn block_comment(&mut self) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn string_literal(&mut self) {
        self.bump(); // opening quote
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

    /// Consumes `r"…"`, `r#"…"#`, `br"…"`, `b"…"` if the cursor sits on
    /// one; returns whether it did.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut ahead = 0usize;
        if self.peek(ahead) == Some('b') {
            ahead += 1;
        }
        let raw = self.peek(ahead) == Some('r');
        if raw {
            ahead += 1;
        }
        let mut hashes = 0usize;
        while self.peek(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(ahead + hashes) != Some('"') || (!raw && (hashes > 0 || ahead == 0)) {
            return false;
        }
        if !raw && hashes > 0 {
            return false;
        }
        for _ in 0..(ahead + hashes + 1) {
            self.bump();
        }
        if !raw {
            // b"…": plain escape rules.
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '"' => break,
                    _ => {}
                }
            }
            return true;
        }
        // Raw string: ends at `"` followed by the same number of hashes.
        loop {
            match self.bump() {
                Some('"') => {
                    let mut matched = 0usize;
                    while matched < hashes && self.peek(0) == Some('#') {
                        self.bump();
                        matched += 1;
                    }
                    if matched == hashes {
                        return true;
                    }
                }
                Some(_) => {}
                None => return true,
            }
        }
    }

    fn char_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime): a quote followed by
    /// an identifier character is a lifetime unless the character after the
    /// identifier start closes the quote.
    fn char_or_lifetime(&mut self) -> TokenKind {
        let first = self.peek(1);
        let second = self.peek(2);
        let is_lifetime = match (first, second) {
            (Some(c), Some('\'')) if c.is_alphanumeric() || c == '_' => false,
            (Some(c), _) if c.is_alphabetic() || c == '_' => true,
            _ => false,
        };
        if is_lifetime {
            self.bump(); // quote
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
            TokenKind::Lifetime
        } else {
            self.char_literal();
            TokenKind::Char
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_punct() {
        let tokens = tokenize("foo.bar(1)");
        assert_eq!(tokens.len(), 6);
        assert!(tokens[0].is_ident("foo"));
        assert!(tokens[1].is_punct('.'));
        assert_eq!(tokens[4].kind, TokenKind::Num);
    }

    #[test]
    fn strings_hide_their_contents() {
        let tokens = tokenize(r#"let x = "panic!(unwrap)";"#);
        assert!(tokens.iter().all(|t| !t.is_ident("panic")));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Str));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let tokens = tokenize(r###"let x = r#"say "hi" panic!"# ;"###);
        assert_eq!(tokens.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
        assert!(tokens.iter().all(|t| !t.is_ident("panic")));
    }

    #[test]
    fn comments_are_tokens_with_lines() {
        let tokens = tokenize("a\n// lint:allow(x): y\nb /* block\nstill */ c");
        let comment = tokens.iter().find(|t| t.kind == TokenKind::LineComment).expect("comment");
        assert_eq!(comment.line, 2);
        assert!(comment.text.contains("lint:allow"));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::BlockComment));
        let c = tokens.iter().find(|t| t.is_ident("c")).expect("c");
        assert_eq!(c.line, 4);
    }

    #[test]
    fn nested_block_comments() {
        let tokens = tokenize("/* a /* b */ c */ x");
        assert_eq!(tokens.len(), 2);
        assert!(tokens[1].is_ident("x"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        assert_eq!(
            kinds("<'a> 'x' '\\n' 'static b'q'"),
            vec![
                TokenKind::Punct('<'),
                TokenKind::Lifetime,
                TokenKind::Punct('>'),
                TokenKind::Char,
                TokenKind::Char,
                TokenKind::Lifetime,
                TokenKind::Char,
            ]
        );
    }

    #[test]
    fn byte_strings() {
        let tokens = tokenize(r#"b"bytes" br"raw" r"plain""#);
        assert_eq!(tokens.iter().filter(|t| t.kind == TokenKind::Str).count(), 3);
    }

    #[test]
    fn raw_identifiers_are_single_tokens() {
        let tokens = tokenize("let r#type = r#fn; r#"); // trailing `r#` alone stays punct-ish
        assert!(tokens[1].is_ident("r#type"), "raw ident keeps its prefix: {:?}", tokens[1]);
        assert!(tokens[3].is_ident("r#fn"));
        // The keyword matcher must NOT see a bare `fn` — before the raw-ident
        // fix this lexed as `r`, `#`, `fn` and fabricated a function item.
        assert!(tokens.iter().all(|t| !t.is_ident("fn")));
        // `r#"…"#` raw strings still win over raw identifiers.
        let raw = tokenize(r###"r#"text"# r#ident"###);
        assert_eq!(raw[0].kind, TokenKind::Str);
        assert!(raw[1].is_ident("r#ident"));
    }

    #[test]
    fn shift_right_closes_nested_generics_as_two_tokens() {
        assert_eq!(
            kinds("Vec<Vec<u8>>"),
            vec![
                TokenKind::Ident,
                TokenKind::Punct('<'),
                TokenKind::Ident,
                TokenKind::Punct('<'),
                TokenKind::Ident,
                TokenKind::Punct('>'),
                TokenKind::Punct('>'),
            ],
            "`>>` must lex as two closing angles so brace/angle matching sees both"
        );
    }

    #[test]
    fn char_literal_directly_after_generics_is_not_a_lifetime() {
        // `x::<'a>('b')` — a lifetime argument immediately followed by a
        // char-literal argument; each side of the `>(` must keep its kind.
        assert_eq!(
            kinds("x::<'a>('b')"),
            vec![
                TokenKind::Ident,
                TokenKind::Punct(':'),
                TokenKind::Punct(':'),
                TokenKind::Punct('<'),
                TokenKind::Lifetime,
                TokenKind::Punct('>'),
                TokenKind::Punct('('),
                TokenKind::Char,
                TokenKind::Punct(')'),
            ]
        );
        // Comparison against a char: `<` then a char literal, not a lifetime.
        assert_eq!(
            kinds("if c < 'a' {}"),
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Punct('<'),
                TokenKind::Char,
                TokenKind::Punct('{'),
                TokenKind::Punct('}'),
            ]
        );
    }

    #[test]
    fn unterminated_literals_do_not_loop() {
        assert!(!tokenize("\"open").is_empty());
        assert!(!tokenize("r#\"open").is_empty());
        assert!(!tokenize("/* open").is_empty());
    }
}
