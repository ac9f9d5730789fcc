//! Tokenizer shared by the ABDL parser.
//!
//! The lexer is deliberately small: identifiers/barewords, quoted
//! strings with `''` escaping, signed numbers, and the handful of
//! punctuation tokens ABDL needs. `<` is punctuation (keyword-list
//! opener) *and* a relational operator; the parser disambiguates by
//! context, so the lexer emits `Lt`/`Le` and the parser treats `Lt`
//! as an angle bracket inside INSERT keyword lists.
//!
//! Text is UTF-8 throughout: string literals, record bodies and
//! identifiers keep their characters. The helpers [`quoted`],
//! [`is_word_start`], [`word_end`] and [`char_at`] are shared with the
//! SQL, DL/I, CODASYL and Daplex lexers so that every language reads
//! text alike.

use crate::error::{Error, Result};

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or bareword (attribute name, keyword, unquoted value).
    Ident(String),
    /// Single-quoted string literal (escapes already resolved).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `!=` (also `<>`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `{ … }` record body text.
    Body(String),
    /// `*`
    Star,
    /// End of input.
    Eof,
}

/// A token plus its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the token start in the source text.
    pub offset: usize,
}

/// True when `c` may start an identifier: `_` or any alphabetic char.
pub fn is_word_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

/// The byte offset just past the identifier (`_` and alphanumeric
/// chars) starting at byte `start`.
pub fn word_end(src: &str, start: usize) -> usize {
    src[start..].find(|c: char| c != '_' && !c.is_alphanumeric()).map_or(src.len(), |n| start + n)
}

/// The single-quoted literal whose opening quote is at byte `open`,
/// with `''` escapes resolved, and the byte offset just past its
/// closing quote. `None` when the literal is unterminated.
pub fn quoted(src: &str, open: usize) -> Option<(String, usize)> {
    let mut text = String::new();
    let mut pos = open + 1;
    loop {
        let close = pos + src[pos..].find('\'')?;
        text.push_str(&src[pos..close]);
        if src[close + 1..].starts_with('\'') {
            text.push('\'');
            pos = close + 2;
        } else {
            return Some((text, close + 1));
        }
    }
}

/// The character at byte `pos`, a char boundary (for error messages).
pub fn char_at(src: &str, pos: usize) -> char {
    src[pos..].chars().next().unwrap_or(' ')
}

/// The ABDL tokenizer.
pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer { text: src, src: src.as_bytes(), pos: 0 }
    }

    /// Tokenize the whole input (trailing [`TokenKind::Eof`] included).
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn err(&self, msg: impl Into<String>, offset: usize) -> Error {
        Error::Parse { msg: msg.into(), offset }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else if c == b'-' && self.src.get(self.pos + 1) == Some(&b'-') {
                // `--` line comment.
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    if c == b'\n' {
                        break;
                    }
                }
            } else {
                break;
            }
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_ws();
        let offset = self.pos;
        let Some(c) = self.bump() else {
            return Ok(Token { kind: TokenKind::Eof, offset });
        };
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b',' => TokenKind::Comma,
            b';' => TokenKind::Semi,
            b'*' => TokenKind::Star,
            b'=' => TokenKind::Eq,
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::Ne
                } else {
                    return Err(self.err("expected `=` after `!`", offset));
                }
            }
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    TokenKind::Le
                }
                Some(b'>') => {
                    self.pos += 1;
                    TokenKind::Ne
                }
                _ => TokenKind::Lt,
            },
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'\'' => {
                let (s, end) = quoted(self.text, offset)
                    .ok_or_else(|| self.err("unterminated string literal", offset))?;
                self.pos = end;
                TokenKind::Str(s)
            }
            b'{' => {
                let len = self.text[self.pos..]
                    .find('}')
                    .ok_or_else(|| self.err("unterminated record body", offset))?;
                let body = self.text[self.pos..self.pos + len].to_owned();
                self.pos += len + 1;
                TokenKind::Body(body)
            }
            b'-' | b'+' | b'0'..=b'9' => {
                self.pos = offset;
                self.lex_number(offset)?
            }
            _ if self.text[offset..].starts_with(is_word_start) => {
                self.pos = offset;
                self.lex_ident()
            }
            _ => {
                let c = char_at(self.text, offset);
                return Err(self.err(format!("unexpected character `{c}`"), offset));
            }
        };
        Ok(Token { kind, offset })
    }

    fn lex_number(&mut self, offset: usize) -> Result<TokenKind> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'-') | Some(b'+')) {
            self.pos += 1;
        }
        let mut saw_digit = false;
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'.' if !is_float => {
                    // Require a digit after the point (so `1..5` elsewhere
                    // doesn't lex as a float — relevant to the Daplex lexer
                    // which reuses this convention).
                    if matches!(self.src.get(self.pos + 1), Some(b'0'..=b'9')) {
                        is_float = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                b'e' | b'E' if is_float || saw_digit => {
                    let save = self.pos;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'-') | Some(b'+')) {
                        self.pos += 1;
                    }
                    if matches!(self.peek(), Some(b'0'..=b'9')) {
                        is_float = true;
                        while matches!(self.peek(), Some(b'0'..=b'9')) {
                            self.pos += 1;
                        }
                    } else {
                        self.pos = save;
                    }
                    break;
                }
                _ => break,
            }
        }
        if !saw_digit {
            return Err(self.err("expected digits in number", offset));
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number", offset))?;
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|e| self.err(format!("bad float literal: {e}"), offset))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|e| self.err(format!("bad integer literal: {e}"), offset))
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.pos;
        self.pos = word_end(self.text, start);
        // `-` inside identifiers supports `RETRIEVE-COMMON`.
        while self.text[self.pos..].starts_with('-') {
            self.pos = word_end(self.text, self.pos + 1);
        }
        TokenKind::Ident(self.text[start..self.pos].to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src).tokenize().unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_punctuation_and_relops() {
        assert_eq!(
            kinds("( ) , ; = != <> < <= > >= *"),
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::Semi,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Star,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("42 -7 3.5 -0.25 1e3"),
            vec![
                TokenKind::Int(42),
                TokenKind::Int(-7),
                TokenKind::Float(3.5),
                TokenKind::Float(-0.25),
                TokenKind::Float(1000.0),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            kinds("'Advanced Database' 'O''Brien'"),
            vec![
                TokenKind::Str("Advanced Database".into()),
                TokenKind::Str("O'Brien".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_hyphenated_ident() {
        assert_eq!(
            kinds("RETRIEVE-COMMON"),
            vec![TokenKind::Ident("RETRIEVE-COMMON".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn skips_line_comments() {
        assert_eq!(
            kinds("a -- a comment\n b"),
            vec![TokenKind::Ident("a".into()), TokenKind::Ident("b".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn keeps_utf8_text() {
        assert_eq!(
            kinds("José 'José' 'a''é' {café ☃}"),
            vec![
                TokenKind::Ident("José".into()),
                TokenKind::Str("José".into()),
                TokenKind::Str("a'é".into()),
                TokenKind::Body("café ☃".into()),
                TokenKind::Eof,
            ]
        );
        let err = Lexer::new("☃").tokenize().unwrap_err().to_string();
        assert!(err.contains('☃'), "{err}");
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(Lexer::new("'oops").tokenize().is_err());
    }
}
