//! SQL tokenizer.

use crate::error::{Error, Result};
use abdl::parse::{char_at, is_word_start, quoted, word_end};

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Keyword or name.
    Word(String),
    /// Single-quoted string literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

/// A token with a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Byte offset in the source.
    pub offset: usize,
}

/// Tokenize SQL text (`--` line comments are skipped).
pub fn tokenize(src: &str) -> Result<Vec<SpannedTok>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0usize;
    loop {
        loop {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos + 1 < bytes.len() && bytes[pos] == b'-' && bytes[pos + 1] == b'-' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            } else {
                break;
            }
        }
        let offset = pos;
        if pos >= bytes.len() {
            out.push(SpannedTok { tok: Tok::Eof, offset });
            return Ok(out);
        }
        let c = bytes[pos];
        let tok = match c {
            b',' => {
                pos += 1;
                Tok::Comma
            }
            b';' => {
                pos += 1;
                Tok::Semi
            }
            b'(' => {
                pos += 1;
                Tok::LParen
            }
            b')' => {
                pos += 1;
                Tok::RParen
            }
            b'*' => {
                pos += 1;
                Tok::Star
            }
            b'.' => {
                pos += 1;
                Tok::Dot
            }
            b'=' => {
                pos += 1;
                Tok::Eq
            }
            b'!' => {
                pos += 1;
                if bytes.get(pos) == Some(&b'=') {
                    pos += 1;
                    Tok::Ne
                } else {
                    return Err(Error::Parse { msg: "expected `=` after `!`".into(), offset });
                }
            }
            b'<' => {
                pos += 1;
                match bytes.get(pos) {
                    Some(b'=') => {
                        pos += 1;
                        Tok::Le
                    }
                    Some(b'>') => {
                        pos += 1;
                        Tok::Ne
                    }
                    _ => Tok::Lt,
                }
            }
            b'>' => {
                pos += 1;
                if bytes.get(pos) == Some(&b'=') {
                    pos += 1;
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            b'\'' => {
                let (s, end) = quoted(src, pos).ok_or_else(|| Error::Parse {
                    msg: "unterminated string literal".into(),
                    offset,
                })?;
                pos = end;
                Tok::Str(s)
            }
            b'0'..=b'9' | b'-' | b'+' => {
                let start = pos;
                if matches!(bytes[pos], b'-' | b'+') {
                    pos += 1;
                }
                if pos >= bytes.len() || !bytes[pos].is_ascii_digit() {
                    return Err(Error::Parse { msg: "expected digits".into(), offset });
                }
                while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                    pos += 1;
                }
                let mut is_float = false;
                if pos + 1 < bytes.len() && bytes[pos] == b'.' && bytes[pos + 1].is_ascii_digit() {
                    is_float = true;
                    pos += 1;
                    while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                        pos += 1;
                    }
                }
                let text = std::str::from_utf8(&bytes[start..pos]).expect("ascii");
                if is_float {
                    Tok::Float(text.parse().map_err(|e| Error::Parse {
                        msg: format!("bad float: {e}"),
                        offset,
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|e| Error::Parse {
                        msg: format!("bad integer: {e}"),
                        offset,
                    })?)
                }
            }
            _ if src[pos..].starts_with(is_word_start) => {
                let start = pos;
                pos = word_end(src, start);
                Tok::Word(src[start..pos].to_owned())
            }
            _ => {
                return Err(Error::Parse {
                    msg: format!("unexpected character `{}`", char_at(src, pos)),
                    offset,
                })
            }
        };
        out.push(SpannedTok { tok, offset });
    }
}

/// A token cursor with SQL keyword helpers.
pub struct Cursor {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Cursor {
    /// Tokenize and wrap.
    pub fn new(src: &str) -> Result<Self> {
        Ok(Cursor { toks: tokenize(src)?, pos: 0 })
    }

    /// Current token.
    pub fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].tok
    }

    /// Offset of the current token.
    pub fn offset(&self) -> usize {
        self.toks[self.pos.min(self.toks.len() - 1)].offset
    }

    /// Advance and return the consumed token.
    pub fn bump(&mut self) -> Tok {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// At end of input?
    pub fn at_eof(&self) -> bool {
        *self.peek() == Tok::Eof
    }

    /// Parse error at the current token.
    pub fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse { msg: msg.into(), offset: self.offset() }
    }

    /// Is the current token this keyword (case-insensitive)?
    pub fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword if present.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Require the keyword.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    /// Require a name.
    pub fn name(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            Tok::Word(w) => {
                self.bump();
                Ok(w)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Require a punctuation token.
    pub fn expect_tok(&mut self, tok: Tok, what: &str) -> Result<()> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    /// Require an integer literal.
    pub fn int(&mut self, what: &str) -> Result<i64> {
        match *self.peek() {
            Tok::Int(i) => {
                self.bump();
                Ok(i)
            }
            _ => Err(self.err(format!("expected {what}, found {:?}", self.peek()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_select() {
        assert_eq!(
            kinds("SELECT s.sname FROM supplier s WHERE sno >= 2;"),
            vec![
                Tok::Word("SELECT".into()),
                Tok::Word("s".into()),
                Tok::Dot,
                Tok::Word("sname".into()),
                Tok::Word("FROM".into()),
                Tok::Word("supplier".into()),
                Tok::Word("s".into()),
                Tok::Word("WHERE".into()),
                Tok::Word("sno".into()),
                Tok::Ge,
                Tok::Int(2),
                Tok::Semi,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_strings() {
        assert_eq!(
            kinds("-- hi\n'O''Brien' 3.5"),
            vec![Tok::Str("O'Brien".into()), Tok::Float(3.5), Tok::Eof]
        );
    }
}
