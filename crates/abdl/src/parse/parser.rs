//! Recursive-descent parser for ABDL requests.

use super::lexer::{Lexer, Token, TokenKind};
use crate::error::{Error, Result};
use crate::query::{Predicate, Query, RelOp};
use crate::record::Record;
use crate::request::{Aggregate, Modifier, Request, Target, TargetList, Transaction};
use crate::value::Value;

/// Parse a single ABDL request; trailing input is an error.
pub fn parse_request(src: &str) -> Result<Request> {
    let mut p = Parser::new(src)?;
    let req = p.request()?;
    p.eat_semis();
    p.expect_eof()?;
    Ok(req)
}

/// Parse a transaction: one or more requests separated by optional `;`
/// or newlines.
pub fn parse_transaction(src: &str) -> Result<Transaction> {
    let mut p = Parser::new(src)?;
    let mut requests = Vec::new();
    p.eat_semis();
    while !p.at_eof() {
        requests.push(p.request()?);
        p.eat_semis();
    }
    Ok(Transaction::new(requests))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self> {
        Ok(Parser { tokens: Lexer::new(src).tokenize()?, pos: 0 })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn eat_semis(&mut self) {
        while self.peek().kind == TokenKind::Semi {
            self.bump();
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse { msg: msg.into(), offset: self.peek().offset }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<Token> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek().kind)))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek().kind)))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Consume an identifier if it matches `kw` case-insensitively.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let TokenKind::Ident(s) = &self.peek().kind {
            if s.eq_ignore_ascii_case(kw) {
                self.bump();
                return true;
            }
        }
        false
    }

    fn request(&mut self) -> Result<Request> {
        let name = self.ident("request operation")?;
        match name.to_ascii_uppercase().as_str() {
            "INSERT" => self.insert(),
            "DELETE" => Ok(Request::Delete { query: self.query()? }),
            "UPDATE" => {
                let query = self.query()?;
                let modifier = self.modifier()?;
                Ok(Request::Update { query, modifier })
            }
            "RETRIEVE" => {
                let query = self.query()?;
                let target = self.target_list()?;
                let by = if self.eat_kw("BY") { Some(self.ident("by-attribute")?) } else { None };
                Ok(Request::Retrieve { query, target, by })
            }
            "RETRIEVE-COMMON" => {
                let left = self.query()?;
                self.expect(&TokenKind::LParen, "`(`")?;
                let left_attr = self.ident("join attribute")?;
                self.expect(&TokenKind::RParen, "`)`")?;
                if !self.eat_kw("COMMON") {
                    return Err(self.err("expected `COMMON`"));
                }
                let right = self.query()?;
                self.expect(&TokenKind::LParen, "`(`")?;
                let right_attr = self.ident("join attribute")?;
                self.expect(&TokenKind::RParen, "`)`")?;
                let target = self.target_list()?;
                Ok(Request::RetrieveCommon { left, left_attr, right, right_attr, target })
            }
            other => Err(self.err(format!("unknown ABDL operation `{other}`"))),
        }
    }

    fn insert(&mut self) -> Result<Request> {
        self.expect(&TokenKind::LParen, "`(` opening keyword list")?;
        let mut record = Record::new();
        loop {
            match self.peek().kind.clone() {
                TokenKind::Lt => {
                    self.bump();
                    let attr = self.ident("attribute name")?;
                    self.expect(&TokenKind::Comma, "`,` in keyword")?;
                    let value = self.value()?;
                    self.expect(&TokenKind::Gt, "`>` closing keyword")?;
                    record.set(attr, value);
                }
                TokenKind::Body(text) => {
                    self.bump();
                    record.body = Some(text);
                }
                other => {
                    return Err(self.err(format!("expected `<attr, value>` keyword, found {other:?}")))
                }
            }
            if self.peek().kind == TokenKind::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "`)` closing keyword list")?;
        Ok(Request::Insert { record })
    }

    fn modifier(&mut self) -> Result<Modifier> {
        self.expect(&TokenKind::LParen, "`(` opening modifier")?;
        let attr = self.ident("modifier attribute")?;
        self.expect(&TokenKind::Eq, "`=` in modifier")?;
        let value = self.value()?;
        self.expect(&TokenKind::RParen, "`)` closing modifier")?;
        Ok(Modifier { attr, value })
    }

    fn target_list(&mut self) -> Result<TargetList> {
        self.expect(&TokenKind::LParen, "`(` opening target list")?;
        if self.peek().kind == TokenKind::Star {
            self.bump();
            self.expect(&TokenKind::RParen, "`)` closing target list")?;
            return Ok(TargetList::all());
        }
        let mut targets = Vec::new();
        loop {
            let name = self.ident("target attribute")?;
            let agg = match name.to_ascii_uppercase().as_str() {
                "COUNT" => Some(Aggregate::Count),
                "SUM" => Some(Aggregate::Sum),
                "AVG" => Some(Aggregate::Avg),
                "MIN" => Some(Aggregate::Min),
                "MAX" => Some(Aggregate::Max),
                _ => None,
            };
            match (agg, &self.peek().kind) {
                (Some(op), TokenKind::LParen) => {
                    self.bump();
                    let attr = self.ident("aggregated attribute")?;
                    self.expect(&TokenKind::RParen, "`)` closing aggregate")?;
                    targets.push(Target::Agg(op, attr));
                }
                _ => targets.push(Target::Attr(name)),
            }
            if self.peek().kind == TokenKind::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "`)` closing target list")?;
        Ok(TargetList { targets })
    }

    /// Queries: the grammar is permissive about parenthesization; we
    /// parse a parenthesized boolean expression over predicates with
    /// `and` binding tighter than `or`, then flatten to DNF. Inputs are
    /// already in DNF per the model definition, so flattening never
    /// needs distribution — a conjunction containing a disjunction is
    /// rejected.
    fn query(&mut self) -> Result<Query> {
        let expr = self.or_expr()?;
        expr.into_dnf().map_err(|msg| self.err(msg))
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut terms = vec![self.and_expr()?];
        while self.eat_kw("or") {
            terms.push(self.and_expr()?);
        }
        Ok(if terms.len() == 1 { terms.pop().expect("one term") } else { Expr::Or(terms) })
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut terms = vec![self.primary()?];
        while self.eat_kw("and") {
            terms.push(self.primary()?);
        }
        Ok(if terms.len() == 1 { terms.pop().expect("one term") } else { Expr::And(terms) })
    }

    /// A primary is `(expr)` or `(attr relop value)`; the lookahead after
    /// `(` distinguishes a nested expression from a predicate: a
    /// predicate is IDENT RELOP.
    fn primary(&mut self) -> Result<Expr> {
        self.expect(&TokenKind::LParen, "`(` in query")?;
        let expr = match (&self.peek().kind, self.peek2()) {
            (TokenKind::Ident(_), k) if is_relop(k) => {
                let attr = self.ident("predicate attribute")?;
                let op = self.relop()?;
                let value = self.value()?;
                Expr::Pred(Predicate { attr, op, value })
            }
            (TokenKind::Ident(s), TokenKind::RParen) if s.eq_ignore_ascii_case("TRUE") => {
                self.bump();
                Expr::And(vec![])
            }
            (TokenKind::Ident(s), TokenKind::RParen) if s.eq_ignore_ascii_case("FALSE") => {
                self.bump();
                Expr::Or(vec![])
            }
            _ => self.or_expr()?,
        };
        self.expect(&TokenKind::RParen, "`)` in query")?;
        Ok(expr)
    }

    fn relop(&mut self) -> Result<RelOp> {
        let op = match self.peek().kind {
            TokenKind::Eq => RelOp::Eq,
            TokenKind::Ne => RelOp::Ne,
            TokenKind::Lt => RelOp::Lt,
            TokenKind::Le => RelOp::Le,
            TokenKind::Gt => RelOp::Gt,
            TokenKind::Ge => RelOp::Ge,
            _ => return Err(self.err("expected relational operator")),
        };
        self.bump();
        Ok(op)
    }

    fn value(&mut self) -> Result<Value> {
        let v = match self.peek().kind.clone() {
            TokenKind::Int(i) => Value::Int(i),
            TokenKind::Float(f) => Value::Float(f),
            TokenKind::Str(s) => Value::from(s),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("NULL") => Value::Null,
            // Barewords are string values (the thesis writes unquoted
            // values like `course` in `(FILE = course)`).
            TokenKind::Ident(s) => Value::from(s),
            other => return Err(self.err(format!("expected value, found {other:?}"))),
        };
        self.bump();
        Ok(v)
    }
}

fn is_relop(kind: &TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Eq | TokenKind::Ne | TokenKind::Lt | TokenKind::Le | TokenKind::Gt | TokenKind::Ge
    )
}

/// Intermediate boolean expression flattened into DNF after parsing.
enum Expr {
    Pred(Predicate),
    And(Vec<Expr>),
    Or(Vec<Expr>),
}

impl Expr {
    fn into_dnf(self) -> std::result::Result<Query, String> {
        match self {
            Expr::Pred(p) => Ok(Query::conjunction(vec![p])),
            Expr::Or(terms) => {
                let mut disjuncts = Vec::new();
                for t in terms {
                    disjuncts.extend(t.into_dnf()?.disjuncts);
                }
                Ok(Query::new(disjuncts))
            }
            Expr::And(terms) => {
                let mut predicates = Vec::new();
                for t in terms {
                    match t {
                        Expr::Pred(p) => predicates.push(p),
                        Expr::And(inner) => {
                            for i in inner {
                                match i.into_dnf()?.disjuncts.as_slice() {
                                    [single] => predicates.extend(single.predicates.clone()),
                                    _ => {
                                        return Err(
                                            "query is not in disjunctive normal form".to_owned()
                                        )
                                    }
                                }
                            }
                        }
                        Expr::Or(_) => {
                            return Err(
                                "query is not in disjunctive normal form (OR inside AND)"
                                    .to_owned(),
                            )
                        }
                    }
                }
                Ok(Query::conjunction(predicates))
            }
        }
    }
}
