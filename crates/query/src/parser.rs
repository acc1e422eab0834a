//! Text parsers for Datalog programs and FO formulas.
//!
//! Conventions (classical Datalog style):
//! * variables start with an uppercase letter or `_`;
//! * constants are integers, `'quoted symbols'`, or lowercase identifiers;
//! * relation names are identifiers as written;
//! * Datalog rules end with `.`, negation is `!`, nonequality `!=`;
//! * FO connectives: `&`, `|`, `!`, `exists X, Y . φ`, `forall X . φ`,
//!   `=`, `!=`, `true`, `false`.
//!
//! ```
//! use rtx_query::parser::{parse_program, parse_fo_query};
//! let p = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).").unwrap();
//! assert_eq!(p.rules().len(), 2);
//! let q = parse_fo_query("(X) <- s(X) & !exists Y . e(X,Y)").unwrap();
//! assert_eq!(rtx_query::Query::arity(&q), 1);
//! ```

use crate::datalog::{Literal, Program, Rule};
use crate::error::EvalError;
use crate::fo::{FoQuery, Formula};
use crate::term::{Atom, Term, Var};
use rtx_relational::Value;

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Quoted(String),
    LParen,
    RParen,
    Comma,
    Dot,
    ColonDash,
    Arrow,
    Bang,
    Neq,
    Eq,
    Amp,
    Pipe,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> EvalError {
        EvalError::Parse {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn tokens(mut self) -> Result<Vec<(Tok, usize)>, EvalError> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let start = self.pos;
            let c = self.src[self.pos];
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => {
                    self.pos += 1;
                }
                b'%' | b'#' => {
                    // comment to end of line
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'(' => {
                    out.push((Tok::LParen, start));
                    self.pos += 1;
                }
                b')' => {
                    out.push((Tok::RParen, start));
                    self.pos += 1;
                }
                b',' => {
                    out.push((Tok::Comma, start));
                    self.pos += 1;
                }
                b'.' => {
                    out.push((Tok::Dot, start));
                    self.pos += 1;
                }
                b'&' => {
                    out.push((Tok::Amp, start));
                    self.pos += 1;
                }
                b'|' => {
                    out.push((Tok::Pipe, start));
                    self.pos += 1;
                }
                b'=' => {
                    out.push((Tok::Eq, start));
                    self.pos += 1;
                }
                b'!' => {
                    if self.src.get(self.pos + 1) == Some(&b'=') {
                        out.push((Tok::Neq, start));
                        self.pos += 2;
                    } else {
                        out.push((Tok::Bang, start));
                        self.pos += 1;
                    }
                }
                b':' => {
                    if self.src.get(self.pos + 1) == Some(&b'-') {
                        out.push((Tok::ColonDash, start));
                        self.pos += 2;
                    } else {
                        return Err(self.error("expected `:-`"));
                    }
                }
                b'<' => {
                    if self.src.get(self.pos + 1) == Some(&b'-') {
                        out.push((Tok::Arrow, start));
                        self.pos += 2;
                    } else {
                        return Err(self.error("expected `<-`"));
                    }
                }
                b'\'' => {
                    self.pos += 1;
                    let s = self.pos;
                    while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                        self.pos += 1;
                    }
                    if self.pos >= self.src.len() {
                        return Err(self.error("unterminated quoted symbol"));
                    }
                    let text = std::str::from_utf8(&self.src[s..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in quoted symbol"))?
                        .to_string();
                    self.pos += 1;
                    out.push((Tok::Quoted(text), start));
                }
                b'-' | b'0'..=b'9' => {
                    let s = self.pos;
                    self.pos += 1;
                    while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                        self.pos += 1;
                    }
                    let text = std::str::from_utf8(&self.src[s..self.pos]).unwrap();
                    let n: i64 = text
                        .parse()
                        .map_err(|_| self.error(format!("bad integer `{text}`")))?;
                    out.push((Tok::Int(n), start));
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let s = self.pos;
                    while self.pos < self.src.len()
                        && (self.src[self.pos].is_ascii_alphanumeric()
                            || self.src[self.pos] == b'_')
                    {
                        self.pos += 1;
                    }
                    let text = std::str::from_utf8(&self.src[s..self.pos])
                        .unwrap()
                        .to_string();
                    out.push((Tok::Ident(text), start));
                }
                other => {
                    return Err(self.error(format!("unexpected character `{}`", other as char)))
                }
            }
        }
        Ok(out)
    }
}

/// How deeply FO formulas may nest (parentheses, `!`, quantifiers).
/// The parser recurses per level; this bound makes deeper input a parse
/// error instead of a stack overflow, even on a 2 MiB debug thread.
const MAX_FORMULA_DEPTH: usize = 128;

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Current formula nesting depth (see [`MAX_FORMULA_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, EvalError> {
        Ok(Parser {
            toks: Lexer::new(src).tokens()?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|&(_, o)| o)
            .unwrap_or(usize::MAX)
    }

    fn error(&self, message: impl Into<String>) -> EvalError {
        EvalError::Parse {
            message: message.into(),
            offset: self.offset(),
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok) -> Result<(), EvalError> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            Some(got) => Err(self.error(format!("expected {t:?}, found {got:?}"))),
            None => Err(self.error(format!("expected {t:?}, found end of input"))),
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Is the identifier a variable (uppercase or `_` start)?
    fn is_var(name: &str) -> bool {
        name.starts_with(|c: char| c.is_ascii_uppercase() || c == '_')
    }

    fn term_from_ident(name: String) -> Term {
        if Self::is_var(&name) {
            Term::var(name)
        } else {
            Term::cons(Value::sym(name))
        }
    }

    fn parse_term(&mut self) -> Result<Term, EvalError> {
        match self.next() {
            Some(Tok::Ident(name)) => Ok(Self::term_from_ident(name)),
            Some(Tok::Int(n)) => Ok(Term::cons(n)),
            Some(Tok::Quoted(s)) => Ok(Term::cons(Value::sym(s))),
            other => Err(self.error(format!("expected a term, found {other:?}"))),
        }
    }

    /// `name(t1, …, tk)` or bare `name` (nullary).
    fn parse_atom(&mut self, name: String) -> Result<Atom, EvalError> {
        let mut terms = Vec::new();
        if self.eat(&Tok::LParen) && !self.eat(&Tok::RParen) {
            loop {
                terms.push(self.parse_term()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma)?;
            }
        }
        Ok(Atom::new(name, terms))
    }

    // ---- Datalog ----

    fn parse_rule(&mut self) -> Result<Rule, EvalError> {
        let head_name = match self.next() {
            Some(Tok::Ident(n)) => n,
            other => return Err(self.error(format!("expected rule head, found {other:?}"))),
        };
        let head = self.parse_atom(head_name)?;
        let mut body = Vec::new();
        if self.eat(&Tok::ColonDash) {
            loop {
                body.push(self.parse_literal()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::Dot)?;
        Rule::new(head, body)
    }

    fn parse_literal(&mut self) -> Result<Literal, EvalError> {
        if self.eat(&Tok::Bang) {
            let name = match self.next() {
                Some(Tok::Ident(n)) => n,
                other => {
                    return Err(self.error(format!("expected atom after `!`, found {other:?}")))
                }
            };
            return Ok(Literal::Neg(self.parse_atom(name)?));
        }
        // an atom, or `term != term`
        let start = self.pos;
        match self.next() {
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    Ok(Literal::Pos(self.parse_atom(name)?))
                } else if self.eat(&Tok::Neq) {
                    let rhs = self.parse_term()?;
                    Ok(Literal::Diseq(Self::term_from_ident(name), rhs))
                } else {
                    // nullary atom
                    Ok(Literal::Pos(Atom::new(name, vec![])))
                }
            }
            Some(Tok::Int(n)) => {
                self.expect(Tok::Neq)?;
                let rhs = self.parse_term()?;
                Ok(Literal::Diseq(Term::cons(n), rhs))
            }
            Some(Tok::Quoted(s)) => {
                self.expect(Tok::Neq)?;
                let rhs = self.parse_term()?;
                Ok(Literal::Diseq(Term::cons(Value::sym(s)), rhs))
            }
            other => {
                self.pos = start;
                Err(self.error(format!("expected a body literal, found {other:?}")))
            }
        }
    }

    // ---- FO ----

    fn parse_formula(&mut self) -> Result<Formula, EvalError> {
        self.parse_disjunction()
    }

    fn parse_disjunction(&mut self) -> Result<Formula, EvalError> {
        let mut parts = vec![self.parse_conjunction()?];
        while self.eat(&Tok::Pipe) {
            parts.push(self.parse_conjunction()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::Or(parts)
        })
    }

    fn parse_conjunction(&mut self) -> Result<Formula, EvalError> {
        let mut parts = vec![self.parse_unary()?];
        while self.eat(&Tok::Amp) {
            parts.push(self.parse_unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::And(parts)
        })
    }

    /// Every nesting construct recurses through here, so this enforces
    /// [`MAX_FORMULA_DEPTH`].
    fn parse_unary(&mut self) -> Result<Formula, EvalError> {
        if self.depth >= MAX_FORMULA_DEPTH {
            return Err(self.error(format!(
                "formula nested deeper than {MAX_FORMULA_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let f = self.parse_unary_inner();
        self.depth -= 1;
        f
    }

    fn parse_unary_inner(&mut self) -> Result<Formula, EvalError> {
        if self.eat(&Tok::Bang) {
            return Ok(Formula::not(self.parse_unary()?));
        }
        match self.peek() {
            Some(Tok::Ident(kw)) if kw == "exists" || kw == "forall" => {
                let universal = kw == "forall";
                self.next();
                let mut vars: Vec<Var> = Vec::new();
                loop {
                    match self.next() {
                        Some(Tok::Ident(v)) if Self::is_var(&v) => vars.push(Var::new(v)),
                        other => {
                            return Err(self
                                .error(format!("expected quantified variable, found {other:?}")))
                        }
                    }
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::Dot)?;
                let body = self.parse_formula()?;
                Ok(if universal {
                    Formula::Forall(vars, Box::new(body))
                } else {
                    Formula::Exists(vars, Box::new(body))
                })
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Formula, EvalError> {
        if self.eat(&Tok::LParen) {
            let f = self.parse_formula()?;
            self.expect(Tok::RParen)?;
            return Ok(f);
        }
        match self.next() {
            Some(Tok::Ident(name)) if name == "true" => Ok(Formula::True),
            Some(Tok::Ident(name)) if name == "false" => Ok(Formula::False),
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    Ok(Formula::Atom(self.parse_atom(name)?))
                } else if self.eat(&Tok::Eq) {
                    let rhs = self.parse_term()?;
                    Ok(Formula::Eq(Self::term_from_ident(name), rhs))
                } else if self.eat(&Tok::Neq) {
                    let rhs = self.parse_term()?;
                    Ok(Formula::neq(Self::term_from_ident(name), rhs))
                } else {
                    Ok(Formula::Atom(Atom::new(name, vec![]))) // nullary atom
                }
            }
            Some(Tok::Int(n)) => {
                let lhs = Term::cons(n);
                if self.eat(&Tok::Eq) {
                    Ok(Formula::Eq(lhs, self.parse_term()?))
                } else {
                    self.expect(Tok::Neq)?;
                    Ok(Formula::neq(lhs, self.parse_term()?))
                }
            }
            Some(Tok::Quoted(s)) => {
                let lhs = Term::cons(Value::sym(s));
                if self.eat(&Tok::Eq) {
                    Ok(Formula::Eq(lhs, self.parse_term()?))
                } else {
                    self.expect(Tok::Neq)?;
                    Ok(Formula::neq(lhs, self.parse_term()?))
                }
            }
            other => Err(self.error(format!("expected a formula, found {other:?}"))),
        }
    }
}

/// Parse a Datalog program: a sequence of `head :- body.` rules.
pub fn parse_program(src: &str) -> Result<Program, EvalError> {
    let mut p = Parser::new(src)?;
    let mut rules = Vec::new();
    while !p.at_end() {
        rules.push(p.parse_rule()?);
    }
    Program::new(rules)
}

/// Parse a bare FO formula.
pub fn parse_formula(src: &str) -> Result<Formula, EvalError> {
    let mut p = Parser::new(src)?;
    let f = p.parse_formula()?;
    if !p.at_end() {
        return Err(p.error("trailing input after formula"));
    }
    Ok(f)
}

/// Parse an FO query of the form `(X, Y) <- formula`.
pub fn parse_fo_query(src: &str) -> Result<FoQuery, EvalError> {
    let mut p = Parser::new(src)?;
    p.expect(Tok::LParen)?;
    let mut head: Vec<Var> = Vec::new();
    if !p.eat(&Tok::RParen) {
        loop {
            match p.next() {
                Some(Tok::Ident(v)) if Parser::is_var(&v) => head.push(Var::new(v)),
                other => return Err(p.error(format!("expected head variable, found {other:?}"))),
            }
            if p.eat(&Tok::RParen) {
                break;
            }
            p.expect(Tok::Comma)?;
        }
    }
    p.expect(Tok::Arrow)?;
    let f = p.parse_formula()?;
    if !p.at_end() {
        return Err(p.error("trailing input after query"));
    }
    FoQuery::new(head, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use rtx_relational::{fact, tuple, Instance, Schema};

    fn db() -> Instance {
        let sch = Schema::new().with("e", 2).with("s", 1);
        Instance::from_facts(sch, vec![fact!("e", 1, 2), fact!("e", 2, 3), fact!("s", 2)]).unwrap()
    }

    #[test]
    fn parse_tc_program_and_eval() {
        let p = parse_program(
            "t(X,Y) :- e(X,Y).\n\
             t(X,Z) :- t(X,Y), e(Y,Z).",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 2);
        let q = crate::datalog::DatalogQuery::new(p, "t").unwrap();
        let out = q.eval(&db()).unwrap();
        assert!(out.contains(&tuple![1, 3]));
    }

    #[test]
    fn parse_negation_and_diseq() {
        let p = parse_program("p(X,Y) :- e(X,Y), !s(X), X != Y.").unwrap();
        let r = &p.rules()[0];
        assert!(r.has_negation());
        let q = crate::datalog::DatalogQuery::new(p, "p").unwrap();
        let out = q.eval(&db()).unwrap();
        assert_eq!(out.len(), 1); // only (1,2): 2 is in s
        assert!(out.contains(&tuple![1, 2]));
    }

    #[test]
    fn parse_constants_and_nullary() {
        let p = parse_program("hit :- e(1, X). tagged(X) :- e(X, 'two').").unwrap();
        assert_eq!(p.rules().len(), 2);
        assert_eq!(p.signature().arity(&"hit".into()), Some(0));
    }

    #[test]
    fn lowercase_idents_in_term_position_are_constants() {
        let p = parse_program("q(X) :- lab(X, red).").unwrap();
        let sch = Schema::new().with("lab", 2);
        let dbx = Instance::from_facts(sch, vec![fact!("lab", 1, "red"), fact!("lab", 2, "blue")])
            .unwrap();
        let q = crate::datalog::DatalogQuery::new(p, "q").unwrap();
        let out = q.eval(&dbx).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1]));
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program(
            "% transitive closure\n\
             t(X,Y) :- e(X,Y). # copy\n",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 1);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse_program("t(X,Y :- e(X,Y).").unwrap_err();
        assert!(matches!(err, EvalError::Parse { .. }));
        let err = parse_program("t(X) :- e(X,Y)").unwrap_err(); // missing dot
        assert!(matches!(err, EvalError::Parse { .. }));
    }

    #[test]
    fn unsafe_rule_surfaces_as_unsafe() {
        let err = parse_program("t(X) :- !e(X,X).").unwrap_err();
        assert!(matches!(err, EvalError::Unsafe { .. }));
    }

    #[test]
    fn parse_fo_and_eval() {
        let q = parse_fo_query("(X, Z) <- exists Y . e(X,Y) & e(Y,Z)").unwrap();
        let out = q.eval(&db()).unwrap();
        assert!(out.contains(&tuple![1, 3]));
    }

    #[test]
    fn parse_fo_sentence() {
        let q = parse_fo_query("() <- !exists X . s(X)").unwrap();
        assert_eq!(q.arity(), 0);
        assert!(!q.eval(&db()).unwrap().as_bool());
    }

    #[test]
    fn fo_precedence_and_parens() {
        // & binds tighter than |
        let f = parse_formula("s(X) & e(X,Y) | e(Y,X)").unwrap();
        match f {
            Formula::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
        let g = parse_formula("s(X) & (e(X,Y) | e(Y,X))").unwrap();
        match g {
            Formula::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn fo_forall_and_implication_encoding() {
        let q = parse_fo_query("() <- forall X . !s(X) | exists Y . e(X,Y)").unwrap();
        assert!(q.eval(&db()).unwrap().as_bool());
    }

    #[test]
    fn fo_equalities() {
        let q = parse_fo_query("(X, Y) <- e(X,Y) & X = Y").unwrap();
        assert!(q.eval(&db()).unwrap().is_empty());
        let q2 = parse_fo_query("(X) <- s(X) & X != 2").unwrap();
        assert!(q2.eval(&db()).unwrap().is_empty());
    }

    #[test]
    fn fo_free_var_validation_via_parser() {
        assert!(matches!(
            parse_fo_query("(X) <- e(X,Y)"),
            Err(EvalError::Unsafe { .. })
        ));
    }

    #[test]
    fn fo_trailing_garbage_rejected() {
        assert!(parse_fo_query("(X) <- s(X) s(X)").is_err());
        assert!(parse_formula("s(X) extra").is_err());
    }

    #[test]
    fn nullary_atoms_in_fo() {
        let f = parse_formula("ready & !done").unwrap();
        let rels = f.relations();
        assert!(rels.contains(&"ready".into()));
        assert!(rels.contains(&"done".into()));
    }

    #[test]
    fn quoted_symbols_lex() {
        let p = parse_program("q(X) :- lab(X, 'hello world').").unwrap();
        assert_eq!(p.rules().len(), 1);
        assert!(parse_program("q(X) :- lab(X, 'unterminated.").is_err());
    }

    #[test]
    fn negative_integers() {
        let p = parse_program("q(X) :- v(X, -5).").unwrap();
        assert_eq!(p.rules().len(), 1);
    }

    /// `k` levels of parentheses (kind 0), `!` (1) or `exists X .` (2)
    /// around `s(X)`.
    fn nested(kind: usize, k: usize) -> String {
        match kind {
            0 => format!("{}s(X){}", "(".repeat(k), ")".repeat(k)),
            1 => format!("{}s(X)", "!".repeat(k)),
            _ => format!("{}s(X)", "exists X . ".repeat(k)),
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // On the default test thread: without the bound, each aborts.
        for kind in 0..3 {
            let src = nested(kind, 100_000);
            assert!(matches!(parse_formula(&src), Err(EvalError::Parse { .. })));
            let q = parse_fo_query(&format!("() <- {src}"));
            assert!(matches!(q, Err(EvalError::Parse { .. })));
        }
    }

    #[test]
    fn nesting_up_to_the_bound_parses_and_evaluates() {
        let k = MAX_FORMULA_DEPTH - 1; // `s(X)` itself is one level
        for kind in 0..3 {
            assert!(parse_formula(&nested(kind, k)).is_ok());
            assert!(parse_formula(&nested(kind, k + 1)).is_err());
        }
        // An even number of negations is the identity.
        let q = parse_fo_query(&format!("(X) <- {}", nested(1, k - 1))).unwrap();
        assert_eq!(q.eval(&db()).unwrap().len(), 1);
        let q = parse_fo_query(&format!("() <- {}", nested(2, k))).unwrap();
        assert!(q.eval(&db()).unwrap().as_bool());
    }
}
