//! A view as one line of text: the reader of the notation of
//! [`crate::view`], and `Display`, its exact inverse (`FormatView::read`
//! of a view's name and its printed text is the view).
//!
//! Recursive descent over tokens that are slices of the text. The reader
//! names nothing but the notation: what a view *means* for a format is
//! checked against the format's levels ([`crate::level::check_view`]).

use crate::view::{Bound, FormatView, Order, SearchKind, StoredGuarantee, Transform, ViewExpr};
use crate::FormatError;
use std::fmt::{self, Display, Formatter};

/// The words of the notation for what a level or a view claims, both
/// ways: a level's order and search (and `interval`), a view's
/// `stored` guarantees.
const ORDERS: [(&str, Order); 3] = [
    ("inc", Order::Increasing),
    ("dec", Order::Decreasing),
    ("unordered", Order::Unordered),
];
const SEARCHES: [(&str, SearchKind); 5] = [
    ("none", SearchKind::None),
    ("linear", SearchKind::Linear),
    ("sorted", SearchKind::Sorted),
    ("direct", SearchKind::Direct),
    ("hash", SearchKind::Hash),
];
const GUARANTEES: [(&str, StoredGuarantee); 2] = [
    ("diagonal", StoredGuarantee::FullDiagonal),
    ("all", StoredGuarantee::AllPositions),
];

/// Longest first, so that no symbol is read as the start of another.
const SYMBOLS: [&str; 21] = [
    "|->", "->", ">=", "^-1", "∪", "⊕", "(", ")", "{", "}", "[", "]", "<", ">", ",", ";", ":", "|",
    "+", "-", "*",
];

/// Terms a view may have: what bounds the reader's recursion.
const MAX_TERMS: usize = 256;

/// The word of `table` for `value`.
fn spelling<T: PartialEq>(table: &[(&'static str, T)], value: &T) -> &'static str {
    table.iter().find(|w| w.1 == *value).map_or("", |w| w.0)
}

/// What a level's words leave unsaid: the search, if none is given, and
/// then the order. `interval` implies `direct`; `interval` or `sorted`
/// imply `inc`.
fn implied(search: Option<SearchKind>, interval: bool) -> (SearchKind, Order) {
    let search = search.unwrap_or([SearchKind::None, SearchKind::Direct][usize::from(interval)]);
    let sorted = interval || search == SearchKind::Sorted;
    let order = [Order::Unordered, Order::Increasing][usize::from(sorted)];
    (search, order)
}

fn is_name(token: &str) -> bool {
    token.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
}

/// The tokens of `text` — runs of letters, digits and `_`, symbols, and
/// any other character alone, which no production reads — with the
/// offsets they start at, and `""` at the end.
fn lex(text: &str) -> Vec<(&str, usize)> {
    let (mut toks, mut at) = (Vec::new(), 0);
    let in_run = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_';
    while let Some(c) = text[at..].chars().next() {
        let rest = &text[at..];
        let symbol = SYMBOLS.iter().find(|s| rest.starts_with(**s));
        let len = match rest.bytes().take_while(in_run).count() {
            0 => symbol.map_or(c.len_utf8(), |s| s.len()),
            n => n,
        };
        if !c.is_ascii_whitespace() {
            toks.push((&rest[..len], at));
        }
        at += len;
    }
    toks.push(("", at));
    toks
}

struct Reader<'a> {
    toks: Vec<(&'a str, usize)>,
    /// The next token.
    i: usize,
    /// Terms read so far.
    n: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self, ahead: usize) -> &'a str {
        self.toks.get(self.i + ahead).map_or("", |t| t.0)
    }

    /// An error at the next token.
    fn fail<T>(&self, expected: &'static str) -> Result<T, FormatError> {
        let offset = self.toks[self.i.min(self.toks.len() - 1)].1;
        Err(FormatError::ViewText { offset, expected })
    }

    fn eat(&mut self, t: &str) -> bool {
        let found = self.peek(0) == t;
        self.i += usize::from(found);
        found
    }

    fn require(&mut self, t: &'static str) -> Result<(), FormatError> {
        if !self.eat(t) {
            return self.fail(t);
        }
        Ok(())
    }

    fn name(&mut self) -> Result<String, FormatError> {
        let t = self.peek(0);
        if !is_name(t) {
            return self.fail("a name");
        }
        self.i += 1;
        Ok(t.to_string())
    }

    /// The value of the next word of `table`.
    fn word<T: Copy>(&mut self, table: &[(&str, T)]) -> Option<T> {
        let found = table.iter().find(|w| w.0 == self.peek(0))?;
        self.i += 1;
        Some(found.1)
    }

    /// `item (',' item)*`.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, FormatError>,
    ) -> Result<Vec<T>, FormatError> {
        let mut items = vec![item(self)?];
        while self.eat(",") {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn view(&mut self, name: &str) -> Result<FormatView, FormatError> {
        self.require("(")?;
        let dense_attrs = self.list(Self::name)?;
        let (mut bounds, mut guarantees, mut sep) = (Vec::new(), Vec::new(), "|");
        while self.eat(sep) {
            sep = ",";
            if self.eat("stored") {
                let Some(g) = self.word(&GUARANTEES) else {
                    return self.fail("diagonal or all");
                };
                guarantees.push(g);
                continue;
            }
            let (terms, cst) = self.affine()?;
            self.require(">=")?;
            self.require("0")?;
            bounds.push(Bound { terms, cst });
        }
        self.require(")")?;
        self.require(":")?;
        let expr = self.expr()?;
        if !self.peek(0).is_empty() {
            return self.fail("the end of the view");
        }
        let name = name.to_string();
        Ok(FormatView {
            name,
            dense_attrs,
            expr,
            bounds,
            guarantees,
        })
    }

    fn expr(&mut self) -> Result<ViewExpr, FormatError> {
        self.n += 1;
        if self.n > MAX_TERMS {
            return self.fail("at most 256 terms");
        }
        if self.eat("v") {
            return Ok(ViewExpr::Value);
        }
        if self.eat("map") {
            self.require("{")?;
            let fwd = self.transforms()?;
            self.require(";")?;
            let inv = self.transforms()?;
            let child = self.body()?;
            return Ok(ViewExpr::Map { fwd, inv, child });
        }
        if self.eat("perm") {
            self.require("{")?;
            let table = self.name()?;
            let (input, out) = self.through()?;
            let child = self.body()?;
            return Ok(ViewExpr::Perm {
                table,
                input,
                out,
                child,
            });
        }
        if self.eat("(") {
            let a = Box::new(self.expr()?);
            let join = match self.peek(0) {
                "∪" => ViewExpr::Union,
                "⊕" => ViewExpr::Persp,
                _ => return self.fail("∪ or ⊕"),
            };
            self.i += 1;
            let b = Box::new(self.expr()?);
            self.require(")")?;
            return Ok(join(a, b));
        }
        let coupled = self.eat("<");
        let attrs = if coupled {
            self.list(Self::name)?
        } else {
            vec![self.name()?]
        };
        if coupled {
            self.require(">")?;
        }
        let (mut order, mut search, mut interval) = (None, None, false);
        if self.eat("[") {
            self.list(|r| {
                let fresh = if let Some(o) = r.word(&ORDERS) {
                    order.replace(o).is_none()
                } else if let Some(s) = r.word(&SEARCHES) {
                    search.replace(s).is_none()
                } else {
                    r.eat("interval") && !std::mem::replace(&mut interval, true)
                };
                if !fresh {
                    return r.fail("an order, a search or interval, once");
                }
                Ok(())
            })?;
            self.require("]")?;
        }
        let (search, implied_order) = implied(search, interval);
        let order = order.unwrap_or(implied_order);
        self.require("->")?;
        let child = Box::new(self.expr()?);
        Ok(ViewExpr::Level {
            attrs,
            order,
            search,
            interval,
            child,
        })
    }

    /// `: E }`, the end of a `map` or `perm`.
    fn body(&mut self) -> Result<Box<ViewExpr>, FormatError> {
        self.require(":")?;
        let child = self.expr()?;
        self.require("}")?;
        Ok(Box::new(child))
    }

    /// `[a] |-> b` after a table's name: its input and its output.
    fn through(&mut self) -> Result<(String, String), FormatError> {
        self.require("[")?;
        let input = self.name()?;
        self.require("]")?;
        self.require("|->")?;
        Ok((input, self.name()?))
    }

    /// The translations of one side of a `map`, up to its `;` or `:`.
    fn transforms(&mut self) -> Result<Vec<Transform>, FormatError> {
        if matches!(self.peek(0), ";" | ":") {
            return Ok(Vec::new());
        }
        self.list(|r| {
            if !(is_name(r.peek(0)) && matches!(r.peek(1), "[" | "^-1")) {
                let (terms, cst) = r.affine()?;
                r.require("|->")?;
                let out = r.name()?;
                return Ok(Transform::Affine { out, terms, cst });
            }
            let table = r.name()?;
            let unapply = r.eat("^-1");
            let (input, out) = r.through()?;
            Ok(match unapply {
                false => Transform::PermApply { table, input, out },
                true => Transform::PermUnapply { table, input, out },
            })
        })
    }

    /// `Σ k·a + cst`, as `-? item (('+' | '-') item)*`, an item being
    /// `k`, `k*a` or `a`, and the constant, if any, last.
    fn affine(&mut self) -> Result<(Vec<(String, i64)>, i64), FormatError> {
        let (mut terms, mut negative) = (Vec::new(), self.eat("-"));
        loop {
            let number = self.peek(0).starts_with(|c: char| c.is_ascii_digit());
            let k = number.then(|| self.peek(0).parse::<u64>().ok());
            let sign = if negative { -1 } else { 1 };
            let k = k.unwrap_or(Some(1)).map(|k| sign * i128::from(k));
            let Some(k) = k.and_then(|k| i64::try_from(k).ok()) else {
                return self.fail("a 64-bit integer");
            };
            self.i += usize::from(number);
            if number && !self.eat("*") {
                return Ok((terms, k));
            }
            terms.push((self.name()?, k));
            negative = self.peek(0) == "-";
            if !self.eat("+") && !self.eat("-") {
                return Ok((terms, 0));
            }
        }
    }
}

impl FormatView {
    /// Reads the view named `name` from its text, in the notation of
    /// [`crate::view`].
    pub fn read(name: &str, text: &str) -> Result<FormatView, FormatError> {
        let toks = lex(text);
        Reader { toks, i: 0, n: 0 }.view(name)
    }
}

/// `items`, `, `-separated, between `open` and `close`; nothing at all
/// for no items.
fn listed<T: Display>(open: &str, items: &[T], close: &str) -> String {
    if items.is_empty() {
        return String::new();
    }
    let items: Vec<String> = items.iter().map(T::to_string).collect();
    format!("{open}{}{close}", items.join(", "))
}

/// `Σ k·a + cst` as the reader reads it: `-a`, `3*a`, ` - 3*a`, and the
/// constant last, left out if it is a zero after terms.
fn affine(terms: &[(String, i64)], cst: i64) -> String {
    let mut text = String::new();
    for (a, k) in terms {
        let sign = match (text.is_empty(), *k < 0) {
            (true, false) => "",
            (true, true) => "-",
            (false, false) => " + ",
            (false, true) => " - ",
        };
        text += &match k.unsigned_abs() {
            1 => format!("{sign}{a}"),
            k => format!("{sign}{k}*{a}"),
        };
    }
    let sign = if cst < 0 { '-' } else { '+' };
    match (terms.is_empty(), cst) {
        (true, _) => cst.to_string(),
        (false, 0) => text,
        (false, c) => format!("{text} {sign} {}", c.unsigned_abs()),
    }
}

impl Display for Transform {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Transform::Affine { out, terms, cst } => write!(f, "{} |-> {out}", affine(terms, *cst)),
            Transform::PermApply { table, input, out } => write!(f, "{table}[{input}] |-> {out}"),
            Transform::PermUnapply { table, input, out } => {
                write!(f, "{table}^-1[{input}] |-> {out}")
            }
        }
    }
}

impl Display for ViewExpr {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            ViewExpr::Value => write!(f, "v"),
            ViewExpr::Level {
                attrs,
                order,
                search,
                interval,
                child,
            } => {
                let words = [
                    (*order != implied(Some(*search), *interval).1)
                        .then(|| spelling(&ORDERS, order)),
                    (*search != implied(None, *interval).0).then(|| spelling(&SEARCHES, search)),
                    interval.then_some("interval"),
                ];
                let words: Vec<&str> = words.into_iter().flatten().collect();
                let index = listed("<", attrs, ">");
                let index = if attrs.len() == 1 { &attrs[0] } else { &index };
                write!(f, "{index}{} -> {child}", listed("[", &words, "]"))
            }
            ViewExpr::Map { fwd, inv, child } => {
                let (fwd, inv) = (listed("", fwd, ""), listed(" ", inv, ""));
                write!(f, "map{{{fwd} ;{inv} : {child}}}")
            }
            ViewExpr::Perm {
                table,
                input,
                out,
                child,
            } => {
                write!(f, "perm{{{table}[{input}] |-> {out} : {child}}}")
            }
            ViewExpr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            ViewExpr::Persp(a, b) => write!(f, "({a} ⊕ {b})"),
        }
    }
}

impl Display for FormatView {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let mut facts = Vec::new();
        for b in &self.bounds {
            facts.push(format!("{} >= 0", affine(&b.terms, b.cst)));
        }
        for g in &self.guarantees {
            facts.push(format!("stored {}", spelling(&GUARANTEES, g)));
        }
        let attrs = self.dense_attrs.join(", ");
        write!(f, "({attrs}{}): {}", listed(" | ", &facts, ""), self.expr)
    }
}
