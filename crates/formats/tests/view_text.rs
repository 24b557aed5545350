//! A view's text: `Display` and the reader are each other's inverse, and
//! the reader refuses what is not a view without panicking.
//!
//! - Round trip: `FormatView::read(name, &view.to_string()) == view` over
//!   seeded random views of depth at most 4 — coupled indices, every
//!   order and search, `map`s with negative and extreme coefficients and
//!   constants and with permutation tables, `perm`, `∪`, `⊕`, bounds and
//!   guarantees (the compat `proptest` has no recursive strategy, so the
//!   terms come from a seeded `StdRng`).
//! - Refusal: every proper prefix of each registered view's text is an
//!   error; seeded byte mutations of it, and arbitrary character and
//!   token soup, read to an error or to a view that prints and reads
//!   back, and never panic.

use bernoulli_formats::view::{Bound, Order, SearchKind, StoredGuarantee, Transform, ViewExpr};
use bernoulli_formats::{FormatError, FormatView, HOST_LEVELS, LAYOUTS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAMES: [&str; 8] = ["r", "c", "i", "d", "o", "rr", "iperm", "x_2"];
const ORDERS: [Order; 3] = [Order::Increasing, Order::Decreasing, Order::Unordered];
const SEARCHES: [SearchKind; 5] = [
    SearchKind::None,
    SearchKind::Linear,
    SearchKind::Sorted,
    SearchKind::Direct,
    SearchKind::Hash,
];

/// What the generated views have shown, to hold the generator to the
/// coverage the round trip claims.
#[derive(Default)]
struct Seen {
    coupled: bool,
    orders: [bool; 3],
    searches: [bool; 5],
    negative: bool,
    constant: bool,
    extreme: bool,
    through_table: [bool; 2],
    perm: bool,
    union: bool,
    persp: bool,
    bound: bool,
    guarantees: [bool; 2],
}

struct Gen {
    rng: StdRng,
    seen: Seen,
}

impl Gen {
    fn name(&mut self) -> String {
        NAMES[self.rng.gen_range(0..NAMES.len())].to_string()
    }

    fn names(&mut self, most: usize) -> Vec<String> {
        (0..self.rng.gen_range(1..=most))
            .map(|_| self.name())
            .collect()
    }

    fn integer(&mut self) -> i64 {
        let k = match self.rng.gen_range(0..10) {
            0 => [i64::MIN, i64::MAX, i64::MIN + 1][self.rng.gen_range(0..3usize)],
            1..=3 => 1,
            4 => -1,
            _ => self.rng.gen_range(-9i64..=9),
        };
        self.seen.negative |= k < 0;
        self.seen.extreme |= k.unsigned_abs() > u64::from(u32::MAX);
        k
    }

    fn affine(&mut self) -> (Vec<(String, i64)>, i64) {
        let terms = (0..self.rng.gen_range(0..=3))
            .map(|_| (self.name(), self.integer()))
            .collect();
        let cst = if self.rng.gen_bool(0.5) {
            0
        } else {
            self.integer()
        };
        self.seen.constant |= cst != 0;
        (terms, cst)
    }

    fn transform(&mut self) -> Transform {
        let (table, input, out) = (self.name(), self.name(), self.name());
        match self.rng.gen_range(0..4) {
            0 => {
                self.seen.through_table[0] = true;
                Transform::PermApply { table, input, out }
            }
            1 => {
                self.seen.through_table[1] = true;
                Transform::PermUnapply { table, input, out }
            }
            _ => {
                let (terms, cst) = self.affine();
                Transform::Affine { out, terms, cst }
            }
        }
    }

    fn transforms(&mut self) -> Vec<Transform> {
        (0..self.rng.gen_range(0..=3))
            .map(|_| self.transform())
            .collect()
    }

    fn expr(&mut self, depth: usize) -> ViewExpr {
        let child = |g: &mut Gen| Box::new(g.expr(depth - 1));
        match if depth == 0 {
            0
        } else {
            self.rng.gen_range(0..7)
        } {
            0 => ViewExpr::Value,
            1..=3 => {
                let attrs = self.names(3);
                let (o, s) = (self.rng.gen_range(0..3usize), self.rng.gen_range(0..5usize));
                self.seen.coupled |= attrs.len() > 1;
                self.seen.orders[o] = true;
                self.seen.searches[s] = true;
                ViewExpr::Level {
                    attrs,
                    order: ORDERS[o],
                    search: SEARCHES[s],
                    interval: self.rng.gen_bool(0.5),
                    child: child(self),
                }
            }
            4 => ViewExpr::Map {
                fwd: self.transforms(),
                inv: self.transforms(),
                child: child(self),
            },
            5 => {
                self.seen.perm = true;
                ViewExpr::Perm {
                    table: self.name(),
                    input: self.name(),
                    out: self.name(),
                    child: child(self),
                }
            }
            _ => {
                let (a, b) = (child(self), child(self));
                if self.rng.gen_bool(0.5) {
                    self.seen.union = true;
                    ViewExpr::Union(a, b)
                } else {
                    self.seen.persp = true;
                    ViewExpr::Persp(a, b)
                }
            }
        }
    }

    fn view(&mut self) -> FormatView {
        let bounds: Vec<Bound> = (0..self.rng.gen_range(0..=2))
            .map(|_| {
                let (terms, cst) = self.affine();
                Bound { terms, cst }
            })
            .collect();
        let guarantees: Vec<StoredGuarantee> = (0..self.rng.gen_range(0..=2))
            .map(|_| {
                let all = self.rng.gen_bool(0.5);
                self.seen.guarantees[usize::from(all)] = true;
                if all {
                    StoredGuarantee::AllPositions
                } else {
                    StoredGuarantee::FullDiagonal
                }
            })
            .collect();
        self.seen.bound |= !bounds.is_empty();
        let depth = self.rng.gen_range(0..=4usize);
        FormatView {
            name: "random".to_string(),
            dense_attrs: self.names(3),
            expr: self.expr(depth),
            bounds,
            guarantees,
        }
    }
}

#[test]
fn random_views_print_and_read_back() {
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(0x5eed),
        seen: Seen::default(),
    };
    for case in 0..2500 {
        let view = gen.view();
        let text = view.to_string();
        assert_eq!(
            FormatView::read("random", &text),
            Ok(view),
            "case {case}: {text}"
        );
    }
    let s = gen.seen;
    let all = [
        s.coupled, s.negative, s.constant, s.extreme, s.perm, s.union, s.persp, s.bound,
    ];
    assert!(all.iter().all(|&x| x), "a feature never generated");
    assert!(s.orders.iter().chain(&s.searches).all(|&x| x));
    assert!(s.through_table.iter().chain(&s.guarantees).all(|&x| x));
}

/// Every registered view's name and text.
fn registered() -> Vec<(&'static str, &'static str)> {
    let layouts = LAYOUTS.iter().map(|l| l.levels);
    layouts
        .chain(HOST_LEVELS)
        .map(|l| (l.name, l.view))
        .collect()
}

/// What the reader makes of `text`: an error inside the text, or a view
/// that prints and reads back as itself.
fn read_soundly(text: &str) -> Result<FormatView, FormatError> {
    let read = FormatView::read("fuzz", text);
    match &read {
        Ok(view) => assert_eq!(
            FormatView::read("fuzz", &view.to_string()).as_ref(),
            Ok(view)
        ),
        Err(FormatError::ViewText { offset, .. }) => assert!(*offset <= text.len(), "{text}"),
        Err(other) => panic!("{text}: not a syntax error: {other}"),
    }
    read
}

#[test]
fn every_proper_prefix_is_refused() {
    for (name, text) in registered() {
        assert!(FormatView::read(name, text).is_ok(), "{name}");
        for end in 0..text.len() {
            if let Some(prefix) = text.get(..end) {
                assert!(read_soundly(prefix).is_err(), "{name}: {prefix:?}");
            }
        }
    }
}

#[test]
fn mutated_views_never_panic() {
    const ALPHABET: &[u8] = b"rcvi0123456789_-+*^|<>=[](){},;: \xe2\x88\xaa\x8a\x95";
    let mut rng = StdRng::seed_from_u64(0xfa11);
    let (mut refused, mut read) = (0, 0);
    for (_, text) in registered() {
        for _ in 0..300 {
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=3) {
                let at = rng.gen_range(0..bytes.len());
                let b = ALPHABET[rng.gen_range(0..ALPHABET.len())];
                match rng.gen_range(0..3) {
                    0 => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ => drop(bytes.remove(at)),
                }
            }
            match read_soundly(&String::from_utf8_lossy(&bytes)) {
                Ok(_) => read += 1,
                Err(_) => refused += 1,
            }
        }
    }
    assert!(refused > read && read > 0, "refused {refused}, read {read}");
}

/// Notation tokens and junk, so that soup reaches deep into the reader.
const TOKENS: &[&str] = &[
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "<",
    ">",
    ",",
    ";",
    ":",
    "|",
    "->",
    "|->",
    ">=",
    "^-1",
    "+",
    "-",
    "*",
    "∪",
    "⊕",
    "v",
    "map",
    "perm",
    "stored",
    "diagonal",
    "all",
    "r",
    "c",
    "interval",
    "sorted",
    "hash",
    "inc",
    "0",
    "3",
    "18446744073709551616",
    "9223372036854775808",
    "§",
    "",
];

fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..TOKENS.len(), proptest::bool::ANY), 0..60).prop_map(
        |picks| {
            let mut s = String::new();
            for (t, space) in picks {
                s.push_str(TOKENS[t]);
                if space {
                    s.push(' ');
                }
            }
            s
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_chars_never_panic(codes in proptest::collection::vec(0u32..0x2300, 0..120)) {
        let text: String = codes.into_iter().filter_map(char::from_u32).collect();
        let _ = read_soundly(&text);
    }

    #[test]
    fn token_soup_never_panics(text in token_soup()) {
        let _ = read_soundly(&text);
    }

    #[test]
    fn soup_after_a_header_never_panics(body in token_soup()) {
        let _ = read_soundly(&format!("(r, c | r - c >= 0): {body}"));
    }
}
