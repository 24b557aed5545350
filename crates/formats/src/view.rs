//! The format-description language: index structures in the grammar of the
//! paper's Fig. 6, plus enumeration properties.
//!
//! ```text
//!   E     := Index -> E                    (nesting)
//!          | map{F(in) |-> out : E}        (affine index transformation)
//!          | perm{P(in) |-> out : E}       (permutation)
//!          | E ∪ E                         (aggregation: both must be enumerated)
//!          | E ⊕ E                         (perspective: either may be used)
//!          | v                             (stored values)
//!   Index := attribute | <a, b, ...> | (a × b × ...)
//! ```
//!
//! Each nesting level is annotated with its *enumeration order* and the
//! kind of *search* (indexed access) it supports; the whole view carries
//! *enumeration bounds* (e.g. `c ≤ r` for a lower-triangular format) and
//! *storage guarantees* (e.g. "every diagonal position is stored"), which
//! the compiler uses for legality, guard simplification and the
//! zero-annihilation check.
//!
//! A [`FormatView`] is compiled (by [`FormatView::alternatives`]) into
//! *chains*: linearized access paths the code generator and the runtime
//! cursor API share. A `⊕` contributes alternative chain-sets (choose
//! one); a `∪` contributes multiple chains within one alternative (must
//! enumerate all).

use std::fmt;

/// Order in which a level's `enumerate` cursor yields keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Order {
    /// Keys strictly increase (lexicographically, for coupled levels).
    Increasing,
    /// Keys strictly decrease.
    Decreasing,
    /// No order guarantee.
    Unordered,
}

/// The kind of indexed access a level supports, with its cost class.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SearchKind {
    /// No search: only full enumeration.
    None,
    /// O(k) scan of the level's entries.
    Linear,
    /// O(log k) binary search (keys stored sorted).
    Sorted,
    /// O(1) direct indexing (interval levels, permutation tables).
    Direct,
    /// O(1) expected hash lookup.
    Hash,
}

/// A coordinate translation attached to a chain.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum Transform {
    /// `out = Σ coeff·attr + cst` — from the `map` production.
    Affine {
        out: String,
        terms: Vec<(String, i64)>,
        cst: i64,
    },
    /// `out = table[input]` — from the `perm` production.
    PermApply {
        table: String,
        input: String,
        out: String,
    },
    /// `out = table⁻¹[input]` — inverse permutation lookup.
    PermUnapply {
        table: String,
        input: String,
        out: String,
    },
}

impl Transform {
    /// The attribute this transform defines.
    pub fn out(&self) -> &str {
        match self {
            Transform::Affine { out, .. }
            | Transform::PermApply { out, .. }
            | Transform::PermUnapply { out, .. } => out,
        }
    }

    /// The attributes this transform reads.
    pub fn inputs(&self) -> Vec<&str> {
        match self {
            Transform::Affine { terms, .. } => terms.iter().map(|(a, _)| a.as_str()).collect(),
            Transform::PermApply { input, .. } | Transform::PermUnapply { input, .. } => {
                vec![input.as_str()]
            }
        }
    }
}

/// One linearized nesting level of a chain.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct FlatLevel {
    /// Attributes bound by this level (len > 1 ⇒ coupled `<a,b>` index).
    pub attrs: Vec<String>,
    /// Enumeration order of the cursor.
    pub order: Order,
    /// Search support.
    pub search: SearchKind,
    /// True when the level enumerates a full integer interval (dense
    /// level): enumeration in either direction is free and the level is
    /// randomly accessible by construction.
    pub interval: bool,
}

/// A linearized access path: enumerate `levels[0]`, then within each of
/// its positions `levels[1]`, …, reaching stored values below the last
/// level. `fwd` computes dense coordinates from stored attributes, `inv`
/// the reverse.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Chain {
    /// Runtime dispatch index (canonical DFS order over the view).
    pub id: usize,
    pub levels: Vec<FlatLevel>,
    /// Dense attr := f(stored attrs); applied in order.
    pub fwd: Vec<Transform>,
    /// Stored attr := g(dense attrs); applied in order.
    pub inv: Vec<Transform>,
}

impl Chain {
    /// All attributes enumerated by the chain's levels, outermost first.
    pub fn stored_attrs(&self) -> Vec<&str> {
        self.levels
            .iter()
            .flat_map(|l| l.attrs.iter().map(|s| s.as_str()))
            .collect()
    }

    /// The level index that binds `attr`, if any.
    pub fn level_of(&self, attr: &str) -> Option<usize> {
        self.levels
            .iter()
            .position(|l| l.attrs.iter().any(|a| a == attr))
    }
}

/// An affine inequality `Σ coeff·attr + cst ≥ 0` over dense attributes,
/// used for the *enumeration bounds* annotation of the paper §2.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Bound {
    pub terms: Vec<(String, i64)>,
    pub cst: i64,
}

impl Bound {
    /// `lhs ≥ rhs` over single attributes.
    pub fn attr_ge(lhs: &str, rhs: &str) -> Bound {
        Bound {
            terms: vec![(lhs.to_string(), 1), (rhs.to_string(), -1)],
            cst: 0,
        }
    }
}

/// Storage guarantees: regions of the dense index space that are
/// *certainly* stored (whatever their value), needed for statements that
/// are not annihilated by zeros (e.g. the diagonal division of triangular
/// solve).
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum StoredGuarantee {
    /// Every `(i, i)` with `0 ≤ i < min(nrows, ncols)` is stored.
    FullDiagonal,
    /// Every position of the enveloping dense matrix is stored.
    AllPositions,
}

/// The index-structure term (paper Fig. 6).
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum ViewExpr {
    /// `Index -> E` with enumeration properties.
    Level {
        attrs: Vec<String>,
        order: Order,
        search: SearchKind,
        interval: bool,
        child: Box<ViewExpr>,
    },
    /// `map{...: E}` — attaches affine coordinate translations.
    Map {
        fwd: Vec<Transform>,
        inv: Vec<Transform>,
        child: Box<ViewExpr>,
    },
    /// `perm{table[input] |-> out : E}`.
    Perm {
        table: String,
        input: String,
        out: String,
        child: Box<ViewExpr>,
    },
    /// `E ∪ E` — both parts must be enumerated to cover the matrix.
    Union(Box<ViewExpr>, Box<ViewExpr>),
    /// `E ⊕ E` — either part may be used.
    Persp(Box<ViewExpr>, Box<ViewExpr>),
    /// `v` — the stored values.
    Value,
}

impl ViewExpr {
    /// Convenience constructor for a single-attribute level.
    pub fn level(attr: &str, order: Order, search: SearchKind, child: ViewExpr) -> ViewExpr {
        ViewExpr::Level {
            attrs: vec![attr.to_string()],
            order,
            search,
            interval: false,
            child: Box::new(child),
        }
    }

    /// Convenience constructor for an interval (dense) level.
    pub fn interval(attr: &str, child: ViewExpr) -> ViewExpr {
        ViewExpr::Level {
            attrs: vec![attr.to_string()],
            order: Order::Increasing,
            search: SearchKind::Direct,
            interval: true,
            child: Box::new(child),
        }
    }

    /// Convenience constructor for a coupled `<a, b>` level.
    pub fn coupled(attrs: &[&str], order: Order, search: SearchKind, child: ViewExpr) -> ViewExpr {
        ViewExpr::Level {
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            order,
            search,
            interval: false,
            child: Box::new(child),
        }
    }
}

/// A complete format description: the view term plus bounds, guarantees
/// and the dense attributes of the enveloping array.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct FormatView {
    /// Human-readable format name (`"csr"`, `"jad"`, …).
    pub name: String,
    /// Dense coordinates of the enveloping array (e.g. `["r", "c"]`).
    pub dense_attrs: Vec<String>,
    /// The index-structure term.
    pub expr: ViewExpr,
    /// Enumeration bounds over dense attributes.
    pub bounds: Vec<Bound>,
    /// Storage guarantees.
    pub guarantees: Vec<StoredGuarantee>,
}

impl FormatView {
    /// Compiles the view into its access alternatives.
    ///
    /// The outer `Vec` has one entry per way of accessing the matrix (the
    /// `⊕` choices); each entry is the set of chains that together cover
    /// all stored values (more than one only under `∪`). Chain `id`s are
    /// globally unique across all alternatives and match the runtime
    /// cursor dispatch of [`crate::SparseView`].
    pub fn alternatives(&self) -> Vec<Vec<Chain>> {
        let mut next_id = 0usize;
        let alts = flatten(&self.expr);
        // Assign ids in canonical (DFS) order: alternatives in order, chains
        // within an alternative in order — but chains shared textually
        // between alternatives are distinct runtime chains.
        alts.into_iter()
            .map(|alt| {
                alt.into_iter()
                    .map(|mut ch| {
                        ch.id = next_id;
                        next_id += 1;
                        ch
                    })
                    .collect()
            })
            .collect()
    }

    /// Total number of chains across all alternatives (the runtime
    /// dispatch range).
    pub fn num_chains(&self) -> usize {
        self.alternatives().iter().map(|a| a.len()).sum()
    }

    /// True if the format guarantees storage of the whole diagonal.
    pub fn has_full_diagonal(&self) -> bool {
        self.guarantees.iter().any(|g| {
            matches!(
                g,
                StoredGuarantee::FullDiagonal | StoredGuarantee::AllPositions
            )
        })
    }
}

/// Detects enumeration bounds and storage guarantees from the stored
/// pattern of a matrix instance.
///
/// The paper conveys bounds "using a pragma" (§2); we additionally infer
/// the common cases automatically so that, e.g., the lower triangle of a
/// factor loaded into any format carries `r ≥ c` and the full-diagonal
/// guarantee without user annotations.
pub fn detect_properties(
    entries: &[(usize, usize, f64)],
    nrows: usize,
    ncols: usize,
) -> (Vec<Bound>, Vec<StoredGuarantee>) {
    let mut bounds = Vec::new();
    let mut guarantees = Vec::new();
    if !entries.is_empty() {
        if entries.iter().all(|&(r, c, _)| r >= c) {
            bounds.push(Bound::attr_ge("r", "c"));
        }
        if entries.iter().all(|&(r, c, _)| c >= r) {
            bounds.push(Bound::attr_ge("c", "r"));
        }
    }
    let n = nrows.min(ncols);
    let mut diag = vec![false; n];
    for &(r, c, _) in entries {
        if r == c {
            diag[r] = true;
        }
    }
    if n > 0 && diag.iter().all(|&d| d) {
        guarantees.push(StoredGuarantee::FullDiagonal);
    }
    (bounds, guarantees)
}

fn flatten(e: &ViewExpr) -> Vec<Vec<Chain>> {
    match e {
        ViewExpr::Value => vec![vec![Chain {
            id: 0,
            levels: Vec::new(),
            fwd: Vec::new(),
            inv: Vec::new(),
        }]],
        ViewExpr::Level {
            attrs,
            order,
            search,
            interval,
            child,
        } => {
            let lvl = FlatLevel {
                attrs: attrs.clone(),
                order: *order,
                search: *search,
                interval: *interval,
            };
            map_chains(flatten(child), |ch| ch.levels.insert(0, lvl.clone()))
        }
        ViewExpr::Map { fwd, inv, child } => map_chains(flatten(child), |ch| {
            let mut f = fwd.clone();
            f.append(&mut ch.fwd);
            ch.fwd = f;
            let mut i = inv.clone();
            i.append(&mut ch.inv);
            ch.inv = i;
        }),
        ViewExpr::Perm {
            table,
            input,
            out,
            child,
        } => map_chains(flatten(child), |ch| {
            ch.fwd.insert(
                0,
                Transform::PermApply {
                    table: table.clone(),
                    input: input.clone(),
                    out: out.clone(),
                },
            );
            ch.inv.insert(
                0,
                Transform::PermUnapply {
                    table: table.clone(),
                    input: out.clone(),
                    out: input.clone(),
                },
            );
        }),
        ViewExpr::Union(a, b) => {
            // Cross product of alternatives; chains concatenate.
            let fa = flatten(a);
            let fb = flatten(b);
            let mut out = Vec::new();
            for alt_a in &fa {
                for alt_b in &fb {
                    let mut chains = alt_a.clone();
                    chains.extend(alt_b.iter().cloned());
                    out.push(chains);
                }
            }
            out
        }
        ViewExpr::Persp(a, b) => {
            let mut out = flatten(a);
            out.extend(flatten(b));
            out
        }
    }
}

fn map_chains(alts: Vec<Vec<Chain>>, f: impl Fn(&mut Chain) + Copy) -> Vec<Vec<Chain>> {
    alts.into_iter()
        .map(|alt| {
            alt.into_iter()
                .map(|mut ch| {
                    f(&mut ch);
                    ch
                })
                .collect()
        })
        .collect()
}

impl fmt::Display for ViewExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewExpr::Value => write!(f, "v"),
            ViewExpr::Level { attrs, child, .. } => {
                if attrs.len() == 1 {
                    write!(f, "{} -> {}", attrs[0], child)
                } else {
                    write!(f, "<{}> -> {}", attrs.join(","), child)
                }
            }
            ViewExpr::Map { fwd, child, .. } => {
                write!(f, "map{{")?;
                for (i, t) in fwd.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match t {
                        Transform::Affine { out, terms, cst } => {
                            let mut s = String::new();
                            for (k, (a, c)) in terms.iter().enumerate() {
                                if k > 0 {
                                    s.push_str(" + ");
                                }
                                if *c == 1 {
                                    s.push_str(a);
                                } else {
                                    s.push_str(&format!("{c}*{a}"));
                                }
                            }
                            if *cst != 0 {
                                s.push_str(&format!(" + {cst}"));
                            }
                            write!(f, "{s} |-> {out}")?;
                        }
                        Transform::PermApply { table, input, out } => {
                            write!(f, "{table}[{input}] |-> {out}")?;
                        }
                        Transform::PermUnapply { table, input, out } => {
                            write!(f, "{table}^-1[{input}] |-> {out}")?;
                        }
                    }
                }
                write!(f, " : {}}}", child)
            }
            ViewExpr::Perm {
                table,
                input,
                out,
                child,
            } => write!(f, "perm{{{table}[{input}] |-> {out} : {}}}", child),
            ViewExpr::Union(a, b) => write!(f, "({a}) ∪ ({b})"),
            ViewExpr::Persp(a, b) => write!(f, "({a}) ⊕ ({b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr_view() -> FormatView {
        FormatView {
            name: "csr".into(),
            dense_attrs: vec!["r".into(), "c".into()],
            expr: ViewExpr::interval(
                "r",
                ViewExpr::level("c", Order::Increasing, SearchKind::Sorted, ViewExpr::Value),
            ),
            bounds: vec![],
            guarantees: vec![],
        }
    }

    #[test]
    fn csr_single_chain() {
        let v = csr_view();
        let alts = v.alternatives();
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].len(), 1);
        let ch = &alts[0][0];
        assert_eq!(ch.stored_attrs(), vec!["r", "c"]);
        assert_eq!(ch.level_of("c"), Some(1));
        assert!(ch.levels[0].interval);
        assert!(!ch.levels[1].interval);
        assert_eq!(v.num_chains(), 1);
    }

    #[test]
    fn jad_two_alternatives() {
        // perm{iperm[rr] |-> r : (<rr,c> -> v) ⊕ (rr -> c -> v)}
        let flat = ViewExpr::coupled(
            &["rr", "c"],
            Order::Unordered,
            SearchKind::None,
            ViewExpr::Value,
        );
        let hier = ViewExpr::interval(
            "rr",
            ViewExpr::level("c", Order::Increasing, SearchKind::Linear, ViewExpr::Value),
        );
        let v = FormatView {
            name: "jad".into(),
            dense_attrs: vec!["r".into(), "c".into()],
            expr: ViewExpr::Perm {
                table: "iperm".into(),
                input: "rr".into(),
                out: "r".into(),
                child: Box::new(ViewExpr::Persp(Box::new(flat), Box::new(hier))),
            },
            bounds: vec![Bound::attr_ge("r", "c")],
            guarantees: vec![StoredGuarantee::FullDiagonal],
        };
        let alts = v.alternatives();
        assert_eq!(alts.len(), 2);
        assert_eq!(alts[0][0].id, 0);
        assert_eq!(alts[1][0].id, 1);
        // Both alternatives carry the perm transform.
        for alt in &alts {
            assert!(matches!(alt[0].fwd[0], Transform::PermApply { .. }));
            assert!(matches!(alt[0].inv[0], Transform::PermUnapply { .. }));
        }
        assert_eq!(alts[0][0].levels.len(), 1); // coupled flat level
        assert_eq!(alts[0][0].levels[0].attrs.len(), 2);
        assert_eq!(alts[1][0].levels.len(), 2); // hierarchical
        assert!(v.has_full_diagonal());
    }

    #[test]
    fn union_produces_multi_chain_alternative() {
        // (i -> v)  ∪  (r -> c -> v) : diagonal + offdiag, one alternative
        // with two chains.
        let diag = ViewExpr::Map {
            fwd: vec![
                Transform::Affine {
                    out: "r".into(),
                    terms: vec![("i".into(), 1)],
                    cst: 0,
                },
                Transform::Affine {
                    out: "c".into(),
                    terms: vec![("i".into(), 1)],
                    cst: 0,
                },
            ],
            inv: vec![Transform::Affine {
                out: "i".into(),
                terms: vec![("r".into(), 1)],
                cst: 0,
            }],
            child: Box::new(ViewExpr::interval("i", ViewExpr::Value)),
        };
        let off = ViewExpr::interval(
            "r",
            ViewExpr::level("c", Order::Increasing, SearchKind::Sorted, ViewExpr::Value),
        );
        let v = FormatView {
            name: "diagsplit".into(),
            dense_attrs: vec!["r".into(), "c".into()],
            expr: ViewExpr::Union(Box::new(diag), Box::new(off)),
            bounds: vec![],
            guarantees: vec![StoredGuarantee::FullDiagonal],
        };
        let alts = v.alternatives();
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].len(), 2);
        assert_eq!(alts[0][0].id, 0);
        assert_eq!(alts[0][1].id, 1);
        assert_eq!(alts[0][0].stored_attrs(), vec!["i"]);
        assert_eq!(alts[0][1].stored_attrs(), vec!["r", "c"]);
    }

    #[test]
    fn dia_map_transforms() {
        // map{d + o |-> r, o |-> c : d -> o -> v}
        let v = FormatView {
            name: "dia".into(),
            dense_attrs: vec!["r".into(), "c".into()],
            expr: ViewExpr::Map {
                fwd: vec![
                    Transform::Affine {
                        out: "r".into(),
                        terms: vec![("d".into(), 1), ("o".into(), 1)],
                        cst: 0,
                    },
                    Transform::Affine {
                        out: "c".into(),
                        terms: vec![("o".into(), 1)],
                        cst: 0,
                    },
                ],
                inv: vec![
                    Transform::Affine {
                        out: "d".into(),
                        terms: vec![("r".into(), 1), ("c".into(), -1)],
                        cst: 0,
                    },
                    Transform::Affine {
                        out: "o".into(),
                        terms: vec![("c".into(), 1)],
                        cst: 0,
                    },
                ],
                child: Box::new(ViewExpr::level(
                    "d",
                    Order::Increasing,
                    SearchKind::Sorted,
                    ViewExpr::level("o", Order::Increasing, SearchKind::Direct, ViewExpr::Value),
                )),
            },
            bounds: vec![],
            guarantees: vec![],
        };
        let alts = v.alternatives();
        let ch = &alts[0][0];
        assert_eq!(ch.fwd.len(), 2);
        assert_eq!(ch.inv.len(), 2);
        assert_eq!(ch.fwd[0].out(), "r");
        assert_eq!(ch.fwd[0].inputs(), vec!["d", "o"]);
        let shown = format!("{}", v.expr);
        assert!(shown.contains("|-> r"), "{shown}");
        assert!(shown.contains("d -> o -> v"), "{shown}");
    }

    #[test]
    fn display_coupled_and_persp() {
        let e = ViewExpr::Persp(
            Box::new(ViewExpr::coupled(
                &["r", "c"],
                Order::Unordered,
                SearchKind::None,
                ViewExpr::Value,
            )),
            Box::new(ViewExpr::interval("r", ViewExpr::Value)),
        );
        assert_eq!(format!("{e}"), "(<r,c> -> v) ⊕ (r -> v)");
    }
}
