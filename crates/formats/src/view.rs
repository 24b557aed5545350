//! The format-description language: index structures in the grammar of the
//! paper's Fig. 6, plus enumeration properties.
//!
//! A format's view is written once, as one line of this notation, in the
//! `stored_layout!` (or `leveled!`) beside its struct, and read by
//! [`FormatView::read`]; `Display` prints a [`FormatView`] back in it.
//!
//! ```text
//!   view   := '(' a (',' a)* facts? ')' ':' E
//!   facts  := '|' fact (',' fact)*
//!   fact   := affine '>=' '0'                    (enumeration bound)
//!           | 'stored' ('diagonal' | 'all')      (storage guarantee)
//!   E      := Index annot? '->' E                (nesting)
//!           | 'map' '{' maps ';' maps ':' E '}'  (index translation; its inverse)
//!           | 'perm' '{' t '[' a ']' '|->' a ':' E '}'
//!                                                (permutation by table t)
//!           | '(' E '∪' E ')'                    (aggregation: both must be enumerated)
//!           | '(' E '⊕' E ')'                    (perspective: either may be used)
//!           | 'v'                                (stored values)
//!   Index  := a | '<' a (',' a)* '>'             (one attribute, or coupled ones)
//!   annot  := '[' word (',' word)* ']'
//!   maps   := (map (',' map)*)?
//!   map    := affine '|->' a                     (a := affine)
//!           | t '[' a ']' '|->' a                (through table t)
//!           | t '^-1' '[' a ']' '|->' a          (through its inverse)
//!   affine := '-'? item (('+' | '-') item)*      (a constant, if any, last)
//!   item   := int | int '*' a | a
//! ```
//!
//! The view opens with the dense attributes of the enveloping array, and
//! the bounds and guarantees that hold of every instance. A level's
//! annotation words give its enumeration order (`inc`, `dec`,
//! `unordered`), its search (`none`, `linear`, `sorted`, `direct`,
//! `hash`) and `interval` for a dense level. A bare index claims
//! nothing: unordered, no search. `interval` implies `direct`, and
//! `interval` or `sorted` imply `inc`, unless a word says otherwise;
//! each of the three is said at most once. `v`, `map`, `perm` and
//! `stored` are not attribute names. DIA, for example:
//!
//! ```text
//!   (r, c): map{d + o |-> r, o |-> c ; r - c |-> d, c |-> o : d[sorted] -> o[interval] -> v}
//! ```
//!
//! Each nesting level is annotated with its *enumeration order* and the
//! kind of *search* (indexed access) it supports; the whole view carries
//! *enumeration bounds* (e.g. `r - c >= 0` for a lower-triangular
//! format) and *storage guarantees* (e.g. `stored diagonal`), which the
//! compiler uses for legality, guard simplification and the
//! zero-annihilation check.
//!
//! A [`FormatView`] is compiled (by [`FormatView::alternatives`]) into
//! *chains*: linearized access paths the code generator and the runtime
//! cursor API share. A `⊕` contributes alternative chain-sets (choose
//! one); a `∪` contributes multiple chains within one alternative (must
//! enumerate all).

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
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
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
        let mut alts = flatten(&self.expr);
        // Assign ids in canonical (DFS) order: alternatives in order, chains
        // within an alternative in order — but chains shared textually
        // between alternatives are distinct runtime chains.
        for (id, chain) in alts.iter_mut().flatten().enumerate() {
            chain.id = id;
        }
        alts
    }

    /// True if the format guarantees storage of the whole diagonal.
    pub fn has_full_diagonal(&self) -> bool {
        let diagonal = [StoredGuarantee::FullDiagonal, StoredGuarantee::AllPositions];
        self.guarantees.iter().any(|g| diagonal.contains(g))
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
    // Every chain below `child`, with `f` applied to each.
    let below = |child: &ViewExpr, f: &dyn Fn(&mut Chain)| {
        let mut alts = flatten(child);
        alts.iter_mut().flatten().for_each(f);
        alts
    };
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
            let level = FlatLevel {
                attrs: attrs.clone(),
                order: *order,
                search: *search,
                interval: *interval,
            };
            below(child, &|ch| ch.levels.insert(0, level.clone()))
        }
        ViewExpr::Map { fwd, inv, child } => below(child, &|ch| {
            ch.fwd.splice(0..0, fwd.iter().cloned());
            ch.inv.splice(0..0, inv.iter().cloned());
        }),
        ViewExpr::Perm {
            table,
            input,
            out,
            child,
        } => below(child, &|ch| {
            let (table, input, out) = (table.clone(), input.clone(), out.clone());
            let apply = Transform::PermApply {
                table: table.clone(),
                input: input.clone(),
                out: out.clone(),
            };
            ch.fwd.insert(0, apply);
            let (input, out) = (out, input);
            ch.inv
                .insert(0, Transform::PermUnapply { table, input, out });
        }),
        // Under `∪` the chains of one alternative of each side together;
        // under `⊕` the alternatives of either side.
        ViewExpr::Union(a, b) => {
            let b = flatten(b);
            let pairs = flatten(a)
                .into_iter()
                .flat_map(|a| b.iter().map(move |b| [&a[..], b].concat()));
            pairs.collect()
        }
        ViewExpr::Persp(a, b) => [flatten(a), flatten(b)].concat(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FormatError;

    fn read(text: &str) -> Result<FormatView, FormatError> {
        FormatView::read("t", text)
    }

    #[test]
    fn csr_single_chain() -> Result<(), FormatError> {
        let v = read("(r, c): r[interval] -> c[sorted] -> v")?;
        let alts = v.alternatives();
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].len(), 1);
        let ch = &alts[0][0];
        assert_eq!(ch.stored_attrs(), vec!["r", "c"]);
        assert!(ch.levels[0].interval);
        assert!(!ch.levels[1].interval);
        Ok(())
    }

    #[test]
    fn jad_two_alternatives() -> Result<(), FormatError> {
        let v = read(
            "(r, c | r - c >= 0, stored diagonal): \
             perm{iperm[rr] |-> r : (<rr, c> -> v ⊕ rr[interval] -> c[linear] -> v)}",
        )?;
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
        assert_eq!(v.bounds, [Bound::attr_ge("r", "c")]);
        assert!(v.has_full_diagonal());
        Ok(())
    }

    #[test]
    fn union_produces_multi_chain_alternative() -> Result<(), FormatError> {
        // The diagonal and the off-diagonal part: one alternative with two
        // chains.
        let v = read(
            "(r, c): (map{i |-> r, i |-> c ; r |-> i : i[interval] -> v} \
             ∪ r[interval] -> c[sorted] -> v)",
        )?;
        let alts = v.alternatives();
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].len(), 2);
        assert_eq!(alts[0][0].id, 0);
        assert_eq!(alts[0][1].id, 1);
        assert_eq!(alts[0][0].stored_attrs(), vec!["i"]);
        assert_eq!(alts[0][1].stored_attrs(), vec!["r", "c"]);
        Ok(())
    }

    #[test]
    fn dia_map_transforms() -> Result<(), FormatError> {
        let text = "(r, c): map{d + o |-> r, o |-> c ; r - c |-> d, c |-> o : \
                    d[sorted] -> o[interval] -> v}";
        let v = read(text)?;
        let alts = v.alternatives();
        let ch = &alts[0][0];
        assert_eq!(ch.fwd.len(), 2);
        assert_eq!(ch.inv.len(), 2);
        assert!(matches!(&ch.fwd[0], Transform::Affine { out, .. } if out == "r"));
        let inverse = Transform::Affine {
            out: "d".into(),
            terms: vec![("r".into(), 1), ("c".into(), -1)],
            cst: 0,
        };
        assert_eq!(ch.inv[0], inverse);
        assert_eq!(
            v.to_string(),
            text.split_whitespace().collect::<Vec<_>>().join(" ")
        );
        Ok(())
    }

    #[test]
    fn display_coupled_and_persp() -> Result<(), FormatError> {
        let v = read("(r, c): (<r, c> -> v ⊕ r[interval] -> v)")?;
        assert_eq!(v.expr.to_string(), "(<r, c> -> v ⊕ r[interval] -> v)");
        let flat = &v.alternatives()[0][0].levels[0];
        assert_eq!(flat.attrs, ["r", "c"]);
        assert_eq!(
            (flat.order, flat.search),
            (Order::Unordered, SearchKind::None)
        );
        Ok(())
    }
}
