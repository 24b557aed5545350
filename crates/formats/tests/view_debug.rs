//! The index structure of every registered view, pinned by its `Debug`.
//!
//! Every [`LAYOUTS`] entry at block shape 2×2 (a blocked layout also at
//! 3×2) and the four host-only views (`dense`, `diagsplit`, `spvec`,
//! `hashvec`), against [`TABLE`]. The plan-cache key embeds a view's
//! `Debug`, so a view that reads differently here plans under another
//! key, and every persisted entry and kernel artifact of it moves.
//!
//! The table was recorded at the parent of the change that wrote each
//! view once, as text beside its levels, in place of a hand-built tree:
//! this file passes there unedited. `cargo test -p bernoulli-formats
//! --test view_debug -- --nocapture` prints every row in the table's
//! syntax.

use bernoulli_formats::formats::dense::dense_format_view;
use bernoulli_formats::formats::diagsplit::diagsplit_format_view;
use bernoulli_formats::formats::sparsevec::{hashvec_format_view, sparsevec_format_view};
use bernoulli_formats::{FormatView, LAYOUTS};

fn registered() -> Vec<FormatView> {
    let mut views = Vec::new();
    for layout in LAYOUTS {
        views.push((layout.view)((2, 2)));
        if layout.blocked {
            views.push((layout.view)((3, 2)));
        }
    }
    views.extend([
        dense_format_view(),
        diagsplit_format_view(),
        sparsevec_format_view(),
        hashvec_format_view(),
    ]);
    views
}

#[test]
fn every_registered_view_is_as_recorded() {
    let seen: Vec<(String, String)> = registered()
        .iter()
        .map(|v| (v.name.clone(), format!("{v:?}")))
        .collect();
    for (name, debug) in &seen {
        println!("    ({name:?}, {debug:?}),");
    }
    for ((name, debug), (want_name, want)) in seen.iter().zip(TABLE) {
        assert_eq!(name, want_name);
        assert_eq!(debug, want, "{name}");
    }
    assert_eq!(seen.len(), TABLE.len(), "rows");
}

#[rustfmt::skip]
const TABLE: &[(&str, &str)] = &[
    ("csr", "FormatView { name: \"csr\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"r\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"c\"], order: Increasing, search: Sorted, interval: false, child: Value } }, bounds: [], guarantees: [] }"),
    ("csc", "FormatView { name: \"csc\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"c\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"r\"], order: Increasing, search: Sorted, interval: false, child: Value } }, bounds: [], guarantees: [] }"),
    ("coo", "FormatView { name: \"coo\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"r\", \"c\"], order: Unordered, search: Linear, interval: false, child: Value }, bounds: [], guarantees: [] }"),
    ("dia", "FormatView { name: \"dia\", dense_attrs: [\"r\", \"c\"], expr: Map { fwd: [Affine { out: \"r\", terms: [(\"d\", 1), (\"o\", 1)], cst: 0 }, Affine { out: \"c\", terms: [(\"o\", 1)], cst: 0 }], inv: [Affine { out: \"d\", terms: [(\"r\", 1), (\"c\", -1)], cst: 0 }, Affine { out: \"o\", terms: [(\"c\", 1)], cst: 0 }], child: Level { attrs: [\"d\"], order: Increasing, search: Sorted, interval: false, child: Level { attrs: [\"o\"], order: Increasing, search: Direct, interval: true, child: Value } } }, bounds: [], guarantees: [] }"),
    ("ell", "FormatView { name: \"ell\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"r\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"c\"], order: Increasing, search: Sorted, interval: false, child: Value } }, bounds: [], guarantees: [] }"),
    ("jad", "FormatView { name: \"jad\", dense_attrs: [\"r\", \"c\"], expr: Perm { table: \"iperm\", input: \"rr\", out: \"r\", child: Persp(Level { attrs: [\"rr\", \"c\"], order: Unordered, search: None, interval: false, child: Value }, Level { attrs: [\"rr\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"c\"], order: Increasing, search: Sorted, interval: false, child: Value } }) }, bounds: [], guarantees: [] }"),
    ("sky", "FormatView { name: \"sky\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"r\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"c\"], order: Increasing, search: Direct, interval: true, child: Value } }, bounds: [Bound { terms: [(\"r\", 1), (\"c\", -1)], cst: 0 }], guarantees: [FullDiagonal] }"),
    ("bsr2x2", "FormatView { name: \"bsr2x2\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"r\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"c\"], order: Increasing, search: Sorted, interval: false, child: Value } }, bounds: [], guarantees: [] }"),
    ("bsr3x2", "FormatView { name: \"bsr3x2\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"r\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"c\"], order: Increasing, search: Sorted, interval: false, child: Value } }, bounds: [], guarantees: [] }"),
    ("vbr", "FormatView { name: \"vbr\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"r\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"c\"], order: Increasing, search: Sorted, interval: false, child: Value } }, bounds: [], guarantees: [] }"),
    ("dcsr", "FormatView { name: \"dcsr\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"r\"], order: Increasing, search: Sorted, interval: false, child: Level { attrs: [\"c\"], order: Increasing, search: Sorted, interval: false, child: Value } }, bounds: [], guarantees: [] }"),
    ("dense", "FormatView { name: \"dense\", dense_attrs: [\"r\", \"c\"], expr: Level { attrs: [\"r\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"c\"], order: Increasing, search: Direct, interval: true, child: Value } }, bounds: [], guarantees: [AllPositions] }"),
    ("diagsplit", "FormatView { name: \"diagsplit\", dense_attrs: [\"r\", \"c\"], expr: Union(Map { fwd: [Affine { out: \"r\", terms: [(\"i\", 1)], cst: 0 }, Affine { out: \"c\", terms: [(\"i\", 1)], cst: 0 }], inv: [Affine { out: \"i\", terms: [(\"r\", 1)], cst: 0 }], child: Level { attrs: [\"i\"], order: Increasing, search: Direct, interval: true, child: Value } }, Level { attrs: [\"r\"], order: Increasing, search: Direct, interval: true, child: Level { attrs: [\"c\"], order: Increasing, search: Sorted, interval: false, child: Value } }), bounds: [], guarantees: [FullDiagonal] }"),
    ("spvec", "FormatView { name: \"spvec\", dense_attrs: [\"i\"], expr: Level { attrs: [\"i\"], order: Increasing, search: Sorted, interval: false, child: Value }, bounds: [], guarantees: [] }"),
    ("hashvec", "FormatView { name: \"hashvec\", dense_attrs: [\"i\"], expr: Level { attrs: [\"i\"], order: Unordered, search: Hash, interval: false, child: Value }, bounds: [], guarantees: [] }"),
];
