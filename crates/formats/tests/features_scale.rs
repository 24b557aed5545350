//! Property tests for the structure analyzer on degenerate inputs, the
//! pinning tests for `gen::scale`'s structure preservation, and the
//! analyzer against set-based references of what it computes.

use bernoulli_formats::{
    block_fill, discover_strips, gen, BlockReport, Layout, StructureFeatures, Triplets,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

#[test]
fn empty_matrix_features() {
    let f = StructureFeatures::of_triplets(&Triplets::<f64>::new(8, 8));
    assert_eq!((f.nrows, f.ncols, f.nnz), (8, 8, 0));
    assert_eq!(f.density, 0.0);
    assert_eq!(f.bandwidth, 0);
    assert_eq!(f.profile, 0.0);
    assert_eq!(f.symmetry, 1.0, "no off-diagonal entries: vacuously 1");
    assert_eq!(f.diag_fill, 0.0);
    assert!(f.lower_triangular && f.upper_triangular);
    assert_eq!(f.level_depth, 0);
    assert!(!f.full_diagonal());
}

#[test]
fn zero_shape_features() {
    let f = StructureFeatures::of_triplets(&Triplets::<f64>::new(0, 0));
    assert_eq!((f.nrows, f.ncols, f.nnz), (0, 0, 0));
    assert_eq!(f.density, 0.0);
    assert_eq!(f.diag_fill, 1.0, "vacuous diagonal");
    assert_eq!(f.level_depth, 0);
}

#[test]
fn single_row_features() {
    let t = Triplets::from_entries(1, 6, &[(0, 1, 1.0), (0, 4, 2.0)]);
    let f = StructureFeatures::of_triplets(&t);
    assert_eq!((f.nrows, f.ncols, f.nnz), (1, 6, 2));
    assert_eq!(f.bandwidth, 4);
    assert_eq!(f.profile, 4.0, "span of columns 1..=4");
    assert_eq!(f.max_row_nnz, 2);
    assert!(f.upper_triangular && !f.lower_triangular);
    assert_eq!(f.level_depth, 1, "one nonempty row, no lower deps");
}

#[test]
fn single_col_features() {
    let t = Triplets::from_entries(6, 1, &[(1, 0, 1.0), (4, 0, 2.0)]);
    let f = StructureFeatures::of_triplets(&t);
    assert_eq!((f.nrows, f.ncols, f.nnz), (6, 1, 2));
    assert_eq!(f.bandwidth, 4);
    assert!(f.lower_triangular && !f.upper_triangular);
    assert_eq!(f.avg_row_nnz, 2.0 / 6.0);
}

#[test]
fn fully_dense_features() {
    let n = 12;
    let mut t = Triplets::new(n, n);
    for r in 0..n {
        for c in 0..n {
            t.push(r, c, (r * n + c + 1) as f64);
        }
    }
    let f = StructureFeatures::of_triplets(&t);
    assert_eq!(f.density, 1.0);
    assert_eq!(f.bandwidth, n - 1);
    assert_eq!(f.profile, n as f64);
    assert_eq!(f.symmetry, 1.0);
    assert!(f.full_diagonal());
    assert!(!f.lower_triangular && !f.upper_triangular);
    // A dense matrix is perfectly blocked at the largest probed shape.
    assert!(f.block.r > 1 && (f.block_score() - 1.0).abs() < 1e-12);
    assert_eq!(f.level_depth, n, "every row depends on every earlier row");
}

#[test]
fn pure_diagonal_features() {
    let n = 9;
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0);
    }
    let f = StructureFeatures::of_triplets(&t);
    assert_eq!(f.bandwidth, 0);
    assert_eq!(f.profile, 1.0);
    assert_eq!(f.symmetry, 1.0);
    assert!(f.full_diagonal());
    assert!(f.lower_triangular && f.upper_triangular);
    assert_eq!(f.level_depth, 1, "no cross-row dependencies");
}

#[test]
fn features_agree_across_formats() {
    let t = gen::structurally_symmetric(96, 700, 12, 21);
    let base = StructureFeatures::of_triplets(&t);
    for name in ["coo", "csr", "csc", "ell", "jad"] {
        let m = (Layout::named(name).unwrap().from_triplets)(&t, None).unwrap();
        assert_eq!(
            StructureFeatures::of_triplets(&m.to_triplets()),
            base,
            "features must not depend on the storage format ({name})"
        );
    }
}

/// `gen::scale` must preserve the selection-driving features within
/// tolerance. Checked at 10x and 100x on a can_1072-style symmetric
/// seed, and at 10x on a FEM-blocked seed (block profile).
#[test]
fn scale_preserves_structure() {
    let seed = gen::structurally_symmetric(200, 2400, 24, 7);
    let base = StructureFeatures::of_triplets(&seed);
    for factor in [10usize, 100] {
        let big = gen::scale(&seed, factor, 40);
        let f = StructureFeatures::of_triplets(&big);
        assert_eq!((f.nrows, f.ncols), (200 * factor, 200 * factor));
        assert_eq!(f.bandwidth, base.bandwidth, "bandwidth at {factor}x");
        assert_eq!(f.symmetry, base.symmetry, "symmetry at {factor}x");
        assert_eq!(f.diag_fill, base.diag_fill, "diag fill at {factor}x");
        assert_eq!((f.block.r, f.block.c), (base.block.r, base.block.c));
        assert!(
            (f.block_score() - base.block_score()).abs() <= 0.05,
            "block score at {factor}x: {} vs {}",
            f.block_score(),
            base.block_score()
        );
        // Coupling adds at most a thin band per boundary.
        let replicated = seed.nnz() * factor;
        assert!(f.nnz >= replicated && f.nnz <= replicated + replicated / 10);
    }
}

#[test]
fn scale_preserves_blocked_profile() {
    let seed = gen::fem_blocked(256, 4, 3, 1.0, 11);
    let base = StructureFeatures::of_triplets(&seed);
    assert_eq!((base.block.r, base.block.c), (4, 4));
    let big = gen::scale(&seed, 10, 5);
    let f = StructureFeatures::of_triplets(&big);
    assert_eq!(f.bandwidth, base.bandwidth);
    assert_eq!((f.block.r, f.block.c), (4, 4), "block shape survives 10x");
    assert!(
        (f.block_score() - base.block_score()).abs() <= 0.05,
        "block score: {} vs {}",
        f.block_score(),
        base.block_score()
    );
}

#[test]
fn scale_preserves_triangularity() {
    let seed = gen::can_1072_like().lower_triangle_full_diag(1.0);
    let big = gen::scale(&seed, 10, 3);
    let f = StructureFeatures::of_triplets(&big);
    assert!(f.lower_triangular, "lower coupling only on a lower seed");
    assert!(f.full_diagonal());
}

#[test]
fn scale_identity_and_determinism() {
    let seed = gen::banded(50, 2, 9);
    let one = gen::scale(&seed, 1, 77);
    let mut norm = seed.clone();
    norm.normalize();
    assert_eq!(one, norm, "factor 1 is the identity");
    assert_eq!(gen::scale(&seed, 10, 77), gen::scale(&seed, 10, 77));
}

/// The entries of `t`, at the width of its shape.
fn entries_of(t: &Triplets<f64>) -> Vec<(usize, usize, f64)> {
    t.entries()
        .iter()
        .map(|&(r, c, v)| (r as usize, c as usize, v))
        .collect()
}

/// The normal form, by sorting.
fn sorted(t: &Triplets<f64>) -> Triplets<f64> {
    Triplets::from_entries(t.nrows(), t.ncols(), &entries_of(t))
}

/// `block_fill` with the touched blocks in a set.
fn naive_block_fill(t: &Triplets<f64>, r: usize, c: usize) -> BlockReport {
    let t = sorted(t);
    let blocks: HashSet<(usize, usize)> = entries_of(&t)
        .iter()
        .map(|&(row, col, _)| (row / r, col / c))
        .collect();
    let stored_cells = blocks.len() * r * c;
    BlockReport {
        r,
        c,
        stored_cells,
        source_nnz: t.nnz(),
        fill: if stored_cells == 0 {
            1.0
        } else {
            t.nnz() as f64 / stored_cells as f64
        },
    }
}

/// `discover_block_size` over [`naive_block_fill`].
fn naive_block_size(t: &Triplets<f64>, max: usize, min_fill: f64) -> BlockReport {
    let mut best: Option<BlockReport> = None;
    for r in (1..=max.min(t.nrows().max(1))).filter(|r| t.nrows().is_multiple_of(*r)) {
        for c in (1..=max.min(t.ncols().max(1))).filter(|c| t.ncols().is_multiple_of(*c)) {
            let rep = naive_block_fill(t, r, c);
            if rep.fill + 1e-12 < min_fill {
                continue;
            }
            let key = |b: &BlockReport| (b.r * b.c, usize::MAX - b.r.abs_diff(b.c), b.r);
            if best.as_ref().is_none_or(|b| key(b) < key(&rep)) {
                best = Some(rep);
            }
        }
    }
    best.expect("1x1 always clears a fill of at most 1")
}

/// `discover_strips` with every row's and column's support in a list.
fn naive_strips(t: &Triplets<f64>) -> (Vec<usize>, Vec<usize>) {
    let t = sorted(t);
    let mut row_support: Vec<Vec<usize>> = vec![Vec::new(); t.nrows()];
    let mut col_support: Vec<Vec<usize>> = vec![Vec::new(); t.ncols()];
    for &(r, c, _) in &entries_of(&t) {
        row_support[r].push(c);
        col_support[c].push(r);
    }
    let strips = |support: &[Vec<usize>]| {
        let mut p = vec![0usize];
        p.extend((1..support.len()).filter(|&i| support[i] != support[i - 1]));
        p.push(support.len());
        p
    };
    (strips(&row_support), strips(&col_support))
}

/// `StructureFeatures::of_triplets` with the positions in a set and a
/// count, a first and a last column per row.
fn naive_features(t: &Triplets<f64>) -> StructureFeatures {
    let t = sorted(t);
    let (nrows, ncols, nnz) = (t.nrows(), t.ncols(), t.nnz());
    let cells = nrows as f64 * ncols as f64;
    let min_dim = nrows.min(ncols);
    let positions: HashSet<(usize, usize)> =
        entries_of(&t).iter().map(|&(r, c, _)| (r, c)).collect();
    let mut row_nnz = vec![0usize; nrows];
    let mut row_first = vec![usize::MAX; nrows];
    let mut row_last = vec![0usize; nrows];
    let mut level = vec![0usize; nrows];
    let (mut bandwidth, mut diag, mut off_diag, mut mirrored) = (0usize, 0usize, 0usize, 0usize);
    let (mut lower, mut upper) = (true, true);
    for &(r, c, _) in &entries_of(&t) {
        row_nnz[r] += 1;
        row_first[r] = row_first[r].min(c);
        row_last[r] = row_last[r].max(c);
        bandwidth = bandwidth.max(r.abs_diff(c));
        if r == c {
            diag += 1;
        } else {
            off_diag += 1;
            mirrored += usize::from(positions.contains(&(c, r)));
            lower &= r > c;
            upper &= r < c;
        }
        level[r] = level[r].max(1);
        if c < r {
            level[r] = level[r].max(level[c] + 1);
        }
    }
    let mut profile_sum = 0.0;
    let mut nonempty = 0usize;
    for r in 0..nrows {
        if row_nnz[r] > 0 {
            nonempty += 1;
            profile_sum += (row_last[r] - row_first[r] + 1) as f64;
        }
    }
    StructureFeatures {
        nrows,
        ncols,
        nnz,
        density: if cells > 0.0 { nnz as f64 / cells } else { 0.0 },
        avg_row_nnz: nnz as f64 / nrows.max(1) as f64,
        max_row_nnz: row_nnz.iter().copied().max().unwrap_or(0),
        bandwidth,
        profile: if nonempty > 0 {
            profile_sum / nonempty as f64
        } else {
            0.0
        },
        symmetry: if off_diag > 0 {
            mirrored as f64 / off_diag as f64
        } else {
            1.0
        },
        diag_fill: if min_dim > 0 {
            diag as f64 / min_dim as f64
        } else {
            1.0
        },
        lower_triangular: lower,
        upper_triangular: upper,
        block: naive_block_size(&t, 8, 0.9),
        level_depth: level.iter().copied().max().unwrap_or(0),
    }
}

/// The counting analysis equals the set-based one, field for field and
/// bit for bit, on every family of input the advisor is shown.
#[test]
fn analysis_agrees_with_set_based_references() {
    let symmetric = gen::structurally_symmetric(96, 700, 12, 21);
    let blocked = gen::fem_blocked(48, 4, 2, 0.8, 5);
    // Out of order and with duplicates, as a caller may push them.
    let mut unsorted = Triplets::new(12, 12);
    for k in 0..60usize {
        unsorted.push((k * 7) % 12, (k * 5 + k / 12) % 12, 0.25 + k as f64);
    }
    let inputs = [
        ("random", gen::random_sparse(40, 40, 200, 3)),
        ("random, wide", gen::random_sparse(12, 30, 90, 4)),
        ("random, tall", gen::random_sparse(30, 8, 70, 5)),
        ("symmetric, lower", symmetric.lower_triangle_full_diag(1.0)),
        (
            "symmetric, upper",
            symmetric.lower_triangle_full_diag(1.0).transposed(),
        ),
        ("symmetric, scaled", gen::scale(&symmetric, 10, 40)),
        ("symmetric", symmetric),
        ("banded", gen::banded(64, 3, 7)),
        ("tridiagonal", gen::tridiagonal(30)),
        ("poisson", gen::poisson2d(6)),
        ("blocked, dense", gen::fem_blocked(48, 4, 2, 1.0, 11)),
        ("blocked, scaled", gen::scale(&blocked, 4, 9)),
        ("blocked", blocked),
        ("unsorted", unsorted),
        ("empty", Triplets::new(6, 4)),
        ("no rows", Triplets::new(0, 4)),
    ];
    for (what, t) in &inputs {
        assert_eq!(
            StructureFeatures::of_triplets(t),
            naive_features(t),
            "{what}"
        );
        assert_eq!(discover_strips(t), naive_strips(t), "{what}");
        for r in (1..=8).filter(|r| t.nrows() % r == 0) {
            for c in (1..=8).filter(|c| t.ncols() % c == 0) {
                assert_eq!(
                    block_fill(t, r, c),
                    naive_block_fill(t, r, c),
                    "{what} {r}x{c}"
                );
            }
        }
    }
}

/// `gen::scale` as it was before it merged: every tile and every
/// coupling entry pushed, then all of it sorted at once.
fn scale_by_sorting(t: &Triplets<f64>, factor: usize, seed: u64) -> Triplets<f64> {
    let (nr, nc) = (t.nrows(), t.ncols());
    let mut pushed: Vec<(usize, usize, f64)> = Vec::new();
    for k in 0..factor {
        for &(r, c, v) in &entries_of(t) {
            pushed.push((k * nr + r, k * nc + c, v));
        }
    }
    if factor > 1 && nr == nc && nr > 0 {
        let positions: HashSet<(usize, usize)> =
            entries_of(t).iter().map(|&(r, c, _)| (r, c)).collect();
        let offsets = |lower: bool| {
            let set: HashSet<usize> = entries_of(t)
                .iter()
                .filter(|&&(r, c, _)| if lower { r > c } else { c > r })
                .map(|&(r, c, _)| r.abs_diff(c))
                .collect();
            let mut sorted: Vec<usize> = set.into_iter().collect();
            sorted.sort_unstable();
            sorted
        };
        let (lower_offsets, upper_offsets) = (offsets(true), offsets(false));
        let mut rng = StdRng::seed_from_u64(seed);
        for k in 1..factor {
            let b = k * nr;
            for &d in &lower_offsets {
                let (r, c) = (b, b - d);
                let v = rng.gen_range(-1.0..-0.05);
                pushed.push((r, c, v));
                for p in [r, c] {
                    if positions.contains(&(p % nr, p % nr)) {
                        pushed.push((p, p, -v));
                    }
                }
                if upper_offsets.binary_search(&d).is_ok() {
                    pushed.push((c, r, v));
                }
            }
            for &d in &upper_offsets {
                if lower_offsets.binary_search(&d).is_ok() {
                    continue;
                }
                let (r, c) = (b - d, b);
                let v = rng.gen_range(-1.0..-0.05);
                pushed.push((r, c, v));
                for p in [r, c] {
                    if positions.contains(&(p % nr, p % nr)) {
                        pushed.push((p, p, -v));
                    }
                }
            }
        }
    }
    Triplets::from_entries(nr * factor, nc * factor, &pushed)
}

/// Merging the coupling entries into the tiles builds, bit for bit,
/// what sorting everything built — for every seed, and for a seed
/// matrix that is itself out of order.
#[test]
fn scale_is_what_sorting_all_of_it_built() {
    let symmetric = gen::structurally_symmetric(60, 400, 10, 7);
    let mut unsorted = Triplets::new(9, 9);
    for k in 0..40usize {
        unsorted.push((k * 7) % 9, (k * 4 + k / 9) % 9, 1.0 / (3.0 + k as f64));
    }
    let seeds = [
        ("lower", symmetric.lower_triangle_full_diag(1.0)),
        (
            "upper",
            symmetric.lower_triangle_full_diag(1.0).transposed(),
        ),
        ("symmetric", symmetric),
        ("blocked", gen::fem_blocked(24, 4, 1, 0.7, 3)),
        (
            "no diagonal",
            Triplets::from_entries(3, 3, &[(0, 2, 1.0), (1, 0, 2.0), (2, 1, 3.0)]),
        ),
        ("rectangular", gen::random_sparse(5, 8, 12, 2)),
        ("unsorted", unsorted),
        ("empty", Triplets::new(4, 4)),
    ];
    let bits = |t: &Triplets<f64>| -> Vec<(usize, usize, u64)> {
        entries_of(t)
            .iter()
            .map(|&(r, c, v)| (r, c, v.to_bits()))
            .collect()
    };
    for (what, t) in &seeds {
        for factor in [1, 2, 7] {
            for seed in 0..4 {
                let (got, want) = (
                    gen::scale(t, factor, seed),
                    scale_by_sorting(t, factor, seed),
                );
                assert_eq!(got, want, "{what} x{factor}, seed {seed}");
                assert_eq!(bits(&got), bits(&want), "{what} x{factor}, seed {seed}");
            }
        }
    }
}
