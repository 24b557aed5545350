//! Each matrix read of `run_dense` is the layout's `get`, bit for bit.
//!
//! `run_dense` does not call `get`: it reads its own copy of a matrix,
//! through a dense row line, a dense column line or a binary search,
//! by how the loop nest around the read sweeps it. Three programs copy
//! every cell of `A` into a vector, one through each read, and every
//! cell must hold the bits of `get(r, c)`: for every [`LAYOUTS`] entry
//! that holds the matrix and for the host views `Dense` and `DiagSplit`,
//! over `find_hash.rs`' edge matrices and `can_1072_like`, with stored
//! explicit zeros, `-0.0` and a NaN with a payload among the entries.
//!
//! COO's `get` scans its entries, so on the large matrix its reads are
//! compared at each stored entry and its two horizontal neighbours, as
//! `find_hash.rs` asks it, not at all 1.15 M cells.

use bernoulli_formats::{gen, Dense, DiagSplit, SparseMatrix, Triplets, LAYOUTS};
use bernoulli_ir::{parse_program, run_dense, DenseEnv};

/// A NaN no arithmetic of the test makes.
const NAN: u64 = 0x7ff8_0000_dead_beef;

/// `t` with one entry in seven made `-0.0`, one made `0.0` and one the
/// NaN.
fn odd_values(t: &Triplets<f64>) -> Triplets<f64> {
    let entries: Vec<(usize, usize, f64)> = (t.entries().iter().enumerate())
        .map(|(k, &(r, c, v))| {
            let v = match k % 7 {
                0 => -0.0,
                3 => 0.0,
                5 => f64::from_bits(NAN),
                _ => v,
            };
            (r as usize, c as usize, v)
        })
        .collect();
    Triplets::from_entries(t.nrows(), t.ncols(), &entries)
}

/// Lower triangle of a seeded random pattern, every third row emptied.
fn lower(n: usize, seed: u64) -> Triplets<f64> {
    let mut t = gen::random_sparse(n, n, 3 * n, seed);
    t.retain_positions(|r, c| c <= r && r % 3 != 1);
    t
}

/// `find_hash.rs`' (and `levels.rs`') edge matrices.
fn edge_matrices() -> Vec<(&'static str, Triplets<f64>)> {
    let mut dense_row = lower(6, 5);
    dense_row.retain_positions(|r, _| r != 5);
    for c in 0..6 {
        dense_row.push(5, c, 1.0 + c as f64);
    }
    let mut no_diagonal = Triplets::new(6, 6);
    for i in 0..6usize {
        for d in [-2i64, 1, 3] {
            let c = i as i64 - d;
            if (0..6).contains(&c) {
                no_diagonal.push(i, c as usize, 1.0 + (i * 6) as f64 + c as f64);
            }
        }
    }
    vec![
        ("lower6", lower(6, 1)),
        ("lower12", lower(12, 2)),
        ("dense_row6", dense_row),
        ("no_diagonal6", no_diagonal),
        ("rect6x4", gen::random_sparse(6, 4, 9, 3)),
        ("empty6", Triplets::new(6, 6)),
        ("0x4", Triplets::new(0, 4)),
    ]
}

/// The three sweeps of every cell into `w[C i + j]`, `C` the number of
/// columns: along rows (`j` moves innermost: a row line), along columns
/// (`i` moves: a column line), and with both indices moving with `k`
/// (a search).
fn sweeps(ncols: usize) -> [(&'static str, String); 3] {
    let program = |nest: &str| {
        format!(
            "program sweep(M, N, P) {{ in matrix A[M][N]; inout vector w[P]; {} }}",
            nest.replace("C*", &format!("{ncols}*"))
        )
    };
    [
        (
            "row line",
            program("for i in 0..M { for j in 0..N { w[C*i + j] = A[i][j]; } }"),
        ),
        (
            "column line",
            program("for j in 0..N { for i in 0..M { w[C*i + j] = A[i][j]; } }"),
        ),
        (
            "search",
            program(
                "for i in 0..M { for j in 0..N { for k in 0..1 { \
                 w[C*i + j] = A[i + k][j + k]; } } }",
            ),
        ),
    ]
}

/// The cells of `a` each read is checked at: all of them, or for a
/// large matrix whose `get` scans, the stored ones and their two
/// horizontal neighbours.
fn cells(a: &dyn SparseMatrix, scan: bool) -> Vec<(usize, usize)> {
    let (m, n) = (a.nrows(), a.ncols());
    if scan && m * n > 10_000 {
        let near = |(r, c, _): (usize, usize, f64)| [(r, c.wrapping_sub(1)), (r, c), (r, c + 1)];
        let near = a.entries().into_iter().flat_map(near);
        return near.filter(|&(_, c)| c < n).collect();
    }
    (0..m).flat_map(|r| (0..n).map(move |c| (r, c))).collect()
}

/// What `check` compared: cells, and among them stored `-0.0`s and
/// NaNs.
#[derive(Default)]
struct Compared {
    cells: usize,
    negative_zeros: usize,
    nans: usize,
}

/// Runs the three sweeps over `a` and checks every cell against `get`.
fn check(what: &str, a: &dyn SparseMatrix, scan: bool, seen: &mut Compared) {
    let (m, n) = (a.nrows(), a.ncols());
    let swept = sweeps(n).map(|(sweep, text)| {
        let p = parse_program(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let mut env = DenseEnv::new()
            .param("M", m as i64)
            .param("N", n as i64)
            .param("P", (m * n) as i64)
            .vector("w", vec![f64::from_bits(NAN ^ 1); m * n])
            .matrix("A", a);
        run_dense(&p, &mut env).unwrap_or_else(|e| panic!("{what}, {sweep}: {e}"));
        (sweep, env.take_vector("w"))
    });
    for (r, c) in cells(a, scan) {
        let want = a.get(r, c);
        for (sweep, w) in &swept {
            let got = w[r * n + c];
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}, {sweep}: cell ({r}, {c})"
            );
        }
        seen.cells += 1;
        seen.negative_zeros += usize::from(want.to_bits() == (-0.0f64).to_bits());
        seen.nans += usize::from(want.to_bits() == NAN);
    }
}

/// Every layout that holds `t`, and the host views, through `check`.
fn every_view(matrix: &str, t: &Triplets<f64>) -> Compared {
    let mut seen = Compared::default();
    for layout in LAYOUTS {
        // A layout refuses some shapes (a skyline holds lower
        // triangles): nothing to read.
        let Ok(a) = (layout.from_triplets)(t, Some((2, 2))) else {
            continue;
        };
        let what = format!("{} {matrix}", layout.name);
        check(&what, &*a, layout.name == "coo", &mut seen);
    }
    let dense = Dense::from_triplets(t);
    check(&format!("dense {matrix}"), &dense, false, &mut seen);
    if t.nrows() == t.ncols() {
        let split = DiagSplit::from_triplets(t);
        check(&format!("diagsplit {matrix}"), &split, false, &mut seen);
    }
    println!(
        "{matrix}: {} cells compared, three reads each; {} stored -0.0, {} NaN",
        seen.cells, seen.negative_zeros, seen.nans
    );
    seen
}

#[test]
fn every_read_of_the_edge_matrices_is_get() {
    for (name, t) in edge_matrices() {
        let seen = every_view(name, &odd_values(&t));
        let (m, n) = (t.nrows(), t.ncols());
        assert!(seen.cells >= m * n * 10, "{name}: {} cells", seen.cells);
        if t.nnz() > 7 {
            assert!(seen.negative_zeros > 0 && seen.nans > 0, "{name}");
        }
    }
}

#[test]
fn every_read_of_can_1072_like_is_get() {
    let seen = every_view("can_1072_like", &odd_values(&gen::can_1072_like()));
    assert!(seen.cells > 10_000_000, "{}", seen.cells);
    assert!(seen.negative_zeros > 10_000 && seen.nans > 10_000);
}
