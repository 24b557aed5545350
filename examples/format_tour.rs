//! A tour of the storage formats and their index-structure descriptions
//! (paper Figs. 1, 2, 6, 14), using the paper's example matrix.
//!
//! ```text
//! cargo run --example format_tour
//! ```

use bernoulli::formats::cursor::check_view_conformance;
use bernoulli::prelude::*;

fn main() -> Result<(), Error> {
    // The matrix of the paper's Fig. 1 / Fig. 14:
    //   [a 0 b 0]
    //   [0 c 0 0]
    //   [0 d e 0]
    //   [f 0 g h]
    let t = Triplets::from_entries(
        4,
        4,
        &[
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 1, 4.0),
            (2, 2, 5.0),
            (3, 0, 6.0),
            (3, 2, 7.0),
            (3, 3, 8.0),
        ],
    );

    println!("matrix (paper Fig. 14a):");
    for r in 0..4 {
        print!("  ");
        for c in 0..4 {
            print!("{:5.1} ", t.get(r, c));
        }
        println!();
    }
    println!();

    // One compiler session compiles MVM for every format; each index
    // structure steers the search toward a different plan shape.
    let session = Session::new();
    let spec = kernels::mvm();

    // Every registered layout, assembled from its description (one the
    // matrix does not fit refuses it, typed), and the two host views by
    // their own constructors.
    let mut formats: Vec<(&str, Box<dyn SparseView>)> = Vec::new();
    for layout in LAYOUTS {
        match (layout.from_triplets)(&t, None) {
            Ok(m) => formats.push((layout.name, m as Box<dyn SparseView>)),
            Err(e) => println!("— {} — {e}\n", layout.name),
        }
    }
    formats.push(("dense", Box::new(Dense::from_triplets(&t))));
    formats.push(("diagsplit", Box::new(DiagSplit::from_triplets(&t))));

    for (name, f) in &formats {
        let v = f.format_view();
        println!("— {name} —");
        println!("  index structure: {}", v.expr);
        let alts = v.alternatives();
        println!(
            "  {} access alternative(s); chains per alternative: {:?}",
            alts.len(),
            alts.iter().map(|a| a.len()).collect::<Vec<_>>()
        );
        for (ai, _) in alts.iter().enumerate() {
            check_view_conformance(&**f, ai)
                .unwrap_or_else(|e| panic!("{name} alternative {ai}: {e}"));
        }
        println!(
            "  view conformance: every alternative enumerates exactly nnz={} entries",
            f.nnz()
        );
        let kernel = session.compile(&session.bind(&spec, &[("A", v)])?)?;
        let shape = kernel
            .plan()
            .to_string()
            .lines()
            .next()
            .unwrap_or("")
            .trim_start_matches(['/', ' '])
            .to_string();
        println!(
            "  synthesized MVM: cost {:.0}, {} candidate(s), {shape}",
            kernel.cost(),
            kernel.candidates().len()
        );
    }

    // Show the JAD construction details (Fig. 14d).
    let jad = Jad::from_triplets(&t);
    println!("\nJAD construction (paper Fig. 14d):");
    println!(
        "  iperm  = {:?}   (permuted row -> original row)",
        jad.iperm
    );
    println!("  dptr   = {:?}", jad.dptr);
    println!("  colind = {:?}", jad.colind);
    println!("  values = {:?}", jad.values);

    // And DIA for a banded matrix (Fig. 2).
    let band = bernoulli::formats::gen::tridiagonal(5);
    let dia = Dia::from_triplets(&band);
    println!("\nDIA for a tridiagonal 5x5 (paper Fig. 2):");
    println!("  stored diagonals d = r - c: {:?}", dia.diags);
    println!("  per-diagonal offset ranges: {:?}..{:?}", dia.lo, dia.hi);
    Ok(())
}
