//! The S34 determinism contract: the synthesis search returns
//! byte-identical ranked candidates, `examined` and `pruned` counts
//! whether it runs sequentially or fanned out over a worker pool of any
//! size — and branch-and-bound pruning never changes the kept
//! candidates, only how much lowering work it took to find them.

use bernoulli_blas::{kernels, synth};
use bernoulli_formats::formats::sparsevec::{hashvec_format_view, sparsevec_format_view};
use bernoulli_formats::view::FormatView;
use bernoulli_ir::Program;
use bernoulli_service::Session;
use bernoulli_synth::{SearchReport, SynthOptions, WorkloadStats};

/// One full search on a dedicated session: `threads = None` runs
/// sequentially, `Some(n)` on a session-owned pool of `n` lanes. A
/// fresh session per call keeps every search genuinely cold.
fn search(
    p: &Program,
    views: &[(&str, FormatView)],
    opts: &SynthOptions,
    threads: Option<usize>,
) -> SearchReport {
    let session = match threads {
        Some(n) => Session::new().with_threads(n),
        None => Session::new(),
    };
    let opts = SynthOptions {
        parallel: threads.is_some(),
        ..opts.clone()
    };
    let bound = session.bind(p, views).unwrap();
    session
        .compile_with(&bound, &opts)
        .unwrap()
        .report()
        .clone()
}

type Workload = (
    &'static str,
    Program,
    Vec<(&'static str, FormatView)>,
    SynthOptions,
);

/// Five searches (three matrix kernels, both sparse-dot joins): the
/// statistics are derived from generated instances, not hand-written.
fn workloads() -> Vec<Workload> {
    use bernoulli_formats::{gen, vector_features, StructureFeatures};
    let can = gen::can_1072_like();
    let spdot_stats = WorkloadStats::from_features(&[
        (
            "x",
            &vector_features(10_000, &gen::sparse_vector(10_000, 300, 1)),
        ),
        (
            "y",
            &vector_features(10_000, &gen::sparse_vector(10_000, 500, 2)),
        ),
    ]);
    let matrix_stats = WorkloadStats::from_features(&[
        ("A", &StructureFeatures::of_triplets(&can)),
        (
            "L",
            &StructureFeatures::of_triplets(&can.lower_triangle_full_diag(1.0)),
        ),
    ]);
    let with_stats = |stats: &WorkloadStats| SynthOptions {
        stats: stats.clone(),
        // The plan cache would make every call after the first a lookup;
        // these tests compare genuine searches.
        cache_plans: false,
        ..SynthOptions::default()
    };
    vec![
        (
            "mvm/csr",
            kernels::mvm(),
            vec![("A", synth::view_for("mvm", "csr"))],
            with_stats(&matrix_stats),
        ),
        (
            "ts/csr",
            kernels::ts(),
            vec![("L", synth::view_for("ts", "csr"))],
            with_stats(&matrix_stats),
        ),
        (
            "ts/jad",
            kernels::ts(),
            vec![("L", synth::view_for("ts", "jad"))],
            with_stats(&matrix_stats),
        ),
        (
            "spdot/merge",
            kernels::spdot(),
            vec![
                ("x", sparsevec_format_view()),
                ("y", sparsevec_format_view()),
            ],
            with_stats(&spdot_stats),
        ),
        (
            "spdot/hash",
            kernels::spdot(),
            vec![("x", sparsevec_format_view()), ("y", hashvec_format_view())],
            with_stats(&spdot_stats),
        ),
    ]
}

fn assert_identical(label: &str, a: &SearchReport, b: &SearchReport) {
    assert_eq!(a.examined, b.examined, "{label}: examined diverged");
    assert_eq!(a.pruned, b.pruned, "{label}: pruned diverged");
    assert_eq!(a.reasons, b.reasons, "{label}: reasons diverged");
    assert_eq!(
        a.candidates.len(),
        b.candidates.len(),
        "{label}: candidate count diverged"
    );
    for (i, (x, y)) in a.candidates.iter().zip(b.candidates.iter()).enumerate() {
        assert_eq!(
            x.cost.to_bits(),
            y.cost.to_bits(),
            "{label}: candidate {i} cost diverged"
        );
        assert_eq!(x.choices, y.choices, "{label}: candidate {i} choices");
        assert_eq!(
            x.safety_notes, y.safety_notes,
            "{label}: candidate {i} safety notes"
        );
        assert_eq!(
            x.plan.to_string(),
            y.plan.to_string(),
            "{label}: candidate {i} plan"
        );
    }
}

/// Property (satellite c): for every workload and pool size in
/// {1, 2, 8}, the pooled search is byte-identical to the sequential
/// one — same ranked candidates, costs, plans, `examined`, `pruned`.
#[test]
fn parallel_matches_sequential_for_all_pool_sizes() {
    for (label, p, views, base) in workloads() {
        let seq = search(&p, &views, &base, None);
        assert!(
            !seq.candidates.is_empty(),
            "{label}: workload must synthesize"
        );
        for threads in [1usize, 2, 8] {
            let par = search(&p, &views, &base, Some(threads));
            assert_identical(&format!("{label}/threads={threads}"), &seq, &par);
        }
    }
}

/// Branch-and-bound in best-plan mode (keep=1) skips lowering work but
/// must not change the result: prune on/off agree on the kept
/// candidate bit-for-bit (the floor is admissible), and the pruned
/// search stays deterministic across pool sizes.
#[test]
fn pruning_is_admissible_and_deterministic() {
    let mut total_pruned = 0usize;
    for (label, p, views, base) in workloads() {
        let pruned_opts = SynthOptions { keep: 1, ..base };
        let unpruned_opts = SynthOptions {
            prune: false,
            ..pruned_opts.clone()
        };
        let with = search(&p, &views, &pruned_opts, None);
        let without = search(&p, &views, &unpruned_opts, None);
        assert_eq!(
            with.examined, without.examined,
            "{label}: pruning must not change how many embeddings are considered"
        );
        assert_eq!(without.pruned, 0, "{label}: prune=false never prunes");
        assert_eq!(
            with.candidates.len(),
            without.candidates.len(),
            "{label}: pruning changed the number of kept candidates"
        );
        for (x, y) in with.candidates.iter().zip(without.candidates.iter()) {
            assert_eq!(
                x.cost.to_bits(),
                y.cost.to_bits(),
                "{label}: pruning changed the best cost — floor is not admissible"
            );
            assert_eq!(
                x.plan.to_string(),
                y.plan.to_string(),
                "{label}: pruning changed the best plan"
            );
        }
        for threads in [1usize, 2, 8] {
            let par = search(&p, &views, &pruned_opts, Some(threads));
            assert_identical(&format!("{label}/pruned/threads={threads}"), &with, &par);
        }
        total_pruned += with.pruned;
    }
    // The bound must actually engage somewhere (ts/jad prunes the
    // cross-product-shaped embeddings of its fruitless configurations).
    assert!(
        total_pruned > 0,
        "branch-and-bound never engaged on any workload"
    );
}
