//! Search-driver robustness and caching tests (S34): degenerate cost
//! models must not panic, the whole-search plan cache must serve a
//! second identical call entirely from memory, and rejection reasons
//! must stay deduplicated and bounded.

use bernoulli_formats::view::FormatView;
use bernoulli_formats::{gen, Layout, Stored, Triplets};
use bernoulli_ir::{parse_program, Program};
use bernoulli_synth::{SearchReport, Session, SynthOptions, WorkloadStats};

const TS: &str = r#"
    program ts(N) {
      in matrix L[N][N];
      inout vector b[N];
      for j in 0..N {
        b[j] = b[j] / L[j][j];
        for i in j+1..N {
          b[i] = b[i] - L[i][j] * b[j];
        }
      }
    }
"#;

const MVM: &str = r#"
    program mvm(M, N) {
      in matrix A[M][N];
      in vector x[N];
      inout vector y[M];
      for i in 0..M {
        for j in 0..N {
          y[i] = y[i] + A[i][j] * x[j];
        }
      }
    }
"#;

/// One search on `s` (its pool, its plan cache) under explicit options.
fn search(
    s: &Session,
    p: &Program,
    views: &[(&str, FormatView)],
    opts: &SynthOptions,
) -> SearchReport {
    let bound = s.bind(p, views).unwrap();
    s.compile_with(&bound, opts).unwrap().report().clone()
}

fn lower_triangular(n: usize) -> Triplets<f64> {
    let dense = gen::random_sparse(n, n, 4 * n, 11);
    let mut t = Triplets::new(n, n);
    for &(i, j, v) in dense.entries() {
        if j < i {
            t.push(i as usize, j as usize, v);
        }
    }
    for i in 0..n {
        t.push(i, i, 2.0 + i as f64);
    }
    t
}

/// `t` in the registered layout of this name, cut at the shape discovery
/// finds.
fn in_format(name: &str, t: &Triplets<f64>) -> Box<dyn Stored> {
    (Layout::named(name).unwrap().from_triplets)(t, None).unwrap()
}

fn ts_on(format: &str) -> (Program, Vec<(&'static str, FormatView)>) {
    let p = parse_program(TS).unwrap();
    let t = lower_triangular(16);
    let view = in_format(format, &t).format_view();
    (p, vec![("L", view)])
}

/// Regression: candidate ranking used `partial_cmp(..).unwrap()`, which
/// panics the moment a degenerate cost model produces a non-finite
/// cost. With `total_cmp` the search must complete, rank NaN costs
/// last, and never let the (equally NaN-poisoned) cost floor prune.
#[test]
fn degenerate_stats_do_not_panic() {
    let p = parse_program(MVM).unwrap();
    let t = gen::random_sparse(12, 12, 40, 3);
    let view = in_format("csr", &t).format_view();

    let mut stats = WorkloadStats {
        default_n: f64::NAN,
        ..WorkloadStats::default()
    };
    stats.params.insert("N".to_string(), f64::NAN);
    let opts = SynthOptions {
        stats,
        cache_plans: false,
        ..SynthOptions::default()
    };
    let rep = search(&Session::new(), &p, &[("A", view)], &opts);
    assert!(
        !rep.candidates.is_empty(),
        "NaN statistics still admit structurally legal plans"
    );
    // Every cost is NaN-poisoned, yet nothing was pruned on their
    // account: the floor degrades to the never-pruning value.
    assert_eq!(rep.pruned, 0, "a non-finite floor must never prune");
    // A finite-cost candidate can never rank below a NaN one.
    let first_nan = rep.candidates.iter().position(|c| c.cost.is_nan());
    if let Some(k) = first_nan {
        assert!(
            rep.candidates[k..].iter().all(|c| c.cost.is_nan()),
            "NaN costs must sort after all finite costs"
        );
    }
}

/// The second identical compile on one session must be served 100%
/// from its plan cache: one more hit, no more misses, and
/// byte-identical results.
#[test]
fn plan_cache_second_identical_call_is_pure_hit() {
    let s = Session::new();

    let (p, views) = ts_on("csr");
    let opts = SynthOptions {
        stats: WorkloadStats::default()
            .with_param("N", 1072.0)
            .with_matrix("L", 1072.0, 1072.0, 6758.0),
        ..SynthOptions::default()
    };

    let first = search(&s, &p, &views, &opts);
    assert!(!first.plan_cache_hit, "cold call cannot hit the cache");
    let cold = s.plan_cache_stats();
    assert_eq!((cold.hits, cold.misses), (0, 1));

    let second = search(&s, &p, &views, &opts);
    assert!(second.plan_cache_hit, "identical call must hit the cache");
    let warm = s.plan_cache_stats();
    assert_eq!((warm.hits, warm.misses), (1, 1), "second call: pure hit");
    assert!((warm.hit_rate() - 0.5).abs() < 1e-12);

    assert_eq!(first.examined, second.examined);
    assert_eq!(first.candidates.len(), second.candidates.len());
    for (a, b) in first.candidates.iter().zip(second.candidates.iter()) {
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.plan.to_string(), b.plan.to_string());
        assert_eq!(a.choices, b.choices);
        assert_eq!(a.safety_notes, b.safety_notes);
    }

    // A changed knob (or statistics) is a different key — no false hit.
    let other = SynthOptions {
        keep: 7,
        ..opts.clone()
    };
    let third = search(&s, &p, &views, &other);
    assert!(!third.plan_cache_hit, "different knobs must miss");

    s.clear_caches();
    let reset = s.plan_cache_stats();
    assert_eq!((reset.hits, reset.misses), (0, 0));
}

/// Rejection reasons are deduplicated and capped: a search that rejects
/// dozens of embeddings for the same reason reports it once.
#[test]
fn rejection_reasons_are_deduplicated_and_capped() {
    let (p, views) = ts_on("jad");
    let opts = SynthOptions {
        stats: WorkloadStats::default()
            .with_param("N", 1072.0)
            .with_matrix("L", 1072.0, 1072.0, 6758.0),
        cache_plans: false,
        ..SynthOptions::default()
    };
    let rep = search(&Session::new(), &p, &views, &opts);
    assert!(
        rep.examined > rep.candidates.len(),
        "ts/jad rejects embeddings, so reasons have something to record"
    );
    for (i, r) in rep.reasons.iter().enumerate() {
        assert!(
            !rep.reasons[i + 1..].contains(r),
            "duplicate rejection reason: {r}"
        );
    }
    assert!(rep.reasons.len() <= 16, "reasons are capped");
}
