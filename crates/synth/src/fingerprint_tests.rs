//! The fingerprint against the key string it stands in for: over the
//! 21 problems of the benchmark's `service_mix`, each perturbed one way
//! at a time, the two identify the same problems; and what the memory
//! tier does with a match, a `NaN` and a collision.

use super::*;
use crate::session::{bind_problem, Session};
use bernoulli_blas::kernels;
use bernoulli_blas::synth::{spec_for, view_for, GENERATED_KERNELS};
use bernoulli_formats::formats::csc::csc_format_view;
use bernoulli_formats::formats::csr::csr_format_view;
use bernoulli_formats::formats::sparsevec::{hashvec_format_view, sparsevec_format_view};
use bernoulli_formats::view::{Bound, StoredGuarantee};
use bernoulli_ir::{parse_program, AffineExpr, Node, Statement, ValueExpr};

type Views = Vec<(&'static str, FormatView)>;
type Outcome = Result<(), Box<dyn std::error::Error>>;

/// Every committed (kernel, format) pair plus the two sparse
/// dot-product joins.
fn problems() -> Vec<(Program, Views)> {
    let mut out: Vec<(Program, Views)> = GENERATED_KERNELS
        .iter()
        .map(|&(kernel, format)| {
            let (program, matrix) = spec_for(kernel);
            (program, vec![(matrix, view_for(kernel, format))])
        })
        .collect();
    for y in [sparsevec_format_view(), hashvec_format_view()] {
        let views = vec![("x", sparsevec_format_view()), ("y", y)];
        out.push((kernels::spdot(), views));
    }
    assert_eq!(out.len(), 21);
    out
}

fn first_statement(nodes: &mut [Node]) -> Option<&mut Statement> {
    nodes.iter_mut().find_map(|n| match n {
        Node::Stmt(s) => Some(s),
        Node::Loop(l) => first_statement(&mut l.body),
    })
}

/// `p` with its first statement's right-hand side scaled by `c`.
fn scaled(p: &Program, c: f64) -> Program {
    let mut p = p.clone();
    if let Some(s) = first_statement(&mut p.body) {
        s.rhs = ValueExpr::Mul(Box::new(s.rhs.clone()), Box::new(ValueExpr::Const(c)));
    }
    p
}

/// The problem as given, parsed back from its text, and perturbed one
/// way at a time.
fn variants(p: &Program, views: &Views) -> Vec<(Program, Views, SynthOptions)> {
    let d = SynthOptions::default;
    let mut out = vec![(p.clone(), views.clone(), d())];
    out.extend(parse_program(&p.to_string()).map(|reparsed| (reparsed, views.clone(), d())));

    // An `f64` constant, and it alone.
    for c in [2.0, 2.5, -0.0, 0.0] {
        out.push((scaled(p, c), views.clone(), d()));
    }
    // A loop bound.
    let mut longer = p.clone();
    if let Some(Node::Loop(l)) = longer.body.first_mut() {
        l.hi = &l.hi + &AffineExpr::constant(1);
    }
    out.push((longer, views.clone(), d()));
    // A view bound, a view guarantee.
    let mut bounded = views.clone();
    bounded[0].1.bounds.push(Bound {
        terms: vec![("r".to_string(), 1)],
        cst: -3,
    });
    out.push((p.clone(), bounded, d()));
    let mut guaranteed = views.clone();
    guaranteed[0]
        .1
        .guarantees
        .push(StoredGuarantee::AllPositions);
    out.push((p.clone(), guaranteed, d()));

    // Each result-affecting knob, and the two that affect nothing.
    let knobs: [fn(&mut SynthOptions); 8] = [
        |o| o.keep = 3,
        |o| o.prune = false,
        |o| o.max_orders = 5,
        |o| o.max_embeddings = 5,
        |o| o.relax_reductions = false,
        |o| o.include_iteration_centric = true,
        |o| o.parallel = false,
        |o| o.cache_plans = false,
    ];
    // One workload statistic of each kind.
    let stats: [fn(&mut SynthOptions); 5] = [
        |o| o.stats.default_n = 1001.0,
        |o| o.stats.default_nnz_per_row = 10.5,
        |o| o.stats = o.stats.clone().with_param("N", 64.0),
        |o| o.stats = o.stats.clone().with_param("N", 65.0),
        |o| o.stats = o.stats.clone().with_matrix("A", 8.0, 8.0, 20.0),
    ];
    for change in knobs.iter().chain(&stats) {
        let mut opts = d();
        change(&mut opts);
        out.push((p.clone(), views.clone(), opts));
    }
    out
}

#[test]
fn fingerprints_are_equal_exactly_when_key_strings_are() -> Outcome {
    let mut identities: Vec<(u64, String)> = Vec::new();
    for (p, views) in problems() {
        let variants = variants(&p, &views);
        assert_eq!(variants.len(), 22, "every perturbation applied");
        for (p, views, opts) in variants {
            let bound = bind_problem(&p, &views)?;
            let key = plan_cache_key(bound.program(), bound.views(), &opts);
            identities.push((Request::new(&bound, &opts).fingerprint, key));
        }
    }
    let (mut same, mut different) = (0usize, 0usize);
    for (i, (fp_a, key_a)) in identities.iter().enumerate() {
        for (fp_b, key_b) in &identities[..i] {
            assert_eq!(fp_a == fp_b, key_a == key_b, "{key_a}\n{key_b}");
            if key_a == key_b {
                same += 1;
            } else {
                different += 1;
            }
        }
    }
    // Per problem, the reparsed text and the two knobs that affect no
    // result repeat the problem as given: four alike, six pairs.
    assert_eq!(same, 21 * 6);
    assert!(different > 100_000, "{different} pairs apart");
    Ok(())
}

const MVM: &str = "program mvm(M, N) { in matrix A[M][N]; in vector x[N]; inout vector y[M];
    for i in 0..M { for j in 0..N { y[i] = y[i] + A[i][j] * x[j]; } } }";

#[test]
fn a_program_parsed_twice_from_one_text_hits() -> Result<(), SynthError> {
    let s = Session::new();
    let view = csr_format_view();
    let first = s.compile(&s.bind(&s.parse(MVM)?, &[("A", view.clone())])?)?;
    let second = s.compile(&s.bind(&s.parse(MVM)?, &[("A", view)])?)?;
    assert!(!first.from_cache() && second.from_cache());
    assert_eq!(first.cache_key(), second.cache_key());
    Ok(())
}

#[test]
fn a_nan_constant_never_hits() -> Result<(), SynthError> {
    let s = Session::new();
    let p = scaled(&s.parse(MVM)?, f64::NAN);
    let bound = s.bind(&p, &[("A", csr_format_view())])?;
    for _ in 0..3 {
        // Whatever the search makes of such a statement.
        assert!(!s.compile(&bound).is_ok_and(|k| k.from_cache()));
    }
    let stats = s.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 3));
    // Its dependence classes are not recognised either, only recomputed.
    assert_eq!(stats.analyses, 3);
    Ok(())
}

#[test]
fn a_fingerprint_collision_is_a_miss() -> Result<(), SynthError> {
    let cache = PlanCache::new();
    let opts = SynthOptions::default();
    let search =
        |req: &Request<'_>| serve(&cache, req, |key| run_search(req, key, None, &cache, None));
    let p = parse_program(MVM)?;
    let csr = bind_problem(&p, &[("A", csr_format_view())])?;
    let csc = bind_problem(&p, &[("A", csc_format_view())])?;
    let of_csr = Request::new(&csr, &opts);
    assert_eq!(search(&of_csr)?.tier, Tier::Search);
    assert_eq!(search(&of_csr)?.tier, Tier::Memory);

    // Another problem under the first one's fingerprint is searched,
    // gets its own plans under its own key, and takes the slot.
    let colliding = Request::colliding_with(&csc, &opts, &of_csr);
    let found = search(&colliding)?;
    assert_eq!(found.tier, Tier::Search);
    assert_eq!(
        found.entry.key,
        plan_cache_key(csc.program(), csc.views(), &opts)
    );
    assert_eq!(found.entry.problem, csc);
    assert_eq!(search(&colliding)?.tier, Tier::Memory);
    // The displaced problem is searched again, never served the other's.
    let again = search(&of_csr)?;
    assert_eq!(again.tier, Tier::Search);
    assert_eq!(again.entry.problem, csr);
    assert_eq!(cache.stats().misses, 3);
    Ok(())
}
