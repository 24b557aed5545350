//! The fingerprint against the key string it stands in for: over the
//! 21 problems of the benchmark's `service_mix`, each perturbed one way
//! at a time, the two identify the same problems; what the memory tier
//! does with a match, a `NaN` and a collision; and when the table of
//! bound problems hands out a problem it bound before.

use super::*;
use crate::session::Session;
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

/// True iff two bound problems are one: the same program and views in
/// memory, not merely equal ones.
fn shared(a: &BoundProblem, b: &BoundProblem) -> bool {
    std::ptr::eq(a.program(), b.program()) && std::ptr::eq(a.views(), b.views())
}

#[test]
fn binding_an_equal_problem_again_shares_it() -> Result<(), SynthError> {
    let s = Session::new();
    let bind = |p: &Program| s.bind(p, &[("A", csr_format_view())]);
    let first = bind(&s.parse(MVM)?)?;
    // Another parse of the text, and the view built again.
    let again = bind(&s.parse(MVM)?)?;
    assert!(shared(&first, &again));
    // Another text of the program.
    let reprinted = bind(&s.parse(&first.program().to_string())?)?;
    assert!(shared(&first, &reprinted));

    // The entry of its search holds it too, and so does every kernel.
    let searched = s.compile(&first)?;
    let hit = s.compile(&again)?;
    assert!(!searched.from_cache() && hit.from_cache());
    assert!(std::ptr::eq(hit.program(), first.program()));
    assert!(std::ptr::eq(hit.views(), first.views()));
    Ok(())
}

#[test]
fn zero_and_negative_zero_are_bound_and_searched_apart() -> Result<(), SynthError> {
    let s = Session::new();
    let p = s.parse(MVM)?;
    let views = [("A", csr_format_view())];
    let plus = s.bind(&scaled(&p, 0.0), &views)?;
    let minus = s.bind(&scaled(&p, -0.0), &views)?;
    assert!(!shared(&plus, &minus) && plus != minus);
    assert!(shared(&minus, &s.bind(&scaled(&p, -0.0), &views)?));

    let (of_plus, of_minus) = (s.compile(&plus)?, s.compile(&minus)?);
    assert!(!of_plus.from_cache() && !of_minus.from_cache());
    assert_ne!(of_plus.cache_key(), of_minus.cache_key());
    let hit = s.compile(&s.bind(&scaled(&p, -0.0), &views)?)?;
    assert!(hit.from_cache());
    assert_eq!(hit.cache_key(), of_minus.cache_key());
    Ok(())
}

#[test]
fn the_ts_view_is_bound_and_searched_apart_from_the_plain_view() -> Result<(), SynthError> {
    let s = Session::new();
    let (p, matrix) = spec_for("ts");
    // The view a triangular solve binds: lower, with a full diagonal.
    let lower = || {
        let mut view = csr_format_view();
        view.bounds.push(Bound::attr_ge("r", "c"));
        view.guarantees.push(StoredGuarantee::FullDiagonal);
        view
    };
    let ts = s.bind(&p, &[(matrix, lower())])?;
    let plain = s.bind(&p, &[(matrix, csr_format_view())])?;
    assert!(!shared(&ts, &plain) && ts != plain);
    assert!(shared(&ts, &s.bind(&p, &[(matrix, lower())])?));

    let (of_ts, of_plain) = (s.compile(&ts)?, s.compile(&plain)?);
    assert!(!of_ts.from_cache() && !of_plain.from_cache());
    assert_ne!(of_ts.cache_key(), of_plain.cache_key());
    Ok(())
}

#[test]
fn a_nan_constant_program_is_never_shared() -> Result<(), SynthError> {
    let cache = PlanCache::new();
    let p = scaled(&parse_program(MVM)?, f64::NAN);
    let views = [("A", csr_format_view())];
    let first = cache.bind(&p, &views)?;
    assert!(!shared(&first, &cache.bind(&p, &views)?));
    assert!(lock(&cache.bound).is_empty());
    Ok(())
}

#[test]
fn an_invalid_bind_errors_every_time_and_keeps_nothing() -> Result<(), SynthError> {
    let cache = PlanCache::new();
    let p = parse_program(MVM)?;
    let csr = csr_format_view();
    for _ in 0..3 {
        let unknown = cache.bind(&p, &[("B", csr.clone())]);
        assert!(matches!(unknown, Err(SynthError::UnknownMatrix { .. })));
        let wrong_rank = cache.bind(&p, &[("x", csr.clone())]);
        assert!(matches!(wrong_rank, Err(SynthError::Config(_))));
    }
    assert!(lock(&cache.bound).is_empty());

    // With the valid binding kept, a wrong one it shadows still errors.
    let valid = cache.bind(&p, &[("A", csr.clone())])?;
    for _ in 0..3 {
        let shadowed = cache.bind(&p, &[("A", sparsevec_format_view()), ("A", csr.clone())]);
        assert!(matches!(shadowed, Err(SynthError::Config(_))));
    }
    assert_eq!(lock(&cache.bound).len(), 1);
    assert!(shared(&valid, &cache.bind(&p, &[("A", csr)])?));
    Ok(())
}

#[test]
fn problems_under_one_bind_fingerprint_never_serve_each_other() -> Result<(), SynthError> {
    let cache = PlanCache::new();
    let p = parse_program(MVM)?;
    let (csr, csc) = ([("A", csr_format_view())], [("A", csc_format_view())]);
    let of_csr = cache.bind(&p, &csr)?;

    // Another problem in the first one's slot is bound afresh, and
    // takes the slot.
    let of_csc = cache.bind_colliding_with(&p, &csc, &of_csr)?;
    assert_eq!(of_csc, bind_problem(&p, &csc)?);
    let kept = cache.bind_colliding_with(&p, &csc, &of_csr)?;
    assert!(shared(&of_csc, &kept));
    // The displaced problem is bound afresh, never handed the other.
    let again = cache.bind(&p, &csr)?;
    assert_eq!(again, of_csr);
    assert!(!shared(&again, &of_csr));

    // Each is searched as itself.
    let opts = SynthOptions::default();
    let search = |bound: &BoundProblem| {
        let req = Request::new(bound, &opts);
        serve(&cache, &req, |key| {
            run_search(&req, key, None, &cache, None)
        })
    };
    let (found_csr, found_csc) = (search(&again)?, search(&of_csc)?);
    assert_eq!(found_csr.entry.problem, of_csr);
    assert_eq!(found_csc.entry.problem, of_csc);
    assert_ne!(found_csr.entry.key, found_csc.entry.key);

    // Programs `==` calls equal, apart by the bits of a zero, too.
    let views = [("A", csr_format_view())];
    let plus = cache.bind(&scaled(&p, 0.0), &views)?;
    let minus = cache.bind_colliding_with(&scaled(&p, -0.0), &views, &plus)?;
    assert_ne!(minus, plus);
    assert_eq!(minus, bind_problem(&scaled(&p, -0.0), &views)?);
    Ok(())
}

#[test]
fn a_name_bound_twice_is_bound_as_its_last_binding() -> Result<(), SynthError> {
    let s = Session::new();
    let p = s.parse(MVM)?;
    let (csr, csc) = (csr_format_view(), csc_format_view());
    let last_csr = s.bind(&p, &[("A", csc.clone()), ("A", csr.clone())])?;
    let only_csr = s.bind(&p, &[("A", csr.clone())])?;
    let last_csc = s.bind(&p, &[("A", csr), ("A", csc.clone())])?;
    assert_eq!(last_csr, only_csr);
    assert_eq!(last_csc, s.bind(&p, &[("A", csc)])?);
    assert_ne!(last_csr, last_csc);

    let opts = SynthOptions::default();
    let fingerprint = |b: &BoundProblem| Request::new(b, &opts).fingerprint;
    assert_eq!(fingerprint(&last_csr), fingerprint(&only_csr));
    assert_ne!(fingerprint(&last_csr), fingerprint(&last_csc));
    // One search answers the problem however its views were listed.
    let searched = s.compile(&last_csr)?;
    let hit = s.compile(&only_csr)?;
    assert!(!searched.from_cache() && hit.from_cache());
    assert_eq!(hit.cache_key(), searched.cache_key());
    Ok(())
}

#[test]
fn the_dependence_memo_keeps_the_bound_program() -> Result<(), SynthError> {
    let cache = PlanCache::new();
    let p = parse_program(MVM)?;
    let bound = cache.bind(&p, &[("A", csr_format_view())])?;
    let opts = SynthOptions::default();
    let req = Request::new(&bound, &opts);
    serve(&cache, &req, |key| {
        run_search(&req, key, None, &cache, None)
    })?;
    {
        let deps = lock(&cache.deps);
        assert_eq!(deps.len(), 1);
        assert!(deps
            .values()
            .all(|(kept, _)| Arc::ptr_eq(kept, bound.shared_program())));
    }

    // An unbound program is copied once, when the memo keeps it.
    let other = scaled(&p, 2.0);
    let copies = std::cell::Cell::new(0);
    for _ in 0..3 {
        let copy = || {
            copies.set(copies.get() + 1);
            Arc::new(other.clone())
        };
        assert!(!cache.deps(&other, copy, None).is_empty());
    }
    assert_eq!((copies.get(), cache.stats().analyses), (1, 2));
    Ok(())
}
