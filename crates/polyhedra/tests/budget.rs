//! Budgeted polyhedral decisions: the [`Budget`] of a [`Cx`] bounds the
//! worst-case blowup of Fourier–Motzkin elimination, exhaustion
//! surfaces as a typed [`PolyError::BudgetExhausted`], and the
//! infallible entry points degrade *conservatively* (reject, never
//! accept) when the budget is spent.

use bernoulli_polyhedra::{
    Budget, BudgetError, CancelToken, Cx, LinExpr, PolyCaches, PolyError, System,
};

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("x{i}")).collect()
}

/// A dense difference system: `|x_i - x_j| <= 10` for every pair plus
/// box bounds. Eliminating variables from this keeps the constraint
/// count quadratic at every step — a worst-case-ish FM workload that is
/// still fast unbudgeted at this size.
fn adversarial(nvars: usize) -> System {
    let mut s = System::new(names(nvars));
    for i in 0..nvars {
        s.add_bounds(i, 0, 100);
    }
    for i in 0..nvars {
        for j in (i + 1)..nvars {
            let xi = LinExpr::var(nvars, i);
            let xj = LinExpr::var(nvars, j);
            let ten = LinExpr::constant(nvars, 10);
            s.add_ge(&(&xi + &ten), &xj); // x_j - x_i <= 10
            s.add_ge(&(&xj + &ten), &xi); // x_i - x_j <= 10
        }
    }
    s
}

#[test]
fn tiny_op_budget_trips_with_typed_error() {
    let memo = PolyCaches::new();
    let sys = adversarial(8);

    let budget = Budget::unlimited().with_max_ops(200);
    let cx = Cx::new(&memo).with_budget(Some(&budget));
    match sys.try_is_empty(cx) {
        Err(PolyError::BudgetExhausted(BudgetError::Ops { used, limit })) => {
            assert_eq!(limit, 200);
            assert!(used > limit, "used {used} must exceed limit {limit}");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    // Sticky: later decisions under the same budget fail immediately
    // without burning more work.
    let before = budget.ops_used();
    assert!(sys.try_is_empty(cx).is_err());
    assert!(budget.ops_used() <= before + 1);
}

#[test]
fn infallible_entry_points_degrade_conservatively() {
    let memo = PolyCaches::new();
    // This system is *contradictory* (x0 in [5,3]), but the budget is
    // far too small to prove it. The conservative answers must all be
    // the rejecting ones: "not known empty", "implication not proven".
    let mut sys = adversarial(8);
    sys.add_bounds(0, 5, 3);

    let budget = Budget::unlimited().with_max_ops(50);
    let cx = Cx::new(&memo).with_budget(Some(&budget));
    assert!(!sys.is_empty(cx), "spent budget must degrade to non-empty");
    let c = bernoulli_polyhedra::Constraint::ge0(LinExpr::var(8, 0));
    assert!(
        !sys.implies(cx, &c),
        "spent budget must degrade to not-implied"
    );
}

#[test]
fn unbudgeted_decision_is_unaffected() {
    let memo = PolyCaches::new();
    let cx = Cx::new(&memo);
    let sys = adversarial(8);
    assert!(!sys.try_is_empty(cx).unwrap());
    let mut contra = adversarial(6);
    contra.add_bounds(0, 5, 3);
    assert!(contra.try_is_empty(cx).unwrap());
}

#[test]
fn cancellation_aborts_elimination() {
    let memo = PolyCaches::new();
    let tok = CancelToken::new();
    tok.cancel(); // cancelled before the work even starts
    let budget = Budget::unlimited().with_cancel(tok);
    let sys = adversarial(8);
    match sys.try_is_empty(Cx::new(&memo).with_budget(Some(&budget))) {
        Err(PolyError::BudgetExhausted(BudgetError::Cancelled)) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn memo_hits_are_served_after_exhaustion() {
    let memo = PolyCaches::new();
    let sys = adversarial(6);
    // Warm the memo without any budget...
    assert!(!sys.try_is_empty(Cx::new(&memo)).unwrap());
    // ...then ask again under an already-exhausted budget: the cached
    // proof costs nothing and must still be served.
    let budget = Budget::unlimited().with_max_ops(1);
    budget.starve();
    assert!(!sys
        .try_is_empty(Cx::new(&memo).with_budget(Some(&budget)))
        .unwrap());
}
