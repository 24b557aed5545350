//! `run_dense` against the executor it replaced.
//!
//! Until PR 20 the reference executor walked the program tree with a
//! `HashMap<String, i64>` of variables, looking every name up in every
//! iteration. That walker is kept here, verbatim but for one line (it
//! evaluates affine expressions through [`eval`] below, the method it
//! called being gone), as the reference for the one in the library:
//! seeded random programs × matrices in four formats × the edge shapes
//! must produce the same bits, and the failing cases the same message.
//!
//! `cargo test --release -p bernoulli-ir --test exec_reference -- --nocapture`
//! also prints what each costs per loop iteration.

use bernoulli_formats::{Bsr, Csr, Dense, Jad, SparseMatrix, Triplets};
use bernoulli_ir::{
    parse_program, run_dense, AffineExpr, ArrayDecl, ArrayKind, DenseEnv, ExecError, LhsRef, Loop,
    Node, Program, Role, Statement, ValueExpr,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The tree-walking executor of the parent commit (e10d697).
mod walker {
    use super::*;

    /// `AffineExpr::eval` as it was: panics on an unbound variable.
    fn eval(e: &AffineExpr, env: &HashMap<String, i64>) -> i64 {
        e.terms().fold(e.cst(), |acc, (v, c)| {
            let x = env
                .get(v)
                .unwrap_or_else(|| panic!("unbound variable {v:?} in affine expression"));
            acc + c * x
        })
    }

    pub fn run_dense(p: &Program, env: &mut DenseEnv) -> Result<(), ExecError> {
        // Check all declared arrays are bound and sized consistently.
        let mut ivars: HashMap<String, i64> = env.params.clone();
        for a in &p.arrays {
            match a.kind {
                ArrayKind::Vector => {
                    let v = env
                        .vectors
                        .get(&a.name)
                        .ok_or_else(|| ExecError(format!("vector {:?} not bound", a.name)))?;
                    let want = eval(&a.dims[0], &ivars);
                    if v.len() as i64 != want {
                        return Err(ExecError(format!(
                            "vector {:?} has length {}, declared {}",
                            a.name,
                            v.len(),
                            want
                        )));
                    }
                }
                ArrayKind::Matrix => {
                    let m = env
                        .matrices
                        .get(&a.name)
                        .ok_or_else(|| ExecError(format!("matrix {:?} not bound", a.name)))?;
                    let (wr, wc) = (eval(&a.dims[0], &ivars), eval(&a.dims[1], &ivars));
                    if (m.nrows() as i64, m.ncols() as i64) != (wr, wc) {
                        return Err(ExecError(format!(
                            "matrix {:?} is {}x{}, declared {}x{}",
                            a.name,
                            m.nrows(),
                            m.ncols(),
                            wr,
                            wc
                        )));
                    }
                }
            }
        }
        run_nodes(&p.body, &mut ivars, env)
    }

    fn run_nodes(
        nodes: &[Node],
        ivars: &mut HashMap<String, i64>,
        env: &mut DenseEnv,
    ) -> Result<(), ExecError> {
        for n in nodes {
            match n {
                Node::Loop(l) => {
                    let lo = eval(&l.lo, ivars);
                    let hi = eval(&l.hi, ivars);
                    for v in lo..hi {
                        ivars.insert(l.var.clone(), v);
                        run_nodes(&l.body, ivars, env)?;
                    }
                    ivars.remove(&l.var);
                }
                Node::Stmt(s) => {
                    let value = eval_value(&s.rhs, ivars, env)?;
                    write_ref(&s.lhs, value, ivars, env)?;
                }
            }
        }
        Ok(())
    }

    fn read_ref(
        r: &LhsRef,
        ivars: &HashMap<String, i64>,
        env: &DenseEnv,
    ) -> Result<f64, ExecError> {
        let idxs: Vec<i64> = r.idxs.iter().map(|e| eval(e, ivars)).collect();
        if let Some(v) = env.vectors.get(&r.array) {
            let i = idxs[0];
            if idxs.len() != 1 || i < 0 || i as usize >= v.len() {
                return Err(ExecError(format!("bad vector access {r} at {idxs:?}")));
            }
            return Ok(v[i as usize]);
        }
        if let Some(m) = env.matrices.get(&r.array) {
            if idxs.len() != 2 {
                return Err(ExecError(format!("matrix {r} needs 2 indices")));
            }
            let (i, j) = (idxs[0], idxs[1]);
            if i < 0 || j < 0 || i as usize >= m.nrows() || j as usize >= m.ncols() {
                return Err(ExecError(format!(
                    "matrix access {r} out of range at ({i},{j})"
                )));
            }
            return Ok(m.get(i as usize, j as usize));
        }
        Err(ExecError(format!("array {:?} not bound", r.array)))
    }

    fn write_ref(
        r: &LhsRef,
        value: f64,
        ivars: &HashMap<String, i64>,
        env: &mut DenseEnv,
    ) -> Result<(), ExecError> {
        let idxs: Vec<i64> = r.idxs.iter().map(|e| eval(e, ivars)).collect();
        if let Some(v) = env.vectors.get_mut(&r.array) {
            let i = idxs[0];
            if idxs.len() != 1 || i < 0 || i as usize >= v.len() {
                return Err(ExecError(format!("bad vector write {r} at {idxs:?}")));
            }
            v[i as usize] = value;
            return Ok(());
        }
        if env.matrices.contains_key(&r.array) {
            return Err(ExecError(format!(
                "matrix {:?} is read-only in the reference executor",
                r.array
            )));
        }
        Err(ExecError(format!("array {:?} not bound", r.array)))
    }

    fn eval_value(
        e: &ValueExpr,
        ivars: &HashMap<String, i64>,
        env: &DenseEnv,
    ) -> Result<f64, ExecError> {
        Ok(match e {
            ValueExpr::Const(c) => *c,
            ValueExpr::Read(r) => read_ref(r, ivars, env)?,
            ValueExpr::Add(a, b) => eval_value(a, ivars, env)? + eval_value(b, ivars, env)?,
            ValueExpr::Sub(a, b) => eval_value(a, ivars, env)? - eval_value(b, ivars, env)?,
            ValueExpr::Mul(a, b) => eval_value(a, ivars, env)? * eval_value(b, ivars, env)?,
            ValueExpr::Div(a, b) => eval_value(a, ivars, env)? / eval_value(b, ivars, env)?,
            ValueExpr::Neg(a) => -eval_value(a, ivars, env)?,
        })
    }
}

// ---- the generator -------------------------------------------------

/// What a loop variable is known to stay below, so that most generated
/// indices are in range (and some, on purpose, are not).
#[derive(Clone, Copy, PartialEq)]
enum Below {
    M,
    N,
}

struct Gen {
    rng: StdRng,
    /// Loop variables in scope and the extent each stays below.
    scope: Vec<(String, Below)>,
    /// One time in `1 / stray`, an index is pushed off by one.
    stray: u32,
}

fn var(name: &str) -> AffineExpr {
    AffineExpr::var(name)
}

impl Gen {
    fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// A variable that stays below `extent`, or the constant 0.
    fn index(&mut self, extent: Below) -> AffineExpr {
        let fits: Vec<&String> = self
            .scope
            .iter()
            .filter(|(_, b)| *b == extent)
            .map(|(v, _)| v)
            .collect();
        let mut e = match fits.len() {
            0 => AffineExpr::constant(0),
            n => var(fits[self.rng.gen_range(0..n)]),
        };
        if self.rng.gen_range(0..self.stray) == 0 {
            e.set_cst(if self.rng.gen_bool(0.5) { 1 } else { -1 });
        }
        e
    }

    fn reference(&mut self) -> LhsRef {
        let (array, idxs) = match self.pick(5) {
            0 => ("A", vec![self.index(Below::M), self.index(Below::N)]),
            1 => ("u", vec![self.index(Below::M)]),
            2 => ("v", vec![self.index(Below::N)]),
            3 => ("w", vec![&self.index(Below::M) + &self.index(Below::N)]),
            _ => ("s", vec![AffineExpr::constant(0)]),
        };
        LhsRef {
            array: array.into(),
            idxs,
        }
    }

    fn value(&mut self, depth: usize) -> ValueExpr {
        if depth == 0 || self.pick(4) == 0 {
            return match self.pick(3) {
                0 => ValueExpr::Const(self.rng.gen_range(-4..=4) as f64 * 0.5),
                _ => ValueExpr::Read(self.reference()),
            };
        }
        let op = self.pick(5);
        let a = Box::new(self.value(depth - 1));
        if op == 4 {
            return ValueExpr::Neg(a);
        }
        let b = Box::new(self.value(depth - 1));
        match op {
            0 => ValueExpr::Add(a, b),
            1 => ValueExpr::Sub(a, b),
            2 => ValueExpr::Mul(a, b),
            _ => ValueExpr::Div(a, b),
        }
    }

    fn statement(&mut self) -> Node {
        let lhs = loop {
            let r = self.reference();
            if r.array != "A" {
                break r;
            }
        };
        Node::Stmt(Statement {
            lhs,
            rhs: self.value(3),
        })
    }

    /// `for var in lo..hi`, the bounds drawn from whole extents, ranges
    /// that depend on an outer variable, empty ranges and inverted ones.
    fn a_loop(&mut self, depth: usize) -> Node {
        let name = format!("i{}", self.scope.len());
        let extent = if self.rng.gen_bool(0.5) {
            Below::M
        } else {
            Below::N
        };
        let top = var(if extent == Below::M { "M" } else { "N" });
        let outer: Option<AffineExpr> = self
            .scope
            .iter()
            .rev()
            .find(|(_, b)| *b == extent)
            .map(|(v, _)| var(v));
        let (lo, hi) = match (self.pick(8), outer) {
            (0, Some(o)) => (&o + &AffineExpr::constant(1), top),
            (1, Some(o)) => (AffineExpr::constant(0), o),
            (2, Some(o)) => (o.clone(), &o + &AffineExpr::constant(1)),
            (3, _) => (top.clone(), top),
            (4, _) => (top, AffineExpr::constant(0)),
            (5, _) => (AffineExpr::constant(1), &top - &AffineExpr::constant(1)),
            _ => (AffineExpr::constant(0), top),
        };
        self.scope.push((name.clone(), extent));
        let body = self.body(depth - 1);
        self.scope.pop();
        Node::Loop(Loop {
            var: name,
            lo,
            hi,
            body,
        })
    }

    /// An imperfect nest: statements before, between and after loops.
    fn body(&mut self, depth: usize) -> Vec<Node> {
        let mut nodes = Vec::new();
        for _ in 0..self.pick(3) {
            nodes.push(self.statement());
        }
        if depth > 0 {
            nodes.push(self.a_loop(depth));
            if self.pick(3) == 0 {
                nodes.push(self.statement());
                nodes.push(self.a_loop(depth));
            }
        }
        if nodes.is_empty() || self.pick(2) == 0 {
            nodes.push(self.statement());
        }
        nodes
    }
}

fn declare(name: &str, kind: ArrayKind, role: Role, dims: Vec<AffineExpr>) -> ArrayDecl {
    ArrayDecl {
        name: name.into(),
        kind,
        role,
        dims,
    }
}

/// A random program over `A[M][N]`, `u[M]`, `v[N]`, `w[M+N+1]`, `s[1]`.
fn program(seed: u64, stray: u32) -> Program {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        scope: Vec::new(),
        stray,
    };
    let depth = 1 + g.pick(3);
    let body = vec![g.a_loop(depth)];
    let (m, n) = (var("M"), var("N"));
    let p = Program {
        name: format!("p{seed}"),
        params: vec!["M".into(), "N".into()],
        arrays: vec![
            declare("A", ArrayKind::Matrix, Role::In, vec![m.clone(), n.clone()]),
            declare("u", ArrayKind::Vector, Role::InOut, vec![m.clone()]),
            declare("v", ArrayKind::Vector, Role::InOut, vec![n.clone()]),
            declare(
                "w",
                ArrayKind::Vector,
                Role::InOut,
                vec![&(&m + &n) + &AffineExpr::constant(1)],
            ),
            declare(
                "s",
                ArrayKind::Vector,
                Role::InOut,
                vec![AffineExpr::constant(1)],
            ),
        ],
        body,
    };
    p.validate().expect("the generator makes valid programs");
    p
}

// ---- the operands --------------------------------------------------

/// ROADMAP item 4's edge shapes, then ordinary ones.
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 4, 0), // 0×n
    (4, 0, 0), // n×0
    (0, 0, 0),
    (5, 4, 0), // nnz = 0
    (6, 6, 3), // empty rows
    (1, 1, 1),
    (4, 6, 11),
    (7, 5, 35), // full
    (8, 8, 20),
];

fn matrix(shape: (usize, usize, usize), seed: u64) -> Triplets<f64> {
    let (m, n, nnz) = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Triplets::new(m, n);
    for _ in 0..nnz {
        let (r, c) = (rng.gen_range(0..m), rng.gen_range(0..n));
        t.push(r, c, rng.gen_range(-8..=8) as f64 * 0.25);
    }
    t
}

fn formats(t: &Triplets<f64>) -> Vec<(&'static str, Box<dyn SparseMatrix>)> {
    let block = |extent: usize| {
        if extent > 0 && extent.is_multiple_of(2) {
            2
        } else {
            1
        }
    };
    vec![
        ("dense", Box::new(Dense::from_triplets(t))),
        ("csr", Box::new(Csr::from_triplets(t))),
        ("jad", Box::new(Jad::from_triplets(t))),
        (
            "bsr",
            Box::new(Bsr::from_triplets(t, block(t.nrows()), block(t.ncols()))),
        ),
    ]
}

fn env<'m>(a: &'m dyn SparseMatrix, seed: u64) -> DenseEnv<'m> {
    let (m, n) = (a.nrows(), a.ncols());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut vector = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|_| rng.gen_range(-6..=6) as f64 * 0.5)
            .collect()
    };
    DenseEnv::new()
        .param("M", m as i64)
        .param("N", n as i64)
        .matrix("A", a)
        .vector("u", vector(m))
        .vector("v", vector(n))
        .vector("w", vector(m + n + 1))
        .vector("s", vector(1))
}

/// Every vector of the environment, by name, as bits.
fn bits(env: &DenseEnv) -> Vec<(String, Vec<u64>)> {
    let mut all: Vec<(String, Vec<u64>)> = env
        .vectors
        .iter()
        .map(|(n, v)| (n.clone(), v.iter().map(|x| x.to_bits()).collect()))
        .collect();
    all.sort();
    all
}

/// Runs `p` both ways on equal environments made by `make`; the
/// results, the error text and (`same_state`) every vector's bits
/// afterwards must agree. Returns the walker's result.
fn agree<'m>(
    what: &str,
    p: &Program,
    make: impl Fn() -> DenseEnv<'m>,
    same_state: bool,
) -> Result<(), ExecError> {
    let (mut old, mut new) = (make(), make());
    let want = walker::run_dense(p, &mut old);
    let got = run_dense(p, &mut new);
    assert_eq!(got, want, "{what}\n{p}");
    assert_eq!(
        new.vectors.len(),
        make().vectors.len(),
        "{what}: a vector left the environment\n{p}"
    );
    if same_state {
        assert_eq!(bits(&new), bits(&old), "{what}\n{p}");
    }
    want
}

#[test]
fn random_programs_agree_bitwise_with_the_tree_walker() {
    let (mut ok, mut failed) = (0, 0);
    for (k, &shape) in SHAPES.iter().enumerate() {
        let t = matrix(shape, k as u64);
        for (format, a) in formats(&t) {
            for seed in 0..40u64 {
                // One index in twelve strays: about a third of the
                // programs end in an out-of-range error, the same one.
                let p = program(seed * 31 + k as u64, 12);
                let what = format!("{format} {shape:?} seed {seed}");
                match agree(&what, &p, || env(a.as_ref(), seed), true) {
                    Ok(()) => ok += 1,
                    Err(e) => {
                        assert!(
                            e.0.contains("out of range") || e.0.contains("bad vector"),
                            "{what}: {e}"
                        );
                        failed += 1;
                    }
                }
            }
        }
    }
    println!("{ok} programs ran to completion, {failed} to the same error");
    assert!(ok > 300 && failed > 100, "{ok} / {failed}");
}

#[test]
fn in_range_programs_run_to_completion() {
    // With no stray index, only an empty extent under a constant index
    // (`A[0][0]` of a 0×n matrix) can fail.
    let t = matrix((6, 9, 25), 77);
    for (format, a) in formats(&t) {
        for seed in 0..60u64 {
            let p = program(1000 + seed, u32::MAX);
            agree(format, &p, || env(a.as_ref(), seed), true)
                .unwrap_or_else(|e| panic!("{format} seed {seed}: {e}\n{p}"));
        }
    }
}

const MVM: &str = "
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
";

fn mvm_env<'m>(a: &'m dyn SparseMatrix) -> DenseEnv<'m> {
    DenseEnv::new()
        .param("M", a.nrows() as i64)
        .param("N", a.ncols() as i64)
        .matrix("A", a)
        .vector("x", (0..a.ncols()).map(|j| j as f64 + 0.5).collect())
        .vector("y", vec![0.0; a.nrows()])
}

/// The message both executors fail with.
fn message<'m>(what: &str, p: &Program, make: impl Fn() -> DenseEnv<'m>, state: bool) -> String {
    agree(what, p, make, state).expect_err(what).0
}

#[test]
fn failing_cases_fail_with_the_same_words() {
    let p = parse_program(MVM).unwrap();
    let a = &Csr::from_triplets(&matrix((4, 6, 11), 3));

    let unbound_vector = || {
        let mut e = mvm_env(a);
        e.vectors.remove("x");
        e
    };
    let m = message("unbound vector", &p, unbound_vector, true);
    assert_eq!(m, "vector \"x\" not bound");

    let unbound_matrix = || {
        let mut e = mvm_env(a);
        e.matrices.remove("A");
        e
    };
    let m = message("unbound matrix", &p, unbound_matrix, true);
    assert_eq!(m, "matrix \"A\" not bound");

    let long = || mvm_env(a).vector("y", vec![0.0; 5]);
    let m = message("wrong length", &p, long, true);
    assert_eq!(m, "vector \"y\" has length 5, declared 4");

    let other_shape = || mvm_env(a).param("N", 7).vector("x", vec![0.0; 7]);
    let m = message("wrong shape", &p, other_shape, true);
    assert_eq!(m, "matrix \"A\" is 4x6, declared 4x7");

    // An index out of range: the error of the iteration that computes
    // it, with everything earlier iterations wrote still written.
    let off_by_one = parse_program(&MVM.replace("x[j]", "x[j + i]")).unwrap();
    let m = message("vector index", &off_by_one, || mvm_env(a), true);
    assert_eq!(m, "bad vector access x[i + j] at [6]");
    let off_by_one = parse_program(&MVM.replace("A[i][j]", "A[i][j - 1]")).unwrap();
    let m = message("matrix index", &off_by_one, || mvm_env(a), true);
    assert_eq!(m, "matrix access A[i][j - 1] out of range at (0,-1)");
    let off_by_one = parse_program(&MVM.replace("y[i] =", "y[i + 3] =")).unwrap();
    let m = message("written index", &off_by_one, || mvm_env(a), true);
    assert_eq!(m, "bad vector write y[i + 3] at [4]");

    // A write to a matrix: the walker found out on reaching it, the
    // resolver finds out before anything runs, so only the words are
    // compared.
    let writes = parse_program(&MVM.replace("y[i] =", "A[i][j] =")).unwrap();
    let m = message("matrix write", &writes, || mvm_env(a), false);
    assert_eq!(m, "matrix \"A\" is read-only in the reference executor");
}

/// What the walker answered with a panic.
#[test]
fn unbound_parameters_and_bad_arity_are_typed_errors() {
    let p = parse_program(MVM).unwrap();
    let a = Csr::from_triplets(&matrix((4, 6, 11), 3));

    // A declared extent names a parameter the environment lacks.
    let mut e = mvm_env(&a);
    e.params.remove("N");
    let err = run_dense(&p, &mut e).unwrap_err();
    assert_eq!(err.0, "variable \"N\" not bound");
    assert_eq!(e.vectors.len(), 2);

    // A loop bound does (the program is not validated: `K` is nowhere).
    let mut q = p.clone();
    let Node::Loop(outer) = &mut q.body[0] else {
        panic!("mvm starts with a loop")
    };
    outer.hi = var("K");
    let err = run_dense(&q, &mut mvm_env(&a)).unwrap_err();
    assert_eq!(err.0, "variable \"K\" not bound");

    // A hand-built `x[]` and `A[i]`.
    for (array, idxs, words) in [
        ("x", vec![], "vector x needs 1 index"),
        ("A", vec![var("i")], "matrix A[i] needs 2 indices"),
    ] {
        let mut q = p.clone();
        let Node::Loop(outer) = &mut q.body[0] else {
            panic!("mvm starts with a loop")
        };
        outer.body.insert(
            0,
            Node::Stmt(Statement {
                lhs: LhsRef {
                    array: "y".into(),
                    idxs: vec![var("i")],
                },
                rhs: ValueExpr::Read(LhsRef {
                    array: array.into(),
                    idxs,
                }),
            }),
        );
        let mut e = mvm_env(&a);
        let err = run_dense(&q, &mut e).unwrap_err();
        assert_eq!(err.0, words);
        assert_eq!(e.take_vector("y"), vec![0.0; 4], "nothing ran");
    }
}

/// Not an assertion on speed: prints what an iteration of the mvm nest
/// costs in each executor, next to the cost of the `get` calls alone.
#[test]
fn cost_per_iteration() {
    let n = 300;
    let mut t = Triplets::new(n, n);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..n * 12 {
        t.push(rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_f64());
    }
    let a = Csr::from_triplets(&t);
    let p = parse_program(MVM).unwrap();
    // The fastest of five runs: one takes a few milliseconds.
    let per_iteration = |run: &dyn Fn() -> f64| {
        let once = || {
            let t0 = std::time::Instant::now();
            let y0 = run();
            (t0.elapsed().as_secs_f64() * 1e9 / (n * n) as f64, y0)
        };
        let runs = (0..5).map(|_| once());
        runs.min_by(|a, b| a.0.total_cmp(&b.0)).expect("five runs")
    };
    let (new_ns, new_y0) = per_iteration(&|| {
        let mut e = mvm_env(&a);
        run_dense(&p, &mut e).unwrap();
        e.take_vector("y")[0]
    });
    let (old_ns, old_y0) = per_iteration(&|| {
        let mut e = mvm_env(&a);
        walker::run_dense(&p, &mut e).unwrap();
        e.take_vector("y")[0]
    });
    let (get_ns, _) = per_iteration(&|| {
        let mut sum = 0.0;
        for i in 0..n {
            for j in 0..n {
                sum += a.get(i, j);
            }
        }
        std::hint::black_box(sum)
    });
    assert_eq!(new_y0.to_bits(), old_y0.to_bits());
    println!(
        "mvm {n}x{n} csr, ns per loop iteration: run_dense {new_ns:.1}, \
         tree walker {old_ns:.1}, get alone {get_ns:.1}"
    );
}
