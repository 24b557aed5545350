//! `run_dense` against the executor it replaced.
//!
//! Until PR 20 the reference executor walked the program tree with a
//! `HashMap<String, i64>` of variables, looking every name up in every
//! iteration. That walker is kept here, verbatim but for one line (it
//! evaluates affine expressions through [`eval`] below, the method it
//! called being gone), as the reference for the one in the library:
//! seeded random programs × the edge shapes, each matrix in every layout
//! that holds it and dense, must produce the same bits, and the failing
//! cases the same message. The walker reads a matrix through its `get`,
//! the executor through its own copy, so this also checks the
//! executor's reads against every layout's lookup. Square programs,
//! every loop below one extent, also reach the read whose two indices
//! move with one loop, and the update loops the executor runs whole;
//! some of them write a cell that does not move and read the vector
//! they write, which decides whether such a loop holds the cell in a
//! local and whether it reads a cell once.
//!
//! `cargo test --release -p bernoulli-ir --test exec_reference -- --nocapture`
//! also prints what each costs per loop iteration.

use bernoulli_formats::{Csr, Dense, SparseMatrix, Triplets, LAYOUTS};
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
    /// `A` is `M`×`M` and every loop stays below `M`; half of the
    /// innermost loops are one update statement.
    square: bool,
    /// An update writes `u`, half the time at a cell that does not move
    /// with its loop, and each read of its product is, half the time, a
    /// read of `u`.
    fixed: bool,
    /// A constant is, one time in eight, `-0.0`, and one in eleven `±∞`
    /// or NaN, and a read
    /// of a product is, half the time, one of `A`.
    odd: bool,
    /// An index's variable has, one time in three, the coefficient −1
    /// and one in three 2 ([`Gen::stride`]), the written one too.
    strides: bool,
    /// An update reads the cell it writes, and its product is a line of
    /// `A` at step 1 ([`Gen::line`]) and a vector read: the shape whose
    /// zero runs a whole loop skips.
    lines: bool,
}

fn var(name: &str) -> AffineExpr {
    AffineExpr::var(name)
}

impl Gen {
    /// A generator seeded with `seed`, every flag off.
    fn new(seed: u64, stray: u32) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            scope: Vec::new(),
            stray,
            square: false,
            fixed: false,
            odd: false,
            strides: false,
            lines: false,
        }
    }

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
        if !fits.is_empty() {
            e = self.stride(e, extent);
        }
        if self.rng.gen_range(0..self.stray) == 0 {
            e.set_cst(if self.rng.gen_bool(0.5) { 1 } else { -1 });
        }
        e
    }

    /// `v`, a variable below `extent`, and with `strides` one time in
    /// three `M - 1 - v` or `N - 1 - v` (which stays in range), one in
    /// three `2v`.
    fn stride(&mut self, v: AffineExpr, extent: Below) -> AffineExpr {
        if !self.strides {
            return v;
        }
        let top = var(if extent == Below::M { "M" } else { "N" });
        match self.pick(3) {
            0 => &(&top - &AffineExpr::constant(1)) - &v,
            1 => &v + &v,
            _ => v,
        }
    }

    fn reference(&mut self) -> LhsRef {
        let (array, idxs) = match self.pick(5) {
            0 => {
                let column = if self.square { Below::M } else { Below::N };
                ("A", vec![self.index(Below::M), self.index(column)])
            }
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
                0 => ValueExpr::Const(self.constant()),
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

    fn constant(&mut self) -> f64 {
        let c = self.rng.gen_range(-4..=4) as f64 * 0.5;
        match self.odd.then(|| self.pick(32)) {
            Some(0..=3) => -0.0,
            Some(4) => f64::INFINITY,
            Some(5) => f64::NEG_INFINITY,
            Some(6) => f64::NAN,
            _ => c,
        }
    }

    fn vector_reference(&mut self) -> LhsRef {
        loop {
            let r = self.reference();
            if r.array != "A" {
                break r;
            }
        }
    }

    fn statement(&mut self) -> Node {
        Node::Stmt(Statement {
            lhs: self.vector_reference(),
            rhs: self.value(3),
        })
    }

    /// A read of `array`, its index as [`Gen::reference`] makes them.
    fn reference_to(&mut self, array: &str) -> LhsRef {
        loop {
            let r = self.reference();
            if r.array == array {
                break r;
            }
        }
    }

    /// What a `fixed` update writes: `u` at the innermost variable (with
    /// `strides`, at a step [`Gen::stride`] draws), or at an index free
    /// of it (an outer variable or a constant). At step 2 it writes `w`
    /// instead: `w` holds `M + N + 1` cells, so a loop below `M` of a
    /// square program (`N = M`) never leaves it, where `u[2v]` leaves
    /// `u` before the end of every range that starts at 0.
    fn written(&mut self) -> LhsRef {
        let inner = self.scope.pop().expect("an update is inside a loop");
        let lhs = match self.rng.gen_bool(0.5) {
            true => self.reference_to("u"),
            false => {
                let idx = self.stride(var(&inner.0), inner.1);
                let doubled = idx.terms().any(|(_, c)| c == 2);
                LhsRef {
                    array: if doubled { "w" } else { "u" }.into(),
                    idxs: vec![idx],
                }
            }
        };
        self.scope.push(inner);
        lhs
    }

    /// A read of a product: with `fixed`, half the time one of `u`, at
    /// the innermost variable, an outer one or a constant.
    fn factor(&mut self) -> LhsRef {
        if self.odd && self.rng.gen_bool(0.5) {
            self.reference_to("A")
        } else if self.fixed && self.rng.gen_bool(0.5) {
            self.reference_to("u")
        } else {
            self.reference()
        }
    }

    /// A read of `A` whose row or column index is the innermost variable
    /// and whose other index is free of it.
    fn line(&mut self) -> LhsRef {
        let inner = self.scope.pop().expect("an update is inside a loop");
        let other = self.index(Below::M);
        let idxs = match self.rng.gen_bool(0.5) {
            true => vec![other, var(&inner.0)],
            false => vec![var(&inner.0), other],
        };
        self.scope.push(inner);
        LhsRef {
            array: "A".into(),
            idxs,
        }
    }

    /// `v[a] = r0 ± r1 * r2`, `r0` a vector read (half the time the
    /// written one, always with `lines`): the update that a loop around
    /// it alone runs whole.
    fn update(&mut self) -> Node {
        let lhs = if self.fixed {
            self.written()
        } else {
            self.vector_reference()
        };
        let r0 = if self.lines || self.rng.gen_bool(0.5) {
            lhs.clone()
        } else {
            self.vector_reference()
        };
        let (r1, r2) = if self.lines {
            let (line, other) = (self.line(), self.vector_reference());
            match self.rng.gen_bool(0.5) {
                true => (line, other),
                false => (other, line),
            }
        } else {
            (self.factor(), self.factor())
        };
        let read = |r| Box::new(ValueExpr::Read(r));
        let product = Box::new(ValueExpr::Mul(read(r1), read(r2)));
        let rhs = if self.rng.gen_bool(0.5) {
            ValueExpr::Add(read(r0), product)
        } else {
            ValueExpr::Sub(read(r0), product)
        };
        Node::Stmt(Statement { lhs, rhs })
    }

    /// `for var in lo..hi`, the bounds drawn from whole extents, ranges
    /// that depend on an outer variable, empty ranges and inverted ones.
    fn a_loop(&mut self, depth: usize) -> Node {
        let name = format!("i{}", self.scope.len());
        let extent = if self.square || self.rng.gen_bool(0.5) {
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
        if self.square && depth == 0 && (self.odd || self.rng.gen_bool(0.5)) {
            return vec![self.update()];
        }
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
    program_over(seed, stray, false)
}

/// [`program`], or with `square` one over `A[M][M]` whose loops all stay
/// below `M`, half of its innermost loops one update statement.
fn program_over(seed: u64, stray: u32, square: bool) -> Program {
    program_with(seed, stray, square, false)
}

/// [`program_over`], with `fixed` updates that write a cell which does
/// not move with their loop and read the vector they write.
fn program_with(seed: u64, stray: u32, square: bool, fixed: bool) -> Program {
    program_of(seed, stray, square, fixed, false)
}

/// [`program_with`], with `odd` constants.
fn program_of(seed: u64, stray: u32, square: bool, fixed: bool, odd: bool) -> Program {
    let g = Gen {
        square,
        fixed,
        odd,
        ..Gen::new(seed, stray)
    };
    program_by(seed, g)
}

/// A random program as `g` draws it, named after `seed`.
fn program_by(seed: u64, mut g: Gen) -> Program {
    let square = g.square;
    let depth = 1 + g.pick(3);
    let body = vec![g.a_loop(depth)];
    let (m, n) = (var("M"), var("N"));
    let p = Program {
        name: format!("p{seed}"),
        params: vec!["M".into(), "N".into()],
        arrays: vec![
            declare(
                "A",
                ArrayKind::Matrix,
                Role::In,
                vec![m.clone(), if square { m.clone() } else { n.clone() }],
            ),
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

/// The case's matrix in every layout that holds it (a typed refusal,
/// such as a skyline's of a matrix that is no lower triangle, is
/// skipped), and dense. The walker reads each through its `get`, the
/// executor through its own copy.
fn formats(t: &Triplets<f64>) -> Vec<(&'static str, Box<dyn SparseMatrix>)> {
    let block = |extent: usize| {
        if extent > 0 && extent.is_multiple_of(2) {
            2
        } else {
            1
        }
    };
    let shape = (block(t.nrows()), block(t.ncols()));
    let layouts = LAYOUTS.iter().filter_map(|layout| {
        let a = (layout.from_triplets)(t, Some(shape)).ok()?;
        Some((layout.name, a as Box<dyn SparseMatrix>))
    });
    let dense: Box<dyn SparseMatrix> = Box::new(Dense::from_triplets(t));
    std::iter::once(("dense", dense)).chain(layouts).collect()
}

/// [`matrix`] whose entries are, half the time, a zero of either sign,
/// and where `infinite`, one time in eight, `∞` or NaN.
fn odd_matrix(shape: (usize, usize, usize), seed: u64, infinite: bool) -> Triplets<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0dd);
    let t = matrix(shape, seed);
    let mut odd = Triplets::new(t.nrows(), t.ncols());
    for &(r, c, v) in t.entries() {
        let v = match rng.gen_range(0..16) {
            0..=3 => 0.0,
            4..=7 => -0.0,
            8 if infinite => f64::INFINITY,
            9 if infinite => f64::NAN,
            _ => v,
        };
        odd.push(r as usize, c as usize, v);
    }
    odd
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

/// [`env`] whose vectors also hold, each by its own draw, `-0.0` in a
/// half of their cells, or one `∞`, `-∞` or NaN, or both, or neither.
fn odd_env<'m>(a: &'m dyn SparseMatrix, seed: u64) -> DenseEnv<'m> {
    let mut env = env(a, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0dd);
    let mut names: Vec<String> = env.vectors.keys().cloned().collect();
    names.sort();
    for name in names {
        let v = env.vectors.get_mut(&name).expect("a bound vector");
        if rng.gen_bool(0.5) {
            v.iter_mut()
                .filter(|_| rng.gen_bool(0.5))
                .for_each(|x| *x = -0.0);
        }
        let odd = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
        if let Some(x) = rng.gen_bool(0.5).then(|| rng.gen_range(0..v.len().max(1))) {
            v.get_mut(x).into_iter().for_each(|x| *x = odd);
        }
    }
    env
}

/// Every vector of the environment, by name, as bits; every NaN as one
/// pattern. Rust leaves the sign and payload of a NaN that arithmetic
/// makes from NaN operands unspecified, and which operand's NaN an
/// `a + b` or `a * b` of two NaNs returns is the compiler's choice of
/// register order: two evaluators that compute the same operations
/// may differ there and nowhere else.
fn bits(env: &DenseEnv) -> Vec<(String, Vec<u64>)> {
    let bits = |x: &f64| if x.is_nan() { f64::NAN } else { *x }.to_bits();
    let mut all: Vec<(String, Vec<u64>)> = env
        .vectors
        .iter()
        .map(|(n, v)| (n.clone(), v.iter().map(bits).collect()))
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

/// Square operands for [`program_over`]'s square programs.
const SQUARE: &[(usize, usize, usize)] = &[
    (0, 0, 0),
    (1, 1, 1),
    (6, 6, 3),  // empty rows
    (5, 5, 25), // full
    (8, 8, 20),
];

/// Square matrices and every loop below `M`: a matrix read may have both
/// indices move with the innermost loop (the searched read), as well as
/// one (a row or a column line). About half of the innermost loops are
/// one update `v[a] = r0 ± r1 * r2`, which `run_dense` runs whole unless
/// an index leaves its range at an end of the loop's range; the written
/// vector is read in the same update half the time.
#[test]
fn square_programs_with_update_loops_agree_bitwise_with_the_tree_walker() {
    let (mut ok, mut failed) = (0, 0);
    for (k, &shape) in SQUARE.iter().enumerate() {
        let t = matrix(shape, 100 + k as u64);
        for (format, a) in formats(&t) {
            for seed in 0..30u64 {
                let p = program_over(seed * 37 + k as u64, 12, true);
                let what = format!("square {format} {shape:?} seed {seed}");
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
    println!("{ok} square programs ran to completion, {failed} to the same error");
    assert!(ok > 300 && failed > 100, "{ok} / {failed}");
}

/// Square programs whose update loops write, half the time, a cell
/// that does not move with the loop (which a loop may hold in a local),
/// and read the vector they write at the moving variable, at the written
/// cell, or at a cell outside what the loop writes (which a loop may read
/// once): each of those reads must keep the loop from holding or from
/// hoisting exactly where the tree's result would differ.
#[test]
fn updates_that_read_the_vector_they_write_agree_bitwise_with_the_tree_walker() {
    let (mut ok, mut failed) = (0, 0);
    for (k, &shape) in SQUARE.iter().enumerate() {
        let t = matrix(shape, 200 + k as u64);
        for (format, a) in formats(&t) {
            for seed in 0..30u64 {
                let p = program_with(seed * 43 + k as u64, 12, true, true);
                let what = format!("fixed {format} {shape:?} seed {seed}");
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
    println!("{ok} programs with fixed writes ran to completion, {failed} to the same error");
    assert!(ok > 300 && failed > 100, "{ok} / {failed}");
}

/// The same programs as above, `-0.0`, `±∞` and NaN in their constants,
/// their vectors and their matrices: a whole loop that skips the zero
/// runs of a line must do so exactly where the tree's arithmetic leaves
/// the written cells as they are, and an update may start from a
/// `-0.0` it holds.
#[test]
fn signed_zeros_infinities_and_nans_agree_bitwise_with_the_tree_walker() {
    let (mut ok, mut failed) = (0, 0);
    let shapes = SQUARE.iter().chain(&[(12, 12, 30), (10, 10, 4)]);
    for (k, (&shape, infinite)) in shapes.flat_map(|s| [(s, false), (s, true)]).enumerate() {
        let t = odd_matrix(shape, 300 + k as u64, infinite);
        for (format, a) in formats(&t) {
            for seed in 0..30u64 {
                let p = program_of(seed * 47 + k as u64, 12, true, true, true);
                let what = format!("odd {format} {shape:?} seed {seed}");
                match agree(&what, &p, || odd_env(a.as_ref(), seed), true) {
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
    println!("{ok} programs over odd values ran to completion, {failed} to the same error");
    assert!(ok > 300 && failed > 100, "{ok} / {failed}");
}

/// Odd-valued square programs whose every update is one a whole loop
/// may skip the zero runs of: `u[a] = u[a] ± A-line * vector` or the
/// factors the other way round, the written cell one that does not
/// move or one that steps with the line. Each guard of the skip (a
/// non-finite other factor, a `-0.0` in the written cell or the
/// written vector) and the visit of every stored zero decides cases
/// here that the tree walker computes cell by cell.
#[test]
fn skipped_zero_runs_agree_bitwise_with_the_tree_walker() {
    let (mut ok, mut failed) = (0, 0);
    let shapes = SQUARE.iter().chain(&[(12, 12, 30), (10, 10, 4)]);
    for (k, (&shape, infinite)) in shapes.flat_map(|s| [(s, false), (s, true)]).enumerate() {
        let t = odd_matrix(shape, 500 + k as u64, infinite);
        for (format, a) in formats(&t) {
            for seed in 0..30u64 {
                let s = seed * 59 + k as u64;
                let g = Gen {
                    square: true,
                    fixed: true,
                    odd: true,
                    lines: true,
                    ..Gen::new(s, 12)
                };
                let p = program_by(s, g);
                let what = format!("lines {format} {shape:?} seed {seed}");
                match agree(&what, &p, || odd_env(a.as_ref(), seed), true) {
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
    println!("{ok} programs of skippable updates ran to completion, {failed} to the same error");
    assert!(ok > 300 && failed > 100, "{ok} / {failed}");
}

/// Square programs with fixed writes whose indices step by −1 and by 2
/// as well as by 0 and 1: a whole loop's index that wraps as it steps
/// down, a read that strides, and a write whose cells are neither one
/// nor a run, each against the tree walker.
#[test]
fn strided_indices_agree_bitwise_with_the_tree_walker() {
    let (mut ok, mut failed) = (0, 0);
    for (k, &shape) in SQUARE.iter().enumerate() {
        let t = matrix(shape, 400 + k as u64);
        for (format, a) in formats(&t) {
            for seed in 0..30u64 {
                let s = seed * 53 + k as u64;
                let g = Gen {
                    square: true,
                    fixed: true,
                    strides: true,
                    ..Gen::new(s, 12)
                };
                let p = program_by(s, g);
                let what = format!("strided {format} {shape:?} seed {seed}");
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
    println!("{ok} programs with strided indices ran to completion, {failed} to the same error");
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
/// costs in each executor, next to the cost of the `get` calls alone,
/// and the median over rounds of `run_dense` ÷ `get alone` (CI's gate
/// on the dense oracle reads it). The three are timed in turn within
/// each round, so a change of the host's speed between rounds moves
/// every ratio alike, and `get` is called through `&dyn SparseMatrix`,
/// as an executor reading a bound matrix would call it.
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
    let ns_per_iteration = |run: &dyn Fn() -> f64| {
        let t0 = std::time::Instant::now();
        let y0 = run();
        (t0.elapsed().as_secs_f64() * 1e9 / (n * n) as f64, y0)
    };
    let dense = || {
        let mut e = mvm_env(&a);
        run_dense(&p, &mut e).unwrap();
        e.take_vector("y")[0]
    };
    let walk = || {
        let mut e = mvm_env(&a);
        walker::run_dense(&p, &mut e).unwrap();
        e.take_vector("y")[0]
    };
    let stored: &dyn SparseMatrix = std::hint::black_box(&a);
    let get = || {
        let mut sum = 0.0;
        for i in 0..n {
            for j in 0..n {
                sum += stored.get(i, j);
            }
        }
        std::hint::black_box(sum)
    };
    // One round takes a few milliseconds a side in a release build.
    let rounds: Vec<[f64; 3]> = (0..11)
        .map(|_| {
            let (new_ns, new_y0) = ns_per_iteration(&dense);
            let (old_ns, old_y0) = ns_per_iteration(&walk);
            assert_eq!(new_y0.to_bits(), old_y0.to_bits());
            [new_ns, old_ns, ns_per_iteration(&get).0]
        })
        .collect();
    let fastest = |k: usize| rounds.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min);
    let mut ratios: Vec<f64> = rounds.iter().map(|r| r[0] / r[2]).collect();
    ratios.sort_by(f64::total_cmp);
    println!(
        "mvm {n}x{n} csr, ns per loop iteration: run_dense {:.1}, tree walker {:.1}, \
         get alone {:.1}; run_dense / get alone, median of {} rounds {:.2}",
        fastest(0),
        fastest(1),
        fastest(2),
        ratios.len(),
        ratios[ratios.len() / 2]
    );
}
