//! The reference dense executor.
//!
//! Runs a [`Program`] literally, every matrix read as the dense matrix
//! its [`SparseMatrix::get`] describes. This is the semantics the
//! synthesized sparse code must reproduce — every integration test
//! compares a plan's output against this executor.
//!
//! A run lowers the program once, before anything executes: names
//! become frame slots and table indices, each index expression the
//! cheapest [`SlotExpr`] form that states it, each matrix's extents are
//! read once, and each right-hand side becomes a tree of closures that
//! returns a plain `f64`. A read that faults (out of range, or index
//! arithmetic past `i64`) records the first fault of its statement in
//! one slot, which the statement checks before it writes; so the error
//! and what earlier iterations wrote are those of an evaluator that
//! stopped at the fault.
//!
//! A matrix is not asked for its cells. The run copies each matrix it
//! reads once, from [`SparseMatrix::entries`], into the orders its reads
//! need: a row order (columns ascending in a row) where one sweeps rows
//! or searches, a column order where one sweeps columns. Entries that
//! ascend by row and then column, as every stored layout's do, make the
//! row order in one counting pass. Each read site reads that copy in
//! the way its loop nest sweeps it: through a dense
//! row line when only its column index moves with the innermost loop
//! around it (or neither index does), through a dense column line when
//! only its row index moves, and by a binary search in the row order
//! when both move. A line is refilled when its row or column changes.
//! A read returns the bits `get` returns: stored `-0.0` and NaN as
//! stored, `+0.0` where nothing is.
//!
//! An innermost loop whose body is one update `v[a] = r0 ± r1 * r2`,
//! `r0` a vector read and `r1`, `r2` each a vector or a matrix read (the
//! inner loops of mvm, mvmᵀ, the triangular solve and a dot product),
//! runs its whole range as one plain loop. Before it starts, each index
//! is evaluated at both ends of the range. An affine index that is in
//! range and free of overflow at both ends is so at every iteration
//! between them, and so is every partial sum of its arithmetic. Where
//! every index passes, each line the loop reads is filled once (its line
//! index does not move with the loop), each index becomes a position and
//! a step, its coefficient of the loop variable, and one loop reads each
//! operand at its position in every iteration, a searched read by a
//! search. Where the write and `r0` are one cell that does not move and
//! neither `r1` nor `r2` reads the written vector (mvm, spdot), the
//! cell's value is held in a local, written once at the end. The
//! operations and their order are the tree's. Where an index fails,
//! the loop runs iteration by iteration through the tree, so its fault
//! and what it wrote before are the tree's.
//!
//! Such a loop whose write and `r0` are one cell in each iteration (held,
//! or stepping by 1: mvm, mvmᵀ, ts, spdot), and one of whose factors is
//! a dense line read at step 1, visits only the line's stored cells where
//! that is exact. Between two stored cells lies a *zero run*: iterations
//! in which the line reads `+0.0`, so each computes `w ± (+0.0 × c)` into
//! the cell `w` it reads, `c` the other factor. Where `c` is finite the
//! product is a zero, and adding a zero of either sign, or taking one
//! away, leaves every `w` as it is but `-0.0`, which `+0.0` turns into
//! `+0.0`; a NaN or an infinite `c` makes a NaN. So a zero run is
//! skipped where every `c` the loop reads is finite (one cell that does
//! not move and that the loop does not write, as ts's `b[j]` under
//! `i in j+1..N`, or a vector the loop does not write and that holds no
//! NaN or infinity) and no cell it would write holds `-0.0` (the held
//! value, or the written vector's count, which every write of the run
//! keeps); otherwise it runs as before. A stored cell, a stored zero too, is
//! always visited. This is what makes the oracle's cost follow the
//! stored entries rather than the M × N cells.
//!
//! What the oracle shares with the code it checks: its copy of a matrix
//! comes from [`SparseMatrix::entries`], which for every stored layout is
//! the walk `leveled!` derives over `bernoulli_formats`' one iteration
//! per level kind (`iterate.rs`), the iteration the plan interpreter's
//! cursor runs too. A wrong iteration there would reach the oracle and
//! the interpreter alike. So some witnesses read a matrix another way,
//! and stay independent of the oracle: the tree walker of
//! `tests/exec_reference.rs`, which reads every cell through `get` (the
//! dense lookup over `search.rs`); `tests/dense_reads.rs`, which holds
//! every read of the oracle to `get`, bit for bit;
//! `formats/tests/walk_hash.rs`, whose hashes of every walk were recorded
//! before the walk was derived; and the hand-written CSR kernels of
//! `blas::handwritten`, which `tests/oracle_scale.rs` (at the workspace
//! root) holds the oracle to, bit for bit.

use crate::ast::*;
use crate::expr::{AffineExpr, SlotExpr};
use bernoulli_formats::SparseMatrix;
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::rc::Rc;

/// Execution environment: parameter values, dense vectors, and matrices
/// (any [`SparseMatrix`] implementor — including genuinely dense ones).
#[derive(Default)]
pub struct DenseEnv<'m> {
    pub params: HashMap<String, i64>,
    pub vectors: HashMap<String, Vec<f64>>,
    pub matrices: HashMap<String, &'m dyn SparseMatrix>,
}

impl<'m> DenseEnv<'m> {
    /// Creates an empty environment.
    pub fn new() -> DenseEnv<'m> {
        DenseEnv::default()
    }

    /// Binds a size parameter.
    pub fn param(mut self, name: &str, v: i64) -> Self {
        self.params.insert(name.to_string(), v);
        self
    }

    /// Binds a dense vector (moved in; fetch results with
    /// [`DenseEnv::take_vector`]).
    pub fn vector(mut self, name: &str, v: Vec<f64>) -> Self {
        self.vectors.insert(name.to_string(), v);
        self
    }

    /// Binds a matrix by reference.
    pub fn matrix(mut self, name: &str, m: &'m dyn SparseMatrix) -> Self {
        self.matrices.insert(name.to_string(), m);
        self
    }

    /// Removes and returns a vector (typically an output).
    ///
    /// # Panics
    /// Panics if the vector was never bound (or already taken); use
    /// [`DenseEnv::try_take_vector`] to recover instead.
    pub fn take_vector(&mut self, name: &str) -> Vec<f64> {
        match self.try_take_vector(name) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Removes and returns a vector, reporting an unbound name as an
    /// [`ExecError`] instead of panicking.
    pub fn try_take_vector(&mut self, name: &str) -> Result<Vec<f64>, ExecError> {
        self.vectors
            .remove(name)
            .ok_or_else(|| ExecError(format!("vector {name:?} not bound")))
    }
}

/// Errors surfaced by the executor.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// Runs the program to completion against the environment.
///
/// Matrix writes are not supported (the BLAS kernels of the paper never
/// write into a sparse operand; results land in dense vectors).
///
/// Names are resolved once, before anything runs: parameters and loop
/// variables become slots of one integer frame, every reference knows
/// its matrix or its vector's index in a table of the bound ones. So
/// an unbound name, a reference of the wrong arity or a write to a
/// matrix is an error even when the statement would never execute; an
/// index out of range, or one whose arithmetic overflows `i64`, is an
/// error from the iteration that computes it, and what earlier
/// iterations wrote stays written.
pub fn run_dense(p: &Program, env: &mut DenseEnv) -> Result<(), ExecError> {
    let (scope, mut frame): (Vec<&str>, Vec<i64>) =
        env.params.iter().map(|(n, v)| (n.as_str(), *v)).unzip();
    let (vector_names, vectors): (Vec<&str>, Vec<&[Cell<f64>]>) = env
        .vectors
        .iter_mut()
        .map(|(n, v)| (n.as_str(), Cell::from_mut(&mut v[..]).as_slice_of_cells()))
        .unzip();
    let mut names = Names {
        params: scope.len(),
        depth: scope.len(),
        scope,
        vectors: vector_names,
        matrices: &env.matrices,
        copies: HashMap::new(),
    };

    // Check all declared arrays are bound and sized consistently.
    for a in &p.arrays {
        let extent = |k: usize| {
            let e = &a.dims[k];
            let overflow = || ExecError(format!("extent {e} of {:?} overflows", a.name));
            names.expr(e)?.eval(&frame).ok_or_else(overflow)
        };
        match a.kind {
            ArrayKind::Vector => {
                let k = position(&names.vectors, &a.name)
                    .ok_or_else(|| ExecError(format!("vector {:?} not bound", a.name)))?;
                let (have, want) = (vectors[k].len(), extent(0)?);
                if have as i64 != want {
                    return Err(ExecError(format!(
                        "vector {:?} has length {have}, declared {want}",
                        a.name
                    )));
                }
            }
            ArrayKind::Matrix => {
                let m = names
                    .matrices
                    .get(&a.name)
                    .ok_or_else(|| ExecError(format!("matrix {:?} not bound", a.name)))?;
                let (wr, wc) = (extent(0)?, extent(1)?);
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

    let ops = names.nodes(&p.body)?;
    frame.resize(names.depth, 0);
    // Free the copies' entries: the run reads only their orders.
    drop(names);
    let mut state = State {
        frame,
        tallies: vectors.iter().map(|v| Tally::of(v)).collect(),
        vectors,
        fault: Cell::new(None),
    };
    // A run that stops leaves its error in the fault slot.
    let _ = ops.iter().try_for_each(|op| op.run(&mut state));
    state.fault.into_inner().map_or(Ok(()), Err)
}

/// The last binding of a name wins.
fn position(names: &[&str], name: &str) -> Option<usize> {
    names.iter().rposition(|n| *n == name)
}

/// A right-hand side, lowered: a tree of closures, one per node, that
/// returns the value without a `Result` per node. A read that faults
/// records its error in the state's fault slot and reads 0.
type Value<'a> = Box<dyn Fn(&State<'_>) -> f64 + 'a>;

/// A loop or a statement with every name in it resolved and its
/// right-hand side lowered.
enum Op<'a> {
    Loop {
        l: &'a Loop,
        slot: usize,
        lo: SlotExpr,
        hi: SlotExpr,
        body: Vec<Op<'a>>,
        /// The loop lowered whole, where its body is one update.
        whole: Option<Box<Whole>>,
    },
    /// `vectors[to][at] = value`; `lhs` words the error messages.
    Assign {
        lhs: &'a LhsRef,
        to: usize,
        at: SlotExpr,
        value: Value<'a>,
    },
}

/// An array reference that knows its operand and, by its shape, its
/// arity.
enum Access<'a> {
    Vector(usize, SlotExpr),
    Matrix(&'a dyn SparseMatrix, SlotExpr, SlotExpr),
}

/// What names mean while a program is being resolved.
struct Names<'a> {
    /// Frame slot → name: the parameters, then the loop variables in
    /// scope.
    scope: Vec<&'a str>,
    /// How many parameters open the scope.
    params: usize,
    /// The deepest the scope got: the frame's length.
    depth: usize,
    vectors: Vec<&'a str>,
    matrices: &'a HashMap<String, &'a dyn SparseMatrix>,
    /// The copy of each matrix read so far, by name.
    copies: HashMap<&'a str, Copied>,
}

impl<'a> Names<'a> {
    fn expr(&self, e: &AffineExpr) -> Result<SlotExpr, ExecError> {
        e.resolve(|v| {
            position(&self.scope, v).ok_or_else(|| ExecError(format!("variable {v:?} not bound")))
        })
    }

    /// A vector shadows a matrix of the same name.
    fn access(&self, r: &LhsRef) -> Result<Access<'a>, ExecError> {
        match (position(&self.vectors, &r.array), r.idxs.as_slice()) {
            (Some(k), [i]) => Ok(Access::Vector(k, self.expr(i)?)),
            (Some(_), _) => Err(ExecError(format!("vector {r} needs 1 index"))),
            (None, idxs) => match (self.matrices.get(&r.array), idxs) {
                (Some(m), [i, j]) => Ok(Access::Matrix(*m, self.expr(i)?, self.expr(j)?)),
                (Some(_), _) => Err(ExecError(format!("matrix {r} needs 2 indices"))),
                (None, _) => Err(ExecError(format!("array {:?} not bound", r.array))),
            },
        }
    }

    fn nodes(&mut self, nodes: &'a [Node]) -> Result<Vec<Op<'a>>, ExecError> {
        nodes.iter().map(|n| self.node(n)).collect()
    }

    fn node(&mut self, node: &'a Node) -> Result<Op<'a>, ExecError> {
        match node {
            Node::Loop(l) => {
                let (slot, lo, hi) = (self.scope.len(), self.expr(&l.lo)?, self.expr(&l.hi)?);
                self.scope.push(&l.var);
                self.depth = self.depth.max(self.scope.len());
                let body = self.nodes(&l.body)?;
                let whole = match &l.body[..] {
                    [Node::Stmt(stmt)] => self.whole(stmt)?.map(Box::new),
                    _ => None,
                };
                self.scope.pop();
                Ok(Op::Loop {
                    l,
                    slot,
                    lo,
                    hi,
                    body,
                    whole,
                })
            }
            Node::Stmt(stmt) => {
                let value = self.value(&stmt.rhs)?;
                match self.access(&stmt.lhs)? {
                    Access::Vector(to, at) => Ok(Op::Assign {
                        lhs: &stmt.lhs,
                        to,
                        at,
                        value,
                    }),
                    Access::Matrix(..) => Err(ExecError(format!(
                        "matrix {:?} is read-only in the reference executor",
                        stmt.lhs.array
                    ))),
                }
            }
        }
    }

    /// Lowers a right-hand side, resolving its reads left operand first:
    /// the order in which they run.
    fn value(&mut self, e: &'a ValueExpr) -> Result<Value<'a>, ExecError> {
        fn binary<'a>(a: Value<'a>, b: Value<'a>, op: impl Fn(f64, f64) -> f64 + 'a) -> Value<'a> {
            Box::new(move |s| op(a(s), b(s)))
        }
        Ok(match e {
            ValueExpr::Const(c) => {
                let c = *c;
                Box::new(move |_| c)
            }
            ValueExpr::Read(r) => self.read(r)?,
            ValueExpr::Add(a, b) => binary(self.value(a)?, self.value(b)?, |x, y| x + y),
            ValueExpr::Sub(a, b) => binary(self.value(a)?, self.value(b)?, |x, y| x - y),
            ValueExpr::Mul(a, b) => binary(self.value(a)?, self.value(b)?, |x, y| x * y),
            ValueExpr::Div(a, b) => binary(self.value(a)?, self.value(b)?, |x, y| x / y),
            ValueExpr::Neg(a) => {
                let a = self.value(a)?;
                Box::new(move |s| -a(s))
            }
        })
    }

    /// A read, its bounds checked against the operand's extents as they
    /// were when the run began.
    fn read(&mut self, r: &'a LhsRef) -> Result<Value<'a>, ExecError> {
        let inner = self.scope[self.params..].last().copied();
        Ok(match self.reach(r)? {
            Read::Vector(k, i) => Box::new(move |s| {
                let v = s.vectors[k];
                match i.eval(&s.frame) {
                    Some(i) if (i as u64) < v.len() as u64 => v[i as usize].get(),
                    Some(i) => s.fault(|| format!("bad vector access {r} at [{i}]")),
                    None => s.fault(|| format!("vector access {r} overflows")),
                }
            }),
            Read::Line(line, l, a) if Sweep::of(r, inner) == Sweep::Column => {
                let extents = (line.cells.len(), line.order.lines());
                cell(r, (a, l), extents, move |i, j| line.read(j, i))
            }
            Read::Line(line, l, a) => {
                let extents = (line.order.lines(), line.cells.len());
                cell(r, (l, a), extents, move |i, j| line.read(i, j))
            }
            Read::Search(rows, cols, i, j) => {
                cell(r, (i, j), (rows.lines(), cols), move |i, j| rows.find(i, j))
            }
        })
    }

    /// How the read `r` reaches its operand: a matrix read through the
    /// run's copy of the matrix, in the way its loop nest sweeps it.
    fn reach(&mut self, r: &'a LhsRef) -> Result<Read, ExecError> {
        let (m, i, j) = match self.access(r)? {
            Access::Vector(k, i) => return Ok(Read::Vector(k, i)),
            Access::Matrix(m, i, j) => (m, i, j),
        };
        let copy = self.copies.entry(&r.array).or_insert_with(|| Copied {
            entries: m.entries(),
            rows: None,
            cols: None,
        });
        let (nrows, ncols) = (m.nrows(), m.ncols());
        let sweep = Sweep::of(r, self.scope[self.params..].last().copied());
        Ok(match sweep {
            Sweep::Row => Read::Line(Rc::new(Line::new(copy.rows(nrows, ncols), ncols)), i, j),
            Sweep::Column => Read::Line(Rc::new(Line::new(copy.cols(ncols), nrows)), j, i),
            Sweep::Search => Read::Search(copy.rows(nrows, ncols), ncols, i, j),
        })
    }

    /// The innermost loop around `stmt` lowered whole, where `stmt` is
    /// an update `v[a] = r0 ± r1 * r2`, `r0` a vector read. Its reads
    /// get lines of their own: the tree's stay as the tree left them.
    fn whole(&mut self, stmt: &'a Statement) -> Result<Option<Whole>, ExecError> {
        let (sub, a, p) = match &stmt.rhs {
            ValueExpr::Add(a, p) => (false, a, p),
            ValueExpr::Sub(a, p) => (true, a, p),
            _ => return Ok(None),
        };
        let (ValueExpr::Read(r0), ValueExpr::Mul(b, c)) = (&**a, &**p) else {
            return Ok(None);
        };
        let (ValueExpr::Read(r1), ValueExpr::Read(r2)) = (&**b, &**c) else {
            return Ok(None);
        };
        let (Access::Vector(to, at), Access::Vector(k0, i0)) =
            (self.access(&stmt.lhs)?, self.access(r0)?)
        else {
            return Ok(None);
        };
        let reads = [self.reach(r1)?, self.reach(r2)?];
        let aliased = reads
            .iter()
            .any(|r| matches!(r, Read::Vector(k, _) if *k == to));
        Ok(Some(Whole {
            sub,
            to: (to, at),
            r0: (k0, i0),
            reads,
            holds: k0 == to && !aliased,
        }))
    }
}

/// How a read reaches its operand.
enum Read {
    /// `vectors[k][i]`.
    Vector(usize, SlotExpr),
    /// Cell `a` of line `l` of a dense line: `(l, a)` is the read's
    /// `(i, j)` through a row line, its `(j, i)` through a column line.
    Line(Rc<Line>, SlotExpr, SlotExpr),
    /// `(i, j)` searched in a row order of a matrix with so many
    /// columns.
    Search(Rc<Order>, usize, SlotExpr, SlotExpr),
}

/// How a matrix read sweeps its copy, by which of its indices move with
/// the innermost loop around it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Sweep {
    /// Only the column index moves, or neither: a dense row line.
    Row,
    /// Only the row index moves: a dense column line.
    Column,
    /// Both move: a binary search in the row order.
    Search,
}

impl Sweep {
    /// The sweep of `r` under the loop variable `inner` (`None` outside
    /// every loop).
    fn of(r: &LhsRef, inner: Option<&str>) -> Sweep {
        let moves = |k: usize| inner.is_some_and(|v| r.idxs[k].coeff(v) != 0);
        match (moves(0), moves(1)) {
            (true, true) => Sweep::Search,
            (true, false) => Sweep::Column,
            _ => Sweep::Row,
        }
    }
}

/// The read `r` of a matrix cell: `at(i, j)` where the indices are in
/// range of the matrix's `(rows, cols)`, a fault otherwise.
fn cell<'a>(
    r: &'a LhsRef,
    (i, j): (SlotExpr, SlotExpr),
    (rows, cols): (usize, usize),
    at: impl Fn(usize, usize) -> f64 + 'a,
) -> Value<'a> {
    Box::new(move |s| match (i.eval(&s.frame), j.eval(&s.frame)) {
        (Some(i), Some(j)) if (i as u64) < rows as u64 && (j as u64) < cols as u64 => {
            at(i as usize, j as usize)
        }
        (Some(i), Some(j)) => s.fault(|| format!("matrix access {r} out of range at ({i},{j})")),
        _ => s.fault(|| format!("matrix access {r} overflows")),
    })
}

/// A matrix's stored entries grouped by line (by row, or by column):
/// line `l`'s are `at[start[l]..start[l + 1]]`, each an index across
/// the line, with their values beside them.
struct Order {
    start: Vec<usize>,
    at: Vec<usize>,
    values: Vec<f64>,
    /// Each line's indices strictly ascend.
    sorted: bool,
}

/// The copy of a matrix a run reads: its entries, and the orders its
/// reads sweep, each made when a read first needs it.
struct Copied {
    entries: Vec<(usize, usize, f64)>,
    rows: Option<Rc<Order>>,
    cols: Option<Rc<Order>>,
}

impl Copied {
    /// The row order, each row's columns ascending: one counting pass
    /// where the entries ascend by row, then by column (as those of
    /// every stored layout do), else one by row over the column order.
    fn rows(&mut self, nrows: usize, ncols: usize) -> Rc<Order> {
        if let Some(rows) = &self.rows {
            return rows.clone();
        }
        let ascend = |w: &[(usize, usize, f64)]| (w[0].0, w[0].1) < (w[1].0, w[1].1);
        let rows = match self.entries.windows(2).all(ascend) {
            true => Order::of(nrows, self.entries.iter().copied()),
            false => Order::of(nrows, self.cols(ncols).iter().map(|(c, r, v)| (r, c, v))),
        };
        self.rows.insert(Rc::new(rows)).clone()
    }

    /// The column order: the entries by column, in their order.
    fn cols(&mut self, ncols: usize) -> Rc<Order> {
        let entries = &self.entries;
        let of = || Rc::new(Order::of(ncols, entries.iter().map(|&(r, c, v)| (c, r, v))));
        self.cols.get_or_insert_with(of).clone()
    }
}

impl Order {
    /// Groups `(line, at, value)` entries by line, keeping their order
    /// within a line.
    fn of(lines: usize, entries: impl Iterator<Item = (usize, usize, f64)> + Clone) -> Order {
        let mut start = vec![0; lines + 1];
        for (l, ..) in entries.clone() {
            start[l + 1] += 1;
        }
        for l in 0..lines {
            start[l + 1] += start[l];
        }
        let mut next = start.clone();
        let (mut at, mut values) = (vec![0; start[lines]], vec![0.0; start[lines]]);
        for (l, a, v) in entries {
            (at[next[l]], values[next[l]]) = (a, v);
            next[l] += 1;
        }
        let sorted = (0..lines).all(|l| at[start[l]..start[l + 1]].is_sorted_by(|p, q| p < q));
        Order {
            start,
            at,
            values,
            sorted,
        }
    }

    fn lines(&self) -> usize {
        self.start.len() - 1
    }

    /// Line `l`'s indices across it and values.
    fn line(&self, l: usize) -> (&[usize], &[f64]) {
        let span = self.start[l]..self.start[l + 1];
        (&self.at[span.clone()], &self.values[span])
    }

    /// Every entry as `(line, at, value)`, line by line.
    fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + Clone + '_ {
        (0..self.lines()).flat_map(move |l| {
            let (at, values) = self.line(l);
            at.iter().zip(values).map(move |(&a, &v)| (l, a, v))
        })
    }

    /// The value at `at` on line `l`, found by a binary search: the
    /// indices of a row order ascend.
    fn find(&self, l: usize, at: usize) -> f64 {
        let (ats, values) = self.line(l);
        ats.binary_search(&at).map_or(0.0, |k| values[k])
    }
}

/// One line of an [`Order`], dense: the cells of the line it last
/// read, `+0.0` where nothing is stored.
struct Line {
    order: Rc<Order>,
    /// The line the cells hold; `usize::MAX` before the first read.
    current: Cell<usize>,
    cells: Box<[Cell<f64>]>,
}

impl Line {
    fn new(order: Rc<Order>, len: usize) -> Line {
        Line {
            order,
            current: Cell::new(usize::MAX),
            cells: (0..len).map(|_| Cell::new(0.0)).collect(),
        }
    }

    /// The cell at `at` on line `l`.
    #[inline]
    fn read(&self, l: usize, at: usize) -> f64 {
        self.fill(l);
        self.cells[at].get()
    }

    /// Makes the cells hold line `l`: refills them when they hold
    /// another one.
    #[inline]
    fn fill(&self, l: usize) {
        if self.current.get() != l {
            self.refill(l);
        }
    }

    /// Clears the old line's entries and scatters line `l`'s.
    fn refill(&self, l: usize) {
        if self.current.get() != usize::MAX {
            for &a in self.order.line(self.current.get()).0 {
                self.cells[a].set(0.0);
            }
        }
        let (at, values) = self.order.line(l);
        for (&a, &v) in at.iter().zip(values) {
            self.cells[a].set(v);
        }
        self.current.set(l);
    }
}

/// The state of a run: the frame, the vectors by table index (as cells,
/// so that a whole loop may read the vector it writes), and the fault
/// slot: the first fault of the statement being evaluated, which is the
/// error the run stops with.
struct State<'v> {
    frame: Vec<i64>,
    vectors: Vec<&'v [Cell<f64>]>,
    /// Each vector's [`Tally`].
    tallies: Vec<Tally>,
    fault: Cell<Option<ExecError>>,
}

/// How many cells of a vector hold `-0.0`, and how many a NaN or an
/// infinity, kept by every write of the run: what a whole loop asks, in
/// O(1), before it skips a zero run.
#[derive(Default)]
struct Tally(Cell<[usize; 2]>);

impl Tally {
    fn of(cells: &[Cell<f64>]) -> Tally {
        let tally = Tally::default();
        cells.iter().for_each(|x| tally.count(0.0, x.get()));
        tally
    }

    /// `cell = x`, counted.
    #[inline]
    fn set(&self, cell: &Cell<f64>, x: f64) {
        self.count(cell.replace(x), x);
    }

    #[inline]
    fn count(&self, old: f64, new: f64) {
        let odd = |x: f64| {
            [
                usize::from(x.to_bits() == NEGATIVE_ZERO),
                usize::from(!x.is_finite()),
            ]
        };
        let ([z, f], [dz, df], [oz, of]) = (self.0.get(), odd(new), odd(old));
        self.0.set([z + dz - oz, f + df - of]);
    }

    fn no_negative_zero(&self) -> bool {
        self.0.get()[0] == 0
    }

    fn finite(&self) -> bool {
        self.0.get()[1] == 0
    }
}

/// The bits of `-0.0`.
const NEGATIVE_ZERO: u64 = (-0.0f64).to_bits();

impl State<'_> {
    /// Records the error unless a read before this one in the statement
    /// faulted already; the faulting read reads 0.
    #[cold]
    fn fault(&self, error: impl FnOnce() -> String) -> f64 {
        let first = self.fault.take().unwrap_or_else(|| ExecError(error()));
        self.fault.set(Some(first));
        0.0
    }

    /// Stops the run with `error`.
    #[cold]
    fn halt(&mut self, error: String) -> ControlFlow<()> {
        *self.fault.get_mut() = Some(ExecError(error));
        ControlFlow::Break(())
    }
}

impl Op<'_> {
    /// Runs the op; `Break` when it stopped at the error it left in the
    /// fault slot.
    fn run(&self, s: &mut State) -> ControlFlow<()> {
        match self {
            Op::Loop {
                l,
                slot,
                lo,
                hi,
                body,
                whole,
            } => {
                let bound = |e: &SlotExpr, text| e.eval(&s.frame).ok_or(text);
                let range = match (bound(lo, &l.lo), bound(hi, &l.hi)) {
                    (Ok(lo), Ok(hi)) => lo..hi,
                    (Err(text), _) | (_, Err(text)) => {
                        return s.halt(format!("bound {text} of loop {} overflows", l.var))
                    }
                };
                let ran = |w: &Whole| w.run(s, *slot, range.clone()).is_some();
                if !range.is_empty() && whole.as_deref().is_some_and(ran) {
                    return ControlFlow::Continue(());
                }
                for v in range {
                    s.frame[*slot] = v;
                    body.iter().try_for_each(|op| op.run(s))?;
                }
            }
            Op::Assign { lhs, to, at, value } => {
                let x = value(s);
                if s.fault.get_mut().is_some() {
                    return ControlFlow::Break(());
                }
                let v = s.vectors[*to];
                match at.eval(&s.frame) {
                    Some(i) if (i as u64) < v.len() as u64 => s.tallies[*to].set(&v[i as usize], x),
                    Some(i) => return s.halt(format!("bad vector write {lhs} at [{i}]")),
                    None => return s.halt(format!("vector write {lhs} overflows")),
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// An innermost loop whose body is one update `v[a] = r0 ± r1 * r2`,
/// lowered to run its whole range as one plain loop.
struct Whole {
    sub: bool,
    /// The written vector and its index, then `r0`'s.
    to: (usize, SlotExpr),
    r0: (usize, SlotExpr),
    /// `r1` and `r2`.
    reads: [Read; 2],
    /// `r0` reads the written vector and neither `r1` nor `r2` does.
    holds: bool,
}

impl Whole {
    /// Runs the loop over `range` (not empty) whole; `None`, with
    /// nothing written, where some index is out of range or overflows
    /// at either end of it. An affine index that passes at both ends
    /// passes everywhere between them, and so does every partial sum
    /// of its arithmetic, so the loop then does what the tree would,
    /// without a check per iteration.
    fn run(&self, s: &mut State, slot: usize, range: std::ops::Range<i64>) -> Option<()> {
        let n = usize::try_from(range.end.abs_diff(range.start)).ok()?;
        let frame = &mut s.frame;
        let span = &mut |e: &SlotExpr, len: usize| {
            frame[slot] = range.end - 1;
            let last = e.eval(frame)?;
            frame[slot] = range.start;
            let first = e.eval(frame)?;
            let fits = |x: i64| (x as u64) < len as u64;
            (fits(first) && fits(last)).then_some(Pos(first as usize, e.coeff(slot) as usize))
        };
        let (to, r0) = (s.vectors[self.to.0], s.vectors[self.r0.0]);
        let (at, p0) = (span(&self.to.1, to.len())?, span(&self.r0.1, r0.len())?);
        // The cells the loop writes: one, a run, or (any other step) all.
        let writes = match at {
            Pos(t, 0) => t..t + 1,
            Pos(t, 1) => t..t + n,
            _ => 0..usize::MAX,
        };
        let [r1, r2] = [0, 1].map(|k| self.reads[k].stream(&s.vectors, span, n));
        let ((r1, z1), (r2, z2)) = (r1?, r2?);
        let reads = [Stream::Cells(r0, p0), r1, r2];
        let held = self.holds && at.1 == 0 && p0 == at;
        let stepped = at.1 == 1 && self.r0.0 == self.to.0 && p0 == at;
        // Every value the other factor reads is finite: one cell that
        // does not move and that the loop does not write (ts's `b[j]`),
        // or a vector the loop does not write and that holds no NaN or
        // infinity.
        let finite = |other: &Read, stream| match (other, stream) {
            (Read::Vector(v, _), Stream::Cells(cells, Pos(a, 0)))
                if *v != self.to.0 || !writes.contains(&a) =>
            {
                cells[a].get().is_finite()
            }
            (Read::Vector(v, _), _) => *v != self.to.0 && s.tallies[*v].finite(),
            _ => false,
        };
        let zeros = match (z1, z2) {
            (Some(z), _) if finite(&self.reads[1], r2) => Some(z),
            (_, Some(z)) if finite(&self.reads[0], r1) => Some(z),
            _ => None,
        };
        let (tally, zeros) = (&s.tallies[self.to.0], zeros.filter(|_| held || stepped));
        match self.sub {
            true => fused::<true>(n, (to, at, tally), held, reads, zeros),
            false => fused::<false>(n, (to, at, tally), held, reads, zeros),
        }
        Some(())
    }
}

/// The stored cells a [`Whole`] loop's line reads, as indices across the
/// line, ascending, and the index it reads in the first iteration.
type Zeros<'s> = (&'s [usize], usize);

/// An index over a [`Whole`] loop's range, known to stay in range: its
/// value in the first iteration and its step, both wrapping.
#[derive(Clone, Copy, PartialEq)]
struct Pos(usize, usize);

impl Pos {
    /// The index in iteration `k`.
    #[inline]
    fn at(self, k: usize) -> usize {
        self.0.wrapping_add(k.wrapping_mul(self.1))
    }
}

impl Read {
    /// The read as a [`Stream`] over `n` iterations: a line is filled
    /// here, once for the whole range, since its line index does not
    /// move with the loop. `span` says where an index starts and how it
    /// moves, if it stays below the length given. Beside it, where the
    /// read is a line at step 1 of an order whose lines ascend, the
    /// stored cells it reads.
    fn stream<'s>(
        &'s self,
        vectors: &[&'s [Cell<f64>]],
        span: &mut impl FnMut(&SlotExpr, usize) -> Option<Pos>,
        n: usize,
    ) -> Option<(Stream<'s>, Option<Zeros<'s>>)> {
        Some(match self {
            Read::Vector(k, i) => {
                let cells = vectors[*k];
                (Stream::Cells(cells, span(i, cells.len())?), None)
            }
            Read::Line(line, l, a) => {
                let Pos(l, 0) = span(l, line.order.lines())? else {
                    return None;
                };
                let a = span(a, line.cells.len())?;
                line.fill(l);
                let stored = line.order.line(l).0;
                let run = || {
                    stored.partition_point(|&p| p < a.0)..stored.partition_point(|&p| p < a.0 + n)
                };
                let zeros = (a.1 == 1 && line.order.sorted).then(|| (&stored[run()], a.0));
                (Stream::Cells(&line.cells, a), zeros)
            }
            Read::Search(rows, cols, i, j) => (
                Stream::Searched(rows, span(i, rows.lines())?, span(j, *cols)?),
                None,
            ),
        })
    }
}

/// A read of a [`Whole`] loop, by how its index moves.
#[derive(Clone, Copy)]
enum Stream<'s> {
    /// The cells at a position that moves by its step, 0 included.
    Cells(&'s [Cell<f64>], Pos),
    /// A row order searched at two.
    Searched(&'s Order, Pos, Pos),
}

impl Stream<'_> {
    /// The value in iteration `k`.
    #[inline]
    fn at(self, k: usize) -> f64 {
        match self {
            Stream::Cells(cells, at) => cells[at.at(k)].get(),
            Stream::Searched(rows, i, j) => rows.find(i.at(k), j.at(k)),
        }
    }
}

/// `n` iterations of `to = r0 ± r1 * r2`, each read in turn before the
/// write, as the tree reads them. Where `held`, `r0` is the written
/// cell, which does not move and which no other read reads: the loop
/// holds its value and writes it once, at the end. Either skips the
/// zero runs between the `zeros` where that is exact. Every write is
/// counted in the written vector's tally.
fn fused<const SUB: bool>(
    n: usize,
    (to, at, tally): (&[Cell<f64>], Pos, &Tally),
    held: bool,
    [r0, r1, r2]: [Stream; 3],
    zeros: Option<Zeros>,
) {
    match at {
        // A zero run leaves an accumulator that is not `-0.0` as it is.
        Pos(t, 0) if held => {
            let same = |acc: &f64| acc.to_bits() != NEGATIVE_ZERO;
            let step = |acc, k| op::<SUB>(acc, r1.at(k), r2.at(k));
            tally.set(&to[t], sweep(n, zeros, to[t].get(), same, step))
        }
        // A zero run leaves every cell of a vector that holds no `-0.0`
        // as it is.
        _ => {
            let step = |(), k| tally.set(&to[at.at(k)], op::<SUB>(r0.at(k), r1.at(k), r2.at(k)));
            sweep(n, zeros, (), |()| tally.no_negative_zero(), step)
        }
    }
}

/// `a ± b * c`. The operator is a constant: one loop that chose between
/// `-` and `+` per iteration may be compiled to a negation and an
/// addition, which flips the sign of a NaN.
#[inline]
fn op<const SUB: bool>(a: f64, b: f64, c: f64) -> f64 {
    if SUB {
        a - b * c
    } else {
        a + b * c
    }
}

/// `step` over the iterations `0..n` in turn, from `init`. With `zeros`,
/// each zero run between the stored cells is skipped where `same` says,
/// at its start, that the run leaves what it writes as it is.
#[inline(always)]
fn sweep<A>(
    n: usize,
    zeros: Option<Zeros>,
    init: A,
    same: impl Fn(&A) -> bool,
    step: impl Fn(A, usize) -> A,
) -> A {
    let Some((stored, first)) = zeros else {
        return (0..n).fold(init, step);
    };
    let run = |acc: A, run: std::ops::Range<usize>| match same(&acc) {
        true => acc,
        false => run.fold(acc, &step),
    };
    let (mut acc, mut k) = (init, 0);
    for q in stored.iter().map(|&p| p - first) {
        acc = step(run(acc, k..q), q);
        k = q + 1;
    }
    run(acc, k..n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use bernoulli_formats::{Csr, Dense, Triplets};

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

    #[test]
    fn triangular_solve_reference() {
        let p = parse_program(TS).unwrap();
        // L = [[2,0],[1,4]]; solve L y = b with b = [4, 6]:
        // y0 = 2; y1 = (6 - 1*2)/4 = 1.
        let l = Dense::from_triplets(&Triplets::from_entries(
            2,
            2,
            &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 4.0)],
        ));
        let mut env = DenseEnv::new()
            .param("N", 2)
            .vector("b", vec![4.0, 6.0])
            .matrix("L", &l);
        run_dense(&p, &mut env).unwrap();
        assert_eq!(env.take_vector("b"), vec![2.0, 1.0]);
    }

    #[test]
    fn mvm_reference() {
        let src = r#"
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
        let p = parse_program(src).unwrap();
        let a = Dense::from_triplets(&Triplets::from_entries(
            2,
            3,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)],
        ));
        let mut env = DenseEnv::new()
            .param("M", 2)
            .param("N", 3)
            .vector("x", vec![1.0, 2.0, 3.0])
            .vector("y", vec![0.0, 0.0])
            .matrix("A", &a);
        run_dense(&p, &mut env).unwrap();
        assert_eq!(env.take_vector("y"), vec![7.0, 6.0]);
    }

    #[test]
    fn unbound_arrays_error() {
        let p = parse_program(TS).unwrap();
        let mut env = DenseEnv::new().param("N", 2).vector("b", vec![1.0, 1.0]);
        let e = run_dense(&p, &mut env).unwrap_err();
        assert!(e.0.contains("matrix \"L\" not bound"));
    }

    #[test]
    fn size_mismatch_error() {
        let p = parse_program(TS).unwrap();
        let l = Dense::<f64>::zeros(3, 3);
        let mut env = DenseEnv::new()
            .param("N", 2)
            .vector("b", vec![1.0, 1.0])
            .matrix("L", &l);
        let e = run_dense(&p, &mut env).unwrap_err();
        assert!(e.0.contains("declared 2x2"));
    }

    /// Affine index arithmetic is checked: past `i64::MAX` it is an
    /// error, not a wrapped (here: empty) loop or a debug-build panic.
    #[test]
    fn index_arithmetic_that_overflows_is_an_error() -> Result<(), crate::ParseError> {
        let run = |src: &str, m: i64| {
            let p = parse_program(src)?;
            let mut env = DenseEnv::new()
                .param("N", i64::MAX - 1)
                .param("M", m)
                .vector("s", vec![0.0]);
            let result = run_dense(&p, &mut env).map_err(|e| e.0);
            Ok::<_, crate::ParseError>((result, env.take_vector("s")))
        };
        let count = "program p(N, M) { inout vector s[1]; for i in N..N + M { s[0] = s[0] + 1; } }";
        let error = |words: &str| Err(words.to_string());
        assert_eq!(run(count, 1)?, (Ok(()), vec![1.0]));
        let m = run(count, 5)?;
        assert_eq!(m, (error("bound M + N of loop i overflows"), vec![0.0]));
        let read = count.replace("s[0] + 1", "s[i - N] + s[i + 2]");
        let m = run(&read, 1)?;
        assert_eq!(m, (error("vector access s[i + 2] overflows"), vec![0.0]));
        let write = count.replace("s[0] =", "s[i + 2] =");
        let m = run(&write, 1)?;
        assert_eq!(m, (error("vector write s[i + 2] overflows"), vec![0.0]));
        Ok(())
    }

    /// A 4×4 lower triangle with a stored `-0.0`, a stored `0.0`, a NaN
    /// off the diagonal, an empty row and no entry at `(2, 2)`.
    fn odd_lower() -> Csr {
        Csr::from_triplets(&Triplets::from_entries(
            4,
            4,
            &[
                (0, 0, 2.0),
                (2, 0, -0.0),
                (2, 1, f64::NAN),
                (3, 0, 1.5),
                (3, 2, 0.0),
                (3, 3, -4.0),
            ],
        ))
    }

    /// The sweep of a read `A[i][j]` under the loop variable `inner`.
    fn sweep(i: AffineExpr, j: AffineExpr, inner: Option<&str>) -> Sweep {
        let idxs = vec![i, j];
        Sweep::of(
            &LhsRef {
                array: "A".into(),
                idxs,
            },
            inner,
        )
    }

    fn var(name: &str) -> AffineExpr {
        AffineExpr::var(name)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `A[i][j]` under `for j` sweeps a row line; the result is that of
    /// `get`, bit for bit.
    #[test]
    fn the_mvm_nest_reads_row_lines() -> Result<(), crate::IrError> {
        assert_eq!(sweep(var("i"), var("j"), Some("j")), Sweep::Row);
        assert_eq!(
            sweep(var("i"), AffineExpr::constant(0), Some("j")),
            Sweep::Row
        );
        assert_eq!(sweep(var("i"), var("j"), None), Sweep::Row);
        let a = odd_lower();
        let x = [1.0, -2.0, 0.5, 3.0];
        let mut want = vec![0.0; 4];
        for (i, y) in want.iter_mut().enumerate() {
            for (j, x) in x.iter().enumerate() {
                *y += a.get(i, j) * x;
            }
        }
        let p = parse_program(MVM)?;
        let mut env = DenseEnv::new()
            .param("M", 4)
            .param("N", 4)
            .vector("x", x.to_vec())
            .vector("y", vec![0.0; 4])
            .matrix("A", &a);
        run_dense(&p, &mut env)?;
        assert_eq!(bits(&env.take_vector("y")), bits(&want));
        Ok(())
    }

    /// `L[i][j]` under `for i` sweeps a column line, `L[j][j]` under
    /// `for j` searches; the solve is that of `get`, bit for bit.
    #[test]
    fn the_ts_nest_reads_column_lines() -> Result<(), crate::IrError> {
        assert_eq!(sweep(var("i"), var("j"), Some("i")), Sweep::Column);
        let a = odd_lower();
        let mut want = vec![1.0, 2.0, 3.0, 4.0];
        for j in 0..4 {
            want[j] /= a.get(j, j);
            for i in j + 1..4 {
                want[i] -= a.get(i, j) * want[j];
            }
        }
        let p = parse_program(TS)?;
        let mut env = DenseEnv::new()
            .param("N", 4)
            .vector("b", vec![1.0, 2.0, 3.0, 4.0])
            .matrix("L", &a);
        run_dense(&p, &mut env)?;
        assert_eq!(bits(&env.take_vector("b")), bits(&want));
        Ok(())
    }

    /// `A[i][i]` under `for i` searches the row order: a stored value
    /// keeps its bits, an unstored one reads `+0.0`.
    #[test]
    fn a_diagonal_read_searches() -> Result<(), crate::IrError> {
        assert_eq!(sweep(var("i"), var("i"), Some("i")), Sweep::Search);
        let diagonal = Csr::from_triplets(&Triplets::from_entries(
            4,
            4,
            &[(0, 0, -0.0), (0, 3, 5.0), (1, 1, f64::NAN), (3, 3, 0.0)],
        ));
        let src = "program d(N) { in matrix A[N][N]; inout vector d[N]; \
                   for i in 0..N { d[i] = A[i][i]; } }";
        let p = parse_program(src)?;
        let mut env = DenseEnv::new()
            .param("N", 4)
            .vector("d", vec![9.0; 4])
            .matrix("A", &diagonal);
        run_dense(&p, &mut env)?;
        let want: Vec<f64> = (0..4).map(|i| diagonal.get(i, i)).collect();
        assert_eq!(bits(&env.take_vector("d")), bits(&want));
        assert_eq!(bits(&want[2..]), bits(&[0.0, 0.0]));
        Ok(())
    }

    /// A read out of range faults with the same words in every sweep,
    /// and what earlier iterations wrote stays written.
    #[test]
    fn a_read_out_of_range_keeps_its_fault_text() -> Result<(), crate::IrError> {
        let a = odd_lower();
        let nests = [
            (
                "for i in 0..N { for j in 0..N { s[i] = A[i][j + 1]; } }",
                "A[i][j + 1]",
                "(0,4)",
            ),
            (
                "for j in 0..N { for i in 0..N { s[i] = A[i + 1][j]; } }",
                "A[i + 1][j]",
                "(4,0)",
            ),
            (
                "for i in 0..N { s[i] = A[i][i + 1]; }",
                "A[i][i + 1]",
                "(3,4)",
            ),
        ];
        let mut written = Vec::new();
        for (nest, read, at) in nests {
            let src = format!("program f(N) {{ in matrix A[N][N]; inout vector s[N]; {nest} }}");
            let p = parse_program(&src)?;
            let mut env = DenseEnv::new()
                .param("N", 4)
                .vector("s", vec![7.0; 4])
                .matrix("A", &a);
            let e = run_dense(&p, &mut env).unwrap_err();
            assert_eq!(e.0, format!("matrix access {read} out of range at {at}"));
            written.push(env.take_vector("s"));
        }
        let row = vec![0.0, 7.0, 7.0, 7.0];
        assert_eq!(bits(&written[0]), bits(&row));
        assert_eq!(bits(&written[1]), bits(&[0.0, -0.0, 1.5, 7.0]));
        assert_eq!(bits(&written[2]), bits(&[0.0, 0.0, 0.0, 7.0]));
        Ok(())
    }

    /// Runs `nest` against `A`, `x` and `s`: the run's error text (empty
    /// when it ran to completion) and `s` afterwards, as bits.
    fn run_nest(
        nest: &str,
        a: &dyn SparseMatrix,
        x: &[f64],
        s: [f64; 4],
    ) -> Result<(String, Vec<u64>), crate::IrError> {
        let src = format!(
            "program f(N) {{ in matrix A[N][N]; in vector x[N]; inout vector s[N]; {nest} }}"
        );
        let p = parse_program(&src)?;
        let mut env = DenseEnv::new()
            .param("N", 4)
            .vector("x", x.to_vec())
            .vector("s", s.to_vec())
            .matrix("A", a);
        let e = run_dense(&p, &mut env).map_or_else(|e| e.0, |()| String::new());
        Ok((e, bits(&env.take_vector("s"))))
    }

    /// Each update loop runs whole in the first outer iteration; in the
    /// second an index leaves its range in the last iteration, so the
    /// loop runs iteration by iteration: the fault text is the tree's,
    /// and what the iterations before the fault wrote stays written.
    #[test]
    fn a_whole_loop_out_of_range_at_its_end_keeps_its_fault_text() -> Result<(), crate::IrError> {
        let (a, x) = (odd_lower(), [1.0, -2.0, 0.5, 3.0]);
        let mut want = [[7.0; 4]; 3];
        'fault: for j in 0..4 {
            for i in 0..4 {
                if i + j == 4 {
                    break 'fault;
                }
                want[0][i] += a.get(i, j) * x[i + j];
                want[1][i] -= a.get(i + j, j) * x[i];
                want[2][i + j] = want[2][i] + a.get(i, j) * x[i];
            }
        }
        let nests = [
            (
                "s[i] = s[i] + A[i][j] * x[i + j]",
                "bad vector access x[i + j] at [4]",
            ),
            (
                "s[i] = s[i] - A[i + j][j] * x[i]",
                "matrix access A[i + j][j] out of range at (4,1)",
            ),
            (
                "s[i + j] = s[i] + A[i][j] * x[i]",
                "bad vector write s[i + j] at [4]",
            ),
        ];
        for ((update, fault), want) in nests.into_iter().zip(want) {
            let nest = format!("for j in 0..N {{ for i in 0..N {{ {update}; }} }}");
            let got = run_nest(&nest, &a, &x, [7.0; 4])?;
            assert_eq!(got, (fault.to_string(), bits(&want)), "{nest}");
        }
        Ok(())
    }

    /// `b[2]` is written in the third iteration and read in every one:
    /// a loop that read it once, before the first, would differ.
    #[test]
    fn a_vector_written_in_the_loop_is_read_afresh() -> Result<(), crate::IrError> {
        let cells: Vec<_> = (0..16)
            .map(|k| (k / 4, k % 4, 0.25 * (k + 1) as f64))
            .collect();
        let l = Csr::from_triplets(&Triplets::from_entries(4, 4, &cells));
        let mut want = [1.0, -2.0, 0.5, 3.0];
        for j in 0..4 {
            for i in 0..4 {
                want[i] -= l.get(i, j) * want[2];
            }
        }
        let nest = "for j in 0..N { for i in 0..N { x[i] = x[i] - A[i][j] * x[2]; } }";
        let src = format!("program f(N) {{ in matrix A[N][N]; inout vector x[N]; {nest} }}");
        let mut env = DenseEnv::new()
            .param("N", 4)
            .vector("x", vec![1.0, -2.0, 0.5, 3.0])
            .matrix("A", &l);
        run_dense(&parse_program(&src)?, &mut env)?;
        assert_eq!(bits(&env.take_vector("x")), bits(&want));
        Ok(())
    }

    /// A stored `-0.0` and a NaN through `+` and `-`, a row line and a
    /// column line, the matrix on either side of the product: the bits
    /// of the same loops over `get`, `+` and `-` written apart.
    #[test]
    fn signed_zeros_and_nans_keep_their_bits_in_a_whole_loop() -> Result<(), crate::IrError> {
        let (a, x, s) = (odd_lower(), [1.0, -2.0, -0.0, 3.0], [7.0, -0.0, -0.0, 0.0]);
        let plus: fn(f64, f64) -> f64 = |p, q| p + q;
        let minus: fn(f64, f64) -> f64 = |p, q| p - q;
        for (sign, op) in [("+", plus), ("-", minus)] {
            let (mut rows, mut cols) = (s, s);
            for i in 0..4 {
                for j in 0..4 {
                    rows[i] = op(rows[i], a.get(i, j) * x[j]);
                    cols[j] = op(cols[j], x[i] * a.get(j, i));
                }
            }
            let nests = [
                (
                    "for i in 0..N { for j in 0..N { s[i] = s[i] # A[i][j] * x[j]; } }",
                    rows,
                ),
                (
                    "for i in 0..N { for j in 0..N { s[j] = s[j] # x[i] * A[j][i]; } }",
                    cols,
                ),
            ];
            for (nest, want) in nests {
                let got = run_nest(&nest.replace('#', sign), &a, &x, s)?;
                assert_eq!(got, (String::new(), bits(&want)), "{sign} {nest}");
            }
        }
        Ok(())
    }

    /// A full 4×4 with a stored `-0.0` at `(1, 2)` and a NaN at `nan`.
    fn odd_full(nan: (usize, usize)) -> Csr {
        let cells: Vec<_> = (0..16)
            .map(|k| (k / 4, k % 4, 0.25 * (k + 1) as f64))
            .map(|(i, j, v)| match (i, j) {
                (1, 2) => (i, j, -0.0),
                at if at == nan => (i, j, f64::NAN),
                _ => (i, j, v),
            })
            .collect();
        Csr::from_triplets(&Triplets::from_entries(4, 4, &cells))
    }

    /// Runs `nest`, `#` in it standing for `+` and then for `-`, over
    /// `a`, an `x` and an `s` with `-0.0` in them; `s` afterwards must
    /// be, bit for bit, what `reference` leaves in it with the same
    /// operator, reading the matrix through `get`.
    fn agrees_with_get(
        a: &Csr,
        nest: &str,
        reference: impl Fn(fn(f64, f64) -> f64, &Csr, &[f64; 4], &mut [f64; 4]),
    ) -> Result<(), crate::IrError> {
        let (x, s) = ([1.0, -2.0, -0.0, 3.0], [7.0, -0.0, 1.5, 0.5]);
        let plus: fn(f64, f64) -> f64 = |p, q| p + q;
        let minus: fn(f64, f64) -> f64 = |p, q| p - q;
        for (sign, op) in [("+", plus), ("-", minus)] {
            let mut want = s;
            reference(op, a, &x, &mut want);
            let got = run_nest(&nest.replace('#', sign), a, &x, s)?;
            assert_eq!(got, (String::new(), bits(&want)), "{sign} {nest}");
        }
        Ok(())
    }

    /// The write and `r0` are one cell that does not move, and neither
    /// `r1` nor `r2` reads `s`: the loop holds the cell, through a row
    /// line, a column line beside a hoisted read, and two vector runs.
    #[test]
    fn a_held_accumulator_keeps_the_bits_of_get() -> Result<(), crate::IrError> {
        let nest = "for i in 0..N { for j in 0..N { s[i] = s[i] # A[i][j] * x[j]; } }";
        agrees_with_get(&odd_lower(), nest, |op, a, x, s| {
            for (i, s) in s.iter_mut().enumerate() {
                for (j, x) in x.iter().enumerate() {
                    *s = op(*s, a.get(i, j) * x);
                }
            }
        })?;
        let nest = "for i in 0..N { for j in 0..N { s[i] = s[i] # A[j][i] * x[i]; } }";
        agrees_with_get(&odd_lower(), nest, |op, a, x, s| {
            for i in 0..4 {
                for j in 0..4 {
                    s[i] = op(s[i], a.get(j, i) * x[i]);
                }
            }
        })?;
        let nest = "for i in 0..N { for j in 0..N { s[1] = s[1] # x[j] * A[2][j]; } }";
        agrees_with_get(&odd_lower(), nest, |op, a, x, s| {
            for _ in 0..4 {
                for (j, x) in x.iter().enumerate() {
                    s[1] = op(s[1], x * a.get(2, j));
                }
            }
        })
    }

    /// A read that does not move is read once: `x[i]` of another
    /// vector, and ts's `s[j]`, outside the run `j+1..N` the loop writes.
    #[test]
    fn a_hoisted_read_keeps_the_bits_of_get() -> Result<(), crate::IrError> {
        let nest = "for i in 0..N { for j in 0..N { s[j] = s[j] # A[i][j] * x[i]; } }";
        agrees_with_get(&odd_lower(), nest, |op, a, x, s| {
            for (i, x) in x.iter().enumerate() {
                for (j, s) in s.iter_mut().enumerate() {
                    *s = op(*s, a.get(i, j) * x);
                }
            }
        })?;
        let nest = "for j in 0..N { for i in j+1..N { s[i] = s[i] # A[i][j] * s[j]; } }";
        agrees_with_get(&odd_lower(), nest, |op, a, _, s| {
            for j in 0..4 {
                for i in j + 1..4 {
                    s[i] = op(s[i], a.get(i, j) * s[j]);
                }
            }
        })
    }

    /// Step-1 indices zipped: mvmᵀ's scatter, and a loop whose `r0`
    /// reads the cell the iteration before wrote.
    #[test]
    fn a_zipped_scatter_keeps_the_bits_of_get() -> Result<(), crate::IrError> {
        let nest = "for i in 0..N { for j in 0..N { s[j] = s[j] # x[i] * A[i][j]; } }";
        agrees_with_get(&odd_lower(), nest, |op, a, x, s| {
            for (i, x) in x.iter().enumerate() {
                for (j, s) in s.iter_mut().enumerate() {
                    *s = op(*s, x * a.get(i, j));
                }
            }
        })?;
        let nest = "for i in 0..N { for j in 0..N - 1 { s[j + 1] = s[j] # A[i][j] * x[j]; } }";
        agrees_with_get(&odd_lower(), nest, |op, a, x, s| {
            for i in 0..4 {
                for j in 0..3 {
                    s[j + 1] = op(s[j], a.get(i, j) * x[j]);
                }
            }
        })
    }

    /// `s[i]` is one cell under `for j`, but `s[j]` reads it when `j`
    /// passes `i`, after the iterations before wrote it: the loop must
    /// not hold it. Over a full matrix, whose rows add to `s[i]` before
    /// `j` reaches `i`, with its NaN in the last row, which no other row
    /// reads.
    #[test]
    fn an_accumulator_its_loop_reads_is_not_held() -> Result<(), crate::IrError> {
        let nest = "for i in 0..N { for j in 0..N { s[i] = s[i] # A[i][j] * s[j]; } }";
        agrees_with_get(&odd_full((3, 2)), nest, |op, a, _, s| {
            for i in 0..4 {
                for j in 0..4 {
                    s[i] = op(s[i], a.get(i, j) * s[j]);
                }
            }
        })
    }

    /// `s[2]` does not move under `for i`, but the loop writes it in its
    /// third iteration and reads it in the fourth: as `r2` and as `r0`,
    /// it must not be hoisted. Over a full matrix, whose third row moves
    /// `s[2]` in every column, with its NaN where only `s[0]` and `s[1]`
    /// read it: `s[3]`, the one that reads `s[2]` after it is written,
    /// stays a number.
    #[test]
    fn a_read_of_a_cell_its_loop_writes_is_not_hoisted() -> Result<(), crate::IrError> {
        let nest = "for j in 0..N { for i in 0..N { s[i] = s[i] # A[i][j] * s[2]; } }";
        agrees_with_get(&odd_full((0, 1)), nest, |op, a, _, s| {
            for j in 0..4 {
                for i in 0..4 {
                    s[i] = op(s[i], a.get(i, j) * s[2]);
                }
            }
        })?;
        let nest = "for j in 0..N { for i in 0..N { s[i] = s[2] # A[i][j] * A[j][i]; } }";
        agrees_with_get(&odd_full((0, 1)), nest, |op, a, _, s| {
            for j in 0..4 {
                for i in 0..4 {
                    s[i] = op(s[2], a.get(i, j) * a.get(j, i));
                }
            }
        })
    }

    const ROWS: &str = "for i in 0..N { for j in 0..N { s[i] = s[i] # A[i][j] * x[j]; } }";

    /// `ROWS` with `#` as `sign` over a 4×4 CSR of `entries`: `s`
    /// afterwards, as bits, which must be what the same loops leave in
    /// it over `get`.
    fn rows(
        sign: char,
        entries: &[(usize, usize, f64)],
        x: [f64; 4],
        s: [f64; 4],
    ) -> Result<Vec<u64>, crate::IrError> {
        let a = Csr::from_triplets(&Triplets::from_entries(4, 4, entries));
        let mut want = s;
        for (i, s) in want.iter_mut().enumerate() {
            for (j, x) in x.iter().enumerate() {
                let p = a.get(i, j) * x;
                *s = if sign == '+' { *s + p } else { *s - p };
            }
        }
        let got = run_nest(&ROWS.replace('#', &sign.to_string()), &a, &x, s)?;
        assert_eq!(
            got,
            (String::new(), bits(&want)),
            "{sign} {entries:?} {x:?} {s:?}"
        );
        Ok(got.1)
    }

    /// `+0.0 × ∞` and `+0.0 × NaN` are NaN: a zero run whose other
    /// factor is not finite is not skipped.
    #[test]
    fn a_non_finite_factor_under_an_unstored_cell_makes_a_nan() -> Result<(), crate::IrError> {
        let stored = [(0, 0, 1.0), (1, 3, 2.0)];
        for odd in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let s = rows('+', &stored, [1.0, odd, 2.0, 3.0], [0.5; 4])?;
            assert!(s.iter().all(|&x| f64::from_bits(x).is_nan()), "{odd}");
        }
        Ok(())
    }

    /// `-0.0 + (+0.0 × 3.0)` is `+0.0`, and so is `-0.0 - (+0.0 × -3.0)`:
    /// a held `-0.0` is not carried over a zero run.
    #[test]
    fn a_negative_zero_accumulator_meets_an_unstored_cell() -> Result<(), crate::IrError> {
        let s = [-0.0, -0.0, 1.0, -0.0];
        let plus = rows('+', &[(1, 1, 2.0)], [3.0, 1.0, 2.0, 4.0], s)?;
        assert_eq!(plus[0], 0.0f64.to_bits());
        let minus = rows('-', &[(1, 1, 2.0)], [-3.0, -1.0, -2.0, -4.0], s)?;
        assert_eq!(minus[0], 0.0f64.to_bits());
        Ok(())
    }

    /// ts's scatter: `b[1] = -0.0 - (+0.0 × -2.0)` is `+0.0`, so a zero
    /// run over a vector that holds `-0.0` runs.
    #[test]
    fn a_scatter_over_a_negative_zero_keeps_the_bits_of_get() -> Result<(), crate::IrError> {
        let a = Csr::from_triplets(&Triplets::from_entries(4, 4, &[(3, 0, 1.0)]));
        let nest = "for j in 0..N { for i in j+1..N { s[i] = s[i] - A[i][j] * s[j]; } }";
        let got = run_nest(nest, &a, &[0.0; 4], [-2.0, -0.0, 5.0, 1.0])?;
        assert_eq!(got, (String::new(), bits(&[-2.0, 0.0, 5.0, 3.0])));
        Ok(())
    }

    /// A stored `+0.0` and a stored `-0.0` are visited as stored: each
    /// turns a held `-0.0` into `+0.0` where its product is `+0.0`, and
    /// the unstored cells after it, under negative `x`, would not.
    #[test]
    fn stored_zeros_are_processed_as_stored() -> Result<(), crate::IrError> {
        let (stored, s) = ([(0, 0, 0.0), (1, 0, -0.0)], [-0.0, -0.0, 1.0, 1.0]);
        let positive = rows('+', &stored, [2.0, -1.0, -1.0, -1.0], s)?;
        assert_eq!(positive[..2], [0.0f64.to_bits(), (-0.0f64).to_bits()]);
        let negative = rows('+', &stored, [-2.0, -1.0, -1.0, -1.0], s)?;
        assert_eq!(negative[..2], [(-0.0f64).to_bits(), 0.0f64.to_bits()]);
        Ok(())
    }

    /// A matrix whose `entries()` come last to first.
    struct Reversed(Csr);

    impl SparseMatrix for Reversed {
        fn nrows(&self) -> usize {
            self.0.nrows()
        }
        fn ncols(&self) -> usize {
            self.0.ncols()
        }
        fn nnz(&self) -> usize {
            self.0.nnz()
        }
        fn get(&self, r: usize, c: usize) -> f64 {
            self.0.get(r, c)
        }
        fn entries(&self) -> Vec<(usize, usize, f64)> {
            self.0.entries().into_iter().rev().collect()
        }
    }

    /// Entries out of order make the row order through the column
    /// order: a search, in the tree and in a whole loop, a row line and
    /// a column line still read `get`'s bits.
    #[test]
    fn entries_out_of_order_keep_the_bits_of_get() -> Result<(), crate::IrError> {
        let (a, x, s) = (
            Reversed(odd_full((0, 1))),
            [1.0, -2.0, -0.0, 3.0],
            [7.0, -0.0, 1.5, 0.5],
        );
        let mut want = s;
        for (i, x) in x.iter().enumerate() {
            want[i] -= a.get(i, i) * x;
        }
        let got = run_nest("for i in 0..N { s[i] = s[i] - A[i][i] * x[i]; }", &a, &x, s)?;
        assert_eq!(got, (String::new(), bits(&want)));
        let mut want = s;
        for (i, s) in want.iter_mut().enumerate() {
            *s = a.get(i, i);
            for j in 0..4 {
                *s += a.get(i, j) * a.get(j, i);
            }
        }
        let nest =
            "for i in 0..N { s[i] = A[i][i]; for j in 0..N { s[i] = s[i] + A[i][j] * A[j][i]; } }";
        let got = run_nest(nest, &a, &x, s)?;
        assert_eq!(got, (String::new(), bits(&want)));
        Ok(())
    }

    #[test]
    fn sparse_matrix_as_input() {
        // The executor accepts any SparseMatrix implementor.
        let src = r#"
            program sum(N) {
              in matrix A[N][N];
              inout vector s[1];
              for i in 0..N {
                for j in 0..N {
                  s[0] = s[0] + A[i][j];
                }
              }
            }
        "#;
        let p = parse_program(src).unwrap();
        let a = bernoulli_formats::Csr::from_triplets(&Triplets::from_entries(
            3,
            3,
            &[(0, 0, 1.0), (2, 1, 2.0)],
        ));
        let mut env = DenseEnv::new()
            .param("N", 3)
            .vector("s", vec![0.0])
            .matrix("A", &a);
        run_dense(&p, &mut env).unwrap();
        assert_eq!(env.take_vector("s"), vec![3.0]);
    }
}
