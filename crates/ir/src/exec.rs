//! The reference dense executor.
//!
//! Runs a [`Program`] literally, with every matrix accessed through the
//! high-level (random-access) API. This is the semantics the synthesized
//! sparse code must reproduce — every integration test compares a plan's
//! output against this executor.

use crate::ast::*;
use crate::expr::{AffineExpr, SlotExpr};
use bernoulli_formats::SparseMatrix;
use std::collections::HashMap;

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
/// index out of range is an error from the iteration that computes it,
/// and what earlier iterations wrote stays written.
pub fn run_dense(p: &Program, env: &mut DenseEnv) -> Result<(), ExecError> {
    let (scope, mut frame): (Vec<&str>, Vec<i64>) =
        env.params.iter().map(|(n, v)| (n.as_str(), *v)).unzip();
    let (vector_names, vectors): (Vec<&str>, Vec<&mut [f64]>) = env
        .vectors
        .iter_mut()
        .map(|(n, v)| (n.as_str(), v.as_mut_slice()))
        .unzip();
    let mut names = Names {
        depth: scope.len(),
        scope,
        vectors: vector_names,
        matrices: &env.matrices,
    };

    // Check all declared arrays are bound and sized consistently.
    for a in &p.arrays {
        let extent = |k: usize| Ok(names.expr(&a.dims[k])?.eval(&frame));
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
    Machine { frame, vectors }.run(&ops)
}

/// The last binding of a name wins.
fn position(names: &[&str], name: &str) -> Option<usize> {
    names.iter().rposition(|n| *n == name)
}

/// A loop or a statement with every name in it resolved.
enum Op<'a> {
    Loop {
        slot: usize,
        lo: SlotExpr,
        hi: SlotExpr,
        body: Vec<Op<'a>>,
    },
    /// `vectors[to][at] = stmt.rhs`, the reads of `stmt.rhs` being
    /// `reads` in evaluation order; `stmt` words the error messages.
    Assign {
        stmt: &'a Statement,
        to: usize,
        at: SlotExpr,
        reads: Vec<Access<'a>>,
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
    /// The deepest the scope got: the frame's length.
    depth: usize,
    vectors: Vec<&'a str>,
    matrices: &'a HashMap<String, &'a dyn SparseMatrix>,
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
                self.scope.pop();
                Ok(Op::Loop { slot, lo, hi, body })
            }
            Node::Stmt(stmt) => {
                let reads = stmt.rhs.reads().into_iter().map(|r| self.access(r));
                let reads = reads.collect::<Result<_, _>>()?;
                match self.access(&stmt.lhs)? {
                    Access::Vector(to, at) => Ok(Op::Assign {
                        stmt,
                        to,
                        at,
                        reads,
                    }),
                    Access::Matrix(..) => Err(ExecError(format!(
                        "matrix {:?} is read-only in the reference executor",
                        stmt.lhs.array
                    ))),
                }
            }
        }
    }
}

/// The state of a run: the frame, and the vectors by table index.
struct Machine<'a> {
    frame: Vec<i64>,
    vectors: Vec<&'a mut [f64]>,
}

impl Machine<'_> {
    fn run(&mut self, ops: &[Op]) -> Result<(), ExecError> {
        for op in ops {
            match op {
                Op::Loop { slot, lo, hi, body } => {
                    for v in lo.eval(&self.frame)..hi.eval(&self.frame) {
                        self.frame[*slot] = v;
                        self.run(body)?;
                    }
                }
                Op::Assign {
                    stmt,
                    to,
                    at,
                    reads,
                } => {
                    let mut next = 0;
                    let value = stmt.rhs.eval_with(&mut |r| {
                        next += 1;
                        self.read(r, &reads[next - 1])
                    })?;
                    let (i, v) = (at.eval(&self.frame), &mut self.vectors[*to]);
                    if i < 0 || i as usize >= v.len() {
                        let lhs = &stmt.lhs;
                        return Err(ExecError(format!("bad vector write {lhs} at [{i}]")));
                    }
                    v[i as usize] = value;
                }
            }
        }
        Ok(())
    }

    fn read(&self, r: &LhsRef, read: &Access) -> Result<f64, ExecError> {
        match read {
            Access::Vector(k, i) => {
                let (i, v) = (i.eval(&self.frame), &self.vectors[*k]);
                if i < 0 || i as usize >= v.len() {
                    return Err(ExecError(format!("bad vector access {r} at [{i}]")));
                }
                Ok(v[i as usize])
            }
            Access::Matrix(m, i, j) => {
                let (i, j) = (i.eval(&self.frame), j.eval(&self.frame));
                if i < 0 || j < 0 || i as usize >= m.nrows() || j as usize >= m.ncols() {
                    return Err(ExecError(format!(
                        "matrix access {r} out of range at ({i},{j})"
                    )));
                }
                Ok(m.get(i as usize, j as usize))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use bernoulli_formats::{Dense, Triplets};

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
