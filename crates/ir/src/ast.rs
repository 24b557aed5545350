//! Program representation: imperfectly-nested affine loop trees.

use crate::expr::AffineExpr;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Shape of a declared array.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ArrayKind {
    /// Two-dimensional matrix (candidate for sparse storage).
    Matrix,
    /// One-dimensional vector (always dense in this paper's setting).
    Vector,
}

/// Dataflow role of a declared array.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Role {
    In,
    Out,
    InOut,
}

/// An array declaration.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct ArrayDecl {
    pub name: String,
    pub kind: ArrayKind,
    pub role: Role,
    /// Declared extents (affine in the program parameters).
    pub dims: Vec<AffineExpr>,
}

/// A reference `array[idx...]` (1 index for vectors, 2 for matrices).
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct LhsRef {
    pub array: String,
    pub idxs: Vec<AffineExpr>,
}

/// Scalar right-hand-side expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum ValueExpr {
    Const(f64),
    /// `array[idx...]` read.
    Read(LhsRef),
    Add(Box<ValueExpr>, Box<ValueExpr>),
    Sub(Box<ValueExpr>, Box<ValueExpr>),
    Mul(Box<ValueExpr>, Box<ValueExpr>),
    Div(Box<ValueExpr>, Box<ValueExpr>),
    Neg(Box<ValueExpr>),
}

/// Constants hash by bit pattern: a `NaN` hashes like any other value,
/// and `0.0` and `-0.0`, which print apart, hash apart.
impl Hash for ValueExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            ValueExpr::Const(c) => c.to_bits().hash(state),
            ValueExpr::Read(r) => r.hash(state),
            ValueExpr::Add(a, b)
            | ValueExpr::Sub(a, b)
            | ValueExpr::Mul(a, b)
            | ValueExpr::Div(a, b) => {
                a.hash(state);
                b.hash(state);
            }
            ValueExpr::Neg(a) => a.hash(state),
        }
    }
}

impl ValueExpr {
    /// All array reads in the expression, in evaluation order.
    pub fn reads(&self) -> Vec<&LhsRef> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads<'a>(&'a self, out: &mut Vec<&'a LhsRef>) {
        match self {
            ValueExpr::Const(_) => {}
            ValueExpr::Read(r) => out.push(r),
            ValueExpr::Add(a, b)
            | ValueExpr::Sub(a, b)
            | ValueExpr::Mul(a, b)
            | ValueExpr::Div(a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            ValueExpr::Neg(a) => a.collect_reads(out),
        }
    }

    /// Evaluates the tree, left operand first, asking `read` for the
    /// value of each array read as it is reached — the order of
    /// [`ValueExpr::reads`], so an executor can keep its resolved reads
    /// in a table beside the statement.
    pub fn eval_with<E, F>(&self, read: &mut F) -> Result<f64, E>
    where
        F: FnMut(&LhsRef) -> Result<f64, E>,
    {
        Ok(match self {
            ValueExpr::Const(c) => *c,
            ValueExpr::Read(r) => read(r)?,
            ValueExpr::Add(a, b) => a.eval_with(read)? + b.eval_with(read)?,
            ValueExpr::Sub(a, b) => a.eval_with(read)? - b.eval_with(read)?,
            ValueExpr::Mul(a, b) => a.eval_with(read)? * b.eval_with(read)?,
            ValueExpr::Div(a, b) => a.eval_with(read)? / b.eval_with(read)?,
            ValueExpr::Neg(a) => -a.eval_with(read)?,
        })
    }
}

/// An assignment statement `lhs = rhs`.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Statement {
    pub lhs: LhsRef,
    pub rhs: ValueExpr,
}

/// A `for var in lo..hi` loop (half-open, stride 1, affine bounds).
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Loop {
    pub var: String,
    pub lo: AffineExpr,
    /// Exclusive upper bound.
    pub hi: AffineExpr,
    pub body: Vec<Node>,
}

/// A node of the loop tree.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Node {
    Loop(Loop),
    Stmt(Statement),
}

/// A complete dense-matrix program.
///
/// `Hash` is the structural fingerprint the synthesis caches look
/// programs up by; `==` confirms a match.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Program {
    pub name: String,
    /// Symbolic size parameters (e.g. `N`).
    pub params: Vec<String>,
    pub arrays: Vec<ArrayDecl>,
    pub body: Vec<Node>,
}

/// Flattened information about one statement: its id (syntactic order),
/// enclosing loops outermost-first, and its textual position used for
/// original-program-order tie-breaking.
#[derive(Clone, Debug)]
pub struct StmtInfo {
    /// Index in syntactic order (S1 = 0, S2 = 1, ...).
    pub id: usize,
    /// Enclosing loops, outermost first: (var, lo, hi-exclusive).
    pub loops: Vec<(String, AffineExpr, AffineExpr)>,
    /// Position path in the tree (child indices), for syntactic order
    /// comparisons at equal loop depth.
    pub path: Vec<usize>,
    pub stmt: Statement,
}

impl StmtInfo {
    /// Loop variable names, outermost first.
    pub fn loop_vars(&self) -> Vec<&str> {
        self.loops.iter().map(|(v, _, _)| v.as_str()).collect()
    }

    /// Every access of the statement: the write (first) then all reads.
    pub fn accesses(&self) -> Vec<(&LhsRef, bool)> {
        let mut out = vec![(&self.stmt.lhs, true)];
        out.extend(self.stmt.rhs.reads().into_iter().map(|r| (r, false)));
        out
    }

    /// Number of loops shared with another statement (length of the
    /// common prefix of loop variable lists *and* tree paths).
    pub fn shared_loops(&self, other: &StmtInfo) -> usize {
        let mut n = 0;
        // Two statements share a loop only when it is literally the same
        // loop node, i.e. their paths agree on the step entering it.
        while n < self.loops.len()
            && n < other.loops.len()
            && self.loops[n].0 == other.loops[n].0
            && self.path.get(n) == other.path.get(n)
        {
            n += 1;
        }
        n
    }

    /// True iff `self` precedes `other` syntactically (textual order).
    pub fn before(&self, other: &StmtInfo) -> bool {
        self.path < other.path
    }
}

/// A semantically invalid [`Program`]: an undeclared array, a
/// wrong-arity reference, an out-of-scope variable, or shadowing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateError(pub String);

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid program: {}", self.0)
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Finds an array declaration by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Semantic validation: every referenced array is declared with the
    /// right arity, every index expression only uses loop variables in
    /// scope and parameters, and loop variables don't shadow parameters.
    pub fn validate(&self) -> Result<(), ValidateError> {
        self.validate_inner().map_err(ValidateError)
    }

    fn validate_inner(&self) -> Result<(), String> {
        // `what` is only formatted into the error: a valid program is
        // walked without allocating.
        fn check_expr(
            p: &Program,
            scope: &[&str],
            e: &AffineExpr,
            what: fmt::Arguments<'_>,
        ) -> Result<(), String> {
            for (v, _) in e.terms() {
                if !scope.contains(&v) && !p.params.iter().any(|q| q == v) {
                    return Err(format!("{what}: variable {v:?} is not in scope"));
                }
            }
            Ok(())
        }
        fn check_ref(p: &Program, scope: &[&str], r: &LhsRef) -> Result<(), String> {
            let decl = p
                .array(&r.array)
                .ok_or_else(|| format!("array {:?} is not declared", r.array))?;
            let need = match decl.kind {
                ArrayKind::Matrix => 2,
                ArrayKind::Vector => 1,
            };
            if r.idxs.len() != need {
                return Err(format!(
                    "array {:?} used with {} indices, declared with {need}",
                    r.array,
                    r.idxs.len()
                ));
            }
            for e in &r.idxs {
                check_expr(p, scope, e, format_args!("index of {:?}", r.array))?;
            }
            Ok(())
        }
        fn walk<'p>(
            p: &'p Program,
            scope: &mut Vec<&'p str>,
            nodes: &'p [Node],
        ) -> Result<(), String> {
            for n in nodes {
                match n {
                    Node::Loop(l) => {
                        if p.params.iter().any(|q| q == &l.var) {
                            return Err(format!("loop variable {:?} shadows a parameter", l.var));
                        }
                        if scope.contains(&l.var.as_str()) {
                            return Err(format!("loop variable {:?} shadows an outer loop", l.var));
                        }
                        check_expr(p, scope, &l.lo, format_args!("loop lower bound"))?;
                        check_expr(p, scope, &l.hi, format_args!("loop upper bound"))?;
                        scope.push(&l.var);
                        walk(p, scope, &l.body)?;
                        scope.pop();
                    }
                    Node::Stmt(st) => {
                        check_ref(p, scope, &st.lhs)?;
                        for r in st.rhs.reads() {
                            check_ref(p, scope, r)?;
                        }
                    }
                }
            }
            Ok(())
        }
        for a in &self.arrays {
            for d in &a.dims {
                check_expr(
                    self,
                    &[],
                    d,
                    format_args!("declared extent of {:?}", a.name),
                )?;
            }
        }
        walk(self, &mut Vec::new(), &self.body)
    }

    /// Flattens the loop tree into per-statement records, in syntactic
    /// order.
    pub fn statements(&self) -> Vec<StmtInfo> {
        let mut out = Vec::new();
        let mut loops = Vec::new();
        let mut path = Vec::new();
        collect(&self.body, &mut loops, &mut path, &mut out);
        out
    }

    /// The matrices referenced by the program (candidates for sparse
    /// instantiation).
    pub fn matrices(&self) -> Vec<&ArrayDecl> {
        self.arrays
            .iter()
            .filter(|a| a.kind == ArrayKind::Matrix)
            .collect()
    }
}

fn collect(
    nodes: &[Node],
    loops: &mut Vec<(String, AffineExpr, AffineExpr)>,
    path: &mut Vec<usize>,
    out: &mut Vec<StmtInfo>,
) {
    for (k, node) in nodes.iter().enumerate() {
        path.push(k);
        match node {
            Node::Stmt(s) => out.push(StmtInfo {
                id: out.len(),
                loops: loops.clone(),
                path: path.clone(),
                stmt: s.clone(),
            }),
            Node::Loop(l) => {
                loops.push((l.var.clone(), l.lo.clone(), l.hi.clone()));
                collect(&l.body, loops, path, out);
                loops.pop();
            }
        }
        path.pop();
    }
}

impl fmt::Display for ValueExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueExpr::Const(c) => write!(f, "{c}"),
            ValueExpr::Read(r) => write!(f, "{r}"),
            ValueExpr::Add(a, b) => write!(f, "({a} + {b})"),
            ValueExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            ValueExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            ValueExpr::Div(a, b) => write!(f, "({a} / {b})"),
            ValueExpr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

impl fmt::Display for LhsRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for i in &self.idxs {
            write!(f, "[{i}]")?;
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {}({}) {{", self.name, self.params.join(", "))?;
        for a in &self.arrays {
            let role = match a.role {
                Role::In => "in ",
                Role::Out => "out ",
                Role::InOut => "inout ",
            };
            let kind = match a.kind {
                ArrayKind::Matrix => "matrix",
                ArrayKind::Vector => "vector",
            };
            write!(f, "  {role}{kind} {}", a.name)?;
            for d in &a.dims {
                write!(f, "[{d}]")?;
            }
            writeln!(f, ";")?;
        }
        fn emit(nodes: &[Node], depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(depth);
            for n in nodes {
                match n {
                    Node::Stmt(s) => writeln!(f, "{pad}{} = {};", s.lhs, s.rhs)?,
                    Node::Loop(l) => {
                        writeln!(f, "{pad}for {} in {}..{} {{", l.var, l.lo, l.hi)?;
                        emit(&l.body, depth + 1, f)?;
                        writeln!(f, "{pad}}}")?;
                    }
                }
            }
            Ok(())
        }
        emit(&self.body, 1, f)?;
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's triangular solve by hand.
    pub(crate) fn ts_program() -> Program {
        let j = AffineExpr::var("j");
        let i = AffineExpr::var("i");
        let n = AffineExpr::var("N");
        let b_j = LhsRef {
            array: "b".into(),
            idxs: vec![j.clone()],
        };
        let b_i = LhsRef {
            array: "b".into(),
            idxs: vec![i.clone()],
        };
        let l_jj = LhsRef {
            array: "L".into(),
            idxs: vec![j.clone(), j.clone()],
        };
        let l_ij = LhsRef {
            array: "L".into(),
            idxs: vec![i.clone(), j.clone()],
        };
        let s1 = Statement {
            lhs: b_j.clone(),
            rhs: ValueExpr::Div(
                Box::new(ValueExpr::Read(b_j.clone())),
                Box::new(ValueExpr::Read(l_jj)),
            ),
        };
        let s2 = Statement {
            lhs: b_i.clone(),
            rhs: ValueExpr::Sub(
                Box::new(ValueExpr::Read(b_i)),
                Box::new(ValueExpr::Mul(
                    Box::new(ValueExpr::Read(l_ij)),
                    Box::new(ValueExpr::Read(b_j)),
                )),
            ),
        };
        Program {
            name: "ts".into(),
            params: vec!["N".into()],
            arrays: vec![
                ArrayDecl {
                    name: "L".into(),
                    kind: ArrayKind::Matrix,
                    role: Role::In,
                    dims: vec![n.clone(), n.clone()],
                },
                ArrayDecl {
                    name: "b".into(),
                    kind: ArrayKind::Vector,
                    role: Role::InOut,
                    dims: vec![n.clone()],
                },
            ],
            body: vec![Node::Loop(Loop {
                var: "j".into(),
                lo: AffineExpr::constant(0),
                hi: n.clone(),
                body: vec![
                    Node::Stmt(s1),
                    Node::Loop(Loop {
                        var: "i".into(),
                        lo: &j + &AffineExpr::constant(1),
                        hi: n,
                        body: vec![Node::Stmt(s2)],
                    }),
                ],
            })],
        }
    }

    #[test]
    fn statement_flattening() {
        let p = ts_program();
        let stmts = p.statements();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].id, 0);
        assert_eq!(stmts[0].loop_vars(), vec!["j"]);
        assert_eq!(stmts[1].loop_vars(), vec!["j", "i"]);
        assert_eq!(stmts[0].path, vec![0, 0]);
        assert_eq!(stmts[1].path, vec![0, 1, 0]);
        assert!(stmts[0].before(&stmts[1]));
        assert_eq!(stmts[0].shared_loops(&stmts[1]), 1);
    }

    #[test]
    fn accesses() {
        let p = ts_program();
        let stmts = p.statements();
        let acc1 = stmts[0].accesses();
        // write b[j]; reads b[j], L[j][j]
        assert_eq!(acc1.len(), 3);
        assert!(acc1[0].1);
        assert_eq!(acc1[0].0.array, "b");
        assert_eq!(acc1[2].0.array, "L");
        let acc2 = stmts[1].accesses();
        assert_eq!(acc2.len(), 4);
    }

    #[test]
    fn display_roundtrips_visually() {
        let p = ts_program();
        let s = p.to_string();
        assert!(s.contains("program ts(N)"));
        assert!(s.contains("for j in 0..N"));
        assert!(s.contains("for i in j + 1..N"));
        assert!(s.contains("b[j] = (b[j] / L[j][j]);"));
    }

    #[test]
    fn matrices_listed() {
        let p = ts_program();
        let ms = p.matrices();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].name, "L");
    }

    #[test]
    fn validation_accepts_good_programs() {
        ts_program().validate().unwrap();
    }

    #[test]
    fn validation_catches_undeclared_arrays() {
        let mut p = ts_program();
        p.arrays.retain(|a| a.name != "b");
        let err = p.validate().unwrap_err();
        assert!(err.0.contains("\"b\""), "{err}");
    }

    #[test]
    fn validation_catches_out_of_scope_vars() {
        let mut p = ts_program();
        // Replace S1's index with an undefined variable.
        if let Node::Loop(l) = &mut p.body[0] {
            if let Node::Stmt(s) = &mut l.body[0] {
                s.lhs.idxs[0] = AffineExpr::var("zz");
            }
        }
        let err = p.validate().unwrap_err();
        assert!(err.0.contains("zz"), "{err}");
    }

    #[test]
    fn validation_catches_wrong_arity() {
        let mut p = ts_program();
        if let Node::Loop(l) = &mut p.body[0] {
            if let Node::Stmt(s) = &mut l.body[0] {
                s.lhs.idxs.push(AffineExpr::var("j")); // vector with 2 idxs
            }
        }
        let err = p.validate().unwrap_err();
        assert!(err.0.contains("indices"), "{err}");
    }
}
