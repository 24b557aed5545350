//! Generated inputs: the (kernel, format) keys, their operands, and the
//! oracles the outputs are checked against.

use bernoulli::blas::{handwritten as hand, kernels, synth as committed};
use bernoulli::formats::formats::sparsevec::{hashvec_format_view, sparsevec_format_view};
use bernoulli::formats::view::FormatView;
use bernoulli::formats::{gen, Bsr, Csc, Csr, Jad, Triplets};
use bernoulli::ir::{run_dense, DenseEnv, Program};
use bernoulli::synth::{EmitError, SynthError};
use bernoulli::{
    CompiledKernel, KernelArg, KernelBackend, KernelCallError, LoadError, LoadedKernel,
};

/// A (kernel, format) pair, written `mvm_csr` in metric names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key {
    pub kernel: &'static str,
    pub format: &'static str,
}

impl Key {
    pub const fn new(kernel: &'static str, format: &'static str) -> Key {
        Key { kernel, format }
    }

    pub fn name(&self) -> String {
        format!("{}_{}", self.kernel, self.format)
    }

    pub fn is_ts(&self) -> bool {
        self.kernel == "ts"
    }

    /// The dense program (as the library specifies it) and the name of
    /// its matrix.
    pub fn spec(&self) -> (Program, &'static str) {
        committed::spec_for(self.kernel)
    }

    pub fn view(&self) -> FormatView {
        committed::view_for(self.kernel, self.format)
    }
}

/// The six pairs of the paper's Fig. 12.
pub const STREAM_KEYS: [Key; 6] = [
    Key::new("mvm", "csr"),
    Key::new("mvm", "csc"),
    Key::new("mvm", "jad"),
    Key::new("ts", "csr"),
    Key::new("ts", "csc"),
    Key::new("ts", "jad"),
];

/// The seven requests of `jit_request`; per-key metric names are
/// fixed to these.
pub const JIT_KEYS: [Key; 7] = [
    Key::new("mvm", "csr"),
    Key::new("mvm", "jad"),
    Key::new("mvmt", "csc"),
    Key::new("ts", "csr"),
    Key::new("ts", "csc"),
    Key::new("ts", "jad"),
    Key::new("mvm", "bsr2x2"),
];

/// A problem `service_mix` asks the service to compile.
pub struct Problem {
    pub name: String,
    pub program: Program,
    pub views: Vec<(&'static str, FormatView)>,
}

/// The 21 problems of `service_mix`: every committed (kernel, format)
/// pair plus the two sparse dot-product joins.
pub fn service_problems() -> Vec<Problem> {
    let mut out: Vec<Problem> = committed::GENERATED_KERNELS
        .iter()
        .map(|&(kernel, format)| {
            let key = Key::new(kernel, format);
            let (program, matrix) = key.spec();
            Problem {
                name: key.name(),
                program,
                views: vec![(matrix, key.view())],
            }
        })
        .collect();
    out.push(Problem {
        name: "spdot_merge".to_string(),
        program: kernels::spdot(),
        views: vec![
            ("x", sparsevec_format_view()),
            ("y", sparsevec_format_view()),
        ],
    });
    out.push(Problem {
        name: "spdot_hash".to_string(),
        program: kernels::spdot(),
        views: vec![("x", sparsevec_format_view()), ("y", hashvec_format_view())],
    });
    out
}

/// A matrix stored in the format a key names.
pub enum Stored {
    Csr(Csr<f64>),
    Csc(Csc<f64>),
    Jad(Jad<f64>),
    Bsr(Bsr<f64>),
}

impl Stored {
    pub fn build(format: &str, t: &Triplets<f64>) -> Stored {
        match format {
            "csr" => Stored::Csr(Csr::from_triplets(t)),
            "csc" => Stored::Csc(Csc::from_triplets(t)),
            "jad" => Stored::Jad(Jad::from_triplets(t)),
            "bsr2x2" => Stored::Bsr(Bsr::from_triplets(t, 2, 2)),
            other => panic!("the benchmark stores no {other} matrices"),
        }
    }

    fn arg(&self) -> KernelArg<'_> {
        match self {
            Stored::Csr(a) => KernelArg::Csr(a),
            Stored::Csc(a) => KernelArg::Csc(a),
            Stored::Jad(a) => KernelArg::Jad(a),
            Stored::Bsr(a) => KernelArg::Bsr(a),
        }
    }

    /// Bytes of the stored image (index arrays and values); computed,
    /// not measured.
    pub fn bytes(&self) -> usize {
        let w = std::mem::size_of::<usize>();
        match self {
            Stored::Csr(a) => (a.rowptr.len() + a.colind.len()) * w + a.values.len() * 8,
            Stored::Csc(a) => (a.colptr.len() + a.rowind.len()) * w + a.values.len() * 8,
            Stored::Jad(a) => {
                (a.iperm.len() + a.iperm_inv.len() + a.dptr.len() + a.colind.len() + a.rowlen.len())
                    * w
                    + a.values.len() * 8
            }
            Stored::Bsr(a) => (a.browptr.len() + a.bcolind.len()) * w + a.values.len() * 8,
        }
    }
}

/// One key's operands: the stored matrix, the input vector (MVM) or
/// right-hand side (TS), and the buffer the kernel writes.
pub struct Lane {
    pub key: Key,
    pub matrix: Stored,
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: usize,
    /// `x` for MVM and its transpose, the right-hand side for TS.
    pub input: Vec<f64>,
    pub out: Vec<f64>,
    /// How long the format conversion took, in seconds.
    pub build_secs: f64,
}

impl Lane {
    /// `t` is the full matrix for MVM keys and its lower triangle for
    /// TS keys.
    pub fn new(key: Key, t: &Triplets<f64>, seed: u64) -> Lane {
        let (nrows, ncols) = (t.nrows(), t.ncols());
        let in_len = if key.kernel == "mvmt" { nrows } else { ncols };
        let out_len = if key.kernel == "mvmt" { ncols } else { nrows };
        let t0 = std::time::Instant::now();
        let matrix = Stored::build(key.format, t);
        Lane {
            key,
            matrix,
            build_secs: t0.elapsed().as_secs_f64(),
            nrows,
            ncols,
            nnz: t.nnz(),
            input: gen::dense_vector(in_len, seed),
            out: vec![0.0; out_len],
        }
    }

    /// Puts the output buffer in its starting state: zero for `y += A·x`,
    /// the right-hand side for the in-place solve.
    pub fn reset(&mut self) {
        if self.key.is_ts() {
            self.out.copy_from_slice(&self.input);
        } else {
            self.out.fill(0.0);
        }
    }

    /// Bytes one call moves at least: the matrix image once, and each
    /// vector once. Computed, not measured.
    pub fn working_set_bytes(&self) -> usize {
        let vectors = if self.key.is_ts() {
            self.out.len()
        } else {
            self.input.len() + self.out.len()
        };
        self.matrix.bytes() + vectors * 8
    }

    /// Calls `f` with the positional parameters and operands every
    /// backend of this key takes.
    fn with_args<R>(&mut self, f: impl FnOnce(&[i64], &mut [KernelArg<'_>]) -> R) -> R {
        if self.key.is_ts() {
            f(
                &[self.nrows as i64],
                &mut [self.matrix.arg(), KernelArg::Out(&mut self.out)],
            )
        } else {
            f(
                &[self.nrows as i64, self.ncols as i64],
                &mut [
                    self.matrix.arg(),
                    KernelArg::In(&self.input),
                    KernelArg::Out(&mut self.out),
                ],
            )
        }
    }

    /// One call of the loaded (runtime-compiled) kernel.
    pub fn run_loaded(&mut self, k: &LoadedKernel) -> Result<(), KernelCallError> {
        self.with_args(|params, args| k.run(params, args))
    }

    /// One call of the loaded MVM/CSR kernel over two row bands on two
    /// pool lanes.
    pub fn run_loaded_on_two_lanes(&mut self, k: &LoadedKernel) -> Result<(), KernelCallError> {
        let Stored::Csr(a) = &self.matrix else {
            panic!("only the mvm/csr lane runs on two pool lanes");
        };
        bernoulli::blas::par::par_loaded_mvm_csr(k, a, &self.input, &mut self.out, 2)
    }

    /// One call through the plan interpreter, the path the library
    /// serves when a native kernel cannot be had.
    pub fn run_interpreted(&mut self, k: &CompiledKernel) -> Result<(), SynthError> {
        let fallback = KernelBackend::Interpreted {
            reason: LoadError::Emit(EmitError("benchmark lane".to_string())),
        };
        self.with_args(|params, args| k.run_with(&fallback, params, args))
    }

    /// One call of the hand-written kernel (the paper's NIST C role).
    /// Only the six Fig. 12 pairs have one here.
    pub fn run_hand(&mut self) {
        let (x, y) = (&self.input, &mut self.out);
        match (self.key.kernel, &self.matrix) {
            ("mvm", Stored::Csr(a)) => hand::mvm_csr(a, x, y),
            ("mvm", Stored::Csc(a)) => hand::mvm_csc(a, x, y),
            ("mvm", Stored::Jad(a)) => hand::mvm_jad(a, x, y),
            ("ts", Stored::Csr(l)) => hand::ts_csr(l, y),
            ("ts", Stored::Csc(l)) => hand::ts_csc(l, y),
            ("ts", Stored::Jad(l)) => hand::ts_jad(l, y),
            _ => panic!("no hand-written lane for {}", self.key.name()),
        }
    }

    /// One call of the synthesized kernel committed in the library
    /// (same plan as the loaded one, built in the crate's context).
    pub fn run_committed(&mut self) {
        let (m, n) = (self.nrows as i64, self.ncols as i64);
        let (x, y) = (&self.input, &mut self.out);
        match (self.key.kernel, &self.matrix) {
            ("mvm", Stored::Csr(a)) => committed::mvm_csr(m, n, a, x, y),
            ("mvm", Stored::Csc(a)) => committed::mvm_csc(m, n, a, x, y),
            ("mvm", Stored::Jad(a)) => committed::mvm_jad(m, n, a, x, y),
            ("ts", Stored::Csr(l)) => committed::ts_csr(m, l, y),
            ("ts", Stored::Csc(l)) => committed::ts_csc(m, l, y),
            ("ts", Stored::Jad(l)) => committed::ts_jad(m, l, y),
            _ => panic!("no committed lane for {}", self.key.name()),
        }
    }

    /// What the dense reference executor computes for this lane: the
    /// oracle for inputs small enough to run densely.
    pub fn dense_reference(&self, program: &Program, matrix_name: &str) -> Vec<f64> {
        let stored: &dyn bernoulli::formats::SparseMatrix = match &self.matrix {
            Stored::Csr(a) => a,
            Stored::Csc(a) => a,
            Stored::Jad(a) => a,
            Stored::Bsr(a) => a,
        };
        let mut env = DenseEnv::new().matrix(matrix_name, stored);
        let out_name = if self.key.is_ts() {
            env = env
                .param("N", self.nrows as i64)
                .vector("b", self.input.clone());
            "b"
        } else {
            env = env
                .param("M", self.nrows as i64)
                .param("N", self.ncols as i64)
                .vector("x", self.input.clone())
                .vector("y", vec![0.0; self.out.len()]);
            "y"
        };
        run_dense(program, &mut env).expect("the reference executor runs the library's own specs");
        env.take_vector(out_name)
    }
}

/// True when `got` equals `want` to a relative 1e-9 (synthesized
/// kernels reassociate reductions, so equality is not bitwise).
pub fn close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * g.abs().max(w.abs()).max(1.0))
}

/// The matrix of the paper's evaluation, `factor` copies of it coupled
/// along the diagonal, the lower triangle the solves use, and how long
/// each took to make, in seconds.
pub struct Matrices {
    pub full: Triplets<f64>,
    pub lower: Triplets<f64>,
    pub scale_secs: f64,
    pub lower_secs: f64,
}

pub fn matrices(factor: usize, seed: u64) -> Matrices {
    let base = gen::can_1072_like();
    let t0 = std::time::Instant::now();
    let full = if factor == 1 {
        base
    } else {
        gen::scale(&base, factor, seed)
    };
    let scale_secs = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let lower = full.lower_triangle_full_diag(1.0);
    Matrices {
        full,
        lower,
        scale_secs,
        lower_secs: t0.elapsed().as_secs_f64(),
    }
}

/// The lanes of `keys` over `m`: the full matrix for MVM keys, the
/// lower triangle for TS keys.
pub fn lanes(keys: &[Key], m: &Matrices, seed: u64) -> Vec<Lane> {
    keys.iter()
        .map(|&k| Lane::new(k, if k.is_ts() { &m.lower } else { &m.full }, seed))
        .collect()
}
