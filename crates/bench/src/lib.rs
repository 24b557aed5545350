//! Workloads, timing, and paper-style reporting (paper §5) for the
//! `experiments` binary, which prints the paper's tables as compact
//! MFLOP/s tables for EXPERIMENTS.md. Everything that is not one of the
//! paper's tables is measured by the `benchmark/` package.

#![allow(clippy::needless_range_loop)]
use bernoulli_formats::{gen, Triplets};
use std::time::Instant;

/// The evaluation input: the synthetic stand-in for Harwell–Boeing
/// `can_1072` (see DESIGN.md substitution 1) — or, when the environment
/// variable `CAN1072_MTX` points at a Matrix Market file of the real
/// matrix, that file (pattern entries get unit values; the diagonal is
/// made structurally full for the TS operand, as the NIST drivers do).
pub fn can1072() -> Triplets<f64> {
    if let Ok(path) = std::env::var("CAN1072_MTX") {
        let file = std::fs::File::open(&path).unwrap_or_else(|e| panic!("CAN1072_MTX={path}: {e}"));
        let t = bernoulli_formats::io::read_matrix_market(std::io::BufReader::new(file))
            .unwrap_or_else(|e| panic!("CAN1072_MTX={path}: {e}"));
        eprintln!(
            "using real matrix from {path}: {}x{} nnz={}",
            t.nrows(),
            t.ncols(),
            t.nnz()
        );
        return t;
    }
    gen::can_1072_like()
}

/// Lower triangle (full diagonal) of [`can1072`] — the TS operand.
pub fn can1072_lower() -> Triplets<f64> {
    can1072().lower_triangle_full_diag(1.0)
}

/// Secondary inputs for the "representative for other inputs" claim (E3).
pub fn extra_inputs() -> Vec<(&'static str, Triplets<f64>)> {
    vec![
        ("poisson2d_32", gen::poisson2d(32)),
        ("banded_1000_b8", gen::banded(1000, 8, 17)),
        ("random_1000", gen::random_sparse(1000, 1000, 12000, 23)),
    ]
}

/// Median-of-runs wall time for `f`, in seconds, with a warmup run.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Best (minimum) of `rounds` medians — robust against noisy-neighbor
/// interference; use for cross-implementation comparisons.
pub fn time_best_of(rounds: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = time_median(reps, &mut f);
        if t < best {
            best = t;
        }
    }
    best
}

/// MFLOP/s for a kernel performing `flops` floating point operations.
pub fn mflops(flops: f64, seconds: f64) -> f64 {
    flops / seconds / 1e6
}

/// Useful FLOP counts: MVM does 2·nnz, TS does 2·nnz (one mul+sub per
/// off-diagonal entry, one divide per row; we follow the standard 2·nnz
/// accounting the sparse BLAS literature uses).
pub fn mvm_flops(nnz: usize) -> f64 {
    2.0 * nnz as f64
}

/// TS FLOP count (same 2·nnz convention).
pub fn ts_flops(nnz: usize) -> f64 {
    2.0 * nnz as f64
}

/// Prints one table row: label + MFLOP/s figures.
pub fn print_row(label: &str, cells: &[(String, f64)]) {
    print!("{label:<28}");
    for (name, v) in cells {
        print!(" {name}={v:8.1}");
    }
    println!();
}

/// Machine-readable benchmark reports: a minimal JSON value type and
/// writer, so every `experiments` subcommand can emit its table as
/// `BENCH_<name>.json` without external dependencies.
pub mod report {
    /// A JSON value. Non-finite numbers serialize as `null` (JSON has
    /// no NaN/Inf), everything else round-trips.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Convenience constructor for any numeric type.
        pub fn num(v: impl Into<f64>) -> Json {
            Json::Num(v.into())
        }

        /// Convenience constructor for strings.
        pub fn str(v: impl Into<String>) -> Json {
            Json::Str(v.into())
        }

        /// Serializes with two-space indentation and `\n` separators.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out, 0);
            out
        }

        fn render_into(&self, out: &mut String, depth: usize) {
            let pad = |out: &mut String, d: usize| {
                for _ in 0..d {
                    out.push_str("  ");
                }
            };
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(v) if !v.is_finite() => out.push_str("null"),
                Json::Num(v) => out.push_str(&format!("{v}")),
                Json::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\r' => out.push_str("\\r"),
                            '\t' => out.push_str("\\t"),
                            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Json::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        pad(out, depth + 1);
                        item.render_into(out, depth + 1);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    pad(out, depth);
                    out.push(']');
                }
                Json::Obj(fields) => {
                    if fields.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push_str("{\n");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        pad(out, depth + 1);
                        Json::Str(k.clone()).render_into(out, depth + 1);
                        out.push_str(": ");
                        v.render_into(out, depth + 1);
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    pad(out, depth);
                    out.push('}');
                }
            }
        }
    }

    /// An object builder that keeps insertion order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Writes `json` (plus a trailing newline) to `path` and logs it.
    pub fn write(path: &str, json: &Json) {
        let mut text = json.render();
        text.push('\n');
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_materialize() {
        let t = can1072();
        assert_eq!(t.nrows(), 1072);
        let l = can1072_lower();
        assert!(l.nnz() >= 1072);
        assert_eq!(extra_inputs().len(), 3);
    }

    #[test]
    fn report_renders_valid_json() {
        use report::{obj, Json};
        let j = obj(vec![
            ("name", Json::str("mvm \"csr\"\n")),
            ("mflops", Json::num(123.5)),
            ("count", Json::num(3u32)),
            ("nan", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("rows", Json::Arr(vec![Json::num(1u32), Json::Null])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = j.render();
        assert!(s.contains("\"mvm \\\"csr\\\"\\n\""));
        assert!(s.contains("\"mflops\": 123.5"));
        assert!(s.contains("\"count\": 3"));
        assert!(s.contains("\"nan\": null"));
        assert!(s.contains("\"empty\": []"));
        // Balanced brackets, comma-separated items.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn timing_is_positive() {
        let s = time_median(3, || {
            let mut acc = 0.0f64;
            for i in 0..1000 {
                acc += (i as f64).sqrt();
            }
            std::hint::black_box(acc);
        });
        assert!(s > 0.0);
        assert!(mflops(1e6, s) > 0.0);
    }
}
