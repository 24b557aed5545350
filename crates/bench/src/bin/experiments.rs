//! Experiment driver: prints the paper-style tables recorded in
//! EXPERIMENTS.md, and writes each table as machine-readable
//! `BENCH_<experiment>.json` in the working directory.
//!
//! Usage: `cargo run --release -p bernoulli-bench --bin experiments -- [all|fig12|mvm|join|order|costmodel|advisor|blocked]`
//!
//! These are the tables of the paper's evaluation that the `benchmark/`
//! package does not carry yet (ROADMAP item 4): Figs. 12/13 with the
//! `nist_c` / `nist_f` columns, the E3 format sweep, the E4 join and E5
//! order ablations, the E6 cost-model rank correlation, and `blocked`
//! and `advisor` below. Everything else — search, cache tiers, the
//! compile service, loaded kernels, parallel drivers — is measured by
//! `benchmark/`.
//!
//! `show <kernel> <format>` prints the plan chosen for one of the
//! committed pairs and the Rust emitted from it, and measures nothing.
//!
//! `blocked` measures the blocked performance tier (S39): BSR and VBR
//! vs CSR on synthetic FEM matrices across a dense-block fill sweep,
//! sequential hand-written vs loaded vs parallel loaded, with each
//! blocking's fill-in overhead, writing `BENCH_blocked.json`.
//!
//! `advisor` measures structure-aware selection (S40): `Session::advise`
//! picks a (format, plan) pair per instance from measured structure,
//! scored here as chosen-vs-best *regret* against interpreted kernel
//! times over every candidate, on a small (~1k-row) and a large
//! (≥10^5-row, via `gen::scale`) tier, writing `BENCH_advisor.json`.
//!
//! `blocked`'s parallel column (`par_loaded_mflops`) is written only
//! when the host has more than one core.

#![allow(clippy::needless_range_loop)]
use bernoulli_bench::report::{obj, Json};
use bernoulli_bench::*;
use bernoulli_blas::handwritten::{spdot_hash, spdot_merge};
use bernoulli_blas::{generic_rhs, handwritten as hw, kernels, synth};
use bernoulli_formats::{
    block_fill, discover_strips, gen, Bsr, Coo, Csc, Csr, Dia, Ell, HashVec, Jad, SparseMatrix,
    SparseVec, SparseView, Vbr,
};
use bernoulli_synth::{ExecEnv, Session, SynthOptions};
use std::hint::black_box;

const REPS: usize = 12;
const ROUNDS: usize = 8;

/// Noise-robust timing for the comparison tables.
fn timeit(f: impl FnMut()) -> f64 {
    time_best_of(ROUNDS, REPS, f)
}

/// Whether parallel columns mean anything here: on a one-core host a
/// "speedup" is pool overhead, so the columns are left out of the
/// report rather than recorded as data.
fn host_is_parallel(table: &str) -> bool {
    let parallel = std::thread::available_parallelism().map_or(1, |c| c.get()) > 1;
    if !parallel {
        eprintln!("{table}: one core available, parallel columns omitted");
    }
    parallel
}

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match what.as_str() {
        "fig12" => fig12(),
        "mvm" => mvm(),
        "join" => join(),
        "order" => order(),
        "costmodel" => costmodel(),
        "advisor" => advisor(),
        "blocked" => blocked(),
        "show" => show(),
        "all" => {
            fig12();
            mvm();
            join();
            order();
            costmodel();
            advisor();
            blocked();
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!(
                "usage: experiments [all|fig12|mvm|join|order|costmodel|advisor|blocked|show <kernel> <format>]"
            );
            std::process::exit(1);
        }
    }
}

/// `show <kernel> <format>`: the chosen plan and its emitted text.
fn show() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let [kernel, format] = args.as_slice() else {
        eprintln!("usage: experiments show <mvm|mvmt|ts> <format>");
        std::process::exit(1);
    };
    let (program, matrix) = synth::spec_for(kernel);
    let session = Session::new();
    let k = session
        .bind(&program, &[(matrix, synth::view_for(kernel, format))])
        .and_then(|b| session.compile(&b))
        .unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"));
    println!("{}", k.plan());
    match k.emit(&format!("{kernel}_{format}")) {
        Ok(text) => println!("{text}"),
        Err(e) => println!("not emitted: {e}"),
    }
}

/// E1/E2 — Figs. 12/13: TS on can_1072, CSR/CSC/JAD ×
/// {synth, nist_c, nist_f}.
fn fig12() {
    println!("== E1/E2 (Figs. 12-13): triangular solve, can_1072-like, MFLOP/s ==");
    let l = can1072_lower();
    let n = l.nrows();
    let nnz = l.nnz();
    let b0 = gen::dense_vector(n, 42);
    let flops = ts_flops(nnz);

    let csr = Csr::from_triplets(&l);
    let csc = Csc::from_triplets(&l);
    let jad = Jad::from_triplets(&l);

    let mut rows = Vec::new();
    rows.push((
        "csr",
        vec![
            ("synth".to_string(), {
                let t = timeit(|| {
                    let mut b = b0.clone();
                    synth::ts_csr(n as i64, black_box(&csr), &mut b);
                    black_box(b);
                });
                mflops(flops, t)
            }),
            ("nist_c".to_string(), {
                let t = timeit(|| {
                    let mut b = b0.clone();
                    hw::ts_csr(black_box(&csr), &mut b);
                    black_box(b);
                });
                mflops(flops, t)
            }),
            ("nist_f".to_string(), {
                let t = timeit(|| {
                    let mut b = b0.clone();
                    generic_rhs::ts_csr_multi(black_box(&csr), &mut b, 1);
                    black_box(b);
                });
                mflops(flops, t)
            }),
        ],
    ));
    rows.push((
        "csc",
        vec![
            ("synth".to_string(), {
                let t = timeit(|| {
                    let mut b = b0.clone();
                    synth::ts_csc(n as i64, black_box(&csc), &mut b);
                    black_box(b);
                });
                mflops(flops, t)
            }),
            ("nist_c".to_string(), {
                let t = timeit(|| {
                    let mut b = b0.clone();
                    hw::ts_csc(black_box(&csc), &mut b);
                    black_box(b);
                });
                mflops(flops, t)
            }),
            ("nist_f".to_string(), {
                let t = timeit(|| {
                    let mut b = b0.clone();
                    generic_rhs::ts_csc_multi(black_box(&csc), &mut b, 1);
                    black_box(b);
                });
                mflops(flops, t)
            }),
        ],
    ));
    rows.push((
        "jad",
        vec![
            ("synth".to_string(), {
                let t = timeit(|| {
                    let mut b = b0.clone();
                    synth::ts_jad(n as i64, black_box(&jad), &mut b);
                    black_box(b);
                });
                mflops(flops, t)
            }),
            ("nist_c".to_string(), {
                let t = timeit(|| {
                    let mut b = b0.clone();
                    hw::ts_jad(black_box(&jad), &mut b);
                    black_box(b);
                });
                mflops(flops, t)
            }),
            ("nist_f".to_string(), {
                let t = timeit(|| {
                    let mut b = b0.clone();
                    generic_rhs::ts_jad_multi(black_box(&jad), &mut b, 1);
                    black_box(b);
                });
                mflops(flops, t)
            }),
        ],
    ));
    for (fmt, cells) in &rows {
        print_row(&format!("ts/{fmt}"), cells);
    }
    report::write(
        "BENCH_fig12.json",
        &obj(vec![
            ("experiment", Json::str("fig12")),
            ("kernel", Json::str("ts")),
            ("input", Json::str("can_1072-like")),
            ("n", Json::num(n as f64)),
            ("nnz", Json::num(nnz as f64)),
            ("unit", Json::str("MFLOP/s")),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|(fmt, cells)| {
                            let mut fields = vec![("format", Json::str(*fmt))];
                            for (name, v) in cells {
                                fields.push((name.as_str(), Json::num(*v)));
                            }
                            Json::Obj(
                                fields
                                    .into_iter()
                                    .map(|(k, v)| (k.to_string(), v))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ]),
    );
    println!();
}

/// E3 — MVM across formats on several inputs.
fn mvm() {
    println!("== E3: MVM across formats, MFLOP/s (synth | nist_c) ==");
    let mut inputs = vec![("can1072", can1072())];
    inputs.extend(extra_inputs());
    let mut json_inputs = Vec::new();
    for (label, t) in inputs {
        let (m, n) = (t.nrows(), t.ncols());
        let nnz = t.nnz();
        let flops = mvm_flops(nnz);
        let x = gen::dense_vector(n, 7);
        let csr = Csr::from_triplets(&t);
        let csc = Csc::from_triplets(&t);
        let coo = Coo::from_triplets(&t);
        let dia = Dia::from_triplets(&t);
        let ell = Ell::from_triplets(&t);
        let jad = Jad::from_triplets(&t);
        // DIA stores padding; account its own nnz for fairness notes.
        let dia_nnz = bernoulli_formats::SparseMatrix::nnz(&dia);

        macro_rules! cell {
            ($synth:path, $hand:path, $mat:ident) => {{
                let ts = timeit(|| {
                    let mut y = vec![0.0; m];
                    $synth(m as i64, n as i64, black_box(&$mat), &x, &mut y);
                    black_box(y);
                });
                let th = timeit(|| {
                    let mut y = vec![0.0; m];
                    $hand(black_box(&$mat), &x, &mut y);
                    black_box(y);
                });
                (mflops(flops, ts), mflops(flops, th))
            }};
        }

        let (s1, h1) = cell!(synth::mvm_csr, hw::mvm_csr, csr);
        let (s2, h2) = cell!(synth::mvm_csc, hw::mvm_csc, csc);
        let (s3, h3) = cell!(synth::mvm_coo, hw::mvm_coo, coo);
        let (s4, h4) = cell!(synth::mvm_dia, hw::mvm_dia, dia);
        let (s5, h5) = cell!(synth::mvm_ell, hw::mvm_ell, ell);
        let (s6, h6) = cell!(synth::mvm_jad, hw::mvm_jad, jad);

        println!(
            "{label:<14} nnz={nnz} (dia stores {dia_nnz})\n  csr {s1:8.1} | {h1:8.1}   csc {s2:8.1} | {h2:8.1}   coo {s3:8.1} | {h3:8.1}\n  dia {s4:8.1} | {h4:8.1}   ell {s5:8.1} | {h5:8.1}   jad {s6:8.1} | {h6:8.1}"
        );
        let fmt_cell = |fmt: &str, s: f64, h: f64| {
            obj(vec![
                ("format", Json::str(fmt)),
                ("synth", Json::num(s)),
                ("nist_c", Json::num(h)),
            ])
        };
        json_inputs.push(obj(vec![
            ("input", Json::str(label)),
            ("nrows", Json::num(m as f64)),
            ("ncols", Json::num(n as f64)),
            ("nnz", Json::num(nnz as f64)),
            ("dia_stored", Json::num(dia_nnz as f64)),
            (
                "formats",
                Json::Arr(vec![
                    fmt_cell("csr", s1, h1),
                    fmt_cell("csc", s2, h2),
                    fmt_cell("coo", s3, h3),
                    fmt_cell("dia", s4, h4),
                    fmt_cell("ell", s5, h5),
                    fmt_cell("jad", s6, h6),
                ]),
            ),
        ]));
    }
    report::write(
        "BENCH_mvm.json",
        &obj(vec![
            ("experiment", Json::str("mvm")),
            ("unit", Json::str("MFLOP/s")),
            ("inputs", Json::Arr(json_inputs)),
        ]),
    );
    println!();
}

/// E4 — join strategies for the sparse dot product.
fn join() {
    println!("== E4: sparse dot join strategies, time per op (us) ==");
    let n = 1_000_000;
    let big = 100_000;
    let ya = gen::sparse_vector(n, big, 2);
    let ys = SparseVec::from_pairs(n, &ya);
    let yh = HashVec::from_pairs(n, &ya);
    let mut json_rows = Vec::new();
    for small in [100usize, 1_000, 10_000, 100_000] {
        let xa = gen::sparse_vector(n, small, 1);
        let x = SparseVec::from_pairs(n, &xa);
        let tm = timeit(|| {
            black_box(spdot_merge(black_box(&x), black_box(&ys)));
        });
        let th = timeit(|| {
            black_box(spdot_hash(black_box(&x), black_box(&yh)));
        });
        let tsearch = timeit(|| {
            let mut acc = 0.0;
            for (k, &i) in x.ind.iter().enumerate() {
                if let Some(p) = ys.find(i as usize) {
                    acc += x.values[k] * ys.values[p];
                }
            }
            black_box(acc);
        });
        println!(
            "|x|={small:<8} merge={:10.1}  hash={:10.1}  search={:10.1}",
            tm * 1e6,
            th * 1e6,
            tsearch * 1e6
        );
        json_rows.push(obj(vec![
            ("x_nnz", Json::num(small as f64)),
            ("merge_us", Json::num(tm * 1e6)),
            ("hash_us", Json::num(th * 1e6)),
            ("search_us", Json::num(tsearch * 1e6)),
        ]));
    }
    report::write(
        "BENCH_join.json",
        &obj(vec![
            ("experiment", Json::str("join")),
            ("n", Json::num(n as f64)),
            ("y_nnz", Json::num(big as f64)),
            ("unit", Json::str("us per op")),
            ("rows", Json::Arr(json_rows)),
        ]),
    );
    println!();
}

/// E5 — data-centric vs iteration-centric.
fn order() {
    println!("== E5: data-centric vs iteration-centric CSR MVM ==");
    let t = can1072();
    let a = Csr::from_triplets(&t);
    let x = gen::dense_vector(1072, 3);
    let td = timeit(|| {
        let mut y = vec![0.0; 1072];
        hw::mvm_csr(black_box(&a), &x, &mut y);
        black_box(y);
    });
    // The iteration-centric loop is ~10^3 slower; keep its run count low
    // but stay on the shared best-of-medians helper.
    let ti = time_best_of(2, 2, || {
        let mut y = vec![0.0; 1072];
        for i in 0..a.nrows {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                acc += a.get(i, j) * xj;
            }
            y[i] += acc;
        }
        black_box(y);
    });
    println!(
        "data-centric {:.1} us, iteration-centric {:.1} us, speedup {:.0}x (fill ratio n^2/nnz = {:.0})",
        td * 1e6,
        ti * 1e6,
        ti / td,
        (1072.0 * 1072.0) / t.nnz() as f64
    );
    report::write(
        "BENCH_order.json",
        &obj(vec![
            ("experiment", Json::str("order")),
            ("input", Json::str("can_1072-like")),
            ("data_centric_us", Json::num(td * 1e6)),
            ("iteration_centric_us", Json::num(ti * 1e6)),
            ("speedup", Json::num(ti / td)),
            ("fill_ratio", Json::num((1072.0 * 1072.0) / t.nnz() as f64)),
        ]),
    );
    println!();
}

/// E6 — cost-model validation: estimated cost rank vs measured runtime
/// rank over all legal candidates (TS/JAD).
fn costmodel() {
    println!("== E6: cost model validation (TS on JAD, all candidates) ==");
    let spec = kernels::ts();
    let view = bernoulli_blas::synth::view_for("ts", "jad");
    // Stats are derived from the actual instance the candidates will be
    // measured on — the cost model sees what the interpreter sees.
    let t = gen::structurally_symmetric(400, 2600, 16, 9).lower_triangle_full_diag(1.0);
    let stats = bernoulli_synth::WorkloadStats::from_features(&[(
        "L",
        &bernoulli_formats::StructureFeatures::of_triplets(&t),
    )]);
    let opts = SynthOptions {
        stats,
        keep: 64,
        ..SynthOptions::default()
    };
    let session = Session::with_options(opts);
    let kernel = session
        .compile(&session.bind(&spec, &[("L", view)]).unwrap())
        .unwrap();
    let cands = kernel.candidates();
    let examined = kernel.report().examined;
    println!("candidates: {} (examined {examined})", cands.len());

    let jad = Jad::from_triplets(&t);
    let b0 = gen::dense_vector(400, 4);

    let mut measured: Vec<(usize, f64, f64)> = Vec::new();
    for (i, cand) in cands.iter().enumerate() {
        let time = time_best_of(2, 3, || {
            let mut env = ExecEnv::new();
            env.set_param("N", 400);
            env.bind_vec("b", b0.clone());
            env.bind_sparse("L", &jad);
            kernel.interpret_candidate(i, &mut env).unwrap();
            black_box(env.take_vec("b"));
        });
        measured.push((i, cand.cost, time));
    }
    // Spearman rank correlation between cost and time.
    let rho = spearman(
        &measured.iter().map(|m| m.1).collect::<Vec<_>>(),
        &measured.iter().map(|m| m.2).collect::<Vec<_>>(),
    );
    for (i, cost, time) in &measured {
        println!(
            "  cand {i:>2}: est cost {cost:>12.0}  measured {:>9.1} us",
            time * 1e6
        );
    }
    println!("Spearman rank correlation (cost vs time): {rho:.2}");
    report::write(
        "BENCH_costmodel.json",
        &obj(vec![
            ("experiment", Json::str("costmodel")),
            ("kernel", Json::str("ts/jad")),
            ("candidates", Json::num(cands.len() as f64)),
            ("examined", Json::num(examined as f64)),
            ("spearman_rho", Json::num(rho)),
            (
                "measurements",
                Json::Arr(
                    measured
                        .iter()
                        .map(|(i, cost, time)| {
                            obj(vec![
                                ("candidate", Json::num(*i as f64)),
                                ("est_cost", Json::num(*cost)),
                                ("measured_us", Json::num(time * 1e6)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );
    println!();
}

/// S40 — structure-aware advisor: `Session::advise` derives the cost
/// model's statistics from the instance and picks a (format, plan)
/// pair; this lane scores the pick against *measured* interpreted
/// kernel times over every candidate, reporting chosen-vs-best regret
/// on a small tier (~1k-row inputs) and a large tier (≥10^5 rows via
/// `gen::scale`). Writes `BENCH_advisor.json`; `small_max_regret` is
/// the CI-gated headline (`ci/advisor_gate.sh`).
fn advisor() {
    println!("== S40: structure-aware advisor, chosen-vs-best regret (BENCH_advisor.json) ==");
    let spec = kernels::mvm();
    let session = Session::new();

    let mut small: Vec<(String, bernoulli_formats::Triplets<f64>)> =
        vec![("can1072".to_string(), can1072())];
    for (name, t) in extra_inputs() {
        small.push((name.to_string(), t));
    }
    small.push(("tridiag_1000".to_string(), gen::tridiagonal(1000)));
    small.push((
        "fem_256_b4".to_string(),
        gen::fem_blocked(256, 4, 3, 1.0, 13),
    ));
    let large: Vec<(String, bernoulli_formats::Triplets<f64>)> = vec![
        ("can1072_x100".to_string(), gen::scale(&can1072(), 100, 40)),
        (
            "poisson2d_32_x100".to_string(),
            gen::scale(&gen::poisson2d(32), 100, 41),
        ),
    ];

    let run_tier = |tier: &str,
                    inputs: &[(String, bernoulli_formats::Triplets<f64>)],
                    rounds: usize,
                    reps: usize|
     -> (Json, f64, f64) {
        let mut rows = Vec::new();
        let mut picked = 0usize;
        let mut max_regret: f64 = 0.0;
        let mut sum_regret = 0.0;
        for (input, t) in inputs {
            let advice = session
                .advise(&spec, "A", t, &[])
                .unwrap_or_else(|e| panic!("{tier}/{input}: advise failed: {e}"));
            let (nr, nc, nnz) = (t.nrows(), t.ncols(), t.nnz());
            let x = gen::dense_vector(nc, 7);
            // Measure every scored candidate on its actual format.
            let mut measured: Vec<(String, f64, f64)> = Vec::new();
            for e in &advice.ranked {
                let layout = bernoulli_formats::Layout::named(&e.format);
                let f = layout
                    .and_then(|l| (l.from_triplets)(t, None))
                    .unwrap_or_else(|err| panic!("{input}/{}: {err}", e.format));
                let time = time_best_of(rounds, reps, || {
                    let mut env = ExecEnv::new();
                    env.set_param("M", nr as i64).set_param("N", nc as i64);
                    env.bind_sparse("A", &*f);
                    env.bind_vec("x", x.clone());
                    env.bind_vec("y", vec![0.0; nr]);
                    e.kernel.interpret(&mut env).unwrap();
                    black_box(env.take_vec("y"));
                });
                measured.push((e.format.clone(), e.predicted_cost, time));
            }
            let chosen = &measured[0];
            let best = measured
                .iter()
                .min_by(|a, b| a.2.total_cmp(&b.2))
                .expect("advice.ranked is never empty");
            let regret = chosen.2 / best.2;
            // "Picked best" tolerates measurement noise between formats
            // whose kernels are effectively tied.
            let picked_best = regret <= 1.05;
            picked += picked_best as usize;
            max_regret = max_regret.max(regret);
            sum_regret += regret;
            println!(
                "  [{tier}] {input:<18} n={nr:<7} nnz={nnz:<8} chosen {:<4} \
                 best {:<4} regret {regret:.2}{}",
                chosen.0,
                best.0,
                if picked_best { "" } else { "  (MISS)" }
            );
            rows.push(obj(vec![
                ("input", Json::str(input.as_str())),
                ("nrows", Json::num(nr as f64)),
                ("nnz", Json::num(nnz as f64)),
                ("chosen", Json::str(chosen.0.as_str())),
                ("measured_best", Json::str(best.0.as_str())),
                ("picked_best", Json::Bool(picked_best)),
                ("regret", Json::num(regret)),
                ("chosen_mflops", Json::num(mflops(mvm_flops(nnz), chosen.2))),
                (
                    "formats",
                    Json::Arr(
                        measured
                            .iter()
                            .map(|(fmt, cost, time)| {
                                obj(vec![
                                    ("format", Json::str(fmt.as_str())),
                                    ("predicted_cost", Json::num(*cost)),
                                    ("interp_us", Json::num(time * 1e6)),
                                    ("interp_mflops", Json::num(mflops(mvm_flops(nnz), *time))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]));
        }
        let n = inputs.len();
        let accuracy = picked as f64 / n.max(1) as f64;
        let tier_json = obj(vec![
            ("name", Json::str(tier)),
            ("rows_count", Json::num(n as f64)),
            ("advisor_accuracy", Json::num(accuracy)),
            ("max_regret", Json::num(max_regret)),
            ("mean_regret", Json::num(sum_regret / n.max(1) as f64)),
            ("rows", Json::Arr(rows)),
        ]);
        (tier_json, accuracy, max_regret)
    };

    let (small_json, small_accuracy, small_max_regret) = run_tier("small", &small, 3, 4);
    let (large_json, large_accuracy, large_max_regret) = run_tier("large", &large, 2, 2);
    let large_min_nrows = large.iter().map(|(_, t)| t.nrows()).min().unwrap_or(0);
    println!(
        "small tier: accuracy {small_accuracy:.2}, max regret {small_max_regret:.2}; \
         large tier (min n = {large_min_nrows}): accuracy {large_accuracy:.2}, \
         max regret {large_max_regret:.2}"
    );
    report::write(
        "BENCH_advisor.json",
        &obj(vec![
            ("experiment", Json::str("advisor")),
            ("workload_kernel", Json::str("mvm")),
            ("small_accuracy", Json::num(small_accuracy)),
            ("small_max_regret", Json::num(small_max_regret)),
            ("large_accuracy", Json::num(large_accuracy)),
            ("large_max_regret", Json::num(large_max_regret)),
            ("large_min_nrows", Json::num(large_min_nrows as f64)),
            ("tiers", Json::Arr(vec![small_json, large_json])),
        ]),
    );
    println!();
}

fn spearman(a: &[f64], b: &[f64]) -> f64 {
    // Fractional (average) ranks for ties, so equal-cost candidates do
    // not penalize the correlation by arbitrary ordering.
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].partial_cmp(&v[j]).unwrap());
        let mut r = vec![0.0; v.len()];
        let mut pos = 0;
        while pos < idx.len() {
            let mut end = pos;
            while end + 1 < idx.len() && v[idx[end + 1]] == v[idx[pos]] {
                end += 1;
            }
            let avg = (pos + end) as f64 / 2.0;
            for &i in &idx[pos..=end] {
                r[i] = avg;
            }
            pos = end + 1;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let n = a.len() as f64;
    if n < 2.0 {
        return 1.0;
    }
    let mean = (n - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..a.len() {
        num += (ra[i] - mean) * (rb[i] - mean);
        da += (ra[i] - mean).powi(2);
        db += (rb[i] - mean).powi(2);
    }
    num / (da.sqrt() * db.sqrt()).max(1e-12)
}

/// S39 — the blocked performance tier: BSR and VBR vs CSR on synthetic
/// FEM matrices across a dense-block fill sweep. For each input and
/// format the lane times the sequential hand-written kernel, the
/// runtime-loaded synthesized kernel, and (on a host with more than one
/// core) the same loaded kernel through `run_in_bands` over the format's
/// `partition_rows(8)` bands, and records the blocking's fill-in
/// overhead (stored cells vs source nnz). Writes `BENCH_blocked.json`.
fn blocked() {
    use bernoulli_synth::{KernelArg, KernelStore};
    println!("== S39: blocked formats (BSR | VBR | CSR), MFLOP/s ==");
    if let Err(e) = bernoulli_synth::rustc_info() {
        println!("  NOTICE: skipping blocked lane: {e}");
        report::write(
            "BENCH_blocked.json",
            &obj(vec![
                ("experiment", Json::str("blocked")),
                ("rustc_available", Json::Bool(false)),
                ("notice", Json::str(format!("{e}"))),
            ]),
        );
        println!();
        return;
    }
    let parallel = host_is_parallel("blocked");
    let store = KernelStore::default_store();
    let session = Session::new();
    let mut json_inputs = Vec::new();
    // Headline accumulators: worst BSR-vs-CSR loaded speedup over the
    // dense rows (fill >= 0.9) — BSR with the generator's block size is
    // what `discover_block_size` selects on these inputs, so it is the
    // blocked tier's actual choice — and worst loaded-vs-hand ratio
    // over every new blocked row (BSR and VBR). The VBR-vs-CSR ratios
    // stay in the per-row data as the fragmentation story: variable
    // strips pay runtime extent reads, so VBR trails CSR on inputs
    // where a fixed block fits.
    let mut dense_vs_csr = f64::INFINITY;
    let mut loaded_vs_hand_min = f64::INFINITY;

    // FEM-style inputs: dense diagonal blocks plus 3 coupling block
    // neighbors per block row, sweeping in-block fill from genuinely
    // blocked (1.0) down to fragmented.
    let cases: [(&str, usize, usize, f64); 5] = [
        ("fem_b4_f1.0", 1536, 4, 1.0),
        ("fem_b4_f0.9", 1536, 4, 0.9),
        ("fem_b4_f0.6", 1536, 4, 0.6),
        ("fem_b2_f1.0", 1536, 2, 1.0),
        ("fem_b2_f0.9", 1536, 2, 0.9),
    ];
    for (ci, &(label, n, block, fill)) in cases.iter().enumerate() {
        let t = gen::fem_blocked(n, block, 3, fill, 11 + ci as u64);
        let flops = mvm_flops(t.nnz());
        let x = gen::dense_vector(n, 7);
        let csr = Csr::from_triplets(&t);
        let bsr = Bsr::from_triplets(&t, block, block);
        let (rp, cp) = discover_strips(&t);
        let vbr = Vbr::from_triplets(&t, &rp, &cp);
        let rep = block_fill(&t, block, block);
        println!(
            "{label:<12} n {n}  nnz {}  {block}x{block} fill {:.2} ({} stored cells)",
            t.nnz(),
            rep.fill,
            rep.stored_cells
        );
        let mut rows = Vec::new();
        let mut csr_tl = 0.0;

        macro_rules! lane {
            ($fmt:literal, $mat:ident, $hand:path) => {{
                let (p, mat_name) = synth::spec_for("mvm");
                let bound = session
                    .bind(&p, &[(mat_name, $mat.format_view())])
                    .expect("bind");
                let k = session.compile(&bound).expect("compile");
                let loaded = k.load_in(&store).expect("load");
                let params = [n as i64, n as i64];
                let tl = timeit(|| {
                    let mut y = vec![0.0; n];
                    let mut args = [
                        KernelArg::Matrix(black_box(&$mat)),
                        KernelArg::In(&x),
                        KernelArg::Out(&mut y),
                    ];
                    loaded.run(&params, &mut args).expect("run");
                    black_box(y);
                });
                let th = timeit(|| {
                    let mut y = vec![0.0; n];
                    $hand(black_box(&$mat), &x, &mut y);
                    black_box(y);
                });
                let par8 = parallel.then(|| {
                    let tpl = timeit(|| {
                        let mut y = vec![0.0; n];
                        let mut args = [
                            KernelArg::Matrix(black_box(&$mat)),
                            KernelArg::In(&x),
                            KernelArg::Out(&mut y),
                        ];
                        loaded.run_in_bands(&params, &mut args, 8).expect("par");
                        black_box(y);
                    });
                    mflops(flops, tpl)
                });
                // `csr_tl` is still 0.0 while the csr lane itself runs.
                let vs_csr = if csr_tl > 0.0 { csr_tl / tl } else { 1.0 };
                print!(
                    "  mvm/{:<4} hand {:8.1} | loaded {:8.1}",
                    $fmt,
                    mflops(flops, th),
                    mflops(flops, tl),
                );
                if let Some(pl) = par8 {
                    print!(" | par-loaded(8) {pl:8.1}");
                }
                println!(" | vs csr loaded {vs_csr:5.2}x");
                if $fmt != "csr" {
                    loaded_vs_hand_min = loaded_vs_hand_min.min(th / tl);
                    if $fmt == "bsr" && rep.fill >= 0.9 {
                        dense_vs_csr = dense_vs_csr.min(vs_csr);
                    }
                }
                let mut fields = vec![
                    ("format", Json::str($fmt)),
                    ("hand_mflops", Json::num(mflops(flops, th))),
                    ("loaded_mflops", Json::num(mflops(flops, tl))),
                ];
                if let Some(pl) = par8 {
                    fields.push(("par_loaded_mflops", Json::num(pl)));
                }
                fields.push(("loaded_vs_hand", Json::num(th / tl)));
                fields.push(("vs_csr_loaded", Json::num(vs_csr)));
                rows.push(obj(fields));
                tl
            }};
        }
        csr_tl = lane!("csr", csr, hw::mvm_csr);
        let _ = csr_tl;
        let _ = lane!("bsr", bsr, hw::mvm_bsr);
        let _ = lane!("vbr", vbr, hw::mvm_vbr);

        json_inputs.push(obj(vec![
            ("input", Json::str(label)),
            ("n", Json::num(n as f64)),
            ("block", Json::num(block as f64)),
            ("fill_target", Json::num(fill)),
            ("nnz", Json::num(t.nnz() as f64)),
            (
                "fill_report",
                obj(vec![
                    ("r", Json::num(rep.r as f64)),
                    ("c", Json::num(rep.c as f64)),
                    ("fill", Json::num(rep.fill)),
                    ("stored_cells", Json::num(rep.stored_cells as f64)),
                    (
                        "overhead",
                        Json::num(rep.stored_cells as f64 / rep.source_nnz.max(1) as f64),
                    ),
                ]),
            ),
            ("formats", Json::Arr(rows)),
        ]));
    }
    println!(
        "headline: dense-block (fill >= 0.9) bsr vs csr loaded min {dense_vs_csr:.2}x | blocked loaded vs hand min {loaded_vs_hand_min:.2}x"
    );

    report::write(
        "BENCH_blocked.json",
        &obj(vec![
            ("experiment", Json::str("blocked")),
            ("unit", Json::str("MFLOP/s")),
            ("rustc_available", Json::Bool(true)),
            ("inputs", Json::Arr(json_inputs)),
            (
                "headline",
                obj(vec![
                    ("dense_bsr_vs_csr_loaded_min", Json::num(dense_vs_csr)),
                    ("blocked_loaded_vs_hand_min", Json::num(loaded_vs_hand_min)),
                ]),
            ),
        ]),
    );
    println!();
}
