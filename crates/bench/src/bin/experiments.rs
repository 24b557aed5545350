//! Experiment driver: prints the paper-style tables recorded in
//! EXPERIMENTS.md, and writes each table as machine-readable
//! `BENCH_<experiment>.json` in the working directory.
//!
//! Usage: `cargo run --release -p bernoulli-bench --bin experiments -- [all|fig12|mvm|join|order|costmodel|advisor|parallel|trace|synth|kernels|service|blocked]`
//!
//! `show <kernel> <format>` prints the plan chosen for one of the
//! committed pairs and the Rust emitted from it, and measures nothing.
//!
//! `trace` exercises the synthesis pipeline and the parallel runtime
//! under the observability layer and writes `BENCH_trace.json`. It
//! always emits workload-derived series; compiling with
//! `--features trace` adds the instrumented counters from
//! `bernoulli-trace` (and sets `"trace_feature": true`).
//!
//! `synth` measures the synthesis search itself (S34): sequential vs
//! pool-parallel wall time, warm-cache speedup, polyhedral memo-cache
//! hit rates and branch-and-bound pruning counts over the same five
//! workloads, writing `BENCH_synth.json`.
//!
//! `service` measures the multi-tenant compile service (S38): N
//! concurrent clients × M distinct programs through one shared
//! `Service` (throughput, p50/p99 latency), persistent plan-cache
//! warm-start vs cold compiles, and admission-control shed accounting,
//! writing `BENCH_service.json`.
//!
//! `blocked` measures the blocked performance tier (S39): BSR and VBR
//! vs CSR on synthetic FEM matrices across a dense-block fill sweep,
//! sequential hand-written vs loaded vs parallel, with each blocking's
//! fill-in overhead, writing `BENCH_blocked.json`.
//!
//! `advisor` measures structure-aware selection (S40): `Session::advise`
//! picks a (format, plan) pair per instance from measured structure,
//! scored here as chosen-vs-best *regret* against interpreted kernel
//! times over every candidate, on a small (~1k-row) and a large
//! (≥10^5-row, via `gen::scale`) tier, writing `BENCH_advisor.json`.

#![allow(clippy::needless_range_loop, clippy::type_complexity)]
use bernoulli_bench::report::{obj, Json};
use bernoulli_bench::*;
use bernoulli_blas::handwritten::{spdot_hash, spdot_merge};
use bernoulli_blas::{generic_rhs, handwritten as hw, kernels, par, parallel, solvers, synth};
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

fn main() {
    // The global pool is created on first parallel call and sized from
    // BERNOULLI_THREADS; default it to the widest granularity the
    // `parallel` experiment tests, before anything can create the pool,
    // so every chunk can get a lane on machines with enough cores.
    if std::env::var(par::THREADS_ENV).is_err() {
        std::env::set_var(par::THREADS_ENV, "8");
    }
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match what.as_str() {
        "fig12" => fig12(),
        "mvm" => mvm(),
        "join" => join(),
        "order" => order(),
        "costmodel" => costmodel(),
        "advisor" => advisor(),
        "parallel" => parallel_scaling(),
        "trace" => trace(),
        "synth" => synth_perf(),
        "kernels" => kernels(),
        "service" => service_perf(),
        "blocked" => blocked(),
        "show" => show(),
        "all" => {
            fig12();
            mvm();
            join();
            order();
            costmodel();
            advisor();
            parallel_scaling();
            trace();
            synth_perf();
            kernels();
            service_perf();
            blocked();
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!(
                "usage: experiments [all|fig12|mvm|join|order|costmodel|advisor|parallel|trace|synth|kernels|service|blocked|show <kernel> <format>]"
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
        let tp = timeit(|| {
            let mut y = vec![0.0; m];
            parallel::par_mvm_csr(black_box(&csr), &x, &mut y, 4);
            black_box(y);
        });

        println!(
            "{label:<14} nnz={nnz} (dia stores {dia_nnz})\n  csr {s1:8.1} | {h1:8.1}   csc {s2:8.1} | {h2:8.1}   coo {s3:8.1} | {h3:8.1}\n  dia {s4:8.1} | {h4:8.1}   ell {s5:8.1} | {h5:8.1}   jad {s6:8.1} | {h6:8.1}\n  csr-parallel(4): {:8.1}",
            mflops(flops, tp)
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
            ("csr_parallel_4", Json::num(mflops(flops, tp))),
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
                if let Some(p) = ys.find(i) {
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
                let f = bernoulli_formats::AnyFormat::<f64>::try_from_triplets(&e.format, t)
                    .unwrap_or_else(|err| panic!("{input}/{}: {err}", e.format));
                let time = time_best_of(rounds, reps, || {
                    let mut env = ExecEnv::new();
                    env.set_param("M", nr as i64).set_param("N", nc as i64);
                    env.bind_sparse("A", f.as_view());
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

/// S32 — parallel execution subsystem: each parallel kernel against its
/// sequential counterpart across partition granularities, on the
/// can_1072-like workload. Writes `BENCH_parallel.json`.
fn parallel_scaling() {
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    let lanes = par::Pool::global().nthreads();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("== S32: parallel kernels vs sequential, can_1072-like, MFLOP/s ==");
    println!("pool lanes = {lanes}, host cores = {cores} (speedup is bounded by host cores)");

    let t = can1072();
    let (m, n, nnz) = (t.nrows(), t.ncols(), t.nnz());
    let x = gen::dense_vector(n, 7);
    let xt = gen::dense_vector(m, 8);
    let csr = Csr::from_triplets(&t);
    let csc = Csc::from_triplets(&t);
    let ell = Ell::from_triplets(&t);
    let jad = Jad::from_triplets(&t);
    let dia = Dia::from_triplets(&t);

    let tl = can1072_lower();
    let lnnz = tl.nnz();
    let l = Csr::from_triplets(&tl);
    let sched = par::LevelSchedule::build(&l);
    let b0 = gen::dense_vector(m, 42);

    // Vector ops use a much longer vector so per-call pool overhead
    // does not dominate the measured region.
    let vn = 400_000;
    let vx = gen::dense_vector(vn, 1);
    let vy = gen::dense_vector(vn, 2);

    // CG with tol = 0 runs exactly max_iter iterations — a fixed
    // end-to-end workload (MVM + vector ops per iteration).
    let pt = gen::poisson2d(32);
    let pa = Csr::from_triplets(&pt);
    let pn = pa.nrows;
    let pnnz = pt.nnz();
    let pb = gen::dense_vector(pn, 17);
    const CG_ITERS: usize = 40;
    let cg_flops = CG_ITERS as f64 * (mvm_flops(pnnz) + 10.0 * pn as f64);

    struct Row {
        name: &'static str,
        flops: f64,
        seq: f64,
        par: Vec<(usize, f64)>,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut push =
        |name: &'static str, flops: f64, seq: &mut dyn FnMut(), par: &mut dyn FnMut(usize)| {
            let seq_t = timeit(seq);
            let par_t = THREADS.iter().map(|&th| (th, timeit(|| par(th)))).collect();
            rows.push(Row {
                name,
                flops,
                seq: seq_t,
                par: par_t,
            });
        };

    push(
        "mvm_dia",
        mvm_flops(nnz),
        &mut || {
            let mut y = vec![0.0; m];
            hw::mvm_dia(black_box(&dia), &x, &mut y);
            black_box(y);
        },
        &mut |th| {
            let mut y = vec![0.0; m];
            par::par_mvm_dia(black_box(&dia), &x, &mut y, th);
            black_box(y);
        },
    );
    push(
        "mvm_csr",
        mvm_flops(nnz),
        &mut || {
            let mut y = vec![0.0; m];
            hw::mvm_csr(black_box(&csr), &x, &mut y);
            black_box(y);
        },
        &mut |th| {
            let mut y = vec![0.0; m];
            par::par_mvm_csr(black_box(&csr), &x, &mut y, th);
            black_box(y);
        },
    );
    push(
        "mvm_ell",
        mvm_flops(nnz),
        &mut || {
            let mut y = vec![0.0; m];
            hw::mvm_ell(black_box(&ell), &x, &mut y);
            black_box(y);
        },
        &mut |th| {
            let mut y = vec![0.0; m];
            par::par_mvm_ell(black_box(&ell), &x, &mut y, th);
            black_box(y);
        },
    );
    push(
        "mvm_jad",
        mvm_flops(nnz),
        &mut || {
            let mut y = vec![0.0; m];
            hw::mvm_jad(black_box(&jad), &x, &mut y);
            black_box(y);
        },
        &mut |th| {
            let mut y = vec![0.0; m];
            par::par_mvm_jad(black_box(&jad), &x, &mut y, th);
            black_box(y);
        },
    );
    push(
        "mvm_csc (scatter)",
        mvm_flops(nnz),
        &mut || {
            let mut y = vec![0.0; m];
            hw::mvm_csc(black_box(&csc), &x, &mut y);
            black_box(y);
        },
        &mut |th| {
            let mut y = vec![0.0; m];
            par::par_mvm_csc(black_box(&csc), &x, &mut y, th);
            black_box(y);
        },
    );
    push(
        "mvmt_csr (scatter)",
        mvm_flops(nnz),
        &mut || {
            let mut y = vec![0.0; n];
            hw::mvmt_csr(black_box(&csr), &xt, &mut y);
            black_box(y);
        },
        &mut |th| {
            let mut y = vec![0.0; n];
            par::par_mvmt_csr(black_box(&csr), &xt, &mut y, th);
            black_box(y);
        },
    );
    push(
        "ts_csr (level-sched)",
        ts_flops(lnnz),
        &mut || {
            let mut b = b0.clone();
            hw::ts_csr(black_box(&l), &mut b);
            black_box(b);
        },
        &mut |th| {
            let mut b = b0.clone();
            par::par_ts_csr_scheduled(black_box(&l), &sched, &mut b, th);
            black_box(b);
        },
    );
    push(
        "dot (400k)",
        2.0 * vn as f64,
        &mut || {
            black_box(hw::dot(black_box(&vx), black_box(&vy)));
        },
        &mut |th| {
            black_box(par::par_dot(black_box(&vx), black_box(&vy), th));
        },
    );
    push(
        "axpy (400k)",
        2.0 * vn as f64,
        &mut || {
            let mut y = vy.clone();
            hw::axpy(2.5, black_box(&vx), &mut y);
            black_box(y);
        },
        &mut |th| {
            let mut y = vy.clone();
            par::par_axpy(2.5, black_box(&vx), &mut y, th);
            black_box(y);
        },
    );
    push(
        "cg_csr (40 iters)",
        cg_flops,
        &mut || {
            let mut xs = vec![0.0; pn];
            let mut mv = |v: &[f64], y: &mut [f64]| hw::mvm_csr(&pa, v, y);
            black_box(solvers::cg(&mut mv, &pb, &mut xs, 0.0, CG_ITERS));
            black_box(xs);
        },
        &mut |th| {
            let mut xs = vec![0.0; pn];
            black_box(par::cg_csr(black_box(&pa), &pb, &mut xs, 0.0, CG_ITERS, th));
            black_box(xs);
        },
    );
    let _ = push; // release the closure's mutable borrow of `rows`

    println!(
        "{:<22} {:>10} {}",
        "kernel",
        "seq",
        THREADS
            .map(|t| format!("{:>16}", format!("t={t}")))
            .join("")
    );
    for r in &rows {
        print!("{:<22} {:>10.1}", r.name, mflops(r.flops, r.seq));
        for &(_, pt) in &r.par {
            print!("{:>10.1} {:4.2}x", mflops(r.flops, pt), r.seq / pt);
        }
        println!();
    }
    println!(
        "level schedule: {} levels, avg width {:.1} rows/level",
        sched.nlevels(),
        sched.avg_width()
    );

    report::write(
        "BENCH_parallel.json",
        &obj(vec![
            ("experiment", Json::str("parallel")),
            ("input", Json::str("can_1072-like")),
            ("nrows", Json::num(m as f64)),
            ("nnz", Json::num(nnz as f64)),
            ("pool_lanes", Json::num(lanes as f64)),
            ("host_cores", Json::num(cores as f64)),
            (
                "threads",
                Json::Arr(THREADS.iter().map(|&t| Json::num(t as f64)).collect()),
            ),
            (
                "level_schedule",
                obj(vec![
                    ("nlevels", Json::num(sched.nlevels() as f64)),
                    ("avg_width", Json::num(sched.avg_width())),
                ]),
            ),
            (
                "kernels",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            obj(vec![
                                ("name", Json::str(r.name)),
                                ("flops", Json::num(r.flops)),
                                ("seq_us", Json::num(r.seq * 1e6)),
                                ("seq_mflops", Json::num(mflops(r.flops, r.seq))),
                                (
                                    "par",
                                    Json::Arr(
                                        r.par
                                            .iter()
                                            .map(|&(th, pt)| {
                                                obj(vec![
                                                    ("threads", Json::num(th as f64)),
                                                    ("us", Json::num(pt * 1e6)),
                                                    ("mflops", Json::num(mflops(r.flops, pt))),
                                                    ("speedup", Json::num(r.seq / pt)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );
    println!();
}

/// S33 — observability: runs a synthesis sweep and a parallel-runtime
/// sweep, then writes every metric series to `BENCH_trace.json`.
///
/// Two layers of series are emitted:
/// - **computed** — derived from workload structure and search results
///   (plan step kinds, examined/candidate counts, nnz/flops, schedule
///   depth, partition chunk counts); present in every build, so the
///   report has ≥8 series spanning synthesis and runtime even with
///   tracing compiled out;
/// - **series** — the `bernoulli-trace` registry snapshot (embedding
///   rejections, Farkas/emptiness test counts, chunk steals, pool busy
///   time, ...); populated only when built with `--features trace`.
///
/// The five synthesis workloads shared by the `trace` and `synth`
/// experiments: one search per (kernel, format) pair, the join pair
/// exercising both merge and hash-search lowering. The spdot runs carry
/// sparse-vector statistics so the cost model prefers stored-entry
/// enumeration over the dense interval (same steering as
/// `examples/join_strategies.rs`).
fn synth_workloads() -> Vec<(
    &'static str,
    bernoulli_ir::Program,
    Vec<(&'static str, bernoulli_formats::view::FormatView)>,
    SynthOptions,
)> {
    use bernoulli_formats::formats::sparsevec::{hashvec_format_view, sparsevec_format_view};
    use bernoulli_formats::{vector_features, StructureFeatures};
    // Statistics are measured off the actual workload instances (the
    // same generators the runtime sweeps bind), not hand-written: the
    // sparse-vector features steer the cost model to stored-entry
    // enumeration exactly as the old literals did, but stay in sync
    // with the generators by construction.
    let can = gen::can_1072_like();
    let spdot_stats = bernoulli_synth::WorkloadStats::from_features(&[
        (
            "x",
            &vector_features(10_000, &gen::sparse_vector(10_000, 300, 1)),
        ),
        (
            "y",
            &vector_features(10_000, &gen::sparse_vector(10_000, 500, 2)),
        ),
    ]);
    let matrix_stats = bernoulli_synth::WorkloadStats::from_features(&[
        ("A", &StructureFeatures::of_triplets(&can)),
        (
            "L",
            &StructureFeatures::of_triplets(&can.lower_triangle_full_diag(1.0)),
        ),
    ]);
    let with_stats = |stats: &bernoulli_synth::WorkloadStats| SynthOptions {
        stats: stats.clone(),
        ..SynthOptions::default()
    };
    vec![
        (
            "mvm/csr",
            kernels::mvm(),
            vec![("A", synth::view_for("mvm", "csr"))],
            with_stats(&matrix_stats),
        ),
        (
            "ts/csr",
            kernels::ts(),
            vec![("L", synth::view_for("ts", "csr"))],
            with_stats(&matrix_stats),
        ),
        (
            "ts/jad",
            kernels::ts(),
            vec![("L", synth::view_for("ts", "jad"))],
            with_stats(&matrix_stats),
        ),
        (
            "spdot/merge",
            kernels::spdot(),
            vec![
                ("x", sparsevec_format_view()),
                ("y", sparsevec_format_view()),
            ],
            with_stats(&spdot_stats),
        ),
        (
            "spdot/hash",
            kernels::spdot(),
            vec![("x", sparsevec_format_view()), ("y", hashvec_format_view())],
            with_stats(&spdot_stats),
        ),
    ]
}

fn trace() {
    use bernoulli_synth::plan::StepKind;

    println!("== S33: observability trace (BENCH_trace.json) ==");
    bernoulli_trace::reset();

    // --- Synthesis sweep over the shared workloads. ---
    let synth_runs = synth_workloads();
    let mut examined_total = 0usize;
    let mut kept_total = 0usize;
    let (mut join_level, mut join_merge, mut join_interval) = (0usize, 0usize, 0usize);
    let mut per_workload = Vec::new();
    for (label, program, views, opts) in &synth_runs {
        let session = Session::with_options(opts.clone());
        let kernel = session
            .bind(program, views)
            .and_then(|b| session.compile(&b))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let cands = kernel.candidates();
        let examined = kernel.report().examined;
        examined_total += examined;
        kept_total += cands.len();
        let best = kernel.best();
        let (mut lv, mut mg, mut iv) = (0usize, 0usize, 0usize);
        for step in &best.plan.steps {
            match step.kind {
                StepKind::Level { .. } => lv += 1,
                StepKind::MergeJoin { .. } => mg += 1,
                StepKind::Interval { .. } => iv += 1,
            }
        }
        join_level += lv;
        join_merge += mg;
        join_interval += iv;
        println!(
            "  synth {label:<12} examined={examined:<4} kept={:<3} best steps: level={lv} merge={mg} interval={iv}",
            cands.len()
        );
        per_workload.push(obj(vec![
            ("workload", Json::str(*label)),
            ("examined", Json::num(examined as f64)),
            ("kept", Json::num(cands.len() as f64)),
            ("best_cost", Json::num(best.cost)),
            ("steps_level", Json::num(lv as f64)),
            ("steps_merge_join", Json::num(mg as f64)),
            ("steps_interval", Json::num(iv as f64)),
        ]));
    }

    // --- Runtime sweep: can_1072-like MVM, scheduled TS and a dot
    // product at every partition granularity the equivalence tests
    // use. ---
    const GRANULARITIES: [usize; 5] = [1, 2, 3, 7, 16];
    let t = can1072();
    let (m, n, nnz) = (t.nrows(), t.ncols(), t.nnz());
    let csr = Csr::from_triplets(&t);
    let x = gen::dense_vector(n, 7);
    let tl = can1072_lower();
    let l = Csr::from_triplets(&tl);
    let sched = par::LevelSchedule::build(&l);
    let b0 = gen::dense_vector(m, 42);
    let vn = 100_000;
    let vx = gen::dense_vector(vn, 1);
    let vy = gen::dense_vector(vn, 2);
    let mut mvm_chunks = 0usize;
    for &g in &GRANULARITIES {
        mvm_chunks += csr.partition_rows(g).len() - 1;
        let mut y = vec![0.0; m];
        par::par_mvm_csr(&csr, &x, &mut y, g);
        black_box(y);
        let mut b = b0.clone();
        par::par_ts_csr_scheduled(&l, &sched, &mut b, g);
        black_box(b);
        black_box(par::par_dot(&vx, &vy, g));
    }
    let lanes = par::Pool::global().nthreads();
    println!(
        "  runtime: {} granularities on can_1072-like (nnz={nnz}), schedule {} levels (avg width {:.1}), pool lanes={lanes}",
        GRANULARITIES.len(),
        sched.nlevels(),
        sched.avg_width()
    );

    // Workload-derived series: present in every build.
    let runs = GRANULARITIES.len() as f64;
    let computed: Vec<(&str, f64)> = vec![
        ("synth.workloads", synth_runs.len() as f64),
        ("synth.embeddings_examined", examined_total as f64),
        ("synth.candidates_kept", kept_total as f64),
        ("synth.join.level", join_level as f64),
        ("synth.join.merge", join_merge as f64),
        ("synth.join.interval", join_interval as f64),
        ("par.mvm_csr.calls", runs),
        ("par.mvm_csr.nnz", runs * nnz as f64),
        ("par.mvm_csr.flops", runs * mvm_flops(nnz)),
        ("par.mvm_csr.chunks", mvm_chunks as f64),
        ("par.ts.solves", runs),
        ("par.ts.nnz", runs * tl.nnz() as f64),
        ("par.ts.levels", sched.nlevels() as f64),
        ("par.ts.avg_width", sched.avg_width()),
        ("par.dot.elems", runs * vn as f64),
    ];

    // Instrumented series: empty unless built with `--features trace`.
    let snap = bernoulli_trace::snapshot();
    let find = |name: &str| snap.iter().find(|(k, _)| *k == name).map(|(_, s)| *s);
    let utilization = match (find("par.pool.busy"), find("par.pool.wall")) {
        (Some(busy), Some(wall)) if wall.sum > 0.0 => Some(busy.sum / wall.sum / lanes as f64),
        _ => None,
    };

    println!("  computed series: {}", computed.len());
    if bernoulli_trace::ENABLED {
        println!("  instrumented series: {}", snap.len());
        for (name, s) in &snap {
            println!(
                "    {name:<32} {:<7} count={:<8} sum={:<14.0} max={:.0}",
                s.kind.name(),
                s.count,
                s.sum,
                s.max
            );
        }
        if let Some(u) = utilization {
            println!("  pool utilization (busy/wall/lanes): {:.2}", u);
        }
    } else {
        println!("  instrumented series: 0 (trace feature disabled)");
    }

    report::write(
        "BENCH_trace.json",
        &obj(vec![
            ("experiment", Json::str("trace")),
            ("trace_feature", Json::Bool(bernoulli_trace::ENABLED)),
            ("input", Json::str("can_1072-like")),
            ("nrows", Json::num(m as f64)),
            ("nnz", Json::num(nnz as f64)),
            ("pool_lanes", Json::num(lanes as f64)),
            (
                "granularities",
                Json::Arr(GRANULARITIES.iter().map(|&g| Json::num(g as f64)).collect()),
            ),
            ("synthesis", Json::Arr(per_workload)),
            (
                "computed",
                Json::Arr(
                    computed
                        .iter()
                        .map(|(name, v)| {
                            obj(vec![("name", Json::str(*name)), ("value", Json::num(*v))])
                        })
                        .collect(),
                ),
            ),
            (
                "series",
                Json::Arr(
                    snap.iter()
                        .map(|(name, s)| {
                            obj(vec![
                                ("name", Json::str(*name)),
                                ("kind", Json::str(s.kind.name())),
                                ("count", Json::num(s.count as f64)),
                                ("sum", Json::num(s.sum)),
                                ("max", Json::num(s.max)),
                                ("mean", Json::num(s.mean())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "pool_utilization",
                utilization.map_or(Json::Null, Json::num),
            ),
        ]),
    );
    println!();
}

/// S34 — synthesis performance: memoized polyhedral queries, parallel
/// cost-pruned search and the whole-search plan cache, measured over
/// the same five workloads as the trace experiment. Writes
/// `BENCH_synth.json`.
fn synth_perf() {
    println!("== S34: synthesis performance (BENCH_synth.json) ==");
    let lanes = par::Pool::global().nthreads();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("  pool lanes={lanes}, host cores={cores}");

    let workloads = synth_workloads();
    let mut rows = Vec::new();
    let (mut pc_hits, mut pc_misses) = (0u64, 0u64);
    for (label, program, views, base_opts) in &workloads {
        let opts_seq = SynthOptions {
            parallel: false,
            cache_plans: false,
            ..base_opts.clone()
        };
        let opts_par = SynthOptions {
            parallel: true,
            cache_plans: false,
            ..base_opts.clone()
        };

        // A bound problem is session-independent; bind once up front.
        let bound = Session::new().bind(program, views).unwrap();

        // Cold timings: a fresh session per rep starts with empty
        // polyhedral memo caches, so every rep pays the full
        // first-search cost. Plan caching is off so the search actually
        // runs.
        let t_seq = time_best_of(3, 4, || {
            let s = Session::new();
            black_box(s.compile_with(&bound, &opts_seq).unwrap());
        });
        let t_par = time_best_of(3, 4, || {
            let s = Session::new();
            black_box(s.compile_with(&bound, &opts_par).unwrap());
        });
        // Warm polyhedral caches = session reuse: a long-lived session
        // keeps its memos across compiles, so the repeated-synthesis
        // steady state still searches — only the polyhedral answers are
        // memoized.
        let warm_session = Session::new();
        let rep = warm_session
            .compile_with(&bound, &opts_seq)
            .unwrap()
            .report()
            .clone();
        let t_warm = time_best_of(3, 4, || {
            black_box(warm_session.compile_with(&bound, &opts_seq).unwrap());
        });

        // Budget governance overhead (S36): the cold sequential compile
        // with a generous armed budget (op ceiling + far-off deadline)
        // that never trips — every Fourier–Motzkin elimination, Farkas
        // call and search fan-out pays the charge/check path.
        // Cold-vs-cold with an interleaved plain baseline is the clean
        // comparison: a fresh session repeats byte-identical work each
        // rep (warm timings wobble ±20% with memo-shard eviction
        // phase), and alternating the two arms cancels machine-load
        // drift across the run. Stride-amortized clock checks keep the
        // overhead within noise (<2%).
        let (mut t_plain_paired, mut t_budgeted) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            t_plain_paired = t_plain_paired.min(time_best_of(1, 4, || {
                let s = Session::new();
                black_box(s.compile_with(&bound, &opts_seq).unwrap());
            }));
            t_budgeted = t_budgeted.min(time_best_of(1, 4, || {
                let s = Session::new()
                    .with_op_budget(1 << 62)
                    .with_deadline(std::time::Duration::from_secs(3600));
                black_box(s.compile_with(&bound, &opts_seq).unwrap());
            }));
        }
        let budget_overhead = (t_budgeted / t_plain_paired - 1.0) * 100.0;

        // Exhaustion behavior: a starved op budget must still return a
        // plan (degraded to the best-so-far or the baseline fallback
        // unless the whole search fits under the ceiling), and return
        // it quickly — this is the worst-case latency a caller sees.
        let starved_session = Session::new().with_op_budget(100);
        let t0 = std::time::Instant::now();
        let starved = starved_session.compile_with(&bound, &opts_seq).unwrap();
        let t_starved = t0.elapsed().as_secs_f64();
        let starved_rep = starved.report().clone();

        // Intra-search polyhedral hit rate, from a single cold search on
        // a fresh session (its caches saw nothing else).
        let cold = Session::new();
        let rep_par = cold
            .compile_with(&bound, &opts_par)
            .unwrap()
            .report()
            .clone();
        let ps = cold.poly_cache_stats();
        let total_q = (ps.empty_hits + ps.empty_misses + ps.fm_hits + ps.fm_misses).max(1);
        let poly_hit = (ps.empty_hits + ps.fm_hits) as f64 / total_q as f64;

        // Determinism spot-check: the pool-parallel search must return
        // exactly the sequential ranking (the synth_search_parallel
        // suite proves this per pool size; assert it here too so the
        // published numbers compare identical work).
        assert_eq!(rep.examined, rep_par.examined, "{label}: examined diverged");
        assert_eq!(
            rep.candidates.len(),
            rep_par.candidates.len(),
            "{label}: kept diverged"
        );
        for (a, b) in rep.candidates.iter().zip(rep_par.candidates.iter()) {
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{label}: cost diverged");
        }

        // Branch-and-bound engagement in best-plan mode (keep=1, what
        // `synthesize` needs): once the seed incumbent holds a plan, how
        // many embeddings the admissible floor spares from lowering.
        let opts_k1 = SynthOptions {
            keep: 1,
            parallel: false,
            cache_plans: false,
            ..base_opts.clone()
        };
        let rep1 = warm_session
            .compile_with(&bound, &opts_k1)
            .unwrap()
            .report()
            .clone();
        let rep1_np = warm_session
            .compile_with(
                &bound,
                &SynthOptions {
                    prune: false,
                    ..opts_k1.clone()
                },
            )
            .unwrap()
            .report()
            .clone();
        // Admissibility check: pruning must not change the best plan.
        assert_eq!(
            rep1.candidates.first().map(|c| c.cost.to_bits()),
            rep1_np.candidates.first().map(|c| c.cost.to_bits()),
            "{label}: pruning changed the best candidate"
        );

        // Plan cache: on a reused session, the second identical compile
        // must be a pure lookup.
        let opts_cached = SynthOptions {
            parallel: false,
            cache_plans: true,
            ..base_opts.clone()
        };
        let reused = Session::with_options(opts_cached.clone());
        let first = reused.compile(&bound).unwrap();
        let second = reused.compile(&bound).unwrap();
        assert!(!first.from_cache(), "{label}: first call hit a stale entry");
        assert!(second.from_cache(), "{label}: second call missed");
        let t_cached = time_best_of(3, 32, || {
            black_box(reused.compile(&bound).unwrap());
        });

        // Embedding-lifecycle timings (S35): the full fresh-session cost
        // (construct + bind + compile) against one more compile on the
        // session that already holds the plan.
        let t_fresh = time_best_of(3, 4, || {
            let s = Session::with_options(opts_cached.clone());
            let b = s.bind(program, views).unwrap();
            black_box(s.compile(&b).unwrap());
        });
        let t_reused = time_best_of(3, 32, || {
            let b = reused.bind(program, views).unwrap();
            black_box(reused.compile(&b).unwrap());
        });
        let st = reused.plan_cache_stats();
        pc_hits += st.hits;
        pc_misses += st.misses;

        println!(
            "  {label:<12} seq {:7.2} ms  par {:7.2} ms  warm {:7.2} ms  cached {:7.1} us  fresh-session {:7.2} ms  reused-session {:7.1} us  poly-hit {:5.1}%  pruned(keep=1) {}/{}",
            t_seq * 1e3,
            t_par * 1e3,
            t_warm * 1e3,
            t_cached * 1e6,
            t_fresh * 1e3,
            t_reused * 1e6,
            poly_hit * 100.0,
            rep1.pruned,
            rep1_np.examined,
        );
        println!(
            "  {label:<12} budgeted {:7.2} ms ({:+5.1}% vs seq)  starved(100 ops) {:7.2} ms degraded={} skipped={}",
            t_budgeted * 1e3,
            budget_overhead,
            t_starved * 1e3,
            starved_rep.degraded,
            starved_rep.skipped_configs,
        );

        rows.push(obj(vec![
            ("workload", Json::str(*label)),
            ("examined", Json::num(rep.examined as f64)),
            ("kept", Json::num(rep.candidates.len() as f64)),
            ("seq_ms", Json::num(t_seq * 1e3)),
            ("par_ms", Json::num(t_par * 1e3)),
            ("warm_ms", Json::num(t_warm * 1e3)),
            ("cached_us", Json::num(t_cached * 1e6)),
            ("seq_per_s", Json::num(1.0 / t_seq)),
            ("par_per_s", Json::num(1.0 / t_par)),
            ("warm_per_s", Json::num(1.0 / t_warm)),
            ("budgeted_ms", Json::num(t_budgeted * 1e3)),
            ("budgeted_per_s", Json::num(1.0 / t_budgeted)),
            ("budget_overhead_pct", Json::num(budget_overhead)),
            ("starved_ms", Json::num(t_starved * 1e3)),
            ("starved_degraded", Json::Bool(starved_rep.degraded)),
            (
                "starved_skipped_configs",
                Json::num(starved_rep.skipped_configs as f64),
            ),
            ("session_fresh_ms", Json::num(t_fresh * 1e3)),
            ("session_reused_us", Json::num(t_reused * 1e6)),
            ("session_fresh_per_s", Json::num(1.0 / t_fresh)),
            ("session_reused_per_s", Json::num(1.0 / t_reused)),
            ("poly_cache_hit_rate", Json::num(poly_hit)),
            ("poly_empty_hit_rate", Json::num(ps.empty_hit_rate())),
            ("poly_fm_hit_rate", Json::num(ps.fm_hit_rate())),
            ("pruned_keep1", Json::num(rep1.pruned as f64)),
            ("examined_keep1", Json::num(rep1.examined as f64)),
            ("examined_keep1_noprune", Json::num(rep1_np.examined as f64)),
            ("plan_cache_second_hit", Json::Bool(second.from_cache())),
        ]));
    }

    report::write(
        "BENCH_synth.json",
        &obj(vec![
            ("experiment", Json::str("synth")),
            ("pool_lanes", Json::num(lanes as f64)),
            ("host_cores", Json::num(cores as f64)),
            ("workloads", Json::Arr(rows)),
            ("plan_cache_hits", Json::num(pc_hits as f64)),
            ("plan_cache_misses", Json::num(pc_misses as f64)),
        ]),
    );
    println!();
}

/// S38 — the multi-tenant compile service: N concurrent clients × M
/// distinct programs through one shared
/// [`Service`](bernoulli_synth::Service), reporting
/// throughput and latency percentiles per client count; persistent
/// plan-cache warm-start vs cold compile latency per matrix workload;
/// and an admission-control burst with exact shed accounting.
///
/// The persistent-cache directories live under `BERNOULLI_PLAN_CACHE`
/// when set (CI caches that directory across runs, so run N+1 measures
/// a genuine cross-process warm start), else under the system temp dir.
fn service_perf() {
    use bernoulli_synth::{Service, ServiceConfig};
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::Instant;

    println!("== S38: multi-tenant compile service (BENCH_service.json) ==");
    let lanes = par::Pool::global().nthreads();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("  pool lanes={lanes}, host cores={cores}");

    let workloads = Arc::new(synth_workloads());

    // Sequential fresh-session baseline: the byte-level reference every
    // concurrent result is checked against.
    let baseline: Vec<String> = workloads
        .iter()
        .map(|(_, p, views, base)| {
            let opts = SynthOptions {
                parallel: true,
                cache_plans: false,
                ..base.clone()
            };
            let s = Session::new();
            let b = s.bind(p, views).unwrap();
            s.compile_with(&b, &opts).unwrap().plan().to_string()
        })
        .collect();

    let percentile = |sorted: &[f64], q: f64| -> f64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    };

    // --- Client sweep: every request is a full search (plan caching
    // off), so the rows measure the service under genuine compile load,
    // not cache lookups. ---
    let mut client_rows = Vec::new();
    let mut determinism_ok = true;
    const ROUNDS_PER_CLIENT: usize = 2;
    for clients in [1usize, 4, 8] {
        // Admission sized to the client count: the sweep measures
        // concurrent compiles over shared caches, not queueing (the
        // admission burst below covers that).
        let svc = Arc::new(Service::new(ServiceConfig {
            max_inflight: clients,
            max_queue: 64,
            ..ServiceConfig::default()
        }));
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for c in 0..clients {
            let svc = Arc::clone(&svc);
            let wl = Arc::clone(&workloads);
            handles.push(std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut plans = Vec::new();
                for r in 0..ROUNDS_PER_CLIENT {
                    for i in 0..wl.len() {
                        // Rotate per client and round so distinct
                        // searches overlap in flight.
                        let w = (i + c + r) % wl.len();
                        let (_, p, views, base) = &wl[w];
                        let opts = SynthOptions {
                            parallel: true,
                            cache_plans: false,
                            ..base.clone()
                        };
                        let bound = svc.bind(p, views).unwrap();
                        let t = Instant::now();
                        let k = svc.compile_with(&bound, &opts, None).unwrap();
                        lat.push(t.elapsed().as_secs_f64());
                        plans.push((w, k.plan().to_string()));
                    }
                }
                (lat, plans)
            }));
        }
        let mut lats = Vec::new();
        for h in handles {
            let (lat, plans) = h.join().expect("service client thread panicked");
            lats.extend(lat);
            for (w, plan) in plans {
                if plan != baseline[w] {
                    determinism_ok = false;
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        lats.sort_by(|a, b| a.total_cmp(b));
        let n = lats.len();
        let (p50, p99) = (percentile(&lats, 0.50), percentile(&lats, 0.99));
        let thr = n as f64 / wall;
        let stats = svc.stats();
        println!(
            "  clients={clients}  {n:3} compiles in {:6.2} s  {thr:7.1} req/s  p50 {:7.2} ms  p99 {:7.2} ms  peak-inflight {}",
            wall,
            p50 * 1e3,
            p99 * 1e3,
            stats.peak_inflight,
        );
        client_rows.push(obj(vec![
            ("name", Json::str(format!("clients_{clients}"))),
            ("clients", Json::num(clients as f64)),
            ("requests", Json::num(n as f64)),
            ("throughput_per_s", Json::num(thr)),
            ("p50_ms", Json::num(p50 * 1e3)),
            ("p99_ms", Json::num(p99 * 1e3)),
            ("p99_per_s", Json::num(1.0 / p99)),
            ("peak_inflight", Json::num(stats.peak_inflight as f64)),
        ]));
    }

    // Steady state: one pre-warmed service, every request a plan-cache
    // hit — the latency floor of the admission + lookup path.
    {
        let svc = Arc::new(Service::new(ServiceConfig {
            max_inflight: 8,
            max_queue: 64,
            ..ServiceConfig::default()
        }));
        for (_, p, views, base) in workloads.iter() {
            let bound = svc.bind(p, views).unwrap();
            svc.compile_with(&bound, base, None).unwrap();
        }
        const WARM_REQS: usize = 64;
        let clients = 8;
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for c in 0..clients {
            let svc = Arc::clone(&svc);
            let wl = Arc::clone(&workloads);
            handles.push(std::thread::spawn(move || {
                let mut lat = Vec::new();
                for i in 0..WARM_REQS {
                    let (_, p, views, base) = &wl[(i + c) % wl.len()];
                    let bound = svc.bind(p, views).unwrap();
                    let t = Instant::now();
                    let k = svc.compile_with(&bound, base, None).unwrap();
                    assert!(k.from_cache(), "steady-state request missed the cache");
                    lat.push(t.elapsed().as_secs_f64());
                }
                lat
            }));
        }
        let mut lats = Vec::new();
        for h in handles {
            lats.extend(h.join().expect("warm client thread panicked"));
        }
        let wall = t0.elapsed().as_secs_f64();
        lats.sort_by(|a, b| a.total_cmp(b));
        let n = lats.len();
        let (p50, p99) = (percentile(&lats, 0.50), percentile(&lats, 0.99));
        let thr = n as f64 / wall;
        println!(
            "  warm-hits clients={clients}  {n:3} requests  {thr:9.1} req/s  p50 {:7.1} us  p99 {:7.1} us",
            p50 * 1e6,
            p99 * 1e6,
        );
        client_rows.push(obj(vec![
            ("name", Json::str("warm_hits_clients_8")),
            ("clients", Json::num(clients as f64)),
            ("requests", Json::num(n as f64)),
            ("throughput_per_s", Json::num(thr)),
            ("p50_ms", Json::num(p50 * 1e3)),
            ("p99_ms", Json::num(p99 * 1e3)),
            ("p99_per_s", Json::num(1.0 / p99)),
        ]));
    }

    // --- Persistent plan cache: cold search-and-persist vs a
    // restarted service warm-starting from disk. ---
    let persist_base = std::env::var("BERNOULLI_PLAN_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("bernoulli-service-bench"));
    let mut warm_rows = Vec::new();
    for (label, p, views, base) in workloads.iter().filter(|(l, ..)| !l.starts_with("spdot")) {
        let tag = label.replace('/', "-");
        let cold_dir = persist_base.join(format!("cold-{tag}"));
        let (mut t_cold, mut cold_plan) = (f64::INFINITY, String::new());
        for _ in 0..3 {
            // A cleared directory each rep: every cold compile searches
            // and writes the entry from scratch.
            let _ = std::fs::remove_dir_all(&cold_dir);
            let svc = Service::new(ServiceConfig {
                persist_dir: Some(cold_dir.clone()),
                opts: base.clone(),
                ..ServiceConfig::default()
            });
            let bound = svc.bind(p, views).unwrap();
            let t = Instant::now();
            let k = svc.compile(&bound).unwrap();
            t_cold = t_cold.min(t.elapsed().as_secs_f64());
            assert!(!k.report().plan_cache_hit, "{label}: cold compile hit");
            cold_plan = k.plan().to_string();
        }
        let _ = std::fs::remove_dir_all(&cold_dir);

        // The warm directory survives across runs (CI caches it): the
        // populate step itself warm-starts on run N+1.
        let warm_dir = persist_base.join(format!("warm-{tag}"));
        {
            let svc = Service::new(ServiceConfig {
                persist_dir: Some(warm_dir.clone()),
                opts: base.clone(),
                ..ServiceConfig::default()
            });
            let bound = svc.bind(p, views).unwrap();
            svc.compile(&bound).unwrap();
        }
        let (mut t_warm, mut warm_plan, mut disk_hit) = (f64::INFINITY, String::new(), false);
        for _ in 0..5 {
            // A fresh service per rep: empty in-memory caches, so the
            // compile can only be served by the persistent tier.
            let svc = Service::new(ServiceConfig {
                persist_dir: Some(warm_dir.clone()),
                opts: base.clone(),
                ..ServiceConfig::default()
            });
            let bound = svc.bind(p, views).unwrap();
            let t = Instant::now();
            let k = svc.compile(&bound).unwrap();
            t_warm = t_warm.min(t.elapsed().as_secs_f64());
            disk_hit = k.report().plan_cache_disk_hit;
            warm_plan = k.plan().to_string();
        }
        assert_eq!(warm_plan, cold_plan, "{label}: warm-start changed the plan");
        let speedup = t_cold / t_warm;
        println!(
            "  warm-start {label:<12} cold {:7.2} ms  warm {:7.2} ms  speedup {speedup:6.1}x  disk-hit {disk_hit}",
            t_cold * 1e3,
            t_warm * 1e3,
        );
        warm_rows.push(obj(vec![
            ("workload", Json::str(*label)),
            ("cold_ms", Json::num(t_cold * 1e3)),
            ("warm_start_ms", Json::num(t_warm * 1e3)),
            ("warm_vs_cold_speedup", Json::num(speedup)),
            ("disk_hit", Json::Bool(disk_hit)),
            ("deterministic", Json::Bool(warm_plan == cold_plan)),
        ]));
    }

    // --- Admission burst: more clients than slots + queue, with a
    // deadline — typed sheds, and the accounting must be exact. ---
    let burst = 16usize;
    let (max_inflight, max_queue) = (2usize, 2usize);
    let (_, p_mvm, views_mvm, base_mvm) = &workloads[0];
    let svc = Arc::new(Service::new(ServiceConfig {
        max_inflight,
        max_queue,
        opts: SynthOptions {
            parallel: false,
            cache_plans: false,
            ..base_mvm.clone()
        },
        ..ServiceConfig::default()
    }));
    let bound = Arc::new(svc.bind(p_mvm, views_mvm).unwrap());
    let mut handles = Vec::new();
    for _ in 0..burst {
        let svc = Arc::clone(&svc);
        let bound = Arc::clone(&bound);
        let opts = svc.config().opts.clone();
        handles.push(std::thread::spawn(move || {
            svc.compile_with(&bound, &opts, Some(std::time::Duration::from_millis(200)))
                .map(|_| ())
        }));
    }
    for h in handles {
        let _ = h.join().expect("burst client thread panicked");
    }
    let s = svc.stats();
    assert_eq!(s.submitted, burst as u64, "burst accounting");
    assert_eq!(
        s.admitted + s.shed_overloaded + s.shed_deadline,
        s.submitted,
        "admission accounting must be exact: {s:?}"
    );
    assert_eq!(s.completed + s.failed, s.admitted, "{s:?}");
    println!(
        "  burst {burst} @ {max_inflight} slots + {max_queue} queue: completed {}  shed-overloaded {}  shed-deadline {}  peak-inflight {}",
        s.completed, s.shed_overloaded, s.shed_deadline, s.peak_inflight,
    );

    // --- Single-flight coalescing (S41): 16 concurrent cold compiles
    // of ONE plan-cache key. The leader searches once; everyone else
    // coalesces onto its flight or hits the plan cache it published,
    // so the service must report exactly one genuine search. ---
    let sf_clients = 16usize;
    let svc = Arc::new(Service::new(ServiceConfig {
        max_inflight: sf_clients,
        max_queue: sf_clients,
        ..ServiceConfig::default()
    }));
    let bound = Arc::new(svc.bind(p_mvm, views_mvm).unwrap());
    let barrier = Arc::new(std::sync::Barrier::new(sf_clients));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..sf_clients {
        let svc = Arc::clone(&svc);
        let bound = Arc::clone(&bound);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            svc.compile(&bound).unwrap().plan().to_string()
        }));
    }
    let mut sf_plans = Vec::new();
    for h in handles {
        sf_plans.push(h.join().expect("single-flight client panicked"));
    }
    let sf_wall = t0.elapsed().as_secs_f64();
    let coalesced_per_s = sf_clients as f64 / sf_wall.max(1e-9);
    let sf = svc.stats();
    assert_eq!(sf.searches, 1, "one key must cost one search: {sf:?}");
    assert_eq!(sf.completed, sf_clients as u64, "{sf:?}");
    assert!(
        sf_plans.iter().all(|p| *p == sf_plans[0]),
        "coalesced plans diverged"
    );
    println!(
        "  single-flight {sf_clients} clients, 1 key: {:7.1} req/s  searches {}  coalesced {}",
        coalesced_per_s, sf.searches, sf.coalesced,
    );

    assert!(determinism_ok, "concurrent plans diverged from baseline");
    report::write(
        "BENCH_service.json",
        &obj(vec![
            ("experiment", Json::str("service")),
            ("pool_lanes", Json::num(lanes as f64)),
            ("host_cores", Json::num(cores as f64)),
            ("programs", Json::num(workloads.len() as f64)),
            ("clients", Json::Arr(client_rows)),
            ("warm_start", Json::Arr(warm_rows)),
            (
                "admission",
                obj(vec![
                    ("burst", Json::num(burst as f64)),
                    ("max_inflight", Json::num(max_inflight as f64)),
                    ("max_queue", Json::num(max_queue as f64)),
                    ("completed", Json::num(s.completed as f64)),
                    ("failed", Json::num(s.failed as f64)),
                    ("shed_overloaded", Json::num(s.shed_overloaded as f64)),
                    ("shed_deadline", Json::num(s.shed_deadline as f64)),
                    ("peak_inflight", Json::num(s.peak_inflight as f64)),
                ]),
            ),
            ("coalesced_per_s", Json::num(coalesced_per_s)),
            (
                "singleflight",
                obj(vec![
                    ("clients", Json::num(sf_clients as f64)),
                    ("searches", Json::num(sf.searches as f64)),
                    ("coalesced", Json::num(sf.coalesced as f64)),
                    ("completed", Json::num(sf.completed as f64)),
                ]),
            ),
            ("determinism_ok", Json::Bool(determinism_ok)),
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

/// S37 — the compiled-kernel execution path: runtime-loaded native
/// kernels vs the hand-written baselines, the committed synthesized
/// kernels, and the interpreter, on the E3 inputs; plus warm
/// artifact-cache load latency and the kernel cache counters.
///
/// Without a usable `rustc` on the host the lane is skipped with a
/// notice (the report records `rustc_available: false`) — never an
/// error, mirroring the library's typed interpreter fallback.
fn kernels() {
    use bernoulli_synth::{KernelArg, KernelStore};
    println!("== S37: compiled-kernel path, MFLOP/s (loaded | hand | committed | interp) ==");
    if let Err(e) = bernoulli_synth::rustc_info() {
        println!("  NOTICE: skipping loaded-kernel lane: {e}");
        report::write(
            "BENCH_kernels.json",
            &obj(vec![
                ("experiment", Json::str("kernels")),
                ("rustc_available", Json::Bool(false)),
                ("notice", Json::str(format!("{e}"))),
            ]),
        );
        println!();
        return;
    }
    // A handle of this lane's own over the default directory: its
    // counters start at zero whatever ran earlier in the process.
    let store = KernelStore::at(KernelStore::default_store().dir());
    let session = Session::new();
    let mut json_inputs = Vec::new();

    let mut inputs = vec![("can1072", can1072())];
    inputs.extend(extra_inputs());
    for (label, t) in inputs {
        let (m, n) = (t.nrows(), t.ncols());
        let flops = mvm_flops(t.nnz());
        let x = gen::dense_vector(n, 7);
        let csr = Csr::from_triplets(&t);
        let ell = Ell::from_triplets(&t);
        let mut rows = Vec::new();

        macro_rules! lane {
            ($fmt:literal, $mat:ident, $argctor:path, $synth:path, $hand:path, $parf:path) => {{
                let (p, mat_name) = synth::spec_for("mvm");
                let bound = session
                    .bind(&p, &[(mat_name, synth::view_for("mvm", $fmt))])
                    .expect("bind");
                let k = session.compile(&bound).expect("compile");
                let loaded = k.load_in(&store).expect("load");
                let params = [m as i64, n as i64];
                let tl = timeit(|| {
                    let mut y = vec![0.0; m];
                    let mut args = [
                        $argctor(black_box(&$mat)),
                        KernelArg::In(&x),
                        KernelArg::Out(&mut y),
                    ];
                    loaded.run(&params, &mut args).expect("run");
                    black_box(y);
                });
                let th = timeit(|| {
                    let mut y = vec![0.0; m];
                    $hand(black_box(&$mat), &x, &mut y);
                    black_box(y);
                });
                let tc = timeit(|| {
                    let mut y = vec![0.0; m];
                    $synth(m as i64, n as i64, black_box(&$mat), &x, &mut y);
                    black_box(y);
                });
                let interp_backend = bernoulli_synth::KernelBackend::Interpreted {
                    reason: bernoulli_synth::LoadError::Emit(bernoulli_synth::EmitError(
                        "benchmark lane".into(),
                    )),
                };
                let ti = time_median(REPS, || {
                    let mut y = vec![0.0; m];
                    let mut args = [
                        $argctor(black_box(&$mat)),
                        KernelArg::In(&x),
                        KernelArg::Out(&mut y),
                    ];
                    k.run_with(&interp_backend, &params, &mut args).expect("interp");
                    black_box(y);
                });
                let tp = timeit(|| {
                    let mut y = vec![0.0; m];
                    $parf(&loaded, black_box(&$mat), &x, &mut y, 4).expect("par");
                    black_box(y);
                });
                println!(
                    "{label:<14} mvm/{:<4} loaded {:8.1} | hand {:8.1} | committed {:8.1} | interp {:8.1} | par(4) {:8.1}",
                    $fmt,
                    mflops(flops, tl),
                    mflops(flops, th),
                    mflops(flops, tc),
                    mflops(flops, ti),
                    mflops(flops, tp),
                );
                rows.push(obj(vec![
                    ("format", Json::str($fmt)),
                    ("loaded_mflops", Json::num(mflops(flops, tl))),
                    ("hand_mflops", Json::num(mflops(flops, th))),
                    ("committed_mflops", Json::num(mflops(flops, tc))),
                    ("interp_mflops", Json::num(mflops(flops, ti))),
                    ("par_loaded_mflops", Json::num(mflops(flops, tp))),
                    ("loaded_vs_hand", Json::num(th / tl)),
                    ("loaded_vs_interp", Json::num(ti / tl)),
                ]));
            }};
        }
        lane!(
            "csr",
            csr,
            KernelArg::Csr,
            synth::mvm_csr,
            hw::mvm_csr,
            par::par_loaded_mvm_csr
        );
        lane!(
            "ell",
            ell,
            KernelArg::Ell,
            synth::mvm_ell,
            hw::mvm_ell,
            par::par_loaded_mvm_ell
        );

        json_inputs.push(obj(vec![
            ("input", Json::str(label)),
            ("nnz", Json::num(t.nnz() as f64)),
            ("formats", Json::Arr(rows)),
        ]));
    }

    // TS through the loaded path on the evaluation input.
    let l = can1072_lower();
    let nn = l.nrows();
    let tsflops = ts_flops(l.nnz());
    let lcsr = Csr::from_triplets(&l);
    let b0 = gen::dense_vector(nn, 42);
    let (p, mat_name) = synth::spec_for("ts");
    let bound = session
        .bind(&p, &[(mat_name, synth::view_for("ts", "csr"))])
        .expect("bind ts");
    let k = session.compile(&bound).expect("compile ts");
    let loaded = k.load_in(&store).expect("load ts");
    // Interleave the three variants round-by-round (same trick as the
    // S36 budgeted-vs-plain comparison): this lane runs right after the
    // 8-thread par(4) lanes, and turbo recovery over the measurement
    // window would otherwise systematically penalize whichever variant
    // is measured first.
    let (mut tl, mut th, mut tc) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..8 {
        tl = tl.min(time_median(REPS, || {
            let mut b = b0.clone();
            let mut args = [KernelArg::Csr(black_box(&lcsr)), KernelArg::Out(&mut b)];
            loaded.run(&[nn as i64], &mut args).expect("run ts");
            black_box(b);
        }));
        th = th.min(time_median(REPS, || {
            let mut b = b0.clone();
            hw::ts_csr(black_box(&lcsr), &mut b);
            black_box(b);
        }));
        tc = tc.min(time_median(REPS, || {
            let mut b = b0.clone();
            synth::ts_csr(nn as i64, black_box(&lcsr), &mut b);
            black_box(b);
        }));
    }
    println!(
        "{:<14} ts/csr  loaded {:8.1} | hand {:8.1} | committed {:8.1}",
        "can1072",
        mflops(tsflops, tl),
        mflops(tsflops, th),
        mflops(tsflops, tc)
    );
    let ts_row = obj(vec![
        ("input", Json::str("can1072")),
        ("format", Json::str("ts_csr")),
        ("loaded_mflops", Json::num(mflops(tsflops, tl))),
        ("hand_mflops", Json::num(mflops(tsflops, th))),
        ("committed_mflops", Json::num(mflops(tsflops, tc))),
        ("loaded_vs_hand", Json::num(th / tl)),
    ]);

    // Warm artifact-cache load latency: every artifact above is cached
    // now, `store` has verified and validated it and keeps its library
    // open, and `k` has emitted and named its kernel crate once, so
    // each load is a quarantine `stat`, one record lookup and `dlsym`.
    // The acceptance bar is <1ms.
    let warm = time_median(32, || {
        black_box(k.load_in(&store).expect("warm load"));
    });
    // What the store's per-artifact record saves (S41): the first load
    // through a fresh handle over the same warm directory pays what a
    // restarted process pays — checksum verification (of a ~6 kB
    // artifact), dlopen, the differential probe against the
    // interpreter. The ratio is that first load over the repeat load
    // above.
    let first = time_median(32, || {
        let fresh = KernelStore::at(store.dir());
        black_box(
            k.load_in(&fresh)
                .expect("first load through a fresh handle"),
        );
    });
    let validation_overhead = first / warm.max(1e-9);
    let stats = store.stats();
    println!(
        "warm artifact load: {:.1} us (first load through a fresh handle: {:.1} us, overhead ratio {:.3})",
        warm * 1e6,
        first * 1e6,
        validation_overhead
    );
    println!(
        "kernel cache: {} hits, {} misses, {} compiles, {} errors, {} retries, {} corrupt, {} quarantined, {} coalesced",
        stats.hits,
        stats.misses,
        stats.compiles,
        stats.errors,
        stats.retries,
        stats.corrupt,
        stats.quarantined,
        stats.coalesced
    );

    report::write(
        "BENCH_kernels.json",
        &obj(vec![
            ("experiment", Json::str("kernels")),
            ("unit", Json::str("MFLOP/s")),
            ("rustc_available", Json::Bool(true)),
            ("inputs", Json::Arr(json_inputs)),
            ("ts", ts_row),
            ("warm_load_us", Json::num(warm * 1e6)),
            ("warm_load_per_s", Json::num(1.0 / warm.max(1e-9))),
            ("validation_overhead", Json::num(validation_overhead)),
            (
                "kernel_cache",
                obj(vec![
                    ("hits", Json::num(stats.hits as f64)),
                    ("misses", Json::num(stats.misses as f64)),
                    ("compiles", Json::num(stats.compiles as f64)),
                    ("errors", Json::num(stats.errors as f64)),
                    ("retries", Json::num(stats.retries as f64)),
                    ("corrupt", Json::num(stats.corrupt as f64)),
                    ("quarantined", Json::num(stats.quarantined as f64)),
                    ("coalesced", Json::num(stats.coalesced as f64)),
                ]),
            ),
        ]),
    );
    println!();
}

/// S39 — the blocked performance tier: BSR and VBR vs CSR on synthetic
/// FEM matrices across a dense-block fill sweep. For each input and
/// format the lane times the sequential hand-written kernel, the
/// runtime-loaded synthesized kernel, and both parallel drivers (hand
/// and loaded, 8 threads), and records the blocking's fill-in overhead
/// (stored cells vs source nnz). Writes `BENCH_blocked.json`.
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
            ($fmt:literal, $mat:ident, $view:expr, $argctor:path, $hand:path, $parh:path, $parl:path) => {{
                let (p, mat_name) = synth::spec_for("mvm");
                let bound = session.bind(&p, &[(mat_name, $view)]).expect("bind");
                let k = session.compile(&bound).expect("compile");
                let loaded = k.load_in(&store).expect("load");
                let params = [n as i64, n as i64];
                let tl = timeit(|| {
                    let mut y = vec![0.0; n];
                    let mut args = [
                        $argctor(black_box(&$mat)),
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
                let tph = timeit(|| {
                    let mut y = vec![0.0; n];
                    $parh(black_box(&$mat), &x, &mut y, 8);
                    black_box(y);
                });
                let tpl = timeit(|| {
                    let mut y = vec![0.0; n];
                    $parl(&loaded, black_box(&$mat), &x, &mut y, 8).expect("par");
                    black_box(y);
                });
                // `csr_tl` is still 0.0 while the csr lane itself runs.
                let vs_csr = if csr_tl > 0.0 { csr_tl / tl } else { 1.0 };
                println!(
                    "  mvm/{:<4} hand {:8.1} | loaded {:8.1} | par-hand(8) {:8.1} | par-loaded(8) {:8.1} | vs csr loaded {:5.2}x",
                    $fmt,
                    mflops(flops, th),
                    mflops(flops, tl),
                    mflops(flops, tph),
                    mflops(flops, tpl),
                    vs_csr,
                );
                if $fmt != "csr" {
                    loaded_vs_hand_min = loaded_vs_hand_min.min(th / tl);
                    if $fmt == "bsr" && rep.fill >= 0.9 {
                        dense_vs_csr = dense_vs_csr.min(vs_csr);
                    }
                }
                rows.push(obj(vec![
                    ("format", Json::str($fmt)),
                    ("hand_mflops", Json::num(mflops(flops, th))),
                    ("loaded_mflops", Json::num(mflops(flops, tl))),
                    ("par_hand_mflops", Json::num(mflops(flops, tph))),
                    ("par_loaded_mflops", Json::num(mflops(flops, tpl))),
                    ("loaded_vs_hand", Json::num(th / tl)),
                    ("vs_csr_loaded", Json::num(vs_csr)),
                ]));
                tl
            }};
        }
        csr_tl = lane!(
            "csr",
            csr,
            csr.format_view(),
            KernelArg::Csr,
            hw::mvm_csr,
            par::par_mvm_csr,
            par::par_loaded_mvm_csr
        );
        let _ = csr_tl;
        let _ = lane!(
            "bsr",
            bsr,
            bsr.format_view(),
            KernelArg::Bsr,
            hw::mvm_bsr,
            par::par_mvm_bsr,
            par::par_loaded_mvm_bsr
        );
        let _ = lane!(
            "vbr",
            vbr,
            vbr.format_view(),
            KernelArg::Vbr,
            hw::mvm_vbr,
            par::par_mvm_vbr,
            par::par_loaded_mvm_vbr
        );

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
