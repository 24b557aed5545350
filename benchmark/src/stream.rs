//! `stream_large` and `stream_small`: steady-state calls of loaded
//! synthesized kernels against the hand-written ones, on the six pairs
//! of the paper's Fig. 12.
//!
//! Compile, build and load happen in set-up; the timed section calls
//! kernels and nothing else, so it holds no search and no `rustc` run.
//! `stream_large` runs on a matrix far larger than L2, one call per
//! sample, where the loop the emitter wrote and the memory system
//! decide. `stream_small` runs on the cache-resident evaluation matrix,
//! 256 calls per sample, where the cost of getting into and out of a
//! kernel decides.

use crate::harness::{
    files_with_suffix, geomean, median, percentile, quiet_over_keys, quiet_rate, repeat_setup,
    Deadline, Scratch, Values,
};
use crate::inputs::{close, lanes, matrices, Key, Lane, STREAM_KEYS};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use bernoulli::blas::par;
use bernoulli::formats::{Csr, Triplets};
use bernoulli::{CompiledKernel, KernelArg, KernelStore, LoadedKernel, Session};
use std::hint::black_box;
use std::time::Instant;

/// Copies of the evaluation matrix along the diagonal of the large
/// input: 214 400 rows, 2.5 M stored entries, a 40 MB CSR image against
/// 2 MiB of L2. (ISSUE 11 sized it at 500; three set-ups and 150 passes
/// of that do not fit the driver's allowance for a run.)
const LARGE_FACTOR: usize = 200;
/// Calls per timed sample on the small input, where one call is a few
/// microseconds.
const SMALL_BATCH: usize = 256;
/// Timed samples per lane, at least, whatever `--seconds` says: p90
/// then has fifteen samples beyond it.
const MIN_PASSES: usize = 150;

struct Setup {
    lanes: Vec<Lane>,
    session: Session,
    store: KernelStore,
    compiled: Vec<CompiledKernel>,
    loaded: Vec<LoadedKernel>,
    /// Seconds from a program to a loaded kernel, per key, with nothing
    /// cached: bind, search, emission, `rustc`, dlopen, validation.
    cold_secs: Vec<f64>,
    scale_secs: f64,
    lower_secs: f64,
}

fn set_up(factor: usize, seed: u64, scratch: &Scratch) -> Result<Setup, String> {
    let m = matrices(factor, seed);
    let lanes = lanes(&STREAM_KEYS, &m, seed);

    let store = KernelStore::at(scratch.dir("store"));
    let session = Session::new();
    let (mut compiled, mut loaded, mut cold_secs) = (Vec::new(), Vec::new(), Vec::new());
    for key in STREAM_KEYS {
        let (program, matrix) = key.spec();
        let t0 = Instant::now();
        let bound = session
            .bind(&program, &[(matrix, key.view())])
            .map_err(|e| format!("{}: bind: {e}", key.name()))?;
        let k = session
            .compile(&bound)
            .map_err(|e| format!("{}: compile: {e}", key.name()))?;
        // An `Err` here is where the library would serve the
        // interpreter; the benchmark asked for native code.
        let l = k
            .load_in(&store)
            .map_err(|e| format!("{}: native load failed: {e}", key.name()))?;
        cold_secs.push(t0.elapsed().as_secs_f64());
        if l.from_cache() || !l.validated() {
            return Err(format!(
                "{}: expected a fresh, validated build (from_cache {}, validated {})",
                key.name(),
                l.from_cache(),
                l.validated()
            ));
        }
        compiled.push(k);
        loaded.push(l);
    }
    Ok(Setup {
        lanes,
        session,
        store,
        compiled,
        loaded,
        cold_secs,
        scale_secs: m.scale_secs,
        lower_secs: m.lower_secs,
    })
}

/// Seconds per call of `call` on `lane`, over `batch` calls. With one
/// call per sample the output buffer is reset outside the timed
/// interval; in a batch the reset is inside, the same for every lane.
fn sample(lane: &mut Lane, batch: usize, mut call: impl FnMut(&mut Lane)) -> f64 {
    if batch == 1 {
        lane.reset();
        let t0 = Instant::now();
        call(lane);
        return t0.elapsed().as_secs_f64();
    }
    let t0 = Instant::now();
    for _ in 0..batch {
        lane.reset();
        call(black_box(&mut *lane));
    }
    t0.elapsed().as_secs_f64() / batch as f64
}

#[derive(Default)]
struct LaneTimes {
    /// Loaded-kernel samples, by whether the recorder was on.
    loaded: [Vec<f64>; 2],
    hand: Vec<f64>,
    committed: Vec<f64>,
}

impl LaneTimes {
    fn all_loaded(&self) -> Vec<f64> {
        self.loaded.concat()
    }
}

fn number_of_artifacts(store: &KernelStore) -> u64 {
    files_with_suffix(store.dir(), std::env::consts::DLL_EXTENSION).1
}

pub fn run(args: &Args, scratch: &Scratch, large: bool) -> Outcome {
    let factor = if large { LARGE_FACTOR } else { 1 };
    let batch = if large { 1 } else { SMALL_BATCH };
    let mut v = Values::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut cold: Vec<Vec<f64>> = vec![Vec::new(); STREAM_KEYS.len()];
    let (mut su, setup_s) = repeat_setup(|| {
        let su = set_up(factor, args.seed, scratch).unwrap_or_else(|e| {
            eprintln!("benchmark: set-up failed: {e}");
            std::process::exit(5);
        });
        for (per_key, &secs) in cold.iter_mut().zip(&su.cold_secs) {
            per_key.push(secs);
        }
        su
    });
    v.set("setup_s", setup_s);
    v.set("cold_ms", quiet_over_keys(&cold) * 1e3);

    // The oracle, once per lane before timing: the dense reference
    // executor where the input is small enough to run densely, the
    // hand-written kernel otherwise. Every later call of the loaded
    // kernel must reproduce this checked output bit for bit.
    let mut expected: Vec<Vec<f64>> = Vec::new();
    for (lane, k) in su.lanes.iter_mut().zip(&su.loaded) {
        lane.reset();
        let ran = lane.run_loaded(k);
        let got = lane.out.clone();
        let want = if large {
            lane.reset();
            lane.run_hand();
            lane.out.clone()
        } else {
            let (program, matrix) = lane.key.spec();
            lane.dense_reference(&program, matrix)
        };
        attempted += 1;
        if ran.is_err() || !close(&got, &want) {
            failed += 1;
            eprintln!("benchmark: {} disagrees with its oracle", lane.key.name());
        }
        expected.push(got);
    }

    let artifacts_before = number_of_artifacts(&su.store);
    let searches_before = su.session.plan_cache_stats().misses;

    // The loaded MVM/CSR kernel on two pool lanes, in the same passes
    // as everything else; only a host with two cores can measure that.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let two_lanes = args.trace && large && cores >= 2;
    let mut par2: Vec<f64> = Vec::new();

    let mut tr = Tracer::new(false, 1);
    let mut times: Vec<LaneTimes> = STREAM_KEYS.iter().map(|_| LaneTimes::default()).collect();
    let deadline = Deadline::after(args.seconds);
    let mut pass = 0usize;
    // Two untimed passes first, so every lane starts from the same
    // cache and branch-predictor state it will see in steady state.
    let warm_up = 2;
    while pass < warm_up + MIN_PASSES || !deadline.passed() {
        let timed = pass >= warm_up;
        let recorded = args.trace && pass % 2 == 1;
        tr.set_on(recorded && timed);
        for (i, lane) in su.lanes.iter_mut().enumerate() {
            let k = &su.loaded[i];
            tr.next_request();
            // Loaded and hand calls alternate call by call, so both see
            // the same machine from moment to moment.
            tr.span("request", |tr| {
                let mut ok = true;
                let (secs, _) = tr.span("loaded.run", |_| {
                    sample(lane, batch, |l| ok &= l.run_loaded(k).is_ok())
                });
                let (same, _) = tr.span("oracle.check", |_| lane.out == expected[i]);
                if timed {
                    attempted += 1;
                    failed += u64::from(!(ok && same));
                    times[i].loaded[usize::from(recorded)].push(secs);
                }
                let (secs, _) = tr.span("blas.hand", |_| sample(lane, batch, Lane::run_hand));
                if timed {
                    times[i].hand.push(secs);
                }
                if args.trace {
                    let (secs, _) = tr.span("blas.committed", |_| {
                        sample(lane, batch, Lane::run_committed)
                    });
                    if timed {
                        times[i].committed.push(secs);
                    }
                }
                if two_lanes && i == 0 {
                    let mut ok = true;
                    let (secs, _) = tr.span("blas.par2", |_| {
                        sample(lane, batch, |l| ok &= l.run_loaded_on_two_lanes(k).is_ok())
                    });
                    if timed {
                        par2.push(secs);
                        attempted += 1;
                        failed += u64::from(!(ok && lane.out == expected[i]));
                    }
                }
            });
        }
        pass += 1;
    }

    // The workload isolates kernel execution only if the timed section
    // compiled and built nothing.
    let builds = number_of_artifacts(&su.store) - artifacts_before;
    let searches = su.session.plan_cache_stats().misses - searches_before;
    attempted += 1;
    failed += u64::from(builds != 0 || searches != 0);
    v.set("kernel-cache.builds", builds as f64);
    v.set("service.searches", searches as f64);
    v.note(
        "timed section",
        format!(
            "{} passes over 6 lanes, {batch} call(s) per sample; {searches} searches, {builds} rustc builds inside it ({} builds in each of {} set-ups)",
            pass - warm_up,
            STREAM_KEYS.len(),
            cold[0].len()
        ),
    );

    // End to end, from the passes the recorder was off for: per lane
    // the quiet-host call time, and per pass the calls completed per
    // second of time spent in them.
    let e2e_samples: Vec<&Vec<f64>> = times.iter().map(|t| &t.loaded[0]).collect();
    let passes = e2e_samples[0].len();
    let rates: Vec<f64> = (0..passes)
        .map(|p| e2e_samples.len() as f64 / e2e_samples.iter().map(|s| s[p]).sum::<f64>())
        .collect();
    v.set("ops_per_s", quiet_rate(&rates));
    v.set(
        "steady_us",
        quiet_over_keys(e2e_samples.iter().copied()) * 1e6,
    );
    v.note("samples per lane", format!("{passes}"));

    // Per layer.
    let mut ns_per_nnz: [Vec<f64>; 2] = Default::default();
    let mut vs_hand: [Vec<f64>; 2] = Default::default();
    let mut overhead = Vec::new();
    for (lane, t) in su.lanes.iter().zip(&mut times) {
        let name = lane.key.name();
        let mut loaded = t.all_loaded();
        let l = median(&mut loaded);
        let h = median(&mut t.hand);
        v.set(format!("loaded.{name}_ms"), l * 1e3);
        v.set(
            format!("loaded.{name}_p90_ms"),
            percentile(&mut loaded, 0.9) * 1e3,
        );
        v.set(
            format!("loaded.{name}_gbs"),
            lane.working_set_bytes() as f64 / l / 1e9,
        );
        v.set(format!("blas.hand_{name}_ms"), h * 1e3);
        v.set(
            format!("blas.committed_{name}_ms"),
            median(&mut t.committed) * 1e3,
        );
        let which = usize::from(lane.key.is_ts());
        ns_per_nnz[which].push(l * 1e9 / lane.nnz as f64);
        vs_hand[which].push(h / l);
        if args.trace {
            overhead.push(median(&mut t.loaded[1]) / median(&mut t.loaded[0]));
        }
        v.note(
            format!("working set {name}"),
            format!(
                "{} bytes per call (computed: stored image + vectors), {} nnz",
                lane.working_set_bytes(),
                lane.nnz
            ),
        );
    }
    v.set("mvm_ns_per_nnz", geomean(ns_per_nnz[0].iter().copied()));
    v.set("ts_ns_per_nnz", geomean(ns_per_nnz[1].iter().copied()));
    v.set("mvm_loaded_vs_hand", geomean(vs_hand[0].iter().copied()));
    v.set("ts_loaded_vs_hand", geomean(vs_hand[1].iter().copied()));

    v.set("formats.scale_ms", su.scale_secs * 1e3);
    v.set("formats.lower_triangle_ms", su.lower_secs * 1e3);
    for lane in su.lanes.iter().filter(|l| !l.key.is_ts()) {
        let f = lane.key.format;
        v.set(
            format!("formats.from_triplets_{f}_ms"),
            lane.build_secs * 1e3,
        );
        v.set(format!("formats.{f}_bytes"), lane.matrix.bytes() as f64);
    }

    if args.trace {
        v.set(
            "bench.trace_overhead_pct",
            (geomean(overhead.iter().copied()) - 1.0) * 100.0,
        );
        let selfs = crate::trace::self_times(&tr.spans);
        let self_us = |name: &str| {
            selfs
                .get(name)
                .map_or(0.0, |s| median(&mut s.clone()) * 1e6)
        };
        v.set("request.self_us", self_us("request"));
        v.set("oracle.check_us", self_us("oracle.check"));
        triad(&mut v);
        if two_lanes {
            let t = median(&mut par2);
            v.set("blas.par2_loaded_mvm_csr_ms", t * 1e3);
            v.set(
                "blas.par2_speedup",
                v.metrics["loaded.mvm_csr_ms"] * 1e-3 / t,
            );
            v.note(
                "blas.par2",
                format!(
                    "2 row bands on {} pool lanes, {cores} cores, {} samples",
                    par::Pool::global().nthreads(),
                    par2.len()
                ),
            );
        } else if large {
            v.note("blas.par2", "skipped: single-core host");
        }
        if !large {
            interpreter_floor(&mut v, &mut su);
            run_overhead(&mut v, scratch);
        }
    }

    Outcome {
        values: v,
        attempted,
        failed,
        spans: tr.spans,
    }
}

/// `a[i] = b[i] + s·c[i]` over three arrays of 4 Mi doubles (96 MiB
/// together): what this host's memory system sustains for one thread,
/// measured in the same run as the kernels.
fn triad(v: &mut Values) {
    const N: usize = 4 << 20;
    let b = vec![1.0f64; N];
    let c = vec![2.0f64; N];
    let mut a = vec![0.0f64; N];
    let mut secs = Vec::new();
    for _ in 0..10 {
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        black_box(&mut a);
        secs.push(t0.elapsed().as_secs_f64());
    }
    v.set(
        "host.triad_gbs",
        (3 * N * 8) as f64 / median(&mut secs) / 1e9,
    );
    v.note(
        "host.triad_gbs",
        "3 arrays x 4 Mi f64 = 96 MiB, 1 thread, median of 10 sweeps; lanes whose working set exceeds the L3 size in the host line stream from memory, the others from L3",
    );
}

/// What the interpreter, the path served under quarantine or a missing
/// compiler, costs per stored entry.
fn interpreter_floor(v: &mut Values, su: &mut Setup) {
    for (lane, k) in su.lanes.iter_mut().zip(&su.compiled) {
        if lane.key.format != "csr" {
            continue;
        }
        let mut secs = Vec::new();
        for _ in 0..15 {
            lane.reset();
            let t0 = Instant::now();
            if lane.run_interpreted(k).is_err() {
                return;
            }
            secs.push(t0.elapsed().as_secs_f64());
        }
        v.set(
            format!("synth.interp_ns_per_nnz.{}", lane.key.name()),
            median(&mut secs) * 1e9 / lane.nnz as f64,
        );
    }
}

/// `LoadedKernel::run` on a 1-row, 1-entry operand: marshalling, the
/// C-ABI shim and `catch_unwind`, with no loop to speak of.
fn run_overhead(v: &mut Values, scratch: &Scratch) {
    let key = Key::new("mvm", "csr");
    let (program, matrix) = key.spec();
    let session = Session::new();
    let loaded = session
        .bind(&program, &[(matrix, key.view())])
        .and_then(|b| session.compile(&b))
        .ok()
        .and_then(|k| k.load_in(&KernelStore::at(scratch.dir("store"))).ok());
    let Some(k) = loaded else { return };
    let a = Csr::from_triplets(&Triplets::from_entries(1, 1, &[(0, 0, 2.0)]));
    let x = [1.0];
    let mut y = [0.0];
    let mut secs = Vec::new();
    for _ in 0..30 {
        let t0 = Instant::now();
        for _ in 0..4096 {
            let _ = k.run(
                &[1, 1],
                &mut [
                    KernelArg::Csr(black_box(&a)),
                    KernelArg::In(&x),
                    KernelArg::Out(&mut y),
                ],
            );
        }
        secs.push(t0.elapsed().as_secs_f64() / 4096.0);
    }
    v.set("synth.run_overhead_ns", median(&mut secs) * 1e9);
}
