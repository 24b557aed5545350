//! `jit_request`: one client walks a request from program text to a
//! checked result — parse, analyze, bind, compile, emit, load, run,
//! check — for seven (kernel, format) keys on the evaluation matrix,
//! at three temperatures:
//!
//! - **cold**: a fresh process (the benchmark runs itself again) over
//!   an empty kernel store and an empty persistent plan cache;
//! - **restart**: a fresh process over the directories the cold
//!   request filled;
//! - **warm**: the same request again on the same service and store.
//!
//! Plus the format advisor on a four-fold scaled instance. Kernels
//! barely run here; `rustc`, dlopen, load-time validation, the artifact
//! cache and the plan caches do the work.

use crate::harness::{
    files_with_suffix, geomean, median, percentile, quiet_over_keys, quiet_rate, repeat_setup,
    Deadline, Scratch, Values,
};
use crate::inputs::{close, lanes, matrices, Key, Lane, JIT_KEYS};
use crate::trace::{Span, Tracer};
use crate::{Args, Outcome};
use bernoulli::formats::{gen, Triplets};
use bernoulli::ir::Program;
use bernoulli::{
    KernelStore, PersistentPlanCache, Service, ServiceConfig, Session, StructureFeatures,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Warm passes (one request per key) after each cold and restart
/// request: some 35 ms of warm requests to 270 ms of child processes.
const WARM_PASSES_PER_SLICE: usize = 8;

/// Every span name a request records; a child's spans come back as
/// text and are matched against this list.
const LAYERS: [&str; 11] = [
    "request",
    "ir.parse",
    "ir.deps",
    "synth.bind",
    "synth.search",
    "synth.plan_hit",
    "synth.persist_hit",
    "synth.emit",
    "kernel-cache.load",
    "loaded.run",
    "oracle.check",
];

/// One key's request: the program as text, and the operands.
struct Input {
    text: String,
    matrix: &'static str,
    lane: Lane,
}

fn inputs(seed: u64) -> Vec<Input> {
    lanes(&JIT_KEYS, &matrices(1, seed), seed)
        .into_iter()
        .map(|lane| {
            let (program, matrix) = lane.key.spec();
            Input {
                // The library's own dense specification, printed back
                // to the text a user would write.
                text: program.to_string(),
                matrix,
                lane,
            }
        })
        .collect()
}

/// Stage times of one request, in seconds, and what it observed.
#[derive(Default, Clone)]
struct Stages {
    parse: f64,
    deps: f64,
    bind: f64,
    compile: f64,
    /// `synth.search`, `synth.plan_hit` or `synth.persist_hit`.
    compile_layer: String,
    emit: f64,
    /// `rustc -vV`, once per process, ahead of the first load.
    probe: f64,
    load: f64,
    run: f64,
    dep_classes: usize,
    examined: usize,
    kept: usize,
    emit_bytes: usize,
    /// True when the artifact came from the store, false when `rustc`
    /// built it in this request.
    load_from_cache: bool,
}

/// The request itself, the same code at every temperature. Leaves the
/// kernel's output in `input.lane.out`.
fn request(
    tr: &mut Tracer,
    svc: &Service,
    store: &KernelStore,
    input: &mut Input,
) -> Result<Stages, String> {
    let mut st = Stages::default();
    let name = input.lane.key.name();
    let (program, secs) = tr.span("ir.parse", |_| svc.parse(&input.text));
    st.parse = secs;
    let program: Program = program.map_err(|e| format!("{name}: parse: {e}"))?;
    let (deps, secs) = tr.span("ir.deps", |_| svc.analyze(&program));
    st.deps = secs;
    st.dep_classes = deps.len();
    let (bound, secs) = tr.span("synth.bind", |_| {
        svc.bind(&program, &[(input.matrix, input.lane.key.view())])
    });
    st.bind = secs;
    let bound = bound.map_err(|e| format!("{name}: bind: {e}"))?;
    let (kernel, secs) = tr.span_named(|_| {
        let k = svc.compile(&bound);
        let layer = match &k {
            Ok(k) if k.report().plan_cache_disk_hit => "synth.persist_hit",
            Ok(k) if k.from_cache() => "synth.plan_hit",
            _ => "synth.search",
        };
        (layer, k.map(|k| (k, layer)))
    });
    st.compile = secs;
    let (kernel, layer) = kernel.map_err(|e| format!("{name}: compile: {e}"))?;
    st.compile_layer = layer.to_string();
    st.examined = kernel.report().examined;
    st.kept = kernel.candidates().len();
    let (source, secs) = tr.span("synth.emit", |_| kernel.emit(&name));
    st.emit = secs;
    st.emit_bytes = source.map_err(|e| format!("{name}: emit: {e}"))?.len();
    let (loaded, secs) = tr.span("kernel-cache.load", |_| {
        let t0 = Instant::now();
        let _ = bernoulli::rustc_info();
        st.probe = t0.elapsed().as_secs_f64();
        kernel.load_in(store)
    });
    st.load = secs;
    // An `Err` here is where the library would serve the interpreter;
    // the request asked for native code.
    let loaded = loaded.map_err(|e| format!("{name}: native load failed: {e}"))?;
    if !loaded.validated() {
        return Err(format!("{name}: the loaded kernel was not validated"));
    }
    st.load_from_cache = loaded.from_cache();
    input.lane.reset();
    let (ran, secs) = tr.span("loaded.run", |_| input.lane.run_loaded(&loaded));
    st.run = secs;
    ran.map_err(|e| format!("{name}: run: {e}"))?;
    Ok(st)
}

fn service_over(persist: &Path) -> Service {
    Service::new(ServiceConfig {
        persist_dir: Some(persist.to_path_buf()),
        ..ServiceConfig::default()
    })
}

// ---------------------------------------------------------------------
// The child process: one request, then exit.

/// `--child <key index> <seed> <store> <persist> <out file> <trace>`.
/// Prints what it observed, one `name value` pair per line, and its
/// spans; writes the kernel's output, as little-endian doubles, to the
/// out file for the parent to check.
pub fn child_main(argv: &[String]) -> i32 {
    let [key, seed, store, persist, out, trace] = argv else {
        eprintln!("benchmark child: bad arguments {argv:?}");
        return 2;
    };
    let (Ok(key), Ok(seed)) = (key.parse::<usize>(), seed.parse::<u64>()) else {
        return 2;
    };
    if key >= JIT_KEYS.len() {
        return 2;
    }
    let mut tr = Tracer::new(trace == "1", 2);
    let mut input = inputs(seed).swap_remove(key);
    let svc = service_over(Path::new(persist));
    let store = KernelStore::at(PathBuf::from(store));
    let st = match request(&mut tr, &svc, &store, &mut input) {
        Ok(st) => st,
        Err(e) => {
            eprintln!("benchmark child: {e}");
            return 1;
        }
    };
    let bytes: Vec<u8> = input
        .lane
        .out
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    if let Err(e) = std::fs::write(out, bytes) {
        eprintln!("benchmark child: writing {out}: {e}");
        return 1;
    }
    let mut text = format!(
        "parse {}\ndeps {}\nbind {}\ncompile {}\ncompile_layer {}\nemit {}\nprobe {}\nload {}\nrun {}\ndep_classes {}\nexamined {}\nkept {}\nemit_bytes {}\nload_from_cache {}\n",
        st.parse, st.deps, st.bind, st.compile, st.compile_layer, st.emit, st.probe, st.load,
        st.run, st.dep_classes, st.examined, st.kept, st.emit_bytes,
        u8::from(st.load_from_cache)
    );
    for s in &tr.spans {
        text.push_str(&format!(
            "span {} {} {} {} {}\n",
            s.name, s.id, s.parent, s.start_ns, s.end_ns
        ));
    }
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    if w.write_all(text.as_bytes())
        .and_then(|()| w.flush())
        .is_err()
    {
        return 1;
    }
    0
}

fn parse_child(text: &str) -> Option<(Stages, Vec<Span>)> {
    let mut st = Stages::default();
    let mut spans = Vec::new();
    for line in text.lines() {
        let mut it = line.split(' ');
        let (name, value) = (it.next()?, it.next()?);
        match name {
            "parse" => st.parse = value.parse().ok()?,
            "deps" => st.deps = value.parse().ok()?,
            "bind" => st.bind = value.parse().ok()?,
            "compile" => st.compile = value.parse().ok()?,
            "compile_layer" => st.compile_layer = value.to_string(),
            "emit" => st.emit = value.parse().ok()?,
            "probe" => st.probe = value.parse().ok()?,
            "load" => st.load = value.parse().ok()?,
            "run" => st.run = value.parse().ok()?,
            "dep_classes" => st.dep_classes = value.parse().ok()?,
            "examined" => st.examined = value.parse().ok()?,
            "kept" => st.kept = value.parse().ok()?,
            "emit_bytes" => st.emit_bytes = value.parse().ok()?,
            "load_from_cache" => st.load_from_cache = value == "1",
            "span" => spans.push(Span {
                name: LAYERS.iter().find(|&&l| l == value)?,
                id: it.next()?.parse().ok()?,
                parent: it.next()?.parse().ok()?,
                request: 0,
                start_ns: it.next()?.parse().ok()?,
                end_ns: it.next()?.parse().ok()?,
            }),
            _ => return None,
        }
    }
    Some((st, spans))
}

/// Dirs of one cold request and the restarts that follow it.
struct Dirs {
    store: PathBuf,
    persist: PathBuf,
    out: PathBuf,
}

/// Runs one request in a fresh process and checks its output. Returns
/// the seconds from just before the spawn to the checked result.
fn child_request(
    tr: &mut Tracer,
    exe: &Path,
    key: usize,
    seed: u64,
    dirs: &Dirs,
    expected: &[f64],
) -> Result<(Stages, f64), String> {
    tr.next_request();
    let recorded = tr.is_on();
    let (result, secs) = tr.span("request", |tr| {
        let output = Command::new(exe)
            .arg("--child")
            .arg(key.to_string())
            .arg(seed.to_string())
            .arg(&dirs.store)
            .arg(&dirs.persist)
            .arg(&dirs.out)
            .arg(if recorded { "1" } else { "0" })
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning the child: {e}"))?;
        if !output.status.success() {
            return Err(format!("the child exited with {}", output.status));
        }
        let (st, spans) = parse_child(&String::from_utf8_lossy(&output.stdout))
            .ok_or("the child's report does not parse")?;
        tr.adopt(spans);
        let (same, _) = tr.span("oracle.check", |_| {
            std::fs::read(&dirs.out).is_ok_and(|bytes| {
                let got: Vec<f64> = bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("chunks of 8")))
                    .collect();
                close(&got, expected)
            })
        });
        if same {
            Ok(st)
        } else {
            Err("the child's result disagrees with the dense reference".to_string())
        }
    });
    result.map(|st| (st, secs))
}

// ---------------------------------------------------------------------

struct Setup {
    inputs: Vec<Input>,
    /// What the dense reference executor computes, per key. The oracle.
    expected: Vec<Vec<f64>>,
    mvm: Program,
    advise_on: Triplets<f64>,
}

fn set_up(seed: u64) -> Setup {
    let inputs = inputs(seed);
    let expected = inputs
        .iter()
        .map(|i| {
            let (program, matrix) = i.lane.key.spec();
            i.lane.dense_reference(&program, matrix)
        })
        .collect();
    Setup {
        inputs,
        expected,
        mvm: Key::new("mvm", "csr").spec().0,
        advise_on: gen::scale(&gen::can_1072_like(), 4, seed),
    }
}

struct Samples {
    /// Request seconds per key.
    total: Vec<Vec<f64>>,
    stages: Vec<Vec<Stages>>,
}

impl Samples {
    fn new() -> Samples {
        Samples {
            total: vec![Vec::new(); JIT_KEYS.len()],
            stages: vec![Vec::new(); JIT_KEYS.len()],
        }
    }

    fn push(&mut self, key: usize, secs: f64, st: Stages) {
        self.total[key].push(secs);
        self.stages[key].push(st);
    }

    fn all(&self) -> Vec<f64> {
        self.total.concat()
    }

    /// Geometric mean over the keys of each key's `q`-quantile.
    fn over_keys(&self, q: f64) -> f64 {
        geomean(self.total.iter().map(|t| percentile(&mut t.clone(), q)))
    }

    /// Median of a stage over every request of every key.
    fn stage(&self, f: impl Fn(&Stages) -> f64) -> f64 {
        let mut v: Vec<f64> = self.stages.iter().flatten().map(&f).collect();
        median(&mut v)
    }

    /// Median of a stage over the requests of one key whose compile
    /// was served by `layer`.
    fn compile_of(&self, key: usize, layer: &str) -> f64 {
        let mut v: Vec<f64> = self.stages[key]
            .iter()
            .filter(|s| s.compile_layer == layer)
            .map(|s| s.compile)
            .collect();
        median(&mut v)
    }
}

pub fn run(args: &Args, scratch: &Scratch) -> Outcome {
    let mut v = Values::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut su, setup_s) = repeat_setup(|| set_up(args.seed));
    v.set("setup_s", setup_s);

    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("benchmark: cannot find my own executable: {e}");
        std::process::exit(5);
    });
    let mut tr = Tracer::new(false, 1);
    let fail = |what: String| {
        eprintln!("benchmark: {what}");
        1u64
    };

    // Warm requests run on one service and one store for the whole
    // run. The first request per key fills them and is not counted; the
    // polyhedral layer's work for those seven searches is.
    let svc = service_over(&scratch.dir("persist"));
    let store = KernelStore::at(scratch.dir("store"));
    let poly_before = bernoulli::polyhedra::shared_tier().stats();
    for input in &mut su.inputs {
        if let Err(e) = request(&mut tr, &svc, &store, input) {
            failed += fail(e);
        }
    }
    let poly = bernoulli::polyhedra::shared_tier().stats();

    let (mut cold, mut restart) = (Samples::new(), Samples::new());
    let mut warm = [Samples::new(), Samples::new()];
    let mut warm_rates = Vec::new();
    let mut check_secs = Vec::new();
    let (mut advise_secs, mut candidates) = (Vec::new(), 0usize);
    let mut first_choice: Option<String> = None;
    let mut artifact_bytes = vec![0u64; JIT_KEYS.len()];
    let mut persist_entries = 0usize;
    let (mut builds, mut hits) = (0u64, 0u64);
    let mut warm_passes = 0usize;

    // The temperatures take turns all through the run (after every
    // cold and restart request, a slice of warm requests and one call
    // of the advisor), so that each sees the whole of the run's
    // machine and not one stretch of it.
    let deadline = Deadline::after(args.seconds);
    let mut pass = 0usize;
    while pass < 2 || !deadline.passed() {
        let recorded = args.trace && pass % 2 == 1;
        for key in 0..JIT_KEYS.len() {
            // Cold, then restart over what the cold request left behind.
            tr.set_on(recorded);
            let dirs = Dirs {
                store: scratch.dir("store"),
                persist: scratch.dir("persist"),
                out: scratch.dir("out").join("y.bin"),
            };
            for (samples, want_cached) in [(&mut cold, false), (&mut restart, true)] {
                attempted += 1;
                match child_request(&mut tr, &exe, key, args.seed, &dirs, &su.expected[key]) {
                    Ok((st, _)) if st.load_from_cache != want_cached => {
                        failed += fail(format!(
                            "{}: artifact from cache: {}, expected {want_cached}",
                            JIT_KEYS[key].name(),
                            st.load_from_cache
                        ));
                    }
                    Ok((st, secs)) => {
                        builds += u64::from(!st.load_from_cache);
                        hits += u64::from(st.load_from_cache);
                        samples.push(key, secs, st);
                    }
                    Err(e) => failed += fail(format!("{}: {e}", JIT_KEYS[key].name())),
                }
            }
            artifact_bytes[key] = files_with_suffix(&dirs.store, std::env::consts::DLL_EXTENSION).0;
            persist_entries = PersistentPlanCache::new(&dirs.persist).entry_count();
            for d in [&dirs.store, &dirs.persist] {
                let _ = std::fs::remove_dir_all(d);
            }

            // Warm: the same requests again on the long-lived service.
            for _ in 0..WARM_PASSES_PER_SLICE {
                let recorded = args.trace && warm_passes % 2 == 1;
                tr.set_on(recorded);
                let mut pass_secs = 0.0;
                for (key, input) in su.inputs.iter_mut().enumerate() {
                    tr.next_request();
                    attempted += 1;
                    let (result, secs) = tr.span("request", |tr| {
                        let st = request(tr, &svc, &store, input)?;
                        let (same, secs) = tr.span("oracle.check", |_| {
                            close(&input.lane.out, &su.expected[key])
                        });
                        check_secs.push(secs);
                        if same && st.load_from_cache && st.compile_layer == "synth.plan_hit" {
                            Ok(st)
                        } else {
                            Err(format!(
                                "{}: a warm request was served by {} (artifact from cache: {}), result correct: {same}",
                                input.lane.key.name(),
                                st.compile_layer,
                                st.load_from_cache
                            ))
                        }
                    });
                    pass_secs += secs;
                    match result {
                        Ok(st) => {
                            hits += 1;
                            warm[usize::from(recorded)].push(key, secs, st);
                        }
                        Err(e) => failed += fail(e),
                    }
                }
                warm_rates.push(JIT_KEYS.len() as f64 / pass_secs);
                warm_passes += 1;
            }

            // The advisor, a fresh session each time.
            tr.set_on(args.trace && advise_secs.len() % 2 == 1);
            tr.next_request();
            attempted += 1;
            let (advice, secs) = tr.span("request", |_| {
                Session::new().advise(&su.mvm, "A", &su.advise_on, &[])
            });
            match advice {
                Ok(a) => {
                    candidates = a.ranked.len();
                    let choice = a.best().format.clone();
                    // The same instance must get the same advice every time.
                    if *first_choice.get_or_insert_with(|| choice.clone()) != choice {
                        failed += fail(format!("the advisor changed its mind: {choice}"));
                    }
                    advise_secs.push(secs);
                }
                Err(e) => failed += fail(format!("advise: {e}")),
            }
        }
        pass += 1;
    }

    // Determinism: counts and byte sizes may be quoted as exact only if
    // two fresh sessions agree on them.
    for input in &su.inputs {
        attempted += 1;
        let compile = || -> Result<(String, usize), String> {
            let s = Session::new();
            let p = s.parse(&input.text).map_err(|e| e.to_string())?;
            let b = s
                .bind(&p, &[(input.matrix, input.lane.key.view())])
                .map_err(|e| e.to_string())?;
            let k = s.compile(&b).map_err(|e| e.to_string())?;
            let src = k.emit(&input.lane.key.name()).map_err(|e| e.to_string())?;
            Ok((src, k.report().examined))
        };
        match (compile(), compile()) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => {
                failed += fail(format!(
                    "{}: two fresh sessions emitted different source or examined different counts",
                    input.lane.key.name()
                ))
            }
            (Err(e), _) | (_, Err(e)) => failed += fail(e),
        }
    }

    // End to end, from the passes the recorder was off for.
    v.set("cold_ms", quiet_over_keys(&cold.total) * 1e3);
    v.set("steady_us", quiet_over_keys(&warm[0].total) * 1e6);
    v.set("ops_per_s", quiet_rate(&warm_rates));
    v.note(
        "samples",
        format!(
            "cold {} and restart {} ({} passes over 7 keys), warm {}, advise {}",
            cold.all().len(),
            restart.all().len(),
            pass,
            warm[0].all().len() + warm[1].all().len(),
            advise_secs.len()
        ),
    );

    // Per layer, from every pass.
    let mut warm_all = Samples::new();
    for w in &warm {
        for key in 0..JIT_KEYS.len() {
            warm_all.total[key].extend(&w.total[key]);
            warm_all.stages[key].extend(w.stages[key].iter().cloned());
        }
    }
    v.set("cold_request_ms", median(&mut cold.all()) * 1e3);
    v.set(
        "cold_request_p90_ms",
        percentile(&mut cold.all(), 0.9) * 1e3,
    );
    v.set("restart_request_ms", median(&mut restart.all()) * 1e3);
    v.set("warm_request_us", median(&mut warm_all.all()) * 1e6);
    v.set("advise_ms", median(&mut advise_secs) * 1e3);
    v.set("synth.advise_candidates", candidates as f64);
    v.set("ir.parse_us", warm_all.stage(|s| s.parse) * 1e6);
    v.set("ir.deps_us", warm_all.stage(|s| s.deps) * 1e6);
    v.set("ir.dep_classes", cold.stage(|s| s.dep_classes as f64));
    v.set("synth.bind_us", warm_all.stage(|s| s.bind) * 1e6);
    v.set("synth.emit_us", warm_all.stage(|s| s.emit) * 1e6);
    v.set("synth.persist_entries", persist_entries as f64);
    let (mut plan_hit, mut persist_hit) = (Vec::new(), Vec::new());
    for (i, key) in JIT_KEYS.iter().enumerate() {
        let name = key.name();
        v.set(
            format!("synth.search_ms.{name}"),
            cold.compile_of(i, "synth.search") * 1e3,
        );
        if let Some(st) = cold.stages[i].first() {
            v.set(format!("synth.search_examined.{name}"), st.examined as f64);
            v.set(format!("synth.search_kept.{name}"), st.kept as f64);
            v.set(format!("synth.emit_bytes.{name}"), st.emit_bytes as f64);
        }
        v.set(
            format!("kernel-cache.artifact_bytes.{name}"),
            artifact_bytes[i] as f64,
        );
        plan_hit.push(warm_all.compile_of(i, "synth.plan_hit"));
        persist_hit.push(restart.compile_of(i, "synth.persist_hit"));
    }
    v.set("synth.plan_hit_us", median(&mut plan_hit) * 1e6);
    v.set("synth.persist_hit_us", median(&mut persist_hit) * 1e6);
    v.set("kernel-cache.rustc_probe_ms", cold.stage(|s| s.probe) * 1e3);
    let restart_load = restart.stage(|s| s.load - s.probe);
    v.set(
        "kernel-cache.build_ms",
        (cold.stage(|s| s.load - s.probe) - restart_load) * 1e3,
    );
    v.set("kernel-cache.restart_load_ms", restart_load * 1e3);
    v.set(
        "kernel-cache.warm_load_us",
        warm_all.stage(|s| s.load) * 1e6,
    );
    v.set("kernel-cache.builds", builds as f64);
    v.set("kernel-cache.hits", hits as f64);
    v.set("oracle.check_us", median(&mut check_secs) * 1e6);
    v.set(
        "polyhedra.empty_queries",
        ((poly.empty_hits + poly.empty_misses)
            - (poly_before.empty_hits + poly_before.empty_misses)) as f64,
    );
    v.set(
        "polyhedra.fm_queries",
        ((poly.fm_hits + poly.fm_misses) - (poly_before.fm_hits + poly_before.fm_misses)) as f64,
    );
    v.set(
        "polyhedra.empty_hit_rate",
        rate(
            poly.empty_hits - poly_before.empty_hits,
            poly.empty_misses - poly_before.empty_misses,
        ),
    );
    v.set(
        "polyhedra.fm_hit_rate",
        rate(
            poly.fm_hits - poly_before.fm_hits,
            poly.fm_misses - poly_before.fm_misses,
        ),
    );

    if args.trace {
        let t0 = Instant::now();
        std::hint::black_box(StructureFeatures::of_triplets(&su.advise_on));
        v.set("formats.features_ms", t0.elapsed().as_secs_f64() * 1e3);
        v.set(
            "bench.trace_overhead_pct",
            (warm[1].over_keys(0.5) / warm[0].over_keys(0.5) - 1.0) * 100.0,
        );
        account_for_cold(&mut v, &tr.spans, &cold);
    }

    Outcome {
        values: v,
        attempted,
        failed,
        spans: tr.spans,
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The traced pass must account for each request: over the recorded
/// cold requests, every layer's mean self time, and the request's own
/// (spawn, process start, operand set-up, exit), against what the
/// parent measured from outside for all cold requests.
fn account_for_cold(v: &mut Values, spans: &[Span], cold: &Samples) {
    // Cold requests are those whose compile searched in a child
    // (lane 2 of the span identifiers).
    let cold_requests: std::collections::HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == "synth.search" && s.id >> 24 == 2)
        .map(|s| s.request)
        .collect();
    let of_cold: Vec<Span> = spans
        .iter()
        .filter(|s| cold_requests.contains(&s.request))
        .cloned()
        .collect();
    let selfs = crate::trace::self_times(&of_cold);
    let n = cold_requests.len().max(1) as f64;
    let mut sum = 0.0;
    let mut parts = Vec::new();
    for layer in LAYERS {
        if let Some(s) = selfs.get(layer) {
            let per_request = s.iter().sum::<f64>() / n;
            sum += per_request;
            parts.push(format!("{layer} {:.2} ms", per_request * 1e3));
            if layer == "request" {
                v.set("request.self_us", median(&mut s.clone()) * 1e6);
            }
        }
    }
    let measured = median(&mut cold.all());
    v.note(
        "cold request accounting",
        format!(
            "mean self times per recorded cold request sum to {:.2} ms = {:.1} % of the cold-request median {:.2} ms ({})",
            sum * 1e3,
            100.0 * sum / measured,
            measured * 1e3,
            parts.join(", ")
        ),
    );
}
