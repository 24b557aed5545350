//! `service_mix`: client threads compiling against one [`Service`],
//! closed loop, over 21 problems with Zipf popularity.
//!
//! Every round starts from empty polyhedral caches and a fresh service,
//! so every round pays one genuine search per problem (5 % of its
//! requests) and serves the rest from the plan cache. Nothing is
//! loaded and no kernel runs: search, the polyhedral layer, admission,
//! single-flight and the plan cache do all the work.

use crate::harness::{
    geomean, mean, median, percentile, quiet, quiet_over_keys, quiet_rate, repeat_setup, Deadline,
    Host, Rng, Values,
};
use crate::inputs::{service_problems, Problem, JIT_KEYS};
use crate::trace::{self_times, Tracer};
use crate::{Args, Outcome};
use bernoulli::{polyhedra, CompiledKernel, Service, ServiceConfig, ServiceStats, Session};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Requests per round.
const ROUND: usize = 420;
/// Rounds, at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 20;

struct Setup {
    problems: Vec<Problem>,
    /// Per problem, what a sequential compile on a fresh session gives:
    /// the plan's cache key and the emitted source. The oracle.
    reference: Vec<(String, String)>,
    /// Indices into `problems`, one per request of a round; every
    /// round asks for them in another order.
    schedule: Vec<usize>,
}

fn set_up() -> Result<Setup, String> {
    let problems = service_problems();
    let session = Session::new();
    let mut reference = Vec::new();
    for p in &problems {
        let k = session
            .bind(&p.program, &p.views)
            .and_then(|b| session.compile(&b))
            .map_err(|e| format!("{}: {e}", p.name))?;
        let source = k.emit(&p.name).map_err(|e| format!("{}: {e}", p.name))?;
        reference.push((k.cache_key().to_string(), source));
    }

    // Zipf(1): the r-th problem gets a share 1/r of the round, at least
    // one request, so that every round searches every problem; the
    // first gets what is left of the round. The seed decides the order
    // of the requests and nothing else: which problems are popular
    // decides what a hit costs, so a seed that chose that would choose
    // the result.
    let harmonic: f64 = (1..=problems.len()).map(|r| 1.0 / r as f64).sum();
    let mut schedule = Vec::with_capacity(ROUND);
    for problem in 1..problems.len() {
        let share = ROUND as f64 / ((problem + 1) as f64 * harmonic);
        schedule.extend(std::iter::repeat_n(
            problem,
            (share.round() as usize).max(1),
        ));
    }
    let rest = ROUND.saturating_sub(schedule.len()).max(1);
    schedule.extend(std::iter::repeat_n(0, rest));
    Ok(Setup {
        problems,
        reference,
        schedule,
    })
}

/// One answered request. Kept small: a run holds some 80 000 of these,
/// and their number varies with the host's speed, so their size is
/// noise in the run's own peak memory.
struct Served {
    problem: u8,
    searched: bool,
    /// Seconds from `bind` to the kernel.
    secs: f32,
    compile_secs: f32,
    bind_secs: f32,
}

#[derive(Default)]
struct ClientOut {
    served: Vec<Served>,
    /// Kernels that came out of a search, kept so that their source can
    /// be compared with the reference once the round's clock stops.
    searched: Vec<(usize, CompiledKernel)>,
    failed: u64,
}

fn client(
    svc: &Service,
    su: &Setup,
    schedule: &[usize],
    cursor: &AtomicUsize,
    tr: &mut Tracer,
) -> ClientOut {
    let mut out = ClientOut::default();
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&problem) = schedule.get(i) else {
            return out;
        };
        let p = &su.problems[problem];
        tr.next_request();
        let ((result, bind_secs, compile_secs), secs) = tr.span("request", |tr| {
            let (bound, bind_secs) = tr.span("synth.bind", |_| svc.bind(&p.program, &p.views));
            let Ok(bound) = bound else {
                return (None, bind_secs, 0.0);
            };
            let (k, compile_secs) = tr.span_named(|_| {
                let k = svc.compile(&bound);
                let layer = match &k {
                    Ok(k) if k.from_cache() => "synth.plan_hit",
                    _ => "synth.search",
                };
                (layer, k)
            });
            (k.ok(), bind_secs, compile_secs)
        });
        // An error, a shed request or another plan than the reference's
        // is a failed operation.
        match result {
            Some(k) if k.cache_key() == su.reference[problem].0 => {
                let searched = !k.from_cache();
                out.served.push(Served {
                    problem: problem as u8,
                    searched,
                    secs: secs as f32,
                    compile_secs: compile_secs as f32,
                    bind_secs: bind_secs as f32,
                });
                if searched {
                    out.searched.push((problem, k));
                }
            }
            _ => out.failed += 1,
        }
    }
}

fn add(total: &mut ServiceStats, s: &ServiceStats) {
    total.submitted += s.submitted;
    total.admitted += s.admitted;
    total.completed += s.completed;
    total.failed += s.failed;
    total.shed_overloaded += s.shed_overloaded;
    total.shed_deadline += s.shed_deadline;
    total.searches += s.searches;
    total.coalesced += s.coalesced;
    total.peak_inflight = total.peak_inflight.max(s.peak_inflight);
}

pub fn run(args: &Args, host: &Host) -> Outcome {
    let mut v = Values::default();
    let (su, setup_s) = repeat_setup(|| {
        set_up().unwrap_or_else(|e| {
            eprintln!("benchmark: set-up failed: {e}");
            std::process::exit(5);
        })
    });
    v.set("setup_s", setup_s);

    // Never more load-generating threads than the host has cores.
    let clients = host.nproc.min(2);
    let mut tracers: Vec<Tracer> = (0..clients)
        .map(|c| Tracer::new(false, c as u32 + 1))
        .collect();

    let mut served: Vec<Served> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut totals = ServiceStats::default();
    let mut poly = polyhedra::CacheStats::default();
    let mut wall = [0.0f64; 2];
    let mut requests = [0usize; 2];
    // Requests per second of each round, and per problem the latency
    // of each round's search.
    let mut round_rps = Vec::new();
    let mut search_secs: Vec<Vec<f64>> = vec![Vec::new(); su.problems.len()];
    let mut examined = vec![0usize; su.problems.len()];
    let mut kept = vec![0usize; su.problems.len()];

    let mut rng = Rng::new(args.seed);
    let mut schedule = su.schedule.clone();
    let deadline = Deadline::after(args.seconds);
    let mut rounds = 0usize;
    // One untimed round first: it pays the one-off costs (pool threads,
    // lazy statics) no later round pays.
    let warm_up = 1;
    while rounds < warm_up + MIN_ROUNDS || !deadline.passed() {
        let timed = rounds >= warm_up;
        let recorded = args.trace && rounds % 2 == 1;
        // Which requests overlap, and who waits on whose search,
        // depends on the order; a new order every round, so that a run
        // averages over orders and not its seed's one.
        rng.shuffle(&mut schedule);
        polyhedra::clear_caches();
        let svc = Service::new(ServiceConfig::default());
        let cursor = AtomicUsize::new(0);
        let t0 = Instant::now();
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .map(|tr| {
                    tr.set_on(recorded && timed);
                    let (svc, su, schedule, cursor) = (&svc, &su, &schedule, &cursor);
                    s.spawn(move || client(svc, su, schedule, cursor, tr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let round_wall = t0.elapsed().as_secs_f64();
        rounds += 1;
        if !timed {
            continue;
        }
        wall[usize::from(recorded)] += round_wall;
        add(&mut totals, &svc.stats());
        let p = polyhedra::shared_tier().stats();
        poly.empty_hits += p.empty_hits;
        poly.empty_misses += p.empty_misses;
        poly.fm_hits += p.fm_hits;
        poly.fm_misses += p.fm_misses;
        let answered: usize = outs.iter().map(|o| o.served.len()).sum();
        round_rps.push(answered as f64 / round_wall);
        // A request that met its problem's search in flight waited for
        // only the rest of it; the one that led the search is the one
        // that took longest.
        let mut led = vec![0.0f64; su.problems.len()];
        for s in outs.iter().flat_map(|o| &o.served).filter(|s| s.searched) {
            let p = usize::from(s.problem);
            led[p] = led[p].max(f64::from(s.secs));
        }
        for (per_problem, &secs) in search_secs.iter_mut().zip(&led) {
            per_problem.push(secs);
        }
        for out in outs {
            attempted += out.served.len() as u64 + out.failed;
            failed += out.failed;
            requests[usize::from(recorded)] += out.served.len();
            served.extend(out.served);
            // Every client, every round: the same source as the
            // sequential reference, byte for byte.
            for (problem, k) in out.searched {
                let p = &su.problems[problem];
                examined[problem] = k.report().examined;
                kept[problem] = k.candidates().len();
                attempted += 1;
                if k.emit(&p.name).ok().as_deref() != Some(su.reference[problem].1.as_str()) {
                    failed += 1;
                    eprintln!(
                        "benchmark: {} emitted other source than the reference",
                        p.name
                    );
                }
            }
        }
    }

    let timed_rounds = rounds - warm_up;
    let total_wall = wall[0] + wall[1];
    let total_requests = requests[0] + requests[1];
    let secs_where = |f: &dyn Fn(&Served) -> bool| -> Vec<f64> {
        served
            .iter()
            .filter(|s| f(s))
            .map(|s| f64::from(s.secs))
            .collect()
    };
    let mut all = secs_where(&|_| true);
    let mut hits = secs_where(&|s| !s.searched);
    let misses = secs_where(&|s| s.searched);

    // End to end: per problem the quiet-host latency of a request that
    // searched and of one the plan cache served; the best round.
    v.set("cold_ms", quiet_over_keys(&search_secs) * 1e3);
    v.set(
        "steady_us",
        geomean(
            (0..su.problems.len())
                .map(|p| quiet(&secs_where(&|s| !s.searched && usize::from(s.problem) == p))),
        ) * 1e6,
    );
    v.set("ops_per_s", quiet_rate(&round_rps));

    v.set("compile_rps", total_requests as f64 / total_wall);
    v.set("compile_p50_us", median(&mut all) * 1e6);
    v.set("compile_p99_ms", percentile(&mut all, 0.99) * 1e3);
    v.set("service.p999_ms", percentile(&mut all, 0.999) * 1e3);
    v.set("service.hit_p50_us", median(&mut hits) * 1e6);
    v.set("service.miss_mean_ms", mean(&misses) * 1e3);
    v.set("service.submitted", totals.submitted as f64);
    v.set("service.admitted", totals.admitted as f64);
    v.set("service.completed", totals.completed as f64);
    v.set("service.failed", totals.failed as f64);
    v.set(
        "service.shed",
        (totals.shed_overloaded + totals.shed_deadline) as f64,
    );
    v.set("service.searches", totals.searches as f64);
    v.set("service.coalesced", totals.coalesced as f64);
    v.set("service.peak_inflight", totals.peak_inflight as f64);
    v.set(
        "service.hit_ratio",
        1.0 - totals.searches as f64 / (totals.completed as f64).max(1.0),
    );
    v.set(
        "polyhedra.empty_queries",
        (poly.empty_hits + poly.empty_misses) as f64,
    );
    v.set("polyhedra.empty_hit_rate", poly.empty_hit_rate());
    v.set(
        "polyhedra.fm_queries",
        (poly.fm_hits + poly.fm_misses) as f64,
    );
    v.set("polyhedra.fm_hit_rate", poly.fm_hit_rate());

    let compile_median = |want_search: bool, problem: Option<usize>| {
        let mut s: Vec<f64> = served
            .iter()
            .filter(|s| {
                s.searched == want_search && problem.is_none_or(|p| p == usize::from(s.problem))
            })
            .map(|s| f64::from(s.compile_secs))
            .collect();
        median(&mut s)
    };
    v.set("synth.plan_hit_us", compile_median(false, None) * 1e6);
    let mut binds: Vec<f64> = served.iter().map(|s| f64::from(s.bind_secs)).collect();
    v.set("synth.bind_us", median(&mut binds) * 1e6);
    for key in JIT_KEYS {
        let name = key.name();
        if let Some(i) = su.problems.iter().position(|p| p.name == name) {
            v.set(
                format!("synth.search_ms.{name}"),
                compile_median(true, Some(i)) * 1e3,
            );
            v.set(format!("synth.search_examined.{name}"), examined[i] as f64);
            v.set(format!("synth.search_kept.{name}"), kept[i] as f64);
        }
    }

    // How much of the clients' time the searches took: the workload is
    // only about search if this is most of it.
    let searching: f64 = served
        .iter()
        .filter(|s| s.searched)
        .map(|s| f64::from(s.compile_secs))
        .sum();
    v.note(
        "rounds",
        format!(
            "{timed_rounds} rounds of {} requests, {clients} client thread(s); {} requests, {} searched",
            su.schedule.len(),
            total_requests,
            misses.len()
        ),
    );
    v.note(
        "search share",
        format!(
            "{:.1} % of client time ({:.2} s of {clients} x {:.2} s) was spent in requests that searched",
            100.0 * searching / (total_wall * clients as f64),
            searching,
            total_wall
        ),
    );

    let mut spans = Vec::new();
    if args.trace {
        let rate = |i: usize| requests[i] as f64 / wall[i];
        v.set(
            "bench.trace_overhead_pct",
            (rate(0) / rate(1) - 1.0) * 100.0,
        );
        for tr in tracers {
            spans.extend(tr.spans);
        }
        let selfs = self_times(&spans);
        v.set(
            "request.self_us",
            selfs
                .get("request")
                .map_or(0.0, |s| median(&mut s.clone()) * 1e6),
        );
    }
    Outcome {
        values: v,
        attempted,
        failed,
        spans,
    }
}
