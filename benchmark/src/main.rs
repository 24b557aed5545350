//! The repo's benchmark. One invocation runs one workload in one mode:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload stream_large --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the span recorder
//! off; `--trace 1` records spans around every call into a layer and
//! reports the per-layer metrics. Either way the outputs are checked
//! against an oracle, and the last line of standard output is the
//! result record. See README.md.

mod harness;
mod inputs;
mod jit;
mod metrics;
mod service;
mod stream;
mod trace;

use harness::{json_num, json_str, Host, Scratch, Values};
use std::fmt::Write as _;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: its metric values, how many operations
/// it checked and how many of those failed, and the spans it recorded.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<trace::Span>,
}

pub const WORKLOADS: [&str; 4] = ["stream_large", "stream_small", "jit_request", "service_mix"];

fn usage() -> ! {
    eprintln!(
        "usage: bernoulli-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds.is_nan() || args.seconds <= 0.0
    {
        usage();
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The hermetic-state rule: the benchmark's stores are its own, so
    // whatever the caller's environment points the library at is
    // ignored. Done before any thread exists.
    std::env::remove_var("BERNOULLI_KERNEL_CACHE");
    std::env::remove_var("BERNOULLI_PLAN_CACHE");
    if argv.first().map(String::as_str) == Some("--child") {
        std::process::exit(jit::child_main(&argv[1..]));
    }
    let args = parse_args(&argv);

    // Without a compiler every `load_in` would fall back to the
    // interpreter; that is an outage, not a benchmark.
    if let Err(e) = bernoulli::rustc_info() {
        eprintln!("benchmark: no usable rustc for runtime kernel builds ({e}); refusing to benchmark the interpreter fallback");
        std::process::exit(3);
    }

    let scratch = Scratch::new();
    // rustc and the linker put their temporaries where TMPDIR says.
    let tmp = scratch.dir("tmp");
    std::env::set_var("TMPDIR", &tmp);

    let host = Host::probe();
    let mut outcome = match args.workload.as_str() {
        "stream_large" => stream::run(&args, &scratch, true),
        "stream_small" => stream::run(&args, &scratch, false),
        "jit_request" => jit::run(&args, &scratch),
        "service_mix" => service::run(&args, &host),
        _ => unreachable!("parse_args checked the workload"),
    };
    outcome.values.set("peak_rss_mb", harness::peak_rss_mb());
    outcome.values.set("pool.lanes", host.pool_lanes as f64);
    drop(scratch);

    let listed: Vec<(String, &str)> = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut rows: Vec<(String, f64, &str)> = Vec::new();
    for (name, unit) in &listed {
        let v = outcome.values.metrics.get(name).copied();
        if !args.trace && !v.is_some_and(|v| v.is_finite() && v > 0.0) {
            eprintln!("benchmark: end-to-end metric {name} was not measured ({v:?})");
            std::process::exit(4);
        }
        rows.push((name.clone(), v.unwrap_or(0.0), unit));
    }

    let mode = if args.trace { "traced" } else { "untraced" };
    eprintln!(
        "== {} · {mode} · seed {} · {} s ==",
        args.workload, args.seed, args.seconds
    );
    eprintln!(
        "host: nproc {} · caches {} · {} · pool lanes {} · commit {}",
        host.nproc, host.caches, host.rustc, host.pool_lanes, host.commit
    );
    // A per-layer metric of a layer this workload never calls is 0;
    // the table leaves those out, the result line does not.
    for (name, v, unit) in rows.iter().filter(|r| !args.trace || r.1 != 0.0) {
        eprintln!("  {name:<44} {v:>16.4} {unit}");
    }
    for (k, v) in &outcome.values.notes {
        eprintln!("  # {k}: {v}");
    }
    eprintln!(
        "  checked {} operations, {} failed",
        outcome.attempted, outcome.failed
    );

    let out = harness::out_dir();
    if args.trace {
        let path = out.join(format!("trace-{}.json", args.workload));
        if let Err(e) = trace::write_spans(&path, &args.workload, &outcome.spans, 200_000) {
            eprintln!("benchmark: could not write {}: {e}", path.display());
        }
    }

    let mut metrics_json = String::new();
    for (i, (name, v, unit)) in rows.iter().enumerate() {
        if i > 0 {
            metrics_json.push_str(", ");
        }
        let _ = write!(
            metrics_json,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json
    );

    // The same record, with what the driver does not take: the host,
    // the seed and the notes.
    let mut full = format!(
        "{{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"host\": {{\"nproc\": {}, \"caches\": {}, \"rustc\": {}, \"pool_lanes\": {}, \"commit\": {}}}, \"notes\": {{",
        json_str(&args.workload),
        args.trace,
        args.seed,
        json_num(args.seconds),
        host.nproc,
        json_str(&host.caches),
        json_str(&host.rustc),
        host.pool_lanes,
        json_str(&host.commit)
    );
    for (i, (k, v)) in outcome.values.notes.iter().enumerate() {
        if i > 0 {
            full.push_str(", ");
        }
        let _ = write!(full, "{}: {}", json_str(k), json_str(v));
    }
    let _ = writeln!(full, "}}, \"result\": {result}}}");
    let path = out.join(format!(
        "result-{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, full) {
        eprintln!("benchmark: could not write {}: {e}", path.display());
    }

    println!("{result}");
}
