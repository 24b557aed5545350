//! Compares two `BENCH_*.json` reports and flags throughput
//! regressions — the non-blocking perf gate CI runs against the
//! committed `BENCH_mvm.json` baseline.
//!
//! Usage: `perf_diff <baseline.json> <current.json> [threshold]`
//!
//! Walks both reports, pairs up every higher-is-better throughput leaf
//! (`synth`, `nist_c`, `nist_f`, `mflops`, `seq_mflops`,
//! `csr_parallel_4`) by its labeled path, and prints the relative
//! change. Exit codes: 1 if any metric dropped by more than
//! `threshold` (default 0.25); 2 on unreadable/unparsable input; 3
//! (with a typed [`DiffError`]) when the baseline is missing a series
//! the candidate reports — a stale baseline, which would otherwise
//! silently exempt the new series from the gate. Metrics present in
//! the baseline but missing from the candidate are reported but never
//! fail, so reports can shrink deliberately.

use bernoulli_bench::report::{parse, Json};

/// Throughput leaves (higher is better). Time-per-op fields (`*_us`,
/// `*_ms`) are deliberately excluded: their medians live in the same
/// reports but regressions there are already visible through these.
/// The `*_per_s` and `poly_cache_hit_rate` leaves come from the S34
/// synthesis-performance report (`BENCH_synth.json`); the
/// `session_*_per_s` pair measures the S35 embedding lifecycle (a
/// brand-new `Session` compiling once vs one more compile on a session
/// that already holds the plan). The `*_mflops` family, the
/// `loaded_vs_*` ratios and `warm_load_per_s` come from the S37
/// compiled-kernel report (`BENCH_kernels.json`); the ratios pit two
/// paths measured in the same run against each other, so they stay
/// meaningful on noisy hosts where absolute MFLOP/s swing, and
/// `warm_load_per_s` regressing means warm artifact-cache loads are no
/// longer sub-millisecond. `throughput_per_s` / `p99_per_s` (inverse
/// tail latency) and `warm_vs_cold_speedup` gate the S38 multi-tenant
/// service report (`BENCH_service.json`). `advisor_accuracy`
/// (picked-best fraction) and `chosen_mflops` (throughput of the
/// advisor's chosen format) gate the S40 structure-aware selection
/// report (`BENCH_advisor.json`). `validation_overhead` (first load
/// of a warm artifact through a fresh store handle — verify + probe +
/// dlopen — over a repeat load through the same handle) and
/// `coalesced_per_s` (16 coalesced clients on one key) gate the S41
/// self-healing report.
const METRICS: [&str; 28] = [
    "synth",
    "nist_c",
    "nist_f",
    "mflops",
    "seq_mflops",
    "csr_parallel_4",
    "seq_per_s",
    "par_per_s",
    "warm_per_s",
    "budgeted_per_s",
    "session_fresh_per_s",
    "session_reused_per_s",
    "poly_cache_hit_rate",
    "loaded_mflops",
    "hand_mflops",
    "committed_mflops",
    "interp_mflops",
    "par_loaded_mflops",
    "loaded_vs_hand",
    "loaded_vs_interp",
    "warm_load_per_s",
    "throughput_per_s",
    "p99_per_s",
    "warm_vs_cold_speedup",
    "advisor_accuracy",
    "chosen_mflops",
    "validation_overhead",
    "coalesced_per_s",
];

/// Flattens a report into `(labeled path, value)` pairs; objects
/// contribute their identifying field (`input`, `format`, `name`,
/// `workload`, `threads`) to the path so rows pair up even if array
/// order changes.
fn flatten(j: &Json, prefix: &str, out: &mut Vec<(String, f64)>) {
    match j {
        Json::Obj(fields) => {
            let label = fields.iter().find_map(|(k, v)| {
                if matches!(k.as_str(), "input" | "format" | "name" | "workload") {
                    v.as_str().map(str::to_string)
                } else if k == "threads" {
                    v.as_num().map(|n| format!("t{n}"))
                } else {
                    None
                }
            });
            let base = match label {
                Some(l) => format!("{prefix}/{l}"),
                None => prefix.to_string(),
            };
            for (k, v) in fields {
                match v {
                    Json::Num(x) if METRICS.contains(&k.as_str()) => {
                        out.push((format!("{base}.{k}"), *x));
                    }
                    Json::Obj(_) | Json::Arr(_) => flatten(v, &base, out),
                    _ => {}
                }
            }
        }
        Json::Arr(items) => {
            for item in items {
                flatten(item, prefix, out);
            }
        }
        _ => {}
    }
}

/// A typed comparison failure that is not a throughput regression.
#[derive(Debug, PartialEq)]
enum DiffError {
    /// The baseline lacks series the candidate reports: comparing
    /// against it would silently exempt those series from the gate.
    /// The fix is regenerating (re-committing) the baseline.
    BaselineMissingSeries { paths: Vec<String> },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::BaselineMissingSeries { paths } => {
                writeln!(
                    f,
                    "baseline is missing {} series present in the candidate \
                     (stale baseline — regenerate it):",
                    paths.len()
                )?;
                for p in paths {
                    writeln!(f, "  {p}")?;
                }
                Ok(())
            }
        }
    }
}

/// Series the candidate reports that the baseline does not.
fn baseline_gaps(baseline: &[(String, f64)], current: &[(String, f64)]) -> Option<DiffError> {
    let paths: Vec<String> = current
        .iter()
        .filter(|(p, _)| !baseline.iter().any(|(b, _)| b == p))
        .map(|(p, _)| p.clone())
        .collect();
    if paths.is_empty() {
        None
    } else {
        Some(DiffError::BaselineMissingSeries { paths })
    }
}

/// Pairs baseline and current metrics and returns the regressed paths
/// (relative drop > `threshold`).
fn regressions(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    threshold: f64,
) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for (path, old) in baseline {
        if let Some((_, new)) = current.iter().find(|(p, _)| p == path) {
            if *old > 0.0 && *new < *old * (1.0 - threshold) {
                out.push((path.clone(), *old, *new));
            }
        }
    }
    out
}

fn load(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let json = parse(&text).unwrap_or_else(|e| {
        eprintln!("perf_diff: cannot parse {path}: {e}");
        std::process::exit(2);
    });
    let mut flat = Vec::new();
    flatten(&json, "", &mut flat);
    flat
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: perf_diff <baseline.json> <current.json> [threshold]");
        std::process::exit(2);
    }
    let threshold: f64 = args
        .get(3)
        .map(|s| s.parse().expect("threshold parses as a float"))
        .unwrap_or(0.25);

    let baseline = load(&args[1]);
    let current = load(&args[2]);
    println!(
        "perf_diff: {} baseline metrics vs {} current (threshold {:.0}%)",
        baseline.len(),
        current.len(),
        threshold * 100.0
    );
    for (path, old) in &baseline {
        match current.iter().find(|(p, _)| p == path) {
            Some((_, new)) => {
                let change = if *old > 0.0 { (new - old) / old } else { 0.0 };
                println!(
                    "  {path:<48} {old:>10.1} -> {new:>10.1}  ({change:+7.1}%)",
                    change = change * 100.0
                );
            }
            None => println!("  {path:<48} {old:>10.1} -> (missing)"),
        }
    }

    let regressed = regressions(&baseline, &current, threshold);
    if !regressed.is_empty() {
        println!("perf_diff: {} metric(s) regressed:", regressed.len());
        for (path, old, new) in &regressed {
            println!(
                "  REGRESSION {path}: {old:.1} -> {new:.1} ({:+.1}%)",
                (new - old) / old * 100.0
            );
        }
        std::process::exit(1);
    }
    if let Some(e) = baseline_gaps(&baseline, &current) {
        eprintln!("perf_diff: error: {e}");
        std::process::exit(3);
    }
    println!(
        "perf_diff: OK — no metric dropped more than {:.0}%",
        threshold * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_bench::report::obj;

    fn sample(csr_synth: f64) -> Json {
        obj(vec![
            ("experiment", Json::str("mvm")),
            ("unit", Json::str("MFLOP/s")),
            (
                "inputs",
                Json::Arr(vec![obj(vec![
                    ("input", Json::str("can1072")),
                    ("nnz", Json::num(12444.0)),
                    (
                        "formats",
                        Json::Arr(vec![
                            obj(vec![
                                ("format", Json::str("csr")),
                                ("synth", Json::num(csr_synth)),
                                ("nist_c", Json::num(900.0)),
                            ]),
                            obj(vec![
                                ("format", Json::str("ell")),
                                ("synth", Json::num(700.0)),
                                ("nist_c", Json::num(710.0)),
                            ]),
                        ]),
                    ),
                    ("csr_parallel_4", Json::num(1500.0)),
                ])]),
            ),
        ])
    }

    #[test]
    fn flatten_labels_rows_and_skips_non_metrics() {
        let mut flat = Vec::new();
        flatten(&sample(800.0), "", &mut flat);
        let keys: Vec<&str> = flat.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"/can1072/csr.synth"));
        assert!(keys.contains(&"/can1072/ell.nist_c"));
        assert!(keys.contains(&"/can1072.csr_parallel_4"));
        // `nnz` is shape metadata, not a throughput metric.
        assert!(!keys.iter().any(|k| k.contains("nnz")));
        assert_eq!(flat.len(), 5);
    }

    #[test]
    fn session_lifecycle_metrics_are_tracked() {
        let synth_report = obj(vec![
            ("experiment", Json::str("synth")),
            (
                "workloads",
                Json::Arr(vec![obj(vec![
                    ("workload", Json::str("mvm/csr")),
                    ("warm_per_s", Json::num(1800.0)),
                    ("session_fresh_ms", Json::num(0.8)),
                    ("session_fresh_per_s", Json::num(1250.0)),
                    ("session_reused_per_s", Json::num(38000.0)),
                    ("poly_cache_hit_rate", Json::num(0.46)),
                ])]),
            ),
        ]);
        let mut flat = Vec::new();
        flatten(&synth_report, "", &mut flat);
        let keys: Vec<&str> = flat.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"/mvm/csr.session_fresh_per_s"));
        assert!(keys.contains(&"/mvm/csr.session_reused_per_s"));
        assert!(keys.contains(&"/mvm/csr.poly_cache_hit_rate"));
        // Raw millisecond fields stay out of the gate.
        assert!(!keys.iter().any(|k| k.contains("session_fresh_ms")));
        // A regression in the reused-session path is caught like any
        // other throughput drop.
        let degraded = obj(vec![(
            "workloads",
            Json::Arr(vec![obj(vec![
                ("workload", Json::str("mvm/csr")),
                ("session_reused_per_s", Json::num(9000.0)),
            ])]),
        )]);
        let mut cur = Vec::new();
        flatten(&degraded, "", &mut cur);
        let r = regressions(&flat, &cur, 0.25);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "/mvm/csr.session_reused_per_s");
    }

    #[test]
    fn regression_detection_respects_threshold() {
        let mut base = Vec::new();
        flatten(&sample(800.0), "", &mut base);
        // 10% drop on csr.synth: within the 25% threshold.
        let mut ok = Vec::new();
        flatten(&sample(720.0), "", &mut ok);
        assert!(regressions(&base, &ok, 0.25).is_empty());
        // 50% drop: flagged, and only that metric.
        let mut bad = Vec::new();
        flatten(&sample(400.0), "", &mut bad);
        let r = regressions(&base, &bad, 0.25);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "/can1072/csr.synth");
        // Metrics missing from the current report never fail the gate.
        let shorter: Vec<(String, f64)> = bad
            .iter()
            .filter(|(k, _)| !k.ends_with(".synth"))
            .cloned()
            .collect();
        assert!(regressions(&base, &shorter, 0.25).is_empty());
    }

    #[test]
    fn stale_baseline_is_a_typed_error() {
        let mut base = Vec::new();
        flatten(&sample(800.0), "", &mut base);
        let mut cur = Vec::new();
        flatten(&sample(800.0), "", &mut cur);
        // Identical series: no gap.
        assert_eq!(baseline_gaps(&base, &cur), None);
        // The candidate grows a series the baseline lacks: typed error
        // naming exactly the missing paths.
        cur.push(("/can1072/jad.synth".to_string(), 650.0));
        match baseline_gaps(&base, &cur) {
            Some(DiffError::BaselineMissingSeries { paths }) => {
                assert_eq!(paths, vec!["/can1072/jad.synth".to_string()]);
            }
            other => panic!("expected BaselineMissingSeries, got {other:?}"),
        }
        // The reverse direction (baseline has more) stays non-fatal.
        let fewer: Vec<(String, f64)> = base
            .iter()
            .filter(|(k, _)| !k.ends_with(".nist_c"))
            .cloned()
            .collect();
        assert_eq!(baseline_gaps(&base, &fewer), None);
        // And the error renders the paths for the CI log.
        let e = baseline_gaps(&base, &cur).unwrap();
        let msg = e.to_string();
        assert!(msg.contains("missing 1 series"));
        assert!(msg.contains("/can1072/jad.synth"));
    }
}
