//! The metrics, by name and unit. `BENCHMARK.json` lists the same
//! names; `benchmark/agree.sh` fails when the two differ.
//!
//! Every workload prints every metric of the pass it ran. An
//! end-to-end metric has a meaning on each workload (README.md,
//! "End-to-end metrics"). A per-layer metric of a layer a workload
//! never calls is 0 there.

use crate::inputs::{JIT_KEYS, STREAM_KEYS};

/// (name, unit), printed by the untraced pass.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_ms", "ms"),
    ("steady_us", "us"),
    ("ops_per_s", "1/s"),
];

/// (name, unit), printed by the traced pass.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));

    // What a user of each workload sees, under the names ISSUE 11 gave
    // them; the end-to-end metrics above are these, folded per workload.
    add("mvm_ns_per_nnz", "ns/nnz");
    add("ts_ns_per_nnz", "ns/nnz");
    add("mvm_loaded_vs_hand", "ratio");
    add("ts_loaded_vs_hand", "ratio");
    add("cold_request_ms", "ms");
    add("cold_request_p90_ms", "ms");
    add("restart_request_ms", "ms");
    add("warm_request_us", "us");
    add("advise_ms", "ms");
    add("compile_rps", "1/s");
    add("compile_p50_us", "us");
    add("compile_p99_ms", "ms");

    add("request.self_us", "us");
    add("oracle.check_us", "us");

    add("ir.parse_us", "us");
    add("ir.deps_us", "us");
    add("ir.dep_classes", "count");

    add("formats.scale_ms", "ms");
    add("formats.lower_triangle_ms", "ms");
    for f in ["csr", "csc", "jad"] {
        add(&format!("formats.from_triplets_{f}_ms"), "ms");
    }
    for f in ["csr", "csc", "jad"] {
        add(&format!("formats.{f}_bytes"), "bytes");
    }
    add("formats.features_ms", "ms");

    add("polyhedra.empty_queries", "count");
    add("polyhedra.empty_hit_rate", "ratio");
    add("polyhedra.fm_queries", "count");
    add("polyhedra.fm_hit_rate", "ratio");

    add("synth.bind_us", "us");
    for k in JIT_KEYS {
        add(&format!("synth.search_ms.{}", k.name()), "ms");
    }
    for k in JIT_KEYS {
        add(&format!("synth.search_examined.{}", k.name()), "count");
    }
    for k in JIT_KEYS {
        add(&format!("synth.search_kept.{}", k.name()), "count");
    }
    add("synth.plan_hit_us", "us");
    add("synth.persist_hit_us", "us");
    add("synth.persist_entries", "count");
    add("synth.emit_us", "us");
    for k in JIT_KEYS {
        add(&format!("synth.emit_bytes.{}", k.name()), "bytes");
    }
    add("synth.advise_candidates", "count");
    add("synth.interp_ns_per_nnz.mvm_csr", "ns/nnz");
    add("synth.interp_ns_per_nnz.ts_csr", "ns/nnz");
    add("synth.run_overhead_ns", "ns");

    add("kernel-cache.rustc_probe_ms", "ms");
    add("kernel-cache.build_ms", "ms");
    for k in JIT_KEYS {
        add(
            &format!("kernel-cache.artifact_bytes.{}", k.name()),
            "bytes",
        );
    }
    add("kernel-cache.restart_load_ms", "ms");
    add("kernel-cache.warm_load_us", "us");
    add("kernel-cache.builds", "count");
    add("kernel-cache.hits", "count");

    for k in STREAM_KEYS {
        add(&format!("loaded.{}_ms", k.name()), "ms");
    }
    for k in STREAM_KEYS {
        add(&format!("loaded.{}_p90_ms", k.name()), "ms");
    }
    for k in STREAM_KEYS {
        add(&format!("loaded.{}_gbs", k.name()), "GB/s");
    }
    for k in STREAM_KEYS {
        add(&format!("blas.hand_{}_ms", k.name()), "ms");
    }
    for k in STREAM_KEYS {
        add(&format!("blas.committed_{}_ms", k.name()), "ms");
    }
    add("blas.par2_loaded_mvm_csr_ms", "ms");
    add("blas.par2_speedup", "ratio");
    add("host.triad_gbs", "GB/s");

    for c in [
        "submitted",
        "admitted",
        "completed",
        "failed",
        "shed",
        "searches",
        "coalesced",
        "peak_inflight",
    ] {
        add(&format!("service.{c}"), "count");
    }
    add("service.hit_ratio", "ratio");
    add("service.miss_mean_ms", "ms");
    add("service.hit_p50_us", "us");
    add("service.p999_ms", "ms");

    add("pool.lanes", "count");
    add("bench.trace_overhead_pct", "%");
    m
}
