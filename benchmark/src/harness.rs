//! What every workload shares: order statistics, a seeded generator,
//! scratch directories inside `benchmark/out/`, the host fingerprint
//! and the result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The median of `v` (which it sorts). Zero when empty, so a layer that
/// was never called reports 0.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `q`-quantile of `v` (which it sorts), nearest rank.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// The quiet-host estimate of a timing: the fastest of its samples.
///
/// The end-to-end timings use this and not the median. The hosts this
/// runs on alternate, in episodes of seconds, between a fast state and
/// one about a quarter slower (a neighbour on the sibling hardware
/// thread); a run's median follows the share of slow episodes the run
/// happened to catch, and moved by up to 17 % between runs of the same
/// commit, while the minimum, which any quiet moment in the run fixes,
/// moved by 1 %. Interference only ever adds time, so the minimum is
/// the estimate of what the code costs that noise biases least; a
/// slowdown of the code moves the whole distribution and the minimum
/// with it. The per-layer metrics keep medians and tails.
pub fn quiet(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// [`quiet`] for a rate: the highest.
pub fn quiet_rate(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// What `cold_ms` and `steady_us` are: per key the quiet-host value of
/// its samples, and the geometric mean of that over the keys.
pub fn quiet_over_keys<'a>(per_key: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    geomean(per_key.into_iter().map(|samples| quiet(samples)))
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Geometric mean; ratios and per-key times are averaged with it so
/// that no one key dominates.
pub fn geomean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// A wall-clock allowance for one phase of a run.
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// The benchmark's directory (`benchmark/`): where cargo says the
/// manifest is when run through `cargo run`, else where it was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `benchmark/out/`, git-ignored: results, traces and scratch state.
pub fn out_dir() -> PathBuf {
    let d = bench_dir().join("out");
    std::fs::create_dir_all(&d).expect("create benchmark/out");
    d
}

/// Scratch state of one process: kernel stores, persistent plan caches
/// and compiler temporaries all live under one directory in
/// `benchmark/out/`, removed when the process ends. Nothing is shared
/// with `BERNOULLI_KERNEL_CACHE`, `BERNOULLI_PLAN_CACHE` or the default
/// store.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn new() -> Scratch {
        let root = out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch directory");
        Scratch {
            root,
            next: std::cell::Cell::new(0),
        }
    }

    /// A fresh, empty directory.
    pub fn dir(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let d = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&d).expect("create scratch subdirectory");
        d
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Total size of the regular files directly inside `dir` whose name
/// ends in `suffix`, and how many there are.
pub fn files_with_suffix(dir: &Path, suffix: &str) -> (u64, u64) {
    let (mut bytes, mut count) = (0, 0);
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name();
            if name.to_string_lossy().ends_with(suffix) {
                if let Ok(m) = e.metadata() {
                    if m.is_file() {
                        bytes += m.len();
                        count += 1;
                    }
                }
            }
        }
    }
    (bytes, count)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the numbers were measured on; stored with every result.
pub struct Host {
    pub nproc: usize,
    pub caches: String,
    pub rustc: String,
    pub pool_lanes: usize,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut caches = Vec::new();
        for i in 0..8 {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| {
                std::fs::read_to_string(format!("{base}/{f}")).map(|s| s.trim().to_string())
            };
            if let (Ok(level), Ok(ty), Ok(size)) = (read("level"), read("type"), read("size")) {
                caches.push(format!("L{level} {ty} {size}"));
            }
        }
        let rustc = bernoulli::rustc_info().map_or_else(
            |e| format!("unavailable: {e}"),
            |i| i.version.lines().next().unwrap_or("").to_string(),
        );
        Host {
            nproc,
            caches: if caches.is_empty() {
                "unknown".to_string()
            } else {
                caches.join(", ")
            },
            rustc,
            pool_lanes: bernoulli::blas::par::Pool::global().nthreads(),
            commit: git_commit(),
        }
    }
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository, and says so.
fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map_or_else(|_| format!("unresolved {r}"), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

/// Metric values by name, plus free-form notes (sample counts, skips,
/// working-set sizes) that go to the log and the result file but not
/// to the driver.
#[derive(Default)]
pub struct Values {
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<(String, String)>,
}

impl Values {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.metrics.insert(name.into(), v);
    }

    pub fn note(&mut self, key: impl Into<String>, text: impl Into<String>) {
        self.notes.push((key.into(), text.into()));
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as measured, with all its digits; JSON has no NaN or
/// infinity, so those (a bug in a metric) become 0 and fail the run's
/// own non-zero check.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs a workload's set-up several times, each after the previous
/// one's state is dropped (so peak memory is that of one): three times
/// at least, and on while four seconds have not passed, nine times at
/// most. Returns the last state and the median set-up time in seconds.
pub fn repeat_setup<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut secs = Vec::new();
    let mut kept = None;
    while secs.len() < 3 || (secs.len() < 9 && started.elapsed().as_secs_f64() < 4.0) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(set_up());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (
        kept.expect("set up at least three times"),
        median(&mut secs),
    )
}
