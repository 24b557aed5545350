//! The warm request by counts, not by clock: a request whose results
//! the service and the store already hold runs no analysis, no search
//! and no `rustc` — and the quarantine list, kept parsed between loads,
//! is still the one on disk at every load.

use bernoulli_formats::formats::{
    csc::csc_format_view, csr::csr_format_view, ell::ell_format_view,
};
use bernoulli_formats::view::Bound;
use bernoulli_formats::{FormatView, StoredGuarantee};
use bernoulli_synth::{KernelCacheError, KernelStore, LoadError, Service, Session};
use std::path::PathBuf;
use std::sync::Arc;

const MVM: &str = "
    program mvm(M, N) {
      in matrix A[M][N];
      in vector x[N];
      inout vector y[M];
      for i in 0..M {
        for j in 0..N {
          y[i] = y[i] + A[i][j] * x[j];
        }
      }
    }
";

const MVMT: &str = "
    program mvmt(M, N) {
      in matrix A[M][N];
      in vector x[M];
      inout vector y[N];
      for i in 0..M {
        for j in 0..N {
          y[j] = y[j] + A[i][j] * x[i];
        }
      }
    }
";

const TS: &str = "
    program ts(N) {
      in matrix L[N][N];
      inout vector b[N];
      for j in 0..N {
        b[j] = b[j] / L[j][j];
        for i in j+1..N {
          b[i] = b[i] - L[i][j] * b[j];
        }
      }
    }
";

/// Lower-triangular with a full diagonal, as the triangular solve needs.
fn lower(mut v: FormatView) -> FormatView {
    v.bounds.push(Bound::attr_ge("r", "c"));
    v.guarantees.push(StoredGuarantee::FullDiagonal);
    v
}

/// Three programs, five (program, view) pairs.
fn pairs() -> [(&'static str, &'static str, FormatView); 5] {
    [
        (MVM, "A", csr_format_view()),
        (MVM, "A", ell_format_view()),
        (MVMT, "A", csc_format_view()),
        (TS, "L", lower(csr_format_view())),
        (TS, "L", lower(csc_format_view())),
    ]
}

fn rustc_available() -> bool {
    bernoulli_kernel_cache::rustc_info().is_ok()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bernoulli-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_requests_are_lookups() {
    const ROUNDS: u64 = 10;
    let pairs = pairs();
    let requests = ROUNDS * pairs.len() as u64;
    let svc = Service::with_defaults();
    let dir = scratch_dir("counts");
    let store = KernelStore::at(&dir);
    let native = rustc_available();
    if !native {
        eprintln!("warm_requests_are_lookups: no rustc on host, counting compiles only");
    }
    let mut last_round = Vec::new();
    for round in 0..ROUNDS {
        for (text, matrix, view) in &pairs {
            // From text every time, as a client would send it: the
            // program is recognised by value, not by identity.
            let p = svc.parse(text).expect("parses");
            let deps = svc.analyze(&p);
            assert!(!deps.is_empty());
            let bound = svc.bind(&p, &[(matrix, view.clone())]).expect("binds");
            let k = svc.compile(&bound).expect("compiles");
            assert_eq!(k.from_cache(), round > 0);
            if native {
                let loaded = k.load_in(&store).expect("loads");
                assert!(loaded.validated());
                assert_eq!(loaded.from_cache(), round > 0);
            }
            if round == ROUNDS - 1 {
                last_round.push((deps, k));
            }
        }
    }
    let plans = svc.plan_cache_stats();
    assert_eq!(plans.analyses, 3, "one analysis per program: {plans:?}");
    assert_eq!(
        (plans.misses, plans.hits),
        (pairs.len() as u64, requests - pairs.len() as u64),
        "{plans:?}"
    );
    assert_eq!(svc.stats().searches, pairs.len() as u64);
    if native {
        let kernels = store.stats();
        assert_eq!(
            (kernels.compiles, kernels.misses, kernels.hits),
            (5, 5, requests - 5),
            "{kernels:?}"
        );
    }

    // What a hit returns is the entry's, not a copy of it.
    for ((text, matrix, view), (deps, k)) in pairs.iter().zip(&last_round) {
        let p = svc.parse(text).expect("parses");
        assert!(Arc::ptr_eq(&svc.analyze(&p).classes, &deps.classes));
        let bound = svc.bind(&p, &[(matrix, view.clone())]).expect("binds");
        let again = svc.compile(&bound).expect("compiles");
        assert!(Arc::ptr_eq(
            &again.report().candidates,
            &k.report().candidates
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_advisor_analyses_its_program_once() {
    let s = Session::new();
    let p = s.parse(MVM).expect("parses");
    let t = bernoulli_formats::gen::poisson2d(6);
    let advice = s.advise(&p, "A", &t, &[]).expect("advises");
    assert!(advice.ranked.len() > 1, "several formats were searched");
    let plans = s.plan_cache_stats();
    assert!(plans.misses >= advice.ranked.len() as u64, "{plans:?}");
    assert_eq!(plans.analyses, 1, "{plans:?}");
}

fn refused_as_quarantined(outcome: Result<bernoulli_synth::LoadedKernel, LoadError>) -> bool {
    matches!(
        outcome,
        Err(LoadError::Cache(KernelCacheError::Quarantined { .. }))
    )
}

#[test]
fn the_kept_quarantine_list_follows_the_one_on_disk() {
    if !rustc_available() {
        eprintln!("SKIP the_kept_quarantine_list_follows_the_one_on_disk: no rustc on host");
        return;
    }
    let s = Session::new();
    let p = s.parse(MVM).expect("parses");
    let bound = s.bind(&p, &[("A", csr_format_view())]).expect("binds");
    let k = s.compile(&bound).expect("compiles");
    let dir = scratch_dir("quarantine");
    let store = KernelStore::at(&dir);
    let artifact = k
        .load_in(&store)
        .expect("loads")
        .artifact_path()
        .to_path_buf();
    // Loads with no list on disk, then with this handle's own entry.
    assert!(k.load_in(&store).expect("loads").from_cache());
    store.quarantine(&artifact);
    assert!(refused_as_quarantined(k.load_in(&store)));
    store.clear_quarantine();
    let rebuilt = k.load_in(&store).expect("loads");
    assert!(!rebuilt.from_cache() && rebuilt.validated());
    drop(rebuilt);

    // Listed through another handle over the directory (another
    // process, say) after this one parsed and kept the list: refused at
    // the very next load, and what this handle knew of the artifact
    // (verified, validated) goes with it.
    let other = KernelStore::at(&dir);
    other.quarantine(&artifact);
    assert!(refused_as_quarantined(k.load_in(&store)));
    assert!(!store.is_validated(&artifact));
    other.clear_quarantine();
    let again = k.load_in(&store).expect("loads");
    assert!(!again.from_cache() && again.validated());
    assert_eq!(store.stats().compiles, 3);
    drop(again);

    // One entry replaced by another: a list of the same length, written
    // inside the same mtime tick. First against a list this handle read
    // a moment ago, then against one it keeps (old enough to be kept).
    let ell = s.bind(&p, &[("A", ell_format_view())]).expect("binds");
    let k2 = s.compile(&ell).expect("compiles");
    let artifact2 = k2
        .load_in(&store)
        .expect("loads")
        .artifact_path()
        .to_path_buf();
    for settle in [false, true] {
        other.clear_quarantine();
        other.quarantine(&artifact);
        if settle {
            let list = std::fs::File::options()
                .write(true)
                .open(dir.join("quarantine.list"))
                .expect("the list");
            let a_minute_ago = std::time::SystemTime::now() - std::time::Duration::from_secs(60);
            list.set_modified(a_minute_ago).expect("back-dates");
        }
        assert!(refused_as_quarantined(k.load_in(&store)));
        assert!(k2.load_in(&store).is_ok());
        other.clear_quarantine();
        other.quarantine(&artifact2);
        assert!(k.load_in(&store).is_ok(), "settled list: {settle}");
        assert!(refused_as_quarantined(k2.load_in(&store)));
    }
    // Published by rename: no scratch file is left beside the list.
    let scratch_left = std::fs::read_dir(&dir)
        .expect("store directory")
        .flatten()
        .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
    assert!(!scratch_left);
    let _ = std::fs::remove_dir_all(&dir);
}
