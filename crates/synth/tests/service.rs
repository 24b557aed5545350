//! The multi-tenant compile service (S38): end-to-end compiles through
//! [`Service`], shared-plan-cache behavior under concurrency, typed
//! admission-control rejections with exact accounting, and warm-start
//! through the persistent plan cache across "restarts" (fresh services
//! over the same directory).

use bernoulli_formats::{Csr, SparseView, Triplets};
use bernoulli_synth::{
    ExecEnv, PersistentPlanCache, Service, ServiceConfig, ServiceError, Session, SynthOptions,
};
use std::sync::Arc;
use std::time::Duration;

const MVM: &str = r#"
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
"#;

fn csr() -> Csr {
    Csr::from_triplets(&Triplets::from_entries(
        3,
        3,
        &[(0, 0, 2.0), (1, 2, 1.0), (2, 1, 4.0)],
    ))
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bernoulli-service-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn service_compiles_end_to_end() {
    let svc = Service::with_defaults();
    let p = svc.parse(MVM).unwrap();
    assert!(!svc.analyze(&p).is_empty());
    let a = csr();
    let bound = svc.bind(&p, &[("A", a.format_view())]).unwrap();
    let kernel = svc.compile(&bound).unwrap();
    assert!(kernel.cost() > 0.0);

    let mut env = ExecEnv::new();
    env.set_param("M", 3).set_param("N", 3);
    env.bind_sparse("A", &a);
    env.bind_vec("x", vec![1.0, 2.0, 3.0]);
    env.bind_vec("y", vec![0.0; 3]);
    kernel.interpret(&mut env).unwrap();
    assert_eq!(env.take_vec("y"), vec![2.0, 3.0, 8.0]);

    let stats = svc.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.peak_inflight, 1);
}

#[test]
fn concurrent_clients_share_the_plan_cache() {
    let svc = Arc::new(Service::with_defaults());
    let p = svc.parse(MVM).unwrap();
    let a = csr();
    let bound = Arc::new(svc.bind(&p, &[("A", a.format_view())]).unwrap());

    const CLIENTS: usize = 8;
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let svc = Arc::clone(&svc);
        let bound = Arc::clone(&bound);
        handles.push(std::thread::spawn(move || {
            let k = svc.compile(&bound).unwrap();
            (k.plan().to_string(), k.emit("kernel").unwrap())
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Every client sees byte-identical output regardless of which
    // thread searched and which hit the cache.
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
    // Every request either consulted the plan cache once or was
    // coalesced onto another request's search without consulting it.
    let pc = svc.plan_cache_stats();
    let stats = svc.stats();
    assert_eq!(
        pc.hits + pc.misses + stats.coalesced,
        CLIENTS as u64,
        "{pc:?} {stats:?}"
    );
    assert!(pc.misses >= 1, "{pc:?}");
    assert_eq!(stats.submitted, CLIENTS as u64);
    assert_eq!(stats.completed, CLIENTS as u64);
    assert_eq!(stats.shed_overloaded + stats.shed_deadline, 0);
}

/// Sixteen clients bind and compile four problems, interleaved, through
/// one service; two of the problems are one program written in two
/// texts. Each problem is searched once, every kernel of it matches a
/// sequential compile, and once the first round is done every bind
/// hands out the one copy the service keeps of the problem.
#[test]
fn concurrent_binds_share_the_problems_the_service_keeps() {
    const TS: &str = "program ts(N) { in matrix L[N][N]; inout vector b[N];
        for j in 0..N { b[j] = b[j] / L[j][j];
          for i in j+1..N { b[i] = b[i] - L[i][j] * b[j]; } } }";
    use bernoulli_formats::formats::csc::csc_format_view;
    use bernoulli_formats::formats::csr::csr_format_view;
    use bernoulli_formats::view::{Bound, FormatView, StoredGuarantee};
    let lower = |mut view: FormatView| {
        view.bounds.push(Bound::attr_ge("r", "c"));
        view.guarantees.push(StoredGuarantee::FullDiagonal);
        view
    };
    let reprinted = Session::new().parse(MVM).unwrap().to_string();
    let problems: Arc<Vec<(String, &str, FormatView)>> = Arc::new(vec![
        (MVM.to_string(), "A", csr_format_view()),
        (reprinted, "A", csc_format_view()),
        (TS.to_string(), "L", lower(csr_format_view())),
        (TS.to_string(), "L", lower(csc_format_view())),
    ]);
    let sequential: Arc<Vec<(String, String)>> = problems
        .iter()
        .map(|(text, matrix, view)| {
            let s = Session::new();
            let bound = s.bind(&s.parse(text).unwrap(), &[(matrix, view.clone())]);
            let k = s.compile(&bound.unwrap()).unwrap();
            (k.cache_key().to_string(), k.emit("kernel").unwrap())
        })
        .collect::<Vec<_>>()
        .into();

    const CLIENTS: usize = 16;
    let svc = Arc::new(Service::with_defaults());
    let rounds = Arc::new(std::sync::Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let (svc, rounds) = (svc.clone(), rounds.clone());
            let (problems, sequential) = (problems.clone(), sequential.clone());
            std::thread::spawn(move || {
                // Per problem, the addresses of its program and views as
                // the second round bound them.
                let mut second = vec![(0, 0); problems.len()];
                for round in 0..2 {
                    for i in 0..problems.len() {
                        let n = (t + i) % problems.len();
                        let (text, matrix, view) = &problems[n];
                        let p = svc.parse(text).unwrap();
                        let bound = svc.bind(&p, &[(matrix, view.clone())]).unwrap();
                        let k = svc.compile(&bound).unwrap();
                        let got = (k.cache_key().to_string(), k.emit("kernel").unwrap());
                        assert_eq!(got, sequential[n], "problem {n}");
                        if round == 1 {
                            second[n] = (
                                bound.program() as *const _ as usize,
                                bound.views() as *const _ as usize,
                            );
                        }
                    }
                    rounds.wait();
                }
                second
            })
        })
        .collect();
    let seconds: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    assert_eq!(svc.stats().searches, 4, "{:?}", svc.stats());
    for (n, (text, matrix, view)) in problems.iter().enumerate() {
        let kept = svc
            .bind(&svc.parse(text).unwrap(), &[(matrix, view.clone())])
            .unwrap();
        let kept = (
            kept.program() as *const _ as usize,
            kept.views() as *const _ as usize,
        );
        for second in &seconds {
            assert_eq!(second[n], kept, "problem {n}");
        }
    }
}

/// The service decides over the process-wide polyhedral tier, a session
/// over memos of its own: where a decision was cached never shows in
/// the result.
#[test]
fn shared_tier_output_matches_a_session_with_private_memos() {
    let svc = Service::with_defaults();
    let p = svc.parse(MVM).unwrap();
    let bound = svc.bind(&p, &[("A", csr().format_view())]).unwrap();
    let k = svc.compile(&bound).unwrap();

    let session = Session::new();
    let p = session.parse(MVM).unwrap();
    let bound = session.bind(&p, &[("A", csr().format_view())]).unwrap();
    let reference = session.compile(&bound).unwrap();
    assert_eq!(
        (k.plan().to_string(), k.emit("kernel").unwrap()),
        (
            reference.plan().to_string(),
            reference.emit("kernel").unwrap()
        ),
        "the shared tier changed the result"
    );
}

#[test]
fn overload_and_queue_deadline_shed_with_exact_accounting() {
    let svc = Service::new(ServiceConfig {
        max_inflight: 1,
        max_queue: 0,
        ..ServiceConfig::default()
    });
    let p = svc.parse(MVM).unwrap();
    let bound = svc.bind(&p, &[("A", csr().format_view())]).unwrap();

    // Occupy the only slot, deterministically forcing the shed paths.
    let opts = svc.config().opts.clone();
    let permit = svc.admission().acquire(None).unwrap();
    match svc.compile(&bound) {
        Err(ServiceError::Overloaded { inflight, queued }) => {
            assert_eq!((inflight, queued), (1, 0));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    match svc.compile_with(&bound, &opts, Some(Duration::from_millis(20))) {
        // max_queue = 0: even a deadline-carrying request sheds as
        // Overloaded rather than queueing.
        Err(ServiceError::Overloaded { .. }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    drop(permit);

    // Queue depth 1: a request with an already-tight deadline queues,
    // then times out while the slot is held.
    let svc2 = Service::new(ServiceConfig {
        max_inflight: 1,
        max_queue: 1,
        ..ServiceConfig::default()
    });
    let bound2 = svc2.bind(&p, &[("A", csr().format_view())]).unwrap();
    let permit = svc2.admission().acquire(None).unwrap();
    let t0 = std::time::Instant::now();
    match svc2.compile_with(&bound2, &opts, Some(Duration::from_millis(40))) {
        Err(ServiceError::QueueDeadline { waited_ms }) => {
            assert!(t0.elapsed() >= Duration::from_millis(40));
            assert!(waited_ms >= 30, "waited_ms = {waited_ms}");
        }
        other => panic!("expected QueueDeadline, got {other:?}"),
    }
    drop(permit);
    // The slot is free and the abandoned ticket skipped: compiles work.
    assert!(svc2.compile(&bound2).is_ok());

    let s = svc.stats();
    assert_eq!(s.submitted, 2);
    assert_eq!(s.shed_overloaded, 2);
    assert_eq!(
        s.admitted + s.shed_overloaded + s.shed_deadline,
        s.submitted
    );
    let s2 = svc2.stats();
    assert_eq!(s2.submitted, 2);
    assert_eq!(s2.shed_deadline, 1);
    assert_eq!(s2.completed, 1);
    assert_eq!(
        s2.admitted + s2.shed_overloaded + s2.shed_deadline,
        s2.submitted
    );

    // A burst: more clients than slots + queue, each with a deadline,
    // every admitted one a real search. Whatever the interleaving, each
    // request is counted exactly once on each side of admission.
    let burst = 16;
    let svc3 = Service::new(ServiceConfig {
        max_inflight: 2,
        max_queue: 2,
        default_deadline: Some(Duration::from_millis(200)),
        opts: SynthOptions {
            parallel: false,
            cache_plans: false,
            ..opts
        },
        ..ServiceConfig::default()
    });
    let bound3 = svc3.bind(&p, &[("A", csr().format_view())]).unwrap();
    let gate = std::sync::Barrier::new(burst);
    let served = std::thread::scope(|s| {
        let clients: Vec<_> = (0..burst)
            .map(|_| {
                s.spawn(|| {
                    gate.wait();
                    svc3.compile(&bound3).is_ok()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("burst client panicked"))
            .filter(|&ok| ok)
            .count()
    });
    let s3 = svc3.stats();
    assert_eq!(s3.submitted, burst as u64, "{s3:?}");
    assert_eq!(
        s3.admitted + s3.shed_overloaded + s3.shed_deadline,
        s3.submitted,
        "{s3:?}"
    );
    assert_eq!(s3.completed + s3.failed, s3.admitted, "{s3:?}");
    assert_eq!(s3.completed, served as u64, "{s3:?}");
    assert!(s3.peak_inflight <= 2, "{s3:?}");
}

#[test]
fn persistent_cache_warm_starts_a_fresh_service() {
    let dir = scratch_dir("warm");
    let cfg = || ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    // Cold service: searches, then persists the result.
    let cold = Service::new(cfg());
    let p = cold.parse(MVM).unwrap();
    let bound = cold.bind(&p, &[("A", csr().format_view())]).unwrap();
    let k_cold = cold.compile(&bound).unwrap();
    assert!(!k_cold.report().plan_cache_hit);
    let ps = cold.persist_stats().unwrap();
    assert_eq!(ps.writes, 1, "{ps:?}");
    assert_eq!(ps.errors, 0, "{ps:?}");

    // "Restarted" service over the same directory: the search is
    // served from disk, promoted into the in-memory cache, and the
    // result is byte-identical.
    let warm = Service::new(cfg());
    let bound2 = warm.bind(&p, &[("A", csr().format_view())]).unwrap();
    let k_warm = warm.compile(&bound2).unwrap();
    assert!(k_warm.report().plan_cache_hit);
    assert!(k_warm.report().plan_cache_disk_hit);
    assert_eq!(k_warm.plan().to_string(), k_cold.plan().to_string());
    assert_eq!(k_warm.emit("f").unwrap(), k_cold.emit("f").unwrap());
    assert_eq!(k_warm.cost(), k_cold.cost());
    // A second identical compile hits the promoted in-memory entry.
    let k3 = warm.compile(&bound2).unwrap();
    assert!(k3.report().plan_cache_hit && !k3.report().plan_cache_disk_hit);

    assert_eq!(warm.persist_stats().unwrap().errors, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blocked_plans_persist_and_restore_through_the_service_tier() {
    use bernoulli_formats::{discover_strips, gen, Bsr, Vbr};

    let dir = scratch_dir("blocked");
    let cfg = || ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let t = gen::fem_blocked(24, 2, 2, 1.0, 7);
    let bsr = Bsr::from_triplets(&t, 2, 2);
    let (rp, cp) = discover_strips(&t);
    let vbr = Vbr::from_triplets(&t, &rp, &cp);

    for view in [bsr.format_view(), vbr.format_view()] {
        let cold = Service::new(cfg());
        let p = cold.parse(MVM).unwrap();
        let bound = cold.bind(&p, &[("A", view.clone())]).unwrap();
        let k_cold = cold.compile(&bound).unwrap();
        assert!(!k_cold.report().plan_cache_hit, "{}", view.name);

        // Restarted service over the same directory: the blocked plan
        // warm-starts from disk and is byte-identical.
        let warm = Service::new(cfg());
        let bound2 = warm.bind(&p, &[("A", view.clone())]).unwrap();
        let k_warm = warm.compile(&bound2).unwrap();
        assert!(k_warm.report().plan_cache_hit, "{}", view.name);
        assert!(k_warm.report().plan_cache_disk_hit, "{}", view.name);
        assert_eq!(k_warm.plan().to_string(), k_cold.plan().to_string());
        assert_eq!(k_warm.emit("f").unwrap(), k_cold.emit("f").unwrap());
        assert_eq!(warm.persist_stats().unwrap().errors, 0, "{}", view.name);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_persistent_entries_degrade_to_cold_compiles() {
    let dir = scratch_dir("corrupt");
    let cfg = || ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let cold = Service::new(cfg());
    let p = cold.parse(MVM).unwrap();
    let bound = cold.bind(&p, &[("A", csr().format_view())]).unwrap();
    let k_cold = cold.compile(&bound).unwrap();
    let restart = || {
        let warm = Service::new(cfg());
        let bound2 = warm.bind(&p, &[("A", csr().format_view())]).unwrap();
        let k = warm.compile(&bound2).unwrap();
        assert_eq!(k.plan().to_string(), k_cold.plan().to_string());
        (k.report().plan_cache_hit, warm.persist_stats().unwrap())
    };

    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(entries.len(), 1);
    let path = entries[0].as_ref().unwrap().path();
    let valid = std::fs::read_to_string(&path).unwrap();

    // A step is `(kind dir ordered edge_bound first_slot nslots sharers
    // searches binds)`. The truncated entry, then the valid one with
    // one token altered: a field dropped from the first step, a surplus
    // one, an unknown tag, `2` for a bool, `-1` for a `usize`, a string
    // where a list belongs.
    let step = r#"(("lv" ("A" 0 0 0) (())) 0 1 () 0 1 () () ("A0.r"))"#;
    let altered = [
        r#"(("lv" ("A" 0 0 0) (())) 0 1 () 0 1 () ())"#,
        r#"(("lv" ("A" 0 0 0) (())) 0 1 () 0 1 () () ("A0.r") 0)"#,
        r#"(("xx" ("A" 0 0 0) (())) 0 1 () 0 1 () () ("A0.r"))"#,
        r#"(("lv" ("A" 0 0 0) (())) 0 2 () 0 1 () () ("A0.r"))"#,
        r#"(("lv" ("A" -1 0 0) (())) 0 1 () 0 1 () () ("A0.r"))"#,
        r#"(("lv" ("A" 0 0 0) (())) 0 1 "x" 0 1 () () ("A0.r"))"#,
    ];
    assert!(valid.contains(step), "{valid}");
    let corrupt = std::iter::once("(bernoulli-plan-cache 1 truncated".to_string())
        .chain(altered.iter().map(|bad| valid.replacen(step, bad, 1)));
    for text in corrupt {
        std::fs::write(&path, &text).unwrap();
        // The corrupt entry behaves as a miss: a full (correct) search
        // ran, and wrote the entry again.
        let (hit, ps) = restart();
        assert!(!hit, "{text}");
        assert_eq!((ps.hits, ps.errors, ps.writes), (0, 1, 1), "{ps:?} {text}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), valid);
    }
    // Unaltered, it is a hit.
    let (hit, ps) = restart();
    assert!(hit);
    assert_eq!((ps.hits, ps.errors, ps.writes), (1, 0, 0), "{ps:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry nested past what the reader accepts is not written at all:
/// written, every restarted service would refuse it, search, and write
/// it again.
#[test]
fn entries_the_reader_would_refuse_are_not_stored() {
    for (depth, storable) in [(10, true), (60, true), (90, false), (120, false)] {
        let dir = scratch_dir(&format!("deep{depth}"));
        let cfg = || ServiceConfig {
            persist_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        // `y[i] + A[i][j] * (x[j] + (x[j] + ( .. )))`, `depth` deep.
        let rhs = format!("{}x[j]{}", "(x[j] + ".repeat(depth), ")".repeat(depth));
        let text = MVM.replace("* x[j]", &format!("* {rhs}"));
        assert_ne!(text, MVM);

        let cold = Service::new(cfg());
        let p = cold.parse(&text).unwrap();
        let compile = |svc: &Service| {
            let bound = svc.bind(&p, &[("A", csr().format_view())]).unwrap();
            svc.compile(&bound).unwrap()
        };
        let k_cold = compile(&cold);
        let ps = cold.persist_stats().unwrap();
        assert_eq!((ps.writes, ps.errors), (u64::from(storable), 0), "{depth}");
        let stored = PersistentPlanCache::new(&dir).entry_count();
        assert_eq!(stored, usize::from(storable), "{depth}");

        for _ in 0..2 {
            let restarted = Service::new(cfg());
            let k = compile(&restarted);
            assert_eq!(k.report().plan_cache_disk_hit, storable, "{depth}");
            assert_eq!(k.emit("f").unwrap(), k_cold.emit("f").unwrap());
            let ps = restarted.persist_stats().unwrap();
            assert_eq!(
                (ps.hits, ps.errors, ps.writes),
                (u64::from(storable), 0, 0),
                "{depth}: {ps:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn split_plans_round_trip_and_entries_of_the_old_format_are_misses() {
    use bernoulli_formats::view::{Bound, StoredGuarantee};

    const TS: &str = "program ts(N) { in matrix L[N][N]; inout vector b[N];
        for j in 0..N { b[j] = b[j] / L[j][j];
          for i in j+1..N { b[i] = b[i] - L[i][j] * b[j]; } } }";
    let mut view = csr().format_view();
    view.bounds.push(Bound::attr_ge("r", "c"));
    view.guarantees.push(StoredGuarantee::FullDiagonal);

    let dir = scratch_dir("split");
    let cfg = || ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let cold = Service::new(cfg());
    let p = cold.parse(TS).unwrap();
    let bound = cold.bind(&p, &[("L", view.clone())]).unwrap();
    let k_cold = cold.compile(&bound).unwrap();
    let split = k_cold.emit("f").unwrap();
    assert!(split.contains("span__.end - 1"), "{split}");

    // The proved bound is part of the stored plan: a restarted service
    // re-emits the split text byte for byte.
    let warm = Service::new(cfg());
    let k_warm = warm
        .compile(&warm.bind(&p, &[("L", view.clone())]).unwrap())
        .unwrap();
    assert!(k_warm.report().plan_cache_disk_hit);
    assert_eq!(k_warm.plan().to_string(), k_cold.plan().to_string());
    assert_eq!(k_warm.emit("f").unwrap(), split);

    // An entry of the previous format version (it ended with the
    // emitted module) is a counted rejection and a cold compile.
    for f in std::fs::read_dir(&dir).unwrap() {
        let path = f.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let old = text.replacen(
            "(\"bernoulli-plan-cache\" 3 ",
            "(\"bernoulli-plan-cache\" 2 ",
            1,
        );
        assert_ne!(
            old, text,
            "{path:?} does not start with the current version"
        );
        std::fs::write(&path, old).unwrap();
    }
    let restarted = Service::new(cfg());
    let k = restarted
        .compile(&restarted.bind(&p, &[("L", view)]).unwrap())
        .unwrap();
    assert!(!k.report().plan_cache_hit);
    assert_eq!(k.emit("f").unwrap(), split);
    let ps = restarted.persist_stats().unwrap();
    assert_eq!((ps.hits, ps.errors, ps.writes), (0, 1, 1), "{ps:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
