//! The warm request by counts that hold on any host: what a hundred
//! requests for one problem make the plan cache do, and how many heap
//! allocations `bind` + `compile` perform once the service holds the
//! answer.

use bernoulli::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their
    /// own, so one test's count is not another's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the count is a
// thread-local `Cell` without a destructor, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller's contract is
        // `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What a repeated `bind` of [`TS`] on a CSR view allocates since the
/// service hands out the problem it bound first: the list of the views
/// by name its fingerprint is taken over. Before that, each bind copied
/// the program and the view map (85); before plan-cache entries were
/// shared, 112, and 96 more in `compile` on a hit.
const BIND_ALLOCATIONS: u64 = 1;

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

fn lower_csr() -> Csr {
    let entries: Vec<(usize, usize, f64)> = (0..6)
        .flat_map(|i| (0..=i).map(move |j| (i, j, 1.0 + (i + j) as f64)))
        .collect();
    Csr::from_triplets(&Triplets::from_entries(6, 6, &entries))
}

/// One request, from text to emitted source.
fn request(svc: &Service, l: &Csr) -> (CompiledKernel, String) {
    let p = svc.parse(TS).expect("parses");
    assert!(!svc.analyze(&p).is_empty());
    let bound = svc.bind(&p, &[("L", l.format_view())]).expect("binds");
    let k = svc.compile(&bound).expect("compiles");
    let source = k.emit("ts_csr").expect("emits");
    (k, source)
}

#[test]
fn a_hundred_requests_search_analyse_and_render_once() {
    const N: u64 = 100;
    let persist =
        std::env::temp_dir().join(format!("bernoulli-warm-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&persist);
    let l = lower_csr();
    for persist_dir in [None, Some(persist.clone())] {
        let svc = Service::new(ServiceConfig {
            persist_dir,
            ..ServiceConfig::default()
        });
        let (first, source) = request(&svc, &l);
        assert!(!first.from_cache());
        for _ in 1..N {
            let (k, again) = request(&svc, &l);
            assert!(k.from_cache() && !k.report().plan_cache_disk_hit);
            assert_eq!(k.cache_key(), first.cache_key());
            assert_eq!(again, source);
        }
        // Another name is no other rendering.
        let renamed = first.emit("solve").expect("emits");
        assert_eq!(renamed, source.replace("ts_csr", "solve"));
        let plans = svc.plan_cache_stats();
        assert_eq!(
            (plans.misses, plans.hits, plans.analyses, plans.emissions),
            (1, N - 1, 1, 1),
            "{plans:?}"
        );
        let stats = svc.stats();
        assert_eq!((stats.searches, stats.coalesced), (1, 0), "{stats:?}");
        if let Some(p) = svc.persist_stats() {
            assert_eq!((p.writes, p.hits), (1, 0), "{p:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&persist);
}

/// What `bind` + `compile` allocate once the service holds the answer.
/// `bind` lists the views by name to fingerprint the problem and hands
/// out the `Arc`s of the problem bound first, copying nothing; `compile`
/// continues that fingerprint with the options, finds the entry holding
/// those same `Arc`s and hands out pointers, allocating nothing. The
/// counts are recorded in EXPERIMENTS.md, with the earlier ones.
#[test]
fn a_hit_allocates_what_bind_copies_and_little_else() {
    let svc = Service::with_defaults();
    let p = svc.parse(TS).expect("parses");
    let views = [("L", lower_csr().format_view())];
    let cold = svc.bind(&p, &views).expect("binds");
    assert!(!svc.compile(&cold).expect("compiles").from_cache());

    let (bound, binding) = allocations_of(|| svc.bind(&p, &views).expect("binds"));
    let (kernel, compiling) = allocations_of(|| svc.compile(&bound));
    assert!(kernel.expect("compiles").from_cache());
    println!("allocations: bind {binding}, compile on a hit {compiling}");
    assert!(compiling == 0, "compile made {compiling} allocations");
    assert!(
        binding <= BIND_ALLOCATIONS,
        "bind made {binding} allocations"
    );
}
