//! Searches compare a key as wide as `usize` or `i64` against `u32`
//! index arrays: a key past `u32::MAX` is absent — in the interpreter's
//! search (the generic cursor over each level description) and in the
//! kernel crates' (each layout's `find` text, compiled over the mirror
//! of its arrays and handed them by `Stored::parts`) alike — never a hit
//! on the key it would wrap onto.

use bernoulli_formats::layout::{Elem, Layout, RawArray};
use bernoulli_formats::level::Locate;
use bernoulli_formats::{gen, Stored, Triplets, LAYOUTS};
use bernoulli_kernel_cache::{ArtifactSpec, KernelStore};

const WIDE: usize = 1 << 32;

/// One instance of every layout, blocked at 2x2: a banded lower
/// triangle, so that every level stores something.
fn instances() -> Vec<Box<dyn Stored>> {
    let t: Triplets<f64> = gen::banded(8, 2, 5).lower_triangle_full_diag(1.0);
    LAYOUTS
        .iter()
        .map(|l| (l.from_triplets)(&t, Some((2, 2))).unwrap())
        .collect()
}

/// Every `(parent, keys)` a cursor yields at `level` of `chain`.
fn positions(m: &dyn Stored, chain: usize, level: usize) -> Vec<(usize, Vec<i64>)> {
    let mut parents = vec![0];
    let mut out = Vec::new();
    for l in 0..=level {
        let mut next = Vec::new();
        for &parent in &parents {
            let mut cur = m.cursor(chain, l, parent, false);
            while m.advance(&mut cur) {
                next.push(cur.pos);
                if l == level {
                    out.push((parent, cur.keys.to_vec()));
                }
            }
        }
        parents = next;
    }
    out
}

#[test]
fn the_interpreters_searches_find_no_wrapped_key() {
    for m in instances() {
        let levels = m.levels();
        for (chain, described) in levels.chains.iter().enumerate() {
            for (level, lv) in described.levels.iter().enumerate() {
                if lv.locate == Locate::None {
                    continue;
                }
                let stored = positions(&*m, chain, level);
                assert!(
                    !stored.is_empty(),
                    "{} chain {chain} level {level}",
                    levels.name
                );
                for (parent, keys) in stored {
                    let hit = m.search(chain, level, parent, &keys);
                    assert!(hit.is_some(), "{} {keys:?} under {parent}", levels.name);
                    for k in 0..keys.len() {
                        let mut wide = keys.clone();
                        wide[k] += WIDE as i64;
                        assert_eq!(
                            m.search(chain, level, parent, &wide),
                            None,
                            "{} chain {chain} level {level} under {parent}: {keys:?} is at \
                             {hit:?}, so {wide:?} must be nowhere",
                            levels.name
                        );
                    }
                }
            }
        }
    }
}

/// The mirror of a layout the kernel crates declare — its fields as
/// slices of the declared element types, and its `find` text — and an
/// entry that builds one from what `Stored::parts` hands over and asks
/// its finder for a key.
fn probe_source(layout: &Layout) -> String {
    let ty = layout.type_name;
    let mut fields = Vec::new();
    let mut decl = format!("pub struct {ty}<T: 'static = f64> {{\n");
    for (d, dim) in layout.dims.iter().enumerate() {
        decl.push_str(&format!("    pub {dim}: usize,\n"));
        fields.push(format!("{dim}: dims[{d}]"));
    }
    for (a, &(array, elem)) in layout.arrays.iter().enumerate() {
        let elem = match elem {
            Elem::F64 => "T",
            index => index.rust(),
        };
        decl.push_str(&format!("    pub {array}: &'static [{elem}],\n"));
        fields.push(format!("{array}: sl(&slices[{a}])"));
    }
    format!(
        "{decl}}}\nimpl<T> {ty}<T> {{\n{find}}}\n#[no_mangle]\npub unsafe extern \"C\" fn probe_{name}(\n    \
         dims: *const usize,\n    slices: *const RawSlice,\n    a: usize,\n    b: usize,\n) -> i64 {{\n    \
         let dims = core::slice::from_raw_parts(dims, {nd});\n    \
         let slices = core::slice::from_raw_parts(slices, {ns});\n    \
         let m = {ty}::<f64> {{ {fields} }};\n    \
         match m.{finder}(a, b) {{\n        Some(p) => p as i64,\n        None => -1,\n    }}\n}}\n",
        find = layout.find,
        name = layout.name,
        nd = layout.dims.len(),
        ns = layout.arrays.len(),
        fields = fields.join(", "),
        finder = layout.finder,
    )
}

type Probe = unsafe extern "C" fn(*const usize, *const RawArray, usize, usize) -> i64;

const PRELUDE: &str = "#![no_std]

#[panic_handler]
fn panic(_: &core::panic::PanicInfo) -> ! {
    loop {}
}

#[repr(C)]
pub struct RawSlice {
    pub ptr: *const u8,
    pub len: usize,
}

unsafe fn sl<T>(s: &RawSlice) -> &'static [T] {
    if s.len == 0 {
        &[]
    } else {
        core::slice::from_raw_parts(s.ptr as *const T, s.len)
    }
}
";

#[test]
fn the_kernel_crates_searches_find_no_wrapped_key() {
    if bernoulli_kernel_cache::rustc_info().is_err() {
        eprintln!("SKIP the_kernel_crates_searches_find_no_wrapped_key: no rustc on host");
        return;
    }
    let mut source = PRELUDE.to_string();
    for layout in LAYOUTS {
        source.push_str(&probe_source(layout));
    }
    let spec = ArtifactSpec::new("index-width-probes".into(), source).expect("a compiler");
    let dir = std::env::temp_dir().join(format!("bernoulli-kc-index-width-{}", std::process::id()));
    let store = KernelStore::at(&dir);
    let lib = store.load(&spec).expect("the probes build").library;
    for m in instances() {
        let name = m.layout().name;
        let symbol = lib.symbol(&format!("probe_{name}")).expect("a probe");
        // SAFETY: the symbol is the entry `probe_source` declares, of
        // this type.
        let probe: Probe = unsafe { std::mem::transmute(symbol) };
        let (mut dims, mut arrays) = (Vec::new(), Vec::new());
        m.parts(&mut dims, &mut arrays);
        let n = m.nrows().max(m.ncols());
        let keys: Vec<usize> = (0..n).chain((0..n).map(|k| k + WIDE)).collect();
        let mut hits = 0;
        for &a in &keys {
            for &b in &keys {
                let host = m.find_at(a, b);
                // SAFETY: `dims` and `arrays` are the instance's parts in
                // its layout's order, alive across the call.
                let kernel = unsafe { probe(dims.as_ptr(), arrays.as_ptr(), a, b) };
                assert_eq!(kernel, host.map_or(-1, |p| p as i64), "{name} ({a}, {b})");
                if a >= WIDE || b >= WIDE {
                    assert_eq!(host, None, "{name} ({a}, {b})");
                }
                hits += usize::from(host.is_some());
            }
        }
        assert!(hits > 0, "{name}: no key found at all");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
