//! Searches compare a key as wide as `usize` or `i64` against `u32`
//! index arrays: a key past `u32::MAX` is absent — in the interpreter's
//! search (the generic cursor over each level description) and in the
//! kernel crates' (each level's search as the emitter prints it, over
//! the search module every kernel crate includes, compiled over the
//! mirror of its arrays and handed them by `Stored::parts`) alike —
//! never a hit on the key it would wrap onto.

use bernoulli_formats::layout::{Elem, Layout, RawArray, SEARCH_SOURCE};
use bernoulli_formats::level::Locate;
use bernoulli_formats::{gen, Stored, Triplets, LAYOUTS};
use bernoulli_kernel_cache::{ArtifactSpec, KernelStore};
use bernoulli_synth::emit::locate_expr;

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
/// slices of the declared element types — and, for every level that
/// searches, an entry that builds one from what `Stored::parts` hands
/// over and runs the level's search as the emitter prints it.
fn probe_source(layout: &Layout, view: &str) -> String {
    let ty = layout.type_name;
    let mut fields = Vec::new();
    let mut out = format!("pub struct {ty}<T: 'static = f64> {{\n");
    for (d, dim) in layout.dims.iter().enumerate() {
        out.push_str(&format!("    pub {dim}: usize,\n"));
        fields.push(format!("{dim}: dims[{d}]"));
    }
    for (a, &(array, elem)) in layout.arrays.iter().enumerate() {
        let elem = match elem {
            Elem::F64 => "T",
            index => index.rust(),
        };
        out.push_str(&format!("    pub {array}: &'static [{elem}],\n"));
        fields.push(format!("{array}: sl(&slices[{a}])"));
    }
    out.push_str("}\n");
    let keys = ["k0".to_string(), "k1".to_string()];
    for (chain, described) in layout.chains.iter().enumerate() {
        for (level, lv) in described.levels.iter().enumerate() {
            let keys = &keys[..lv.nkeys()];
            let found = locate_expr(view, (chain, level), "m", "parent", keys);
            let Some(found) = found.expect("a level of the view") else {
                continue;
            };
            out.push_str(&format!(
                "#[no_mangle]\npub unsafe extern \"C\" fn probe_{name}_{chain}_{level}(\n    \
                 dims: *const usize,\n    slices: *const RawSlice,\n    parent: usize,\n    \
                 k0: i64,\n    k1: i64,\n) -> i64 {{\n    \
                 let dims = core::slice::from_raw_parts(dims, {nd});\n    \
                 let slices = core::slice::from_raw_parts(slices, {ns});\n    \
                 let m = &{ty}::<f64> {{ {fields} }};\n    \
                 let found = || -> Option<usize> {{ {found} }};\n    \
                 match found() {{\n        Some(p) => p as i64,\n        None => -1,\n    }}\n}}\n",
                name = layout.name,
                nd = layout.dims.len(),
                ns = layout.arrays.len(),
                fields = fields.join(", "),
            ));
        }
    }
    out
}

type Probe = unsafe extern "C" fn(*const usize, *const RawArray, usize, i64, i64) -> i64;

const PRELUDE: &str = "#![no_std]
#![allow(unused_parens, unused_variables)]

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

/// Every level that searches, of every layout, searched in a kernel crate
/// beneath every parent a cursor reaches, for every key of a grid from
/// below zero to past the matrix, and for each such key's twin `2^32`
/// above it, in each of its places: the kernel finds what the
/// interpreter's `search` finds, it finds every stored key, and it finds
/// no twin. The parent is the key of the level above, so both orders of
/// the dense coordinates are probed (CSC's column, then its row).
#[test]
fn the_kernel_crates_searches_find_no_wrapped_key() {
    if bernoulli_kernel_cache::rustc_info().is_err() {
        eprintln!("SKIP the_kernel_crates_searches_find_no_wrapped_key: no rustc on host");
        return;
    }
    let instances = instances();
    let mut source = PRELUDE.to_string();
    source.push_str(&format!("pub mod search {{\n{SEARCH_SOURCE}}}\n"));
    for m in &instances {
        source.push_str(&probe_source(m.layout(), &m.format_view().name));
    }
    let spec = ArtifactSpec::new("index-width-probes".into(), source).expect("a compiler");
    let dir = std::env::temp_dir().join(format!("bernoulli-kc-index-width-{}", std::process::id()));
    let store = KernelStore::at(&dir);
    let lib = store.load(&spec).expect("the probes build").library;
    let mut searched = Vec::new();
    for m in &instances {
        let (name, levels) = (m.layout().name, m.levels());
        let (mut dims, mut arrays) = (Vec::new(), Vec::new());
        m.parts(&mut dims, &mut arrays);
        let n = m.nrows().max(m.ncols()) as i64;
        for (chain, described) in levels.chains.iter().enumerate() {
            for (level, lv) in described.levels.iter().enumerate() {
                if lv.locate == Locate::None {
                    continue;
                }
                let symbol = lib.symbol(&format!("probe_{name}_{chain}_{level}"));
                // SAFETY: the symbol is an entry `probe_source` declares,
                // of this type.
                let probe: Probe = unsafe { std::mem::transmute(symbol.expect("a probe")) };
                let stored = positions(&**m, chain, level);
                let grid: Vec<Vec<i64>> = match lv.nkeys() {
                    1 => (-1..=n).map(|k| vec![k]).collect(),
                    _ => (-1..=n)
                        .flat_map(|r| (-1..=n).map(move |c| vec![r, c]))
                        .collect(),
                };
                let mut parents: Vec<usize> = stored.iter().map(|&(p, _)| p).collect();
                parents.dedup();
                let mut hits = 0;
                for &parent in &parents {
                    for keys in &grid {
                        let mut probes = vec![keys.clone()];
                        for k in 0..keys.len() {
                            let mut wide = keys.clone();
                            wide[k] += WIDE as i64;
                            probes.push(wide);
                        }
                        for (i, keys) in probes.iter().enumerate() {
                            let host = m.search(chain, level, parent, keys);
                            let (k0, k1) = (keys[0], keys.get(1).copied().unwrap_or(0));
                            // SAFETY: `dims` and `arrays` are the
                            // instance's parts in its layout's order,
                            // alive across the call.
                            let kernel =
                                unsafe { probe(dims.as_ptr(), arrays.as_ptr(), parent, k0, k1) };
                            let at = format!("{name} chain {chain} level {level} under {parent}");
                            assert_eq!(kernel, host.map_or(-1, |p| p as i64), "{at}: {keys:?}");
                            if i > 0 {
                                assert_eq!(host, None, "{at}: {keys:?} is a wrapped key");
                            }
                            hits += usize::from(i == 0 && host.is_some());
                        }
                    }
                }
                for (parent, keys) in stored {
                    let (k0, k1) = (keys[0], keys.get(1).copied().unwrap_or(0));
                    // SAFETY: as above.
                    let kernel = unsafe { probe(dims.as_ptr(), arrays.as_ptr(), parent, k0, k1) };
                    assert!(
                        kernel >= 0,
                        "{name} chain {chain} level {level}: {keys:?} under {parent}"
                    );
                }
                assert!(
                    hits > 0,
                    "{name} chain {chain} level {level}: no key found at all"
                );
                searched.push((name, chain, level));
            }
        }
    }
    // Every layout has a level that searches; JAD's flat chain does not.
    let layouts: std::collections::BTreeSet<_> = searched.iter().map(|s| s.0).collect();
    assert_eq!(layouts.len(), LAYOUTS.len(), "{searched:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
