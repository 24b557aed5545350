//! Tests only: `persist.rs` includes this file under `#[cfg(test)]`
//! (in the crate, for [`PersistentPlanCache::store`] and `decode_file`).
//!
//! The entry text, pinned: byte length and FNV-1a hash of the `<entry>`
//! element `store` writes for the nineteen `GENERATED_KERNELS` pairs,
//! mvm over dcsr, the two sparse dot products, and the two blocked and
//! the split-`ts` problems of `tests/service.rs`.
//!
//! [`TABLE`] was recorded at the parent of the PR that replaced the
//! value tree and the paired `enc_*`/`dec_*` functions by the `Wire`
//! descriptions (this file, copied into a checkout of that parent,
//! passes there), so it is the proof that the descriptions write the
//! parent's bytes. To re-record after a *deliberate* change to the plan
//! IR or to what lowering produces: `cargo test -p bernoulli-synth --lib
//! persist_tests -- --nocapture` prints every row in the table's
//! syntax; paste them over the table and bump `FORMAT_VERSION`.

use super::*;
use crate::emit::emit_rust;
use crate::search::{run_search, serve, PlanCache, Request, SynthOptions};
use crate::session::bind_problem;
use bernoulli_blas::kernels;
use bernoulli_blas::synth::{spec_for, view_for, GENERATED_KERNELS};
use bernoulli_formats::formats::dcsr::dcsr_format_view;
use bernoulli_formats::formats::sparsevec::{hashvec_format_view, sparsevec_format_view};
use bernoulli_formats::view::{Bound, FormatView, StoredGuarantee};
use bernoulli_formats::{discover_strips, gen, Bsr, Csr, SparseView, Triplets, Vbr};
use bernoulli_ir::{parse_program, Program};
use std::sync::Arc;

type Outcome = Result<(), Box<dyn std::error::Error>>;
type Problem = (String, Program, Vec<(&'static str, FormatView)>);

const TS: &str = "program ts(N) { in matrix L[N][N]; inout vector b[N];
    for j in 0..N { b[j] = b[j] / L[j][j];
      for i in j+1..N { b[i] = b[i] - L[i][j] * b[j]; } } }";

fn problems() -> Result<Vec<Problem>, Box<dyn std::error::Error>> {
    let mut out: Vec<Problem> = GENERATED_KERNELS
        .iter()
        .map(|&(kernel, format)| {
            let (program, matrix) = spec_for(kernel);
            let views = vec![(matrix, view_for(kernel, format))];
            (format!("{kernel}/{format}"), program, views)
        })
        .collect();
    let mvm = kernels::mvm();
    let dcsr = vec![("A", dcsr_format_view())];
    out.push(("mvm/dcsr".into(), mvm.clone(), dcsr));
    for (what, y) in [
        ("spdot_merge", sparsevec_format_view()),
        ("spdot_hash", hashvec_format_view()),
    ] {
        let views = vec![("x", sparsevec_format_view()), ("y", y)];
        out.push((what.into(), kernels::spdot(), views));
    }
    assert_eq!(out.len(), 22);

    // `tests/service.rs`: the blocked instances and the bounded view
    // whose `ts` plan carries an `edge_bound`.
    let t = gen::fem_blocked(24, 2, 2, 1.0, 7);
    let (rp, cp) = discover_strips(&t);
    let bsr = Bsr::from_triplets(&t, 2, 2).format_view();
    let vbr = Vbr::from_triplets(&t, &rp, &cp).format_view();
    out.push(("service/bsr".into(), mvm.clone(), vec![("A", bsr)]));
    out.push(("service/vbr".into(), mvm, vec![("A", vbr)]));
    let mut bounded = Csr::from_triplets(&Triplets::from_entries(
        3,
        3,
        &[(0, 0, 2.0), (1, 2, 1.0), (2, 1, 4.0)],
    ))
    .format_view();
    bounded.bounds.push(Bound::attr_ge("r", "c"));
    bounded.guarantees.push(StoredGuarantee::FullDiagonal);
    out.push((
        "service/ts_split".into(),
        parse_program(TS)?,
        vec![("L", bounded)],
    ));
    Ok(out)
}

fn scratch_store(tag: &str) -> PersistentPlanCache {
    let dir = std::env::temp_dir().join(format!(
        "bernoulli-persist-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    PersistentPlanCache::new(dir)
}

/// Searches the problem with `store` as the persistent tier and returns
/// the entry and the file stored under its key.
fn stored(
    store: &PersistentPlanCache,
    p: &Program,
    views: &[(&'static str, FormatView)],
) -> Result<(Arc<CachedSearch>, String), Box<dyn std::error::Error>> {
    let cache = PlanCache::new();
    let opts = SynthOptions::default();
    let bound = bind_problem(p, views)?;
    let req = Request::new(&bound, &opts);
    let found = serve(&cache, &req, |key| {
        run_search(&req, key, None, &cache, Some(store))
    })?;
    let file = std::fs::read_to_string(store.path_for(&found.entry.key))?;
    Ok((found.entry, file))
}

/// The end of the quoted string that starts at `text[at]`.
fn string_end(text: &str, at: usize) -> usize {
    let bytes = text.as_bytes();
    assert_eq!(bytes[at], b'"');
    let mut i = at + 1;
    while bytes[i] != b'"' {
        i += if bytes[i] == b'\\' { 2 } else { 1 };
    }
    i + 1
}

/// The fourth element of `(magic version key entry ..)`.
fn entry_text(file: &str) -> &str {
    let bytes = file.as_bytes();
    let magic_end = string_end(file, 1);
    let key_at = magic_end + file[magic_end..].find('"').unwrap_or(0);
    let start = string_end(file, key_at) + 1;
    assert_eq!(bytes[start], b'(');
    let (mut depth, mut i) = (0usize, start);
    loop {
        match bytes[i] {
            b'"' => i = string_end(file, i) - 1,
            b'(' => depth += 1,
            b')' => depth -= 1,
            _ => {}
        }
        i += 1;
        if depth == 0 {
            return &file[start..i];
        }
    }
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn entries_are_the_recorded_text() -> Outcome {
    let store = scratch_store("golden");
    let mut observed = Vec::new();
    for (what, p, views) in problems()? {
        let (entry, file) = stored(&store, &p, &views)?;
        let text = entry_text(&file);
        println!("    ({what:?}, {}, {:#018x}),", text.len(), fnv(text));
        observed.push((what, text.len(), fnv(text)));

        // What was written is what is read, field for field (`Debug`
        // leaves none out) and cost for cost, to the bit.
        let (wrote, read) = (&entry.report, store.load(&entry.key).ok_or("no entry")?);
        assert_eq!(
            format!("{:?}", read.candidates),
            format!("{:?}", wrote.candidates)
        );
        let bits = |r: &SearchReport| -> Vec<u64> {
            r.candidates.iter().map(|c| c.cost.to_bits()).collect()
        };
        assert_eq!(bits(&read), bits(wrote));
        assert_eq!(
            (read.examined, read.pruned, &read.reasons),
            (wrote.examined, wrote.pruned, &wrote.reasons)
        );
        let emit = |r: &SearchReport| {
            let best = r.candidates.first().map(|c| &c.plan);
            best.map(|plan| emit_rust(&p, plan, entry.problem.views(), "k").map_err(|e| e.0))
        };
        assert_eq!(emit(&read), emit(wrote));
    }
    assert_eq!(store.stats().errors, 0, "{:?}", store.last_error());
    let recorded: Vec<_> = TABLE
        .iter()
        .map(|&(what, len, hash)| (what.to_string(), len, hash))
        .collect();
    assert_eq!(observed, recorded);
    let _ = std::fs::remove_dir_all(store.dir());
    Ok(())
}

/// A truncated write cannot happen (entries are renamed into place),
/// but a truncated *file* can reach the reader: every proper prefix of
/// a valid one is an error — never a panic, never a plan.
#[test]
fn every_proper_prefix_of_an_entry_is_an_error() -> Outcome {
    let store = scratch_store("prefix");
    let (_, p, views) = problems()?.swap_remove(0);
    let (entry, file) = stored(&store, &p, &views)?;
    let key = &entry.key;
    assert!(decode_file(&file, key).is_ok());
    assert!(file.len() <= 10_000, "{} bytes", file.len());
    let mut parses = 0;
    for end in (0..file.len()).filter(|&i| file.is_char_boundary(i)) {
        assert!(decode_file(&file[..end], key).is_err(), "prefix of {end}");
        parses += 1;
    }
    assert!(parses > 2_000, "{parses} prefixes");
    let _ = std::fs::remove_dir_all(store.dir());
    Ok(())
}

#[rustfmt::skip]
const TABLE: &[(&str, usize, u64)] = &[
    ("mvm/csr", 2152, 0x7c6d5714014dcdab),
    ("mvm/csc", 2170, 0xf440039f21c1bc43),
    ("mvm/coo", 1378, 0xd63d3453e8bca123),
    ("mvm/dia", 2224, 0x5269f950aadada72),
    ("mvm/ell", 2152, 0x7c6d5714014dcdab),
    ("mvm/jad", 3522, 0x4559b1f1caa9052b),
    ("ts/csr", 8420, 0x7fa0572037a39c3b),
    ("ts/csc", 8340, 0x5c7798117c1938a1),
    ("ts/jad", 3987, 0x98eca218dd536881),
    ("ts/dia", 3633, 0xb53b31e88529c2af),
    ("ts/sky", 8064, 0xa1771c52635afebf),
    ("mvm/sky", 2114, 0x63e0755fc8da4259),
    ("mvmt/csr", 2152, 0x7c2ae2e1197488d2),
    ("mvmt/csc", 2170, 0x24a60d9931121266),
    ("mvmt/coo", 1378, 0xb7535f1f945ed83d),
    ("mvm/bsr2x2", 2152, 0x7c6d5714014dcdab),
    ("mvmt/bsr2x2", 2152, 0x7c2ae2e1197488d2),
    ("mvm/vbr", 2152, 0x7c6d5714014dcdab),
    ("mvmt/vbr", 2152, 0x7c2ae2e1197488d2),
    ("mvm/dcsr", 2152, 0xd1f47709481e99de),
    ("spdot_merge", 4722, 0xd5a61455c74dbffa),
    ("spdot_hash", 3648, 0xac52fd491f6e16ec),
    ("service/bsr", 2152, 0x7c6d5714014dcdab),
    ("service/vbr", 2152, 0x7c6d5714014dcdab),
    ("service/ts_split", 8420, 0x7fa0572037a39c3b),
];
