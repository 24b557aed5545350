//! The emitted text, pinned: byte length and FNV-1a hash of what
//! [`emit_rust`] (and, where the plan's [`Codegen`] record has a
//! row-band entry, [`emit_rust_ranged`]) prints for
//!
//! - the best plan of each of the nineteen `GENERATED_KERNELS` pairs and
//!   of the two sparse dot products (merge join, hash join);
//! - every ranked candidate of one *random-access* problem per view:
//!   `y[i] += A[i][j] * x[j]` searched with the iteration-centric order
//!   switched on, so that beside the data-centric plans the candidate
//!   list holds the dense `for i, for j` nest that reaches `A[i][j]` by
//!   a search at every level of the view — the nineteen pairs alone
//!   reach only a few of the emitter's search templates. The vector
//!   analogue is the dot product under the same option.
//!
//! [`TABLE`] was recorded at the parent of the PR that replaced the
//! emitter's per-format templates by one renderer over the level
//! descriptions of `bernoulli_formats::level` (this file, copied into a
//! checkout of that parent, passes there), so it is the proof that the
//! renderer prints the parent's bytes. [`TABLE_DCSR`] holds the rows of
//! the format that PR added. 43 rows were re-recorded when every
//! unsigned index array became `u32`: the texts differ from the ones
//! recorded before only by `as usize` on a read of such an array (or on
//! the local it is bound to) used as a position, and by the checked
//! `u32::try_from` of the key DCSR's row list is searched for. 41 rows
//! were re-recorded when every level came to be searched by the search
//! of its kind: a search through a level that called the format's
//! `find` prints a call to `search::<kind>` over the level's arrays (a
//! sorted vector's, one list, its inline binary search), and the
//! skyline's column level, an interval, its bounds. Only texts of plans
//! that search through such a level moved, the two sparse dot products
//! among them; the nineteen `GENERATED_KERNELS` rows did not.
//!
//! To re-record after a *deliberate* change to the emitted text:
//! `cargo test -p bernoulli-service --test emit_golden -- --nocapture`
//! prints every row in the table's syntax; paste them over the table.
//! `persist::FORMAT_VERSION` and `generated.rs` need the same attention
//! (`.claude/skills/verify/SKILL.md`, Gotchas).

use bernoulli_blas::kernels;
use bernoulli_blas::synth::{spec_for, view_for, GENERATED_KERNELS};
use bernoulli_formats::formats::dense::Dense;
use bernoulli_formats::formats::diagsplit::diagsplit_format_view;
use bernoulli_formats::formats::sparsevec::{hashvec_format_view, sparsevec_format_view};
use bernoulli_formats::view::{FormatView, SearchKind};
use bernoulli_formats::{SparseView, LAYOUTS};
use bernoulli_ir::Program;
use bernoulli_service::compiled::kernel_source;
use bernoulli_service::{CompiledKernel, Session};
use bernoulli_synth::plan::Edge;
use bernoulli_synth::{emit_rust, emit_rust_ranged, Codegen, Plan, SynthOptions, Tiling};

/// `(what, bytes, FNV-1a 64 of the text)`.
type Row = (String, usize, u64);

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The rows of one plan: its text, and its ranged text where it has one.
fn rows_of(what: &str, k: &CompiledKernel, plan: &Plan, out: &mut Vec<Row>) {
    let (p, views) = (k.program(), k.views());
    let text = emit_rust(p, plan, views, "k").unwrap_or_else(|e| format!("{e}"));
    out.push((what.to_string(), text.len(), fnv(&text)));
    let ranged = emit_rust_ranged(p, plan, views, "k").unwrap_or_else(|e| Some(format!("{e}")));
    let splittable = Codegen::of(p, plan, views).ranged().is_some();
    assert_eq!(ranged.is_some(), splittable, "{what}");
    if let Some(text) = ranged {
        out.push((format!("{what} ranged"), text.len(), fnv(&text)));
    }
}

fn compile(session: &Session, p: &Program, views: &[(&str, FormatView)]) -> CompiledKernel {
    let bound = session
        .bind(p, views)
        .unwrap_or_else(|e| panic!("{views:?}: {e}"));
    session
        .compile(&bound)
        .unwrap_or_else(|e| panic!("{views:?}: {e}"))
}

/// The levels a search can reach: the most any one alternative of the
/// view has.
fn searchable_levels(view: &FormatView) -> usize {
    let searchable = |alt: &Vec<bernoulli_formats::Chain>| {
        alt.iter()
            .flat_map(|c| &c.levels)
            .filter(|l| l.search != SearchKind::None)
            .count()
    };
    view.alternatives()
        .iter()
        .map(searchable)
        .max()
        .unwrap_or(0)
}

/// What is done with each plan of the corpus: its name, its kernel and
/// the plan.
type Visit<'a> = &'a mut dyn FnMut(&str, &CompiledKernel, &Plan);

/// Every candidate of a problem under the iteration-centric option.
/// Some candidate must search every searchable level of `searched`.
fn random_access(what: &str, p: &Program, views: &[(&str, FormatView)], visit: Visit<'_>) {
    let session = Session::with_options(SynthOptions {
        include_iteration_centric: true,
        ..SynthOptions::default()
    });
    let k = compile(&session, p, views);
    let mut most = 0;
    for (i, c) in k.candidates().iter().enumerate() {
        visit(&format!("ra/{what} #{i}"), &k, &c.plan);
        let searches = c.plan.steps.iter().map(|s| s.searches.len()).sum();
        most = most.max(searches);
    }
    let want: usize = views
        .iter()
        .map(|(_, v)| searchable_levels(v))
        .max()
        .unwrap_or(0);
    assert!(most >= want, "ra/{what}: {most} of {want} levels searched");
}

fn matrix_views() -> Vec<FormatView> {
    let mut views: Vec<FormatView> = LAYOUTS.iter().map(|l| (l.view)((2, 2))).collect();
    views.push(Dense::<f64>::zeros(1, 1).format_view());
    views.push(diagsplit_format_view());
    views
}

fn observed() -> Vec<Row> {
    let mut out = Vec::new();
    corpus(&mut |what, k, plan| rows_of(what, k, plan, &mut out));
    out
}

/// The plans whose texts are pinned, in the order of the rows.
fn corpus(visit: Visit<'_>) {
    let session = Session::new();
    for &(kernel, format) in GENERATED_KERNELS {
        let (p, matrix) = spec_for(kernel);
        let k = compile(&session, &p, &[(matrix, view_for(kernel, format))]);
        visit(&format!("{kernel}/{format}"), &k, k.plan());
    }
    let spdot = kernels::spdot();
    let joins = [
        ("spdot_merge", sparsevec_format_view()),
        ("spdot_hash", hashvec_format_view()),
    ];
    for (what, y) in &joins {
        let views = [("x", sparsevec_format_view()), ("y", y.clone())];
        let k = compile(&session, &spdot, &views);
        visit(what, &k, k.plan());
    }
    let mvm = kernels::mvm();
    for view in matrix_views() {
        random_access(&view.name.clone(), &mvm, &[("A", view)], visit);
    }
    for (what, y) in joins {
        let views = [("x", sparsevec_format_view()), ("y", y)];
        random_access(what, &spdot, &views, visit);
    }
}

#[test]
fn emitted_text_is_the_recorded_text() {
    let observed = observed();
    for (what, bytes, hash) in &observed {
        println!("    ({what:?}, {bytes}, {hash:#018x}),");
    }
    let has_dcsr = LAYOUTS.iter().any(|l| l.name == "dcsr");
    let recorded = TABLE.iter().chain(TABLE_DCSR.iter().filter(|_| has_dcsr));
    let mut recorded: Vec<Row> = recorded.map(|&(w, b, h)| (w.to_string(), b, h)).collect();
    // In one order, whichever table a view's rows are in.
    let mut observed = observed;
    observed.sort();
    recorded.sort();
    for (seen, want) in observed.iter().zip(&recorded) {
        assert_eq!(seen, want, "(observed, recorded)");
    }
    assert_eq!(observed.len(), recorded.len(), "rows");
}

/// Every fact of a plan's [`Codegen`] record, checked against the text
/// printed from it, over the plans of [`corpus`]; and how many plans
/// each fact fires on ([`FIRED`]).
#[test]
fn codegen_facts_are_in_the_text() {
    let mut fired: Vec<(&str, usize)> = FIRED.iter().map(|&(fact, _)| (fact, 0)).collect();
    corpus(&mut |what, k, plan| {
        let (p, views) = (k.program(), k.views());
        let cg = Codegen::of(p, plan, views);
        let text = emit_rust(p, plan, views, "k").unwrap_or_else(|e| panic!("{what}: {e}"));
        let ranged =
            emit_rust_ranged(p, plan, views, "k").unwrap_or_else(|e| panic!("{what}: {e}"));
        // The kernel crate, or why there is none.
        let krate = kernel_source(p, plan, views).unwrap_or_else(|e| e.to_string());
        let split = cg.edge_split().map(|s| match s.edge() {
            Edge::First => (" in span__.start + 1..span__.end {", " = span__.start;"),
            Edge::Last => (" in span__.start..span__.end - 1 {", " = span__.end - 1;"),
        });
        let blocks = match cg.tiling() {
            Some(Tiling::Blocks { r, c }) => Some((format!("acc{}t__ = ", r - 1), r * c)),
            _ => None,
        };
        let facts = [
            (
                "promotion",
                cg.promotion().is_some(),
                text.contains("let mut acc__"),
            ),
            ("blocks", blocks.is_some(), text.contains("acc0t__")),
            (
                "strips",
                cg.tiling() == Some(Tiling::Strips),
                text.contains("acct__"),
            ),
            ("ranged", cg.ranged().is_some(), ranged.is_some()),
            (
                "row-blocked",
                cg.ranged().is_some_and(|r| r.row_blocked()),
                krate.contains("while r0__ < nrows__"),
            ),
            ("random access", cg.random_access(), reads_by_get(&text)),
            ("edge split", split.is_some(), text.contains("span__")),
        ];
        for (n, (fact, decided, printed)) in facts.into_iter().enumerate() {
            assert_eq!(decided, printed, "{what}: {fact}\n{text}");
            fired[n].1 += usize::from(decided);
        }
        if let Some((main_loop, edge)) = split {
            assert!(
                text.contains(main_loop) && text.contains(edge),
                "{what}:\n{text}"
            );
        }
        if let Some((last_register, tile)) = blocks {
            let walk = format!("let base__ = b__ * {tile};");
            assert!(
                text.contains(&last_register) && text.contains(&walk),
                "{what}:\n{text}"
            );
        }
        // A plan that reads by `get` has no kernel crate.
        assert!(
            !cg.random_access() || !krate.contains("#![no_std]"),
            "{what}"
        );
        if let Some(r) = cg.ranged() {
            assert!(k.views().contains_key(r.outer()), "{what}");
        }
    });
    assert_eq!(fired, FIRED);
}

/// Does the text read a matrix by `get(row, column)`?
fn reads_by_get(text: &str) -> bool {
    text.split(".get((").skip(1).any(|call| {
        let arg = call.find(") as usize").unwrap_or(call.len());
        call[arg..].starts_with(") as usize, (")
    })
}

/// How many plans of [`corpus`] each fact of the record fires on.
const FIRED: &[(&str, usize)] = &[
    ("promotion", 75),
    ("blocks", 2),
    ("strips", 2),
    ("ranged", 14),
    ("row-blocked", 3),
    ("random access", 13),
    ("edge split", 4),
];

/// The unchecked reads of format-owned arrays (`ix(&…)` calls) and the
/// `unsafe` keywords (blocks, functions) in the kernel crates of the
/// plans of [`corpus`] that have one, summed: what a kernel's memory
/// safety rests on besides its checked reads. Each may fall, never
/// rise ([`UNCHECKED`]).
#[test]
fn unchecked_sites_in_the_kernel_crates_only_fall() {
    let (mut reads, mut unsafes, mut crates) = (0, 0, 0);
    corpus(&mut |_, k, plan| {
        if let Ok(krate) = kernel_source(k.program(), plan, k.views()) {
            reads += krate.matches("ix(&").count();
            unsafes += krate.matches("unsafe ").count();
            crates += 1;
        }
    });
    println!("{crates} kernel crates: {reads} unchecked reads, {unsafes} unsafe");
    let [(_, max_reads), (_, max_unsafe)] = UNCHECKED;
    assert!(
        reads <= max_reads && unsafes <= max_unsafe,
        "unchecked reads {reads} (at most {max_reads}), unsafe {unsafes} (at most {max_unsafe})"
    );
}

/// The ceilings of [`unchecked_sites_in_the_kernel_crates_only_fall`]:
/// lower them when a change removes sites.
const UNCHECKED: [(&str, usize); 2] = [("ix(&", 140), ("unsafe", 457)];

/// Recorded at the parent of the level-description PR; 43 rows
/// re-recorded with the `u32` index arrays, 41 with the per-kind
/// searches; the three `mvmt/{csr,bsr2x2,vbr} ranged` rows dropped when
/// a row-band entry came to require every write to stay in the band
/// (mvmᵀ writes `y[j]`); 18 re-recorded when the deferred pivot
/// division and guard chaining went (the four `ts` rows over CSR, CSC,
/// JAD and SKY) and a ranged body came to index each output vector
/// from its band's first row (the fourteen `ranged` rows).
#[rustfmt::skip]
const TABLE: &[(&str, usize, u64)] = &[
    ("mvm/csr", 965, 0x20e9524ada22bf69),
    ("mvm/csr ranged", 1017, 0x8613d88fa6745645),
    ("mvm/csc", 911, 0x8f7bbce2151c442f),
    ("mvm/coo", 793, 0x11627f516575e77c),
    ("mvm/dia", 992, 0x873a8643896dd55a),
    ("mvm/ell", 997, 0xaea1fec30256041d),
    ("mvm/ell ranged", 1049, 0x78f4d6bcf2fa983f),
    ("mvm/jad", 1024, 0x7706096427c2873d),
    ("ts/csr", 1901, 0x5b2ada1dd64ebd3b),
    ("ts/csc", 2071, 0x3bd8531aca5217c6),
    ("ts/jad", 2560, 0x6e77979b176aefde),
    ("ts/dia", 1666, 0xc0748518d84c7ad4),
    ("ts/sky", 1960, 0x315861e169809e43),
    ("mvm/sky", 980, 0xc535b88ef63ce803),
    ("mvmt/csr", 911, 0x4020642e2e0d05e1),
    ("mvmt/csc", 965, 0xd3837059725e9e2b),
    ("mvmt/coo", 793, 0xc218b7a1b4981b9f),
    ("mvm/bsr2x2", 3711, 0x88f817f3c00c205a),
    ("mvm/bsr2x2 ranged", 3826, 0x9750e63316ab0c0b),
    ("mvmt/bsr2x2", 1181, 0xc25cb7e85fc21f53),
    ("mvm/vbr", 3019, 0xd770f46d52deae57),
    ("mvm/vbr ranged", 3090, 0x24245907cad33652),
    ("mvmt/vbr", 1354, 0xfbd8aed529ff5a64),
    ("spdot_merge", 1216, 0x9014164bb6c694ed),
    ("spdot_hash", 1200, 0xc002f39db8374446),
    ("ra/csr #0", 965, 0x20e9524ada22bf69),
    ("ra/csr #0 ranged", 1017, 0x8613d88fa6745645),
    ("ra/csr #1", 541, 0x43c0c4270c18c197),
    ("ra/csr #2", 1138, 0x5bc9bbf017d598a7),
    ("ra/csr #2 ranged", 1190, 0x2b7e22e4b4e11d0d),
    ("ra/csr #3", 1341, 0xd1db82e6f9149a20),
    ("ra/csc #0", 911, 0x8f7bbce2151c442f),
    ("ra/csc #1", 586, 0x88a19cb555224b4e),
    ("ra/csc #2", 848, 0x1b6f8d4cb953ebe4),
    ("ra/csc #3", 1084, 0x2670929175735188),
    ("ra/csc #4", 1287, 0x97a14ecc1d49c10a),
    ("ra/coo #0", 793, 0x11627f516575e77c),
    ("ra/coo #1", 541, 0x25a296aa6611c70c),
    ("ra/coo #2", 1108, 0x16abd868a73a6a58),
    ("ra/dia #0", 992, 0x873a8643896dd55a),
    ("ra/dia #1", 1271, 0x210983ac04f70b08),
    ("ra/dia #2", 541, 0x52a05977ba13ef9d),
    ("ra/dia #3", 1430, 0x9a138527cb886e8e),
    ("ra/ell #0", 997, 0xaea1fec30256041d),
    ("ra/ell #0 ranged", 1049, 0x78f4d6bcf2fa983f),
    ("ra/ell #1", 541, 0x1f053cc73df4f1b4),
    ("ra/ell #2", 1145, 0xde9dad9bb95486f6),
    ("ra/ell #2 ranged", 1197, 0x1d44c1a5476b5bc2),
    ("ra/ell #3", 1348, 0xe8df56e63d5a364f),
    ("ra/jad #0", 1024, 0x7706096427c2873d),
    ("ra/jad #1", 1369, 0xe09d61b4f3ba5fb4),
    ("ra/jad #2", 945, 0x99d2f46e1e18e63c),
    ("ra/jad #3", 541, 0x79fea4c397a39a18),
    ("ra/jad #4", 541, 0x79fea4c397a39a18),
    ("ra/jad #5", 1184, 0x97576842ab6e3fe4),
    ("ra/jad #6", 1474, 0x685e8bc9a576ecd1),
    ("ra/sky #0", 980, 0xc535b88ef63ce803),
    ("ra/sky #1", 541, 0xb3ed9c755571f1a2),
    ("ra/sky #2", 1242, 0x76abc6b1a960cd75),
    ("ra/sky #3", 1445, 0x592ec3ab2f24f0fe),
    ("ra/bsr2x2 #0", 3711, 0x88f817f3c00c205a),
    ("ra/bsr2x2 #0 ranged", 3826, 0x9750e63316ab0c0b),
    ("ra/bsr2x2 #1", 541, 0xf2a1c5619403ad1c),
    ("ra/bsr2x2 #2", 1150, 0x2f73fe88884a4de1),
    ("ra/bsr2x2 #2 ranged", 1202, 0xc7b59512e740d659),
    ("ra/bsr2x2 #3", 1353, 0xfd2fb1bc76084656),
    ("ra/vbr #0", 3019, 0xd770f46d52deae57),
    ("ra/vbr #0 ranged", 3090, 0x24245907cad33652),
    ("ra/vbr #1", 541, 0x0f092b3d485e4141),
    ("ra/vbr #2", 1188, 0x29fbc43337096c58),
    ("ra/vbr #2 ranged", 1240, 0x759b73c0eee19e98),
    ("ra/vbr #3", 1391, 0x1c9ff5151cd6ae8d),
    ("ra/dense #0", 918, 0xd26d4fa9a69f8c20),
    ("ra/dense #0 ranged", 970, 0x537201b18dd8759a),
    ("ra/dense #1", 543, 0x11cee8d037c58fa0),
    ("ra/dense #2", 1180, 0xa8849a813748ed50),
    ("ra/dense #2 ranged", 1232, 0x9ffb1ea29af8cf8e),
    ("ra/dense #3", 1383, 0x7bb3aded3efe6bb9),
    ("ra/diagsplit #0", 1511, 0xeadbb5c4453f3c43),
    ("ra/diagsplit #1", 1676, 0x6e4c56086688ee22),
    ("ra/diagsplit #2", 1739, 0xcc291bdb35440a9b),
    ("ra/diagsplit #3", 1942, 0x3e6942be2c879cd9),
    ("ra/spdot_merge #0", 1216, 0x9014164bb6c694ed),
    ("ra/spdot_merge #1", 1216, 0x9014164bb6c694ed),
    ("ra/spdot_merge #2", 1216, 0x9014164bb6c694ed),
    ("ra/spdot_merge #3", 1151, 0x50d6c4d2c188df8f),
    ("ra/spdot_merge #4", 1151, 0x4c6b23156228fbcd),
    ("ra/spdot_merge #5", 1151, 0x50d6c4d2c188df8f),
    ("ra/spdot_merge #6", 1020, 0x2ef8efd4a21ef0f0),
    ("ra/spdot_merge #7", 1020, 0xb2b3c3f16ba56d10),
    ("ra/spdot_merge #8", 1020, 0xb2b3c3f16ba56d10),
    ("ra/spdot_merge #9", 1020, 0x2ef8efd4a21ef0f0),
    ("ra/spdot_merge #10", 1020, 0x2ef8efd4a21ef0f0),
    ("ra/spdot_merge #11", 1020, 0xb2b3c3f16ba56d10),
    ("ra/spdot_hash #0", 1200, 0xc002f39db8374446),
    ("ra/spdot_hash #1", 1200, 0xc002f39db8374446),
    ("ra/spdot_hash #2", 1200, 0xc002f39db8374446),
    ("ra/spdot_hash #3", 1004, 0x1230b4f67a2d5679),
    ("ra/spdot_hash #4", 1004, 0x1230b4f67a2d5679),
    ("ra/spdot_hash #5", 1004, 0x1230b4f67a2d5679),
    ("ra/spdot_hash #6", 1018, 0x88397885a6edf8d0),
    ("ra/spdot_hash #7", 1018, 0x88397885a6edf8d0),
    ("ra/spdot_hash #8", 1018, 0x88397885a6edf8d0),
];

/// The format the level-description PR added: its random-access rows.
#[rustfmt::skip]
const TABLE_DCSR: &[(&str, usize, u64)] = &[
    ("ra/dcsr #0", 979, 0xb4c657d6a07965a1),
    ("ra/dcsr #1", 542, 0xca176bb5145925c3),
    ("ra/dcsr #2", 1351, 0xb3ebbff438fbe71e),
    ("ra/dcsr #3", 1152, 0x95d874979a7e971f),
];
