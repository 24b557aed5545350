//! The emitted text, pinned: byte length and FNV-1a hash of what
//! [`emit_rust`] (and, where the plan is [`range_splittable`],
//! [`emit_rust_ranged`]) prints for
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
//! the format that PR added.
//!
//! To re-record after a *deliberate* change to the emitted text:
//! `cargo test -p bernoulli-synth --test emit_golden -- --nocapture`
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
use bernoulli_synth::{
    emit_rust, emit_rust_ranged, range_splittable, CompiledKernel, Plan, Session, SynthOptions,
};

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
    assert_eq!(ranged.is_some(), range_splittable(p, plan, views), "{what}");
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

/// Every candidate of a problem under the iteration-centric option.
/// Some candidate must search every searchable level of `searched`.
fn random_access(what: &str, p: &Program, views: &[(&str, FormatView)], out: &mut Vec<Row>) {
    let session = Session::with_options(SynthOptions {
        include_iteration_centric: true,
        ..SynthOptions::default()
    });
    let k = compile(&session, p, views);
    let mut most = 0;
    for (i, c) in k.candidates().iter().enumerate() {
        rows_of(&format!("ra/{what} #{i}"), &k, &c.plan, out);
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
    let session = Session::new();
    for &(kernel, format) in GENERATED_KERNELS {
        let (p, matrix) = spec_for(kernel);
        let k = compile(&session, &p, &[(matrix, view_for(kernel, format))]);
        rows_of(&format!("{kernel}/{format}"), &k, k.plan(), &mut out);
    }
    let spdot = kernels::spdot();
    let joins = [
        ("spdot_merge", sparsevec_format_view()),
        ("spdot_hash", hashvec_format_view()),
    ];
    for (what, y) in &joins {
        let views = [("x", sparsevec_format_view()), ("y", y.clone())];
        let k = compile(&session, &spdot, &views);
        rows_of(what, &k, k.plan(), &mut out);
    }
    let mvm = kernels::mvm();
    for view in matrix_views() {
        random_access(&view.name.clone(), &mvm, &[("A", view)], &mut out);
    }
    for (what, y) in joins {
        let views = [("x", sparsevec_format_view()), ("y", y)];
        random_access(what, &spdot, &views, &mut out);
    }
    out
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

/// Recorded at the parent of the level-description PR.
#[rustfmt::skip]
const TABLE: &[(&str, usize, u64)] = &[
    ("mvm/csr", 947, 0xf6b881cb049f0f27),
    ("mvm/csr ranged", 977, 0x136ddc5f92e5c5c3),
    ("mvm/csc", 893, 0x07611f330b261585),
    ("mvm/coo", 793, 0x11627f516575e77c),
    ("mvm/dia", 983, 0x44d61c0383cebf3a),
    ("mvm/ell", 988, 0xc6d0fcb55559bb53),
    ("mvm/ell ranged", 1018, 0x101f6dcb0ac2846b),
    ("mvm/jad", 1006, 0x70569459fdf3f65f),
    ("ts/csr", 2067, 0x3135d189a6e4dc6e),
    ("ts/csc", 2074, 0x32eebf41ec936257),
    ("ts/jad", 2657, 0xe11b9be572453d7c),
    ("ts/dia", 1657, 0x0c5aefe17f59d45c),
    ("ts/sky", 2108, 0x4a2bf20be674ae3a),
    ("mvm/sky", 962, 0x75a9b1b660c87985),
    ("mvmt/csr", 893, 0x2db1f739c28386f7),
    ("mvmt/csr ranged", 923, 0xa62a832adf4b6e33),
    ("mvmt/csc", 947, 0xb44d762bb4f3d24d),
    ("mvmt/coo", 793, 0xc218b7a1b4981b9f),
    ("mvm/bsr2x2", 3630, 0x915e30e2e1321e60),
    ("mvm/bsr2x2 ranged", 3657, 0x36d1fc9a8a22bea9),
    ("mvmt/bsr2x2", 1154, 0x60880c09d4215cb9),
    ("mvmt/bsr2x2 ranged", 1184, 0xbaf468ed09439a71),
    ("mvm/vbr", 2884, 0x319742ef44473c45),
    ("mvm/vbr ranged", 2911, 0x33d5fd9a676b8562),
    ("mvmt/vbr", 1282, 0x7e15d0f1066fbfc6),
    ("mvmt/vbr ranged", 1312, 0x6d7627f73b245f2e),
    ("spdot_merge", 1154, 0x47a2dc7cadf5b2cb),
    ("spdot_hash", 1169, 0x4ff1bf1e5159626e),
    ("ra/csr #0", 947, 0xf6b881cb049f0f27),
    ("ra/csr #0 ranged", 977, 0x136ddc5f92e5c5c3),
    ("ra/csr #1", 541, 0x43c0c4270c18c197),
    ("ra/csr #2", 1145, 0x800256d69b400d70),
    ("ra/csr #2 ranged", 1175, 0x2fd44021de906cf4),
    ("ra/csr #3", 1348, 0x10c46204933a6e15),
    ("ra/csc #0", 893, 0x07611f330b261585),
    ("ra/csc #1", 586, 0x88a19cb555224b4e),
    ("ra/csc #2", 848, 0x1b6f8d4cb953ebe4),
    ("ra/csc #3", 1091, 0x866c0100af93a1c9),
    ("ra/csc #4", 1294, 0xf1dfc9436574c2df),
    ("ra/coo #0", 793, 0x11627f516575e77c),
    ("ra/coo #1", 541, 0x25a296aa6611c70c),
    ("ra/coo #2", 1126, 0x2241569f206a8d15),
    ("ra/dia #0", 983, 0x44d61c0383cebf3a),
    ("ra/dia #1", 1262, 0x1ef8e61c3599caa2),
    ("ra/dia #2", 541, 0x52a05977ba13ef9d),
    ("ra/dia #3", 1421, 0x9e6a3b3b19be5dee),
    ("ra/ell #0", 988, 0xc6d0fcb55559bb53),
    ("ra/ell #0 ranged", 1018, 0x101f6dcb0ac2846b),
    ("ra/ell #1", 541, 0x1f053cc73df4f1b4),
    ("ra/ell #2", 1145, 0xc2fd37832f18b6e3),
    ("ra/ell #2 ranged", 1175, 0x8406cd41849b2f0b),
    ("ra/ell #3", 1348, 0x53d32dfe3b07b840),
    ("ra/jad #0", 1006, 0x70569459fdf3f65f),
    ("ra/jad #1", 1351, 0x382d7ccc2f13f8a6),
    ("ra/jad #2", 927, 0x6a67bb0c22c42c04),
    ("ra/jad #3", 541, 0x79fea4c397a39a18),
    ("ra/jad #4", 541, 0x79fea4c397a39a18),
    ("ra/jad #5", 1186, 0x190f8c33b56d81ae),
    ("ra/jad #6", 1476, 0x386c77b012b406cb),
    ("ra/sky #0", 962, 0x75a9b1b660c87985),
    ("ra/sky #1", 541, 0xb3ed9c755571f1a2),
    ("ra/sky #2", 1141, 0x3c2be3a88dc75c82),
    ("ra/sky #3", 1344, 0xaf806b1aca530f4f),
    ("ra/bsr2x2 #0", 3630, 0x915e30e2e1321e60),
    ("ra/bsr2x2 #0 ranged", 3657, 0x36d1fc9a8a22bea9),
    ("ra/bsr2x2 #1", 541, 0xf2a1c5619403ad1c),
    ("ra/bsr2x2 #2", 1145, 0x8f0e8c4b1f9921cb),
    ("ra/bsr2x2 #2 ranged", 1175, 0xcc6065f0cdb3cba3),
    ("ra/bsr2x2 #3", 1348, 0xc016bcd970e6a768),
    ("ra/vbr #0", 2884, 0x319742ef44473c45),
    ("ra/vbr #0 ranged", 2911, 0x33d5fd9a676b8562),
    ("ra/vbr #1", 541, 0x0f092b3d485e4141),
    ("ra/vbr #2", 1142, 0x916604a48dcfe53f),
    ("ra/vbr #2 ranged", 1172, 0x72c6a318aa293967),
    ("ra/vbr #3", 1345, 0x73ff41b7b9bb8998),
    ("ra/dense #0", 918, 0xd26d4fa9a69f8c20),
    ("ra/dense #0 ranged", 948, 0xb66bd3d0de16c670),
    ("ra/dense #1", 543, 0x11cee8d037c58fa0),
    ("ra/dense #2", 1180, 0xa8849a813748ed50),
    ("ra/dense #2 ranged", 1210, 0xfb29fc03e52d9c00),
    ("ra/dense #3", 1383, 0x7bb3aded3efe6bb9),
    ("ra/diagsplit #0", 1493, 0xa916ba7af655d2e5),
    ("ra/diagsplit #1", 1679, 0xef8bb24b104c650e),
    ("ra/diagsplit #2", 1742, 0x44aa7d57704d6ae9),
    ("ra/diagsplit #3", 1945, 0xd2c2332fdababd5f),
    ("ra/spdot_merge #0", 1154, 0x47a2dc7cadf5b2cb),
    ("ra/spdot_merge #1", 1154, 0x47a2dc7cadf5b2cb),
    ("ra/spdot_merge #2", 1154, 0x47a2dc7cadf5b2cb),
    ("ra/spdot_merge #3", 1151, 0x50d6c4d2c188df8f),
    ("ra/spdot_merge #4", 1151, 0x4c6b23156228fbcd),
    ("ra/spdot_merge #5", 1151, 0x50d6c4d2c188df8f),
    ("ra/spdot_merge #6", 989, 0x112cdd44cdd306ee),
    ("ra/spdot_merge #7", 989, 0x93ab747d9698c760),
    ("ra/spdot_merge #8", 989, 0x93ab747d9698c760),
    ("ra/spdot_merge #9", 989, 0x112cdd44cdd306ee),
    ("ra/spdot_merge #10", 989, 0x112cdd44cdd306ee),
    ("ra/spdot_merge #11", 989, 0x93ab747d9698c760),
    ("ra/spdot_hash #0", 1169, 0x4ff1bf1e5159626e),
    ("ra/spdot_hash #1", 1169, 0x4ff1bf1e5159626e),
    ("ra/spdot_hash #2", 1169, 0x4ff1bf1e5159626e),
    ("ra/spdot_hash #3", 1004, 0x1230b4f67a2d5679),
    ("ra/spdot_hash #4", 1004, 0x1230b4f67a2d5679),
    ("ra/spdot_hash #5", 1004, 0x1230b4f67a2d5679),
    ("ra/spdot_hash #6", 987, 0x786fdfdbc35b27a0),
    ("ra/spdot_hash #7", 987, 0x786fdfdbc35b27a0),
    ("ra/spdot_hash #8", 987, 0x786fdfdbc35b27a0),
];

/// The format the level-description PR added: its random-access rows.
#[rustfmt::skip]
const TABLE_DCSR: &[(&str, usize, u64)] = &[
    ("ra/dcsr #0", 961, 0x98fdcf88720f5bff),
    ("ra/dcsr #1", 542, 0xca176bb5145925c3),
    ("ra/dcsr #2", 1355, 0xc297c3801410c72c),
    ("ra/dcsr #3", 1166, 0x32a7508a7aea5865),
];
