//! Structure-aware format/plan advice (ROADMAP item 1, SpComp-style).
//!
//! [`crate::session::Session::advise`] closes the paper's Fig. 11 loop
//! against the *instance*: it analyzes the matrix once
//! ([`StructureFeatures`]), derives the cost-model statistics from the
//! measurement ([`WorkloadStats::from_features`]), compiles the program
//! against each candidate format view, and returns every `(format,
//! plan)` pair ranked by predicted cost. Structure flows into the
//! views too — a lower-triangular instance adds the `r ≥ c` bound and
//! a stored-diagonal instance the `FullDiagonal` guarantee, so the
//! search sees exactly what a hand-annotated binding would declare.
//!
//! Advised compiles are ordinary compiles: they run through the same
//! plan-cache key machinery (the derived stats are deterministic, so a
//! second `advise` on the same instance is all cache hits), and the
//! returned [`CompiledKernel`]s interpret/load/emit like any other.

use crate::cost::WorkloadStats;
use crate::search::SynthError;
use crate::session::{bind_problem, BoundProblem, CompiledKernel};
use bernoulli_formats::formats::bsr::bsr_format_view;
use bernoulli_formats::formats::diagsplit::diagsplit_format_view;
use bernoulli_formats::view::{Bound, FormatView, StoredGuarantee};
use bernoulli_formats::{view_by_name, StructureFeatures, Triplets};
use bernoulli_ir::Program;

/// Candidate formats `advise` scores when the caller passes none:
/// the scalar general-purpose tier (every format here accepts any
/// pattern without blowup; `dia`/`bsr`/`vbr` opt in explicitly).
pub const DEFAULT_ADVISOR_FORMATS: &[&str] = &["coo", "csr", "csc", "ell", "jad"];

/// One scored `(format, plan)` pair of an [`Advice`] ranking.
#[derive(Clone, Debug)]
pub struct AdviceEntry {
    /// Format name (`"csr"`, `"jad"`, …).
    pub format: String,
    /// The cost model's prediction for the best plan on this format,
    /// under the stats derived from the instance.
    pub predicted_cost: f64,
    /// True when this candidate's search was served from the plan cache.
    pub from_cache: bool,
    /// The compiled kernel — interpret, load or emit it directly.
    pub kernel: CompiledKernel,
}

/// The advisor's report: instance features, derived statistics, and
/// every candidate ranked cheapest-first (ties broken by format name,
/// so the ranking is deterministic).
#[derive(Clone, Debug)]
pub struct Advice {
    /// Name of the advised matrix in the program.
    pub matrix: String,
    /// Measured structure of the instance.
    pub features: StructureFeatures,
    /// Cost-model statistics derived from `features`.
    pub stats: WorkloadStats,
    /// Scored candidates, cheapest predicted cost first. Never empty.
    pub ranked: Vec<AdviceEntry>,
    /// Candidates that could not be scored, with the reason (e.g. no
    /// legal plan for that view). Informational only.
    pub skipped: Vec<(String, String)>,
}

impl Advice {
    /// The chosen pair: the candidate with the lowest predicted cost.
    pub fn best(&self) -> &AdviceEntry {
        &self.ranked[0]
    }

    /// The entry for a specific format, if it was scored.
    pub fn entry(&self, format: &str) -> Option<&AdviceEntry> {
        self.ranked.iter().find(|e| e.format == format)
    }
}

/// Builds the candidate view for `format`, annotated with the bounds
/// and guarantees the instance's structure supports: `r ≥ c` when the
/// instance is lower triangular (and square), plus `FullDiagonal` when
/// the whole diagonal is stored — the annotations a hand binding would
/// add, now measured instead of asserted.
pub fn view_for_features(format: &str, f: &StructureFeatures) -> Result<FormatView, SynthError> {
    // A blocked candidate is advised at the instance's dominant block
    // shape; `diagsplit` is a view without a storage layout of its own.
    let view = match format {
        "bsr" => Some(bsr_format_view(f.block.r.max(1), f.block.c.max(1))),
        "diagsplit" => Some(diagsplit_format_view()),
        named => view_by_name(named),
    };
    let Some(mut v) = view else {
        return Err(SynthError::Config(crate::config::ConfigError(format!(
            "unknown advisor candidate format {format:?}"
        ))));
    };
    if f.lower_triangular && f.nrows == f.ncols {
        v.bounds.push(Bound::attr_ge("r", "c"));
    }
    if f.full_diagonal() {
        v.guarantees.push(StoredGuarantee::FullDiagonal);
    }
    Ok(v)
}

/// Shared advisor loop behind [`Session::advise`] and
/// [`Service::advise`]. The `compile` closure runs one candidate:
/// `Ok(Err(_))` is a per-candidate synthesis failure (the format is
/// skipped), `Err(_)` aborts the whole advice (service shed, expired
/// deadline).
///
/// [`Session::advise`]: crate::session::Session::advise
/// [`Service::advise`]: crate::service::Service::advise
pub(crate) fn advise_core<E, F>(
    p: &Program,
    matrix: &str,
    t: &Triplets<f64>,
    formats: &[&str],
    mut compile: F,
) -> Result<Advice, E>
where
    E: From<SynthError>,
    F: FnMut(&BoundProblem, &WorkloadStats) -> Result<Result<CompiledKernel, SynthError>, E>,
{
    let formats = if formats.is_empty() {
        DEFAULT_ADVISOR_FORMATS
    } else {
        formats
    };
    let features = StructureFeatures::of_triplets(t);
    let stats = WorkloadStats::from_features(&[(matrix, &features)]);
    let mut ranked: Vec<AdviceEntry> = Vec::new();
    let mut skipped: Vec<(String, String)> = Vec::new();
    for &format in formats {
        let view = match view_for_features(format, &features) {
            Ok(v) => v,
            Err(e) => {
                skipped.push((format.to_string(), e.to_string()));
                continue;
            }
        };
        // Binding failures (unknown matrix, rank mismatch, invalid
        // program) are properties of the problem, not the candidate:
        // they would repeat for every format, so they abort the advice.
        let bound = bind_problem(p, &[(matrix, view)]).map_err(E::from)?;
        match compile(&bound, &stats)? {
            Ok(kernel) => ranked.push(AdviceEntry {
                format: format.to_string(),
                predicted_cost: kernel.cost(),
                from_cache: kernel.from_cache(),
                kernel,
            }),
            Err(e) => skipped.push((format.to_string(), e.to_string())),
        }
    }
    if ranked.is_empty() {
        return Err(E::from(SynthError::NoLegalPlan {
            reasons: skipped.iter().map(|(f, e)| format!("{f}: {e}")).collect(),
        }));
    }
    ranked.sort_by(|a, b| {
        a.predicted_cost
            .total_cmp(&b.predicted_cost)
            .then_with(|| a.format.cmp(&b.format))
    });
    Ok(Advice {
        matrix: matrix.to_string(),
        features,
        stats,
        ranked,
        skipped,
    })
}
