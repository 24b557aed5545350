//! Stage 3 of the pipeline: format views bound to the program's
//! matrices, checked against its declarations, and fingerprinted.

use crate::config::ConfigError;
use crate::search::SynthError;
use bernoulli_formats::view::FormatView;
use bernoulli_ir::{ArrayKind, Program};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The fingerprints' hasher: a multiply and a rotate per word, where
/// SipHash spends more on a request the cache holds than everything
/// else the lookup does. Nothing rests on its strength — `==` confirms
/// every match, and values crafted to collide cost their sender the
/// searches that values it never sent before cost as well. Seeded with
/// a fingerprint, it continues that one.
#[derive(Default)]
pub struct Fingerprinter(pub u64);

impl Hasher for Fingerprinter {
    fn write(&mut self, bytes: &[u8]) {
        // Names are a letter or two: no `memcpy` into a word for them.
        for chunk in bytes.chunks(8) {
            let word = chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            self.write_u64(word);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A views slice as binding it resolves it: by name, and of two
/// bindings of one name the later.
pub fn views_by_name<'v>(views: &'v [(&str, FormatView)]) -> Vec<(&'v str, &'v FormatView)> {
    let mut named: Vec<_> = views.iter().rev().map(|(n, v)| (*n, v)).collect();
    // Stable: of equal names the later binding stays first, and stays.
    named.sort_by_key(|&(name, _)| name);
    named.dedup_by_key(|&mut (name, _)| name);
    named
}

/// The structural fingerprint of a bound problem: a hash over the
/// program and the views (listed by [`views_by_name`]), in the order
/// the driver's durable key prints them. The driver's table of bound
/// problems is looked up by it, and a request's fingerprint continues
/// from it.
pub fn problem_fingerprint(p: &Program, views: &[(&str, &FormatView)]) -> u64 {
    let mut h = Fingerprinter::default();
    p.hash(&mut h);
    views.hash(&mut h);
    h.finish()
}

/// Stage-3 validation and the copy a bound problem is made of, shared
/// by a miss of the driver's table of bound problems and the advisor:
/// every bound
/// name must be a declared array, and the view's dense rank must match
/// the array kind (2 for matrices, 1 for vectors). Of two bindings of
/// one name the last is the one bound; both are checked.
pub fn bind_problem(p: &Program, views: &[(&str, FormatView)]) -> Result<BoundProblem, SynthError> {
    p.validate()?;
    for (name, view) in views {
        let decl = p.array(name).ok_or_else(|| SynthError::UnknownMatrix {
            name: name.to_string(),
        })?;
        let need = match decl.kind {
            ArrayKind::Matrix => 2,
            ArrayKind::Vector => 1,
        };
        if view.dense_attrs.len() != need {
            return Err(SynthError::Config(ConfigError(format!(
                "view {:?} for array {name:?} has {} dense attrs, \
                 but the array is declared with {need} dimension(s)",
                view.name,
                view.dense_attrs.len()
            ))));
        }
    }
    let named = views_by_name(views);
    let fingerprint = problem_fingerprint(p, &named);
    let mut bound = BoundProblem {
        fingerprint,
        program: Arc::new(p.clone()),
        views: Arc::new(
            views
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        ),
        reflexive: false,
    };
    // The copy is the input over again: only a `NaN` tells them apart.
    bound.reflexive = bound.is(fingerprint, p, &named);
    Ok(bound)
}

/// A validated (program, format views) pair ready to compile (stage 3
/// output). Binding is cheap; the expensive search happens in
/// [`search`](crate::search::search). The session or service that binds
/// a problem copies its program and views once, at the first bind, and
/// hands the same `Arc`s to every later bind of an equal problem: the
/// binds, the plan-cache entry of its search and every kernel that
/// entry serves share one copy. A problem with a `NaN` constant equals
/// nothing, so each bind of it makes a copy of its own.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundProblem {
    /// The structural fingerprint of the program and the views by name;
    /// a request's fingerprint continues from it.
    fingerprint: u64,
    program: Arc<Program>,
    views: Arc<HashMap<String, FormatView>>,
    /// True iff the problem equals itself (has no `NaN`): only then does
    /// sharing its `Arc`s prove another problem equal to it.
    reflexive: bool,
}

impl BoundProblem {
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub fn reflexive(&self) -> bool {
        self.reflexive
    }

    /// The shared program, for memos that keep it.
    pub fn shared_program(&self) -> &Arc<Program> {
        &self.program
    }

    /// True iff `other` is this very problem: a reflexive problem whose
    /// `Arc`s it shares. Equal problems need not be; `==` decides them.
    pub fn is_shared_with(&self, other: &BoundProblem) -> bool {
        self.reflexive
            && Arc::ptr_eq(&self.program, &other.program)
            && Arc::ptr_eq(&self.views, &other.views)
    }

    /// True iff binding `views` (as [`views_by_name`] lists them) to
    /// `p`, whose [`problem_fingerprint`] is `fingerprint`, makes a
    /// problem `==` to this one.
    pub fn is(&self, fingerprint: u64, p: &Program, views: &[(&str, &FormatView)]) -> bool {
        self.fingerprint == fingerprint
            && *self.program == *p
            && self.views.len() == views.len()
            && views.iter().all(|(n, v)| self.views.get(*n) == Some(*v))
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The bound views by array name.
    pub fn views(&self) -> &HashMap<String, FormatView> {
        &self.views
    }
}
