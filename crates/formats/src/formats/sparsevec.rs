//! Sparse vectors — `i -> v` views used by the common-enumeration (join)
//! experiments.
//!
//! Two variants with the *same* abstract content but different enumeration
//! properties, exactly the situation where the compiler's join-strategy
//! choice matters (paper §4.1, citing the relational formulation of \[11\]):
//!
//! - [`SparseVec`]: indices sorted — increasing enumeration and binary
//!   search; two of these can be combined with a **merge join**;
//! - [`HashVec`]: indices unordered with a hash index — O(1) expected
//!   search; the natural partner of a **hash join**.
//!
//! Vectors are modelled as `n × 1` matrices so they share the
//! [`SparseMatrix`]/[`SparseView`](crate::SparseView) machinery (dense
//! attribute `i`).

use crate::level::leveled;
use crate::scalar::Scalar;
use crate::view::{FormatView, Order, SearchKind, ViewExpr};
use crate::{SparseMatrix, Triplets};
use std::collections::HashMap;

/// Sorted sparse vector.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec<T: Scalar = f64> {
    /// Logical length.
    pub n: usize,
    /// Stored indices, strictly increasing.
    pub ind: Vec<usize>,
    /// Stored values.
    pub values: Vec<T>,
}

impl<T: Scalar> SparseVec<T> {
    /// Builds from (index, value) pairs; duplicates are summed.
    pub fn from_pairs(n: usize, pairs: &[(usize, T)]) -> SparseVec<T> {
        let mut sorted: Vec<(usize, T)> = pairs.to_vec();
        sorted.sort_by_key(|&(i, _)| i);
        let mut ind = Vec::with_capacity(sorted.len());
        let mut values: Vec<T> = Vec::with_capacity(sorted.len());
        for (i, v) in sorted {
            assert!(i < n, "index {i} out of range");
            // `ind` and `values` grow in lock-step, so a duplicate
            // index always has a value to accumulate into.
            if let (Some(&last), Some(acc)) = (ind.last(), values.last_mut()) {
                if last == i {
                    *acc += v;
                    continue;
                }
            }
            ind.push(i);
            values.push(v);
        }
        SparseVec { n, ind, values }
    }

    /// Builds a vector holding the stored entries of column 0 of `t`.
    pub fn from_triplets(t: &Triplets<T>) -> SparseVec<T> {
        let pairs: Vec<(usize, T)> = t.entries().iter().map(|&(r, _, v)| (r, v)).collect();
        SparseVec::from_pairs(t.nrows(), &pairs)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Binary search for index `i`.
    pub fn find(&self, i: usize) -> Option<usize> {
        self.ind.binary_search(&i).ok()
    }
}

impl SparseMatrix for SparseVec<f64> {
    fn nrows(&self) -> usize {
        self.n
    }
    fn ncols(&self) -> usize {
        1
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn get(&self, r: usize, c: usize) -> f64 {
        assert_eq!(c, 0);
        self.find(r).map_or(0.0, |k| self.values[k])
    }
    fn set(&mut self, r: usize, c: usize, v: f64) {
        assert_eq!(c, 0);
        let k = self
            .find(r)
            .unwrap_or_else(|| panic!("index {r} is not stored"));
        self.values[k] = v;
    }
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        self.ind
            .iter()
            .zip(&self.values)
            .map(|(&i, &v)| (i, 0, v))
            .collect()
    }
}

/// The sorted sparse-vector view: `i -> v`, increasing, binary search.
pub fn sparsevec_format_view() -> FormatView {
    FormatView {
        name: "spvec".into(),
        dense_attrs: vec!["i".into()],
        expr: ViewExpr::level("i", Order::Increasing, SearchKind::Sorted, ViewExpr::Value),
        bounds: vec![],
        guarantees: vec![],
    }
}

leveled! {
    SparseVec, "spvec";
    dims: n = n;
    arrays: ind = ind: usize, values = values: f64;
    chains: [Level::of(Kind::Coords { len: values, crd: &[ind] }).find(Args::Key)] -> values;
    perm: ;
    find: "find" => |m, i, _| m.find(i);
    view: |_| sparsevec_format_view();
    // A vector's view has no matrix properties to detect.
    format_view: |_| sparsevec_format_view();
}

/// Hash-indexed sparse vector: unordered enumeration, O(1) search.
#[derive(Clone, Debug)]
pub struct HashVec<T: Scalar = f64> {
    /// Logical length.
    pub n: usize,
    /// Stored indices, in insertion order (no order guarantee).
    pub ind: Vec<usize>,
    /// Stored values.
    pub values: Vec<T>,
    /// Index → storage-slot map.
    pub index: HashMap<usize, usize>,
}

impl<T: Scalar> HashVec<T> {
    /// Builds from (index, value) pairs; duplicates are summed.
    pub fn from_pairs(n: usize, pairs: &[(usize, T)]) -> HashVec<T> {
        let mut hv = HashVec {
            n,
            ind: Vec::new(),
            values: Vec::new(),
            index: HashMap::new(),
        };
        for &(i, v) in pairs {
            assert!(i < n, "index {i} out of range");
            match hv.index.get(&i) {
                Some(&slot) => hv.values[slot] += v,
                None => {
                    hv.index.insert(i, hv.ind.len());
                    hv.ind.push(i);
                    hv.values.push(v);
                }
            }
        }
        hv
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

impl SparseMatrix for HashVec<f64> {
    fn nrows(&self) -> usize {
        self.n
    }
    fn ncols(&self) -> usize {
        1
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn get(&self, r: usize, c: usize) -> f64 {
        assert_eq!(c, 0);
        self.index.get(&r).map_or(0.0, |&k| self.values[k])
    }
    fn set(&mut self, r: usize, c: usize, v: f64) {
        assert_eq!(c, 0);
        let k = *self
            .index
            .get(&r)
            .unwrap_or_else(|| panic!("index {r} is not stored"));
        self.values[k] = v;
    }
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        self.ind
            .iter()
            .zip(&self.values)
            .map(|(&i, &v)| (i, 0, v))
            .collect()
    }
}

/// The hashed sparse-vector view: `i -> v`, unordered, hash search.
pub fn hashvec_format_view() -> FormatView {
    FormatView {
        name: "hashvec".into(),
        dense_attrs: vec!["i".into()],
        expr: ViewExpr::level("i", Order::Unordered, SearchKind::Hash, ViewExpr::Value),
        bounds: vec![],
        guarantees: vec![],
    }
}

/// How the hashed vector is walked; its `locate` is the one thing no
/// array holds: the `index` map.
pub use hashed::LEVELS as HASH_LEVELS;

mod hashed {
    use super::*;

    leveled! {
        HashVec, "hashvec";
        dims: n = n;
        arrays: ind = ind: usize, values = values: f64;
        chains: [Level::of(Kind::Coords { len: values, crd: &[ind] }).hash("index")] -> values;
        perm: ;
        find: "" => |m, i, _| m.index.get(&i).copied();
        view: |_| hashvec_format_view();
        format_view: |_| hashvec_format_view();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::SparseView;

    #[test]
    fn sorted_vector() {
        let v = SparseVec::from_pairs(10, &[(7, 2.0), (1, 1.0), (7, 3.0)]);
        assert_eq!(v.ind, vec![1, 7]);
        assert_eq!(v.values, vec![1.0, 5.0]);
        assert_eq!(v.get(7, 0), 5.0);
        assert_eq!(v.get(2, 0), 0.0);
        check_view_conformance(&v, 0).unwrap();
    }

    #[test]
    fn hashed_vector() {
        let v = HashVec::from_pairs(10, &[(7, 2.0), (1, 1.0), (7, 3.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(7, 0), 5.0);
        assert_eq!(v.get(2, 0), 0.0);
        check_view_conformance(&v, 0).unwrap();
    }

    #[test]
    fn search_kinds() {
        let sv = SparseVec::from_pairs(10, &[(3, 1.0), (6, 2.0)]);
        let hv = HashVec::from_pairs(10, &[(3, 1.0), (6, 2.0)]);
        assert_eq!(
            sv.search(0, 0, 0, &[6]).map(|p| sv.value_at(0, p)),
            Some(2.0)
        );
        assert_eq!(
            hv.search(0, 0, 0, &[6]).map(|p| hv.value_at(0, p)),
            Some(2.0)
        );
        assert_eq!(sv.search(0, 0, 0, &[5]), None);
        assert_eq!(hv.search(0, 0, 0, &[5]), None);
        assert_eq!(
            sv.format_view().alternatives()[0][0].levels[0].search,
            SearchKind::Sorted
        );
        assert_eq!(
            hv.format_view().alternatives()[0][0].levels[0].search,
            SearchKind::Hash
        );
    }

    #[test]
    fn set_values() {
        let mut sv = SparseVec::from_pairs(4, &[(2, 1.0)]);
        sv.set(2, 0, 9.0);
        assert_eq!(sv.get(2, 0), 9.0);
        let mut hv = HashVec::from_pairs(4, &[(2, 1.0)]);
        hv.set(2, 0, 9.0);
        assert_eq!(hv.get(2, 0), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range() {
        let _ = SparseVec::from_pairs(3, &[(3, 1.0)]);
    }
}
