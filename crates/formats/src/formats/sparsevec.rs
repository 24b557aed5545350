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

use crate::assemble::built;
use crate::layout::{check_index_limit, narrow};
use crate::level::leveled;
use crate::scalar::Scalar;
use crate::{SparseMatrix, Triplets};
use std::collections::HashMap;

/// Sorted sparse vector.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec<T: Scalar = f64> {
    /// Logical length.
    pub n: usize,
    /// Stored indices, strictly increasing.
    pub ind: Vec<u32>,
    /// Stored values.
    pub values: Vec<T>,
}

impl<T: Scalar> SparseVec<T> {
    /// Builds from (index, value) pairs; duplicates are summed.
    ///
    /// # Panics
    /// Panics on an index out of range, and before allocating on a
    /// length or pair count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_pairs(n: usize, pairs: &[(usize, T)]) -> SparseVec<T> {
        built(check_index_limit(n, 1, pairs.len()));
        let mut sorted: Vec<(usize, T)> = pairs.to_vec();
        sorted.sort_by_key(|&(i, _)| i);
        let mut ind = Vec::with_capacity(sorted.len());
        let mut values: Vec<T> = Vec::with_capacity(sorted.len());
        for (i, v) in sorted {
            assert!(i < n, "index {i} out of range");
            let i = narrow(i);
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
        let pairs: Vec<(usize, T)> = t.entries().iter().map(|e| (e.0 as usize, e.2)).collect();
        SparseVec::from_pairs(t.nrows(), &pairs)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Binary search for index `i`; `None` also for one past `u32::MAX`.
    pub fn find(&self, i: usize) -> Option<usize> {
        self.ind.binary_search(&u32::try_from(i).ok()?).ok()
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
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        self.to_triplets().wide_entries()
    }
}

leveled! {
    SparseVec, "spvec";
    dims: n = n;
    arrays: ind = ind: u32, values = values: f64;
    chains: [Level::of(Kind::Coords { len: values, crd: &[ind] }).search()] -> values;
    perm: ;
    /// The sorted sparse-vector view: increasing, binary search.
    view: sparsevec_format_view = "(i): i[sorted] -> v";
}

/// Hash-indexed sparse vector: unordered enumeration, O(1) search.
#[derive(Clone, Debug)]
pub struct HashVec<T: Scalar = f64> {
    /// Logical length.
    pub n: usize,
    /// Stored indices, in insertion order (no order guarantee).
    pub ind: Vec<u32>,
    /// Stored values.
    pub values: Vec<T>,
    /// Index → storage-slot map.
    pub index: HashMap<usize, usize>,
}

impl<T: Scalar> HashVec<T> {
    /// Builds from (index, value) pairs; duplicates are summed.
    ///
    /// # Panics
    /// Panics on an index out of range, and before allocating on a
    /// length or pair count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_pairs(n: usize, pairs: &[(usize, T)]) -> HashVec<T> {
        built(check_index_limit(n, 1, pairs.len()));
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
                    hv.ind.push(narrow(i));
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
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        self.to_triplets().wide_entries()
    }
}

/// How the hashed vector is walked; its `locate` is the one thing no
/// array holds: the `index` map.
pub use hashed::{hashvec_format_view, LEVELS as HASH_LEVELS};

mod hashed {
    use super::{leveled, HashVec};

    leveled! {
        HashVec, "hashvec";
        dims: n = n;
        arrays: ind = ind: u32, values = values: f64;
        chains: [Level::of(Kind::Coords { len: values, crd: &[ind] }).hash("index")] -> values;
        perm: ;
        hash: |m, k| m.index.get(&k).copied();
        /// The hashed sparse-vector view: unordered, hash search.
        view: hashvec_format_view = "(i): i[hash] -> v";
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::view::SearchKind;
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
    #[should_panic(expected = "out of range")]
    fn out_of_range() {
        let _ = SparseVec::from_pairs(3, &[(3, 1.0)]);
    }
}
