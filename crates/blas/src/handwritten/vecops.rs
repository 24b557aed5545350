//! Dense and sparse vector operations, including the two join strategies
//! of the common-enumeration ablation (paper §4.1, ref. \[11\]).

use bernoulli_formats::{HashVec, Scalar, SparseVec};

/// `y += alpha·x`.
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Dense dot product.
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len());
    let mut acc = T::ZERO;
    for (&a, &b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// Euclidean norm.
#[allow(clippy::needless_range_loop)]
pub fn nrm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Sparse·sparse dot product by **merge join** over two sorted vectors.
pub fn spdot_merge<T: Scalar>(x: &SparseVec<T>, y: &SparseVec<T>) -> T {
    let mut acc = T::ZERO;
    let (mut i, mut j) = (0usize, 0usize);
    while i < x.ind.len() && j < y.ind.len() {
        match x.ind[i].cmp(&y.ind[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += x.values[i] * y.values[j];
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Sparse·sparse dot product by **hash join**: enumerate the sorted side,
/// probe the hashed side.
pub fn spdot_hash<T: Scalar>(x: &SparseVec<T>, y: &HashVec<T>) -> T {
    let mut acc = T::ZERO;
    for (k, &i) in x.ind.iter().enumerate() {
        if let Some(&slot) = y.index.get(&(i as usize)) {
            acc += x.values[k] * y.values[slot];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen;

    #[allow(clippy::type_complexity)]
    fn pair() -> (Vec<(usize, f64)>, Vec<(usize, f64)>) {
        (
            gen::sparse_vector(200, 40, 1),
            gen::sparse_vector(200, 60, 2),
        )
    }

    fn dense_dot(a: &[(usize, f64)], b: &[(usize, f64)], n: usize) -> f64 {
        let mut da = vec![0.0; n];
        let mut db = vec![0.0; n];
        for &(i, v) in a {
            da[i] += v;
        }
        for &(i, v) in b {
            db[i] += v;
        }
        dot(&da, &db)
    }

    #[test]
    fn axpy_and_dot() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
        assert_eq!(dot(&x, &x), 14.0);
        assert!((nrm2(&x) - 14.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn merge_join_matches_dense() {
        let (a, b) = pair();
        let x = SparseVec::from_pairs(200, &a);
        let y = SparseVec::from_pairs(200, &b);
        let got = spdot_merge(&x, &y);
        let expect = dense_dot(&a, &b, 200);
        assert!((got - expect).abs() < 1e-10, "{got} vs {expect}");
    }

    #[test]
    fn hash_join_matches_merge() {
        let (a, b) = pair();
        let x = SparseVec::from_pairs(200, &a);
        let ys = SparseVec::from_pairs(200, &b);
        let yh = HashVec::from_pairs(200, &b);
        assert!((spdot_merge(&x, &ys) - spdot_hash(&x, &yh)).abs() < 1e-10);
    }

    #[test]
    fn disjoint_vectors_dot_zero() {
        let x = SparseVec::from_pairs(10, &[(0, 1.0), (2, 2.0)]);
        let y = SparseVec::from_pairs(10, &[(1, 3.0), (3, 4.0)]);
        assert_eq!(spdot_merge(&x, &y), 0.0);
    }
}
