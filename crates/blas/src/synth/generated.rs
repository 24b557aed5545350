//! GENERATED by bernoulli-synth — do not edit by hand.
//! Regenerate: BERNOULLI_REGEN=1 cargo test -p bernoulli-blas regen_synth_kernels
#![allow(clippy::all)]
#![allow(unused_parens)]

pub mod mvm_csr_mod {
    use bernoulli_formats::{Csr};
    
    pub fn mvm_csr(m_: i64, n_: i64, a_: &Csr<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for v0 in 0..a_.nrows as i64 {
            let p0_0 = v0 as usize;
            let mut acc__ = *y_.get((v0) as usize)?;
            for p0_1 in *a_.rowptr.get(p0_0)? as usize..*a_.rowptr.get(p0_0 + 1)? as usize {
                let v1 = *a_.colind.get(p0_1)? as i64;
                {
                    let i_ = v0;
                    let _ = i_;
                    let j_ = v1;
                    let _ = j_;
                    acc__ = (acc__ + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                }
            }
            *y_.get_mut((v0) as usize)? = acc__;
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Csr<f64>, x_: &[f64], y_: &mut [f64]) {
        mvm_csr(m_, n_, a_, x_, y_).expect("mvm_csr: an operand index is out of bounds")
    }
}
pub use mvm_csr_mod::or_panic as mvm_csr;

pub mod mvm_csc_mod {
    use bernoulli_formats::{Csc};
    
    pub fn mvm_csc(m_: i64, n_: i64, a_: &Csc<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for v0 in 0..a_.ncols as i64 {
            let p0_0 = v0 as usize;
            for p0_1 in *a_.colptr.get(p0_0)? as usize..*a_.colptr.get(p0_0 + 1)? as usize {
                let v1 = *a_.rowind.get(p0_1)? as i64;
                {
                    let i_ = v1;
                    let _ = i_;
                    let j_ = v0;
                    let _ = j_;
                    *y_.get_mut((i_) as usize)? = (*y_.get((i_) as usize)? + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                }
            }
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Csc<f64>, x_: &[f64], y_: &mut [f64]) {
        mvm_csc(m_, n_, a_, x_, y_).expect("mvm_csc: an operand index is out of bounds")
    }
}
pub use mvm_csc_mod::or_panic as mvm_csc;

pub mod mvm_coo_mod {
    use bernoulli_formats::{Coo};
    
    pub fn mvm_coo(m_: i64, n_: i64, a_: &Coo<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for p0_0 in 0..a_.values.len() {
            let v0 = *a_.rows.get(p0_0)? as i64;
            let v1 = *a_.cols.get(p0_0)? as i64;
            {
                let i_ = v0;
                let _ = i_;
                let j_ = v1;
                let _ = j_;
                *y_.get_mut((i_) as usize)? = (*y_.get((i_) as usize)? + (ix(&a_.values, p0_0) * *x_.get((j_) as usize)?));
            }
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Coo<f64>, x_: &[f64], y_: &mut [f64]) {
        mvm_coo(m_, n_, a_, x_, y_).expect("mvm_coo: an operand index is out of bounds")
    }
}
pub use mvm_coo_mod::or_panic as mvm_coo;

pub mod mvm_dia_mod {
    use bernoulli_formats::{Dia};
    
    pub fn mvm_dia(m_: i64, n_: i64, a_: &Dia<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for p0_0 in 0..a_.diags.len() {
            let v0 = *a_.diags.get(p0_0)?;
            let lo__ = ix(&a_.lo, p0_0);
            let hi__ = ix(&a_.hi, p0_0);
            let base__ = ix(&a_.ptr, p0_0);
            for v1 in lo__..hi__ {
                let p0_1 = base__ as usize + (v1 - lo__) as usize;
                {
                    let i_ = v0 + v1;
                    let _ = i_;
                    let j_ = v1;
                    let _ = j_;
                    *y_.get_mut((i_) as usize)? = (*y_.get((i_) as usize)? + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                }
            }
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Dia<f64>, x_: &[f64], y_: &mut [f64]) {
        mvm_dia(m_, n_, a_, x_, y_).expect("mvm_dia: an operand index is out of bounds")
    }
}
pub use mvm_dia_mod::or_panic as mvm_dia;

pub mod mvm_ell_mod {
    use bernoulli_formats::{Ell};
    
    pub fn mvm_ell(m_: i64, n_: i64, a_: &Ell<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for v0 in 0..a_.nrows as i64 {
            let p0_0 = v0 as usize;
            let mut acc__ = *y_.get((v0) as usize)?;
            let base__ = p0_0 * a_.width;
            for s__ in 0..ix(&a_.rowlen, p0_0) as usize {
                let p0_1 = base__ + s__;
                let v1 = ix(&a_.colind, p0_1);
                {
                    let i_ = v0;
                    let _ = i_;
                    let j_ = v1;
                    let _ = j_;
                    acc__ = (acc__ + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                }
            }
            *y_.get_mut((v0) as usize)? = acc__;
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Ell<f64>, x_: &[f64], y_: &mut [f64]) {
        mvm_ell(m_, n_, a_, x_, y_).expect("mvm_ell: an operand index is out of bounds")
    }
}
pub use mvm_ell_mod::or_panic as mvm_ell;

pub mod mvm_jad_mod {
    use bernoulli_formats::{Jad};
    
    pub fn mvm_jad(m_: i64, n_: i64, a_: &Jad<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for rr__ in 0..a_.nrows {
            let p0_0 = rr__;
            let v0 = *a_.iperm.get(rr__)? as i64;
            let mut acc__ = *y_.get((v0) as usize)?;
            for d__ in 0..*a_.rowlen.get(p0_0)? as usize {
                let p0_1 = *a_.dptr.get(d__)? as usize + p0_0;
                let v1 = *a_.colind.get(p0_1)? as i64;
                {
                    let i_ = v0;
                    let _ = i_;
                    let j_ = v1;
                    let _ = j_;
                    acc__ = (acc__ + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                }
            }
            *y_.get_mut((v0) as usize)? = acc__;
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Jad<f64>, x_: &[f64], y_: &mut [f64]) {
        mvm_jad(m_, n_, a_, x_, y_).expect("mvm_jad: an operand index is out of bounds")
    }
}
pub use mvm_jad_mod::or_panic as mvm_jad;

pub mod ts_csr_mod {
    use bernoulli_formats::{Csr};
    
    pub fn ts_csr(n_: i64, l_: &Csr<f64>, b_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = n_;
        for v0 in 0..l_.nrows as i64 {
            let p0_0 = v0 as usize;
            let p1_0 = p0_0;
            let _ = p1_0;
            let mut acc__ = *b_.get((v0) as usize)?;
            let span__ = *l_.rowptr.get(p0_0)? as usize..*l_.rowptr.get(p0_0 + 1)? as usize;
            if span__.start < span__.end {
                for p0_1 in span__.start..span__.end - 1 {
                    let v1 = *l_.colind.get(p0_1)? as i64;
                    let p1_1 = p0_1;
                    let _ = p1_1;
                    {
                        let j_ = v1;
                        let _ = j_;
                        let i_ = v0;
                        let _ = i_;
                        acc__ = (acc__ - (ix(&l_.values, p1_1) * *b_.get((j_) as usize)?));
                    }
                }
                {
                    let p0_1 = span__.end - 1;
                    let v1 = *l_.colind.get(p0_1)? as i64;
                    let p1_1 = p0_1;
                    let _ = p1_1;
                    {
                        let j_ = v0;
                        let _ = j_;
                        if v1 == v0 {
                            acc__ = (acc__ / ix(&l_.values, p0_1));
                        }
                    }
                    {
                        let j_ = v1;
                        let _ = j_;
                        let i_ = v0;
                        let _ = i_;
                        if v0 > v1 {
                            acc__ = (acc__ - (ix(&l_.values, p1_1) * *b_.get((j_) as usize)?));
                        }
                    }
                }
            }
            *b_.get_mut((v0) as usize)? = acc__;
        }
        Some(())
    }
    pub fn or_panic(n_: i64, l_: &Csr<f64>, b_: &mut [f64]) {
        ts_csr(n_, l_, b_).expect("ts_csr: an operand index is out of bounds")
    }
}
pub use ts_csr_mod::or_panic as ts_csr;

pub mod ts_csc_mod {
    use bernoulli_formats::{Csc};
    
    pub fn ts_csc(n_: i64, l_: &Csc<f64>, b_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = n_;
        for v0 in 0..l_.ncols as i64 {
            let p0_0 = v0 as usize;
            let p1_0 = p0_0;
            let _ = p1_0;
            let span__ = *l_.colptr.get(p0_0)? as usize..*l_.colptr.get(p0_0 + 1)? as usize;
            if span__.start < span__.end {
                {
                    let p0_1 = span__.start;
                    let v1 = *l_.rowind.get(p0_1)? as i64;
                    let p1_1 = p0_1;
                    let _ = p1_1;
                    {
                        let j_ = v0;
                        let _ = j_;
                        if v1 == v0 {
                            *b_.get_mut((j_) as usize)? = (*b_.get((j_) as usize)? / ix(&l_.values, p0_1));
                        }
                    }
                    {
                        let j_ = v0;
                        let _ = j_;
                        let i_ = v1;
                        let _ = i_;
                        if v1 > v0 {
                            *b_.get_mut((i_) as usize)? = (*b_.get((i_) as usize)? - (ix(&l_.values, p1_1) * *b_.get((j_) as usize)?));
                        }
                    }
                }
                if span__.end - span__.start > 1 {
                    let inv0__ = *b_.get((v0) as usize)?;
                    for p0_1 in span__.start + 1..span__.end {
                        let v1 = *l_.rowind.get(p0_1)? as i64;
                        let p1_1 = p0_1;
                        let _ = p1_1;
                        {
                            let j_ = v0;
                            let _ = j_;
                            let i_ = v1;
                            let _ = i_;
                            *b_.get_mut((i_) as usize)? = (*b_.get((i_) as usize)? - (ix(&l_.values, p1_1) * inv0__));
                        }
                    }
                }
            }
        }
        Some(())
    }
    pub fn or_panic(n_: i64, l_: &Csc<f64>, b_: &mut [f64]) {
        ts_csc(n_, l_, b_).expect("ts_csc: an operand index is out of bounds")
    }
}
pub use ts_csc_mod::or_panic as ts_csc;

pub mod ts_jad_mod {
    use bernoulli_formats::{Jad};
    
    pub fn ts_jad(n_: i64, l_: &Jad<f64>, b_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = n_;
        for v0 in (0)..(n_) {
            let key__ = if (v0) >= 0 { l_.iperm_inv.get((v0) as usize).map_or(-1, |&r__| r__ as i64) } else { -1 };
            let (ok0_0, p0_0) = if true { match if (key__) >= 0 && (key__) < l_.nrows as i64 { Some((key__) as usize) } else { None } { Some(p__) => (true, p__), None => (false, 0usize) } } else { (false, 0usize) };
            let _ = (ok0_0, p0_0);
            let (ok1_0, p1_0) = (ok0_0, p0_0);
            let _ = (ok1_0, p1_0);
            let mut acc__ = *b_.get((v0) as usize)?;
            let span__ = 0..*l_.rowlen.get(p0_0)? as usize;
            if span__.start < span__.end {
                for d__ in span__.start..span__.end - 1 {
                    let p0_1 = *l_.dptr.get(d__)? as usize + p0_0;
                    let v1 = *l_.colind.get(p0_1)? as i64;
                    let p1_1 = p0_1;
                    let _ = p1_1;
                    {
                        if ok1_0 {
                            let j_ = v1;
                            let _ = j_;
                            let i_ = v0;
                            let _ = i_;
                            acc__ = (acc__ - (ix(&l_.values, p1_1) * *b_.get((j_) as usize)?));
                        }
                    }
                }
                {
                    let d__ = span__.end - 1;
                    let p0_1 = *l_.dptr.get(d__)? as usize + p0_0;
                    let v1 = *l_.colind.get(p0_1)? as i64;
                    let p1_1 = p0_1;
                    let _ = p1_1;
                    {
                        if ok0_0 {
                            let j_ = v0;
                            let _ = j_;
                            if v1 == v0 {
                                acc__ = (acc__ / ix(&l_.values, p0_1));
                            }
                        }
                    }
                    {
                        if ok1_0 {
                            let j_ = v1;
                            let _ = j_;
                            let i_ = v0;
                            let _ = i_;
                            if v0 > v1 {
                                acc__ = (acc__ - (ix(&l_.values, p1_1) * *b_.get((j_) as usize)?));
                            }
                        }
                    }
                }
            }
            *b_.get_mut((v0) as usize)? = acc__;
        }
        Some(())
    }
    pub fn or_panic(n_: i64, l_: &Jad<f64>, b_: &mut [f64]) {
        ts_jad(n_, l_, b_).expect("ts_jad: an operand index is out of bounds")
    }
}
pub use ts_jad_mod::or_panic as ts_jad;

pub mod ts_dia_mod {
    use bernoulli_formats::{Dia};
    
    pub fn ts_dia(n_: i64, l_: &Dia<f64>, b_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = n_;
        for v0 in (0)..(n_) {
            for p0_0 in 0..l_.diags.len() {
                let v1 = *l_.diags.get(p0_0)?;
                let p1_0 = p0_0;
                let _ = p1_0;
                let (ok0_1, p0_1) = if true { match if (v0) >= *l_.lo.get(p0_0)? && (v0) < *l_.hi.get(p0_0)? { Some(*l_.ptr.get(p0_0)? as usize + ((v0) - *l_.lo.get(p0_0)?) as usize) } else { None } { Some(p__) => (true, p__), None => (false, 0usize) } } else { (false, 0usize) };
                let _ = (ok0_1, p0_1);
                let (ok1_1, p1_1) = (ok0_1, p0_1);
                let _ = (ok1_1, p1_1);
                {
                    if ok0_1 {
                        let j_ = v0;
                        let _ = j_;
                        if v1 == 0 {
                            *b_.get_mut((j_) as usize)? = (*b_.get((j_) as usize)? / ix(&l_.values, p0_1));
                        }
                    }
                }
                {
                    if ok1_1 {
                        let j_ = v0;
                        let _ = j_;
                        let i_ = v1 + v0;
                        let _ = i_;
                        if v1 > 0 && n_ > v1 + v0 {
                            *b_.get_mut((i_) as usize)? = (*b_.get((i_) as usize)? - (ix(&l_.values, p1_1) * *b_.get((j_) as usize)?));
                        }
                    }
                }
            }
        }
        Some(())
    }
    pub fn or_panic(n_: i64, l_: &Dia<f64>, b_: &mut [f64]) {
        ts_dia(n_, l_, b_).expect("ts_dia: an operand index is out of bounds")
    }
}
pub use ts_dia_mod::or_panic as ts_dia;

pub mod ts_sky_mod {
    use bernoulli_formats::{Sky};
    
    pub fn ts_sky(n_: i64, l_: &Sky<f64>, b_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = n_;
        for v0 in 0..l_.n as i64 {
            let p0_0 = v0 as usize;
            let p1_0 = p0_0;
            let _ = p1_0;
            let mut acc__ = *b_.get((v0) as usize)?;
            let span__ = *l_.lo.get(p0_0)? as i64..p0_0 as i64 + 1;
            if span__.start < span__.end {
                for v1 in span__.start..span__.end - 1 {
                    let p0_1 = *l_.ptr.get(p0_0)? as usize + (v1 as usize - *l_.lo.get(p0_0)? as usize);
                    let p1_1 = p0_1;
                    let _ = p1_1;
                    {
                        let j_ = v1;
                        let _ = j_;
                        let i_ = v0;
                        let _ = i_;
                        acc__ = (acc__ - (ix(&l_.values, p1_1) * *b_.get((j_) as usize)?));
                    }
                }
                {
                    let v1 = span__.end - 1;
                    let p0_1 = *l_.ptr.get(p0_0)? as usize + (v1 as usize - *l_.lo.get(p0_0)? as usize);
                    let p1_1 = p0_1;
                    let _ = p1_1;
                    {
                        let j_ = v0;
                        let _ = j_;
                        if v1 == v0 {
                            acc__ = (acc__ / ix(&l_.values, p0_1));
                        }
                    }
                    {
                        let j_ = v1;
                        let _ = j_;
                        let i_ = v0;
                        let _ = i_;
                        if v0 > v1 {
                            acc__ = (acc__ - (ix(&l_.values, p1_1) * *b_.get((j_) as usize)?));
                        }
                    }
                }
            }
            *b_.get_mut((v0) as usize)? = acc__;
        }
        Some(())
    }
    pub fn or_panic(n_: i64, l_: &Sky<f64>, b_: &mut [f64]) {
        ts_sky(n_, l_, b_).expect("ts_sky: an operand index is out of bounds")
    }
}
pub use ts_sky_mod::or_panic as ts_sky;

pub mod mvm_sky_mod {
    use bernoulli_formats::{Sky};
    
    pub fn mvm_sky(m_: i64, n_: i64, a_: &Sky<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for v0 in 0..a_.n as i64 {
            let p0_0 = v0 as usize;
            let mut acc__ = *y_.get((v0) as usize)?;
            for v1 in *a_.lo.get(p0_0)? as i64..p0_0 as i64 + 1 {
                let p0_1 = *a_.ptr.get(p0_0)? as usize + (v1 as usize - *a_.lo.get(p0_0)? as usize);
                {
                    let i_ = v0;
                    let _ = i_;
                    let j_ = v1;
                    let _ = j_;
                    acc__ = (acc__ + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                }
            }
            *y_.get_mut((v0) as usize)? = acc__;
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Sky<f64>, x_: &[f64], y_: &mut [f64]) {
        mvm_sky(m_, n_, a_, x_, y_).expect("mvm_sky: an operand index is out of bounds")
    }
}
pub use mvm_sky_mod::or_panic as mvm_sky;

pub mod mvmt_csr_mod {
    use bernoulli_formats::{Csr};
    
    pub fn mvmt_csr(m_: i64, n_: i64, a_: &Csr<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for v0 in 0..a_.nrows as i64 {
            let p0_0 = v0 as usize;
            for p0_1 in *a_.rowptr.get(p0_0)? as usize..*a_.rowptr.get(p0_0 + 1)? as usize {
                let v1 = *a_.colind.get(p0_1)? as i64;
                {
                    let i_ = v0;
                    let _ = i_;
                    let j_ = v1;
                    let _ = j_;
                    *y_.get_mut((j_) as usize)? = (*y_.get((j_) as usize)? + (ix(&a_.values, p0_1) * *x_.get((i_) as usize)?));
                }
            }
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Csr<f64>, x_: &[f64], y_: &mut [f64]) {
        mvmt_csr(m_, n_, a_, x_, y_).expect("mvmt_csr: an operand index is out of bounds")
    }
}
pub use mvmt_csr_mod::or_panic as mvmt_csr;

pub mod mvmt_csc_mod {
    use bernoulli_formats::{Csc};
    
    pub fn mvmt_csc(m_: i64, n_: i64, a_: &Csc<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for v0 in 0..a_.ncols as i64 {
            let p0_0 = v0 as usize;
            let mut acc__ = *y_.get((v0) as usize)?;
            for p0_1 in *a_.colptr.get(p0_0)? as usize..*a_.colptr.get(p0_0 + 1)? as usize {
                let v1 = *a_.rowind.get(p0_1)? as i64;
                {
                    let i_ = v1;
                    let _ = i_;
                    let j_ = v0;
                    let _ = j_;
                    acc__ = (acc__ + (ix(&a_.values, p0_1) * *x_.get((i_) as usize)?));
                }
            }
            *y_.get_mut((v0) as usize)? = acc__;
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Csc<f64>, x_: &[f64], y_: &mut [f64]) {
        mvmt_csc(m_, n_, a_, x_, y_).expect("mvmt_csc: an operand index is out of bounds")
    }
}
pub use mvmt_csc_mod::or_panic as mvmt_csc;

pub mod mvmt_coo_mod {
    use bernoulli_formats::{Coo};
    
    pub fn mvmt_coo(m_: i64, n_: i64, a_: &Coo<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for p0_0 in 0..a_.values.len() {
            let v0 = *a_.rows.get(p0_0)? as i64;
            let v1 = *a_.cols.get(p0_0)? as i64;
            {
                let i_ = v0;
                let _ = i_;
                let j_ = v1;
                let _ = j_;
                *y_.get_mut((j_) as usize)? = (*y_.get((j_) as usize)? + (ix(&a_.values, p0_0) * *x_.get((i_) as usize)?));
            }
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Coo<f64>, x_: &[f64], y_: &mut [f64]) {
        mvmt_coo(m_, n_, a_, x_, y_).expect("mvmt_coo: an operand index is out of bounds")
    }
}
pub use mvmt_coo_mod::or_panic as mvmt_coo;

pub mod mvm_bsr2x2_mod {
    use bernoulli_formats::{Bsr};
    
    pub fn mvm_bsr2x2(m_: i64, n_: i64, a_: &Bsr<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        let mut r0__ = 0i64;
        let rend__ = a_.nrows as i64;
        while r0__ < rend__ && !(r0__ as usize).is_multiple_of(2) {
            let v0 = r0__;
            let p0_0 = v0 as usize;
            let mut acc__ = *y_.get((v0) as usize)?;
            let br__ = p0_0 / 2;
            let rr__ = p0_0 % 2;
            for b__ in ix(&a_.browptr, br__) as usize..ix(&a_.browptr, br__ + 1) as usize {
                let base__ = (b__ * 2 + rr__) * 2;
                let c0__ = ix(&a_.bcolind, b__) as usize * 2;
                for s__ in 0..2 {
                    let p0_1 = base__ + s__;
                    let v1 = (c0__ + s__) as i64;
                    {
                        let i_ = v0;
                        let _ = i_;
                        let j_ = v1;
                        let _ = j_;
                        acc__ = (acc__ + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                    }
                }
            }
            *y_.get_mut((v0) as usize)? = acc__;
            r0__ += 1;
        }
        while r0__ + 2 <= rend__ {
            let br__ = (r0__ as usize) / 2;
            let v0 = r0__ + 0;
            let mut acc0t__ = *y_.get((v0) as usize)?;
            let v0 = r0__ + 1;
            let mut acc1t__ = *y_.get((v0) as usize)?;
            for b__ in ix(&a_.browptr, br__) as usize..ix(&a_.browptr, br__ + 1) as usize {
                let base__ = b__ * 4;
                let c0__ = ix(&a_.bcolind, b__) as usize * 2;
                for s__ in 0..2 {
                    let v1 = (c0__ + s__) as i64;
                    let _ = v1;
                    let v0 = r0__ + 0;
                    let _ = v0;
                    let p0_1 = base__ + 0 + s__;
                    let _ = p0_1;
                    {
                        let i_ = v0;
                        let _ = i_;
                        let j_ = v1;
                        let _ = j_;
                        acc0t__ = (acc0t__ + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                    }
                    let v0 = r0__ + 1;
                    let _ = v0;
                    let p0_1 = base__ + 2 + s__;
                    let _ = p0_1;
                    {
                        let i_ = v0;
                        let _ = i_;
                        let j_ = v1;
                        let _ = j_;
                        acc1t__ = (acc1t__ + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                    }
                }
            }
            let v0 = r0__ + 0;
            *y_.get_mut((v0) as usize)? = acc0t__;
            let v0 = r0__ + 1;
            *y_.get_mut((v0) as usize)? = acc1t__;
            r0__ += 2;
        }
        while r0__ < rend__ {
            let v0 = r0__;
            let p0_0 = v0 as usize;
            let mut acc__ = *y_.get((v0) as usize)?;
            let br__ = p0_0 / 2;
            let rr__ = p0_0 % 2;
            for b__ in ix(&a_.browptr, br__) as usize..ix(&a_.browptr, br__ + 1) as usize {
                let base__ = (b__ * 2 + rr__) * 2;
                let c0__ = ix(&a_.bcolind, b__) as usize * 2;
                for s__ in 0..2 {
                    let p0_1 = base__ + s__;
                    let v1 = (c0__ + s__) as i64;
                    {
                        let i_ = v0;
                        let _ = i_;
                        let j_ = v1;
                        let _ = j_;
                        acc__ = (acc__ + (ix(&a_.values, p0_1) * *x_.get((j_) as usize)?));
                    }
                }
            }
            *y_.get_mut((v0) as usize)? = acc__;
            r0__ += 1;
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Bsr<f64>, x_: &[f64], y_: &mut [f64]) {
        mvm_bsr2x2(m_, n_, a_, x_, y_).expect("mvm_bsr2x2: an operand index is out of bounds")
    }
}
pub use mvm_bsr2x2_mod::or_panic as mvm_bsr2x2;

pub mod mvmt_bsr2x2_mod {
    use bernoulli_formats::{Bsr};
    
    pub fn mvmt_bsr2x2(m_: i64, n_: i64, a_: &Bsr<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for v0 in 0..a_.nrows as i64 {
            let p0_0 = v0 as usize;
            let br__ = p0_0 / 2;
            let rr__ = p0_0 % 2;
            for b__ in ix(&a_.browptr, br__) as usize..ix(&a_.browptr, br__ + 1) as usize {
                let base__ = (b__ * 2 + rr__) * 2;
                let c0__ = ix(&a_.bcolind, b__) as usize * 2;
                for s__ in 0..2 {
                    let p0_1 = base__ + s__;
                    let v1 = (c0__ + s__) as i64;
                    {
                        let i_ = v0;
                        let _ = i_;
                        let j_ = v1;
                        let _ = j_;
                        *y_.get_mut((j_) as usize)? = (*y_.get((j_) as usize)? + (ix(&a_.values, p0_1) * *x_.get((i_) as usize)?));
                    }
                }
            }
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Bsr<f64>, x_: &[f64], y_: &mut [f64]) {
        mvmt_bsr2x2(m_, n_, a_, x_, y_).expect("mvmt_bsr2x2: an operand index is out of bounds")
    }
}
pub use mvmt_bsr2x2_mod::or_panic as mvmt_bsr2x2;

pub mod mvm_vbr_mod {
    use bernoulli_formats::{Vbr};
    
    pub fn mvm_vbr(m_: i64, n_: i64, a_: &Vbr<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        let mut r0__ = 0i64;
        let rend__ = a_.nrows as i64;
        while r0__ < rend__ {
            let br__ = ix(&a_.rowblk, r0__ as usize) as usize;
            let s0__ = ix(&a_.rpntr, br__) as i64;
            let s1__ = ix(&a_.rpntr, br__ + 1) as i64;
            if r0__ == s0__ && s1__ <= rend__ {
                let h__ = (s1__ - s0__) as usize;
                for b__ in ix(&a_.bpntrb, br__) as usize..ix(&a_.bpntre, br__) as usize {
                    let bc__ = ix(&a_.bindx, b__) as usize;
                    let cj0__ = ix(&a_.cpntr, bc__) as usize;
                    let w__ = ix(&a_.cpntr, bc__ + 1) as usize - cj0__;
                    let bbase__ = ix(&a_.indx, b__) as usize;
                    for k__ in 0..h__ {
                        let v0 = s0__ + k__ as i64;
                        let mut acct__ = *y_.get((v0) as usize)?;
                        for s__ in 0..w__ {
                            let v1 = (cj0__ + s__) as i64;
                            let _ = v1;
                            let p0_1 = bbase__ + k__ * w__ + s__;
                            let _ = p0_1;
                            {
                                let i_ = v0;
                                let _ = i_;
                                let j_ = v1;
                                let _ = j_;
                                acct__ = (acct__ + (ix(&a_.val, p0_1) * *x_.get((j_) as usize)?));
                            }
                        }
                        *y_.get_mut((v0) as usize)? = acct__;
                    }
                }
                r0__ = s1__;
            } else {
                let v0 = r0__;
                let p0_0 = v0 as usize;
                let mut acc__ = *y_.get((v0) as usize)?;
                let br__ = ix(&a_.rowblk, p0_0) as usize;
                let rr__ = p0_0 - ix(&a_.rpntr, br__) as usize;
                for b__ in ix(&a_.bpntrb, br__) as usize..ix(&a_.bpntre, br__) as usize {
                    let bc__ = ix(&a_.bindx, b__) as usize;
                    let cj0__ = ix(&a_.cpntr, bc__) as usize;
                    let w__ = ix(&a_.cpntr, bc__ + 1) as usize - cj0__;
                    let base__ = ix(&a_.indx, b__) as usize + rr__ * w__;
                    for s__ in 0..w__ {
                        let p0_1 = base__ + s__;
                        let v1 = (cj0__ + s__) as i64;
                        {
                            let i_ = v0;
                            let _ = i_;
                            let j_ = v1;
                            let _ = j_;
                            acc__ = (acc__ + (ix(&a_.val, p0_1) * *x_.get((j_) as usize)?));
                        }
                    }
                }
                *y_.get_mut((v0) as usize)? = acc__;
                r0__ += 1;
            }
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Vbr<f64>, x_: &[f64], y_: &mut [f64]) {
        mvm_vbr(m_, n_, a_, x_, y_).expect("mvm_vbr: an operand index is out of bounds")
    }
}
pub use mvm_vbr_mod::or_panic as mvm_vbr;

pub mod mvmt_vbr_mod {
    use bernoulli_formats::{Vbr};
    
    pub fn mvmt_vbr(m_: i64, n_: i64, a_: &Vbr<f64>, x_: &[f64], y_: &mut [f64]) -> Option<()> {
        /// Read of a format-owned array: in bounds by format validity
        /// (debug-checked), branch-free in release so inner loops vectorize.
        #[inline(always)]
        fn ix<T: Copy>(s: &[T], i: usize) -> T {
            debug_assert!(i < s.len());
            unsafe { *s.get_unchecked(i) }
        }
        let _ = m_;
        let _ = n_;
        for v0 in 0..a_.nrows as i64 {
            let p0_0 = v0 as usize;
            let br__ = ix(&a_.rowblk, p0_0) as usize;
            let rr__ = p0_0 - ix(&a_.rpntr, br__) as usize;
            for b__ in ix(&a_.bpntrb, br__) as usize..ix(&a_.bpntre, br__) as usize {
                let bc__ = ix(&a_.bindx, b__) as usize;
                let cj0__ = ix(&a_.cpntr, bc__) as usize;
                let w__ = ix(&a_.cpntr, bc__ + 1) as usize - cj0__;
                let base__ = ix(&a_.indx, b__) as usize + rr__ * w__;
                for s__ in 0..w__ {
                    let p0_1 = base__ + s__;
                    let v1 = (cj0__ + s__) as i64;
                    {
                        let i_ = v0;
                        let _ = i_;
                        let j_ = v1;
                        let _ = j_;
                        *y_.get_mut((j_) as usize)? = (*y_.get((j_) as usize)? + (ix(&a_.val, p0_1) * *x_.get((i_) as usize)?));
                    }
                }
            }
        }
        Some(())
    }
    pub fn or_panic(m_: i64, n_: i64, a_: &Vbr<f64>, x_: &[f64], y_: &mut [f64]) {
        mvmt_vbr(m_, n_, a_, x_, y_).expect("mvmt_vbr: an operand index is out of bounds")
    }
}
pub use mvmt_vbr_mod::or_panic as mvmt_vbr;
