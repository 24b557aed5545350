//! Affine index expressions over named variables.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An affine expression `Σ coeff·var + cst` over loop variables and
/// symbolic parameters, both referred to by name.
///
/// Kept in a sorted map so structurally-equal expressions compare equal.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// Non-zero coefficients by variable name.
    terms: BTreeMap<String, i64>,
    /// Constant term.
    cst: i64,
}

impl AffineExpr {
    /// The constant expression.
    pub fn constant(c: i64) -> AffineExpr {
        AffineExpr {
            terms: BTreeMap::new(),
            cst: c,
        }
    }

    /// The single variable `name`.
    pub fn var(name: &str) -> AffineExpr {
        let mut terms = BTreeMap::new();
        terms.insert(name.to_string(), 1);
        AffineExpr { terms, cst: 0 }
    }

    /// Builds from explicit terms (zero coefficients dropped).
    pub fn from_terms(terms: &[(&str, i64)], cst: i64) -> AffineExpr {
        let mut e = AffineExpr::constant(cst);
        for &(v, c) in terms {
            e.add_term(v, c);
        }
        e
    }

    /// Adds `coeff·var` in place.
    pub fn add_term(&mut self, var: &str, coeff: i64) {
        if coeff == 0 {
            return;
        }
        let entry = self.terms.entry(var.to_string()).or_insert(0);
        *entry += coeff;
        if *entry == 0 {
            self.terms.remove(var);
        }
    }

    /// The coefficient of `var` (zero if absent).
    pub fn coeff(&self, var: &str) -> i64 {
        self.terms.get(var).copied().unwrap_or(0)
    }

    /// The constant term.
    pub fn cst(&self) -> i64 {
        self.cst
    }

    /// Sets the constant term.
    pub fn set_cst(&mut self, c: i64) {
        self.cst = c;
    }

    /// Iterates over `(var, coeff)` pairs with non-zero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> {
        self.terms.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Variables appearing with non-zero coefficient.
    pub fn vars(&self) -> Vec<&str> {
        self.terms.keys().map(|s| s.as_str()).collect()
    }

    /// True iff the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// True iff the expression is exactly the single variable `v`.
    pub fn is_var(&self, v: &str) -> bool {
        self.cst == 0 && self.terms.len() == 1 && self.coeff(v) == 1
    }

    /// Resolves every variable to a frame slot through `slot_of`, whose
    /// error (an unbound name) is returned as is.
    pub fn resolve<E>(&self, slot_of: impl FnMut(&str) -> Result<usize, E>) -> Result<SlotExpr, E> {
        SlotExpr::resolve(self.cst, self.terms(), slot_of)
    }

    /// Substitutes `var := repl`, returning the new expression.
    pub fn substitute(&self, var: &str, repl: &AffineExpr) -> AffineExpr {
        let c = self.coeff(var);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(var);
        for (v, rc) in &repl.terms {
            out.add_term(v, c * rc);
        }
        out.cst += c * repl.cst;
        out
    }

    /// Renames every variable through `f`.
    pub fn rename(&self, f: impl Fn(&str) -> String) -> AffineExpr {
        let mut out = AffineExpr::constant(self.cst);
        for (v, c) in &self.terms {
            out.add_term(&f(v), *c);
        }
        out
    }

    /// Converts to a [`bernoulli_polyhedra::LinExpr`] over the variable
    /// order of a polyhedral system.
    ///
    /// # Panics
    /// Panics if some variable is not present in `var_index`.
    pub fn to_linexpr(
        &self,
        nvars: usize,
        var_index: &HashMap<String, usize>,
    ) -> bernoulli_polyhedra::LinExpr {
        use bernoulli_numeric::Rational;
        let mut e = bernoulli_polyhedra::LinExpr::zero(nvars);
        for (v, c) in &self.terms {
            let idx = *var_index
                .get(v)
                .unwrap_or_else(|| panic!("variable {v:?} missing from system"));
            e.coeffs[idx] += Rational::int(*c as i128);
        }
        e.cst = Rational::int(self.cst as i128);
        e
    }
}

/// An affine expression resolved against a frame of integers:
/// `cst + Σ coeff · frame[slot]`. The executors resolve each expression
/// once, before they run, and evaluate this in their loops — no name is
/// looked up per iteration, and an unbound one is the resolver's error
/// instead of a panic.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SlotExpr {
    cst: i64,
    terms: Vec<(usize, i64)>,
}

impl SlotExpr {
    /// Resolves `cst + Σ coeff · atom`: `slot_of` gives an atom's frame
    /// slot, or the error for one that has none.
    pub fn resolve<A, E>(
        cst: i64,
        terms: impl IntoIterator<Item = (A, i64)>,
        mut slot_of: impl FnMut(A) -> Result<usize, E>,
    ) -> Result<SlotExpr, E> {
        let terms = terms
            .into_iter()
            .map(|(a, c)| Ok((slot_of(a)?, c)))
            .collect::<Result<_, E>>()?;
        Ok(SlotExpr { cst, terms })
    }

    /// Evaluates against the frame the expression was resolved for.
    ///
    /// # Panics
    /// Panics if `frame` is shorter than that one.
    #[inline]
    pub fn eval(&self, frame: &[i64]) -> i64 {
        self.terms
            .iter()
            .fold(self.cst, |acc, &(slot, c)| acc + c * frame[slot])
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    c => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else if *c > 0 {
                if *c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}*{v}")?;
                }
            } else if *c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.cst)?;
        } else if self.cst > 0 {
            write!(f, " + {}", self.cst)?;
        } else if self.cst < 0 {
            write!(f, " - {}", -self.cst)?;
        }
        Ok(())
    }
}

impl fmt::Debug for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl Add for &AffineExpr {
    type Output = AffineExpr;
    fn add(self, rhs: &AffineExpr) -> AffineExpr {
        let mut out = self.clone();
        for (v, c) in &rhs.terms {
            out.add_term(v, *c);
        }
        out.cst += rhs.cst;
        out
    }
}

impl Sub for &AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: &AffineExpr) -> AffineExpr {
        let mut out = self.clone();
        for (v, c) in &rhs.terms {
            out.add_term(v, -*c);
        }
        out.cst -= rhs.cst;
        out
    }
}

impl Neg for &AffineExpr {
    type Output = AffineExpr;
    fn neg(self) -> AffineExpr {
        &AffineExpr::constant(0) - self
    }
}

impl Mul<i64> for &AffineExpr {
    type Output = AffineExpr;
    fn mul(self, k: i64) -> AffineExpr {
        let mut out = AffineExpr::constant(self.cst * k);
        for (v, c) in &self.terms {
            out.add_term(v, c * k);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let e = AffineExpr::from_terms(&[("i", 1), ("j", -2)], 3);
        assert_eq!(e.coeff("i"), 1);
        assert_eq!(e.coeff("j"), -2);
        assert_eq!(e.coeff("k"), 0);
        assert_eq!(e.cst(), 3);
        assert!(!e.is_constant());
        assert!(AffineExpr::constant(5).is_constant());
        assert!(AffineExpr::var("i").is_var("i"));
        assert!(!e.is_var("i"));
    }

    #[test]
    fn zero_coefficients_dropped() {
        let mut e = AffineExpr::var("i");
        e.add_term("i", -1);
        assert!(e.is_constant());
        assert_eq!(e.vars().len(), 0);
    }

    #[test]
    fn eval() {
        let e = AffineExpr::from_terms(&[("i", 2), ("N", 1)], -1);
        let slot_of = |v: &str| ["N", "i"].iter().position(|n| *n == v).ok_or(());
        assert_eq!(e.resolve(slot_of).map(|e| e.eval(&[10, 3])), Ok(15));
        let seven = AffineExpr::constant(7).resolve(slot_of);
        assert_eq!(seven.map(|e| e.eval(&[])), Ok(7));
    }

    #[test]
    fn resolve_names_the_unbound_variable() {
        let e = AffineExpr::from_terms(&[("i", 1), ("x", 1)], 0);
        let only_i = |v: &str| if v == "i" { Ok(0) } else { Err(v.to_string()) };
        assert_eq!(e.resolve(only_i), Err("x".to_string()));
    }

    #[test]
    fn arithmetic() {
        let i = AffineExpr::var("i");
        let j = AffineExpr::var("j");
        let e = &(&i + &j) - &(&j * 2);
        assert_eq!(e, AffineExpr::from_terms(&[("i", 1), ("j", -1)], 0));
        assert_eq!(-&e, AffineExpr::from_terms(&[("i", -1), ("j", 1)], 0));
    }

    #[test]
    fn substitution() {
        // (2i + j + 1)[i := j + 3] = 2j + 6 + j + 1 = 3j + 7
        let e = AffineExpr::from_terms(&[("i", 2), ("j", 1)], 1);
        let repl = AffineExpr::from_terms(&[("j", 1)], 3);
        assert_eq!(
            e.substitute("i", &repl),
            AffineExpr::from_terms(&[("j", 3)], 7)
        );
        // substituting an absent var is identity
        assert_eq!(e.substitute("z", &repl), e);
    }

    #[test]
    fn rename() {
        let e = AffineExpr::from_terms(&[("i", 1), ("j", 2)], 0);
        let r = e.rename(|v| format!("{v}@s"));
        assert_eq!(r.coeff("i@s"), 1);
        assert_eq!(r.coeff("j@s"), 2);
    }

    #[test]
    fn display() {
        let e = AffineExpr::from_terms(&[("i", 1), ("j", -2)], 1);
        assert_eq!(e.to_string(), "i - 2*j + 1");
        assert_eq!(AffineExpr::constant(0).to_string(), "0");
        assert_eq!(AffineExpr::constant(-4).to_string(), "-4");
    }

    #[test]
    fn to_linexpr() {
        let mut idx = HashMap::new();
        idx.insert("i".to_string(), 0usize);
        idx.insert("N".to_string(), 1usize);
        let e = AffineExpr::from_terms(&[("i", 2), ("N", -1)], 5);
        let le = e.to_linexpr(2, &idx);
        assert_eq!(le.eval_int(&[3, 10]), bernoulli_numeric::Rational::int(1));
    }
}
