//! Variable and literal types.
//!
//! A [`Var`] is a dense index (`0..n`). A [`Lit`] packs a variable and a sign
//! into a single `u32` (`var << 1 | sign`), the classic MiniSat layout, so that
//! literals can index watch lists directly.

use std::fmt;
use std::ops::Not;

/// A propositional variable, represented as a dense index starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from its dense index.
    #[inline(always)]
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }

    /// Returns the dense index of this variable.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Internally encoded as `var << 1 | sign` where `sign == 1` means the literal
/// is negated. The encoding is exposed through [`Lit::code`] so that arrays can
/// be indexed by literal (e.g. watch lists and phase caches).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Creates a positive literal for `var`.
    #[inline(always)]
    pub fn positive(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// Creates a negative literal for `var`.
    #[inline(always)]
    pub fn negative(var: Var) -> Self {
        Lit(var.0 << 1 | 1)
    }

    /// Creates a literal from a variable and a sign (`true` = negated).
    #[inline(always)]
    pub fn new(var: Var, negated: bool) -> Self {
        Lit(var.0 << 1 | negated as u32)
    }

    /// The variable underlying this literal.
    #[inline(always)]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this literal is negated.
    #[inline(always)]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns `true` if this literal is positive.
    #[inline(always)]
    pub fn is_positive(self) -> bool {
        !self.is_negative()
    }

    /// Dense code of the literal, suitable for indexing (`2 * var + sign`).
    #[inline(always)]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Builds a literal back from its dense [`Lit::code`].
    #[inline(always)]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }

    /// Converts to a DIMACS-style non-zero integer (¬v2 ⇒ `-3`).
    pub fn to_dimacs(self) -> i64 {
        let v = self.var().index() as i64 + 1;
        if self.is_negative() {
            -v
        } else {
            v
        }
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline(always)]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬v{}", self.var().0)
        } else {
            write!(f, "v{}", self.var().0)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// A ternary truth value: true, false, or unassigned.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts a `bool` into the corresponding defined [`LBool`].
    #[inline(always)]
    pub fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Returns `true` if the value is [`LBool::Undef`].
    #[inline(always)]
    pub fn is_undef(self) -> bool {
        matches!(self, LBool::Undef)
    }

    /// Logical negation; `Undef` stays `Undef`.
    #[inline(always)]
    pub fn negate(self) -> Self {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }

    /// Converts to `Option<bool>` (`None` when unassigned).
    #[inline(always)]
    pub fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_round_trips_variable_and_sign() {
        let v = Var::from_index(7);
        let pos = Lit::positive(v);
        let neg = Lit::negative(v);
        assert_eq!(pos.var(), v);
        assert_eq!(neg.var(), v);
        assert!(pos.is_positive());
        assert!(neg.is_negative());
        assert_eq!(!pos, neg);
        assert_eq!(!neg, pos);
        assert_eq!(!(!pos), pos);
    }

    #[test]
    fn literal_codes_are_dense_and_invertible() {
        for idx in 0..64 {
            let v = Var::from_index(idx);
            let pos = Lit::positive(v);
            let neg = Lit::negative(v);
            assert_eq!(pos.code(), 2 * idx);
            assert_eq!(neg.code(), 2 * idx + 1);
            assert_eq!(Lit::from_code(pos.code()), pos);
            assert_eq!(Lit::from_code(neg.code()), neg);
        }
    }

    #[test]
    fn dimacs_conversion_round_trips() {
        for d in [1i64, -1, 2, -2, 17, -42] {
            let lit = Lit::new(Var::from_index(d.unsigned_abs() as usize - 1), d < 0);
            assert_eq!(lit.to_dimacs(), d);
            assert_eq!(lit.to_string(), d.to_string());
        }
    }

    #[test]
    fn lbool_negation_and_conversion() {
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::False.negate(), LBool::True);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::from_bool(false), LBool::False);
        assert_eq!(LBool::True.to_option(), Some(true));
        assert_eq!(LBool::Undef.to_option(), None);
        assert!(LBool::Undef.is_undef());
    }
}
