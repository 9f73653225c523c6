//! Minimal arbitrary-precision unsigned integers for path counting.
//!
//! Path counts in Meissa's evaluation reach `10^390` (Fig. 12c). This module
//! implements the handful of operations path counting needs — construction,
//! addition, multiplication, comparison, decimal rendering, and an
//! approximate `log10` for plotting — on a base-`2^32` limb representation.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u32` limbs).
///
/// The representation is normalized: no trailing zero limbs; zero is the
/// empty limb vector.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut out = BigUint {
            limbs: vec![v as u32, (v >> 32) as u32],
        };
        out.normalize();
        out
    }

    /// True if the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u64;
        for i in 0..n {
            let a = *self.limbs.get(i).unwrap_or(&0) as u64;
            let b = *other.limbs.get(i).unwrap_or(&0) as u64;
            let s = a + b + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `self += other`, in place: allocates only when the sum outgrows the
    /// limbs `self` already holds.
    pub fn add_assign(&mut self, other: &BigUint) {
        if self.limbs.len() < other.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0u64;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let b = *other.limbs.get(i).unwrap_or(&0) as u64;
            if b == 0 && carry == 0 && i >= other.limbs.len() {
                break;
            }
            let s = *limb as u64 + b + carry;
            *limb = s as u32;
            carry = s >> 32;
        }
        if carry > 0 {
            self.limbs.push(carry as u32);
        }
    }

    /// `self * other` (schoolbook; path counting multiplies small factors).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `self * small` with a machine-word factor.
    pub fn mul_u64(&self, small: u64) -> BigUint {
        self.mul(&BigUint::from_u64(small))
    }

    /// `base^exp` by repeated squaring.
    pub fn pow(base: &BigUint, mut exp: u32) -> BigUint {
        let mut result = BigUint::one();
        let mut b = base.clone();
        while exp > 0 {
            if exp & 1 == 1 {
                result = result.mul(&b);
            }
            exp >>= 1;
            if exp > 0 {
                b = b.mul(&b);
            }
        }
        result
    }

    /// Divides by a `u32`, returning (quotient, remainder).
    fn divmod_u32(&self, d: u32) -> (BigUint, u32) {
        assert!(d != 0, "division by zero");
        let mut q = vec![0u32; self.limbs.len()];
        let mut rem = 0u64;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | self.limbs[i] as u64;
            q[i] = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        let mut quo = BigUint { limbs: q };
        quo.normalize();
        (quo, rem as u32)
    }

    /// Approximate base-10 logarithm, suitable for plotting path counts on a
    /// log axis. Returns 0.0 for values 0 and 1.
    pub fn log10(&self) -> f64 {
        if self.limbs.is_empty() {
            return 0.0;
        }
        // value ≈ top * 2^(32*(n-1)) where top uses up to 96 high bits.
        let n = self.limbs.len();
        let mut top = 0f64;
        for i in (n.saturating_sub(3)..n).rev() {
            top = top * 4294967296.0 + self.limbs[i] as f64;
        }
        let shift_limbs = n.saturating_sub(3);
        top.log10() + shift_limbs as f64 * 32.0 * std::f64::consts::LOG10_2
    }

    /// Number of decimal digits (1 for the value 0).
    pub fn decimal_digits(&self) -> usize {
        self.to_string().len()
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divmod_u32(1_000_000_000);
            digits.push(r);
            cur = q;
        }
        write!(f, "{}", digits.last().unwrap())?;
        for d in digits.iter().rev().skip(1) {
            write!(f, "{d:09}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::one().to_string(), "1");
        assert_eq!(BigUint::from_u64(u64::MAX).to_string(), "18446744073709551615");
    }

    #[test]
    fn add_with_carry() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::from_u64(1);
        assert_eq!(a.add(&b).to_string(), "18446744073709551616");
    }

    #[test]
    fn add_assign_matches_add() {
        let big = BigUint::pow(&BigUint::from_u64(u64::MAX), 3);
        let vals = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(u32::MAX as u64),
            BigUint::from_u64(u64::MAX),
            big.clone(),
            big.add(&BigUint::one()),
        ];
        for a in &vals {
            for b in &vals {
                let mut c = a.clone();
                c.add_assign(b);
                assert_eq!(c, a.add(b), "{a} + {b}");
            }
        }
    }

    #[test]
    fn mul_small() {
        let a = BigUint::from_u64(123456789);
        let b = BigUint::from_u64(987654321);
        assert_eq!(a.mul(&b).to_string(), "121932631112635269");
    }

    #[test]
    fn pow_of_ten() {
        let ten = BigUint::from_u64(10);
        let p = BigUint::pow(&ten, 50);
        assert_eq!(p.decimal_digits(), 51);
        assert!(p.to_string().starts_with('1'));
        assert!(p.to_string()[1..].bytes().all(|b| b == b'0'));
    }

    #[test]
    fn pow_zero_is_one() {
        assert_eq!(BigUint::pow(&BigUint::from_u64(7), 0), BigUint::one());
    }

    #[test]
    fn log10_matches_digits() {
        // 100^200 = 10^400, the scale of Fig. 12c.
        let p = BigUint::pow(&BigUint::from_u64(100), 200);
        let l = p.log10();
        assert!((l - 400.0).abs() < 0.01, "log10 was {l}");
        assert_eq!(p.decimal_digits(), 401);
    }

    #[test]
    fn log10_small_values() {
        assert_eq!(BigUint::zero().log10(), 0.0);
        assert!((BigUint::from_u64(1000).log10() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ordering() {
        let a = BigUint::pow(&BigUint::from_u64(2), 100);
        let b = BigUint::pow(&BigUint::from_u64(2), 101);
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(b > BigUint::from_u64(u64::MAX));
    }

    #[test]
    fn mul_by_zero() {
        let a = BigUint::pow(&BigUint::from_u64(3), 77);
        assert!(a.mul(&BigUint::zero()).is_zero());
    }

    #[test]
    fn divmod_roundtrip() {
        let a = BigUint::pow(&BigUint::from_u64(7), 30);
        let (q, r) = a.divmod_u32(13);
        assert_eq!(q.mul_u64(13).add(&BigUint::from_u64(r as u64)), a);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use meissa_testkit::{prop, prop_assert_eq};

    #[test]
    fn add_commutes() {
        prop::check(prop::DEFAULT_CASES, |g| {
            let (a, b) = (g.u64(), g.u64());
            let (x, y) = (BigUint::from_u64(a), BigUint::from_u64(b));
            prop_assert_eq!(x.add(&y), y.add(&x));
            Ok(())
        });
    }

    #[test]
    fn mul_matches_u128() {
        prop::check(prop::DEFAULT_CASES, |g| {
            let (a, b) = (g.u64(), g.u64());
            let prod = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
            prop_assert_eq!(prod.to_string(), (a as u128 * b as u128).to_string());
            Ok(())
        });
    }

    #[test]
    fn add_matches_u128() {
        prop::check(prop::DEFAULT_CASES, |g| {
            let (a, b) = (g.u64(), g.u64());
            let sum = BigUint::from_u64(a).add(&BigUint::from_u64(b));
            prop_assert_eq!(sum.to_string(), (a as u128 + b as u128).to_string());
            Ok(())
        });
    }

    #[test]
    fn display_roundtrips_via_digits() {
        prop::check(prop::DEFAULT_CASES, |g| {
            let a = g.u64();
            prop_assert_eq!(BigUint::from_u64(a).to_string(), a.to_string());
            Ok(())
        });
    }

    #[test]
    fn ordering_matches_u64() {
        prop::check(prop::DEFAULT_CASES, |g| {
            let (a, b) = (g.u64(), g.u64());
            prop_assert_eq!(BigUint::from_u64(a).cmp(&BigUint::from_u64(b)), a.cmp(&b));
            Ok(())
        });
    }
}
