//! Fixed-width bitvector values.

use meissa_testkit::json::{Json, ToJson};
use std::fmt;

/// A fixed-width bitvector value, the concrete value domain of the data plane.
///
/// The width is carried with the value so that arithmetic can wrap correctly
/// and so that mixed-width operations are caught early (they panic, because a
/// width mismatch is always a compiler bug in this workspace, never a runtime
/// condition).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bv {
    width: u16,
    val: u128,
}

impl Bv {
    /// Maximum supported width in bits.
    pub const MAX_WIDTH: u16 = 128;

    /// Creates a bitvector, truncating `val` to `width` bits.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`Bv::MAX_WIDTH`].
    pub fn new(width: u16, val: u128) -> Self {
        assert!(
            (1..=Self::MAX_WIDTH).contains(&width),
            "bitvector width {width} out of range 1..=128"
        );
        Bv {
            width,
            val: val & Self::mask(width),
        }
    }

    /// The all-zeros value of the given width.
    pub fn zero(width: u16) -> Self {
        Bv::new(width, 0)
    }

    /// The all-ones value of the given width.
    pub fn ones(width: u16) -> Self {
        Bv::new(width, u128::MAX)
    }

    /// A single-bit boolean bitvector.
    pub fn bool(b: bool) -> Self {
        Bv::new(1, b as u128)
    }

    fn mask(width: u16) -> u128 {
        if width >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        }
    }

    /// Width in bits.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// The underlying unsigned value (already truncated to `width` bits).
    pub fn val(&self) -> u128 {
        self.val
    }

    /// Value of bit `i` (`0` = least significant).
    ///
    /// # Panics
    /// Panics if `i >= width`.
    pub fn bit(&self, i: u16) -> bool {
        assert!(i < self.width, "bit index {i} out of width {}", self.width);
        (self.val >> i) & 1 == 1
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.val == 0
    }

    fn check_same_width(&self, other: &Bv, op: &str) {
        assert!(
            self.width == other.width,
            "width mismatch in {op}: {} vs {}",
            self.width,
            other.width
        );
    }

    /// Wrapping addition modulo `2^width`.
    pub fn add(&self, other: &Bv) -> Bv {
        self.check_same_width(other, "add");
        Bv::new(self.width, self.val.wrapping_add(other.val))
    }

    /// Wrapping subtraction modulo `2^width`.
    pub fn sub(&self, other: &Bv) -> Bv {
        self.check_same_width(other, "sub");
        Bv::new(self.width, self.val.wrapping_sub(other.val))
    }

    /// Bitwise AND.
    pub fn and(&self, other: &Bv) -> Bv {
        self.check_same_width(other, "and");
        Bv::new(self.width, self.val & other.val)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &Bv) -> Bv {
        self.check_same_width(other, "or");
        Bv::new(self.width, self.val | other.val)
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &Bv) -> Bv {
        self.check_same_width(other, "xor");
        Bv::new(self.width, self.val ^ other.val)
    }

    /// Bitwise NOT within the width.
    pub fn not(&self) -> Bv {
        Bv::new(self.width, !self.val)
    }

    /// Logical shift left by a constant amount (shifts ≥ width yield zero).
    pub fn shl(&self, amount: u32) -> Bv {
        if amount as u16 >= self.width {
            Bv::zero(self.width)
        } else {
            Bv::new(self.width, self.val << amount)
        }
    }

    /// Logical shift right by a constant amount (shifts ≥ width yield zero).
    pub fn shr(&self, amount: u32) -> Bv {
        if amount as u16 >= self.width {
            Bv::zero(self.width)
        } else {
            Bv::new(self.width, self.val >> amount)
        }
    }

    /// Unsigned less-than.
    pub fn ult(&self, other: &Bv) -> bool {
        self.check_same_width(other, "ult");
        self.val < other.val
    }

    /// Unsigned greater-than.
    pub fn ugt(&self, other: &Bv) -> bool {
        self.check_same_width(other, "ugt");
        self.val > other.val
    }

    /// Zero-extends or truncates to a new width.
    pub fn resize(&self, width: u16) -> Bv {
        Bv::new(width, self.val)
    }

    /// Extracts bits `[lo, lo+len)` as a new `len`-wide bitvector.
    ///
    /// # Panics
    /// Panics if the range does not fit in the source width.
    pub fn extract(&self, lo: u16, len: u16) -> Bv {
        assert!(
            lo + len <= self.width,
            "extract [{lo}, {}) out of width {}",
            lo + len,
            self.width
        );
        Bv::new(len, self.val >> lo)
    }

    /// Concatenates `self` (high bits) with `low` (low bits).
    pub fn concat(&self, low: &Bv) -> Bv {
        let w = self.width + low.width;
        assert!(w <= Self::MAX_WIDTH, "concat width {w} exceeds 128");
        Bv::new(w, (self.val << low.width) | low.val)
    }

    /// Renders the value as big-endian bytes, zero-padded to ⌈width/8⌉ bytes.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let nbytes = self.width.div_ceil(8) as usize;
        let all = self.val.to_be_bytes();
        all[16 - nbytes..].to_vec()
    }

    /// Parses from big-endian bytes; the byte slice must be exactly
    /// ⌈width/8⌉ long.
    pub fn from_be_bytes(width: u16, bytes: &[u8]) -> Bv {
        let nbytes = width.div_ceil(8) as usize;
        assert_eq!(bytes.len(), nbytes, "byte length mismatch for width {width}");
        let mut val = 0u128;
        for &b in bytes {
            val = (val << 8) | b as u128;
        }
        Bv::new(width, val)
    }
}

impl ToJson for Bv {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("width".into(), Json::UInt(self.width as u128)),
            ("val".into(), Json::UInt(self.val)),
        ])
    }
}

impl fmt::Debug for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'d{}", self.width, self.val)
    }
}

impl fmt::Display for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width.is_multiple_of(4) && self.width > 8 {
            write!(f, "0x{:0>width$x}", self.val, width = (self.width / 4) as usize)
        } else {
            write!(f, "{}", self.val)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_truncates_to_width() {
        let b = Bv::new(8, 0x1ff);
        assert_eq!(b.val(), 0xff);
        assert_eq!(b.width(), 8);
    }

    #[test]
    fn add_wraps() {
        let a = Bv::new(8, 250);
        let b = Bv::new(8, 10);
        assert_eq!(a.add(&b).val(), 4);
    }

    #[test]
    fn sub_wraps() {
        let a = Bv::new(8, 3);
        let b = Bv::new(8, 5);
        assert_eq!(a.sub(&b).val(), 254);
    }

    #[test]
    fn bitwise_ops() {
        let a = Bv::new(4, 0b1100);
        let b = Bv::new(4, 0b1010);
        assert_eq!(a.and(&b).val(), 0b1000);
        assert_eq!(a.or(&b).val(), 0b1110);
        assert_eq!(a.xor(&b).val(), 0b0110);
        assert_eq!(a.not().val(), 0b0011);
    }

    #[test]
    fn shifts_saturate_at_width() {
        let a = Bv::new(8, 0xff);
        assert_eq!(a.shl(4).val(), 0xf0);
        assert_eq!(a.shr(4).val(), 0x0f);
        assert_eq!(a.shl(8).val(), 0);
        assert_eq!(a.shr(100).val(), 0);
    }

    #[test]
    fn full_width_128() {
        let a = Bv::ones(128);
        assert_eq!(a.val(), u128::MAX);
        assert_eq!(a.add(&Bv::new(128, 1)).val(), 0);
    }

    #[test]
    fn bit_indexing() {
        let a = Bv::new(8, 0b0100_0001);
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(a.bit(6));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mixed_width_panics() {
        let _ = Bv::new(8, 1).add(&Bv::new(16, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_panics() {
        let _ = Bv::new(0, 0);
    }

    #[test]
    fn extract_and_concat_roundtrip() {
        let a = Bv::new(16, 0xabcd);
        let hi = a.extract(8, 8);
        let lo = a.extract(0, 8);
        assert_eq!(hi.val(), 0xab);
        assert_eq!(lo.val(), 0xcd);
        assert_eq!(hi.concat(&lo), a);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let a = Bv::new(24, 0x01_02_03);
        assert_eq!(a.to_be_bytes(), vec![1, 2, 3]);
        assert_eq!(Bv::from_be_bytes(24, &[1, 2, 3]), a);
    }

    #[test]
    fn be_bytes_subbyte_width() {
        // A 4-bit field still occupies one byte when rendered standalone.
        let a = Bv::new(4, 0xe);
        assert_eq!(a.to_be_bytes(), vec![0x0e]);
        assert_eq!(Bv::from_be_bytes(4, &[0x0e]), a);
    }

    #[test]
    fn comparisons() {
        assert!(Bv::new(8, 3).ult(&Bv::new(8, 4)));
        assert!(Bv::new(8, 5).ugt(&Bv::new(8, 4)));
        assert!(!Bv::new(8, 4).ult(&Bv::new(8, 4)));
    }

    #[test]
    fn display_hex_for_wide_values() {
        assert_eq!(Bv::new(16, 0x800).to_string(), "0x0800");
        assert_eq!(Bv::new(8, 17).to_string(), "17");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use meissa_testkit::{prop, prop_assert_eq};

    #[test]
    fn add_sub_roundtrips() {
        // Smoke property for the testkit harness: (a + b) - b == a for any
        // width and payloads.
        prop::check(prop::DEFAULT_CASES, |g| {
            let width = g.range(1..=128u16);
            let a = Bv::new(width, g.bits(width));
            let b = Bv::new(width, g.bits(width));
            prop_assert_eq!(a.add(&b).sub(&b), a, "({a:?} + {b:?}) - {b:?} != {a:?}");
            prop_assert_eq!(a.sub(&b).add(&b), a, "({a:?} - {b:?}) + {b:?} != {a:?}");
            Ok(())
        });
    }

    #[test]
    fn add_commutes() {
        prop::check(prop::DEFAULT_CASES, |g| {
            let width = g.range(1..=128u16);
            let a = Bv::new(width, g.bits(width));
            let b = Bv::new(width, g.bits(width));
            prop_assert_eq!(a.add(&b), b.add(&a));
            Ok(())
        });
    }
}
