//! Concrete hash functions for the data plane's `hash(...)` primitive.
//!
//! Per §4 of the paper, hashing is not pushed into the SMT solver. The
//! symbolic executor folds a hash application to a constant when every key
//! is concretely known, and otherwise leaves the output field arbitrary and
//! post-filters generated packets by *this* concrete implementation. The
//! software switch target uses the same functions, so reference and target
//! semantics agree on hash values by construction.

use meissa_num::Bv;
use meissa_testkit::json::{Json, ToJson};

/// Hash algorithms available to P4lite programs (Tofino exposes CRC-family
/// hashes plus an identity/"straight-through" selector).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HashAlg {
    /// CRC-16/ARC (poly 0x8005 reflected).
    Crc16,
    /// CRC-32 (IEEE, reflected).
    Crc32,
    /// Identity: concatenate inputs and truncate. Used by programs that
    /// select ECMP members directly from header bits.
    Identity,
    /// 16-bit one's-complement sum (the Internet checksum), used by the
    /// checksum-update logic the §6 "checksum fail-to-update" case exercises.
    Csum16,
}

impl HashAlg {
    /// Computes the hash of the concatenated big-endian encoding of `keys`,
    /// truncated/zero-extended to `width` bits.
    pub fn compute(self, width: u16, keys: &[Bv]) -> Bv {
        let mut bytes = Vec::new();
        for k in keys {
            bytes.extend_from_slice(&k.to_be_bytes());
        }
        let raw: u128 = match self {
            HashAlg::Crc16 => crc16_arc(&bytes) as u128,
            HashAlg::Crc32 => crc32_ieee(&bytes) as u128,
            HashAlg::Csum16 => csum16(&bytes) as u128,
            HashAlg::Identity => {
                let mut v = 0u128;
                for &b in bytes.iter().rev().take(16).rev() {
                    v = (v << 8) | b as u128;
                }
                v
            }
        };
        Bv::new(width, raw)
    }
}

impl ToJson for HashAlg {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                HashAlg::Crc16 => "Crc16",
                HashAlg::Crc32 => "Crc32",
                HashAlg::Identity => "Identity",
                HashAlg::Csum16 => "Csum16",
            }
            .into(),
        )
    }
}

/// The Internet checksum (RFC 1071): one's-complement sum of 16-bit
/// big-endian words, complemented. Odd trailing bytes are zero-padded.
fn csum16(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// CRC-16/ARC: poly 0x8005, reflected, init 0x0000, xorout 0x0000.
fn crc16_arc(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &b in data {
        crc ^= b as u16;
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0xA001;
            } else {
                crc >>= 1;
            }
        }
    }
    crc
}

/// CRC-32 (IEEE 802.3): poly 0x04C11DB7 reflected, init/xorout 0xFFFFFFFF.
fn crc32_ieee(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0xEDB8_8320;
            } else {
                crc >>= 1;
            }
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csum16_known_vector() {
        // RFC 1071 example: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0xddf2
        // (after carry wrap), checksum = !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(csum16(&data), 0x220d);
    }

    #[test]
    fn csum16_odd_length_pads() {
        assert_eq!(csum16(&[0xab]), !0xab00u16);
    }

    #[test]
    fn csum16_verifies_to_zero() {
        // Appending the checksum to the data makes the sum 0xffff, i.e. a
        // fresh checksum over (data ++ checksum) complement is zero.
        let data = [0x45, 0x00, 0x00, 0x1c, 0x12, 0x34];
        let c = csum16(&data);
        let mut full = data.to_vec();
        full.extend_from_slice(&c.to_be_bytes());
        assert_eq!(csum16(&full), 0);
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/ARC("123456789") = 0xBB3D.
        assert_eq!(crc16_arc(b"123456789"), 0xBB3D);
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32_ieee(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn compute_truncates_to_width() {
        let keys = [Bv::new(32, 0xdeadbeef)];
        let h = HashAlg::Crc32.compute(8, &keys);
        assert_eq!(h.width(), 8);
        let full = HashAlg::Crc32.compute(32, &keys);
        assert_eq!(h.val(), full.val() & 0xff);
    }

    #[test]
    fn identity_hash_passes_bits_through() {
        let keys = [Bv::new(16, 0xabcd)];
        assert_eq!(HashAlg::Identity.compute(16, &keys), Bv::new(16, 0xabcd));
        assert_eq!(HashAlg::Identity.compute(8, &keys), Bv::new(8, 0xcd));
    }

    #[test]
    fn deterministic_across_calls() {
        let keys = [Bv::new(32, 0x0a000001), Bv::new(16, 443)];
        assert_eq!(
            HashAlg::Crc16.compute(16, &keys),
            HashAlg::Crc16.compute(16, &keys)
        );
    }

    #[test]
    fn multiple_keys_concatenate() {
        // hash(a ++ b) must differ from hash(b ++ a) for CRCs in general.
        let a = Bv::new(16, 0x0102);
        let b = Bv::new(16, 0x0304);
        let h1 = HashAlg::Crc16.compute(16, &[a, b]);
        let h2 = HashAlg::Crc16.compute(16, &[b, a]);
        assert_ne!(h1, h2);
    }
}
