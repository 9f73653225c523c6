//! Template digest goldens: one FNV-1a digest per gateway workload over
//! everything a template carries — its node path, the `canonical_key` and
//! `display` renderings of its constraints and final values, and its hash
//! obligations (algorithm, width, keys, stand-in). The count goldens
//! elsewhere in the suite pin *how many* templates a run emits; these pin
//! *what* they say, byte for byte, across engine changes. Both renderings
//! are pool-independent, so the digests also hold at every thread count.
//!
//! A digest mismatch means a generated template changed. Re-record only
//! when that change is intended, and say why in the commit.

use meissa_core::{Meissa, MeissaConfig};
use meissa_suite::gw::{gw, GwScale};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain(b"\x1f") {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `(template count, digest)` of one engine run.
fn digest(level: u8, eips: usize, threads: usize) -> (usize, u64) {
    let w = gw(level, GwScale { eips });
    let run = Meissa {
        config: MeissaConfig {
            threads,
            // Disable right-sizing so the multi-thread run really shards
            // the search across workers on any host.
            min_paths_per_worker: 0,
            ..MeissaConfig::default()
        },
    }
    .run(&w.program);
    let pool = &run.pool;
    let term = |h: &mut Fnv, t| {
        h.eat(&pool.canonical_key(t));
        h.eat(&pool.display(t));
    };
    let mut h = Fnv::new();
    for t in &run.templates {
        h.eat("template");
        h.eat(&format!("{:?}", t.path));
        for &c in &t.constraints {
            term(&mut h, c);
        }
        for &(f, v) in &t.final_values {
            h.eat(&format!("{f:?}"));
            term(&mut h, v);
        }
        for o in &t.hash_obligations {
            h.eat(&format!("{:?}/{}", o.alg, o.width));
            for &k in &o.keys {
                term(&mut h, k);
            }
            term(&mut h, o.out);
        }
    }
    (run.templates.len(), h.0)
}

fn assert_digest(level: u8, eips: usize, want: (usize, u64)) {
    for threads in [1, 4] {
        let (n, d) = digest(level, eips, threads);
        assert_eq!(
            (n, d),
            want,
            "gw-{level} ({eips} EIPs) at {threads} threads: got ({n}, {d:#018x})"
        );
    }
}

#[test]
fn gw1_64_eips_templates_match_digest() {
    assert_digest(1, 64, (131, 0x826f_324a_7643_ec02));
}

#[test]
fn gw3_r8_templates_match_digest() {
    assert_digest(3, 8, (253, 0x8b39_1253_2f2c_b626));
}

#[test]
fn gw4_4_eips_templates_match_digest() {
    assert_digest(4, 4, (133, 0x3b2e_3770_9f7e_887e));
}
