//! The transport fault layer: seeded drop/duplicate/delay/truncate at the
//! framing layer, so the client's retry/dedup/reorder machinery is itself
//! under test. Faults apply only to `Output` frames — the control half of
//! the protocol (Hello/Ok/Err/Stats) stays reliable, like a management
//! channel beside a lossy data plane.

use meissa_testkit::rng::{RngExt, SeedableRng, StdRng};
use meissa_testkit::wire::write_frame;
use std::io::{self, Write};

/// Fault rates in parts per thousand (integer so the config is exactly
/// reproducible), plus the RNG seed. All-zero rates make the gate a plain
/// pass-through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportFaults {
    /// RNG seed; each connection derives its own stream from this.
    pub seed: u64,
    /// Probability (‰) an `Output` frame is silently discarded.
    pub drop_per_mille: u16,
    /// Probability (‰) an `Output` frame is sent twice.
    pub dup_per_mille: u16,
    /// Probability (‰) an `Output` frame is held back and emitted after a
    /// later frame (reordering).
    pub delay_per_mille: u16,
    /// Probability (‰) an `Output` frame's payload is cut in half — still
    /// well-framed, but the cut binary frame fails to decode.
    pub truncate_per_mille: u16,
}

impl TransportFaults {
    /// All four fault kinds at the same rate.
    pub fn uniform(seed: u64, per_mille: u16) -> Self {
        TransportFaults {
            seed,
            drop_per_mille: per_mille,
            dup_per_mille: per_mille,
            delay_per_mille: per_mille,
            truncate_per_mille: per_mille,
        }
    }
}

/// Per-connection fault injector sitting on the agent's `Output` write
/// path.
pub struct FaultGate {
    rng: StdRng,
    cfg: TransportFaults,
    /// A delayed frame waiting to be emitted after a later one.
    held: Option<Vec<u8>>,
}

impl FaultGate {
    /// A gate for connection number `conn_id`; each connection gets an
    /// independent deterministic stream.
    pub fn new(cfg: TransportFaults, conn_id: u64) -> Self {
        FaultGate {
            rng: StdRng::seed_from_u64(
                cfg.seed ^ conn_id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            cfg,
            held: None,
        }
    }

    fn roll(&mut self, per_mille: u16) -> bool {
        // Always consume one draw so the stream advances identically
        // whatever the configured rates.
        self.rng.random_range(0u64..1000) < per_mille as u64
    }

    /// Sends one frame through the fault gate.
    pub fn send(&mut self, w: &mut impl Write, payload: Vec<u8>) -> io::Result<()> {
        let dropped = self.roll(self.cfg.drop_per_mille);
        let delayed = self.roll(self.cfg.delay_per_mille);
        let truncated = self.roll(self.cfg.truncate_per_mille);
        let duplicated = self.roll(self.cfg.dup_per_mille);
        if dropped {
            return Ok(());
        }
        if delayed && self.held.is_none() {
            self.held = Some(payload);
            return Ok(());
        }
        let out = if truncated {
            payload[..payload.len() / 2].to_vec()
        } else {
            payload
        };
        write_frame(w, &out)?;
        if duplicated {
            write_frame(w, &out)?;
        }
        if let Some(h) = self.held.take() {
            // The delayed frame rides out behind this one: reordering.
            write_frame(w, &h)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_testkit::wire::FrameReader;

    fn collect(wire: &[u8]) -> Vec<Vec<u8>> {
        let mut r = FrameReader::new(wire);
        let mut out = Vec::new();
        while let Ok(f) = r.next_frame() {
            out.push(f.to_vec());
        }
        out
    }

    #[test]
    fn zero_rates_pass_everything_through_in_order() {
        let mut gate = FaultGate::new(TransportFaults::default(), 0);
        let mut wire = Vec::new();
        for i in 0u8..20 {
            gate.send(&mut wire, vec![i; 3]).unwrap();
        }
        let frames = collect(&wire);
        assert_eq!(frames.len(), 20);
        assert_eq!(frames[7], vec![7u8; 3]);
    }

    #[test]
    fn faults_perturb_the_stream_deterministically() {
        let cfg = TransportFaults::uniform(11, 200);
        let run = |conn_id: u64| {
            let mut gate = FaultGate::new(cfg, conn_id);
            let mut wire = Vec::new();
            for i in 0u8..100 {
                gate.send(&mut wire, vec![i; 4]).unwrap();
            }
            collect(&wire)
        };
        let a = run(0);
        // Deterministic: same seed + conn id → identical perturbation.
        assert_eq!(a, run(0));
        // Different connections get different streams.
        assert_ne!(a, run(1));
        // At 20% drop something must go missing, and at 20% dup/delay the
        // count and order must differ from a clean run.
        let sent: usize = 100;
        assert_ne!(a.len(), sent);
        // Truncated frames are half-length.
        assert!(a.iter().any(|f| f.len() == 2), "expected a truncated frame");
    }
}
