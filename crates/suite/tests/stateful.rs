//! Stateful sequence testing, corpus-level acceptance:
//!
//! * k = 1 must degenerate to the single-packet engine **byte-for-byte**
//!   on the gw-3 goldens — same templates (paths, constraints, final
//!   values) and same `RunStats` — at 1 and 4 threads.
//! * Both stateful example programs' seeded state-dependent bugs are
//!   *missed* at k = 1, *caught* at k = 2, and the in-process and wire
//!   drivers agree verdict-for-verdict.
//! * Sequence exploration is deterministic across thread counts.

use meissa_core::{Meissa, MeissaConfig, RunStats, StatefulRunOutput};
use meissa_dataplane::{Fault, SwitchTarget};
use meissa_driver::{TestDriver, TestReport, Verdict};
use meissa_netdriver::{Agent, WireDriver};
use meissa_suite as suite;
use meissa_suite::gw::{gw, GwScale};

fn engine(k: usize, threads: usize) -> Meissa {
    Meissa {
        config: MeissaConfig {
            k_packets: k,
            threads,
            // Disable worker right-sizing so multi-thread runs exercise the
            // parallel machinery even on small workloads.
            min_paths_per_worker: 0,
            ..MeissaConfig::default()
        },
    }
}

/// Pool-independent canonical rendering of one template, shared by the
/// single-packet and sequence fingerprints (the same scheme as
/// `parallel_determinism.rs`).
fn template_line(
    pool: &meissa_smt::TermPool,
    t: &meissa_core::TestTemplate,
) -> String {
    let path: Vec<String> = t.path.iter().map(|n| format!("{n:?}")).collect();
    let cs: Vec<String> = t
        .constraints
        .iter()
        .map(|&c| format!("{}|{}", pool.canonical_key(c), pool.display(c)))
        .collect();
    let fv: Vec<String> = t
        .final_values
        .iter()
        .map(|&(f, v)| format!("{f:?}={}|{}", pool.canonical_key(v), pool.display(v)))
        .collect();
    format!("path={path:?} constraints={cs:?} finals={fv:?}")
}

/// The partition-independent slice of [`RunStats`]: probe- and path-level
/// counters that must not move between the single-packet and k=1 sequence
/// paths (solver-internal splits are timing-dependent under work stealing,
/// so they are excluded — as in `parallel_determinism.rs`).
fn stats_line(s: &RunStats) -> String {
    format!(
        "checks={} before={} after={} valid={} explored={} pruned={}",
        s.smt_checks,
        s.paths_before,
        s.paths_after,
        s.valid_paths,
        s.paths_explored,
        s.pruned,
    )
}

fn seq_fingerprint(run: &StatefulRunOutput) -> Vec<String> {
    run.sequences
        .iter()
        .map(|s| {
            format!(
                "id={} k={} packet_paths={:?} {}",
                s.id,
                s.k,
                s.packet_paths,
                template_line(&run.pool, &s.template)
            )
        })
        .collect()
}

#[test]
fn k1_sequences_match_single_packet_byte_for_byte_on_gw3() {
    let w = gw(3, GwScale { eips: 8 });
    for threads in [1usize, 4] {
        let single = engine(1, threads).run(&w.program);
        let seq = engine(1, threads).run_sequences(&w.program);
        assert_eq!(seq.k, 1);

        // Golden template count for gw-3/r8 (the bench golden).
        assert_eq!(single.templates.len(), 253, "gw-3 r8 golden drifted");
        assert_eq!(seq.sequences.len(), single.templates.len());

        for (s, t) in seq.sequences.iter().zip(&single.templates) {
            assert_eq!(s.id, t.id);
            assert_eq!(
                s.packet_paths,
                vec![t.path.clone()],
                "k=1 sequence path must be the single-packet path"
            );
            assert_eq!(
                template_line(&seq.pool, &s.template),
                template_line(&single.pool, t),
                "k=1 template {} diverges at {threads} threads",
                t.id
            );
        }
        assert_eq!(
            stats_line(&seq.stats),
            stats_line(&single.stats),
            "k=1 RunStats diverge at {threads} threads"
        );
    }
}

fn verdicts(report: &TestReport) -> Vec<(usize, Verdict)> {
    report
        .cases
        .iter()
        .map(|c| (c.template_id, c.verdict.clone()))
        .collect()
}

/// The shared seeded-bug acceptance check: `fault` is invisible to k=1
/// testing, caught by k=2 sequences, and the wire driver agrees with the
/// in-process driver verdict-for-verdict.
fn assert_seeded_bug_needs_sequences(w: &suite::Workload, fault: Fault) {
    let program = &w.program;
    let driver = TestDriver::new(program);

    // Faithful target: clean at k=2 (no false alarms from sequences).
    let faithful = SwitchTarget::new(program);
    let mut run = engine(2, 1).run_sequences(program);
    assert!(
        !run.sequences.is_empty(),
        "{}: no sequence templates generated",
        w.name
    );
    let report = driver.run_sequences(&mut run, &faithful);
    assert!(
        !report.found_bug(),
        "{}: faithful target failed sequence testing:\n{report}",
        w.name
    );

    // k=1 cannot see the state-dependent fault.
    let buggy = SwitchTarget::with_fault(program, fault.clone());
    let mut run = engine(1, 1).run_sequences(program);
    let report = driver.run_sequences(&mut run, &buggy);
    assert!(
        !report.found_bug(),
        "{}: k=1 unexpectedly caught the seeded bug:\n{report}",
        w.name
    );

    // k=2 catches it in-process…
    let mut run = engine(2, 1).run_sequences(program);
    let in_process = driver.run_sequences(&mut run, &buggy);
    assert!(
        in_process.found_bug(),
        "{}: k=2 missed the seeded bug:\n{in_process}",
        w.name
    );

    // …and over the wire, verdict-for-verdict.
    let agent = Agent::spawn(Some(SwitchTarget::with_fault(program, fault)), None).unwrap();
    let mut run = engine(2, 1).run_sequences(program);
    let wire = WireDriver::new(program, agent.addr())
        .run_sequences(&mut run)
        .unwrap();
    agent.shutdown();
    assert!(wire.found_bug(), "{}: wire driver missed the bug", w.name);
    assert_eq!(
        verdicts(&in_process),
        verdicts(&wire),
        "{}: wire and in-process drivers disagree",
        w.name
    );
}

#[test]
fn firewall_seeded_bug_needs_k2_and_wire_agrees() {
    assert_seeded_bug_needs_sequences(
        &suite::stateful_firewall(),
        Fault::WrongConstant {
            field: "REG:seen-POS:0".into(),
            xor_mask: 1,
        },
    );
}

#[test]
fn token_bucket_seeded_bug_needs_k2_and_wire_agrees() {
    assert_seeded_bug_needs_sequences(
        &suite::token_bucket(),
        Fault::WrongAssignment {
            intended: "REG:used-POS:0".into(),
            actual: "meta.scratch".into(),
        },
    );
}

#[test]
fn sequence_exploration_is_thread_count_invariant() {
    for w in [suite::stateful_firewall(), suite::token_bucket()] {
        for k in [2usize, 3] {
            let baseline = engine(k, 1).run_sequences(&w.program);
            let base_fp = seq_fingerprint(&baseline);
            let base_stats = stats_line(&baseline.stats);
            for threads in [2usize, 4] {
                let got = engine(k, threads).run_sequences(&w.program);
                assert_eq!(
                    base_stats,
                    stats_line(&got.stats),
                    "{} k={k}: stats diverge at {threads} threads",
                    w.name
                );
                assert_eq!(
                    base_fp,
                    seq_fingerprint(&got),
                    "{} k={k}: sequences diverge at {threads} threads",
                    w.name
                );
            }
        }
    }
}
