//! Integration test: the Table 2 bug matrix, behaviorally verified.
//!
//! For every bug case in the corpus, run the tools that have real
//! implementations and check their verdicts against the paper's row:
//!
//! * Meissa — full engine + test driver against the (possibly faulty)
//!   switch target: must detect all 16.
//! * Aquila-like — source-level verification: must detect exactly the code
//!   bugs it can express (1–5) and none of the non-code bugs.
//! * p4pktgen-like / Gauntlet-like — testing baselines with their
//!   documented feature/scale limits.

use meissa::baselines::{aquila, gauntlet, p4pktgen, pta};
use meissa::core::Meissa;
use meissa::dataplane::SwitchTarget;
use meissa::driver::TestDriver;
use meissa::suite::bugs::{self, BugCase};
use std::time::Duration;

fn meissa_detects(case: &BugCase) -> bool {
    let program = &case.workload.program;
    let mut run = Meissa::new().run(program);
    let driver = TestDriver::new(program);
    let target = SwitchTarget::with_fault(program, case.fault.clone());
    driver.run(&mut run, &target).found_bug()
}

#[test]
fn meissa_detects_every_bug() {
    for case in bugs::all() {
        assert!(
            meissa_detects(&case),
            "bug {} ({}) escaped Meissa",
            case.index,
            case.name
        );
    }
}

#[test]
fn no_false_positives_on_clean_targets() {
    // The same programs with no fault and correct rules must test clean —
    // except the code-bug cases, whose defect is *in* the program.
    for case in bugs::all() {
        if matches!(case.kind, meissa::suite::bugs::BugKind::Code) {
            continue;
        }
        let program = &case.workload.program;
        let mut run = Meissa::new().run(program);
        let driver = TestDriver::new(program);
        let report = driver.run(&mut run, &SwitchTarget::new(program));
        assert_eq!(
            report.failed(),
            0,
            "bug {} program false-positives on a faithful target: {report}",
            case.index
        );
    }
}

#[test]
fn aquila_column_matches_paper() {
    let budget = Some(Duration::from_secs(60));
    for case in bugs::all() {
        let out = aquila::verify(&case.workload.program, budget);
        let expected = case.paper[4];
        assert_eq!(
            out.found_bug(),
            expected,
            "bug {} ({}): aquila-like found_bug={} paper={} (violations: {:?}, deparser: {:?})",
            case.index,
            case.name,
            out.found_bug(),
            expected,
            out.violations,
            out.deparser_omissions,
        );
    }
}

#[test]
fn p4pktgen_column_matches_paper() {
    let budget = Some(Duration::from_secs(60));
    for case in bugs::all() {
        let v = p4pktgen::detect_bug(&case.workload.program, &case.fault, budget);
        assert_eq!(
            v.detected(),
            case.paper[1],
            "bug {} ({}): p4pktgen-like {:?} vs paper {}",
            case.index,
            case.name,
            v,
            case.paper[1]
        );
    }
}

#[test]
fn gauntlet_column_matches_paper() {
    let budget = Some(Duration::from_secs(60));
    for case in bugs::all() {
        let v = gauntlet::detect_bug(&case.workload.program, &case.fault, budget);
        assert_eq!(
            v.detected(),
            case.paper[3],
            "bug {} ({}): gauntlet-like {:?} vs paper {}",
            case.index,
            case.name,
            v,
            case.paper[3]
        );
    }
}

#[test]
fn pta_column_matches_paper() {
    for case in bugs::all() {
        assert_eq!(
            pta::detect_bug(case.index).detected(),
            case.paper[2],
            "bug {}",
            case.index
        );
    }
}
