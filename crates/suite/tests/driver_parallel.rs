//! `TestDriver::run` checks its planned cases on `run.threads` workers.
//! The report must not depend on how many workers there are or which one
//! finishes first: at 1, 2 and 4 workers it lists the same cases in the
//! same order, with the same template ids, verdicts and localization
//! traces. The programs are gw-3/8 against a faithful target and under
//! every backend fault of the Table 2 matrix, plus the 16 bug cases
//! themselves, so failing cases with traces are compared too.

use meissa_core::{Meissa, RunOutput};
use meissa_dataplane::{Fault, SwitchTarget};
use meissa_driver::{TestDriver, TestReport, PLAN_CHUNK};
use meissa_lang::CompiledProgram;
use meissa_suite::bugs;
use meissa_suite::gw::{gw, GwScale};

const WORKERS: [usize; 3] = [1, 2, 4];

/// A copy of `run` whose driver works on `threads` workers, keeping only
/// the first `templates` templates.
fn fork(run: &RunOutput, threads: usize, templates: usize) -> RunOutput {
    RunOutput {
        pool: run.pool.clone(),
        cfg: run.cfg.clone(),
        templates: run.templates.iter().take(templates).cloned().collect(),
        stats: run.stats.clone(),
        threads,
    }
}

/// The report, one line per case: template id, verdict and trace.
fn render(report: &TestReport) -> Vec<String> {
    report
        .cases
        .iter()
        .map(|c| format!("{} {:?} {:?}", c.template_id, c.verdict, c.trace))
        .collect()
}

/// Runs the driver on the first `templates` templates of `run` at every
/// worker count and checks that the reports agree. Returns the report.
fn check(
    label: &str,
    program: &CompiledProgram,
    run: &RunOutput,
    fault: &Fault,
    templates: usize,
) -> TestReport {
    let target = SwitchTarget::with_fault(program, fault.clone());
    let reports: Vec<TestReport> = WORKERS
        .iter()
        .map(|&threads| TestDriver::new(program).run(&mut fork(run, threads, templates), &target))
        .collect();
    let want = render(&reports[0]);
    for (threads, report) in WORKERS.iter().zip(&reports).skip(1) {
        let got = render(report);
        assert_eq!(
            want.len(),
            got.len(),
            "{label}: case count differs at {threads} workers"
        );
        for (i, (a, b)) in want.iter().zip(&got).enumerate() {
            assert_eq!(a, b, "{label}: case {i} differs at {threads} workers");
        }
        assert_eq!(
            reports[0].found_bug(),
            report.found_bug(),
            "{label}: found_bug differs at {threads} workers"
        );
    }
    reports.into_iter().next().unwrap()
}

#[test]
fn gw3_report_is_identical_for_every_worker_count() {
    let w = gw(3, GwScale { eips: 8 });
    let run = Meissa::new().run(&w.program);
    let all = run.templates.len();
    assert!(
        all > 4 * PLAN_CHUNK,
        "enough chunks to share among 4 workers"
    );
    let faithful = check("gw-3/8", &w.program, &run, &Fault::None, all);
    assert!(!faithful.found_bug(), "a faithful target fails no case");
    assert!(faithful.cases.len() > all, "intent cases are planned too");

    let mut faults: Vec<Fault> = Vec::new();
    for fault in bugs::all().into_iter().map(|b| b.fault) {
        if fault != Fault::None && !faults.contains(&fault) {
            faults.push(fault);
        }
    }
    let mut caught = 0;
    for fault in &faults {
        let label = format!("gw-3/8 under {}", fault.name());
        caught += check(&label, &w.program, &run, fault, all).found_bug() as usize;
    }
    assert!(caught > 0, "some matrix fault shows on gw-3/8");
}

#[test]
fn bug_matrix_reports_are_identical_for_every_worker_count() {
    for case in bugs::all() {
        let program = &case.workload.program;
        let run = Meissa::new().run(program);
        let label = format!("bug {} ({})", case.index, case.name);
        let report = check(&label, program, &run, &case.fault, run.templates.len());
        assert!(report.found_bug(), "{label}: Meissa detects the bug");
    }
}

/// Zero templates plan zero units, and a run with fewer chunks, or fewer
/// cases, than workers still reports every case once, in plan order.
#[test]
fn small_runs_report_identically() {
    let w = gw(3, GwScale { eips: 8 });
    let run = Meissa::new().run(&w.program);
    let empty = check("no templates", &w.program, &run, &Fault::None, 0);
    assert!(empty.cases.is_empty());
    let one = check("one template", &w.program, &run, &Fault::None, 1);
    assert!(!one.cases.is_empty() && one.cases.len() < 4);
    let two_chunks = check("two chunks", &w.program, &run, &Fault::None, PLAN_CHUNK + 1);
    assert!(two_chunks.cases.len() > PLAN_CHUNK);
}
