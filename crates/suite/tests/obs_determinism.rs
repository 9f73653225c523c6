//! Observability must be a write-only side channel: the gw-3 gateway
//! workload has to produce byte-identical templates and RunStats whether
//! a `MEISSA_TRACE` sink is attached or not (here driven through the
//! programmatic `obs::trace_to`, which is what the env var resolves to),
//! and at both `MEISSA_THREADS=1` and `=4`. If instrumentation ever
//! perturbs exploration order, solver counters, or template rendering,
//! this test is the tripwire. It also checks that the case planner's
//! `driver.plan.chunk` spans account for every planned case, that the
//! in-process driver's `driver.exec.chunk` spans account for every
//! reported case, and that the driver's verdicts do not move with
//! tracing.

use meissa_core::{Meissa, MeissaConfig};
use meissa_dataplane::{Fault, SwitchTarget};
use meissa_driver::{plan_cases, CaseSpec, TestDriver, TestReport, PLAN_CHUNK};
use meissa_suite::gw::{gw, GwScale};
use meissa_testkit::obs;

/// Renders one run as template strings plus a stats line built only from
/// deterministic counters (wall times excluded). `with_solver` adds the
/// solver/SAT-engine tallies, which are sequence-dependent: they are
/// deterministic at one thread but legitimately vary with work-stealing
/// schedules, so the 4-thread comparison sticks to the exec-level set.
fn render(config: MeissaConfig, with_solver: bool) -> (Vec<String>, String) {
    let w = gw(3, GwScale { eips: 4 });
    let run = Meissa { config }.run(&w.program);
    let templates = run
        .templates
        .iter()
        .map(|t| {
            let path: Vec<String> = t.path.iter().map(|n| format!("{n:?}")).collect();
            let cs: Vec<String> = t
                .constraints
                .iter()
                .map(|&c| run.pool.display(c))
                .collect();
            let fv: Vec<String> = t
                .final_values
                .iter()
                .map(|&(f, v)| format!("{f:?}={}", run.pool.display(v)))
                .collect();
            format!("path={path:?} constraints={cs:?} finals={fv:?}")
        })
        .collect();
    let s = &run.stats;
    let mut stats = format!(
        "valid={} before={} after={} explored={} pruned={} smt={} \
         batched={}/{}",
        s.valid_paths,
        s.paths_before,
        s.paths_after,
        s.paths_explored,
        s.pruned,
        s.smt_checks,
        s.arm_batches,
        s.batched_probes,
    );
    if with_solver {
        stats.push_str(&format!(
            " solver={:?} sat=solves:{},props:{},conflicts:{},decisions:{}",
            s.solver, s.sat.solves, s.sat.propagations, s.sat.conflicts, s.sat.decisions
        ));
    }
    (templates, stats)
}

fn config(threads: usize) -> MeissaConfig {
    MeissaConfig {
        threads,
        // Disable worker right-sizing so threads=4 really forks workers on
        // this (small) workload.
        min_paths_per_worker: 0,
        ..MeissaConfig::default()
    }
}

/// One test fn (not several) because the obs sink is process-global: the
/// off-runs must not race a sibling test's trace_to.
#[test]
fn gw3_output_identical_with_tracing_on_and_off_across_threads() {
    let trace_path = std::env::temp_dir().join(format!(
        "meissa_obs_determinism_{}.jsonl",
        std::process::id()
    ));

    for threads in [1usize, 4] {
        let with_solver = threads == 1;
        obs::trace_off();
        let off = render(config(threads), with_solver);

        obs::trace_to(&trace_path);
        let on = render(config(threads), with_solver);
        let _ = obs::flush_trace();
        obs::trace_off();

        assert_eq!(
            off.1, on.1,
            "RunStats diverge with tracing on at threads={threads}"
        );
        assert_eq!(
            off.0.len(),
            on.0.len(),
            "template count diverges with tracing on at threads={threads}"
        );
        for (i, (a, b)) in off.0.iter().zip(&on.0).enumerate() {
            assert_eq!(
                a, b,
                "template {i} diverges with tracing on at threads={threads}"
            );
        }

        // The traced run must actually have produced a trace — and with
        // right-sizing disabled, the 4-thread run must have forked real
        // workers whose spans survived the join (the park-on-thread-exit
        // handoff in testkit::obs).
        let body = std::fs::read_to_string(&trace_path).expect("trace file written");
        assert!(
            body.lines().any(|l| l.contains("engine.run")),
            "trace at threads={threads} lacks an engine.run span"
        );
        if threads > 1 {
            assert!(
                body.lines().any(|l| l.contains("parallel.worker")),
                "trace at threads={threads} lacks parallel.worker spans"
            );
        }
    }

    // Planning: one `driver.plan.chunk` span per chunk of templates, and
    // the chunks' fields add up to the plan.
    obs::trace_to(&trace_path);
    let w = gw(3, GwScale { eips: 4 });
    let mut run = Meissa { config: config(2) }.run(&w.program);
    let _ = obs::drain();
    let plan = plan_cases(&w.program, &mut run, 1);
    let records = obs::drain();
    obs::trace_off();
    let mut sums = [0u64; 3];
    let mut chunks = 0;
    for r in &records {
        if let obs::Record::Span {
            name: "driver.plan.chunk",
            fields,
            ..
        } = r
        {
            chunks += 1;
            for (i, key) in ["templates", "cases", "skipped"].iter().enumerate() {
                sums[i] += fields.iter().find(|(k, _)| k == key).map_or(0, |&(_, v)| v);
            }
        }
    }
    let skips = plan
        .iter()
        .filter(|c| matches!(c, CaseSpec::Skip { .. }))
        .count() as u64;
    assert_eq!(
        chunks,
        run.templates.len().div_ceil(PLAN_CHUNK),
        "one span per chunk"
    );
    assert_eq!(sums[0], run.templates.len() as u64, "chunk templates");
    assert_eq!(sums[1], plan.len() as u64 - skips, "chunk cases");
    assert_eq!(sums[2], skips, "chunk skips");

    // Execution: one `driver.exec.chunk` span per chunk, whose fields add
    // up to the report, and the same verdicts and traces with tracing on
    // and off. The target drops setValid(vxlan), so some cases fail.
    let target = SwitchTarget::with_fault(
        &w.program,
        Fault::SetValidDropped {
            header: "vxlan".into(),
        },
    );
    let verdicts = |report: &TestReport| -> Vec<String> {
        report
            .cases
            .iter()
            .map(|c| format!("{} {:?} {:?}", c.template_id, c.verdict, c.trace))
            .collect()
    };
    let mut run = Meissa { config: config(2) }.run(&w.program);
    let off = TestDriver::new(&w.program).run(&mut run, &target);
    obs::trace_to(&trace_path);
    let mut run = Meissa { config: config(2) }.run(&w.program);
    let _ = obs::drain();
    let on = TestDriver::new(&w.program).run(&mut run, &target);
    let records = obs::drain();
    obs::trace_off();
    let mut sums = [0u64; 3];
    let mut chunks = 0;
    for r in &records {
        if let obs::Record::Span {
            name: "driver.exec.chunk",
            fields,
            ..
        } = r
        {
            chunks += 1;
            for (i, key) in ["cases", "failed", "skipped"].iter().enumerate() {
                sums[i] += fields.iter().find(|(k, _)| k == key).map_or(0, |&(_, v)| v);
            }
        }
    }
    assert!(on.found_bug(), "the dropped setValid is caught");
    assert_eq!(
        chunks,
        run.templates.len().div_ceil(PLAN_CHUNK),
        "one exec span per chunk"
    );
    assert_eq!(sums[0], on.cases.len() as u64, "exec chunk cases");
    assert_eq!(sums[1], on.failed() as u64, "exec chunk failures");
    assert_eq!(sums[2], on.skipped() as u64, "exec chunk skips");
    assert_eq!(verdicts(&off), verdicts(&on), "verdicts move with tracing");

    let _ = std::fs::remove_file(&trace_path);
}
