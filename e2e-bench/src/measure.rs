//! Drives one workload from source text to verdicts and collects metric
//! samples, checking every output it produces outside the timed regions.
//!
//! Only the program's public entry points are called, and they are timed
//! from outside. The untraced mode measures the end-to-end metrics; the
//! traced mode wraps the same calls in spans (see [`crate::layers`]).

use crate::inputs::{fuzz_seed, Inputs, Kind, Workload};
use crate::{layers, stats, sys};
use meissa_core::{Meissa, RunOutput};
use meissa_dataplane::{Fault, SwitchTarget};
use meissa_driver::{plan_cases, CaseSpec, Checker, Observation, TestDriver, TestReport, Verdict};
use meissa_lang::{compile, parse_program, parse_rules, CompiledProgram};
use meissa_netdriver::{fetch_stats, hello, Agent, AgentHandle, SoakConfig, WireDriver};
use meissa_testkit::obs;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Engine worker threads, fixed so every host runs the same configuration
/// (the reference host has two cores).
const THREADS: usize = 2;
/// Wire connections of every soak and wire campaign.
const CONNECTIONS: usize = 1;
/// Set-up repetitions before each measured campaign; `setup_s` is the
/// median of all of them.
const SETUPS_PER_CAMPAIGN: usize = 5;
/// Fewest measured units (campaigns or soak rounds) per run, however long
/// each one takes.
const MIN_UNITS: usize = 3;
/// Length of one `soak()` segment. A soak run is many short rounds, so its
/// samples spread over the whole run instead of clustering.
const SEGMENT: Duration = Duration::from_secs(1);

/// Metric name → the samples whose median the run reports.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

pub fn push(samples: &mut Samples, metric: &'static str, value: f64) {
    samples.entry(metric).or_default().push(value);
}

/// Measures one run of `w`: untraced (end-to-end metrics) or, with a trace
/// path, traced (per-layer metrics). `attempted` counts the cases behind
/// the metrics; it keeps its count when a failed check aborts the run.
pub fn measure(
    w: &Workload,
    inp: &Inputs,
    seed: u64,
    seconds: u64,
    trace: Option<&Path>,
    attempted: &mut u64,
) -> Result<Samples, String> {
    let budget = Duration::from_secs(seconds);
    let soak = |fuzz| SoakConfig {
        duration: SEGMENT,
        fuzz,
        seed: fuzz_seed(seed),
    };
    match (w.kind, trace) {
        (Kind::Campaign, None) => campaigns(w, inp, budget, attempted),
        (Kind::Campaign, Some(path)) => traced_campaigns(w, inp, budget, path, attempted),
        (Kind::Soak { fuzz }, None) => soaks(w, inp, soak(fuzz), budget, attempted),
        (Kind::Soak { fuzz }, Some(path)) => {
            traced_soaks(w, inp, soak(fuzz), budget, path, attempted)
        }
    }
}

fn io(e: std::io::Error) -> String {
    format!("wire: {e}")
}

/// Source and rule text → compiled program.
fn build(inp: &Inputs) -> Result<CompiledProgram, String> {
    let (ast, rules) = {
        let _span = obs::span("lang.parse");
        let ast = parse_program(&inp.source).map_err(|e| e.to_string())?;
        (ast, parse_rules(&inp.rules).map_err(|e| e.to_string())?)
    };
    let _span = obs::span("lang.compile");
    compile(&ast, &rules).map_err(|e| e.to_string())
}

/// `Meissa::run` with the benchmark's engine configuration. The span
/// around it also covers the trace flush the engine does before returning
/// when tracing is on.
fn generate(cp: &CompiledProgram) -> RunOutput {
    let _span = obs::span("core.generate");
    let mut engine = Meissa::new();
    engine.config.threads = THREADS;
    engine.run(cp)
}

/// Records on a root span the engine statistics no engine span carries.
fn engine_fields(span: &mut obs::SpanGuard, run: &RunOutput) {
    let st = &run.stats;
    let (entry, kept) = st.summary.as_ref().map_or((0, 0), |s| {
        s.pipelines
            .iter()
            .fold((0, 0), |(e, k), p| (e + p.1, k + p.2))
    });
    span.field("paths_explored", st.paths_explored);
    span.field("pruned", st.pruned);
    span.field("summary_entry_paths", entry);
    span.field("summary_kept_paths", kept);
}

fn wire_driver(cp: &CompiledProgram, addr: SocketAddr) -> WireDriver<'_> {
    WireDriver::new(cp, addr).with_connections(CONNECTIONS)
}

// ---------------------------------------------------------------------------
// Correctness gate: every check runs outside the timed regions.
// ---------------------------------------------------------------------------

fn check_run(w: &Workload, run: &RunOutput) -> Result<(), String> {
    let got = (
        run.templates.len(),
        run.stats.rules_hit,
        run.stats.rules_total,
    );
    let golden = (w.golden.templates, w.golden.rules_hit, w.golden.rules_total);
    if got != golden {
        return Err(format!(
            "templates/rules_hit/rules_total {got:?}, golden {golden:?}"
        ));
    }
    Ok(())
}

fn check_report(w: &Workload, report: &TestReport) -> Result<(), String> {
    let executed = report.cases.len() - report.skipped();
    if report.failed() > 0 {
        return Err(format!(
            "{} of {executed} cases failed on a faithful target:\n{report}",
            report.failed()
        ));
    }
    if executed != w.golden.cases {
        return Err(format!(
            "{executed} cases executed, golden {}",
            w.golden.cases
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Campaign workloads
// ---------------------------------------------------------------------------

struct Campaign {
    report: TestReport,
    verdict: Duration,
    gen: Duration,
    cpu: f64,
}

/// Source text to a complete `TestReport`, in-process, against a target
/// built with `fault`.
fn campaign(w: &Workload, inp: &Inputs, fault: Fault) -> Result<Campaign, String> {
    let cpu0 = sys::cpu_seconds()?;
    let t0 = Instant::now();
    let cp = build(inp)?;
    let g0 = Instant::now();
    let mut run = generate(&cp);
    let gen = g0.elapsed();
    let report = TestDriver::new(&cp).run(&mut run, &SwitchTarget::with_fault(&cp, fault));
    let verdict = t0.elapsed();
    let cpu = sys::cpu_seconds()? - cpu0;
    check_run(w, &run)?;
    Ok(Campaign {
        report,
        verdict,
        gen,
        cpu,
    })
}

fn faithful_campaign(w: &Workload, inp: &Inputs) -> Result<Campaign, String> {
    let c = campaign(w, inp, Fault::None)?;
    check_report(w, &c.report)?;
    Ok(c)
}

/// The unmeasured warm-up campaign, run against a backend that drops
/// `setValid(vxlan)`, which every gateway's encapsulation path exercises.
/// The checker must catch it; otherwise a clean report proves nothing.
fn liveness_campaign(w: &Workload, inp: &Inputs) -> Result<(), String> {
    let fault = Fault::SetValidDropped {
        header: "vxlan".into(),
    };
    if !campaign(w, inp, fault)?.report.found_bug() {
        return Err("the checker passed a target that drops setValid(vxlan)".into());
    }
    Ok(())
}

/// Runs `unit` until one more run (predicted to last as long as the
/// previous one) would overrun `budget`, but at least [`MIN_UNITS`] times.
fn closed_loop(
    budget: Duration,
    mut unit: impl FnMut() -> Result<Duration, String>,
) -> Result<(), String> {
    let started = Instant::now();
    let (mut n, mut last) = (0, Duration::ZERO);
    while n < MIN_UNITS || started.elapsed() + last <= budget {
        last = unit()?;
        n += 1;
    }
    Ok(())
}

fn campaigns(
    w: &Workload,
    inp: &Inputs,
    budget: Duration,
    attempted: &mut u64,
) -> Result<Samples, String> {
    let mut s = Samples::new();
    liveness_campaign(w, inp)?;
    closed_loop(budget, || {
        let t0 = Instant::now();
        // Set-up takes milliseconds. Repeated before every campaign, its
        // samples spread over the run like the campaigns' do, instead of
        // catching the host at one instant.
        for _ in 0..SETUPS_PER_CAMPAIGN {
            let t = Instant::now();
            let cp = build(inp)?;
            std::hint::black_box(SwitchTarget::new(&cp));
            push(&mut s, "setup_s", t.elapsed().as_secs_f64());
        }
        let c = faithful_campaign(w, inp)?;
        *attempted += (c.report.cases.len() - c.report.skipped()) as u64;
        push(&mut s, "gen_s", c.gen.as_secs_f64());
        push(&mut s, "verdict_s", c.verdict.as_secs_f64());
        push(&mut s, "cpu_s", c.cpu);
        push(
            &mut s,
            "cases_per_s",
            c.report.cases_per_sec().unwrap_or(0.0),
        );
        Ok(t0.elapsed())
    })?;
    push(&mut s, "peak_rss_mb", sys::peak_rss_mb()?);
    Ok(s)
}

/// Verdict tally of one pass: (passed, failed, skipped).
type Verdicts = (usize, usize, usize);

/// Plans and checks every case in-process through the lower-level calls
/// `TestDriver::run` makes, summing each layer's time over the cases and
/// recording one span per layer with a `calls` field, which keeps the
/// trace small. Returns the tally and the sorted per-case inject → verdict
/// latencies in nanoseconds.
fn replay_in_process(cp: &CompiledProgram, run: &mut RunOutput) -> (Verdicts, Vec<u64>) {
    let plan = {
        let mut span = obs::span("driver.plan");
        let plan = plan_cases(cp, run, 1);
        span.field("cases", plan.len() as u64);
        plan
    };
    let (reference, target, checker) = {
        let _span = obs::span("dataplane.target_new");
        (
            SwitchTarget::new(cp),
            SwitchTarget::new(cp),
            Checker::new(cp),
        )
    };
    const LAYERS: [&str; 4] = [
        "dataplane.serialize",
        "dataplane.ref_inject",
        "dataplane.target_inject",
        "driver.check",
    ];
    let mut spent = [Duration::ZERO; 4];
    let mut calls = [0u64; 4];
    let mut latencies = Vec::with_capacity(plan.len());
    let (mut passed, mut failed, mut skipped) = (0, 0, 0);
    let start = obs::now_ns();
    for spec in plan {
        let CaseSpec::Case {
            template_id,
            wire_id,
            input,
        } = spec
        else {
            skipped += 1;
            continue;
        };
        let t0 = Instant::now();
        let packet = reference
            .plan()
            .serialize_state(&cp.cfg.fields, &input, wire_id);
        let t1 = Instant::now();
        spent[0] += t1 - t0;
        calls[0] += 1;
        let Ok(packet) = packet else {
            skipped += 1;
            continue;
        };
        let expected = reference.inject(&packet);
        let t2 = Instant::now();
        let actual: Observation = target.inject(&packet).into();
        let t3 = Instant::now();
        let result = checker.check_case(template_id, &input, &packet, &expected, &actual);
        let t4 = Instant::now();
        for (i, d) in [t2 - t1, t3 - t2, t4 - t3].into_iter().enumerate() {
            spent[i + 1] += d;
            calls[i + 1] += 1;
        }
        latencies.push((t4 - t2).as_nanos() as u64);
        match result.verdict {
            Verdict::Pass => passed += 1,
            Verdict::Skipped { .. } => skipped += 1,
            Verdict::OutputMismatch { .. } | Verdict::IntentViolation { .. } => failed += 1,
        }
    }
    for (i, name) in LAYERS.into_iter().enumerate() {
        obs::span_closed(
            name,
            start,
            spent[i].as_nanos() as u64,
            &[("calls", calls[i])],
        );
    }
    latencies.sort_unstable();
    ((passed, failed, skipped), latencies)
}

fn traced_campaigns(
    w: &Workload,
    inp: &Inputs,
    budget: Duration,
    path: &Path,
    attempted: &mut u64,
) -> Result<Samples, String> {
    liveness_campaign(w, inp)?;
    obs::trace_to(path);
    let (mut walls, mut tallies) = (Vec::new(), Vec::new());
    closed_loop(budget, || {
        let cpu0 = sys::cpu_seconds()?;
        let t0 = Instant::now();
        let mut root = obs::span("e2e.campaign");
        let cp = build(inp)?;
        let mut run = generate(&cp);
        let (verdicts, latencies) = replay_in_process(&cp, &mut run);
        let wall = t0.elapsed();
        root.field("cpu_us", ((sys::cpu_seconds()? - cpu0) * 1e6) as u64);
        if !latencies.is_empty() {
            let at = |p| latencies[obs::percentile_index(latencies.len(), p)];
            root.field("case_p50_ns", at(50));
            root.field("case_p99_ns", at(99));
        }
        root.field("skipped", verdicts.2 as u64);
        engine_fields(&mut root, &run);
        drop(root);
        check_run(w, &run)?;
        *attempted += (verdicts.0 + verdicts.1) as u64;
        tallies.push(verdicts);
        walls.push(wall.as_secs_f64());
        Ok(wall)
    })?;
    obs::flush_trace().map_err(|e| format!("trace flush: {e}"))?;
    obs::trace_off();
    // The untraced reference runs after tracing stops, so both sides run in
    // a warm process: the tally every traced pass must reproduce, and the
    // wall time the tracing overhead is measured against.
    let mut untraced = Vec::new();
    for _ in 0..MIN_UNITS {
        let c = faithful_campaign(w, inp)?;
        let r = &c.report;
        let expected: Verdicts = (r.passed(), r.failed(), r.skipped());
        if let Some(t) = tallies.iter().find(|&&t| t != expected) {
            return Err(format!(
                "traced tally {t:?} differs from TestDriver::run's {expected:?}"
            ));
        }
        untraced.push(c.verdict.as_secs_f64());
    }
    let mut s = layers::analyze(path)?;
    push(
        &mut s,
        "trace.overhead",
        stats::median(&walls) / stats::median(&untraced) - 1.0,
    );
    Ok(s)
}

// ---------------------------------------------------------------------------
// Soak workloads
// ---------------------------------------------------------------------------

/// A compiled program, its engine output and the loopback agent hosting it.
struct Rig {
    cp: CompiledProgram,
    run: RunOutput,
    agent: AgentHandle,
    /// Source text to a generated program served by the agent.
    ready: Duration,
    /// Source text to the first planned case.
    setup: Duration,
    gen: Duration,
}

/// Source text to the first replayable case: parse, compile, agent spawn
/// and connect, `Meissa::run`, first plan.
fn soak_setup(w: &Workload, inp: &Inputs) -> Result<Rig, String> {
    let mut root = obs::span("e2e.setup");
    let t0 = Instant::now();
    let cp = build(inp)?;
    let agent = {
        let _span = obs::span("netdriver.spawn");
        let agent = Agent::spawn(Some(SwitchTarget::new(&cp)), None).map_err(io)?;
        hello(agent.addr()).map_err(io)?;
        agent
    };
    let g0 = Instant::now();
    let mut run = generate(&cp);
    let gen = g0.elapsed();
    let ready = t0.elapsed();
    let plan = {
        let mut span = obs::span("driver.plan");
        let plan = plan_cases(&cp, &mut run, 1);
        span.field("cases", plan.len() as u64);
        plan
    };
    let setup = t0.elapsed();
    let skipped = plan
        .iter()
        .filter(|c| matches!(c, CaseSpec::Skip { .. }))
        .count();
    root.field("skipped", skipped as u64);
    engine_fields(&mut root, &run);
    drop(root);
    check_run(w, &run)?;
    Ok(Rig {
        cp,
        run,
        agent,
        ready,
        setup,
        gen,
    })
}

struct Segment {
    cases_per_s: f64,
    cpu: f64,
    cases: u64,
}

/// One `soak()` call; checks that nothing diverged and that the agent
/// injected exactly the replayed cases (plus retransmissions, if any).
fn segment(rig: &mut Rig, cfg: SoakConfig) -> Result<Segment, String> {
    let addr = rig.agent.addr();
    let injected0 = fetch_stats(addr).map_err(io)?.0;
    let cpu0 = sys::cpu_seconds()?;
    let mut root = obs::span("e2e.segment");
    let stats = {
        // Like `core.generate`, this span also covers the trace flush
        // `soak()` does before returning.
        let _span = obs::span("netdriver.soak");
        wire_driver(&rig.cp, addr)
            .soak(&mut rig.run, cfg)
            .map_err(io)?
    };
    let cpu = sys::cpu_seconds()? - cpu0;
    let injected = fetch_stats(addr).map_err(io)?.0 - injected0;
    root.field("cpu_us", (cpu * 1e6) as u64);
    root.field("cases", stats.cases);
    root.field("retried", stats.retried);
    root.field("injected", injected);
    drop(root);
    if stats.divergent > 0 {
        return Err(format!(
            "{} of {} soak cases diverged: {:?}",
            stats.divergent, stats.cases, stats.classes
        ));
    }
    if injected < stats.cases || (stats.retried == 0 && injected != stats.cases) {
        return Err(format!(
            "agent injected {injected} packets for {} soak cases",
            stats.cases
        ));
    }
    Ok(Segment {
        cases_per_s: stats.cases_per_sec().unwrap_or(0.0),
        cpu,
        cases: stats.cases,
    })
}

struct Round {
    rig: Rig,
    verdict: Duration,
    segment: Segment,
}

/// One soak round: a fresh set-up, then (untraced only) a full wire
/// campaign, which gives `verdict_s`, then one `soak()` segment on the same
/// agent.
fn round(
    w: &Workload,
    inp: &Inputs,
    cfg: SoakConfig,
    wire_campaign: bool,
) -> Result<Round, String> {
    let mut rig = soak_setup(w, inp)?;
    // Source text to a complete wire `TestReport`: the set-up up to its
    // plan, then a full `WireDriver::run`, which plans for itself.
    let mut verdict = Duration::ZERO;
    if wire_campaign {
        let t0 = Instant::now();
        let report = wire_driver(&rig.cp, rig.agent.addr())
            .run(&mut rig.run)
            .map_err(io)?;
        verdict = rig.ready + t0.elapsed();
        check_report(w, &report)?;
    }
    let segment = segment(&mut rig, cfg)?;
    Ok(Round {
        rig,
        verdict,
        segment,
    })
}

fn soaks(
    w: &Workload,
    inp: &Inputs,
    cfg: SoakConfig,
    budget: Duration,
    attempted: &mut u64,
) -> Result<Samples, String> {
    let mut s = Samples::new();
    // The first round runs in a cold process and is not measured.
    round(w, inp, cfg, true)?.rig.agent.shutdown();
    closed_loop(budget, || {
        let t0 = Instant::now();
        let r = round(w, inp, cfg, true)?;
        r.rig.agent.shutdown();
        *attempted += r.segment.cases;
        push(&mut s, "setup_s", r.rig.setup.as_secs_f64());
        push(&mut s, "gen_s", r.rig.gen.as_secs_f64());
        push(&mut s, "verdict_s", r.verdict.as_secs_f64());
        push(&mut s, "cases_per_s", r.segment.cases_per_s);
        push(&mut s, "cpu_s", r.segment.cpu);
        Ok(t0.elapsed())
    })?;
    push(&mut s, "peak_rss_mb", sys::peak_rss_mb()?);
    Ok(s)
}

fn traced_soaks(
    w: &Workload,
    inp: &Inputs,
    cfg: SoakConfig,
    budget: Duration,
    path: &Path,
    attempted: &mut u64,
) -> Result<Samples, String> {
    // One cold round, so tracing starts in a warm process.
    round(w, inp, cfg, false)?.rig.agent.shutdown();
    obs::trace_to(path);
    let mut rates = Vec::new();
    let mut last: Option<Rig> = None;
    closed_loop(budget, || {
        let t0 = Instant::now();
        let r = round(w, inp, cfg, false)?;
        *attempted += r.segment.cases;
        rates.push(r.segment.cases_per_s);
        if let Some(old) = last.replace(r.rig) {
            old.agent.shutdown();
        }
        Ok(t0.elapsed())
    })?;
    let mut rig = last.expect("at least one round");
    // The serialize / inject / check costs of the soak's case mix, which
    // the benchmark cannot time inside `soak()`: one in-process pass over
    // the planned cases.
    let (verdicts, _) = {
        let _root = obs::span("e2e.calibrate");
        replay_in_process(&rig.cp, &mut rig.run)
    };
    rig.agent.shutdown();
    if verdicts.1 > 0 {
        return Err(format!(
            "{} of the soak's planned cases failed in-process",
            verdicts.1
        ));
    }
    obs::flush_trace().map_err(|e| format!("trace flush: {e}"))?;
    obs::trace_off();
    // The untraced reference throughput for the tracing overhead.
    let mut untraced = Vec::new();
    for _ in 0..MIN_UNITS {
        let r = round(w, inp, cfg, false)?;
        r.rig.agent.shutdown();
        untraced.push(r.segment.cases_per_s);
    }
    let mut s = layers::analyze(path)?;
    push(
        &mut s,
        "trace.overhead",
        stats::median(&untraced) / stats::median(&rates) - 1.0,
    );
    Ok(s)
}
