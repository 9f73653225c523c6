//! The Meissa test driver (§4): sender, receiver, and checker.
//!
//! The **sender** instantiates each test case template into a concrete
//! packet (unique id in the payload). The **receiver** captures what the
//! switch under test emits. The **checker** compares the captured packet
//! against the expected one — computed from the program's *source
//! semantics* — and validates the operator's LPI intents, reporting passed
//! and failed cases. A failing case carries a bug-localization trace (§7):
//! the executed statements with concrete values, which engineers review to
//! find the root cause; a divergence from source semantics with a clean
//! trace indicates a *non-code* bug (compiler/backend/toolchain).
//!
//! The checker is transport-agnostic: [`Checker::check_case`] compares an
//! expected [`TargetOutput`] against an [`Observation`] regardless of
//! whether the observation came from an in-process `SwitchTarget::inject`
//! call (this crate's [`TestDriver`]) or from frames on a socket (the
//! `meissa-netdriver` wire driver). [`plan_cases`] is the shared sender:
//! it enumerates the concrete test cases for a run, assigning each the
//! paper's unique packet-ID stamp so receivers can match responses under
//! loss and reordering.

pub mod localize;
pub mod report;

pub use localize::{trace_execution, TraceStep};
pub use report::{CaseResult, SoakStats, TestReport, Verdict};

use meissa_core::stateful::StatefulRunOutput;
use meissa_core::{RunOutput, TestTemplate};
use meissa_dataplane::{parse_packet, Packet, SwitchTarget, TargetOutput};
use meissa_ir::{ConcreteState, FieldTable};
use meissa_lang::CompiledProgram;
use meissa_smt::{Solver, TermId, TermPool};
use meissa_testkit::obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What a receiver observed for one injected packet, however it observed
/// it. Mirrors [`TargetOutput`] but is constructed by transports: the
/// in-process path converts directly, the wire path reassembles it from
/// `Output` frames (and synthesizes the all-`None` value for cases whose
/// response never arrived — the drain phase classifies those as drops).
#[derive(Clone, Debug)]
pub struct Observation {
    /// The emitted packet, or `None` for a drop (or a lost response).
    pub packet: Option<Packet>,
    /// Logical egress port, when forwarded.
    pub egress_port: Option<meissa_num::Bv>,
    /// The target's final state snapshot (the hardware-model register
    /// dump the checker validates intents against).
    pub final_state: ConcreteState,
}

impl Observation {
    /// The observation for a case whose response never arrived: no packet,
    /// no port, empty state. Intent checks on an empty state see every
    /// field as zero.
    pub fn missing() -> Self {
        Observation {
            packet: None,
            egress_port: None,
            final_state: ConcreteState::new(),
        }
    }
}

impl From<TargetOutput> for Observation {
    fn from(out: TargetOutput) -> Self {
        Observation {
            packet: out.packet,
            egress_port: out.egress_port,
            final_state: out.final_state,
        }
    }
}

/// One planned test case, produced by [`plan_cases`]. The sender half of
/// the driver: transports consume this list, serialize the inputs, and
/// deliver them however they deliver things.
#[derive(Clone, Debug)]
pub enum CaseSpec {
    /// The template could not be instantiated; the report records why.
    Skip {
        /// Originating template.
        template_id: usize,
        /// Why no packet exists.
        reason: String,
    },
    /// A concrete input to inject.
    Case {
        /// Originating template.
        template_id: usize,
        /// Globally unique packet-ID stamp (§4) — the last 8 payload bytes.
        /// Receivers match responses to cases by this id, which is what
        /// makes the checker robust to duplication and reordering.
        wire_id: u64,
        /// The concrete input state.
        input: ConcreteState,
    },
}

impl CaseSpec {
    /// The template this case came from.
    pub fn template_id(&self) -> usize {
        match self {
            CaseSpec::Skip { template_id, .. } | CaseSpec::Case { template_id, .. } => {
                *template_id
            }
        }
    }
}

/// Enumerates every concrete test case for `run`: `packets_per_template`
/// distinct instantiations per template, plus one instantiation per intent
/// with the intent's `given` clause as an extra constraint (the §6
/// deployment workflow where "network engineers specify test-case-specific
/// constraints"). Each case gets a globally unique `wire_id` (1-based,
/// in plan order).
///
/// Templates are planned in fixed chunks of [`PLAN_CHUNK`] consecutive
/// templates, each on one solver that lives for the chunk. Every template
/// gets a frame holding its constraints, and every instantiation and hash
/// repair a frame inside it, so the blaster's term cache shares the cones
/// the chunk's templates have in common and no solver is ever copied. An
/// instantiation reads only the fields of its template's constraints, its
/// extras and, when the §4 hash repair runs, its hash keys; every other
/// field reads zero, as on a fresh solver.
///
/// `run.threads` workers take whole chunks from a shared counter: the
/// calling thread on the run's term pool, each helper on its own clone of
/// it (no thread is spawned when `run.threads` is 1). Chunk boundaries
/// depend only on the template index and terms are stored in a
/// content-canonical shape, so a chunk blasts to the same clauses and
/// yields the same inputs on whichever worker plans it. `wire_id`s are
/// assigned in template order after the workers join, so the plan is the
/// same for every worker count.
pub fn plan_cases(
    program: &CompiledProgram,
    run: &mut RunOutput,
    packets_per_template: usize,
) -> Vec<CaseSpec> {
    plan_chunks(program, run, packets_per_template)
        .into_iter()
        .flatten()
        .collect()
}

/// [`plan_cases`], with the cases of each chunk of [`PLAN_CHUNK`]
/// templates kept together: the units [`TestDriver::run`] executes.
fn plan_chunks(
    program: &CompiledProgram,
    run: &mut RunOutput,
    packets_per_template: usize,
) -> Vec<Vec<CaseSpec>> {
    let mut ctx = meissa_core::symstate::SymCtx::new(None);
    let v0 = meissa_core::symstate::ValueStack::new();
    let givens: Vec<TermId> = program
        .intents
        .iter()
        .map(|i| ctx.bexp(&mut run.pool, &run.cfg.fields, &v0, &i.given))
        .collect();
    let planned = plan_templates(run, &givens, packets_per_template);
    let mut units = Vec::with_capacity(planned.len());
    let mut next_id: u64 = 1;
    for (chunk, planned) in run.templates.chunks(PLAN_CHUNK).zip(planned) {
        let mut cases = Vec::new();
        for (t, p) in chunk.iter().zip(planned) {
            let template_id = t.id;
            if p.distinct.is_empty() {
                cases.push(CaseSpec::Skip {
                    template_id,
                    reason: "template unsatisfiable at instantiation (hash filter)".into(),
                });
            }
            for input in p.distinct.into_iter().chain(p.intents) {
                cases.push(CaseSpec::Case {
                    template_id,
                    wire_id: next_id,
                    input,
                });
                next_id += 1;
            }
        }
        units.push(cases);
    }
    units
}

/// How many consecutive templates share one planning solver. Smaller
/// chunks re-blast the cones their templates share; larger ones leave a
/// solver more dead variables from popped frames, which the SAT engine
/// still decides on every check (DESIGN.md §6 "Planning" has the sweep).
pub const PLAN_CHUNK: usize = 16;

/// One template's planned inputs, before `wire_id`s are assigned.
struct Planned {
    /// The distinct instantiations (empty when the template is unsatisfiable).
    distinct: Vec<ConcreteState>,
    /// One instantiation per intent whose `given` the template admits.
    intents: Vec<ConcreteState>,
}

/// Plans one template on `solver`, which it leaves at the depth it found.
fn plan_template(
    t: &TestTemplate,
    solver: &mut Solver,
    pool: &mut TermPool,
    fields: &FieldTable,
    givens: &[TermId],
    packets_per_template: usize,
) -> Planned {
    let vars = t.assert_on(solver, pool);
    let planned = Planned {
        distinct: t.instantiate_distinct_on(solver, pool, fields, &vars, packets_per_template),
        intents: givens
            .iter()
            .filter_map(|&g| t.instantiate_on(solver, pool, fields, &vars, &[g]))
            .collect(),
    };
    solver.pop();
    planned
}

/// Plans one chunk of consecutive templates on one fresh solver, and
/// records a `driver.plan.chunk` span when tracing is on.
fn plan_chunk(
    chunk: &[TestTemplate],
    pool: &mut TermPool,
    fields: &FieldTable,
    givens: &[TermId],
    n: usize,
) -> Vec<Planned> {
    let mut span = obs::span("driver.plan.chunk");
    let mut solver = Solver::new();
    let planned: Vec<Planned> = chunk
        .iter()
        .map(|t| plan_template(t, &mut solver, pool, fields, givens, n))
        .collect();
    if obs::active() {
        let cases: usize = planned
            .iter()
            .map(|p| p.distinct.len() + p.intents.len())
            .sum();
        let skipped = planned.iter().filter(|p| p.distinct.is_empty()).count();
        span.field("templates", chunk.len() as u64);
        span.field("cases", cases as u64);
        span.field("skipped", skipped as u64);
        span.field("sat_engine_calls", solver.stats.sat_engine_calls);
    }
    planned
}

/// Plans every template of `run`, one entry per chunk of [`PLAN_CHUNK`]
/// templates, in template order. The calling thread plans on the run's
/// pool and every helper on its own clone.
fn plan_templates(run: &mut RunOutput, givens: &[TermId], n: usize) -> Vec<Vec<Planned>> {
    let RunOutput {
        pool,
        cfg,
        templates,
        threads,
        ..
    } = run;
    let fields = &cfg.fields;
    let chunks: Vec<&[TestTemplate]> = templates.chunks(PLAN_CHUNK).collect();
    on_workers(*threads, chunks.len(), pool, TermPool::clone, |pool, i| {
        plan_chunk(chunks[i], pool, fields, givens, n)
    })
}

/// Runs `work(state, i)` for every unit `i` in `0..units` on up to
/// `threads` workers and returns the results in unit order, whichever
/// worker ran each unit. Workers take the next unit from a shared counter,
/// so a slow unit holds up only its own worker. The calling thread is the
/// first worker and works on `own`; only the others are spawned, each on
/// `fork(own)` taken before any unit starts, so one worker spawns nothing.
fn on_workers<S: Send, R: Send>(
    threads: usize,
    units: usize,
    own: &mut S,
    fork: impl Fn(&S) -> S,
    work: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let workers = threads.min(units).max(1);
    let next = AtomicUsize::new(0);
    let drain = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; the results
            // come back through `join`.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= units {
                return done;
            }
            done.push((i, work(state, i)));
        }
    };
    let mut slots: Vec<Option<R>> = (0..units).map(|_| None).collect();
    std::thread::scope(|s| {
        let drain = &drain;
        let helpers: Vec<_> = (1..workers)
            .map(|_| {
                let mut forked = fork(own);
                s.spawn(move || drain(&mut forked))
            })
            .collect();
        let mine = drain(own);
        let joined = helpers.into_iter().flat_map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        for (i, r) in mine.into_iter().chain(joined) {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every unit ran"))
        .collect()
}

/// One planned k-packet sequence case. The ordered counterpart of
/// [`CaseSpec`]: transports must deliver the packets *in order* against a
/// single register file (in-process via `SwitchTarget::inject_sequence`,
/// on the wire via the agent's atomic sequence-injection frame).
#[derive(Clone, Debug)]
pub enum SeqCaseSpec {
    /// The sequence template could not be instantiated.
    Skip {
        /// Originating sequence template.
        sequence_id: usize,
        /// Why no case exists.
        reason: String,
    },
    /// A concrete ordered sequence to inject.
    Case {
        /// Originating sequence template.
        sequence_id: usize,
        /// One globally unique packet-ID stamp per packet, in order.
        wire_ids: Vec<u64>,
        /// Per-packet inputs plus the initial register seed.
        case: meissa_core::SequenceCase,
    },
}

/// Enumerates every concrete sequence case for a stateful run: one
/// instantiation per sequence template, each packet stamped with a globally
/// unique `wire_id` (1-based, in plan order — packet *j* of an earlier
/// sequence always has a smaller id than any packet of a later one).
pub fn plan_sequence_cases(run: &mut StatefulRunOutput) -> Vec<SeqCaseSpec> {
    let mut cases = Vec::new();
    let mut next_id: u64 = 1;
    for idx in 0..run.sequences.len() {
        let sequence_id = run.sequences[idx].id;
        match run.instantiate(idx) {
            Some(case) => {
                let wire_ids: Vec<u64> = (0..case.packets.len() as u64)
                    .map(|j| next_id + j)
                    .collect();
                next_id += case.packets.len() as u64;
                cases.push(SeqCaseSpec::Case {
                    sequence_id,
                    wire_ids,
                    case,
                });
            }
            None => cases.push(SeqCaseSpec::Skip {
                sequence_id,
                reason: "sequence template unsatisfiable at instantiation (hash filter)".into(),
            }),
        }
    }
    cases
}

/// The transport-agnostic checker: given what the reference says should
/// happen and what some transport observed, produce the verdict. Shared
/// verbatim by the in-process and wire drivers, so both classify every
/// `dataplane::Fault` identically.
pub struct Checker<'p> {
    program: &'p CompiledProgram,
    structural_checks: bool,
}

impl<'p> Checker<'p> {
    /// A checker with the full Meissa validation (§4: the checker
    /// "validates packet checksums" and structure).
    pub fn new(program: &'p CompiledProgram) -> Self {
        Checker {
            program,
            structural_checks: true,
        }
    }

    /// A checker that only diffs packets, modeling baseline testers.
    pub fn without_structural_checks(program: &'p CompiledProgram) -> Self {
        Checker {
            program,
            structural_checks: false,
        }
    }

    /// Checks one observed case against the reference output. `packet` is
    /// the injected packet (for the localization trace on failure).
    pub fn check_case(
        &self,
        template_id: usize,
        input: &ConcreteState,
        packet: &Packet,
        expected: &TargetOutput,
        actual: &Observation,
    ) -> CaseResult {
        let trace = || {
            parse_packet(self.program, packet)
                .map(|st| trace_execution(self.program, &st))
                .unwrap_or_default()
        };

        // Checker step 0: structural validation (§4: the checker validates
        // packet structure/checksums, not just intent clauses). A header
        // the program leaves valid must be on the deparser's emit list —
        // catching wrong-deparser-emit code bugs.
        if self.structural_checks && expected.packet.is_some() {
            let fields = &self.program.cfg.fields;
            for layout in &self.program.headers {
                let valid = !expected.final_state.get(fields, layout.valid).is_zero();
                if valid && !self.program.deparse_order.contains(&layout.name) {
                    return CaseResult::new(
                        template_id,
                        Verdict::OutputMismatch {
                            detail: format!("deparser omits valid header `{}`", layout.name),
                        },
                        trace(),
                    );
                }
            }
        }

        // Checker step 1: presence (absent packets are first-class — §4
        // "or mark as absent").
        let verdict = match (&expected.packet, &actual.packet) {
            (Some(e), Some(a)) => {
                if e.bytes != a.bytes {
                    Verdict::OutputMismatch {
                        detail: format!(
                            "output differs: expected {} bytes, got {} bytes{}",
                            e.len(),
                            a.len(),
                            first_diff(&e.bytes, &a.bytes)
                                .map(|i| format!(", first difference at byte {i}"))
                                .unwrap_or_default()
                        ),
                    }
                } else if expected.egress_port != actual.egress_port {
                    Verdict::OutputMismatch {
                        detail: format!(
                            "egress port differs: expected {:?}, got {:?}",
                            expected.egress_port, actual.egress_port
                        ),
                    }
                } else {
                    self.check_intents(input, &actual.final_state)
                }
            }
            (Some(_), None) => Verdict::OutputMismatch {
                detail: "expected a forwarded packet, got none".into(),
            },
            (None, Some(_)) => Verdict::OutputMismatch {
                detail: "expected a drop, got a forwarded packet".into(),
            },
            (None, None) => self.check_intents(input, &actual.final_state),
        };

        let trace = if matches!(verdict, Verdict::Pass) {
            Vec::new()
        } else {
            trace()
        };
        CaseResult::new(template_id, verdict, trace)
    }

    /// Checker step 2: LPI intents. An intent applies when its `given`
    /// clause holds on the input; its `expect` clause must then hold on the
    /// final state the target produced.
    fn check_intents(&self, input: &ConcreteState, actual_final: &ConcreteState) -> Verdict {
        let fields = &self.program.cfg.fields;
        for intent in &self.program.intents {
            if input.eval_bexp(fields, &intent.given)
                && !actual_final.eval_bexp(fields, &intent.expect)
            {
                return Verdict::IntentViolation {
                    intent: intent.name.clone(),
                };
            }
        }
        Verdict::Pass
    }
}

/// The in-process test driver for one program: sender, receiver, and
/// checker wired directly to `SwitchTarget::inject` calls.
pub struct TestDriver<'p> {
    program: &'p CompiledProgram,
    /// The reference implementation: a faithful execution of source
    /// semantics, used to compute expected outputs.
    reference: SwitchTarget,
    /// The shared transport-agnostic checker.
    checker: Checker<'p>,
    /// How many distinct packets to generate per template ("One or more
    /// input-output test cases can be generated based on the template",
    /// §2.1).
    packets_per_template: usize,
}

impl<'p> TestDriver<'p> {
    /// Creates a driver for a program.
    pub fn new(program: &'p CompiledProgram) -> Self {
        TestDriver {
            program,
            reference: SwitchTarget::new(program),
            checker: Checker::new(program),
            packets_per_template: 1,
        }
    }

    /// Sets how many distinct packets each template is instantiated into.
    pub fn with_packets_per_template(mut self, n: usize) -> Self {
        self.packets_per_template = n.max(1);
        self
    }

    /// A driver without the structural packet validation, for modeling
    /// baseline testers whose checkers only diff packets.
    pub fn without_structural_checks(program: &'p CompiledProgram) -> Self {
        TestDriver {
            checker: Checker::without_structural_checks(program),
            ..Self::new(program)
        }
    }

    /// Runs every template in `run` against `target` and checks results.
    ///
    /// Besides one packet per template, the driver instantiates each
    /// template once per intent with the intent's `given` clause as an
    /// extra constraint — the §6 deployment workflow where "network
    /// engineers specify test-case-specific constraints" on top of Meissa's
    /// base constraints. This also yields deterministic boundary-value
    /// packets when a `given` pins a boundary (e.g. `src_port == 1024`).
    ///
    /// Once [`plan_cases`] has planned every case and assigned its
    /// `wire_id`, `run.threads` workers serialize, inject into the
    /// reference and `target`, and check the cases, taking the cases of
    /// one [`PLAN_CHUNK`] of templates at a time from a shared counter (no
    /// thread is spawned when `run.threads` is 1). Every chunk's results
    /// go into that chunk's slot and the slots are joined in plan order,
    /// so the report lists the same cases in the same order at every
    /// worker count.
    pub fn run(&self, run: &mut RunOutput, target: &SwitchTarget) -> TestReport {
        let started = Instant::now();
        let units = plan_chunks(self.program, run, self.packets_per_template);
        let checked = on_workers(
            run.threads,
            units.len(),
            &mut (),
            |_| (),
            |_, i| self.check_chunk(target, &units[i]),
        );
        let mut report = TestReport::new(target.fault().name());
        report.cases = checked.into_iter().flatten().collect();
        report.elapsed = started.elapsed();
        report
    }

    /// Checks one chunk's planned cases in order, and records a
    /// `driver.exec.chunk` span when tracing is on.
    fn check_chunk(&self, target: &SwitchTarget, specs: &[CaseSpec]) -> Vec<CaseResult> {
        let mut span = obs::span("driver.exec.chunk");
        let results: Vec<CaseResult> = specs
            .iter()
            .map(|spec| match spec {
                CaseSpec::Skip {
                    template_id,
                    reason,
                } => CaseResult::new(
                    *template_id,
                    Verdict::Skipped {
                        reason: reason.clone(),
                    },
                    Vec::new(),
                ),
                CaseSpec::Case {
                    template_id,
                    wire_id,
                    input,
                } => self.check_with_id(target, *template_id, *wire_id, input),
            })
            .collect();
        if obs::active() {
            let failed = results.iter().filter(|r| r.verdict.is_failure()).count();
            let skipped = results
                .iter()
                .filter(|r| matches!(r.verdict, Verdict::Skipped { .. }))
                .count();
            span.field("cases", results.len() as u64);
            span.field("failed", failed as u64);
            span.field("skipped", skipped as u64);
        }
        results
    }

    /// Runs a single template (first packet only; `run` generates
    /// `packets_per_template` variants).
    pub fn run_case(&self, run: &mut RunOutput, target: &SwitchTarget, idx: usize) -> CaseResult {
        let template_id = run.templates[idx].id;
        // Sender: instantiate the template into a concrete input.
        let Some(input) = run.templates[idx].instantiate(&mut run.pool, &run.cfg.fields, &[])
        else {
            return CaseResult::new(
                template_id,
                Verdict::Skipped {
                    reason: "template unsatisfiable at instantiation (hash filter)".into(),
                },
                Vec::new(),
            );
        };
        self.check_input(target, template_id, &input)
    }

    /// Sends one concrete input through both the reference and the target,
    /// then checks packets and intents. Stamps the packet with
    /// `template_id + 1` — unique per template, matching single-case use.
    pub fn check_input(
        &self,
        target: &SwitchTarget,
        template_id: usize,
        input: &ConcreteState,
    ) -> CaseResult {
        self.check_with_id(target, template_id, template_id as u64 + 1, input)
    }

    fn check_with_id(
        &self,
        target: &SwitchTarget,
        template_id: usize,
        wire_id: u64,
        input: &ConcreteState,
    ) -> CaseResult {
        // Sender: materialize the packet (prebuilt parser plan — this is
        // the per-case hot path).
        let fields = &self.program.cfg.fields;
        let Ok(packet) = self.reference.plan().serialize_state(fields, input, wire_id) else {
            return CaseResult::new(
                template_id,
                Verdict::Skipped {
                    reason: "program has no entry parser; cannot serialize".into(),
                },
                Vec::new(),
            );
        };

        // Expected behaviour: the faithful reference.
        let expected = self.reference.inject(&packet);
        // Actual behaviour: the implementation under test — the latency
        // window spans injection through verdict, mirroring what the wire
        // driver measures send → matched response.
        let injected = Instant::now();
        let actual: Observation = target.inject(&packet).into();
        let mut result =
            self.checker
                .check_case(template_id, input, &packet, &expected, &actual);
        result.latency = injected.elapsed().max(Duration::from_nanos(1));
        result
    }

    /// Runs every sequence template in `run` against `target`, in order,
    /// and checks each packet's output at its position. Both the reference
    /// and the target thread a register file across each sequence (fresh
    /// per sequence, seeded from the case's `initial_registers`), so a
    /// state-dependent divergence on packet *i* is attributed to the
    /// sequence that provoked it.
    pub fn run_sequences(&self, run: &mut StatefulRunOutput, target: &SwitchTarget) -> TestReport {
        let started = Instant::now();
        let mut report = TestReport::new(target.fault().name());
        for spec in plan_sequence_cases(run) {
            match spec {
                SeqCaseSpec::Skip {
                    sequence_id,
                    reason,
                } => report.push(CaseResult::new(
                    sequence_id,
                    Verdict::Skipped { reason },
                    Vec::new(),
                )),
                SeqCaseSpec::Case {
                    sequence_id,
                    wire_ids,
                    case,
                } => {
                    for r in self.check_sequence(target, sequence_id, &wire_ids, &case) {
                        report.push(r);
                    }
                }
            }
        }
        report.elapsed = started.elapsed();
        report
    }

    /// Sends one concrete sequence through both the reference and the
    /// target and checks every position. Produces one [`CaseResult`] per
    /// packet (all carrying the sequence's template id).
    pub fn check_sequence(
        &self,
        target: &SwitchTarget,
        sequence_id: usize,
        wire_ids: &[u64],
        case: &meissa_core::SequenceCase,
    ) -> Vec<CaseResult> {
        let mut packets = Vec::with_capacity(case.packets.len());
        for (input, &wid) in case.packets.iter().zip(wire_ids) {
            match self.reference.plan().serialize_state(&self.program.cfg.fields, input, wid) {
                Ok(p) => packets.push(p),
                Err(e) => {
                    return vec![CaseResult::new(
                        sequence_id,
                        Verdict::Skipped {
                            reason: format!("cannot serialize sequence packet: {e}"),
                        },
                        Vec::new(),
                    )]
                }
            }
        }
        let expected = self.reference.inject_sequence(&packets, &case.initial_registers);
        let injected = Instant::now();
        let actual = target.inject_sequence(&packets, &case.initial_registers);
        let latency = injected.elapsed().max(Duration::from_nanos(1));
        let mut results = Vec::with_capacity(packets.len());
        for (i, packet) in packets.iter().enumerate() {
            let obs: Observation = actual[i].clone().into();
            let mut r = self.checker.check_case(
                sequence_id,
                &case.packets[i],
                packet,
                &expected[i],
                &obs,
            );
            r.latency = latency;
            results.push(r);
        }
        results
    }
}

/// Computes the expected (reference) output for a planned case. Shared by
/// transports that evaluate the reference client-side while the target
/// runs remotely.
pub fn expected_output(
    reference: &SwitchTarget,
    packet: &Packet,
) -> TargetOutput {
    reference.inject(packet)
}

fn first_diff(a: &[u8], b: &[u8]) -> Option<usize> {
    a.iter().zip(b).position(|(x, y)| x != y).or({
        if a.len() != b.len() {
            Some(a.len().min(b.len()))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_core::Meissa;
    use meissa_dataplane::Fault;
    use meissa_lang::{compile, parse_program, parse_rules};

    const PROGRAM: &str = r#"
        header ethernet { dst: 48; src: 48; ether_type: 16; }
        header ipv4 { ttl: 8; protocol: 8; src_addr: 32; dst_addr: 32; checksum: 16; }
        header vxlan { vni: 24; }
        metadata meta { egress_port: 9; drop: 1; }
        parser main {
          state start {
            extract(ethernet);
            select (hdr.ethernet.ether_type) { 0x0800 => parse_ipv4; default => accept; }
          }
          state parse_ipv4 { extract(ipv4); accept; }
        }
        action set_port(port: 9) { meta.egress_port = port; }
        action encap(vni: 24) {
          hdr.vxlan.setValid();
          hdr.vxlan.vni = vni;
          hdr.ipv4.checksum = hash(csum16, 16, hdr.ipv4.src_addr, hdr.ipv4.dst_addr);
        }
        action drop_() { meta.drop = 1; }
        table route {
          key = { hdr.ipv4.dst_addr: lpm; }
          actions = { set_port; drop_; }
          default_action = drop_();
        }
        control ig {
          if (hdr.ipv4.isValid()) {
            apply(route);
            if (meta.drop == 0) { call encap(7); }
          }
        }
        pipeline ingress0 { parser = main; control = ig; }
        deparser { emit(ethernet); emit(ipv4); emit(vxlan); }
        intent routed_packets_get_tunneled {
          given hdr.ethernet.ether_type == 0x0800;
          expect meta.drop == 1 || hdr.vxlan.$valid == 1;
        }
    "#;

    const RULES: &str = "rules route { 10.0.0.0/8 => set_port(3); }";

    fn program() -> CompiledProgram {
        let p = parse_program(PROGRAM).unwrap();
        compile(&p, &parse_rules(RULES).unwrap()).unwrap()
    }

    #[test]
    fn faithful_target_passes_all_cases() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        assert!(!run.templates.is_empty());
        let driver = TestDriver::new(&cp);
        let target = SwitchTarget::new(&cp);
        let report = driver.run(&mut run, &target);
        assert_eq!(report.failed(), 0, "{report}");
        assert!(report.passed() >= 3, "{report}");
    }

    #[test]
    fn setvalid_fault_is_detected_with_trace() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let driver = TestDriver::new(&cp);
        let target = SwitchTarget::with_fault(
            &cp,
            Fault::SetValidDropped {
                header: "vxlan".into(),
            },
        );
        let report = driver.run(&mut run, &target);
        assert!(report.failed() > 0, "setValid bug must be caught");
        let failure = report
            .cases
            .iter()
            .find(|c| !matches!(c.verdict, Verdict::Pass | Verdict::Skipped { .. }))
            .unwrap();
        assert!(!failure.trace.is_empty(), "failures carry a trace");
    }

    #[test]
    fn checksum_fault_detected() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let driver = TestDriver::new(&cp);
        let target = SwitchTarget::with_fault(&cp, Fault::ChecksumNotUpdated);
        let report = driver.run(&mut run, &target);
        assert!(report.failed() > 0, "{report}");
    }

    #[test]
    fn report_is_printable() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let driver = TestDriver::new(&cp);
        let report = driver.run(&mut run, &SwitchTarget::new(&cp));
        let text = report.to_string();
        assert!(text.contains("passed"), "{text}");
    }

    #[test]
    fn intent_violation_detected_on_code_bug() {
        // A *code* bug: the program forgets to encap (violates the intent on
        // the faithful target). Testing flags it via the intent check.
        let buggy_src = PROGRAM.replace("{ call encap(7); }", "{ }");
        let p = parse_program(&buggy_src).unwrap();
        let cp = compile(&p, &parse_rules(RULES).unwrap()).unwrap();
        let mut run = Meissa::new().run(&cp);
        let driver = TestDriver::new(&cp);
        let report = driver.run(&mut run, &SwitchTarget::new(&cp));
        assert!(
            report
                .cases
                .iter()
                .any(|c| matches!(&c.verdict, Verdict::IntentViolation { intent }
                    if intent == "routed_packets_get_tunneled")),
            "{report}"
        );
    }

    #[test]
    fn run_records_latency_and_elapsed() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let report = TestDriver::new(&cp).run(&mut run, &SwitchTarget::new(&cp));
        assert!(!report.elapsed.is_zero());
        assert!(report.latency_p50().is_some());
        assert!(report.latency_p99().is_some());
        assert!(report
            .cases
            .iter()
            .filter(|c| !matches!(c.verdict, Verdict::Skipped { .. }))
            .all(|c| !c.latency.is_zero()));
        assert!(report.cases_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn plan_cases_assigns_unique_wire_ids() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let cases = plan_cases(&cp, &mut run, 2);
        let ids: Vec<u64> = cases
            .iter()
            .filter_map(|c| match c {
                CaseSpec::Case { wire_id, .. } => Some(*wire_id),
                CaseSpec::Skip { .. } => None,
            })
            .collect();
        assert!(!ids.is_empty());
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "wire ids must be unique");
        // Plan order is deterministic: ids are assigned 1..=n in order.
        assert_eq!(ids, (1..=ids.len() as u64).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod chunk_tests {
    use super::*;
    use meissa_core::{HashObligation, Meissa};
    use meissa_ir::HashAlg;
    use meissa_lang::{compile, parse_program, parse_rules};
    use meissa_num::Bv;
    use meissa_smt::term::EvalValue;

    fn template(id: usize, constraints: Vec<TermId>, hash: Vec<HashObligation>) -> TestTemplate {
        TestTemplate {
            id,
            path: vec![],
            constraints,
            final_values: vec![],
            hash_obligations: hash,
        }
    }

    /// Every term in `terms` holds on `input`, and `input` sets only the
    /// fields named in `allowed`.
    fn holds(
        pool: &TermPool,
        fields: &FieldTable,
        input: &ConcreteState,
        terms: &[TermId],
        allowed: &[&str],
    ) -> bool {
        let env = |v| Some(input.get(fields, fields.get(pool.var_name(v))?));
        terms
            .iter()
            .all(|&c| pool.eval(c, &env) == Some(EvalValue::Bool(true)))
            && input.iter().all(|(f, _)| allowed.contains(&fields.name(f)))
    }

    /// A chunk whose middle template ends in a hash post-filter rejection,
    /// next to one whose intent `given` is unsatisfiable: the solver is
    /// back at depth 0 after every template, the templates after the
    /// rejection are planned and valid, and no field of an earlier
    /// template leaks into a later template's input.
    #[test]
    fn a_skipped_template_leaves_the_chunk_solver_clean() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        fields.intern("x", 8);
        fields.intern("y", 8);
        fields.intern("dst", 32);
        fields.intern("h", 16);
        let (x, y) = (pool.var("x", 8), pool.var("y", 8));
        let (dst, h) = (pool.var("dst", 32), pool.var("h", 16));
        let c = |pool: &mut TermPool, w, v| pool.bv_const(Bv::new(w, v));
        let k7 = c(&mut pool, 8, 7);
        let x_is_7 = pool.eq(x, k7);
        // The path pins dst and demands a hash output crc16(dst) never has.
        let k42 = c(&mut pool, 32, 42);
        let dst_is_42 = pool.eq(dst, k42);
        let real = HashAlg::Crc16.compute(16, &[Bv::new(32, 42)]);
        let wrong = c(&mut pool, 16, real.val() ^ 1);
        let h_wrong = pool.eq(h, wrong);
        let k0 = c(&mut pool, 8, 0);
        let y_is_0 = pool.eq(y, k0);
        let k3 = c(&mut pool, 8, 3);
        let x_lt_3 = pool.ult(x, k3);
        let k1 = c(&mut pool, 8, 1);
        let given = pool.eq(y, k1);
        let obligation = HashObligation {
            alg: HashAlg::Crc16,
            width: 16,
            keys: vec![dst],
            out: h,
        };
        let chunk = vec![
            template(0, vec![x_is_7], vec![]),
            template(1, vec![dst_is_42, h_wrong], vec![obligation]),
            template(2, vec![y_is_0], vec![]),
            template(3, vec![x_lt_3], vec![]),
        ];
        let mut solver = Solver::new();
        let planned: Vec<Planned> = chunk
            .iter()
            .map(|t| {
                let p = plan_template(t, &mut solver, &mut pool, &fields, &[given], 2);
                assert_eq!(solver.depth(), 0, "template {} left frames open", t.id);
                p
            })
            .collect();
        // `plan_chunk` is the same walk on a solver of its own.
        let again = plan_chunk(&chunk, &mut pool, &fields, &[given], 2);
        for (a, b) in planned.iter().zip(&again) {
            assert_eq!((&a.distinct, &a.intents), (&b.distinct, &b.intents));
        }

        assert_eq!(planned[0].distinct.len(), 1, "x == 7 has one input");
        assert!(
            planned[1].distinct.is_empty(),
            "hash filter rejects template 1"
        );
        assert!(planned[1].intents.is_empty(), "and its intent case");
        assert_eq!(planned[2].distinct.len(), 1, "y == 0 has one input");
        assert!(planned[2].intents.is_empty(), "y == 1 contradicts y == 0");
        assert!(holds(
            &pool,
            &fields,
            &planned[2].distinct[0],
            &[y_is_0],
            &["y"]
        ));
        let later = &planned[3];
        assert_eq!(later.distinct.len(), 2);
        assert_ne!(
            later.distinct[0], later.distinct[1],
            "distinct rounds differ"
        );
        for input in &later.distinct {
            assert!(holds(&pool, &fields, input, &[x_lt_3], &["x"]), "{input:?}");
        }
        assert_eq!(later.intents.len(), 1);
        assert!(holds(
            &pool,
            &fields,
            &later.intents[0],
            &[x_lt_3, given],
            &["x", "y"]
        ));
    }

    /// A template count that is not a multiple of [`PLAN_CHUNK`] plans its
    /// last, partial chunk too, identically at every worker count.
    #[test]
    fn a_partial_last_chunk_is_planned() {
        let src = r#"
            header pkt { d: 8; }
            metadata meta { out: 9; }
            parser p { state start { extract(pkt); accept; } }
            action fwd(v: 9) { meta.out = v; }
            table t { key = { hdr.pkt.d: exact; } actions = { fwd; } default_action = fwd(0); }
            control c { apply(t); }
            pipeline main { parser = p; control = c; }
            deparser { emit(pkt); }
        "#;
        let rules = "rules t { 1 => fwd(1); 2 => fwd(2); }";
        let program = compile(&parse_program(src).unwrap(), &parse_rules(rules).unwrap()).unwrap();
        let mut run = Meissa::new().run(&program);
        let base = std::mem::take(&mut run.templates);
        assert!(!base.is_empty());
        let count = 2 * PLAN_CHUNK + 3;
        run.templates = (0..count)
            .map(|id| TestTemplate {
                id,
                ..base[id % base.len()].clone()
            })
            .collect();
        let mut plans = Vec::new();
        for threads in [1, 3] {
            run.threads = threads;
            let plan = plan_cases(&program, &mut run, 1);
            let planned: Vec<usize> = plan
                .iter()
                .filter_map(|c| match c {
                    CaseSpec::Case { template_id, .. } => Some(*template_id),
                    CaseSpec::Skip { .. } => None,
                })
                .collect();
            assert_eq!(planned, (0..count).collect::<Vec<_>>(), "{threads} workers");
            plans.push(format!("{plan:?}"));
        }
        assert_eq!(plans[0], plans[1], "the plan depends on the worker count");
    }
}

#[cfg(test)]
mod multi_packet_tests {
    use super::*;
    use meissa_core::Meissa;
    use meissa_lang::{compile, parse_program, parse_rules};

    #[test]
    fn multiple_packets_per_template_multiply_cases() {
        let src = r#"
            header pkt { d: 32; }
            metadata meta { out: 9; drop: 1; }
            parser p { state start { extract(pkt); accept; } }
            action fwd(v: 9) { meta.out = v; }
            action drop_() { meta.drop = 1; }
            table t {
              key = { hdr.pkt.d: lpm; }
              actions = { fwd; drop_; }
              default_action = drop_();
            }
            control c { apply(t); }
            pipeline main { parser = p; control = c; }
            deparser { emit(pkt); }
        "#;
        let rules = "rules t { 10.0.0.0/8 => fwd(1); }";
        let program =
            compile(&parse_program(src).unwrap(), &parse_rules(rules).unwrap()).unwrap();
        let mut run = Meissa::new().run(&program);
        let single = TestDriver::new(&program)
            .run(&mut run, &SwitchTarget::new(&program))
            .cases
            .len();
        let mut run = Meissa::new().run(&program);
        let multi = TestDriver::new(&program)
            .with_packets_per_template(4)
            .run(&mut run, &SwitchTarget::new(&program))
            .cases
            .len();
        assert!(multi > single, "{multi} vs {single}");
        // And everything still passes on the faithful target.
        let mut run = Meissa::new().run(&program);
        let report = TestDriver::new(&program)
            .with_packets_per_template(4)
            .run(&mut run, &SwitchTarget::new(&program));
        assert_eq!(report.failed(), 0, "{report}");
    }
}
