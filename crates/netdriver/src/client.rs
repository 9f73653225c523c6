//! The client side of the wire driver: pipelined sender/receiver/checker
//! streaming test cases to a remote agent over N connections.
//!
//! The sender is `driver::plan_cases` — the same enumeration the
//! in-process driver uses, so both produce case-for-case comparable
//! reports. Planning (SAT solving per template) happens **before** the
//! replay clock starts: the report's `elapsed`/throughput measure the wire
//! tier — serialize, send, agent execution, receive, check — not the
//! solver, whose cost is accounted separately by the solver benches.
//!
//! Each connection runs two decoupled stages coordinated only by channels
//! and atomics — no mutex is held on the hot path:
//!
//! - the **inject stage** (its own thread) pulls cases from the shared
//!   queue as window space opens, computes the expected output from the
//!   client-side reference `SwitchTarget` (overlapping the reference
//!   interpreter with the agent's processing of already-sent cases),
//!   coalesces the encoded frames of a pull chunk into one buffer, and
//!   flushes it with a single `write` syscall (drain-on-idle: whatever
//!   accumulated goes out as soon as no more cases are immediately
//!   sendable). Retransmit frames arrive from the collect stage over a
//!   channel and take priority.
//! - the **collect stage** owns the `FrameReader` and the pending table:
//!   it matches responses to cases by the packet-ID stamp (§4) — immune to
//!   duplication and reordering — runs the checker, scans deadlines, and
//!   hands expired cases back to the inject stage for retransmission
//!   (bounded attempts, linear backoff; after the final attempt one drain
//!   period, then the missing output is classified as a drop).
//!
//! The outstanding-case budget is shared across the run and split per
//! connection ([`TOTAL_WINDOW`]), so adding connections does not multiply
//! the agent-side queue depth. Retry scheduling is one code path
//! ([`RetryTable`]) shared by the single-case pipeline and the sequence
//! driver. Verdicts come from the shared transport-agnostic
//! `driver::Checker`, so wire and in-process reports agree case for case.

use crate::proto::{decode_response, encode_request, Request, Response, PROTO_VERSION};
use meissa_core::{RunOutput, StatefulRunOutput};
use meissa_dataplane::{Fault, Packet, SwitchTarget, TargetOutput};
use meissa_driver::{
    plan_cases, plan_sequence_cases, CaseResult, CaseSpec, Checker, Observation, SeqCaseSpec,
    SoakStats, TestReport, Verdict,
};
use meissa_ir::ConcreteState;
use meissa_lang::CompiledProgram;
use meissa_testkit::obs;
use meissa_testkit::rng::{RngExt, SeedableRng, StdRng};
use meissa_testkit::wire::{frame_into, write_frame, FrameReader};
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many injects the whole run keeps outstanding, across every
/// connection. The budget is split per connection rather than granted per
/// connection: with a fixed per-connection window, adding connections
/// multiplied the queue depth at the agent, and by Little's law the extra
/// outstanding cases bought latency, not throughput (4 connections × 16
/// outstanding pushed loopback p50 from ~11ms to ~49ms while throughput
/// *dropped*). Splitting the budget keeps the agent-side queue depth
/// constant as connections scale.
const TOTAL_WINDOW: usize = 16;

/// Floor on the per-connection share of [`TOTAL_WINDOW`], so a high
/// connection count still pipelines enough to cover the network RTT.
const MIN_WINDOW: usize = 4;

/// How many cases a connection pulls per queue visit. Pulling in small
/// chunks amortizes the source lock without letting one connection hoard
/// work it cannot send yet; the chunk's frames coalesce into one write.
const PULL_CHUNK: usize = 4;

/// The retry machinery's timing knobs, shared by the single-case pipeline
/// and the sequence driver so both age, retransmit, and give up on cases
/// identically.
#[derive(Clone, Copy, Debug)]
struct RetrySchedule {
    /// Per-attempt response deadline.
    case_timeout: Duration,
    /// Total send attempts per case (first send included).
    max_attempts: u32,
    /// Extra deadline added per retry (linear backoff).
    backoff: Duration,
    /// Grace period after the final attempt before a missing output is
    /// classified as a drop.
    drain_timeout: Duration,
}

impl RetrySchedule {
    /// Deadline for the attempt numbered `attempt` (1-based) sent at
    /// `now`. The final attempt gets its response window plus the drain
    /// period; intermediate attempts back off linearly.
    fn deadline_for(&self, now: Instant, attempt: u32) -> Instant {
        if attempt >= self.max_attempts {
            now + self.case_timeout + self.drain_timeout
        } else if attempt <= 1 {
            now + self.case_timeout
        } else {
            now + self.case_timeout + self.backoff * attempt
        }
    }
}

/// A handshaken data connection: write half + framed read half.
type ConnPair = (TcpStream, FrameReader<TcpStream>);

/// One in-flight request awaiting its response.
struct Pending<T> {
    item: T,
    /// The full length-prefixed frame, kept for retransmission.
    frame: Vec<u8>,
    attempts: u32,
    first_sent: Instant,
    deadline: Instant,
}

/// A resolved in-flight request: the payload plus its retry telemetry.
struct Resolved<T> {
    wire_id: u64,
    item: T,
    attempts: u32,
    latency: Duration,
}

/// The pending-request table: wire-id keyed matching (which deduplicates
/// duplicated/reordered responses for free — a stale id simply misses),
/// deadline aging, bounded retransmission, and the drop verdict after the
/// drain period. One implementation serves both the windowed single-case
/// pipeline and the stop-and-wait sequence driver.
struct RetryTable<T> {
    schedule: RetrySchedule,
    pending: HashMap<u64, Pending<T>>,
}

impl<T> RetryTable<T> {
    fn new(schedule: RetrySchedule) -> Self {
        RetryTable {
            schedule,
            pending: HashMap::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Registers a just-sent request.
    fn insert(&mut self, wire_id: u64, frame: Vec<u8>, item: T) {
        let now = Instant::now();
        self.pending.insert(
            wire_id,
            Pending {
                item,
                frame,
                attempts: 1,
                first_sent: now,
                deadline: self.schedule.deadline_for(now, 1),
            },
        );
    }

    /// Matches a response id to its pending request. `None` for stale ids
    /// (duplicates, frames delayed past their retransmit) — the caller
    /// ignores those, which is the dedup semantics.
    fn resolve(&mut self, wire_id: u64) -> Option<Resolved<T>> {
        self.pending.remove(&wire_id).map(|p| Resolved {
            wire_id,
            item: p.item,
            attempts: p.attempts,
            latency: p.first_sent.elapsed(),
        })
    }

    /// Ages the table: requests past their deadline are retransmitted via
    /// `resend(wire_id, attempt, frame)` with an extended deadline, and
    /// requests that exhausted their attempts (drain period included) are
    /// returned as given-up.
    fn scan_expired(
        &mut self,
        mut resend: impl FnMut(u64, u32, &[u8]) -> io::Result<()>,
    ) -> io::Result<Vec<Resolved<T>>> {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(&id, _)| id)
            .collect();
        let mut gave_up = Vec::new();
        for id in expired {
            let p = self.pending.get_mut(&id).unwrap();
            if p.attempts >= self.schedule.max_attempts {
                let p = self.pending.remove(&id).unwrap();
                gave_up.push(Resolved {
                    wire_id: id,
                    item: p.item,
                    attempts: p.attempts,
                    latency: p.first_sent.elapsed(),
                });
            } else {
                p.attempts += 1;
                resend(id, p.attempts, &p.frame)?;
                p.deadline = self.schedule.deadline_for(now, p.attempts);
            }
        }
        Ok(gave_up)
    }
}

/// A supplier of wire cases for the pipelined engine. `pull` appends up to
/// `max` cases and returns `false` once the source is exhausted for good.
trait CaseSource: Sync {
    fn pull(&self, max: usize, out: &mut Vec<WireCase>) -> bool;
}

/// The fixed, planned case queue of a normal run (reversed; popped from
/// the tail).
struct VecSource(Mutex<Vec<WireCase>>);

impl CaseSource for VecSource {
    fn pull(&self, max: usize, out: &mut Vec<WireCase>) -> bool {
        let mut q = self.0.lock().unwrap();
        for _ in 0..max {
            match q.pop() {
                Some(c) => out.push(c),
                None => return false,
            }
        }
        true
    }
}

/// Consumer of finished cases. `got_response` distinguishes a real agent
/// answer from the drain-phase give-up (where `obs` is
/// [`Observation::missing`]).
trait CaseSink: Sync {
    fn resolve(
        &self,
        case: WireCase,
        obs: &Observation,
        got_response: bool,
        attempts: u32,
        latency: Duration,
    );
}

/// The wire-level test driver for one program.
pub struct WireDriver<'p> {
    program: &'p CompiledProgram,
    addr: SocketAddr,
    connections: usize,
    packets_per_template: usize,
    structural_checks: bool,
    schedule: RetrySchedule,
}

impl<'p> WireDriver<'p> {
    /// A driver for `program` against the agent at `addr`.
    pub fn new(program: &'p CompiledProgram, addr: SocketAddr) -> Self {
        WireDriver {
            program,
            addr,
            connections: 1,
            packets_per_template: 1,
            structural_checks: true,
            schedule: RetrySchedule {
                case_timeout: Duration::from_millis(100),
                max_attempts: 8,
                backoff: Duration::from_millis(25),
                drain_timeout: Duration::from_millis(500),
            },
        }
    }

    /// Streams cases over `n` concurrent connections.
    pub fn with_connections(mut self, n: usize) -> Self {
        self.connections = n.max(1);
        self
    }

    /// Sets how many distinct packets each template is instantiated into.
    pub fn with_packets_per_template(mut self, n: usize) -> Self {
        self.packets_per_template = n.max(1);
        self
    }

    /// Disables the structural packet validation (baseline-tester mode).
    pub fn without_structural_checks(mut self) -> Self {
        self.structural_checks = false;
        self
    }

    /// Tunes the retry machinery: per-attempt deadline, total attempts,
    /// and per-retry backoff increment.
    pub fn with_retries(
        mut self,
        case_timeout: Duration,
        max_attempts: u32,
        backoff: Duration,
    ) -> Self {
        self.schedule.case_timeout = case_timeout;
        self.schedule.max_attempts = max_attempts.max(1);
        self.schedule.backoff = backoff;
        self
    }

    /// Sets the post-final-attempt drain period.
    pub fn with_drain_timeout(mut self, t: Duration) -> Self {
        self.schedule.drain_timeout = t;
        self
    }

    /// Handshakes and returns the agent's target label. An agent older
    /// than [`PROTO_VERSION`] cannot decode binary data-plane frames, so
    /// it is refused rather than driven.
    fn handshake(&self) -> io::Result<String> {
        let (version, _loaded, label) = hello(self.addr)?;
        if version < PROTO_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "agent at {} speaks protocol v{version}; this client needs v{PROTO_VERSION}",
                    self.addr
                ),
            ));
        }
        Ok(label)
    }

    /// Runs every template in `run` against the remote agent and checks
    /// results, exactly as `TestDriver::run` does in-process.
    ///
    /// The report's `elapsed` covers the **replay phase only** — planning
    /// (template instantiation, i.e. SAT solving) happens before the clock
    /// starts, so `cases_per_sec` measures the wire tier, not the solver.
    pub fn run(&self, run: &mut RunOutput) -> io::Result<TestReport> {
        obs::init_from_env();
        let mut run_span = obs::span("wire.run");
        let plan = plan_cases(self.program, run, self.packets_per_template);

        // One reference target and one checker for the whole run, shared by
        // every connection: both answer through `&self`, so no lock — and no
        // per-connection program clone — mediates the hot check path. The
        // reference's prebuilt parser plan also serializes the case packets.
        let reference = SwitchTarget::new(self.program);
        let fields = &self.program.cfg.fields;

        let mut slots: Vec<Option<CaseResult>> = vec![None; plan.len()];
        let mut work: Vec<WireCase> = Vec::new();
        for (slot, spec) in plan.into_iter().enumerate() {
            match spec {
                CaseSpec::Skip {
                    template_id,
                    reason,
                } => {
                    slots[slot] = Some(CaseResult::new(
                        template_id,
                        Verdict::Skipped { reason },
                        Vec::new(),
                    ));
                }
                CaseSpec::Case {
                    template_id,
                    wire_id,
                    input,
                } => match reference.plan().serialize_state(fields, &input, wire_id) {
                    Err(e) => {
                        slots[slot] = Some(CaseResult::new(
                            template_id,
                            Verdict::Skipped {
                                reason: format!("cannot serialize: {e}"),
                            },
                            Vec::new(),
                        ));
                    }
                    Ok(packet) => work.push(WireCase {
                        slot,
                        template_id,
                        wire_id,
                        input,
                        packet,
                        expected: None,
                    }),
                },
            }
        }

        let label = self.handshake()?;
        let checker = if self.structural_checks {
            Checker::new(self.program)
        } else {
            Checker::without_structural_checks(self.program)
        };

        let nconn = self.connections.min(work.len()).max(1);
        let conns = self.connect_all(nconn)?;
        let ncases = work.len();
        // Dynamic pulling: cases queue front-to-back (popped from the
        // reversed vec's tail) and each connection takes the next one as its
        // send window opens. A connection slowed by retries naturally takes
        // fewer cases, where static round-robin sharding made the whole run
        // wait on the unluckiest shard.
        work.reverse();
        let source = VecSource(Mutex::new(work));
        let sink = RunSink {
            checker: &checker,
            slots: Mutex::new(slots),
        };

        // The replay clock starts here: planning and serialization are the
        // solver's cost, and connection setup is one-time — already spent.
        let started = Instant::now();
        self.drive(conns, &source, &sink, &reference)?;

        let mut report = TestReport::new(&label);
        report.cases = sink
            .slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|s| s.expect("every planned case produced a result"))
            .collect();
        report.elapsed = started.elapsed();
        if obs::trace_on() {
            run_span.field("cases", ncases as u64);
            run_span.field("connections", nconn as u64);
            drop(run_span);
            if let Err(e) = obs::flush_trace() {
                eprintln!("meissa: trace flush failed: {e}");
            }
        }
        Ok(report)
    }

    /// Establishes and handshakes `nconn` data connections, outside the
    /// replay clock — connection setup is one-time cost, not wire-tier
    /// throughput.
    fn connect_all(&self, nconn: usize) -> io::Result<Vec<ConnPair>> {
        (0..nconn)
            .map(|_| {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_millis(2)))?;
                let mut writer = stream.try_clone()?;
                let mut reader = FrameReader::new(stream);
                let hello = Request::Hello {
                    version: PROTO_VERSION,
                };
                write_frame(&mut writer, &encode_request(&hello))?;
                wait_for_hello(&mut reader)?;
                Ok((writer, reader))
            })
            .collect()
    }

    /// Spawns one pipelined worker per pre-connected pair over
    /// `source`/`sink` and joins them, propagating the first I/O error.
    fn drive<Src: CaseSource, Snk: CaseSink>(
        &self,
        conns: Vec<ConnPair>,
        source: &Src,
        sink: &Snk,
        reference: &SwitchTarget,
    ) -> io::Result<()> {
        let window = (TOTAL_WINDOW / conns.len()).max(MIN_WINDOW);
        let outcomes: Vec<io::Result<()>> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .into_iter()
                .map(|conn| s.spawn(move || self.run_conn(conn, source, sink, reference, window)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection worker panicked"))
                .collect()
        });
        for outcome in outcomes {
            outcome?;
        }
        Ok(())
    }

    /// Drives one connection: an inject thread (batched sends) and the
    /// collect loop (matching, checking, retry scheduling) coordinated by
    /// channels and an in-flight counter — no shared mutex on the hot path.
    fn run_conn<Src: CaseSource, Snk: CaseSink>(
        &self,
        (writer, mut reader): ConnPair,
        source: &Src,
        sink: &Snk,
        reference: &SwitchTarget,
        window: usize,
    ) -> io::Result<()> {
        let in_flight = AtomicUsize::new(0);
        // Registration channel: inject → collect, carrying each sent case.
        // A case is registered *before* its bytes reach the socket, so the
        // collect stage can never see a response for an unregistered case.
        let (reg_tx, reg_rx) = std::sync::mpsc::channel::<Pending<WireCase>>();
        // Retransmit channel: collect → inject, carrying pre-framed bytes.
        let (retx_tx, retx_rx) = std::sync::mpsc::channel::<Vec<u8>>();

        std::thread::scope(|s| {
            let inject = s.spawn({
                let in_flight = &in_flight;
                move || {
                    inject_stage(
                        writer, source, reference, in_flight, window, reg_tx, retx_rx,
                    )
                }
            });
            let inject_thread = inject.thread().clone();
            let collected =
                self.collect_stage(&mut reader, sink, &in_flight, reg_rx, retx_tx, &inject_thread);
            let injected = inject.join().expect("inject stage panicked");
            collected.and(injected)
        })
    }

    /// The collect stage: owns the reader and the pending table; matches,
    /// checks, ages, and hands retransmissions back to the inject stage.
    fn collect_stage<Snk: CaseSink>(
        &self,
        reader: &mut FrameReader<TcpStream>,
        sink: &Snk,
        in_flight: &AtomicUsize,
        reg_rx: Receiver<Pending<WireCase>>,
        retx_tx: Sender<Vec<u8>>,
        inject_thread: &std::thread::Thread,
    ) -> io::Result<()> {
        let mut table = RetryTable::<WireCase>::new(self.schedule);
        let mut reg_done = false;
        let mut conn_span = obs::span("wire.conn");
        let mut cases = 0u64;
        let mut retries = 0u64;
        let mut drops = 0u64;

        // Absorbs queued registrations into the table; returns true when
        // the inject stage has hung up (no more new cases will come).
        let drain_regs =
            |table: &mut RetryTable<WireCase>,
             reg_done: &mut bool,
             rx: &Receiver<Pending<WireCase>>| {
                while !*reg_done {
                    match rx.try_recv() {
                        Ok(p) => {
                            let Pending { item, frame, .. } = p;
                            let id = item.wire_id;
                            table.insert(id, frame, item);
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => *reg_done = true,
                    }
                }
            };

        let result = loop {
            drain_regs(&mut table, &mut reg_done, &reg_rx);
            if reg_done && table.is_empty() {
                break Ok(());
            }
            match reader.poll_frame() {
                Err(e) => break Err(e),
                Ok(Some(frame)) => {
                    // A transport-truncated frame fails to decode; drop it —
                    // the retry path recovers the case.
                    let Ok(resp) = decode_response(frame) else {
                        continue;
                    };
                    match resp {
                        Response::Output {
                            id,
                            packet,
                            port,
                            state,
                        } => {
                            // The registration may still sit in the channel
                            // if the response raced the drain above.
                            if !table.pending.contains_key(&id) {
                                drain_regs(&mut table, &mut reg_done, &reg_rx);
                            }
                            let Some(r) = table.resolve(id) else {
                                continue; // duplicate or long-delayed frame
                            };
                            let obs = Observation {
                                packet: packet.map(|bytes| Packet { bytes, id }),
                                egress_port: port,
                                final_state: decode_state(self.program, &state),
                            };
                            in_flight.fetch_sub(1, Ordering::Release);
                            // A window slot opened: wake the inject stage if
                            // it parked on a full window (unpark is one
                            // atomic when it didn't).
                            inject_thread.unpark();
                            cases += 1;
                            if obs::active() {
                                wire_obs().case_latency_us.record(r.latency.as_micros() as u64);
                                // The send and the verdict are separated by
                                // other windowed cases, so the case span is
                                // recorded retroactively: one send→check
                                // span per case, parented under this
                                // connection's span.
                                obs::span_closed(
                                    "wire.case",
                                    obs::now_ns().saturating_sub(r.latency.as_nanos() as u64),
                                    r.latency.as_nanos() as u64,
                                    &[("id", id), ("attempts", r.attempts as u64)],
                                );
                            }
                            sink.resolve(r.item, &obs, true, r.attempts, r.latency);
                        }
                        Response::Err { msg } => {
                            break Err(io::Error::other(format!("agent error: {msg}")));
                        }
                        // Stray control responses (e.g. a duplicate Hello)
                        // are ignorable.
                        _ => {}
                    }
                }
                Ok(None) => {
                    // Deadline scan: expired cases are retransmitted by the
                    // inject stage; exhausted ones become drop verdicts.
                    let scan = table.scan_expired(|id, attempt, frame| {
                        retries += 1;
                        obs::event(
                            "wire.retry",
                            &[
                                ("id", id),
                                ("attempt", attempt as u64),
                                (
                                    "backoff_ms",
                                    (self.schedule.backoff * attempt).as_millis() as u64,
                                ),
                            ],
                        );
                        if obs::active() {
                            wire_obs().retries.add(1);
                        }
                        retx_tx
                            .send(frame.to_vec())
                            .map_err(|_| io::Error::other("inject stage gone"))?;
                        inject_thread.unpark();
                        Ok(())
                    });
                    match scan {
                        Err(e) => break Err(e),
                        Ok(gave_up) => {
                            for r in gave_up {
                                in_flight.fetch_sub(1, Ordering::Release);
                                inject_thread.unpark();
                                cases += 1;
                                drops += 1;
                                obs::event(
                                    "wire.drop",
                                    &[("id", r.wire_id), ("attempts", r.attempts as u64)],
                                );
                                if obs::active() {
                                    wire_obs().dropped.add(1);
                                }
                                // Drain phase verdict: the output never
                                // arrived; the sink judges the missing
                                // observation against the reference.
                                sink.resolve(
                                    r.item,
                                    &Observation::missing(),
                                    false,
                                    r.attempts,
                                    r.latency,
                                );
                            }
                        }
                    }
                }
            }
        };
        if obs::trace_on() {
            conn_span.field("cases", cases);
            conn_span.field("retries", retries);
            conn_span.field("drops", drops);
        }
        drop(conn_span);
        obs::park_current_thread();
        // Dropping retx_tx (here, via scope end) unblocks the inject
        // stage's retransmit service loop.
        result
    }

    /// Runs every sequence template in `run` against the remote agent and
    /// checks each packet position, exactly as `TestDriver::run_sequences`
    /// does in-process.
    ///
    /// Sequences go over **one** connection, one at a time: in-order
    /// delivery within a sequence is the whole point of stateful testing,
    /// so a sequence is never split across connections or interleaved with
    /// another. Transport faults still apply *between* sequences — a lost
    /// `SeqOutput` is retried whole, which is safe because the agent
    /// reseeds the register file from the request on every attempt.
    pub fn run_sequences(&self, run: &mut StatefulRunOutput) -> io::Result<TestReport> {
        obs::init_from_env();
        let mut run_span = obs::span("wire.sequence_run");
        run_span.field("k", run.k as u64);
        let started = Instant::now();
        let plan = plan_sequence_cases(run);
        let label = self.handshake()?;

        let reference = SwitchTarget::new(self.program);
        let checker = if self.structural_checks {
            Checker::new(self.program)
        } else {
            Checker::without_structural_checks(self.program)
        };

        let (mut writer, mut reader) = self.connect_all(1)?.remove(0);

        let mut report = TestReport::new(&label);
        let mut seq_wire_id = 0u64;
        for spec in plan {
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
                    seq_wire_id += 1;
                    for r in self.run_one_sequence(
                        &mut writer,
                        &mut reader,
                        &reference,
                        &checker,
                        seq_wire_id,
                        sequence_id,
                        &wire_ids,
                        &case,
                    )? {
                        report.push(r);
                    }
                }
            }
        }
        report.elapsed = started.elapsed();
        if obs::trace_on() {
            run_span.field("cases", report.cases.len() as u64);
            drop(run_span);
            if let Err(e) = obs::flush_trace() {
                eprintln!("meissa: trace flush failed: {e}");
            }
        }
        Ok(report)
    }

    /// Sends one concrete sequence as a single `InjectSeq`, waits for its
    /// `SeqOutput` (retrying whole on loss, via the same [`RetryTable`]
    /// the single-case pipeline uses), and checks every packet position.
    /// Mirrors `TestDriver::check_sequence` verdict-for-verdict.
    #[allow(clippy::too_many_arguments)]
    fn run_one_sequence(
        &self,
        writer: &mut TcpStream,
        reader: &mut FrameReader<TcpStream>,
        reference: &SwitchTarget,
        checker: &Checker,
        seq_wire_id: u64,
        sequence_id: usize,
        wire_ids: &[u64],
        case: &meissa_core::SequenceCase,
    ) -> io::Result<Vec<CaseResult>> {
        let fields = &self.program.cfg.fields;
        let mut packets = Vec::with_capacity(case.packets.len());
        for (input, &wid) in case.packets.iter().zip(wire_ids) {
            match reference.plan().serialize_state(fields, input, wid) {
                Ok(p) => packets.push(p),
                Err(e) => {
                    return Ok(vec![CaseResult::new(
                        sequence_id,
                        Verdict::Skipped {
                            reason: format!("cannot serialize sequence packet: {e}"),
                        },
                        Vec::new(),
                    )])
                }
            }
        }
        let expected = reference.inject_sequence(&packets, &case.initial_registers);
        let req = Request::InjectSeq {
            id: seq_wire_id,
            packets: packets.iter().map(|p| (p.id, p.bytes.clone())).collect(),
            init: encode_init(self.program, &case.initial_registers),
        };
        let payload = encode_request(&req);
        let mut frame = Vec::with_capacity(payload.len() + 4);
        frame_into(&mut frame, &payload)?;

        let mut table = RetryTable::<()>::new(self.schedule);
        writer.write_all(&frame)?;
        table.insert(seq_wire_id, frame, ());
        // Wait for the matching SeqOutput; stale ids (a duplicate from an
        // earlier retry, frames delayed by the fault gate) fall through
        // harmlessly because sequence ids are unique within the run.
        let (outputs, latency) = loop {
            match reader.poll_frame()? {
                Some(frame) => {
                    let Ok(resp) = decode_response(frame) else {
                        continue;
                    };
                    match resp {
                        Response::SeqOutput { id, outputs } => {
                            if let Some(r) = table.resolve(id) {
                                break (Some(outputs), r.latency);
                            }
                        }
                        Response::Err { msg } => {
                            return Err(io::Error::other(format!("agent error: {msg}")));
                        }
                        _ => {}
                    }
                }
                None => {
                    let gave_up = table.scan_expired(|id, attempt, frame| {
                        obs::event(
                            "wire.seq_retry",
                            &[("id", id), ("attempt", attempt as u64)],
                        );
                        writer.write_all(frame)
                    })?;
                    if let Some(r) = gave_up.into_iter().next() {
                        // Drain period after the final attempt elapsed: the
                        // whole sequence's output is missing.
                        break (None, r.latency);
                    }
                }
            }
        };

        let mut results = Vec::with_capacity(packets.len());
        for (i, packet) in packets.iter().enumerate() {
            let obs = outputs
                .as_deref()
                .and_then(|outs| outs.iter().find(|(pid, ..)| *pid == packet.id))
                .map(|(_, bytes, port, state)| Observation {
                    packet: bytes.clone().map(|bytes| Packet {
                        bytes,
                        id: packet.id,
                    }),
                    egress_port: *port,
                    final_state: decode_state(self.program, state),
                })
                .unwrap_or_else(Observation::missing);
            let mut r =
                checker.check_case(sequence_id, &case.packets[i], packet, &expected[i], &obs);
            r.latency = latency;
            results.push(r);
        }
        Ok(results)
    }

    /// Sustained-soak mode: replays the planned cases in a loop for
    /// `cfg.duration` wall-clock time — optionally mutating each packet
    /// FP4-style ([`SoakConfig::fuzz`]) — while the agent's Prometheus
    /// `Metrics` RPC stays scrapable on a side connection. Divergences
    /// between the agent's observed behaviour and the client reference are
    /// classified by direct output comparison (not intents) into stable
    /// classes. On a faithful target every class count must be zero.
    ///
    /// Throughput accounting matches [`WireDriver::run`]: planning happens
    /// before the clock starts; `SoakStats::elapsed` covers replay only.
    pub fn soak(&self, run: &mut RunOutput, cfg: SoakConfig) -> io::Result<SoakStats> {
        obs::init_from_env();
        let mut soak_span = obs::span("wire.soak");
        let plan = plan_cases(self.program, run, self.packets_per_template);
        // The reference interpreter tallies rule hits as it computes
        // expected outputs, so the soak doubles as a coverage measurement
        // of the replayed case mix.
        let reference = SwitchTarget::new(self.program).with_tally();
        let fields = &self.program.cfg.fields;

        let mut protos: Vec<WireCase> = Vec::new();
        let mut max_id = 0u64;
        for spec in plan {
            if let CaseSpec::Case {
                template_id,
                wire_id,
                input,
            } = spec
            {
                max_id = max_id.max(wire_id);
                if let Ok(packet) = reference.plan().serialize_state(fields, &input, wire_id) {
                    protos.push(WireCase {
                        slot: usize::MAX,
                        template_id,
                        wire_id,
                        input,
                        packet,
                        expected: None,
                    });
                }
            }
        }
        if protos.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no executable cases to soak",
            ));
        }
        self.handshake()?;
        let nconn = self.connections.max(1);
        let conns = self.connect_all(nconn)?;

        let started = Instant::now();
        let source = SoakSource {
            protos,
            next: AtomicU64::new(0),
            deadline: started + cfg.duration,
            fuzz: cfg.fuzz,
            seed: cfg.seed,
            base_id: max_id + 1,
        };
        let sink = SoakSink {
            agg: Mutex::new(SoakAgg::default()),
            started,
            // ~10 curve buckets over the configured duration, never zero.
            bucket_ms: ((cfg.duration.as_millis() as u64) / 10).max(1),
            tally: reference.tally().cloned(),
        };
        self.drive(conns, &source, &sink, &reference)?;
        let elapsed = started.elapsed();

        let agg = sink.agg.into_inner().unwrap();
        let tally = reference.tally();
        let stats = SoakStats {
            elapsed,
            cases: agg.cases,
            divergent: agg.divergent,
            retried: agg.retried,
            fuzzed: cfg.fuzz,
            classes: agg
                .classes
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            rules_total: tally.map(|t| t.arms_total()).unwrap_or(0),
            rules_hit: tally.map(|t| t.arms_hit()).unwrap_or(0),
            coverage_curve: agg.curve,
        };
        self.ledger_append_soak(&stats, cfg.seed, tally);
        if obs::trace_on() {
            soak_span.field("cases", stats.cases);
            soak_span.field("divergent", stats.divergent);
            soak_span.field("rules_hit", stats.rules_hit);
            soak_span.field("rules_total", stats.rules_total);
            drop(soak_span);
            if let Err(e) = obs::flush_trace() {
                eprintln!("meissa: trace flush failed: {e}");
            }
        }
        Ok(stats)
    }

    /// Appends a soak [`RunRecord`] line to the results ledger, when the
    /// `MEISSA_LEDGER` sink is enabled. Same schema as the engine's
    /// records (`kind: "wire.soak"`), so `meissa-trace diff` can gate a
    /// soak against a prior one.
    fn ledger_append_soak(
        &self,
        stats: &SoakStats,
        seed: u64,
        tally: Option<&std::sync::Arc<meissa_dataplane::RuleTally>>,
    ) {
        use meissa_testkit::json::{Json, ToJson as _};
        use meissa_testkit::obs::ledger;
        if !ledger::enabled() {
            return;
        }
        let cfg = &self.program.cfg;
        let u64j = |v: u64| Json::UInt(v as u128);
        let mut counters: Vec<(String, Json)> = vec![
            ("cases".into(), u64j(stats.cases)),
            ("divergent".into(), u64j(stats.divergent)),
            ("retried".into(), u64j(stats.retried)),
            ("fuzzed".into(), u64j(stats.fuzzed as u64)),
            ("rules_hit".into(), u64j(stats.rules_hit)),
            ("rules_total".into(), u64j(stats.rules_total)),
            ("elapsed_ms".into(), u64j(stats.elapsed.as_millis() as u64)),
        ];
        for (class, n) in &stats.classes {
            counters.push((format!("class.{class}"), u64j(*n)));
        }
        let mut body: Vec<(String, Json)> = vec![
            ("t".into(), Json::Str("run_record".into())),
            ("kind".into(), Json::Str("wire.soak".into())),
            (
                "program_hash".into(),
                Json::Str(meissa_core::coverage::program_hash(cfg)),
            ),
            (
                "rule_set_hash".into(),
                Json::Str(meissa_core::coverage::rule_set_hash(cfg)),
            ),
            (
                "config".into(),
                Json::Str(format!(
                    "soak fuzz={} seed={} connections={}",
                    stats.fuzzed, seed, self.connections
                )),
            ),
            ("counters".into(), Json::Obj(counters)),
        ];
        if let Some(t) = tally {
            let cov = meissa_core::coverage::RuleCoverage::from_arm_counts(t.snapshot());
            body.push(("coverage".into(), cov.to_json()));
        }
        body.push((
            "curve".into(),
            Json::Arr(
                stats
                    .coverage_curve
                    .iter()
                    .map(|&(t, h)| Json::Arr(vec![u64j(t), u64j(h)]))
                    .collect(),
            ),
        ));
        let h = wire_obs().case_latency_us.clone();
        if h.count() > 0 {
            body.push((
                "latency".into(),
                Json::Obj(vec![
                    ("count".into(), u64j(h.count())),
                    ("sum".into(), u64j(h.sum())),
                    ("p50".into(), u64j(h.quantile(50))),
                    ("p99".into(), u64j(h.quantile(99))),
                ]),
            ));
        }
        if let Err(e) = ledger::append(Json::Obj(body)) {
            eprintln!("meissa: ledger append failed: {e}");
        }
    }
}

/// Knobs for [`WireDriver::soak`].
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Wall-clock replay duration.
    pub duration: Duration,
    /// Mutate each replayed packet (seeded bit flips outside the ID stamp)
    /// and judge the agent against the reference on the mutated bytes.
    pub fuzz: bool,
    /// Seed for the mutation RNG; each case derives its own stream from
    /// `seed ^ wire_id`, so a run is reproducible case-for-case.
    pub seed: u64,
}

impl SoakConfig {
    /// Environment-driven config: `MEISSA_SOAK_SECS` (default 5),
    /// `MEISSA_FUZZ` (`1`/`true` enables mutation), `MEISSA_FUZZ_SEED`.
    pub fn from_env() -> Self {
        let duration = std::env::var("MEISSA_SOAK_SECS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Duration::from_secs)
            .unwrap_or(Duration::from_secs(5));
        let fuzz = std::env::var("MEISSA_FUZZ")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        let seed = std::env::var("MEISSA_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xF00D);
        SoakConfig {
            duration,
            fuzz,
            seed,
        }
    }
}

/// The inject stage of one connection. Pulls cases as window room opens,
/// fills their expected outputs from the reference, coalesces encoded
/// frames, and flushes them in batches; services retransmissions from the
/// collect stage until it hangs up.
fn inject_stage<Src: CaseSource>(
    mut writer: TcpStream,
    source: &Src,
    reference: &SwitchTarget,
    in_flight: &AtomicUsize,
    window: usize,
    reg_tx: Sender<Pending<WireCase>>,
    retx_rx: Receiver<Vec<u8>>,
) -> io::Result<()> {
    let mut sendbuf: Vec<u8> = Vec::new();
    let mut chunk: Vec<WireCase> = Vec::new();
    let mut source_done = false;
    while !source_done {
        // Retransmit frames take priority: they are latency-critical (a
        // case is already aging) and keep the window from jamming.
        loop {
            match retx_rx.try_recv() {
                Ok(f) => sendbuf.extend_from_slice(&f),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return Ok(()), // collect gone
            }
        }
        let room = window.saturating_sub(in_flight.load(Ordering::Acquire));
        if room > 0 {
            chunk.clear();
            if !source.pull(room.min(PULL_CHUNK), &mut chunk) {
                source_done = true;
            }
            for mut case in chunk.drain(..) {
                // Compute the expected output now, off the receive path:
                // the reference interpreter runs while the agent chews on
                // already-sent cases, instead of stalling the collect loop
                // (and the whole window behind it) per response.
                case.ensure_expected(reference);
                let payload = encode_request(&Request::Inject {
                    id: case.wire_id,
                    bytes: case.packet.bytes.clone(),
                });
                let mut frame = Vec::with_capacity(payload.len() + 4);
                frame_into(&mut frame, &payload)?;
                in_flight.fetch_add(1, Ordering::AcqRel);
                // Buffer the bytes first (the write syscall happens after
                // the loop), then register — registration still precedes
                // the write, so the collect stage never sees a response
                // for an unknown case, and the frame moves into the
                // registration without a clone.
                sendbuf.extend_from_slice(&frame);
                let reg = Pending {
                    frame,
                    item: case,
                    attempts: 1,
                    first_sent: Instant::now(),
                    deadline: Instant::now(), // set properly on insert
                };
                if reg_tx.send(reg).is_err() {
                    return Ok(()); // collect gone
                }
            }
        }
        // Drain-on-idle flush: everything that accumulated this round goes
        // out in one write syscall.
        if !sendbuf.is_empty() {
            writer.write_all(&sendbuf)?;
            sendbuf.clear();
        } else if !source_done && room == 0 {
            // Window full and nothing to send: park until the collect
            // stage opens a slot (it unparks on every resolve) instead of
            // sleeping a fixed interval — a fixed sleep left the agent
            // idle for the sleep's tail after the window drained, which
            // capped throughput at window-per-sleep.
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }
    if !sendbuf.is_empty() {
        writer.write_all(&sendbuf)?;
    }
    drop(reg_tx); // tell the collect stage no more cases are coming
    // Retransmit service: the collect stage still ages pending cases;
    // write its retransmissions until it hangs up.
    loop {
        match retx_rx.recv() {
            Ok(f) => writer.write_all(&f)?,
            Err(_) => return Ok(()),
        }
    }
}

/// The normal run's sink: checker verdicts into report slots.
struct RunSink<'a> {
    checker: &'a Checker<'a>,
    slots: Mutex<Vec<Option<CaseResult>>>,
}

impl CaseSink for RunSink<'_> {
    fn resolve(
        &self,
        case: WireCase,
        obs: &Observation,
        _got_response: bool,
        _attempts: u32,
        latency: Duration,
    ) {
        let mut r = self.checker.check_case(
            case.template_id,
            &case.input,
            &case.packet,
            case.expected.as_ref().expect("expected filled at send time"),
            obs,
        );
        r.latency = latency;
        self.slots.lock().unwrap()[case.slot] = Some(r);
    }
}

/// The soak-mode source: replays the planned prototypes round-robin with
/// fresh wire ids (restamped into the packet tail) — optionally mutated —
/// until the wall-clock deadline.
struct SoakSource {
    protos: Vec<WireCase>,
    next: AtomicU64,
    deadline: Instant,
    fuzz: bool,
    seed: u64,
    /// First replay wire id, above every planned id so replayed and
    /// planned cases can never collide.
    base_id: u64,
}

impl CaseSource for SoakSource {
    fn pull(&self, max: usize, out: &mut Vec<WireCase>) -> bool {
        if Instant::now() >= self.deadline {
            return false;
        }
        for _ in 0..max {
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            let proto = &self.protos[(n as usize) % self.protos.len()];
            let wire_id = self.base_id + n;
            let mut bytes = proto.packet.bytes.clone();
            // Restamp the trailing 8-byte packet-ID so every replay is a
            // distinct case to the dedup machinery.
            let len = bytes.len();
            if len >= 8 {
                bytes[len - 8..].copy_from_slice(&wire_id.to_be_bytes());
            }
            if self.fuzz {
                mutate_packet(&mut bytes, self.seed ^ wire_id);
            }
            out.push(WireCase {
                slot: usize::MAX,
                template_id: proto.template_id,
                wire_id,
                input: proto.input.clone(),
                packet: Packet { bytes, id: wire_id },
                expected: None, // recomputed on the (possibly mutated) bytes
            });
        }
        true
    }
}

/// FP4-style mutation: one to three seeded bit flips anywhere outside the
/// trailing ID stamp. The reference runs on the same mutated bytes, so a
/// divergence is a genuine behavioural disagreement, never a mutation
/// artifact.
fn mutate_packet(bytes: &mut [u8], seed: u64) {
    let len = bytes.len().saturating_sub(8);
    if len == 0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rng.random_range(1..=3u32) {
        let i = rng.random_range(0..len);
        let bit = rng.random_range(0..8u32);
        bytes[i] ^= 1 << bit;
    }
}

#[derive(Default)]
struct SoakAgg {
    cases: u64,
    divergent: u64,
    retried: u64,
    classes: std::collections::BTreeMap<&'static str, u64>,
    /// Cumulative `(t_ms, arms_hit)` samples, one per elapsed bucket.
    /// Monotone by construction: each sample reads the tally's current
    /// cumulative hit count.
    curve: Vec<(u64, u64)>,
}

/// The soak sink: aggregate counters only (a soak produces millions of
/// cases; per-case results would be memory, not signal).
struct SoakSink {
    agg: Mutex<SoakAgg>,
    started: Instant,
    /// Coverage-curve bucket width (~duration/10).
    bucket_ms: u64,
    /// The reference's rule tally, sampled per bucket for the curve.
    tally: Option<std::sync::Arc<meissa_dataplane::RuleTally>>,
}

impl CaseSink for SoakSink {
    fn resolve(
        &self,
        case: WireCase,
        obs: &Observation,
        got_response: bool,
        attempts: u32,
        _latency: Duration,
    ) {
        let expected = case.expected.as_ref().expect("expected filled at send time");
        let class = if got_response {
            classify_divergence(expected, obs)
        } else {
            Some("no-response")
        };
        let mut agg = self.agg.lock().unwrap();
        agg.cases += 1;
        if attempts > 1 {
            agg.retried += 1;
        }
        if let Some(c) = class {
            agg.divergent += 1;
            *agg.classes.entry(c).or_insert(0) += 1;
        }
        if let Some(t) = &self.tally {
            // Sampled under the lock so both the time bucket and the
            // cumulative hit count are monotone across resolver threads.
            let elapsed = self.started.elapsed().as_millis() as u64;
            let bucket = elapsed / self.bucket_ms * self.bucket_ms;
            let hit = t.arms_hit();
            match agg.curve.last_mut() {
                // Same bucket: keep the freshest cumulative count.
                Some(last) if last.0 == bucket => last.1 = last.1.max(hit),
                _ => agg.curve.push((bucket, hit)),
            }
        }
    }
}

/// Classifies one observed-vs-expected disagreement into a stable class
/// name, by direct output comparison (not intents). `None` means the agent
/// agreed with the reference.
fn classify_divergence(expected: &TargetOutput, obs: &Observation) -> Option<&'static str> {
    match (&expected.packet, &obs.packet) {
        (Some(_), None) => return Some("missing-output"),
        (None, Some(_)) => return Some("unexpected-forward"),
        (Some(e), Some(o)) if e.bytes != o.bytes => return Some("payload-mismatch"),
        _ => {}
    }
    if expected.egress_port != obs.egress_port {
        return Some("port-mismatch");
    }
    if expected.final_state != obs.final_state {
        return Some("state-mismatch");
    }
    None
}

/// Live observability metrics for the wire client (`meissa_wire_*` in
/// the Prometheus exposition). Only touched when [`obs::active`].
struct WireObs {
    case_latency_us: std::sync::Arc<obs::Histogram>,
    retries: std::sync::Arc<obs::Counter>,
    dropped: std::sync::Arc<obs::Counter>,
}

fn wire_obs() -> &'static WireObs {
    static W: std::sync::OnceLock<WireObs> = std::sync::OnceLock::new();
    W.get_or_init(|| WireObs {
        case_latency_us: obs::histogram("wire.case_latency_us"),
        retries: obs::counter("wire.retries"),
        dropped: obs::counter("wire.dropped"),
    })
}

struct WireCase {
    /// Index into the report's case list (plan order); `usize::MAX` for
    /// soak replays, which aggregate instead of slotting.
    slot: usize,
    template_id: usize,
    wire_id: u64,
    input: ConcreteState,
    packet: Packet,
    /// Reference output, computed once in the inject stage and reused by
    /// the receive, retry, and drain-phase verdict paths.
    expected: Option<TargetOutput>,
}

impl WireCase {
    /// Fills `expected` from the reference target if this is the first
    /// consultation; later paths hit the cache.
    fn ensure_expected(&mut self, reference: &SwitchTarget) {
        if self.expected.is_none() {
            self.expected = Some(reference.inject(&self.packet));
        }
    }
}

/// Serializes an initial-register seed as `(name, width, value)` triples
/// for `InjectSeq`, in deterministic (sorted) order.
fn encode_init(program: &CompiledProgram, regs: &ConcreteState) -> Vec<(String, u16, u128)> {
    let fields = &program.cfg.fields;
    let mut triples: Vec<(String, u16, u128)> = regs
        .iter()
        .map(|(f, bv)| (fields.name(f).to_string(), bv.width(), bv.val()))
        .collect();
    triples.sort();
    triples
}

/// Rebuilds a `ConcreteState` from the agent's `(name, width, value)`
/// snapshot, resolving names against the client's own field table.
fn decode_state(program: &CompiledProgram, triples: &[(String, u16, u128)]) -> ConcreteState {
    let fields = &program.cfg.fields;
    let mut state = ConcreteState::new();
    for (name, width, val) in triples {
        if let Some(f) = fields.get(name) {
            state.set(fields, f, meissa_num::Bv::new(*width, *val));
        }
    }
    state
}

fn wait_for_hello<R: io::Read>(reader: &mut FrameReader<R>) -> io::Result<(u64, bool, String)> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(frame) = reader.poll_frame()? {
            return match decode_response(frame) {
                Ok(Response::Hello {
                    version,
                    loaded,
                    label,
                }) => Ok((version, loaded, label)),
                Ok(other) => Err(io::Error::other(format!("expected Hello, got {other:?}"))),
                Err(e) => Err(io::Error::other(format!("bad Hello frame: {e}"))),
            };
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no Hello response from agent",
            ));
        }
    }
}

/// One-shot request over a fresh connection; control responses are
/// reliable, so a single blocking read suffices.
fn oneshot(addr: impl ToSocketAddrs, req: &Request) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = FrameReader::new(stream);
    write_frame(&mut writer, &encode_request(req))?;
    let frame = reader.next_frame()?;
    decode_response(frame).map_err(|e| io::Error::other(format!("bad response: {e}")))
}

/// Handshakes with the agent, returning `(version, loaded, label)`.
pub fn hello(addr: SocketAddr) -> io::Result<(u64, bool, String)> {
    match oneshot(addr, &Request::Hello { version: PROTO_VERSION })? {
        Response::Hello {
            version,
            loaded,
            label,
        } => Ok((version, loaded, label)),
        other => Err(io::Error::other(format!("expected Hello, got {other:?}"))),
    }
}

/// Compiles and hosts a program (with an injected fault) on the agent.
pub fn load_program(
    addr: SocketAddr,
    source: &str,
    rules: &str,
    fault: Fault,
) -> io::Result<()> {
    match oneshot(
        addr,
        &Request::LoadProgram {
            source: source.into(),
            rules: rules.into(),
            fault,
        },
    )? {
        Response::Ok => Ok(()),
        Response::Err { msg } => Err(io::Error::other(msg)),
        other => Err(io::Error::other(format!("unexpected response {other:?}"))),
    }
}

/// Installs a new rule set on the agent's hosted program.
pub fn install_rules(addr: SocketAddr, rules: &str) -> io::Result<()> {
    match oneshot(addr, &Request::InstallRules { rules: rules.into() })? {
        Response::Ok => Ok(()),
        Response::Err { msg } => Err(io::Error::other(msg)),
        other => Err(io::Error::other(format!("unexpected response {other:?}"))),
    }
}

/// Traffic counters snapshot: `(injected, forwarded, dropped, per_port)`.
pub fn fetch_stats(addr: SocketAddr) -> io::Result<(u64, u64, u64, Vec<(u128, u64)>)> {
    match oneshot(addr, &Request::Stats)? {
        Response::Stats {
            injected,
            forwarded,
            dropped,
            per_port,
        } => Ok((injected, forwarded, dropped, per_port)),
        other => Err(io::Error::other(format!("unexpected response {other:?}"))),
    }
}

/// Live metrics snapshot in Prometheus text exposition format (agent
/// traffic counters plus the agent process's `testkit::obs` registry).
pub fn fetch_metrics(addr: SocketAddr) -> io::Result<String> {
    match oneshot(addr, &Request::Metrics)? {
        Response::Metrics { text } => Ok(text),
        other => Err(io::Error::other(format!("unexpected response {other:?}"))),
    }
}

/// Asks the agent to stop accepting connections.
pub fn shutdown(addr: SocketAddr) -> io::Result<()> {
    match oneshot(addr, &Request::Shutdown)? {
        Response::Ok => Ok(()),
        other => Err(io::Error::other(format!("unexpected response {other:?}"))),
    }
}
