//! The switch-agent daemon: hosts a [`SwitchTarget`] behind the wire
//! protocol, playing the role of the switch-side agent in the paper's §4
//! test setup (receive packets on an injection port, run the data plane,
//! report what came out of which logical egress port).
//!
//! One TCP connection multiplexes everything: each `Inject` is answered by
//! an `Output` frame on the same connection, tagged with the packet's id
//! and logical egress port. Per-port forwarding tallies are kept in the
//! agent's stats, so the egress-port → stream mapping is observable via
//! `Stats` without needing one socket per port.
//!
//! The connection loop is batch-oriented: it blocks for the first request,
//! then drains every further request the last socket read already buffered
//! ([`FrameReader::buffered_frame`]) — so a pipelined client's burst of N
//! injects costs one read syscall — and accumulates all N responses into
//! one output buffer flushed with a single `write`. Data-plane responses
//! (`Output`, `SeqOutput`) are binary, control responses JSON; a frame the
//! codec rejects — truncated, an unknown opcode, or a data-plane message
//! sent as JSON — is answered with `Err` and the connection carries on.

use crate::fault::{FaultGate, TransportFaults};
use crate::proto::{self, encode_response, Request, Response, PROTO_VERSION};
use meissa_dataplane::{Packet, SwitchTarget};
use meissa_ir::ConcreteState;
use meissa_lang::{compile, parse_program, parse_rules, CompiledProgram};
use meissa_testkit::wire::{frame_into, FrameReader};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// A program hosted by the agent.
struct Hosted {
    target: SwitchTarget,
    /// Source text, kept for `InstallRules` recompiles. Absent when the
    /// target was handed to [`Agent::spawn`] pre-built.
    source: Option<String>,
}

/// Cumulative traffic counters. The headline tallies are atomics so
/// concurrent connections never serialize on a lock in the inject path;
/// only the per-port map — touched solely for forwarded packets — sits
/// behind a (narrow) mutex.
#[derive(Default)]
struct AgentStats {
    injected: AtomicU64,
    forwarded: AtomicU64,
    dropped: AtomicU64,
    /// Forwarded count per logical egress port value.
    per_port: Mutex<BTreeMap<u128, u64>>,
}

struct Shared {
    addr: SocketAddr,
    hosted: RwLock<Option<Hosted>>,
    stats: AgentStats,
    stop: AtomicBool,
    conn_seq: AtomicU64,
    faults: Option<TransportFaults>,
}

/// Handle to a running agent: its address, and the accept thread to join
/// on shutdown.
pub struct AgentHandle {
    addr: SocketAddr,
    accept: JoinHandle<()>,
    shared: Arc<Shared>,
}

impl AgentHandle {
    /// The address the agent listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the agent: best-effort `Shutdown` frame, then joins the accept
    /// loop.
    pub fn shutdown(self) {
        if !self.shared.stop.load(Ordering::SeqCst) {
            let _ = crate::client::shutdown(self.addr);
        }
        let _ = self.accept.join();
    }

    /// Blocks until some client sends `Shutdown` (the daemon main loop).
    pub fn wait(self) {
        let _ = self.accept.join();
    }
}

/// The switch-agent daemon.
pub struct Agent;

impl Agent {
    /// Spawns an agent on an ephemeral loopback port, optionally pre-loaded
    /// with a target and optionally with transport faults on its `Output`
    /// path.
    pub fn spawn(
        target: Option<SwitchTarget>,
        faults: Option<TransportFaults>,
    ) -> io::Result<AgentHandle> {
        Self::serve(TcpListener::bind("127.0.0.1:0")?, target, faults)
    }

    /// Runs an agent on an already-bound listener.
    pub fn serve(
        listener: TcpListener,
        target: Option<SwitchTarget>,
        faults: Option<TransportFaults>,
    ) -> io::Result<AgentHandle> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            addr,
            hosted: RwLock::new(target.map(|t| Hosted {
                // Hosted targets always tally rule hits: the accounting is
                // lock-free and makes per-rule coverage scrapable mid-soak.
                target: t.with_tally(),
                source: None,
            })),
            stats: AgentStats::default(),
            stop: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            faults,
        });
        let accept_shared = shared.clone();
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_shared = accept_shared.clone();
                std::thread::spawn(move || {
                    let _ = handle_conn(conn_shared, stream);
                });
            }
        });
        Ok(AgentHandle {
            addr,
            accept,
            shared,
        })
    }
}

fn compile_target(
    source: &str,
    rules: &str,
    fault: meissa_dataplane::Fault,
) -> Result<SwitchTarget, String> {
    let prog = parse_program(source).map_err(|e| format!("parse error: {e}"))?;
    let ruleset = parse_rules(rules).map_err(|e| format!("rules parse error: {e}"))?;
    let cp = compile(&prog, &ruleset).map_err(|e| format!("compile error: {e}"))?;
    Ok(SwitchTarget::with_fault(&cp, fault).with_tally())
}

/// Serializes a final state as `(name, width, value)` triples, in the
/// field table's deterministic id order.
fn encode_state(program: &CompiledProgram, state: &ConcreteState) -> Vec<(String, u16, u128)> {
    let fields = &program.cfg.fields;
    let mut triples: Vec<(String, u16, u128)> = state
        .iter()
        .map(|(f, bv)| (fields.name(f).to_string(), bv.width(), bv.val()))
        .collect();
    triples.sort();
    triples
}

/// Renders the agent's live traffic counters — plus every `testkit::obs`
/// metric registered in this process — in Prometheus text exposition
/// format. Reads only atomics and a narrow per-port lock, so scraping
/// mid-run never stalls the inject path.
fn metrics_exposition(stats: &AgentStats, target: Option<&SwitchTarget>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# TYPE meissa_agent_injected_total counter\nmeissa_agent_injected_total {}\n",
        stats.injected.load(Ordering::Relaxed)
    ));
    out.push_str(&format!(
        "# TYPE meissa_agent_forwarded_total counter\nmeissa_agent_forwarded_total {}\n",
        stats.forwarded.load(Ordering::Relaxed)
    ));
    out.push_str(&format!(
        "# TYPE meissa_agent_dropped_total counter\nmeissa_agent_dropped_total {}\n",
        stats.dropped.load(Ordering::Relaxed)
    ));
    {
        let per_port = stats.per_port.lock().unwrap();
        if !per_port.is_empty() {
            out.push_str("# TYPE meissa_agent_port_forwarded_total counter\n");
            for (&port, &n) in per_port.iter() {
                out.push_str(&format!(
                    "meissa_agent_port_forwarded_total{{port=\"{port}\"}} {n}\n"
                ));
            }
        }
    }
    if let Some(tally) = target.and_then(|t| t.tally()) {
        // Every arm, zero-hit included: the scraper sees the coverage
        // denominator, not just what happened to fire.
        out.push_str("# TYPE meissa_agent_rule_hits_total counter\n");
        for (table, arm, hits) in tally.snapshot() {
            let arm_label = match arm {
                meissa_ir::RuleArm::Rule(i) => i.to_string(),
                meissa_ir::RuleArm::Miss => "miss".to_string(),
            };
            out.push_str(&format!(
                "meissa_agent_rule_hits_total{{table=\"{table}\",arm=\"{arm_label}\"}} {hits}\n"
            ));
        }
    }
    out.push_str(&meissa_testkit::obs::metrics_text());
    out
}

/// Decodes one request off the wire to owned data, so the reader's buffer
/// can be reused for the next frame in the batch. An undecodable frame
/// becomes the message of the `Err` that answers it.
fn parse_frame(frame: &[u8]) -> Result<Request, String> {
    proto::decode_request(frame).map_err(|e| format!("bad request: {e}"))
}

/// Appends a reliable (control-path) response to the batch buffer.
fn push_reliable(out: &mut Vec<u8>, resp: &Response) -> io::Result<()> {
    frame_into(out, &encode_response(resp))
}

/// Processes one request, appending its response(s) to `out`. Returns
/// `true` when the request was `Shutdown`.
fn dispatch(
    sh: &Shared,
    gate: &mut Option<FaultGate>,
    parsed: Result<Request, String>,
    out: &mut Vec<u8>,
) -> io::Result<bool> {
    let req = match parsed {
        Ok(req) => req,
        Err(msg) => {
            push_reliable(out, &Response::Err { msg })?;
            return Ok(false);
        }
    };
    match req {
        Request::Hello { .. } => {
            let (loaded, label) = match &*sh.hosted.read().unwrap() {
                Some(h) => (true, h.target.fault().name().to_string()),
                None => (false, "none".to_string()),
            };
            push_reliable(
                out,
                &Response::Hello {
                    version: PROTO_VERSION,
                    loaded,
                    label,
                },
            )?;
        }
        Request::LoadProgram {
            source,
            rules,
            fault,
        } => {
            let resp = match compile_target(&source, &rules, fault) {
                Ok(target) => {
                    *sh.hosted.write().unwrap() = Some(Hosted {
                        target,
                        source: Some(source),
                    });
                    Response::Ok
                }
                Err(msg) => Response::Err { msg },
            };
            push_reliable(out, &resp)?;
        }
        Request::InstallRules { rules } => {
            let mut hosted = sh.hosted.write().unwrap();
            let resp = match hosted.as_ref().and_then(|h| h.source.clone()) {
                None => Response::Err {
                    msg: "no recompilable program loaded (agent holds a pre-built target)".into(),
                },
                Some(source) => {
                    let fault = hosted.as_ref().unwrap().target.fault().clone();
                    match compile_target(&source, &rules, fault) {
                        Ok(target) => {
                            *hosted = Some(Hosted {
                                target,
                                source: Some(source),
                            });
                            Response::Ok
                        }
                        Err(msg) => Response::Err { msg },
                    }
                }
            };
            drop(hosted);
            push_reliable(out, &resp)?;
        }
        Request::Inject { id, bytes } => {
            let hosted = sh.hosted.read().unwrap();
            let Some(h) = hosted.as_ref() else {
                drop(hosted);
                push_reliable(
                    out,
                    &Response::Err {
                        msg: "no program loaded".into(),
                    },
                )?;
                return Ok(false);
            };
            let out_pkt = h.target.inject(&Packet { bytes, id });
            // Outputs ride the (possibly faulty) data path, encoded
            // straight from the target output — no intermediate
            // `Response` and no per-field `String` allocations.
            let fields = &h.target.program().cfg.fields;
            let payload = proto::encode_output_bin(
                id,
                out_pkt.packet.as_ref().map(|p| p.bytes.as_slice()),
                out_pkt.egress_port,
                out_pkt
                    .final_state
                    .iter()
                    .map(|(f, bv)| (fields.name(f), bv.width(), bv.val())),
            );
            let forwarded = out_pkt.packet.is_some();
            let port = out_pkt.egress_port;
            drop(hosted);
            sh.stats.injected.fetch_add(1, Ordering::Relaxed);
            if forwarded {
                sh.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                if let Some(bv) = port {
                    let mut per_port = sh.stats.per_port.lock().unwrap();
                    *per_port.entry(bv.val()).or_insert(0) += 1;
                }
            } else {
                sh.stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
            match gate.as_mut() {
                Some(g) => g.send(out, payload)?,
                None => frame_into(out, &payload)?,
            }
        }
        Request::InjectSeq { id, packets, init } => {
            let hosted = sh.hosted.read().unwrap();
            let Some(h) = hosted.as_ref() else {
                drop(hosted);
                push_reliable(
                    out,
                    &Response::Err {
                        msg: "no program loaded".into(),
                    },
                )?;
                return Ok(false);
            };
            // Seed a fresh register file from the request's triples.
            // Every attempt restarts from the same seed, so a retried
            // sequence (lost SeqOutput) is idempotent — no interleaving
            // with other injects is possible while this arm runs,
            // because the whole sequence executes under one read-lock
            // acquisition against the target's internal register
            // threading.
            let fields = &h.target.program().cfg.fields;
            let mut seed = ConcreteState::new();
            for (name, width, val) in &init {
                if let Some(f) = fields.get(name) {
                    seed.set(fields, f, meissa_num::Bv::new(*width, *val));
                }
            }
            let wire_packets: Vec<Packet> = packets
                .into_iter()
                .map(|(pid, bytes)| Packet { bytes, id: pid })
                .collect();
            let outs = h.target.inject_sequence(&wire_packets, &seed);
            let outputs: Vec<_> = wire_packets
                .iter()
                .zip(outs.iter())
                .map(|(p, out)| {
                    (
                        p.id,
                        out.packet.as_ref().map(|pk| pk.bytes.clone()),
                        out.egress_port,
                        encode_state(h.target.program(), &out.final_state),
                    )
                })
                .collect();
            drop(hosted);
            sh.stats
                .injected
                .fetch_add(outputs.len() as u64, Ordering::Relaxed);
            for (_, packet, port, _) in &outputs {
                if packet.is_some() {
                    sh.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                    if let Some(bv) = port {
                        let mut per_port = sh.stats.per_port.lock().unwrap();
                        *per_port.entry(bv.val()).or_insert(0) += 1;
                    }
                } else {
                    sh.stats.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            // One SeqOutput frame for the whole sequence, riding the
            // (possibly faulty) data path like per-packet Outputs do:
            // a fault drops/duplicates/delays the *sequence's* frame,
            // never reorders packets within it — FIFO within a
            // sequence is the contract.
            let resp = Response::SeqOutput { id, outputs };
            let payload = encode_response(&resp);
            match gate.as_mut() {
                Some(g) => g.send(out, payload)?,
                None => frame_into(out, &payload)?,
            }
        }
        Request::Stats => {
            let per_port: Vec<(u128, u64)> = {
                let map = sh.stats.per_port.lock().unwrap();
                map.iter().map(|(&p, &n)| (p, n)).collect()
            };
            let resp = Response::Stats {
                injected: sh.stats.injected.load(Ordering::Relaxed),
                forwarded: sh.stats.forwarded.load(Ordering::Relaxed),
                dropped: sh.stats.dropped.load(Ordering::Relaxed),
                per_port,
            };
            push_reliable(out, &resp)?;
        }
        Request::Metrics => {
            let text = {
                let hosted = sh.hosted.read().unwrap();
                metrics_exposition(&sh.stats, hosted.as_ref().map(|h| &h.target))
            };
            let resp = Response::Metrics { text };
            push_reliable(out, &resp)?;
        }
        Request::Shutdown => {
            push_reliable(out, &Response::Ok)?;
            return Ok(true);
        }
    }
    Ok(false)
}

fn handle_conn(sh: Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let conn_id = sh.conn_seq.fetch_add(1, Ordering::SeqCst);
    let mut gate = sh.faults.map(|f| FaultGate::new(f, conn_id));
    let mut reader = FrameReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut out: Vec<u8> = Vec::new();
    loop {
        // Block for the first request of a batch; a hangup (or stream
        // error) ends the connection.
        let first = match reader.next_frame() {
            Ok(f) => parse_frame(f),
            Err(_) => return Ok(()),
        };
        out.clear();
        let mut stop = dispatch(&sh, &mut gate, first, &mut out)?;
        // Drain every request the last read already buffered — a pipelined
        // client's burst is served with zero additional read syscalls, and
        // all its responses coalesce into the single write below.
        while !stop {
            let parsed = match reader.buffered_frame()? {
                Some(f) => parse_frame(f),
                None => break,
            };
            stop = dispatch(&sh, &mut gate, parsed, &mut out)?;
        }
        writer.write_all(&out)?;
        if stop {
            sh.stop.store(true, Ordering::SeqCst);
            // Poke the accept loop so it notices the stop flag.
            let _ = TcpStream::connect(sh.addr);
            return Ok(());
        }
    }
}
