//! The agent wire protocol: messages in length-prefixed frames
//! (`meissa_testkit::wire`), with one encoding per message kind.
//!
//! Control messages (`Hello`/`LoadProgram`/`InstallRules`/`Stats`/
//! `Metrics`/`Shutdown` and their answers) are JSON objects whose `"t"`
//! field names the message type — they are rare, and staying textual
//! keeps them debuggable with `tcpdump`. The **data-plane** messages —
//! `Inject`/`Output`/`InjectSeq`/`SeqOutput`, the per-case hot path — use
//! a compact fixed-width binary layout whose first byte is an opcode in
//! `0x01..=0x04`. A JSON frame always starts with `{` (0x7b), so each
//! frame is self-describing: the decoders sniff the first byte, and both
//! kinds share one connection. A client refuses an agent whose `Hello`
//! reports a version older than [`PROTO_VERSION`].
//!
//! Requests flow client → agent; each `Inject` is answered by one `Output`
//! on the same connection (the agent maps the injected packet's logical
//! egress port back onto the response, so one TCP connection multiplexes
//! all egress ports). The transport fault layer perturbs `Output` frames
//! only — control responses stay reliable, like a management channel
//! beside a lossy data plane.

use meissa_dataplane::Fault;
use meissa_num::Bv;
use meissa_testkit::json::{tagged, untag, FromJson, Json, JsonError, ToJson};
use meissa_testkit::wire::{BinReader, BinWriter};

/// Protocol version, exchanged in `Hello`. Version 2 carries the
/// data-plane messages in binary; version 1 carried them as JSON.
pub const PROTO_VERSION: u64 = 2;

/// Binary opcodes. A JSON frame's first byte is `{` (0x7b), far from this
/// range, so sniffing the first byte classifies every frame.
const OP_INJECT: u8 = 0x01;
const OP_OUTPUT: u8 = 0x02;
const OP_INJECT_SEQ: u8 = 0x03;
const OP_SEQ_OUTPUT: u8 = 0x04;

/// True when a frame payload is binary (leading data-plane opcode byte).
pub fn is_binary(payload: &[u8]) -> bool {
    matches!(payload.first(), Some(&(OP_INJECT..=OP_SEQ_OUTPUT)))
}

/// Client → agent messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake; the agent answers with [`Response::Hello`].
    Hello {
        /// Client protocol version.
        version: u64,
    },
    /// Compile `source` + `rules` agent-side and host the result with the
    /// given injected backend fault.
    LoadProgram {
        /// Program source text.
        source: String,
        /// Rule-set text.
        rules: String,
        /// Backend fault to inject (`Fault::None` for a faithful target).
        fault: Fault,
    },
    /// Recompile the hosted program with a new rule set.
    InstallRules {
        /// Rule-set text.
        rules: String,
    },
    /// Inject one packet; answered by [`Response::Output`] carrying `id`.
    Inject {
        /// The packet-ID stamp (§4) — echoed in the response.
        id: u64,
        /// Raw packet bytes.
        bytes: Vec<u8>,
    },
    /// Inject an ordered packet sequence against a fresh register file
    /// seeded from `init`; the agent executes it atomically (in-order, no
    /// interleaving with other injects) and answers with one
    /// [`Response::SeqOutput`]. Because every attempt restarts from the
    /// same seeded register file, a retry after a lost response is
    /// idempotent.
    InjectSeq {
        /// Sequence id — echoed in the response.
        id: u64,
        /// Ordered `(packet-ID stamp, bytes)` pairs.
        packets: Vec<(u64, Vec<u8>)>,
        /// Initial register cells as `(field name, width, value)` triples;
        /// unlisted cells start at zero.
        init: Vec<(String, u16, u128)>,
    },
    /// Ask for cumulative traffic counters.
    Stats,
    /// Ask for a live metrics snapshot in Prometheus text exposition
    /// format (agent traffic counters plus every `testkit::obs` metric
    /// registered in the agent process); answered by
    /// [`Response::Metrics`]. Scrapable mid-run — the counters are plain
    /// atomics, so a management-channel request never blocks the data
    /// path.
    Metrics,
    /// Stop the agent's accept loop.
    Shutdown,
}

/// Agent → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake answer.
    Hello {
        /// Agent protocol version.
        version: u64,
        /// Whether a program is currently hosted.
        loaded: bool,
        /// The hosted target's fault label (`"none"` when faithful or when
        /// nothing is loaded) — becomes the report's `target_label`.
        label: String,
    },
    /// Success without payload.
    Ok,
    /// Failure; the connection stays usable.
    Err {
        /// What went wrong.
        msg: String,
    },
    /// The switch's observable behaviour for one injected packet.
    Output {
        /// Echo of the inject's packet-ID stamp.
        id: u64,
        /// Emitted packet bytes, or `None` for a drop.
        packet: Option<Vec<u8>>,
        /// Logical egress port, when forwarded.
        port: Option<Bv>,
        /// Final-state snapshot as `(field name, width, value)` triples —
        /// the hardware-model register dump the checker validates intents
        /// against.
        state: Vec<(String, u16, u128)>,
    },
    /// The switch's observable behaviour for one injected sequence: a
    /// per-packet `(id, packet, port, state)` record in injection order.
    SeqOutput {
        /// Echo of the sequence id.
        id: u64,
        /// One `(packet-ID stamp, emitted bytes, egress port, final-state
        /// snapshot)` record per injected packet, in order.
        outputs: Vec<(u64, Option<Vec<u8>>, Option<Bv>, Vec<(String, u16, u128)>)>,
    },
    /// Prometheus text exposition of the agent's live counters.
    Metrics {
        /// `# TYPE` lines plus samples, one metric per stanza.
        text: String,
    },
    /// Cumulative traffic counters.
    Stats {
        /// Packets injected.
        injected: u64,
        /// Packets forwarded.
        forwarded: u64,
        /// Packets dropped.
        dropped: u64,
        /// Forwarded-packet tally per logical egress port value.
        per_port: Vec<(u128, u64)>,
    },
}

/// Encodes a [`Fault`] as JSON, tagged with its [`Fault::name`] string.
pub fn fault_to_json(fault: &Fault) -> Json {
    match fault {
        Fault::None | Fault::ChecksumNotUpdated | Fault::PriorityInverted => {
            Json::Str(fault.name().into())
        }
        Fault::SetValidDropped { header } => tagged(
            fault.name(),
            Json::Obj(vec![("header".into(), header.to_json())]),
        ),
        Fault::FieldOverlap { a, b } => tagged(
            fault.name(),
            Json::Obj(vec![("a".into(), a.to_json()), ("b".into(), b.to_json())]),
        ),
        Fault::WrongArithComparison { width } => tagged(
            fault.name(),
            Json::Obj(vec![("width".into(), (*width as u64).to_json())]),
        ),
        Fault::WrongAssignment { intended, actual } => tagged(
            fault.name(),
            Json::Obj(vec![
                ("intended".into(), intended.to_json()),
                ("actual".into(), actual.to_json()),
            ]),
        ),
        Fault::WrongConstant { field, xor_mask } => tagged(
            fault.name(),
            Json::Obj(vec![
                ("field".into(), field.to_json()),
                ("xor_mask".into(), Json::UInt(*xor_mask)),
            ]),
        ),
    }
}

/// Decodes a [`Fault`] from its tagged JSON encoding.
pub fn fault_from_json(v: &Json) -> Result<Fault, JsonError> {
    let (tag, payload) = untag(v)?;
    Ok(match tag {
        "none" => Fault::None,
        "checksum-not-updated" => Fault::ChecksumNotUpdated,
        "priority-inverted" => Fault::PriorityInverted,
        "setValid-dropped" => Fault::SetValidDropped {
            header: String::from_json(payload.field("header")?)?,
        },
        "field-overlap" => Fault::FieldOverlap {
            a: String::from_json(payload.field("a")?)?,
            b: String::from_json(payload.field("b")?)?,
        },
        "wrong-arith-comparison" => Fault::WrongArithComparison {
            width: u16::from_json(payload.field("width")?)?,
        },
        "wrong-assignment" => Fault::WrongAssignment {
            intended: String::from_json(payload.field("intended")?)?,
            actual: String::from_json(payload.field("actual")?)?,
        },
        "wrong-constant" => Fault::WrongConstant {
            field: String::from_json(payload.field("field")?)?,
            xor_mask: payload.field("xor_mask")?.as_u128()?,
        },
        other => return Err(JsonError::new(format!("unknown fault tag `{other}`"))),
    })
}

fn obj(t: &str, mut rest: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![("t".to_string(), Json::Str(t.into()))];
    pairs.append(&mut rest);
    Json::Obj(pairs)
}

// ---------------------------------------------------------------------------
// Binary layouts of the data-plane messages.
//
// Layouts (all integers big-endian, fixed width):
//   Inject     = 0x01 id:u64 len:u32 bytes[len]
//   Output     = 0x02 id:u64 packet:opt(bytes) port:opt(bv) state
//   InjectSeq  = 0x03 id:u64 n:u32 (pid:u64 len:u32 bytes[len])*n state
//   SeqOutput  = 0x04 id:u64 n:u32 (pid:u64 packet:opt port:opt state)*n
// where
//   opt(x) = present:u8 x?          (present in {0, 1})
//   bv     = width:u16 value[ceil(width/8)]   (big-endian low bytes)
//   state  = n:u32 (name:str16 bv)*n
//   str16  = len:u16 utf8[len]
//
// Bitvector values carry only as many bytes as their width implies — most
// header fields are 1–4 bytes wide, so a fixed 16-byte value would more
// than double a typical state snapshot.
// ---------------------------------------------------------------------------

fn bin_bv(w: &mut BinWriter, width: u16, val: u128) {
    w.u16(width);
    let nb = (width as usize).div_ceil(8).min(16);
    w.raw(&val.to_be_bytes()[16 - nb..]);
}

fn bin_bv_rd(r: &mut BinReader) -> std::io::Result<(u16, u128)> {
    let width = r.u16()?;
    if width > 128 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "binary frame: bitvector wider than 128",
        ));
    }
    let nb = (width as usize).div_ceil(8);
    let mut val = 0u128;
    for &b in r.raw(nb)? {
        val = (val << 8) | b as u128;
    }
    Ok((width, val))
}

fn bin_state(w: &mut BinWriter, state: &[(String, u16, u128)]) {
    w.u32(state.len() as u32);
    for (name, width, val) in state {
        w.str16(name);
        bin_bv(w, *width, *val);
    }
}

fn bin_state_rd(r: &mut BinReader) -> std::io::Result<Vec<(String, u16, u128)>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let name = r.str16()?.to_string();
        let (width, val) = bin_bv_rd(r)?;
        out.push((name, width, val));
    }
    Ok(out)
}

fn bin_opt_packet(w: &mut BinWriter, packet: Option<&[u8]>) {
    match packet {
        Some(bytes) => {
            w.u8(1);
            w.bytes(bytes);
        }
        None => w.u8(0),
    }
}

fn bin_opt_packet_rd(r: &mut BinReader) -> std::io::Result<Option<Vec<u8>>> {
    match r.u8()? {
        0 => Ok(None),
        _ => Ok(Some(r.bytes()?.to_vec())),
    }
}

fn bin_opt_port(w: &mut BinWriter, port: &Option<Bv>) {
    match port {
        Some(bv) => {
            w.u8(1);
            bin_bv(w, bv.width(), bv.val());
        }
        None => w.u8(0),
    }
}

fn bin_opt_port_rd(r: &mut BinReader) -> std::io::Result<Option<Bv>> {
    match r.u8()? {
        0 => Ok(None),
        _ => {
            let (width, val) = bin_bv_rd(r)?;
            Ok(Some(Bv::new(width, val)))
        }
    }
}

/// Encodes a request into frame payload bytes: binary for `Inject` and
/// `InjectSeq`, a JSON object for every control request.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let json = match req {
        Request::Inject { id, bytes } => {
            let mut w = BinWriter::new();
            w.u8(OP_INJECT);
            w.u64(*id);
            w.bytes(bytes);
            return w.finish();
        }
        Request::InjectSeq { id, packets, init } => {
            let mut w = BinWriter::new();
            w.u8(OP_INJECT_SEQ);
            w.u64(*id);
            w.u32(packets.len() as u32);
            for (pid, bytes) in packets {
                w.u64(*pid);
                w.bytes(bytes);
            }
            bin_state(&mut w, init);
            return w.finish();
        }
        Request::Hello { version } => obj("hello", vec![("v".into(), version.to_json())]),
        Request::LoadProgram {
            source,
            rules,
            fault,
        } => obj(
            "load_program",
            vec![
                ("source".into(), source.to_json()),
                ("rules".into(), rules.to_json()),
                ("fault".into(), fault_to_json(fault)),
            ],
        ),
        Request::InstallRules { rules } => {
            obj("install_rules", vec![("rules".into(), rules.to_json())])
        }
        Request::Stats => obj("stats", vec![]),
        Request::Metrics => obj("metrics", vec![]),
        Request::Shutdown => obj("shutdown", vec![]),
    };
    json.to_text().into_bytes()
}

/// Encodes an `Output` response directly from borrowed parts — the
/// agent's hot path, skipping the intermediate [`Response`] and its
/// per-field `String` allocations. Byte-identical to
/// [`encode_response`] of the equivalent `Response::Output` with its
/// state entries sorted by name.
pub fn encode_output_bin<'a>(
    id: u64,
    packet: Option<&[u8]>,
    port: Option<Bv>,
    state: impl Iterator<Item = (&'a str, u16, u128)>,
) -> Vec<u8> {
    let mut entries: Vec<(&str, u16, u128)> = state.collect();
    entries.sort();
    let mut w = BinWriter::new();
    w.u8(OP_OUTPUT);
    w.u64(id);
    bin_opt_packet(&mut w, packet);
    bin_opt_port(&mut w, &port);
    w.u32(entries.len() as u32);
    for (name, width, val) in entries {
        w.str16(name);
        bin_bv(&mut w, width, val);
    }
    w.finish()
}

/// Encodes a response into frame payload bytes: binary for `Output` and
/// `SeqOutput`, a JSON object for every control response.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let json = match resp {
        Response::Output {
            id,
            packet,
            port,
            state,
        } => {
            let mut w = BinWriter::new();
            w.u8(OP_OUTPUT);
            w.u64(*id);
            bin_opt_packet(&mut w, packet.as_deref());
            bin_opt_port(&mut w, port);
            bin_state(&mut w, state);
            return w.finish();
        }
        Response::SeqOutput { id, outputs } => {
            let mut w = BinWriter::new();
            w.u8(OP_SEQ_OUTPUT);
            w.u64(*id);
            w.u32(outputs.len() as u32);
            for (pid, packet, port, state) in outputs {
                w.u64(*pid);
                bin_opt_packet(&mut w, packet.as_deref());
                bin_opt_port(&mut w, port);
                bin_state(&mut w, state);
            }
            return w.finish();
        }
        Response::Hello {
            version,
            loaded,
            label,
        } => obj(
            "hello",
            vec![
                ("v".into(), version.to_json()),
                ("loaded".into(), loaded.to_json()),
                ("label".into(), label.to_json()),
            ],
        ),
        Response::Ok => obj("ok", vec![]),
        Response::Err { msg } => obj("err", vec![("msg".into(), msg.to_json())]),
        Response::Metrics { text } => obj("metrics", vec![("text".into(), text.to_json())]),
        Response::Stats {
            injected,
            forwarded,
            dropped,
            per_port,
        } => obj(
            "stats",
            vec![
                ("injected".into(), injected.to_json()),
                ("forwarded".into(), forwarded.to_json()),
                ("dropped".into(), dropped.to_json()),
                (
                    "per_port".into(),
                    Json::Arr(
                        per_port
                            .iter()
                            .map(|(port, n)| {
                                Json::Arr(vec![Json::UInt(*port), Json::UInt(*n as u128)])
                            })
                            .collect(),
                    ),
                ),
            ],
        ),
    };
    json.to_text().into_bytes()
}

fn bad(e: std::io::Error) -> JsonError {
    JsonError::new(format!("binary frame: {e}"))
}

/// Parses a control frame's JSON object. A non-binary frame that does not
/// start with `{` carries an opcode this protocol does not define.
fn control_json(payload: &[u8]) -> Result<Json, JsonError> {
    match payload.first() {
        Some(b'{') => {}
        Some(op) => return Err(JsonError::new(format!("unknown opcode {op:#04x}"))),
        None => return Err(JsonError::new("empty frame")),
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| JsonError::new("frame payload is not UTF-8"))?;
    Json::parse(text)
}

fn decode_request_bin(payload: &[u8]) -> Result<Request, JsonError> {
    let mut r = BinReader::new(payload);
    let op = r.u8().map_err(bad)?;
    let req = match op {
        OP_INJECT => Request::Inject {
            id: r.u64().map_err(bad)?,
            bytes: r.bytes().map_err(bad)?.to_vec(),
        },
        OP_INJECT_SEQ => {
            let id = r.u64().map_err(bad)?;
            let n = r.u32().map_err(bad)? as usize;
            let mut packets = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let pid = r.u64().map_err(bad)?;
                let bytes = r.bytes().map_err(bad)?.to_vec();
                packets.push((pid, bytes));
            }
            let init = bin_state_rd(&mut r).map_err(bad)?;
            Request::InjectSeq { id, packets, init }
        }
        other => return Err(JsonError::new(format!("unknown binary request op {other:#x}"))),
    };
    if !r.is_done() {
        return Err(JsonError::new("binary request has trailing bytes"));
    }
    Ok(req)
}

fn decode_response_bin(payload: &[u8]) -> Result<Response, JsonError> {
    let mut r = BinReader::new(payload);
    let op = r.u8().map_err(bad)?;
    let resp = match op {
        OP_OUTPUT => Response::Output {
            id: r.u64().map_err(bad)?,
            packet: bin_opt_packet_rd(&mut r).map_err(bad)?,
            port: bin_opt_port_rd(&mut r).map_err(bad)?,
            state: bin_state_rd(&mut r).map_err(bad)?,
        },
        OP_SEQ_OUTPUT => {
            let id = r.u64().map_err(bad)?;
            let n = r.u32().map_err(bad)? as usize;
            let mut outputs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let pid = r.u64().map_err(bad)?;
                let packet = bin_opt_packet_rd(&mut r).map_err(bad)?;
                let port = bin_opt_port_rd(&mut r).map_err(bad)?;
                let state = bin_state_rd(&mut r).map_err(bad)?;
                outputs.push((pid, packet, port, state));
            }
            Response::SeqOutput { id, outputs }
        }
        other => {
            return Err(JsonError::new(format!(
                "unknown binary response op {other:#x}"
            )))
        }
    };
    if !r.is_done() {
        return Err(JsonError::new("binary response has trailing bytes"));
    }
    Ok(resp)
}

/// Decodes a request frame, sniffing its first byte: an opcode selects a
/// binary data-plane layout, `{` a JSON control message. Fails on a
/// truncated frame, trailing bytes, an unknown opcode or message type,
/// and bad JSON — including a data-plane message sent as JSON.
pub fn decode_request(payload: &[u8]) -> Result<Request, JsonError> {
    if is_binary(payload) {
        return decode_request_bin(payload);
    }
    let v = control_json(payload)?;
    Ok(match v.field("t")?.as_str()? {
        "hello" => Request::Hello {
            version: u64::from_json(v.field("v")?)?,
        },
        "load_program" => Request::LoadProgram {
            source: String::from_json(v.field("source")?)?,
            rules: String::from_json(v.field("rules")?)?,
            fault: fault_from_json(v.field("fault")?)?,
        },
        "install_rules" => Request::InstallRules {
            rules: String::from_json(v.field("rules")?)?,
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => return Err(JsonError::new(format!("unknown request `{other}`"))),
    })
}

/// Decodes a response frame, sniffing its first byte like
/// [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, JsonError> {
    if is_binary(payload) {
        return decode_response_bin(payload);
    }
    let v = control_json(payload)?;
    Ok(match v.field("t")?.as_str()? {
        "hello" => Response::Hello {
            version: u64::from_json(v.field("v")?)?,
            loaded: v.field("loaded")?.as_bool()?,
            label: String::from_json(v.field("label")?)?,
        },
        "ok" => Response::Ok,
        "err" => Response::Err {
            msg: String::from_json(v.field("msg")?)?,
        },
        "metrics" => Response::Metrics {
            text: String::from_json(v.field("text")?)?,
        },
        "stats" => Response::Stats {
            injected: u64::from_json(v.field("injected")?)?,
            forwarded: u64::from_json(v.field("forwarded")?)?,
            dropped: u64::from_json(v.field("dropped")?)?,
            per_port: {
                let mut pairs = Vec::new();
                for item in v.field("per_port")?.as_arr()? {
                    let row = item.as_arr()?;
                    if row.len() != 2 {
                        return Err(JsonError::new("Stats.per_port row must be a pair"));
                    }
                    pairs.push((row[0].as_u128()?, u64::from_json(&row[1])?));
                }
                pairs
            },
        },
        other => return Err(JsonError::new(format!("unknown response `{other}`"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
    }

    fn roundtrip_resp(r: Response) {
        assert_eq!(decode_response(&encode_response(&r)).unwrap(), r);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello { version: 1 });
        roundtrip_req(Request::LoadProgram {
            source: "header h { x: 8; }".into(),
            rules: "".into(),
            fault: Fault::WrongArithComparison { width: 16 },
        });
        roundtrip_req(Request::InstallRules { rules: "r".into() });
        roundtrip_req(Request::Inject {
            id: 42,
            bytes: vec![0x00, 0xff, 0x10],
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn sequence_messages_roundtrip() {
        roundtrip_req(Request::InjectSeq {
            id: 3,
            packets: vec![(10, vec![0xde, 0xad]), (11, vec![0xbe, 0xef, 0x01])],
            init: vec![("REG:seen-POS:0".into(), 1, 1)],
        });
        roundtrip_req(Request::InjectSeq {
            id: 4,
            packets: vec![],
            init: vec![],
        });
        roundtrip_resp(Response::SeqOutput {
            id: 3,
            outputs: vec![
                (
                    10,
                    Some(vec![1, 2]),
                    Some(Bv::new(9, 3)),
                    vec![("REG:seen-POS:0".into(), 1, 1)],
                ),
                (11, None, None, vec![]),
            ],
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Hello {
            version: 1,
            loaded: true,
            label: "none".into(),
        });
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Err { msg: "boom".into() });
        roundtrip_resp(Response::Output {
            id: 7,
            packet: Some(vec![1, 2, 3]),
            port: Some(Bv::new(9, 3)),
            state: vec![("meta.drop".into(), 1, 0), ("hdr.ipv4.ttl".into(), 8, 64)],
        });
        roundtrip_resp(Response::Output {
            id: 8,
            packet: None,
            port: None,
            state: vec![],
        });
        roundtrip_resp(Response::Metrics {
            text: "# TYPE meissa_agent_injected_total counter\nmeissa_agent_injected_total 3\n".into(),
        });
        roundtrip_resp(Response::Stats {
            injected: 10,
            forwarded: 7,
            dropped: 3,
            per_port: vec![(3, 5), (4, 2)],
        });
    }

    #[test]
    fn every_fault_variant_roundtrips() {
        let all = [
            Fault::None,
            Fault::SetValidDropped {
                header: "vxlan".into(),
            },
            Fault::FieldOverlap {
                a: "hdr.tcp.seqno".into(),
                b: "hdr.tcp.ackno".into(),
            },
            Fault::WrongArithComparison { width: 8 },
            Fault::WrongAssignment {
                intended: "a".into(),
                actual: "b".into(),
            },
            Fault::ChecksumNotUpdated,
            Fault::WrongConstant {
                field: "f".into(),
                xor_mask: 0xff00,
            },
            Fault::PriorityInverted,
        ];
        for fault in all {
            let back = fault_from_json(&fault_to_json(&fault)).unwrap();
            assert_eq!(back, fault);
        }
    }

    #[test]
    fn data_messages_are_binary_and_sniffable() {
        let req = Request::Inject {
            id: u64::MAX - 3,
            bytes: vec![0x00, 0x7b, 0xff],
        };
        let enc = encode_request(&req);
        assert!(is_binary(&enc));
        assert_eq!(decode_request(&enc).unwrap(), req);

        let resp = Response::Output {
            id: 7,
            packet: Some(vec![1, 2, 3]),
            port: Some(Bv::new(9, 3)),
            state: vec![("meta.drop".into(), 1, 0), ("hdr.ipv4.ttl".into(), 8, 64)],
        };
        let enc = encode_response(&resp);
        assert!(is_binary(&enc));
        assert_eq!(decode_response(&enc).unwrap(), resp);

        // The agent's direct-from-parts encoder sorts its entries by name
        // (as `agent::encode_state` does before building a `Response`), so
        // it must be byte-identical to encoding the sorted Response.
        let sorted = Response::Output {
            id: 7,
            packet: Some(vec![1, 2, 3]),
            port: Some(Bv::new(9, 3)),
            state: vec![("hdr.ipv4.ttl".into(), 8, 64), ("meta.drop".into(), 1, 0)],
        };
        let direct = encode_output_bin(
            7,
            Some(&[1, 2, 3]),
            Some(Bv::new(9, 3)),
            [("meta.drop", 1u16, 0u128), ("hdr.ipv4.ttl", 8, 64)]
                .into_iter(),
        );
        assert_eq!(direct, encode_response(&sorted));
    }

    #[test]
    fn control_messages_stay_json() {
        let req = Request::Hello { version: PROTO_VERSION };
        let enc = encode_request(&req);
        assert!(!is_binary(&enc), "control stays textual");
        assert_eq!(enc.first(), Some(&b'{'));
        assert_eq!(decode_request(&enc).unwrap(), req);
        let resp = Response::Ok;
        let enc = encode_response(&resp);
        assert!(!is_binary(&enc));
        assert_eq!(decode_response(&enc).unwrap(), resp);
    }

    #[test]
    fn truncated_binary_frames_error_instead_of_panicking() {
        let resp = Response::Output {
            id: 9,
            packet: Some(vec![4; 32]),
            port: None,
            state: vec![("f".into(), 8, 255)],
        };
        let enc = encode_response(&resp);
        for cut in 0..enc.len() {
            assert!(
                decode_response(&enc[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing garbage is also rejected.
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_response(&padded).is_err());
    }
}
