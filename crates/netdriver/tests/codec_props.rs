//! Property tests for the dual wire framings and end-to-end tests of the
//! `Hello` framing negotiation: every data-plane message must encode and
//! decode identically through the JSON and binary codecs, and a
//! binary-preferring client must interoperate cleanly with a JSON-only
//! (protocol v1) agent.

use meissa_core::Meissa;
use meissa_dataplane::{Fault, SwitchTarget};
use meissa_driver::{TestDriver, Verdict};
use meissa_lang::{compile, parse_program, parse_rules, CompiledProgram};
use meissa_netdriver::proto::{
    decode, decode_request_wire, decode_response_wire, encode_request_wire,
    encode_response_wire, is_binary, Framing, Request, Response,
};
use meissa_netdriver::{hello, Agent, SoakConfig, WireDriver};
use meissa_num::Bv;
use meissa_testkit::prop::{self, G};
use meissa_testkit::{prop_assert, prop_assert_eq};
use std::time::Duration;

fn arb_bytes(g: &mut G) -> Vec<u8> {
    (0..g.len(0, 40)).map(|_| g.bits(8) as u8).collect()
}

fn arb_state(g: &mut G) -> Vec<(String, u16, u128)> {
    (0..g.len(0, 6))
        .map(|_| {
            let width = g.range(1..=128u16);
            (g.ident(6), width, g.bits(width))
        })
        .collect()
}

fn arb_opt_port(g: &mut G) -> Option<Bv> {
    if g.bool() {
        let width = g.range(1..=32u16);
        Some(Bv::new(width, g.bits(width)))
    } else {
        None
    }
}

fn arb_request(g: &mut G) -> Request {
    if g.bool() {
        Request::Inject {
            id: g.u64(),
            bytes: arb_bytes(g),
        }
    } else {
        Request::InjectSeq {
            id: g.u64(),
            packets: (0..g.len(1, 4)).map(|_| (g.u64(), arb_bytes(g))).collect(),
            init: arb_state(g),
        }
    }
}

fn arb_response(g: &mut G) -> Response {
    if g.bool() {
        Response::Output {
            id: g.u64(),
            packet: if g.bool() { Some(arb_bytes(g)) } else { None },
            port: arb_opt_port(g),
            state: arb_state(g),
        }
    } else {
        Response::SeqOutput {
            id: g.u64(),
            outputs: (0..g.len(1, 4))
                .map(|_| {
                    (
                        g.u64(),
                        if g.bool() { Some(arb_bytes(g)) } else { None },
                        arb_opt_port(g),
                        arb_state(g),
                    )
                })
                .collect(),
        }
    }
}

/// Every data-plane request round-trips identically through both framings,
/// and the binary encoding is sniffable as binary.
#[test]
fn request_codecs_agree() {
    prop::check(prop::DEFAULT_CASES, |g| {
        let req = arb_request(g);
        let json = encode_request_wire(&req, Framing::Json);
        let bin = encode_request_wire(&req, Framing::Bin);
        prop_assert!(!is_binary(&json), "JSON framing must not sniff as binary");
        prop_assert!(is_binary(&bin), "binary framing must sniff as binary");
        let via_json = decode_request_wire(&json).map_err(|e| e.to_string())?;
        let via_bin = decode_request_wire(&bin).map_err(|e| e.to_string())?;
        prop_assert_eq!(&via_json, &req);
        prop_assert_eq!(&via_bin, &req);
        // The wire decoder and the plain JSON decoder agree on JSON frames.
        let plain: Request = decode(&json).map_err(|e| e.to_string())?;
        prop_assert_eq!(&plain, &req);
        Ok(())
    });
}

/// Every data-plane response round-trips identically through both framings.
#[test]
fn response_codecs_agree() {
    prop::check(prop::DEFAULT_CASES, |g| {
        let resp = arb_response(g);
        let json = encode_response_wire(&resp, Framing::Json);
        let bin = encode_response_wire(&resp, Framing::Bin);
        prop_assert!(is_binary(&bin));
        let via_json = decode_response_wire(&json).map_err(|e| e.to_string())?;
        let via_bin = decode_response_wire(&bin).map_err(|e| e.to_string())?;
        prop_assert_eq!(&via_json, &resp);
        prop_assert_eq!(&via_bin, &resp);
        Ok(())
    });
}

/// Truncating a binary frame at any byte must produce a decode error,
/// never a panic or a silently wrong message.
#[test]
fn truncated_binary_responses_error_cleanly() {
    prop::check(prop::DEFAULT_CASES, |g| {
        let resp = arb_response(g);
        let bin = encode_response_wire(&resp, Framing::Bin);
        let cut = g.range(0..bin.len() as u64) as usize;
        if cut == 0 {
            return Ok(()); // empty payload is not a binary frame
        }
        if let Ok(decoded) = decode_response_wire(&bin[..cut]) {
            prop_assert!(
                false,
                "truncated frame decoded to {decoded:?} instead of erroring"
            );
        }
        Ok(())
    });
}

const PROGRAM: &str = r#"
    header ethernet { dst: 48; src: 48; ether_type: 16; }
    header ipv4 { ttl: 8; protocol: 8; src_addr: 32; dst_addr: 32; checksum: 16; }
    metadata meta { egress_port: 9; drop: 1; }
    parser main {
      state start {
        extract(ethernet);
        select (hdr.ethernet.ether_type) { 0x0800 => parse_ipv4; default => accept; }
      }
      state parse_ipv4 { extract(ipv4); accept; }
    }
    action set_port(port: 9) { meta.egress_port = port; }
    action drop_() { meta.drop = 1; }
    table route {
      key = { hdr.ipv4.dst_addr: lpm; }
      actions = { set_port; drop_; }
      default_action = drop_();
    }
    control ig { if (hdr.ipv4.isValid()) { apply(route); } }
    pipeline ingress0 { parser = main; control = ig; }
    deparser { emit(ethernet); emit(ipv4); }
    intent routed_or_dropped {
      given hdr.ethernet.ether_type == 0x0800;
      expect meta.drop == 1 || meta.egress_port != 0;
    }
"#;

const RULES: &str = "rules route { 10.0.0.0/8 => set_port(3); }";

fn program() -> CompiledProgram {
    let p = parse_program(PROGRAM).unwrap();
    compile(&p, &parse_rules(RULES).unwrap()).unwrap()
}

fn verdicts(report: &meissa_driver::TestReport) -> Vec<(usize, Verdict)> {
    report
        .cases
        .iter()
        .map(|c| (c.template_id, c.verdict.clone()))
        .collect()
}

/// A binary-preferring client against a protocol-v1 (JSON-only) agent:
/// the `Hello` negotiation must fall back to JSON and the run must produce
/// the same verdicts as the in-process driver — no errors, no drops.
#[test]
fn binary_client_falls_back_to_json_against_v1_agent() {
    let cp = program();
    let agent = Agent::spawn_json_only(Some(SwitchTarget::new(&cp)), None).unwrap();
    let (version, loaded, _) = hello(agent.addr()).unwrap();
    assert_eq!(version, 1, "legacy agent must report protocol v1");
    assert!(loaded);

    let mut run = Meissa::new().run(&cp);
    let wire = WireDriver::new(&cp, agent.addr())
        .with_framing(Framing::Bin)
        .run(&mut run)
        .unwrap();
    agent.shutdown();

    let mut run = Meissa::new().run(&cp);
    let local = TestDriver::new(&cp).run(&mut run, &SwitchTarget::new(&cp));
    assert_eq!(verdicts(&wire), verdicts(&local));
    assert!(!wire.found_bug());
}

/// The same run under both framings (against a v2 agent) produces
/// identical verdicts — framing is transport, not semantics. A seeded
/// fault must be caught identically too.
#[test]
fn framings_agree_on_verdicts_faithful_and_faulty() {
    for fault in [None, Some(Fault::WrongConstant { field: "meta.drop".into(), xor_mask: 1 })] {
        let cp = program();
        let target = |f: &Option<Fault>| match f {
            None => SwitchTarget::new(&cp),
            Some(f) => SwitchTarget::with_fault(&cp, f.clone()),
        };
        let mut reports = Vec::new();
        for framing in [Framing::Json, Framing::Bin] {
            let agent = Agent::spawn(Some(target(&fault)), None).unwrap();
            let mut run = Meissa::new().run(&cp);
            let report = WireDriver::new(&cp, agent.addr())
                .with_framing(framing)
                .with_connections(2)
                .run(&mut run)
                .unwrap();
            agent.shutdown();
            reports.push(report);
        }
        assert_eq!(
            verdicts(&reports[0]),
            verdicts(&reports[1]),
            "framings disagreed (fault: {fault:?})"
        );
        assert_eq!(reports[0].found_bug(), fault.is_some());
    }
}

/// Soak smoke: a faithful agent replayed for a short wall-clock window —
/// with and without fuzzing — must show zero divergence (the agent runs
/// the same interpreter as the reference, mutated bytes included), and the
/// Prometheus `Metrics` RPC must stay scrapable mid-soak.
#[test]
fn soak_replays_cleanly_and_metrics_stay_scrapable() {
    let cp = program();
    let agent = Agent::spawn(Some(SwitchTarget::new(&cp)), None).unwrap();
    for fuzz in [false, true] {
        let mut run = Meissa::new().run(&cp);
        let driver = WireDriver::new(&cp, agent.addr()).with_framing(Framing::Bin);
        let cfg = SoakConfig {
            duration: Duration::from_millis(300),
            fuzz,
            seed: 0xF00D,
        };
        let stats = std::thread::scope(|s| {
            let soak = s.spawn(|| driver.soak(&mut run, cfg).unwrap());
            // Scrape the side-channel metrics RPC while the soak runs.
            let text = meissa_netdriver::fetch_metrics(agent.addr()).unwrap();
            assert!(
                text.contains("meissa_agent_injected_total"),
                "metrics exposition missing agent counters:\n{text}"
            );
            // Per-rule hit counters are scrapable mid-soak, zero-hit arms
            // included (the denominator is part of the exposition).
            assert!(
                text.contains("meissa_agent_rule_hits_total{table="),
                "metrics exposition missing per-rule counters:\n{text}"
            );
            soak.join().unwrap()
        });
        assert!(stats.cases > 0, "soak replayed no cases (fuzz: {fuzz})");
        assert_eq!(stats.fuzzed, fuzz);
        assert_eq!(
            stats.divergent, 0,
            "faithful agent diverged (fuzz: {fuzz}): {stats}"
        );
        // Rule coverage rides along: the reference tallies hit arms, and
        // the growth curve is cumulative so it must be monotone in both
        // time and hits.
        assert!(stats.rules_total > 0, "no rule arms tracked: {stats}");
        assert!(stats.rules_hit > 0, "soak hit no rule arms: {stats}");
        assert!(stats.rules_hit <= stats.rules_total);
        assert!(
            !stats.coverage_curve.is_empty(),
            "no coverage curve samples (fuzz: {fuzz})"
        );
        for w in stats.coverage_curve.windows(2) {
            assert!(
                w[0].0 < w[1].0 && w[0].1 <= w[1].1,
                "coverage curve not monotone: {:?}",
                stats.coverage_curve
            );
        }
        let last = stats.coverage_curve.last().unwrap();
        assert_eq!(last.1, stats.rules_hit, "curve tail disagrees with total");
    }
    agent.shutdown();
}

/// Soak with fuzzing against a *faulty* agent classifies divergences into
/// the stable class names — and the seeded run is reproducible.
#[test]
fn fuzz_soak_classifies_divergence_on_faulty_agent() {
    let cp = program();
    let fault = Fault::WrongConstant { field: "meta.drop".into(), xor_mask: 1 };
    let agent = Agent::spawn(Some(SwitchTarget::with_fault(&cp, fault)), None).unwrap();
    let mut counts = Vec::new();
    for _ in 0..2 {
        let mut run = Meissa::new().run(&cp);
        let stats = WireDriver::new(&cp, agent.addr())
            .with_framing(Framing::Bin)
            .soak(
                &mut run,
                SoakConfig {
                    duration: Duration::from_millis(200),
                    fuzz: true,
                    seed: 7,
                },
            )
            .unwrap();
        assert!(
            stats.divergent > 0,
            "faulty agent produced no divergence: {stats}"
        );
        for (class, _) in &stats.classes {
            assert!(
                [
                    "missing-output",
                    "unexpected-forward",
                    "payload-mismatch",
                    "port-mismatch",
                    "state-mismatch",
                    "no-response",
                ]
                .contains(&class.as_str()),
                "unknown divergence class {class}"
            );
        }
        counts.push(stats.classes.clone());
    }
    // Same seed, same prototypes: the class *names* seen must agree run to
    // run (counts vary with wall-clock progress).
    let names = |v: &Vec<(String, u64)>| v.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>();
    assert_eq!(names(&counts[0]), names(&counts[1]));
    agent.shutdown();
}
