//! End-to-end loopback tests: agent and wire driver in one process over
//! 127.0.0.1, on a small inline program (the corpus-level equivalence
//! tests live in `crates/suite/tests/`).

use meissa_core::Meissa;
use meissa_dataplane::{Fault, SwitchTarget};
use meissa_driver::{TestDriver, Verdict};
use meissa_lang::{compile, parse_program, parse_rules, CompiledProgram};
use meissa_netdriver::proto::{decode_response, encode_request, Request, Response};
use meissa_netdriver::{
    fetch_stats, hello, install_rules, load_program, Agent, TransportFaults, WireDriver,
    PROTO_VERSION,
};
use meissa_testkit::wire::{write_frame, FrameReader};
use std::net::TcpStream;
use std::time::Duration;

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

/// Verdicts (with template ids) of a report, for cross-driver comparison.
fn verdicts(report: &meissa_driver::TestReport) -> Vec<(usize, Verdict)> {
    report
        .cases
        .iter()
        .map(|c| (c.template_id, c.verdict.clone()))
        .collect()
}

#[test]
fn wire_report_matches_in_process_faithful() {
    let cp = program();
    let agent = Agent::spawn(Some(SwitchTarget::new(&cp)), None).unwrap();

    let mut run = Meissa::new().run(&cp);
    let wire = WireDriver::new(&cp, agent.addr())
        .with_connections(2)
        .run(&mut run)
        .unwrap();

    let mut run = Meissa::new().run(&cp);
    let local = TestDriver::new(&cp).run(&mut run, &SwitchTarget::new(&cp));

    assert_eq!(verdicts(&wire), verdicts(&local));
    assert_eq!(wire.failed(), 0, "{wire}");
    assert!(wire.passed() >= 3);
    assert_eq!(wire.target_label, "none");
    assert!(wire.latency_p50().is_some());
    assert!(!wire.elapsed.is_zero());

    // The agent tallied traffic per logical egress port.
    let (injected, forwarded, _dropped, per_port) = fetch_stats(agent.addr()).unwrap();
    assert!(injected >= wire.cases.len() as u64 - wire.skipped() as u64);
    assert!(forwarded > 0);
    assert!(per_port.iter().any(|&(port, n)| port == 3 && n > 0));

    agent.shutdown();
}

#[test]
fn wire_detects_fault_like_in_process() {
    let cp = program();
    let fault = Fault::SetValidDropped {
        header: "vxlan".into(),
    };
    let agent = Agent::spawn(Some(SwitchTarget::with_fault(&cp, fault.clone())), None).unwrap();

    let mut run = Meissa::new().run(&cp);
    let wire = WireDriver::new(&cp, agent.addr()).run(&mut run).unwrap();

    let mut run = Meissa::new().run(&cp);
    let local = TestDriver::new(&cp).run(&mut run, &SwitchTarget::with_fault(&cp, fault));

    assert!(wire.found_bug());
    assert_eq!(verdicts(&wire), verdicts(&local));
    assert_eq!(wire.target_label, "setValid-dropped");
    // Localization traces survive the wire path (they are computed
    // client-side from the injected packet).
    let failure = wire
        .cases
        .iter()
        .find(|c| !matches!(c.verdict, Verdict::Pass | Verdict::Skipped { .. }))
        .unwrap();
    assert!(!failure.trace.is_empty());
    agent.shutdown();
}

#[test]
fn transport_faults_cause_no_false_verdicts() {
    let cp = program();
    // 5% drop/dup/delay/truncate each, seeded: the retry/dedup/reorder
    // machinery must absorb every perturbation on a faithful target.
    let faults = TransportFaults::uniform(0xC0FFEE, 50);
    let agent = Agent::spawn(Some(SwitchTarget::new(&cp)), Some(faults)).unwrap();

    let mut run = Meissa::new().run(&cp);
    let wire = WireDriver::new(&cp, agent.addr())
        .with_connections(2)
        .with_packets_per_template(3)
        .with_retries(Duration::from_millis(50), 10, Duration::from_millis(10))
        .run(&mut run)
        .unwrap();

    assert_eq!(wire.failed(), 0, "transport faults must not look like bugs: {wire}");
    assert!(wire.passed() > 0);
    agent.shutdown();
}

#[test]
fn load_program_and_install_rules_over_the_wire() {
    let agent = Agent::spawn(None, None).unwrap();
    let (version, loaded, _) = hello(agent.addr()).unwrap();
    assert_eq!(version, PROTO_VERSION);
    assert!(!loaded);

    // A bad program is rejected with a recoverable error.
    assert!(load_program(agent.addr(), "header {", RULES, Fault::None).is_err());

    load_program(agent.addr(), PROGRAM, RULES, Fault::None).unwrap();
    let (_, loaded, label) = hello(agent.addr()).unwrap();
    assert!(loaded);
    assert_eq!(label, "none");

    // Drive it: the agent-compiled program behaves like the local one.
    let cp = program();
    let mut run = Meissa::new().run(&cp);
    let report = WireDriver::new(&cp, agent.addr()).run(&mut run).unwrap();
    assert_eq!(report.failed(), 0, "{report}");

    // Rule swap over the wire: an unroutable rule set turns routed
    // traffic into drops agent-side; the client's reference still uses
    // the old rules, so outputs now disagree → the driver reports bugs.
    install_rules(agent.addr(), "rules route { 192.168.0.0/16 => set_port(5); }").unwrap();
    let mut run = Meissa::new().run(&cp);
    let report = WireDriver::new(&cp, agent.addr()).run(&mut run).unwrap();
    assert!(report.found_bug(), "rule divergence must surface: {report}");

    agent.shutdown();
}

/// A raw protocol connection to `agent`, handshaken.
fn raw_conn(agent: &meissa_netdriver::AgentHandle) -> (TcpStream, FrameReader<TcpStream>) {
    let stream = TcpStream::connect(agent.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    let hello = Request::Hello {
        version: PROTO_VERSION,
    };
    write_frame(&mut writer, &encode_request(&hello)).unwrap();
    let _hello = reader.next_frame().unwrap();
    (writer, reader)
}

#[test]
fn metrics_rpc_returns_live_counters_mid_run() {
    let cp = program();
    let agent = Agent::spawn(Some(SwitchTarget::new(&cp)), None).unwrap();

    // Drive injects over a raw protocol connection, scraping metrics
    // between packets while the connection is still live — the agent must
    // answer from its atomics without waiting for the run to end.
    let (mut writer, mut reader) = raw_conn(&agent);
    for id in 0..3u64 {
        write_frame(
            &mut writer,
            &encode_request(&Request::Inject { id, bytes: vec![0u8; 20] }),
        )
        .unwrap();
        match decode_response(reader.next_frame().unwrap()).unwrap() {
            Response::Output { id: got, .. } => assert_eq!(got, id),
            other => panic!("expected Output, got {other:?}"),
        }
        // Mid-run scrape over a separate control connection.
        let text = meissa_netdriver::fetch_metrics(agent.addr()).unwrap();
        let want = format!("meissa_agent_injected_total {}", id + 1);
        assert!(
            text.contains("# TYPE meissa_agent_injected_total counter"),
            "missing TYPE line:\n{text}"
        );
        assert!(text.contains(&want), "expected `{want}` in:\n{text}");
    }
    let text = meissa_netdriver::fetch_metrics(agent.addr()).unwrap();
    assert!(text.contains("meissa_agent_injected_total 3"), "{text}");
    drop(writer);
    drop(reader);
    agent.shutdown();
}

/// The agent decodes client frames across a trust boundary: a data-plane
/// message sent as JSON and a frame led by an undefined opcode must each
/// be answered with `Err`, and the same connection must go on serving
/// binary injects.
#[test]
fn agent_answers_bad_frames_with_err_and_keeps_serving() {
    let cp = program();
    let agent = Agent::spawn(Some(SwitchTarget::new(&cp)), None).unwrap();
    let (mut writer, mut reader) = raw_conn(&agent);

    let bad_frames: [(&[u8], &str); 2] = [
        (
            br#"{"t":"inject","id":1,"bytes":"00"}"#,
            "unknown request `inject`",
        ),
        (&[0x05, 0, 0, 0, 0, 0, 0, 0, 1], "unknown opcode 0x05"),
    ];
    for (frame, want) in bad_frames {
        write_frame(&mut writer, frame).unwrap();
        match decode_response(reader.next_frame().unwrap()).unwrap() {
            Response::Err { msg } => assert!(msg.contains(want), "expected `{want}` in `{msg}`"),
            other => panic!("expected Err for a bad frame, got {other:?}"),
        }
    }

    write_frame(
        &mut writer,
        &encode_request(&Request::Inject { id: 2, bytes: vec![0u8; 20] }),
    )
    .unwrap();
    match decode_response(reader.next_frame().unwrap()).unwrap() {
        Response::Output { id, .. } => assert_eq!(id, 2),
        other => panic!("expected Output after the bad frames, got {other:?}"),
    }
    drop(writer);
    drop(reader);
    agent.shutdown();
}

/// Nesting depth is client-controlled in both control inputs: a deeply
/// nested JSON frame and a deeply nested P4lite program must each be
/// answered with `Err` instead of overflowing the connection thread's
/// stack (which aborts the whole agent), and the same connection must go
/// on answering `Hello`.
#[test]
fn agent_refuses_deep_nesting_and_keeps_serving() {
    let agent = Agent::spawn(None, None).unwrap();
    let (mut writer, mut reader) = raw_conn(&agent);

    let deep_json = format!("{{\"t\":{}", "[".repeat(20_000)).into_bytes();
    let deep_program = format!(
        "metadata meta {{ port: 9; }}\naction a() {{ meta.port = {}1{}; }}",
        "(".repeat(5_000),
        ")".repeat(5_000)
    );
    let load = encode_request(&Request::LoadProgram {
        source: deep_program,
        rules: String::new(),
        fault: Fault::None,
    });
    for frame in [deep_json, load] {
        write_frame(&mut writer, &frame).unwrap();
        match decode_response(reader.next_frame().unwrap()).unwrap() {
            Response::Err { msg } => assert!(msg.contains("nesting deeper"), "{msg}"),
            other => panic!("expected Err for a deep frame, got {other:?}"),
        }
        let hello = Request::Hello {
            version: PROTO_VERSION,
        };
        write_frame(&mut writer, &encode_request(&hello)).unwrap();
        match decode_response(reader.next_frame().unwrap()).unwrap() {
            Response::Hello { loaded, .. } => assert!(!loaded),
            other => panic!("expected Hello after the deep frame, got {other:?}"),
        }
    }
    drop(writer);
    drop(reader);
    agent.shutdown();
}
