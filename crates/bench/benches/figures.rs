//! Benches mirroring the paper's figures at CI-friendly scale, on the
//! in-repo `meissa_testkit::bench` timer.
//!
//! The report binaries (`cargo run --release -p meissa-bench --bin fig9` …)
//! regenerate each figure at full scale; these benches track the same
//! comparisons (Meissa vs baselines, summary vs no-summary, program and
//! rule-set sweeps, the Fig. 7 redundancy-elimination microbench, and the
//! Appendix A pipeline-count scaling) with small inputs so regressions show
//! up in routine `cargo bench` runs.

use meissa_bench::{measure, meissa_config, no_summary_config};
use meissa_core::exec::{generate_templates, ExecConfig};
use meissa_core::summary::summarize;
use meissa_core::{Meissa, MeissaConfig, SolveSession};
use meissa_suite::gw::{gw, GwScale};
use meissa_testkit::bench::{black_box, Suite};
use meissa_testkit::obs;

/// Runs one figure with tracing routed to `results/trace_<fig>.jsonl`, so
/// every full bench run leaves one inspectable trace per figure
/// (`meissa-trace results/trace_fig11.jsonl`). Tracing is switched off
/// again before returning so figures never observe each other's sink.
fn traced(fig: &str, f: impl FnOnce()) {
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    obs::trace_to(format!("{repo_root}/results/trace_{fig}.jsonl"));
    f();
    let _ = obs::flush_trace();
    obs::trace_off();
}

/// Best-of-3 to damp scheduler noise; timing claims should not hinge on
/// one unlucky sample.
fn best_of_3(w: &meissa_suite::Workload, config: &MeissaConfig) -> meissa_bench::EngineRun {
    let mut best: Option<meissa_bench::EngineRun> = None;
    for _ in 0..3 {
        let run = meissa_bench::measure(w, config.clone());
        if best.as_ref().is_none_or(|b| run.secs < b.secs) {
            best = Some(run);
        }
    }
    best.unwrap()
}

/// Fig. 7 microbench: intra-pipeline redundancy elimination on the
/// two-chained-tables pipeline (n rules each: n² possible, n valid).
fn fig7_redundancy() {
    use meissa_ir::{AExp, BExp, CfgBuilder, Stmt};
    use meissa_num::Bv;

    fn fig7_cfg(n: u128) -> meissa_ir::Cfg {
        let mut b = CfgBuilder::new();
        let dst = b.fields_mut().intern("dstIP", 32);
        let port = b.fields_mut().intern("egressPort", 9);
        let mac = b.fields_mut().intern("dstMAC", 48);
        b.nop();
        b.begin_pipeline("ppl0");
        for (key, out, width_out, outf) in
            [(dst, port, 9u16, 1u128), (port, mac, 48, 0x00aa00000000)]
        {
            let base = b.frontier();
            let mut arms = Vec::new();
            for i in 0..n {
                let kw = b.fields().width(key);
                b.set_frontier(base.clone());
                b.stmt(Stmt::Assume(BExp::eq(
                    AExp::Field(key),
                    AExp::Const(Bv::new(kw, 1 + i)),
                )));
                b.stmt(Stmt::Assign(
                    out,
                    AExp::Const(Bv::new(width_out, outf + i)),
                ));
                arms.push(b.frontier());
            }
            b.set_frontier(Vec::new());
            b.merge_frontiers(arms);
            b.nop();
        }
        b.end_pipeline();
        b.finish()
    }

    let mut group = Suite::new("fig7_redundancy").samples(10);
    for n in [10u128, 20] {
        let cfg = fig7_cfg(n);
        group.bench(&format!("summarize/{n}"), || {
            let mut c = cfg.clone();
            let mut session = SolveSession::new();
            black_box(summarize(&mut c, &mut session, &ExecConfig::default()));
        });
        group.bench(&format!("naive_dfs/{n}"), || {
            let mut session = SolveSession::new();
            black_box(generate_templates(&cfg, &mut session, &ExecConfig::default()));
        });
    }
}

/// Fig. 9 at small scale: Meissa vs the two testing baselines on Router.
fn fig9_scalability() {
    let mut group = Suite::new("fig9_scalability").samples(10);
    let w = meissa_suite::router(6, 7);
    group.bench("meissa", || {
        black_box(measure(&w, meissa_config(None)));
    });
    group.bench("p4pktgen_like", || {
        black_box(
            Meissa {
                config: MeissaConfig {
                    code_summary: false,
                    incremental: false,
                    ..MeissaConfig::default()
                },
            }
            .run(&w.program),
        );
    });
    group.bench("gauntlet_like", || {
        black_box(
            Meissa {
                config: MeissaConfig {
                    code_summary: false,
                    early_termination: false,
                    incremental: false,
                    ..MeissaConfig::default()
                },
            }
            .run(&w.program),
        );
    });
}

/// Fig. 11 at small scale: summary on/off across gw levels.
fn fig11_summary() {
    let mut group = Suite::new("fig11_summary").samples(10);
    for level in [2u8, 3] {
        let w = gw(level, GwScale { eips: 4 });
        group.bench(&format!("with_summary/{level}"), || {
            black_box(measure(&w, meissa_config(None)));
        });
        group.bench(&format!("without_summary/{level}"), || {
            black_box(measure(&w, no_summary_config(None)));
        });
    }
}

/// Fig. 12 at small scale: rule-set sweep on gw-2.
fn fig12_rulesets() {
    let mut group = Suite::new("fig12_rulesets").samples(10);
    for eips in [4usize, 8] {
        let w = gw(2, GwScale { eips });
        group.bench(&format!("with_summary/{eips}"), || {
            black_box(measure(&w, meissa_config(None)));
        });
        group.bench(&format!("without_summary/{eips}"), || {
            black_box(measure(&w, no_summary_config(None)));
        });
    }
}

/// Appendix A: pipeline-count scaling (k = 1, 2, 4 pipes at fixed rules).
fn appendix_a_complexity() {
    let mut group = Suite::new("appendix_a_complexity").samples(10);
    for level in [1u8, 2, 3] {
        let w = gw(level, GwScale { eips: 4 });
        group.bench(&format!("meissa/{level}"), || {
            black_box(measure(&w, meissa_config(None)));
        });
    }
}

/// Ablation: §7 grouped pre-conditions vs the ungrouped Algorithm 2
/// (the design choice DESIGN.md §5 calls out).
fn ablation_grouped_summary() {
    let mut group = Suite::new("ablation_grouped_summary").samples(10);
    let w = gw(3, GwScale { eips: 8 });
    group.bench("grouped", || {
        black_box(measure(&w, meissa_config(None)));
    });
    group.bench("ungrouped", || {
        let cfg = MeissaConfig {
            grouped_summary: false,
            ..MeissaConfig::default()
        };
        black_box(measure(&w, cfg));
    });
}

/// Thread-scaling series for the work-stealing explorer: Fig. 11-style
/// program sizes × {1, 2, 4, 8} threads. Runs the no-summary engine — there
/// the parallel DFS carries the entire search, so wall-clock scaling
/// measures the explorer itself — plus the summary engine on the largest
/// program as the end-to-end number. Writes the human-readable table to
/// `results/parallel_scaling.txt` and machine-readable rows to
/// `BENCH_parallel.json` at the repo root.
fn parallel_scaling() {
    use meissa_testkit::json::{Json, ToJson};

    const THREADS: [usize; 4] = [1, 2, 4, 8];
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut table = format!(
        "Parallel scaling: work-stealing DFS across thread counts\n\
         (best of 3; speedup is vs the threads=1 run of the same row)\n\n\
         Note: this host exposes {cores} CPU(s). The engine right-sizes its\n\
         worker pool to the available parallelism (and to the possible-\n\
         path mass below the exploration root), so a row asking for more\n\
         threads than cores runs {cores} worker(s) instead of paying\n\
         fork/steal/merge overhead for no concurrency, and its speedup\n\
         should sit near the {cores}-thread row's. Workers also retire their\n\
         solvers periodically, which keeps each SAT clause database small.\n\n",
    );
    table.push_str(&format!(
        "{:<24} {:>8} {:>10} {:>12} {:>12} {:>10} {:>9}\n",
        "program/engine", "threads", "wall ms", "smt_checks", "sat_calls", "templates", "speedup"
    ));
    let mut rows: Vec<Json> = Vec::new();

    let series: [(String, meissa_suite::Workload, MeissaConfig); 3] = {
        let small = gw(3, GwScale { eips: 8 });
        let large = gw(3, GwScale { eips: 32 });
        let large2 = gw(3, GwScale { eips: 8 });
        let dfs = MeissaConfig {
            code_summary: false,
            ..MeissaConfig::default()
        };
        let full = MeissaConfig::default();
        [
            (format!("{}-r8/dfs", small.name), small, dfs.clone()),
            (format!("{}-r32/dfs", large.name), large, dfs),
            (format!("{}-r8/summary", large2.name), large2, full),
        ]
    };

    for (name, w, config) in series {
        let mut base_ms = 0.0f64;
        let mut base_templates = 0usize;
        for threads in THREADS {
            let run = best_of_3(&w, &MeissaConfig { threads, ..config.clone() });
            let ms = run.secs * 1e3;
            if threads == 1 {
                base_ms = ms;
                base_templates = run.templates;
            } else {
                assert_eq!(
                    run.templates, base_templates,
                    "{name}: template count must be thread-count invariant"
                );
            }
            let speedup = base_ms / ms;
            table.push_str(&format!(
                "{name:<24} {threads:>8} {ms:>10.1} {:>12} {:>12} {:>10} {speedup:>8.2}x\n",
                run.smt_checks, run.sat_engine_calls, run.templates
            ));
            rows.push(Json::Obj(vec![
                ("program".into(), name.as_str().to_json()),
                ("threads".into(), (threads as u64).to_json()),
                // The host's core count rides along so a reader (or the CI
                // scaling guard) can tell a genuine scaling regression from
                // a row recorded on a host with fewer cores than threads.
                ("cores".into(), (cores as u64).to_json()),
                ("wall_ms".into(), ms.to_json()),
                ("smt_checks".into(), run.smt_checks.to_json()),
                ("sat_engine_calls".into(), run.sat_engine_calls.to_json()),
                ("batched_probes".into(), run.batched_probes.to_json()),
                ("arm_batches".into(), run.arm_batches.to_json()),
                ("templates".into(), (run.templates as u64).to_json()),
                ("speedup_vs_1".into(), speedup.to_json()),
            ]));
            // Host-gated scaling floor: only meaningful when the host can
            // actually run the requested workers concurrently.
            if name.ends_with("-r32/dfs") && cores >= threads {
                let floor = match threads {
                    4 => Some(2.0),
                    8 => Some(3.0),
                    _ => None,
                };
                if let Some(f) = floor {
                    assert!(
                        speedup >= f,
                        "{name}: speedup {speedup:.2}x at {threads} threads \
                         below the {f:.1}x floor on a {cores}-core host"
                    );
                }
            }
        }
    }

    print!("{table}");
    std::fs::write(format!("{repo_root}/results/parallel_scaling.txt"), &table)
        .expect("write results/parallel_scaling.txt");
    let json = Json::Obj(vec![
        ("bench".into(), "parallel_scaling".to_json()),
        ("rows".into(), Json::Arr(rows)),
    ]);
    std::fs::write(
        format!("{repo_root}/BENCH_parallel.json"),
        json.to_text() + "\n",
    )
    .expect("write BENCH_parallel.json");
}

/// Wire-driver throughput: the gw-3 suite streamed through the loopback
/// switch agent, swept over connections {1, 4}, transport faults off.
/// Reports replay-phase cases/sec (the elapsed clock starts after
/// planning — the solver's cost is benched separately) plus per-case
/// latency percentiles, then runs a 5-second sustained soak with the
/// JSONL trace sink attached so `meissa-trace` can reconcile the
/// `wire.*` spans. Writes
/// `results/netdriver_loopback.txt`, `results/trace_netdriver_soak.jsonl`,
/// and `BENCH_netdriver.json`.
fn netdriver_loopback() {
    use meissa_dataplane::SwitchTarget;
    use meissa_netdriver::{Agent, SoakConfig, WireDriver};
    use meissa_testkit::json::{Json, ToJson};

    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let w = gw(3, GwScale { eips: 8 });
    let program = &w.program;

    let mut table = String::from(
        "Wire driver loopback throughput: gw-3 (8 EIPs) through the\n\
         switch-agent daemon on 127.0.0.1, transport faults off, swept\n\
         over client connections. cases/sec covers the replay phase\n\
         only — planning runs before the clock starts.\n\
         (the live agent also serves Prometheus metrics over its Metrics\n\
         RPC — `meissa_netdriver::fetch_metrics(addr)`, demonstrated by\n\
         examples/remote_switch.rs)\n\n",
    );
    table.push_str(&format!(
        "{:<12} {:>8} {:>10} {:>12} {:>10} {:>10}\n",
        "connections", "cases", "wall ms", "cases/sec", "p50 µs", "p99 µs"
    ));
    let mut rows: Vec<Json> = Vec::new();

    for connections in [1usize, 4] {
        let agent = Agent::spawn(Some(SwitchTarget::new(program)), None).expect("spawn agent");
        // Best-of-3 on the replay clock, with 10 packets per template so
        // each run spans a few thousand cases — short loopback runs are
        // tens of milliseconds and scheduler noise would otherwise
        // dominate the rate.
        let mut best: Option<meissa_driver::TestReport> = None;
        for _ in 0..3 {
            let mut run = Meissa::new().run(program);
            let report = WireDriver::new(program, agent.addr())
                .with_connections(connections)
                .with_packets_per_template(10)
                .run(&mut run)
                .expect("wire driver run");
            assert_eq!(report.failed(), 0, "bench target is faithful: {report}");
            if best.as_ref().is_none_or(|b| report.elapsed < b.elapsed) {
                best = Some(report);
            }
        }
        let report = best.unwrap();
        agent.shutdown();

        let cases = report.cases.len() - report.skipped();
        let wall_ms = report.elapsed.as_secs_f64() * 1e3;
        let rate = report.cases_per_sec().unwrap_or(0.0);
        let p50 = report.latency_p50().unwrap_or_default().as_secs_f64() * 1e6;
        let p99 = report.latency_p99().unwrap_or_default().as_secs_f64() * 1e6;
        table.push_str(&format!(
            "{connections:<12} {cases:>8} {wall_ms:>10.1} {rate:>12.0} \
             {p50:>10.1} {p99:>10.1}\n"
        ));
        rows.push(Json::Obj(vec![
            ("connections".into(), (connections as u64).to_json()),
            ("cases".into(), (cases as u64).to_json()),
            ("wall_ms".into(), wall_ms.to_json()),
            ("cases_per_sec".into(), rate.to_json()),
            ("latency_p50_us".into(), p50.to_json()),
            ("latency_p99_us".into(), p99.to_json()),
        ]));
    }

    // Sustained-soak smoke: 5 s of wall-clock replay with the trace sink
    // attached — the `wire.*` spans land in a JSONL
    // file that `scripts/ci.sh` reconciles with meissa-trace.
    obs::trace_to(format!("{repo_root}/results/trace_netdriver_soak.jsonl"));
    let agent = Agent::spawn(Some(SwitchTarget::new(program)), None).expect("spawn agent");
    let mut run = Meissa::new().run(program);
    let stats = WireDriver::new(program, agent.addr())
        .soak(
            &mut run,
            SoakConfig {
                duration: std::time::Duration::from_secs(5),
                fuzz: false,
                seed: 0xF00D,
            },
        )
        .expect("soak run");
    agent.shutdown();
    obs::trace_off();
    assert_eq!(stats.divergent, 0, "faithful soak diverged: {stats}");
    let soak_rate = stats.cases_per_sec().unwrap_or(0.0);
    table.push_str(&format!(
        "\nsoak (1 conn, {:.1} s): {} cases = {soak_rate:.0}/s sustained, \
         {} retried, {} divergent\n",
        stats.elapsed.as_secs_f64(),
        stats.cases,
        stats.retried,
        stats.divergent,
    ));
    rows.push(Json::Obj(vec![
        ("mode".into(), "soak".to_json()),
        ("connections".into(), 1u64.to_json()),
        ("cases".into(), stats.cases.to_json()),
        ("wall_ms".into(), (stats.elapsed.as_secs_f64() * 1e3).to_json()),
        ("cases_per_sec".into(), soak_rate.to_json()),
        ("divergent".into(), stats.divergent.to_json()),
    ]));

    print!("{table}");
    std::fs::write(format!("{repo_root}/results/netdriver_loopback.txt"), &table)
        .expect("write results/netdriver_loopback.txt");
    let json = Json::Obj(vec![
        ("bench".into(), "netdriver_loopback".to_json()),
        ("rows".into(), Json::Arr(rows)),
    ]);
    std::fs::write(
        format!("{repo_root}/BENCH_netdriver.json"),
        json.to_text() + "\n",
    )
    .expect("write BENCH_netdriver.json");
}

/// CI throughput guard: the gw-3 suite through the loopback agent at 4
/// connections must sustain at least 20k cases/sec (replay phase,
/// best-of-3) — the regression tripwire for the binary data-plane codec
/// and the pipelined inject/collect stages. The floor
/// was set from a single-core host (~27k measured); hosts under memory or
/// CPU pressure can skip via `MEISSA_SKIP_NETDRIVER_GUARD=1`, mirroring
/// the scaling guard's host gating. Run via
/// `MEISSA_BENCH_NETDRIVER=1 cargo bench -p meissa-bench`.
fn netdriver_guard() {
    use meissa_dataplane::SwitchTarget;
    use meissa_netdriver::{Agent, WireDriver};

    if std::env::var_os("MEISSA_SKIP_NETDRIVER_GUARD").is_some() {
        println!("netdriver guard skipped: MEISSA_SKIP_NETDRIVER_GUARD set");
        return;
    }
    const FLOOR: f64 = 20_000.0;
    let w = gw(3, GwScale { eips: 8 });
    let program = &w.program;
    let agent = Agent::spawn(Some(SwitchTarget::new(program)), None).expect("spawn agent");
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut run = Meissa::new().run(program);
        // 10 packets per template stretches the run to a few thousand
        // cases so steady-state throughput dominates scheduler jitter.
        let report = WireDriver::new(program, agent.addr())
            .with_connections(4)
            .with_packets_per_template(10)
            .run(&mut run)
            .expect("wire driver run");
        assert_eq!(report.failed(), 0, "guard target is faithful: {report}");
        best = best.max(report.cases_per_sec().unwrap_or(0.0));
    }
    agent.shutdown();
    assert!(
        best >= FLOOR,
        "netdriver guard: loopback throughput {best:.0} cases/s \
         below the {FLOOR:.0} floor at 4 connections"
    );
    println!("netdriver guard OK: {best:.0} cases/s (4 connections)");
}

/// Median of a small sample set. Overhead comparisons must not hinge on
/// one scheduler hiccup in either series; the median is robust where
/// best-of-N systematically favours whichever series got more attempts
/// near the machine's floor.
fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Overheads below this are indistinguishable from run-to-run noise on a
/// shared host. Any *negative* reading is noise by definition — tracing
/// cannot speed the engine up — so the report keeps the signed value but
/// flags everything at or below the floor instead of presenting jitter
/// as a real effect (a previous revision recorded a −3.8%/−9.0%
/// "overhead" this way).
const OBS_NOISE_FLOOR_PCT: f64 = 2.0;

/// Tracing overhead: gw-3 with the 32-EIP rule set (the
/// `BENCH_parallel.json` large row) run with observability off and with
/// a live JSONL trace sink, at 1 and 4 threads. Five off/on pairs,
/// *interleaved* so slow machine drift hits both series alike, reduced
/// by median; overheads inside the ±2% noise floor are flagged as such.
/// The overhead column is what the §7 "guaranteed cheap when off /
/// bounded when on" claim rests on. Writes `results/obs_overhead.txt`
/// and `BENCH_obs.json`.
fn obs_overhead() {
    use meissa_testkit::json::{Json, ToJson};

    const PAIRS: usize = 5;
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let w = gw(3, GwScale { eips: 32 });
    let dfs = MeissaConfig {
        code_summary: false,
        ..MeissaConfig::default()
    };

    let mut table = String::from(
        "Tracing overhead: gw-3 (32 EIPs), work-stealing DFS engine,\n\
         observability off vs MEISSA_TRACE-style JSONL sink on\n\
         (median of 5 interleaved off/on pairs; readings at or below the\n\
         +2% floor -- negatives included -- are measurement noise)\n\n",
    );
    table.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>16}\n",
        "threads", "off ms", "trace ms", "overhead"
    ));
    let mut rows: Vec<Json> = Vec::new();

    for threads in [1usize, 4] {
        let config = MeissaConfig {
            threads,
            ..dfs.clone()
        };
        let trace_path = format!("{repo_root}/results/trace_obs_overhead_t{threads}.jsonl");
        let mut off_ms: Vec<f64> = Vec::new();
        let mut on_ms: Vec<f64> = Vec::new();
        let mut checked = false;
        for _ in 0..PAIRS {
            obs::trace_off();
            let off = meissa_bench::measure(&w, config.clone());
            obs::trace_to(trace_path.clone());
            let on = meissa_bench::measure(&w, config.clone());
            let _ = obs::flush_trace();
            obs::trace_off();
            if !checked {
                assert_eq!(
                    off.templates, on.templates,
                    "tracing must not change engine results"
                );
                assert_eq!(
                    off.smt_checks, on.smt_checks,
                    "tracing must not change solver counters"
                );
                checked = true;
            }
            off_ms.push(off.secs * 1e3);
            on_ms.push(on.secs * 1e3);
        }
        let off_med = median_ms(&mut off_ms);
        let on_med = median_ms(&mut on_ms);
        let overhead_pct = (on_med / off_med - 1.0) * 100.0;
        // Negative readings are noise however large: the sink only adds
        // work, so a faster traced run means the machine moved under us.
        let within_noise = overhead_pct <= OBS_NOISE_FLOOR_PCT;
        let label = if within_noise {
            format!("{overhead_pct:>+7.1}% (noise)")
        } else {
            format!("{overhead_pct:>+7.1}%")
        };
        table.push_str(&format!(
            "{threads:<10} {off_med:>12.1} {on_med:>12.1} {label:>16}\n"
        ));
        rows.push(Json::Obj(vec![
            ("program".into(), "gw-3-r32/dfs".to_json()),
            ("threads".into(), (threads as u64).to_json()),
            ("pairs".into(), (PAIRS as u64).to_json()),
            ("wall_ms_obs_off".into(), off_med.to_json()),
            ("wall_ms_trace_on".into(), on_med.to_json()),
            ("overhead_pct".into(), overhead_pct.to_json()),
            ("noise_floor_pct".into(), OBS_NOISE_FLOOR_PCT.to_json()),
            ("within_noise_floor".into(), within_noise.to_json()),
        ]));
    }

    print!("{table}");
    std::fs::write(format!("{repo_root}/results/obs_overhead.txt"), &table)
        .expect("write results/obs_overhead.txt");
    let json = Json::Obj(vec![
        ("bench".into(), "obs_overhead".to_json()),
        ("rows".into(), Json::Arr(rows)),
    ]);
    std::fs::write(format!("{repo_root}/BENCH_obs.json"), json.to_text() + "\n")
        .expect("write BENCH_obs.json");
}

/// The disabled-path budget the obs design promises: one relaxed atomic
/// load per instrumentation site when nothing is enabled. Measures the
/// real per-site cost over 50M gated calls and fails the smoke run if it
/// creeps past 5 ns — a regression here means someone put work ahead of
/// the `active()` gate. Skipped when tracing is on (the measurement is
/// only about the disabled path).
fn obs_disabled_guard() {
    if obs::active() {
        println!("obs disabled-path guard skipped (observability is enabled)");
        return;
    }
    const N: u64 = 50_000_000;
    let start = std::time::Instant::now();
    let mut acc = 0u64;
    for i in 0..N {
        if black_box(obs::active()) {
            acc = acc.wrapping_add(i);
        }
    }
    black_box(acc);
    let per_site_ns = start.elapsed().as_nanos() as f64 / N as f64;
    assert!(
        per_site_ns < 5.0,
        "disabled obs gate costs {per_site_ns:.2} ns/site (budget 5 ns)"
    );
    println!("obs disabled-path guard OK: {per_site_ns:.3} ns per gated site");
}

/// Stateful k-packet unrolling: sequence templates and wall time vs k on
/// the connection-tracking firewall. The cost model is the point — the
/// unrolled path mass grows with k while zero-init pruning keeps the
/// feasible sequence count small, and a regression in either direction
/// (lost pruning inflating time, lost threading dropping sequences) moves
/// the table. k=1 is asserted against the single-packet engine, the
/// byte-for-byte degeneration contract. Writes
/// `results/stateful_unroll.txt` + `BENCH_stateful.json`; the engine's
/// `sequence.*` spans land in this figure's trace for `meissa-trace`.
fn stateful_unroll() {
    use meissa_testkit::json::{Json, ToJson};
    use std::time::Instant;

    const KS: [usize; 4] = [1, 2, 3, 4];
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let w = meissa_suite::stateful_firewall();

    let mut table = String::from(
        "Stateful unrolling: sequence templates and time vs k on the\n\
         connection-tracking firewall (best of 3; k=1 delegates to the\n\
         single-packet engine byte-for-byte, so its row doubles as the\n\
         degeneration anchor)\n\n",
    );
    table.push_str(&format!(
        "{:<14} {:>4} {:>11} {:>12} {:>10} {:>10}\n",
        "program", "k", "sequences", "smt_checks", "explored", "wall ms"
    ));
    let mut rows: Vec<Json> = Vec::new();

    // The degeneration anchor: k=1 must reproduce this run exactly.
    let single = Meissa {
        config: MeissaConfig {
            threads: 1,
            ..MeissaConfig::default()
        },
    }
    .run(&w.program);

    let mut prev_sequences = 0usize;
    for k in KS {
        let config = MeissaConfig {
            k_packets: k,
            threads: 1,
            ..MeissaConfig::default()
        };
        let mut best: Option<(f64, meissa_core::StatefulRunOutput)> = None;
        for _ in 0..3 {
            let engine = Meissa {
                config: config.clone(),
            };
            let t = Instant::now();
            let run = engine.run_sequences(&w.program);
            let secs = t.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(b, _)| secs < *b) {
                best = Some((secs, run));
            }
        }
        let (secs, run) = best.unwrap();
        if k == 1 {
            assert_eq!(
                run.sequences.len(),
                single.templates.len(),
                "k=1 sequence count must match the single-packet engine"
            );
            assert_eq!(
                run.stats.smt_checks, single.stats.smt_checks,
                "k=1 smt_checks must match the single-packet engine"
            );
        }
        assert!(
            run.sequences.len() >= prev_sequences,
            "sequence count must not shrink as k grows \
             (k={k}: {} < {prev_sequences})",
            run.sequences.len()
        );
        prev_sequences = run.sequences.len();
        let ms = secs * 1e3;
        table.push_str(&format!(
            "{:<14} {k:>4} {:>11} {:>12} {:>10} {ms:>10.2}\n",
            w.name,
            run.sequences.len(),
            run.stats.smt_checks,
            run.stats.paths_explored,
        ));
        rows.push(Json::Obj(vec![
            ("program".into(), w.name.as_str().to_json()),
            ("k".into(), (k as u64).to_json()),
            ("sequences".into(), (run.sequences.len() as u64).to_json()),
            ("smt_checks".into(), run.stats.smt_checks.to_json()),
            ("paths_explored".into(), run.stats.paths_explored.to_json()),
            ("wall_ms".into(), ms.to_json()),
        ]));
    }

    print!("{table}");
    std::fs::write(format!("{repo_root}/results/stateful_unroll.txt"), &table)
        .expect("write results/stateful_unroll.txt");
    let json = Json::Obj(vec![
        ("bench".into(), "stateful_unroll".to_json()),
        ("rows".into(), Json::Arr(rows)),
    ]);
    std::fs::write(
        format!("{repo_root}/BENCH_stateful.json"),
        json.to_text() + "\n",
    )
    .expect("write BENCH_stateful.json");
}

/// CI smoke: one gw-3-r8 run per engine, checked against the golden
/// counters the checked-in `BENCH_parallel.json` rows were recorded with.
/// Catches silent drift in `smt_checks` (the Fig. 11b metric must stay
/// comparable across solver-strategy changes — a batched arm still counts
/// as one check) and in the template count. Run via
/// `MEISSA_BENCH_SMOKE=1 cargo bench -p meissa-bench`, as `scripts/ci.sh`
/// does; any drift panics, failing the bench run.
/// CI scaling guard: gw-3-r32 through the no-summary DFS at 1 and 4
/// threads, failing the run when the 4-thread speedup falls below 2.0x.
/// Host-gated — on a host with fewer than 4 cores the engine right-sizes
/// its pool to the available parallelism and the target is unattainable by
/// construction, so the guard reports the skip and passes (`scripts/ci.sh`
/// additionally gates the invocation on `nproc`). Run via
/// `MEISSA_BENCH_SCALING=1 cargo bench -p meissa-bench`.
fn scaling_guard() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!("scaling guard skipped: host exposes {cores} core(s) (< 4)");
        return;
    }
    let w = gw(3, GwScale { eips: 32 });
    let dfs = MeissaConfig {
        code_summary: false,
        ..MeissaConfig::default()
    };
    let t1 = best_of_3(&w, &MeissaConfig { threads: 1, ..dfs.clone() });
    let t4 = best_of_3(&w, &MeissaConfig { threads: 4, ..dfs });
    assert_eq!(
        t1.templates, t4.templates,
        "scaling guard: template count must be thread-count invariant"
    );
    let speedup = t1.secs / t4.secs;
    assert!(
        speedup >= 2.0,
        "scaling guard: gw-3-r32/dfs t4 speedup {speedup:.2}x below the \
         2.0x floor on a {cores}-core host (t1 {:.1} ms, t4 {:.1} ms)",
        t1.secs * 1e3,
        t4.secs * 1e3,
    );
    println!(
        "scaling guard OK: gw-3-r32/dfs t4 speedup {speedup:.2}x on a \
         {cores}-core host"
    );
}

fn bench_smoke() {
    const GOLDEN_DFS_SMT_CHECKS: u64 = 12648;
    const GOLDEN_SUMMARY_SMT_CHECKS: u64 = 11406;
    const GOLDEN_TEMPLATES: usize = 253;

    let w = gw(3, GwScale { eips: 8 });
    let dfs = measure(
        &w,
        MeissaConfig {
            code_summary: false,
            threads: 1,
            ..MeissaConfig::default()
        },
    );
    assert_eq!(
        dfs.smt_checks, GOLDEN_DFS_SMT_CHECKS,
        "gw-3-r8/dfs smt_checks drifted from the recorded golden"
    );
    assert_eq!(
        dfs.templates, GOLDEN_TEMPLATES,
        "gw-3-r8/dfs template count drifted from the recorded golden"
    );
    let summary = measure(
        &w,
        MeissaConfig {
            threads: 1,
            ..MeissaConfig::default()
        },
    );
    assert_eq!(
        summary.smt_checks, GOLDEN_SUMMARY_SMT_CHECKS,
        "gw-3-r8/summary smt_checks drifted from the recorded golden"
    );
    assert_eq!(
        summary.templates, GOLDEN_TEMPLATES,
        "gw-3-r8/summary template count drifted from the recorded golden"
    );
    println!(
        "bench smoke OK: gw-3-r8 dfs {} checks ({} sat calls, {} batched), \
         summary {} checks ({} sat calls, {} batched), {} templates",
        dfs.smt_checks,
        dfs.sat_engine_calls,
        dfs.batched_probes,
        summary.smt_checks,
        summary.sat_engine_calls,
        summary.batched_probes,
        dfs.templates,
    );
}

fn main() {
    obs::init_from_env();
    if std::env::var_os("MEISSA_BENCH_SMOKE").is_some() {
        obs_disabled_guard();
        bench_smoke();
        return;
    }
    if std::env::var_os("MEISSA_BENCH_SCALING").is_some() {
        scaling_guard();
        return;
    }
    if let Some(mode) = std::env::var_os("MEISSA_BENCH_NETDRIVER") {
        // `=1` (CI) runs the throughput-floor guard; `=full` regenerates
        // the loopback connection sweep + soak smoke without the rest of the
        // figure suite.
        if mode == "full" {
            netdriver_loopback();
        } else {
            netdriver_guard();
        }
        return;
    }
    if std::env::var_os("MEISSA_BENCH_OBS").is_some() {
        // Regenerate the tracing-overhead table alone (BENCH_obs.json +
        // results/obs_overhead.txt) without the rest of the figure suite.
        obs_overhead();
        return;
    }
    if std::env::var_os("MEISSA_BENCH_STATEFUL").is_some() {
        // CI's stateful smoke: the unrolling sweep alone, with its trace
        // left behind for the meissa-trace reconciliation step.
        traced("stateful_unroll", stateful_unroll);
        return;
    }
    traced("fig7", fig7_redundancy);
    traced("fig9", fig9_scalability);
    traced("fig11", fig11_summary);
    traced("fig12", fig12_rulesets);
    traced("appendix_a", appendix_a_complexity);
    traced("ablation_grouped", ablation_grouped_summary);
    traced("stateful_unroll", stateful_unroll);
    // The scaling/overhead series manage tracing themselves: their wall
    // times are the recorded baselines, so the sink must stay off except
    // where the overhead bench turns it on deliberately.
    parallel_scaling();
    netdriver_loopback();
    obs_overhead();
}
