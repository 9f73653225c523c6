//! Per-layer metrics, computed from the JSONL trace of a traced run.
//!
//! The benchmark wraps each unit of work in a root span (`e2e.campaign`,
//! `e2e.setup`, `e2e.segment`, `e2e.calibrate`) and each call into a layer
//! in a child span; the program adds its own spans (`engine.*`,
//! `parallel.worker`, `wire.*`) to the same file. Every per-layer number
//! is read back from that file, so each one traces to the span or field
//! that produced it.

use crate::measure::{push, Samples};
use meissa_testkit::json::Json;
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;

struct Span {
    name: String,
    id: u64,
    parent: u64,
    start: u64,
    dur: u64,
    fields: Vec<(String, u64)>,
}

impl Span {
    fn field(&self, key: &str) -> u64 {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    }

    fn contains(&self, at: u64) -> bool {
        (self.start..=self.start + self.dur).contains(&at)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn parse_span(line: &str) -> Result<Span, String> {
    let j = Json::parse(line).map_err(|e| format!("trace line: {e}"))?;
    let num = |k: &str| j.get(k).and_then(|v| v.as_u128().ok()).unwrap_or(0) as u64;
    let fields = match j.get("fields") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u128().unwrap_or(0) as u64))
            .collect(),
        _ => Vec::new(),
    };
    Ok(Span {
        name: j
            .get("name")
            .and_then(|v| v.as_str().ok())
            .unwrap_or("")
            .to_string(),
        id: num("id"),
        parent: num("parent"),
        start: num("start_ns"),
        dur: num("dur_ns"),
        fields,
    })
}

/// Nearest-rank percentile, the rule `driver::report` uses.
fn percentile(sorted: &[u64], p: u32) -> u64 {
    sorted[meissa_testkit::obs::percentile_index(sorted.len(), p)]
}

pub fn analyze(path: &Path) -> Result<Samples, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spans = Vec::new();
    // Per-case wire spans are the bulk of a soak trace; only their timing
    // is needed.
    let mut wire_cases: Vec<(u64, u64)> = Vec::new();
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
        if !line.starts_with(r#"{"t":"span""#) {
            continue;
        }
        let span = parse_span(&line)?;
        if span.name == "wire.case" {
            wire_cases.push((span.start, span.dur));
        } else {
            spans.push(span);
        }
    }
    wire_cases.sort_unstable();

    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in &spans {
        children.entry(s.parent).or_default().push(s);
    }
    let kids = |s: &Span| children.get(&s.id).map_or(&[][..], Vec::as_slice);
    let workers: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "parallel.worker")
        .collect();

    let mut out = Samples::new();
    let (mut root_wall, mut covered, mut exported) = (0u64, 0u64, 0u64);
    let (mut busy_wall, mut busy_cpu_us) = (0u64, 0u64);
    for root in spans.iter().filter(|s| s.name.starts_with("e2e.")) {
        root_wall += root.dur;
        let (mut inject_ns, mut injects) = (0u64, 0u64);
        for child in kids(root) {
            covered += child.dur;
            match child.name.as_str() {
                "lang.parse" => push(&mut out, "lang.parse_ms", ms(child.dur)),
                "lang.compile" => push(&mut out, "lang.compile_ms", ms(child.dur)),
                // The engine and the wire client flush the trace after their
                // own span closes; the benchmark's span around each call
                // measures that export.
                "core.generate" | "netdriver.soak" => {
                    let inner: u64 = kids(child).iter().map(|k| k.dur).sum();
                    exported += child.dur.saturating_sub(inner);
                    for run in kids(child).iter().filter(|k| k.name == "engine.run") {
                        engine(&mut out, run, kids(run), &workers);
                    }
                }
                "driver.plan" => {
                    push(&mut out, "driver.plan_ms", ms(child.dur));
                    let cases = child.field("cases");
                    if cases > 0 {
                        push(
                            &mut out,
                            "driver.plan_us_per_case",
                            child.dur as f64 / 1e3 / cases as f64,
                        );
                    }
                }
                "dataplane.serialize" => push(&mut out, "dataplane.serialize_ms", ms(child.dur)),
                "dataplane.ref_inject" | "dataplane.target_inject" => {
                    let key = if child.name == "dataplane.ref_inject" {
                        "dataplane.ref_inject_ms"
                    } else {
                        "dataplane.target_inject_ms"
                    };
                    push(&mut out, key, ms(child.dur));
                    inject_ns += child.dur;
                    injects += child.field("calls");
                }
                "driver.check" => push(&mut out, "driver.check_ms", ms(child.dur)),
                _ => {}
            }
        }
        if injects > 0 {
            push(
                &mut out,
                "dataplane.inject_us_per_case",
                inject_ns as f64 / 1e3 / injects as f64,
            );
        }
        match root.name.as_str() {
            "e2e.campaign" | "e2e.setup" => {
                push(
                    &mut out,
                    "core.paths_explored",
                    root.field("paths_explored") as f64,
                );
                push(&mut out, "core.pruned", root.field("pruned") as f64);
                push(
                    &mut out,
                    "core.summary_kept_ratio",
                    ratio(
                        root.field("summary_kept_paths"),
                        root.field("summary_entry_paths"),
                    ),
                );
                push(&mut out, "driver.skipped", root.field("skipped") as f64);
            }
            _ => {}
        }
        match root.name.as_str() {
            "e2e.campaign" => {
                push(
                    &mut out,
                    "driver.case_p50_us",
                    root.field("case_p50_ns") as f64 / 1e3,
                );
                push(
                    &mut out,
                    "driver.case_p99_us",
                    root.field("case_p99_ns") as f64 / 1e3,
                );
            }
            "e2e.segment" => {
                push(&mut out, "netdriver.retried", root.field("retried") as f64);
                push(
                    &mut out,
                    "netdriver.agent_injected",
                    root.field("injected") as f64,
                );
                let mut lat: Vec<u64> = wire_cases
                    .iter()
                    .filter(|&&(start, _)| root.contains(start))
                    .map(|&(_, dur)| dur)
                    .collect();
                lat.sort_unstable();
                if !lat.is_empty() {
                    push(
                        &mut out,
                        "driver.case_p50_us",
                        percentile(&lat, 50) as f64 / 1e3,
                    );
                    push(
                        &mut out,
                        "driver.case_p99_us",
                        percentile(&lat, 99) as f64 / 1e3,
                    );
                }
            }
            _ => {}
        }
        if matches!(root.name.as_str(), "e2e.campaign" | "e2e.segment") {
            busy_wall += root.dur;
            busy_cpu_us += root.field("cpu_us");
        }
    }
    if root_wall == 0 {
        return Err(format!("{}: no e2e.* spans in the trace", path.display()));
    }
    push(&mut out, "trace.layer_coverage", ratio(covered, root_wall));
    push(&mut out, "trace.export_share", ratio(exported, root_wall));
    push(
        &mut out,
        "proc.cpu_util",
        ratio(busy_cpu_us * 1000, busy_wall),
    );
    Ok(out)
}

/// The engine's own split of one `Meissa::run`: its summary and exec child
/// spans, the counters it records on `engine.run`, and the busy share of
/// the parallel workers that ran inside it.
fn engine(out: &mut Samples, run: &Span, kids: &[&Span], workers: &[&Span]) {
    let child = |name: &str| {
        kids.iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum::<u64>()
    };
    let (summary, exec) = (child("engine.summary"), child("engine.exec"));
    push(out, "core.run_ms", ms(run.dur));
    push(
        out,
        "core.run_other_ms",
        ms(run.dur.saturating_sub(summary + exec)),
    );
    push(out, "core.summary_share", ratio(summary, run.dur));
    push(out, "core.exec_share", ratio(exec, run.dur));
    let f = |k: &str| run.field(k);
    push(out, "core.smt_checks", f("smt_checks") as f64);
    push(out, "core.sat_engine_calls", f("sat_engine_calls") as f64);
    push(
        out,
        "core.cache_hit_ratio",
        ratio(f("cache_hits"), f("cache_probes")),
    );
    push(
        out,
        "core.arms_per_batch",
        ratio(f("batched_probes"), f("arm_batches")),
    );
    push(
        out,
        "core.bdd_share",
        ratio(
            f("backend_routed_bdd"),
            f("backend_routed_smt") + f("backend_routed_bdd"),
        ),
    );
    push(out, "smt.sat_conflicts", f("sat_conflicts") as f64);
    push(out, "smt.sat_propagations", f("sat_propagations") as f64);
    let (busy, wall) = workers
        .iter()
        .filter(|w| run.contains(w.start))
        .fold((0, 0), |(b, t), w| {
            (b + w.field("busy_us"), t + w.field("wall_us"))
        });
    push(out, "core.parallel_util", ratio(busy, wall));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &str,
        id: u64,
        parent: u64,
        start: u64,
        dur: u64,
        fields: &[(&str, u64)],
    ) -> String {
        let fields: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!(r#""{k}":{v}"#))
            .collect();
        format!(
            r#"{{"t":"span","name":"{name}","id":{id},"parent":{parent},"tid":1,"start_ns":{start},"dur_ns":{dur},"fields":{{{}}}}}"#,
            fields.join(",")
        )
    }

    #[test]
    fn self_times_and_coverage_come_from_the_span_tree() {
        let lines = [
            r#"{"t":"meta","version":1}"#.to_string(),
            span("lang.parse", 2, 1, 0, 1_000_000, &[]),
            span("engine.summary", 4, 3, 1_000_000, 4_000_000, &[]),
            span(
                "parallel.worker",
                9,
                0,
                2_000_000,
                1_000_000,
                &[("busy_us", 600), ("wall_us", 1000)],
            ),
            span(
                "engine.run",
                3,
                8,
                1_000_000,
                6_000_000,
                &[("smt_checks", 42), ("cache_probes", 4), ("cache_hits", 1)],
            ),
            span("core.generate", 8, 1, 1_000_000, 6_500_000, &[]),
            span("driver.plan", 5, 1, 7_500_000, 1_500_000, &[("cases", 3)]),
            span(
                "dataplane.ref_inject",
                6,
                1,
                9_000_000,
                300_000,
                &[("calls", 4)],
            ),
            span(
                "dataplane.target_inject",
                7,
                1,
                9_000_000,
                500_000,
                &[("calls", 4)],
            ),
            span(
                "e2e.campaign",
                1,
                0,
                0,
                10_000_000,
                &[("cpu_us", 15_000), ("case_p50_ns", 2_000)],
            ),
        ];
        let path = std::env::temp_dir().join(format!("e2e-layers-{}.jsonl", std::process::id()));
        std::fs::write(&path, lines.join("\n")).unwrap();
        let s = analyze(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let one = |k: &str| s[k][0];
        assert_eq!(one("core.run_ms"), 6.0);
        assert_eq!(one("core.run_other_ms"), 2.0);
        assert!((one("core.summary_share") - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(one("core.exec_share"), 0.0);
        assert_eq!(one("core.smt_checks"), 42.0);
        assert_eq!(one("core.cache_hit_ratio"), 0.25);
        assert_eq!(one("core.parallel_util"), 0.6);
        assert_eq!(one("driver.plan_us_per_case"), 500.0);
        assert_eq!(one("dataplane.inject_us_per_case"), 100.0);
        assert_eq!(one("driver.case_p50_us"), 2.0);
        // parse 1 + generate 6.5 + plan 1.5 + injects 0.8 of a 10 ms
        // campaign, 0.5 of it the trace export after engine.run closed.
        assert!((one("trace.layer_coverage") - 0.98).abs() < 1e-12);
        assert!((one("trace.export_share") - 0.05).abs() < 1e-12);
        assert_eq!(one("proc.cpu_util"), 1.5);
    }
}
