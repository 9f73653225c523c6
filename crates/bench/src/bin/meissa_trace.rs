//! `meissa-trace`: summarize (or validate) a `MEISSA_TRACE` JSONL file.
//!
//! ```text
//! meissa-trace <trace.jsonl>                 per-phase / per-worker breakdown
//! meissa-trace --check <trace.jsonl>         schema + span-tree validation
//! meissa-trace diff <a> <b> [--strict-perf]  regression gate between runs
//! ```
//!
//! The report mode prints, for every `engine.run` span in the file:
//! phase wall time (summary vs. exec vs. unattributed), the per-worker
//! table from `parallel.worker` spans (tasks, steals, busy solve time),
//! and the solver and batch counters the engine stamped on the run
//! span — the same values `RunStats` reports, so the trace reconciles
//! with the engine's own accounting. Wire-driver traces get the same
//! treatment via `wire.run`/`wire.conn` spans. A final section shows the
//! last metric snapshot (cumulative counters at the last flush).
//!
//! The check mode validates what CI relies on: every line parses as one
//! of the known record kinds, span ids are unique, parent references
//! resolve, and a child span nests inside its parent's time range on the
//! same thread.
//!
//! The diff mode compares two runs — each side a `results/ledger.jsonl`
//! run-record file (last record wins) or a raw trace — and exits non-zero
//! on regression: rule arms hit in the baseline but unhit (or gone) in
//! the candidate, or drift in the exact-by-contract counters
//! (`smt_checks`, `templates`, `valid_paths`). Wall-clock (±20%) and
//! latency percentiles (×1.5) only warn unless `--strict-perf`, so the
//! gate stays deterministic on noisy CI hosts.

use meissa_testkit::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::exit;

struct Span {
    name: String,
    id: u64,
    parent: u64,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    fields: Vec<(String, u64)>,
}

struct Event {
    name: String,
    #[allow(dead_code)]
    span: u64,
}

#[derive(Default)]
struct Trace {
    spans: Vec<Span>,
    events: Vec<Event>,
    /// name → value from the *last* snapshot in the file.
    counters: BTreeMap<String, u64>,
    /// name → (count, sum, p50, p99) from the last snapshot.
    hists: BTreeMap<String, (u64, u64, u64, u64)>,
    /// `(name, data)` of every structured note, in file order (the
    /// engine's coverage map travels as a `coverage` note).
    notes: Vec<(String, Json)>,
    lines: usize,
}

fn num(v: &Json, key: &str) -> Result<u64, String> {
    v.field(key)
        .and_then(|f| f.as_u128())
        .map(|n| n as u64)
        .map_err(|e| e.to_string())
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.field(key)
        .and_then(|f| f.as_str().map(str::to_string))
        .map_err(|e| e.to_string())
}

fn fields_of(v: &Json) -> Vec<(String, u64)> {
    match v.get("fields") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, fv)| fv.as_u128().ok().map(|n| (k.clone(), n as u64)))
            .collect(),
        _ => Vec::new(),
    }
}

fn parse_trace(path: &str) -> Result<Trace, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut t = Trace::default();
    for (lineno, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: bad JSON: {e}", lineno + 1))?;
        let kind = text(&v, "t").map_err(|e| format!("line {}: {e}", lineno + 1))?;
        match kind.as_str() {
            "meta" => {}
            "span" => t.spans.push(Span {
                name: text(&v, "name")?,
                id: num(&v, "id")?,
                parent: num(&v, "parent")?,
                tid: num(&v, "tid")?,
                start_ns: num(&v, "start_ns")?,
                dur_ns: num(&v, "dur_ns")?,
                fields: fields_of(&v),
            }),
            "event" => t.events.push(Event {
                name: text(&v, "name")?,
                span: num(&v, "span")?,
            }),
            "counter" | "gauge" => {
                t.counters.insert(text(&v, "name")?, num(&v, "value")?);
            }
            "hist" => {
                t.hists.insert(
                    text(&v, "name")?,
                    (num(&v, "count")?, num(&v, "sum")?, num(&v, "p50")?, num(&v, "p99")?),
                );
            }
            "note" => {
                let data = v.get("data").cloned().unwrap_or(Json::Null);
                t.notes.push((text(&v, "name")?, data));
            }
            other => return Err(format!("line {}: unknown record kind `{other}`", lineno + 1)),
        }
        t.lines += 1;
    }
    Ok(t)
}

/// `--check`: span ids unique, parents resolve, children nest inside
/// their same-thread parent's interval.
fn check(t: &Trace) -> Result<(), String> {
    let mut by_id: HashMap<u64, &Span> = HashMap::new();
    for s in &t.spans {
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {}", s.id));
        }
    }
    for s in &t.spans {
        if s.parent == 0 {
            continue;
        }
        let Some(p) = by_id.get(&s.parent) else {
            return Err(format!(
                "span {} ({}) references unknown parent {}",
                s.id, s.name, s.parent
            ));
        };
        if p.tid != s.tid {
            return Err(format!(
                "span {} ({}) is parented across threads ({} vs {})",
                s.id, s.name, s.tid, p.tid
            ));
        }
        if s.start_ns < p.start_ns || s.start_ns + s.dur_ns > p.start_ns + p.dur_ns {
            return Err(format!(
                "span {} ({}) does not nest inside parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
    }
    Ok(())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn field(s: &Span, key: &str) -> Option<u64> {
    s.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

fn report(t: &Trace) -> String {
    let mut out = String::new();
    let runs: Vec<&Span> = t.spans.iter().filter(|s| s.name == "engine.run").collect();
    for (i, run) in runs.iter().enumerate() {
        let _ = writeln!(out, "== engine.run #{} ({:.1} ms) ==", i + 1, ms(run.dur_ns));
        let children: Vec<&Span> =
            t.spans.iter().filter(|s| s.parent == run.id).collect();
        let mut attributed = 0u64;
        let _ = writeln!(out, "  phase breakdown:");
        for c in &children {
            attributed += c.dur_ns;
            let _ = writeln!(out, "    {:<16} {:>9.1} ms", c.name, ms(c.dur_ns));
        }
        let _ = writeln!(
            out,
            "    {:<16} {:>9.1} ms",
            "(unattributed)",
            ms(run.dur_ns.saturating_sub(attributed))
        );
        // Worker spans live on their own threads (roots there), inside the
        // run's time range.
        let workers: Vec<&Span> = t
            .spans
            .iter()
            .filter(|s| {
                s.name == "parallel.worker"
                    && s.start_ns >= run.start_ns
                    && s.start_ns < run.start_ns + run.dur_ns
            })
            .collect();
        if !workers.is_empty() {
            // Utilization = busy / wall per worker: the single number that
            // says whether a scaling problem is starvation (low util, high
            // steal-wait) or serialization outside the workers (high util,
            // t_N wall ≈ t_1 wall). Merge share reads off the `parallel.
            // merge` child span below.
            let _ = writeln!(out, "  workers:");
            let _ = writeln!(
                out,
                "    {:<4} {:>7} {:>7} {:>12} {:>12} {:>7} {:>12}",
                "wid", "tasks", "steals", "busy ms", "steal-wait", "util%", "checks"
            );
            for w in &workers {
                let busy_us = field(w, "busy_us").unwrap_or(0);
                let wall_us = field(w, "wall_us").unwrap_or(0);
                let util = if wall_us == 0 {
                    0.0
                } else {
                    100.0 * busy_us as f64 / wall_us as f64
                };
                let _ = writeln!(
                    out,
                    "    {:<4} {:>7} {:>7} {:>12.1} {:>12.1} {:>7.1} {:>12}",
                    field(w, "wid").unwrap_or(0),
                    field(w, "tasks").unwrap_or(0),
                    field(w, "steals").unwrap_or(0),
                    ms(busy_us * 1000),
                    ms(field(w, "steal_wait_us").unwrap_or(0) * 1000),
                    util,
                    field(w, "smt_checks").unwrap_or(0),
                );
            }
            let merge_ns: u64 = t
                .spans
                .iter()
                .filter(|s| {
                    s.name == "parallel.merge"
                        && s.start_ns >= run.start_ns
                        && s.start_ns < run.start_ns + run.dur_ns
                })
                .map(|s| s.dur_ns)
                .sum();
            if merge_ns > 0 {
                let _ = writeln!(
                    out,
                    "    merge/retire     {:>9.1} ms ({:.1}% of run)",
                    ms(merge_ns),
                    100.0 * merge_ns as f64 / run.dur_ns.max(1) as f64
                );
            }
        }
        if !run.fields.is_empty() {
            let _ = writeln!(out, "  run counters (from RunStats):");
            for (k, v) in &run.fields {
                let _ = writeln!(out, "    {k:<18} {v}");
            }
        }
    }
    let wire_runs: Vec<&Span> = t.spans.iter().filter(|s| s.name == "wire.run").collect();
    for (i, run) in wire_runs.iter().enumerate() {
        let _ = writeln!(out, "== wire.run #{} ({:.1} ms) ==", i + 1, ms(run.dur_ns));
        for (k, v) in &run.fields {
            let _ = writeln!(out, "    {k:<14} {v}");
        }
        let conns = t.spans.iter().filter(|s| s.name == "wire.conn").count();
        let cases = t.spans.iter().filter(|s| s.name == "wire.case").count();
        let _ = writeln!(out, "    conn spans     {conns}");
        let _ = writeln!(out, "    case spans     {cases}");
    }
    if !t.events.is_empty() {
        let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
        for e in &t.events {
            *tally.entry(e.name.as_str()).or_insert(0) += 1;
        }
        let _ = writeln!(out, "== events ==");
        for (name, n) in tally {
            let _ = writeln!(out, "    {name:<24} {n}");
        }
    }
    if !t.counters.is_empty() || !t.hists.is_empty() {
        let _ = writeln!(out, "== metrics (last snapshot) ==");
        for (name, v) in &t.counters {
            let _ = writeln!(out, "    {name:<24} {v}");
        }
        for (name, (count, sum, p50, p99)) in &t.hists {
            let _ = writeln!(
                out,
                "    {name:<24} count={count} sum={sum} p50≈{p50} p99≈{p99}"
            );
        }
    }
    out.push_str(&coverage_section(t));
    out
}

/// Renders the last `coverage` note — the engine's per-rule hit map — as
/// a per-table breakdown: hit/total rules, miss-arm hits, and the ids of
/// any unhit rules (the actionable part).
fn coverage_section(t: &Trace) -> String {
    let Some((_, data)) = t.notes.iter().rev().find(|(n, _)| n == "coverage") else {
        return String::new();
    };
    let cov = coverage_arms(data);
    if cov.is_empty() {
        return String::new();
    }
    let mut out = String::from("== rule coverage (last run) ==\n");
    let mut tables: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
    for ((table, arm), hits) in &cov {
        tables.entry(table).or_default().push((arm, *hits));
    }
    for (table, arms) in tables {
        let rules: Vec<&(&str, u64)> = arms.iter().filter(|(a, _)| *a != "miss").collect();
        let hit = rules.iter().filter(|(_, h)| *h > 0).count();
        let miss = arms.iter().find(|(a, _)| *a == "miss");
        let _ = write!(out, "    {table:<16} rules {hit}/{}", rules.len());
        if let Some((_, h)) = miss {
            let _ = write!(out, ", miss arm {} hit{}", h, if *h == 1 { "" } else { "s" });
        }
        let unhit: Vec<&str> = rules
            .iter()
            .filter(|(_, h)| *h == 0)
            .map(|(a, _)| *a)
            .collect();
        if !unhit.is_empty() {
            let _ = write!(out, "  UNHIT: {}", unhit.join(", "));
        }
        out.push('\n');
    }
    out
}

/// Flattens a `RuleCoverage` JSON map into `(table, arm) → hits`, where
/// `arm` is a rule index rendered as text or `"miss"`. Tolerant of
/// malformed entries (skipped) so a truncated trace still diffs.
fn coverage_arms(cov: &Json) -> BTreeMap<(String, String), u64> {
    let mut out = BTreeMap::new();
    let Ok(tables) = cov.as_arr() else {
        return out;
    };
    for tj in tables {
        let Some(table) = tj.get("table").and_then(|v| v.as_str().ok()) else {
            continue;
        };
        if let Some(Json::Arr(rules)) = tj.get("rules") {
            for r in rules {
                let Ok(pair) = r.as_arr() else { continue };
                if pair.len() != 2 {
                    continue;
                }
                if let (Ok(i), Ok(h)) = (pair[0].as_u128(), pair[1].as_u128()) {
                    out.insert((table.to_string(), i.to_string()), h as u64);
                }
            }
        }
        let has_miss = matches!(tj.get("has_miss"), Some(Json::Bool(true)));
        if has_miss {
            let miss = tj
                .get("miss")
                .and_then(|v| v.as_u128().ok())
                .unwrap_or(0) as u64;
            out.insert((table.to_string(), "miss".to_string()), miss);
        }
    }
    out
}

/// One run, normalized for diffing — built from a ledger `run_record`
/// line or synthesized from a trace's `engine.run` span + coverage note.
struct RecordView {
    kind: String,
    program_hash: String,
    rule_set_hash: String,
    counters: BTreeMap<String, u64>,
    /// `(table, arm) → hits`; arm is a rule index as text or `"miss"`.
    coverage: BTreeMap<(String, String), u64>,
    latency: Option<(u64, u64)>, // (p50, p99)
}

fn record_from_ledger(v: &Json) -> RecordView {
    let s = |k: &str| {
        v.get(k)
            .and_then(|f| f.as_str().ok())
            .unwrap_or("")
            .to_string()
    };
    let mut counters = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = v.get("counters") {
        for (k, cv) in pairs {
            if let Ok(n) = cv.as_u128() {
                counters.insert(k.clone(), n as u64);
            }
        }
    }
    let coverage = v.get("coverage").map(coverage_arms).unwrap_or_default();
    let latency = v.get("latency").and_then(|l| {
        let q = |k: &str| l.get(k).and_then(|f| f.as_u128().ok()).map(|n| n as u64);
        Some((q("p50")?, q("p99")?))
    });
    RecordView {
        kind: s("kind"),
        program_hash: s("program_hash"),
        rule_set_hash: s("rule_set_hash"),
        counters,
        coverage,
        latency,
    }
}

/// Loads one diff side. A file holding `run_record` lines is a ledger —
/// the *last* record wins (append-only files accumulate). Anything else
/// must parse as a trace; the view is synthesized from the last
/// `engine.run`/`sequence.run` span's stamped counters plus the last
/// `coverage` note.
fn load_record(path: &str) -> Result<RecordView, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut last_record = None;
    for line in body.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Ok(v) = Json::parse(line) {
            if v.get("t").and_then(|t| t.as_str().ok()) == Some("run_record") {
                last_record = Some(v);
            }
        }
    }
    if let Some(v) = last_record {
        return Ok(record_from_ledger(&v));
    }
    let t = parse_trace(path)?;
    let run = t
        .spans
        .iter()
        .rev()
        .find(|s| s.name == "engine.run" || s.name == "sequence.run" || s.name == "wire.soak")
        .ok_or_else(|| format!("{path}: no run_record lines and no run spans to diff"))?;
    let mut counters: BTreeMap<String, u64> =
        run.fields.iter().cloned().collect();
    counters.remove("threads"); // machine-shape, not behaviour
    let coverage = t
        .notes
        .iter()
        .rev()
        .find(|(n, _)| n == "coverage")
        .map(|(_, d)| coverage_arms(d))
        .unwrap_or_default();
    let latency = t
        .hists
        .get("wire.case_latency_us")
        .map(|&(_, _, p50, p99)| (p50, p99));
    Ok(RecordView {
        kind: run.name.clone(),
        program_hash: String::new(),
        rule_set_hash: String::new(),
        counters,
        coverage,
        latency,
    })
}

/// Counters that must match exactly between runs of the same program and
/// config: the solver's work is deterministic, so drift here is a real
/// behaviour change, not noise.
const EXACT_COUNTERS: [&str; 3] = ["smt_checks", "templates", "valid_paths"];

/// Wall-clock drift tolerance (fraction) before a warning.
const WALL_TOLERANCE: f64 = 0.20;
/// Latency percentile growth factor before a warning.
const LATENCY_FACTOR: f64 = 1.5;

/// Compares baseline `a` against candidate `b`. Returns
/// `(regressions, warnings)`; any regression (or, under strict mode, any
/// warning) should fail the gate.
fn diff_records(a: &RecordView, b: &RecordView) -> (Vec<String>, Vec<String>) {
    let mut regressions = Vec::new();
    let mut warnings = Vec::new();
    if a.kind != b.kind && !a.kind.is_empty() && !b.kind.is_empty() {
        warnings.push(format!("comparing different run kinds: {} vs {}", a.kind, b.kind));
    }
    if !a.program_hash.is_empty() && !b.program_hash.is_empty() && a.program_hash != b.program_hash
    {
        warnings.push(format!(
            "program hash differs: {} vs {}",
            a.program_hash, b.program_hash
        ));
    }
    if !a.rule_set_hash.is_empty()
        && !b.rule_set_hash.is_empty()
        && a.rule_set_hash != b.rule_set_hash
    {
        warnings.push(format!(
            "rule-set hash differs: {} vs {}",
            a.rule_set_hash, b.rule_set_hash
        ));
    }
    // Coverage: every arm the baseline hit must still exist and be hit.
    for ((table, arm), &hits) in &a.coverage {
        if hits == 0 {
            continue;
        }
        let label = if arm == "miss" {
            format!("table {table} miss arm")
        } else {
            format!("table {table} rule {arm}")
        };
        match b.coverage.get(&(table.clone(), arm.clone())) {
            None => regressions.push(format!(
                "coverage: {label} hit in baseline, absent in candidate"
            )),
            Some(0) => regressions.push(format!(
                "coverage: {label} hit in baseline, unhit in candidate"
            )),
            Some(_) => {}
        }
    }
    for name in EXACT_COUNTERS {
        match (a.counters.get(name), b.counters.get(name)) {
            (Some(&x), Some(&y)) if x != y => {
                regressions.push(format!("counter {name}: {x} vs {y} (must match exactly)"));
            }
            _ => {}
        }
    }
    if let (Some(&x), Some(&y)) = (a.counters.get("elapsed_ms"), b.counters.get("elapsed_ms")) {
        if x > 0 && (y as f64) > (x as f64) * (1.0 + WALL_TOLERANCE) {
            warnings.push(format!(
                "wall clock grew past tolerance: {x} ms vs {y} ms (+{:.0}%)",
                100.0 * (y as f64 - x as f64) / x as f64
            ));
        }
    }
    if let (Some((ap50, ap99)), Some((bp50, bp99))) = (a.latency, b.latency) {
        for (name, x, y) in [("p50", ap50, bp50), ("p99", ap99, bp99)] {
            if x > 0 && (y as f64) > (x as f64) * LATENCY_FACTOR {
                warnings.push(format!("latency {name} grew: {x} us vs {y} us"));
            }
        }
    }
    (regressions, warnings)
}

fn run_diff(a_path: &str, b_path: &str, strict_perf: bool) -> i32 {
    let (a, b) = match (load_record(a_path), load_record(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("meissa-trace: {e}");
            return 2;
        }
    };
    let (regressions, warnings) = diff_records(&a, &b);
    for w in &warnings {
        println!("WARN: {w}");
    }
    for r in &regressions {
        println!("REGRESSION: {r}");
    }
    let arms_checked = a.coverage.values().filter(|&&h| h > 0).count();
    if regressions.is_empty() && (!strict_perf || warnings.is_empty()) {
        println!(
            "diff ok: {} covered arms preserved, {} exact counters match",
            arms_checked,
            EXACT_COUNTERS
                .iter()
                .filter(|n| a.counters.contains_key(**n) && b.counters.contains_key(**n))
                .count()
        );
        0
    } else {
        println!(
            "diff FAILED: {} regression(s), {} warning(s){}",
            regressions.len(),
            warnings.len(),
            if strict_perf { " [strict-perf]" } else { "" }
        );
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        let rest: Vec<&String> = args[1..].iter().collect();
        let strict = rest.iter().any(|a| *a == "--strict-perf");
        let paths: Vec<&&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
        let [a, b] = paths.as_slice() else {
            eprintln!("usage: meissa-trace diff <baseline> <candidate> [--strict-perf]");
            exit(2);
        };
        exit(run_diff(a, b, strict));
    }
    let (check_mode, path) = match args.as_slice() {
        [flag, p] if flag == "--check" => (true, p.clone()),
        [p] if p != "--check" && !p.starts_with("--") => (false, p.clone()),
        _ => {
            eprintln!("usage: meissa-trace [--check] <trace.jsonl> | diff <a> <b> [--strict-perf]");
            exit(2);
        }
    };
    let t = match parse_trace(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("meissa-trace: {e}");
            exit(1);
        }
    };
    if check_mode {
        if let Err(e) = check(&t) {
            eprintln!("meissa-trace: span tree invalid: {e}");
            exit(1);
        }
        println!(
            "ok: {} records ({} spans, {} events, {} metrics)",
            t.lines,
            t.spans.len(),
            t.events.len(),
            t.counters.len() + t.hists.len()
        );
    } else {
        // A truncated reader (`meissa-trace … | head`) closes the pipe
        // early; that is not an error worth a panic or a non-zero exit.
        let _ = std::io::stdout().write_all(report(&t).as_bytes());
    }
}
