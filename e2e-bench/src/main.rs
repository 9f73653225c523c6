//! `e2e`: the end-to-end benchmark. P4lite source and rule text go through
//! to verdicts on five gateway workloads; a separate traced mode splits the
//! time over the program's layers.
//!
//! ```text
//! e2e [run|trace] --workload W [--seed S] [--seconds N] [--trace 0|1]
//! e2e all [--seed S] [--seconds N] [--trace 0|1] --out FILE
//! e2e compare BASE.jsonl CHANGE.jsonl
//! ```
//!
//! `run` (or `--trace 0`) prints one JSON row per end-to-end metric,
//! `trace` (or `--trace 1`) one per per-layer metric; the last line of
//! standard output is always a summary object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed correctness check prints no rows and
//! exits 1. `all` runs every workload in its own child process and appends
//! the rows to `FILE`; `compare` judges two such files metric by metric.
//! See `README.md` next to this package.

mod inputs;
mod layers;
mod measure;
mod spec;
mod stats;
mod sys;

use inputs::{workload, WORKLOADS};
use meissa_testkit::json::Json;
use spec::spec;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

fn main() -> ExitCode {
    // Runs must not depend on the caller's environment. Binary framing is
    // the wire codec under test; once the program drops the variable,
    // binary is its only codec and the line below does nothing.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MEISSA_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("MEISSA_WIRE_FRAMING", "bin");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => opts(&args[1..]).and_then(|o| all(&o)),
        Some("compare") => match &args[1..] {
            [base, change] => compare(base, change),
            _ => Err(usage()),
        },
        Some("run") => opts(&args[1..]).and_then(|o| run(&o, false)),
        Some("trace") => opts(&args[1..]).and_then(|o| run(&o, true)),
        _ => opts(&args).and_then(|o| run(&o, o.trace)),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("e2e: {msg}");
        ExitCode::from(2)
    })
}

fn usage() -> String {
    "usage: e2e [run|trace] --workload W [--seed S] [--seconds N] [--trace 0|1]\n\
     \x20      e2e all [--seed S] [--seconds N] [--trace 0|1] --out FILE\n\
     \x20      e2e compare BASE.jsonl CHANGE.jsonl"
        .into()
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 0,
        seconds: spec().run_seconds,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.max(1),
            "--trace" => o.trace = number()? != 0,
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(usage()),
        }
    }
    Ok(o)
}

/// Where a traced run writes its JSONL: the build directory, which the
/// repository already ignores.
fn trace_path(workload: &str) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    dir.join("e2e").join(format!("{workload}.trace.jsonl"))
}

fn run(o: &Opts, traced: bool) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or_else(usage)?;
    let w = workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let inp = inputs::inputs(&w, o.seed)?;
    let path = trace_path(w.name);
    let mut attempted = 0;
    let outcome = measure::measure(
        &w,
        &inp,
        o.seed,
        o.seconds,
        traced.then_some(path.as_path()),
        &mut attempted,
    );
    let catalogue = if traced {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    // Every end-to-end metric must be measured, finite and non-zero; a
    // per-layer metric whose layer does not run in this workload reads 0.
    let outcome = outcome.and_then(|samples| {
        if !traced {
            for m in catalogue {
                let v = samples
                    .get(m.name.as_str())
                    .map_or(0.0, |v| stats::median(v));
                if !v.is_finite() || v == 0.0 {
                    return Err(format!("end-to-end metric {} was not measured", m.name));
                }
            }
        }
        Ok(samples)
    });
    let samples = match outcome {
        Ok(samples) => samples,
        Err(msg) => {
            eprintln!("e2e: {name} (seed {}): check failed: {msg}", o.seed);
            // The check that stopped the run counts as its one failure; a
            // run that completes had none.
            println!("{}", summary(false, attempted.max(1), 1, Vec::new()));
            return Ok(ExitCode::FAILURE);
        }
    };

    let (cores, commit) = (sys::cores(), sys::commit());
    let mut metrics = Vec::new();
    for m in catalogue {
        let values = samples
            .get(m.name.as_str())
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let (p25, value, p75) = if values.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            stats::quartiles(values)
        };
        let num = |v: f64| Json::Float(if v.is_finite() { v } else { 0.0 });
        let layer = if traced {
            m.name.split('.').next().unwrap_or("")
        } else {
            "e2e"
        };
        let row = Json::Obj(vec![
            ("workload".into(), Json::Str(name.into())),
            ("layer".into(), Json::Str(layer.into())),
            ("metric".into(), Json::Str(m.name.clone())),
            ("value".into(), num(value)),
            ("unit".into(), Json::Str(m.unit.clone())),
            ("n".into(), Json::UInt(values.len() as u128)),
            ("p25".into(), num(p25)),
            ("p75".into(), num(p75)),
            ("seed".into(), Json::UInt(o.seed as u128)),
            ("cores".into(), Json::UInt(cores as u128)),
            ("commit".into(), Json::Str(commit.clone())),
            ("input_hash".into(), Json::Str(inp.hash.clone())),
        ]);
        println!("{}", row.to_text());
        metrics.push((
            m.name.clone(),
            Json::Obj(vec![
                ("value".into(), num(value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]),
        ));
    }
    println!("{}", summary(true, attempted.max(1), 0, metrics));
    Ok(ExitCode::SUCCESS)
}

fn summary(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted as u128)),
        ("failed".into(), Json::UInt(failed as u128)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_text()
}

/// Runs every workload in its own child process, one after another, so
/// each reports its own peak memory, and appends their rows to `--out`.
fn all(o: &Opts) -> Result<ExitCode, String> {
    let out_path = o.out.as_ref().ok_or_else(usage)?;
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_path)
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut failures = 0;
    for w in &WORKLOADS {
        let t0 = Instant::now();
        let child = Command::new(&exe)
            .args([if o.trace { "trace" } else { "run" }, "--workload", w.name])
            .args([
                "--seed",
                &o.seed.to_string(),
                "--seconds",
                &o.seconds.to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        if !child.status.success() {
            failures += 1;
            eprintln!("e2e all: {} failed ({}): {last}", w.name, child.status);
            continue;
        }
        for line in lines {
            writeln!(out, "{line}").map_err(|e| format!("{}: {e}", out_path.display()))?;
        }
        eprintln!(
            "e2e all: {} in {:.1} s: {last}",
            w.name,
            t0.elapsed().as_secs_f64()
        );
    }
    out.flush()
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    eprintln!(
        "e2e all: {} workloads in {:.1} s",
        WORKLOADS.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

struct Row {
    workload: String,
    metric: String,
    value: f64,
    input_hash: String,
}

/// Result rows of a JSONL file; other lines (such as summaries) are skipped.
fn read_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|j| {
            let s = |k: &str| j.get(k).and_then(|v| v.as_str().ok()).map(str::to_string);
            Some(Row {
                workload: s("workload")?,
                metric: s("metric")?,
                value: j.get("value")?.as_f64().ok()?,
                input_hash: s("input_hash")?,
            })
        })
        .collect())
}

/// Per (workload, metric): the values in file order and the distinct input
/// hashes behind them.
type Groups<'a> = BTreeMap<(&'a str, &'a str), (Vec<f64>, BTreeSet<&'a str>)>;

fn group(rows: &[Row]) -> Groups<'_> {
    let mut groups = Groups::new();
    for r in rows {
        let (values, hashes) = groups
            .entry((r.workload.as_str(), r.metric.as_str()))
            .or_default();
        values.push(r.value);
        hashes.insert(r.input_hash.as_str());
    }
    groups
}

fn compare(base: &str, change: &str) -> Result<ExitCode, String> {
    let (base_rows, change_rows) = (read_rows(base)?, read_rows(change)?);
    let changed = group(&change_rows);
    let fmt = |v: &[f64]| {
        let (p25, p50, p75) = stats::quartiles(v);
        format!("{p50:.6} [{p25:.6}, {p75:.6}] n={}", v.len())
    };
    println!(
        "{:<18} {:<28} {:<44} {:<44} verdict",
        "workload", "metric", "base median [p25, p75]", "change median [p25, p75]"
    );
    let mut regressions = 0;
    for (key, (base_values, base_hashes)) in group(&base_rows) {
        let Some((change_values, change_hashes)) = changed.get(&key) else {
            continue;
        };
        let verdict = if &base_hashes != change_hashes {
            regressions += 1;
            "incomparable: inputs differ".to_string()
        } else {
            let m = spec().metric(key.1);
            let v = stats::verdict(
                &base_values,
                change_values,
                m.is_none_or(|m| m.lower_is_better),
                m.and_then(|m| m.bound),
            );
            if v == stats::Verdict::Worse {
                regressions += 1;
            }
            v.label().to_string()
        };
        println!(
            "{:<18} {:<28} {:<44} {:<44} {verdict}",
            key.0,
            key.1,
            fmt(&base_values),
            fmt(change_values)
        );
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
