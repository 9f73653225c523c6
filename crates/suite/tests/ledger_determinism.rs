//! The run ledger must be a write-only side channel, exactly like the
//! trace sink: gw-3 has to produce byte-identical templates and RunStats
//! whether `MEISSA_LEDGER` (here driven through the programmatic
//! `ledger::ledger_to`) is appending RunRecords or not. The ledger file
//! itself must hold valid, content-addressed, self-describing records —
//! and two identical-config runs must agree on every input-derived field
//! (program hash, rule-set hash, deterministic counters, coverage map).

use meissa_core::{Meissa, MeissaConfig};
use meissa_suite::gw::{gw, GwScale};
use meissa_testkit::json::Json;
use meissa_testkit::obs::ledger;

/// Renders one run as template strings plus a deterministic stats line
/// (wall times excluded) — the same digest `obs_determinism.rs` uses.
fn render(config: MeissaConfig) -> (Vec<String>, String) {
    let w = gw(3, GwScale { eips: 4 });
    let run = Meissa { config }.run(&w.program);
    let templates = run
        .templates
        .iter()
        .map(|t| {
            let path: Vec<String> = t.path.iter().map(|n| format!("{n:?}")).collect();
            let cs: Vec<String> = t
                .constraints
                .iter()
                .map(|&c| run.pool.display(c))
                .collect();
            format!("path={path:?} constraints={cs:?}")
        })
        .collect();
    let s = &run.stats;
    let stats = format!(
        "valid={} explored={} pruned={} smt={} rules={}/{} tables={}/{}",
        s.valid_paths,
        s.paths_explored,
        s.pruned,
        s.smt_checks,
        s.rules_hit,
        s.rules_total,
        s.tables_full,
        s.tables_total,
    );
    (templates, stats)
}

fn field_text(v: &Json, key: &str) -> String {
    v.get(key)
        .and_then(|f| f.as_str().ok())
        .unwrap_or_default()
        .to_string()
}

/// One test fn because the ledger sink is process-global.
#[test]
fn gw3_output_identical_with_ledger_on_and_off_and_records_agree() {
    let ledger_path = std::env::temp_dir().join(format!(
        "meissa_ledger_determinism_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ledger_path);
    let config = MeissaConfig {
        threads: 1,
        ..MeissaConfig::default()
    };

    ledger::ledger_off();
    let off = render(config.clone());

    ledger::ledger_to(&ledger_path);
    let on_a = render(config.clone());
    let on_b = render(config.clone());
    ledger::ledger_off();

    assert_eq!(off.1, on_a.1, "RunStats diverge with the ledger enabled");
    assert_eq!(off.0, on_a.0, "templates diverge with the ledger enabled");
    assert_eq!(on_a, on_b, "back-to-back ledgered runs disagree");

    // The file holds one self-contained record per ledgered run, each
    // with a content-hash id, and the two identical runs agree on every
    // input-derived field.
    let body = std::fs::read_to_string(&ledger_path).expect("ledger file written");
    let records: Vec<Json> = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("ledger line parses as JSON"))
        .collect();
    assert_eq!(records.len(), 2, "one RunRecord per ledgered run");
    for r in &records {
        assert_eq!(field_text(r, "t"), "run_record");
        assert_eq!(field_text(r, "kind"), "engine.run");
        assert!(!field_text(r, "id").is_empty(), "record lacks a hash id");
        assert!(!field_text(r, "program_hash").is_empty());
        assert!(!field_text(r, "rule_set_hash").is_empty());
        assert!(r.get("counters").is_some(), "record lacks counters");
        assert!(r.get("coverage").is_some(), "record lacks a coverage map");
    }
    let (a, b) = (&records[0], &records[1]);
    assert_eq!(field_text(a, "program_hash"), field_text(b, "program_hash"));
    assert_eq!(
        field_text(a, "rule_set_hash"),
        field_text(b, "rule_set_hash")
    );
    // The hashes are FNV-1a over the IR's JSON encoding, so any change to
    // the encoders' bytes shows here — and would break `meissa-trace diff`
    // between ledgers written before and after it.
    assert_eq!(field_text(a, "program_hash"), "3e0647ec063f70a6");
    assert_eq!(field_text(a, "rule_set_hash"), "bb78fa8fec8b1be2");
    assert_eq!(field_text(a, "config"), field_text(b, "config"));
    assert_eq!(
        a.get("coverage").map(|c| c.to_text()),
        b.get("coverage").map(|c| c.to_text()),
        "coverage maps diverge between identical runs"
    );
    // Counters match except wall-clock.
    let deterministic = ["smt_checks", "templates", "valid_paths", "paths_explored",
        "pruned", "rules_hit", "rules_total", "tables_full", "tables_total"];
    for name in deterministic {
        let get = |r: &Json| {
            r.get("counters")
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_u128().ok())
        };
        assert_eq!(get(a), get(b), "counter {name} diverges between runs");
        assert!(get(a).is_some(), "counter {name} missing from record");
    }

    let _ = std::fs::remove_file(&ledger_path);
}
