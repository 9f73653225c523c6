//! Shared measurement helpers for the figure/table report binaries and the
//! `benches/figures.rs` bench suite (on the in-repo `meissa_testkit::bench`
//! timer). Each paper artifact has a binary in `src/bin/` that regenerates
//! it:
//!
//! | artifact | binary |
//! |---|---|
//! | Table 1 (program inventory) | `table1` |
//! | Fig. 9 (tool × program running time) | `fig9` |
//! | Fig. 10 (Meissa vs Aquila across rule sets) | `fig10` |
//! | Fig. 11a/b/c (code summary across programs) | `fig11` |
//! | Fig. 12a/b/c (code summary across rule sets, gw-4) | `fig12` |
//! | Table 2 (bug × tool matrix) | `table2` |
//!
//! `EXPERIMENTS.md` at the workspace root records one captured run of each
//! against the paper's numbers.

use meissa_core::{Meissa, MeissaConfig, RunOutput};
use meissa_num::BigUint;
use meissa_suite::Workload;
use std::time::{Duration, Instant};

/// One engine measurement.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Wall-clock seconds.
    pub secs: f64,
    /// SMT checks issued (Fig. 11b/12b metric).
    pub smt_checks: u64,
    /// Templates generated (valid paths).
    pub templates: usize,
    /// log10 of possible paths in the CFG the final generation ran on
    /// (Fig. 11c/12c metric).
    pub log10_paths: f64,
    /// SAT-engine invocations behind the checks — the cost `smt_checks`
    /// alone hides: fast paths, model reuse, and batched assumption probes
    /// all answer checks without one.
    pub sat_engine_calls: u64,
    /// Sibling-arm probes answered through batched `check_under` calls.
    pub batched_probes: u64,
    /// Batched sibling probes issued (≥ 2 arms each).
    pub arm_batches: u64,
    /// True when the time budget expired.
    pub timed_out: bool,
}

/// Runs an engine configuration on a workload and collects the numbers.
pub fn measure(w: &Workload, config: MeissaConfig) -> EngineRun {
    let engine = Meissa { config };
    let t0 = Instant::now();
    let out: RunOutput = engine.run(&w.program);
    EngineRun {
        secs: t0.elapsed().as_secs_f64(),
        smt_checks: out.stats.smt_checks,
        templates: out.templates.len(),
        log10_paths: out.stats.paths_after.log10(),
        sat_engine_calls: out.stats.solver.sat_engine_calls,
        batched_probes: out.stats.batched_probes,
        arm_batches: out.stats.arm_batches,
        timed_out: out.stats.timed_out,
    }
}

/// Meissa's full configuration with an optional budget.
pub fn meissa_config(budget: Option<Duration>) -> MeissaConfig {
    MeissaConfig {
        time_budget: budget,
        ..MeissaConfig::default()
    }
}

/// The "w/o code summary" ablation configuration.
pub fn no_summary_config(budget: Option<Duration>) -> MeissaConfig {
    MeissaConfig {
        code_summary: false,
        time_budget: budget,
        ..MeissaConfig::default()
    }
}

/// log10 of a CFG's possible-path count.
pub fn log10_paths(w: &Workload) -> f64 {
    meissa_ir::count_paths(&w.program.cfg).total.log10()
}

/// Pretty seconds-or-status cell for figure tables.
pub fn cell(run: &EngineRun) -> String {
    if run.timed_out {
        "timeout".to_string()
    } else {
        format!("{:.2}s", run.secs)
    }
}

/// Renders a big path count for Fig. 11c-style columns.
pub fn paths_cell(log10: f64) -> String {
    format!("10^{log10:.1}")
}

/// The full evaluation corpus in Table 1 order: the four open-source
/// programs (random rule sets, §5.1) and gw-1..gw-4 (set-1..set-4).
pub fn full_corpus() -> Vec<Workload> {
    let mut v = meissa_suite::open_source_corpus();
    for level in 1..=4 {
        v.push(meissa_suite::gw::gw_default(level));
    }
    v
}

/// Exact possible-path count of a workload.
pub fn possible_paths(w: &Workload) -> BigUint {
    meissa_ir::count_paths(&w.program.cfg).total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_consistent_numbers() {
        let w = meissa_suite::router(4, 1);
        let run = measure(&w, meissa_config(None));
        assert!(!run.timed_out);
        assert!(run.templates > 0);
        assert!(run.smt_checks > 0);
        assert!(run.log10_paths >= 0.0);
    }

    #[test]
    fn corpus_has_eight_programs() {
        let names: Vec<String> = full_corpus().into_iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["Router", "mTag", "ACL", "switch.p4", "gw-1", "gw-2", "gw-3", "gw-4"]
        );
    }

    #[test]
    fn cells_render() {
        let ok = EngineRun {
            secs: 1.234,
            smt_checks: 10,
            templates: 5,
            log10_paths: 42.0,
            sat_engine_calls: 7,
            batched_probes: 6,
            arm_batches: 2,
            timed_out: false,
        };
        assert_eq!(cell(&ok), "1.23s");
        let to = EngineRun {
            timed_out: true,
            ..ok
        };
        assert_eq!(cell(&to), "timeout");
        assert_eq!(paths_cell(197.0), "10^197.0");
    }
}
