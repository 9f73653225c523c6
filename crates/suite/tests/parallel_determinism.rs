//! Parallel-exploration determinism: for every thread count the engine must
//! produce the *same* template sequence — same paths, in the same order,
//! with the same constraints and output values — and the same headline
//! statistics as the sequential engine. The comparison renders terms two
//! ways: via [`meissa_smt::TermPool::canonical_key`] (pool-independent
//! structural identity — worker pools intern in schedule-dependent order,
//! so raw `TermId`s are not comparable across runs) *and* via the pretty
//! `display` rendering, which follows stored operand order and therefore
//! catches operand-order flips that canonical keys normalize away.

use meissa_core::{Meissa, MeissaConfig};
use meissa_suite as suite;

/// A pool-independent fingerprint of one engine run: per template the node
/// path, canonically-rendered constraints, and canonically-rendered final
/// values, plus the path-counting statistics the figures report.
fn fingerprint(run: &meissa_core::engine::RunOutput) -> (Vec<String>, String) {
    let templates = run
        .templates
        .iter()
        .map(|t| {
            let path: Vec<String> = t.path.iter().map(|n| format!("{n:?}")).collect();
            let cs: Vec<String> = t
                .constraints
                .iter()
                .map(|&c| format!("{}|{}", run.pool.canonical_key(c), run.pool.display(c)))
                .collect();
            let fv: Vec<String> = t
                .final_values
                .iter()
                .map(|&(f, v)| {
                    format!(
                        "{f:?}={}|{}",
                        run.pool.canonical_key(v),
                        run.pool.display(v)
                    )
                })
                .collect();
            format!("path={path:?} constraints={cs:?} finals={fv:?}")
        })
        .collect();
    let stats = format!(
        "valid={} before={} after={} explored={} pruned={} checks={} \
         batched={} batches={} independent={}",
        run.stats.valid_paths,
        run.stats.paths_before,
        run.stats.paths_after,
        run.stats.paths_explored,
        run.stats.pruned,
        // Probe-level counters are part of the invariant: a probe is issued
        // per arm per path visit regardless of which worker owns the
        // subtree, so `smt_checks` must not move with the thread count.
        // Solver-*internal* counters (the fast-path / model-reuse /
        // SAT-engine split) are deliberately excluded here: work stealing
        // donates subtrees to workers whose solvers hold other frames and
        // models, so which probes short-circuit before the engine depends
        // on the (timing-dependent) partition. The summary engine's
        // job-level counters, which *are* partition-independent, get their
        // own assertion below.
        run.stats.smt_checks,
        // Every branch point's arms are decided as one batch by the walker
        // that visits it, and whether an arm is independent of its path
        // depends on the path alone.
        run.stats.batched_probes,
        run.stats.arm_batches,
        run.stats.arms_independent,
    );
    (templates, stats)
}

fn assert_thread_invariant(name: &str, config_for: impl Fn(usize) -> MeissaConfig) {
    let baseline = Meissa {
        config: config_for(1),
    }
    .run_output(name);
    for threads in [2usize, 4, 8] {
        let got = Meissa {
            config: config_for(threads),
        }
        .run_output(name);
        assert_eq!(
            baseline.1, got.1,
            "{name}: stats diverge at {threads} threads"
        );
        assert_eq!(
            baseline.0.len(),
            got.0.len(),
            "{name}: template count diverges at {threads} threads"
        );
        for (i, (a, b)) in baseline.0.iter().zip(&got.0).enumerate() {
            assert_eq!(a, b, "{name}: template {i} diverges at {threads} threads");
        }
    }
}

/// Helper so the closure-driven test reads naturally: run the named corpus
/// workload under this engine and fingerprint the output.
trait RunByName {
    fn run_output(&self, name: &str) -> (Vec<String>, String);
}

impl RunByName for Meissa {
    fn run_output(&self, name: &str) -> (Vec<String>, String) {
        let w = workload(name);
        let run = self.run(&w.program);
        fingerprint(&run)
    }
}

fn workload(name: &str) -> suite::Workload {
    match name {
        "router" => suite::router(6, 3),
        "mtag" => suite::mtag(4, 5),
        "acl" => suite::acl(4, 7),
        "switch_lite" => suite::switch_lite(3, 9),
        "gw2" => suite::gw::gw(2, suite::gw::GwScale { eips: 4 }),
        "gw3" => suite::gw::gw(3, suite::gw::GwScale { eips: 16 }),
        "gw1-wide" => suite::gw::gw(1, suite::gw::GwScale { eips: 256 }),
        other => panic!("unknown workload {other}"),
    }
}

#[test]
fn corpus_summary_engine_is_thread_count_invariant() {
    for name in ["router", "mtag", "acl", "switch_lite"] {
        assert_thread_invariant(name, |threads| MeissaConfig {
            threads,
            // Disable worker right-sizing: these workloads are small, and
            // the point here is to exercise the parallel machinery itself.
            min_paths_per_worker: 0,
            ..MeissaConfig::default()
        });
    }
}

#[test]
fn corpus_plain_dfs_is_thread_count_invariant() {
    // code_summary off: the work-stealing DFS itself carries the whole
    // search, so this exercises donation + deterministic merge directly.
    // gw-1 is a single pipeline with two 257-way tables: its wide branches
    // are split into range tasks mid-walk, whose arms ship with their
    // parent's verdicts — and every arm must still be decided exactly
    // once.
    for name in ["router", "mtag", "gw1-wide"] {
        assert_thread_invariant(name, |threads| MeissaConfig {
            code_summary: false,
            threads,
            min_paths_per_worker: 0,
            ..MeissaConfig::default()
        });
    }
}

#[test]
fn multi_pipeline_gateway_is_thread_count_invariant() {
    // gw level 2 has multiple chained pipelines: exercises the batched
    // summary path (level planning, group-search batch, extension batch).
    assert_thread_invariant("gw2", |threads| MeissaConfig {
        threads,
        min_paths_per_worker: 0,
        ..MeissaConfig::default()
    });
}

#[test]
fn summary_solver_counters_are_thread_count_invariant() {
    // The summary engine routes every group search and seed extension
    // through the batched path at every thread count, and a batch job
    // shares no solver verdicts with any other job, so per-job probe
    // counters are a function of the job alone. Default
    // `min_paths_per_worker` on purpose: this is the production
    // configuration, worker right-sizing included.
    //
    // Batch workers keep one warm solver across the jobs they run, so the
    // SAT engine's own counters — propagations, conflicts, decisions —
    // depend on which jobs share a worker and are schedule-dependent at
    // threads > 1, the same exclusion the DFS fingerprint above documents.
    // `sat_engine_calls` could in principle move with the model a warm
    // solver found last (`check_under` answers an arm that model satisfies
    // without the engine), so this test is also the tripwire for that.
    let w = workload("gw2");
    let base = Meissa {
        config: MeissaConfig {
            threads: 1,
            ..MeissaConfig::default()
        },
    }
    .run(&w.program);
    for threads in [2usize, 4, 8] {
        let got = Meissa {
            config: MeissaConfig {
                threads,
                ..MeissaConfig::default()
            },
        }
        .run(&w.program);
        assert_eq!(
            base.stats.smt_checks, got.stats.smt_checks,
            "smt_checks drifts at {threads} threads"
        );
        assert_eq!(
            base.stats.solver.sat_engine_calls, got.stats.solver.sat_engine_calls,
            "sat_engine_calls drifts at {threads} threads"
        );
    }

    // The same invariant on a real summary workload: gw-3 with 16 EIPs
    // runs 2,080 seed-extension jobs, so warm batch workers see long,
    // schedule-dependent job sequences. Exact values, so the counters
    // also stay those of an engine that gives every job a fresh solver.
    // 1,042 arms are `x == c` guards on a variable free on the path and
    // are decided Sat without the solver, which took `sat_engine_calls`
    // from 32,348 to 31,303.
    let w = workload("gw3");
    for threads in [1usize, 2, 4] {
        let got = Meissa {
            config: MeissaConfig {
                threads,
                ..MeissaConfig::default()
            },
        }
        .run(&w.program);
        assert_eq!(got.templates.len(), 885, "templates at {threads} threads");
        assert_eq!(
            got.stats.smt_checks, 51_514,
            "smt_checks at {threads} threads"
        );
        assert_eq!(
            got.stats.solver.sat_engine_calls, 31_303,
            "sat_engine_calls at {threads} threads"
        );
        assert_eq!(
            got.stats.arms_independent, 1_042,
            "arms_independent at {threads} threads"
        );
    }
}
