//! The top-level Meissa engine (Fig. 2's pipeline from CFG to templates).
//!
//! [`Meissa::run`] takes a compiled program and produces test case
//! templates plus the statistics the paper's evaluation reports: wall time,
//! number of SMT calls (Figs. 11b/12b), and possible-path counts before and
//! after code summary (Figs. 11c/12c).

use crate::exec::{generate_templates, ExecConfig};
use crate::session::SolveSession;
use crate::summary::{summarize, SummaryStats};
use crate::template::TestTemplate;
use meissa_ir::{count_paths, Cfg};
use meissa_lang::CompiledProgram;
use meissa_num::BigUint;
use meissa_smt::sat::SatStats;
use meissa_smt::{SolverStats, TermPool};
use meissa_testkit::obs;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct MeissaConfig {
    /// Apply Algorithm 2 code summary before test generation (§3.3).
    /// Disabling this is the "w/o code summary" series of Figs. 11–12.
    pub code_summary: bool,
    /// Early termination at predicate nodes (§3.2).
    pub early_termination: bool,
    /// Incremental (push/pop) solving.
    pub incremental: bool,
    /// Group pre-conditions per packet type during summary (§7); see
    /// [`ExecConfig::grouped_summary`].
    pub grouped_summary: bool,
    /// Cap on generated templates.
    pub max_templates: Option<usize>,
    /// Wall-clock budget for the whole run.
    pub time_budget: Option<Duration>,
    /// Worker threads for path exploration and same-level summary passes.
    /// `1` runs the fully sequential engine. The default honours the
    /// `MEISSA_THREADS` env var, falling back to
    /// [`std::thread::available_parallelism`]. The template *set* is
    /// identical for every thread count and the emitted order is
    /// deterministic (merged paths are sorted into sequential DFS order
    /// before template generation).
    pub threads: usize,
    /// Parallel-exploration right-sizing; see
    /// [`ExecConfig::min_paths_per_worker`]. `0` disables the cap and
    /// spawns exactly `threads` workers (tests exercising the parallel
    /// machinery on small inputs).
    pub min_paths_per_worker: u64,
    /// Packets per sequence for the stateful entry point
    /// ([`Meissa::run_sequences`]): the CFG is unrolled `k_packets` times
    /// with register state threaded between copies (see
    /// [`crate::stateful`]). `1` reduces *exactly* to the single-packet
    /// engine — same templates, same stats. [`Meissa::run`] ignores this
    /// knob entirely. The default honours the `MEISSA_K_PACKETS` env var
    /// (clamped to at least 1), falling back to `1`.
    pub k_packets: usize,
    /// Leave the registers' pre-sequence state fully symbolic instead of
    /// zeroed. Zero-init (the default) matches a freshly booted target and
    /// makes every generated sequence directly replayable; symbolic init
    /// explores behaviours reachable from *any* prior register state, and
    /// instantiated cases carry the chosen initial register values so a
    /// driver can seed them explicitly. Only [`Meissa::run_sequences`]
    /// consults this.
    pub symbolic_init: bool,
}

/// Default thread count: `MEISSA_THREADS` if set and parseable (clamped to
/// at least 1), else the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("MEISSA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Default sequence length: `MEISSA_K_PACKETS` if set and parseable
/// (clamped to at least 1), else 1 — the stateless single-packet engine.
pub fn default_k_packets() -> usize {
    if let Ok(v) = std::env::var("MEISSA_K_PACKETS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    1
}

impl Default for MeissaConfig {
    fn default() -> Self {
        MeissaConfig {
            code_summary: true,
            early_termination: true,
            incremental: true,
            grouped_summary: true,
            max_templates: None,
            time_budget: None,
            threads: default_threads(),
            min_paths_per_worker: ExecConfig::default().min_paths_per_worker,
            k_packets: default_k_packets(),
            symbolic_init: false,
        }
    }
}

impl MeissaConfig {
    pub(crate) fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            early_termination: self.early_termination,
            incremental: self.incremental,
            grouped_summary: self.grouped_summary,
            max_templates: self.max_templates,
            time_budget: self.time_budget,
            threads: self.threads.max(1),
            min_paths_per_worker: self.min_paths_per_worker,
        }
    }
}

/// Aggregate statistics for one engine run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Total wall time.
    pub elapsed: Duration,
    /// Time spent in the code-summary pass.
    pub summary_elapsed: Duration,
    /// Time spent in final test generation.
    pub exec_elapsed: Duration,
    /// SMT checks across both phases (Fig. 11b's metric).
    pub smt_checks: u64,
    /// Possible paths in the original CFG (Fig. 11c "w/o code summary").
    pub paths_before: BigUint,
    /// Possible paths in the (possibly summarized) CFG that test generation
    /// ran on (Fig. 11c "w/ code summary"; equals `paths_before` when
    /// summary is disabled).
    pub paths_after: BigUint,
    /// Valid paths, i.e. templates generated.
    pub valid_paths: u64,
    /// Paths explored by the final DFS.
    pub paths_explored: u64,
    /// Subtrees pruned by early termination, over the whole run (summary
    /// and final DFS).
    pub pruned: u64,
    /// Per-pipeline summary stats.
    pub summary: Option<SummaryStats>,
    /// Cumulative solver counters across every solver the run's
    /// [`SolveSession`] retired (fast-path vs SAT-engine split, verdict
    /// tallies, peak frame depth).
    pub solver: SolverStats,
    /// Cumulative SAT-engine counters (propagations, conflicts, decisions)
    /// across every solver the run retired.
    pub sat: SatStats,
    /// Sibling-arm probes routed through the batched assumption API
    /// ([`meissa_smt::Solver::check_under`]) instead of individual
    /// `push/assert/check/pop` cycles. Each batched arm still counts as one
    /// `smt_checks`, keeping the Fig. 11b metric comparable.
    pub batched_probes: u64,
    /// Batched arms decided Sat without a solver call: `x == c` guards on a
    /// variable free on the path ([`crate::exec::ExecStats::arms_independent`]).
    pub arms_independent: u64,
    /// Arms decided without a solver call by the constants live `x == c`
    /// path constraints pin variables to
    /// ([`crate::exec::ExecStats::arms_pinned`]).
    pub arms_pinned: u64,
    /// Batched sibling probes issued (each covering ≥ 2 arms).
    pub arm_batches: u64,
    /// True when a time budget expired before completion.
    pub timed_out: bool,
    /// Installed rules hit by at least one template (rule-granular
    /// coverage; see [`crate::coverage::measure_rules`]).
    pub rules_hit: u64,
    /// Installed rules in the program's tables.
    pub rules_total: u64,
    /// Tables whose every installed rule was hit.
    pub tables_full: u64,
    /// Tables in the program.
    pub tables_total: u64,
    /// The full per-table coverage map the aggregates above were computed
    /// from — what the run ledger persists and `meissa-trace diff`
    /// compares.
    pub rule_coverage: Option<crate::coverage::RuleCoverage>,
}

impl RunStats {
    /// Mean number of sibling arms per batched probe (`0.0` when no batch
    /// was issued) — the fan-in `check_under` amortizes per branch point.
    pub fn arms_per_batch(&self) -> f64 {
        if self.arm_batches == 0 {
            0.0
        } else {
            self.batched_probes as f64 / self.arm_batches as f64
        }
    }
}

/// The output of an engine run: templates plus everything needed to
/// instantiate them.
pub struct RunOutput {
    /// Term pool the templates' constraints live in.
    pub pool: TermPool,
    /// The CFG test generation actually ran on (summarized when enabled).
    pub cfg: Cfg,
    /// Generated templates, one per valid path.
    pub templates: Vec<TestTemplate>,
    /// Statistics.
    pub stats: RunStats,
    /// The run's worker-thread count ([`MeissaConfig::threads`], at least
    /// 1). Consumers that parallelize work over the templates, such as the
    /// driver's case planner and its in-process case execution, use it so
    /// one setting governs the whole run.
    pub threads: usize,
}

impl RunOutput {
    /// Instantiates template `idx` into a concrete input state, optionally
    /// under extra constraints (e.g. an intent's `given` clause).
    pub fn instantiate(&mut self, idx: usize) -> Option<meissa_ir::ConcreteState> {
        let t = &self.templates[idx];
        t.instantiate(&mut self.pool, &self.cfg.fields, &[])
    }
}

/// The Meissa engine.
#[derive(Clone, Debug, Default)]
pub struct Meissa {
    /// Configuration.
    pub config: MeissaConfig,
}

impl Meissa {
    /// An engine with the paper's full configuration (summary + early
    /// termination + incremental solving).
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with code summary disabled (the "w/o code summary"
    /// baseline of Figs. 11–12).
    pub fn without_summary() -> Self {
        Meissa {
            config: MeissaConfig {
                code_summary: false,
                ..MeissaConfig::default()
            },
        }
    }

    /// Runs test case generation on a compiled program.
    pub fn run(&self, program: &CompiledProgram) -> RunOutput {
        self.run_on_cfg(&program.cfg)
    }

    /// Runs test case generation directly on a CFG.
    pub fn run_on_cfg(&self, original: &Cfg) -> RunOutput {
        obs::init_from_env();
        let mut run_span = obs::span("engine.run");
        let t0 = Instant::now();
        let mut session = SolveSession::new();
        let mut cfg = original.clone();
        let mut stats = RunStats {
            paths_before: count_paths(original).total,
            ..RunStats::default()
        };

        let mut completed = None;
        // Code summary decomposes *multi-pipeline* programs (§3.3); on a
        // single pipeline the decomposition has nothing to compose and the
        // basic framework is the whole algorithm.
        let multi_pipe = cfg.pipeline_topo_order().len() >= 2;
        if self.config.code_summary && multi_pipe {
            let mut summary_span = obs::span("engine.summary");
            let outcome = summarize(&mut cfg, &mut session, &self.config.exec_config());
            summary_span.field("smt_checks", outcome.stats.smt_checks);
            summary_span.field("pipelines", outcome.stats.pipelines.len() as u64);
            drop(summary_span);
            stats.summary_elapsed = outcome.stats.elapsed;
            stats.smt_checks += outcome.stats.smt_checks;
            stats.timed_out |= outcome.stats.timed_out;
            if let Some(paths) = outcome.completed {
                completed = Some(crate::exec::raw_paths_to_templates(
                    &session.pool,
                    &outcome.ctx,
                    paths,
                ));
            }
            stats.summary = Some(outcome.stats);
        }
        // Only code summary rewrites the graph.
        stats.paths_after = if stats.summary.is_some() {
            count_paths(&cfg).total
        } else {
            stats.paths_before.clone()
        };

        let templates = match completed {
            // Algorithm 2's incremental extension already enumerated every
            // valid end-to-end path — identical to what line 27's final DFS
            // would produce on the summarized graph, without re-walking it.
            Some(templates) => {
                stats.valid_paths = templates.len() as u64;
                stats.paths_explored = templates.len() as u64;
                templates
            }
            None => {
                let mut exec_span = obs::span("engine.exec");
                let exec = generate_templates(&cfg, &mut session, &self.config.exec_config());
                exec_span.field("smt_checks", exec.stats.smt_checks);
                exec_span.field("paths_explored", exec.stats.paths_explored);
                exec_span.field("valid_paths", exec.stats.valid_paths);
                drop(exec_span);
                stats.exec_elapsed = exec.stats.elapsed;
                stats.smt_checks += exec.stats.smt_checks;
                stats.valid_paths = exec.stats.valid_paths;
                stats.paths_explored = exec.stats.paths_explored;
                stats.timed_out |= exec.stats.timed_out;
                exec.templates
            }
        };
        // The session's cumulative exec counters saw every exploration of
        // both phases, so they carry the run-wide prune and batch totals
        // (a summary run whose Alg. 2 pass completed every path pruned
        // only there).
        stats.pruned = session.exec.pruned;
        stats.batched_probes = session.exec.batched_probes;
        stats.arms_independent = session.exec.arms_independent;
        stats.arms_pinned = session.exec.arms_pinned;
        stats.arm_batches = session.exec.arm_batches;
        stats.solver = session.solver_stats();
        stats.sat = session.sat_stats();
        stats.elapsed = t0.elapsed();

        // Rule-granular coverage over the graph the templates walk. Pure
        // arithmetic on already-computed paths — no solver, no pool — so it
        // runs unconditionally without perturbing determinism.
        let rcov = crate::coverage::measure_rules(&cfg, &templates);
        stats.rules_hit = rcov.rules_hit();
        stats.rules_total = rcov.rules_total();
        stats.tables_full = rcov.tables_full();
        stats.tables_total = rcov.tables_total();
        if obs::active() {
            obs::counter("coverage.rules_hit").add(stats.rules_hit);
            obs::gauge("coverage.tables_full").set(stats.tables_full);
        }

        if obs::trace_on() {
            obs::note("coverage", {
                use meissa_testkit::json::ToJson as _;
                rcov.to_json().to_text()
            });
            // Authoritative per-run counters straight from RunStats, so a
            // trace reader can reconcile spans against the engine's own
            // accounting without re-deriving anything.
            run_span.field("threads", self.config.threads as u64);
            run_span.field("templates", templates.len() as u64);
            run_span.field("smt_checks", stats.smt_checks);
            run_span.field("batched_probes", stats.batched_probes);
            run_span.field("arm_batches", stats.arm_batches);
            run_span.field("arms_independent", stats.arms_independent);
            run_span.field("arms_pinned", stats.arms_pinned);
            run_span.field("sat_engine_calls", stats.solver.sat_engine_calls);
            run_span.field("model_reuse", stats.solver.model_reuse);
            run_span.field("sat_propagations", stats.sat.propagations);
            run_span.field("sat_conflicts", stats.sat.conflicts);
            run_span.field("rules_hit", stats.rules_hit);
            run_span.field("rules_total", stats.rules_total);
            run_span.field("tables_full", stats.tables_full);
            run_span.field("tables_total", stats.tables_total);
            drop(run_span);
            if let Err(e) = obs::flush_trace() {
                eprintln!("meissa: trace flush failed: {e}");
            }
        }
        if obs::log_on(obs::LogLevel::Info) {
            obs::log(
                obs::LogLevel::Info,
                "engine",
                &format!(
                    "run done: templates={} smt_checks={} elapsed={:?}",
                    templates.len(),
                    stats.smt_checks,
                    stats.elapsed
                ),
            );
        }

        stats.rule_coverage = Some(rcov);
        ledger_append_run("engine.run", original, &self.config, &stats, None);

        RunOutput {
            pool: session.into_pool(),
            cfg,
            templates,
            stats,
            threads: self.config.threads.max(1),
        }
    }
}

/// A short, stable rendering of the config knobs that shape a run's search
/// (the ledger's `config` fingerprint; diffable as an opaque string).
pub(crate) fn config_fingerprint(config: &MeissaConfig) -> String {
    format!(
        "summary={} early_term={} incremental={} grouped={} k={} sym_init={}",
        config.code_summary,
        config.early_termination,
        config.incremental,
        config.grouped_summary,
        config.k_packets,
        config.symbolic_init,
    )
}

/// Appends a self-contained `RunRecord` line to the run ledger (no-op
/// unless `MEISSA_LEDGER`/`ledger_to` enabled it). The record carries
/// everything a later `meissa-trace diff` needs without the original
/// inputs: program and rule-set hashes to tell *what* ran, the config
/// fingerprint for *how*, the counters and coverage map for *what
/// happened*, plus an optional latency snapshot for wire-tier runs.
pub(crate) fn ledger_append_run(
    kind: &str,
    original: &Cfg,
    config: &MeissaConfig,
    stats: &RunStats,
    latency: Option<(u64, u64, u64, u64)>,
) {
    use meissa_testkit::json::{Json, ToJson as _};
    use meissa_testkit::obs::ledger;
    if !ledger::enabled() {
        return;
    }
    let counters = vec![
        ("smt_checks".to_string(), Json::UInt(stats.smt_checks as u128)),
        ("templates".to_string(), Json::UInt(stats.valid_paths as u128)),
        ("valid_paths".to_string(), Json::UInt(stats.valid_paths as u128)),
        (
            "paths_explored".to_string(),
            Json::UInt(stats.paths_explored as u128),
        ),
        ("pruned".to_string(), Json::UInt(stats.pruned as u128)),
        (
            "batched_probes".to_string(),
            Json::UInt(stats.batched_probes as u128),
        ),
        (
            "sat_engine_calls".to_string(),
            Json::UInt(stats.solver.sat_engine_calls as u128),
        ),
        (
            "rules_hit".to_string(),
            Json::UInt(stats.rules_hit as u128),
        ),
        (
            "rules_total".to_string(),
            Json::UInt(stats.rules_total as u128),
        ),
        (
            "tables_full".to_string(),
            Json::UInt(stats.tables_full as u128),
        ),
        (
            "tables_total".to_string(),
            Json::UInt(stats.tables_total as u128),
        ),
        (
            "elapsed_ms".to_string(),
            Json::UInt(stats.elapsed.as_millis()),
        ),
        ("threads".to_string(), Json::UInt(config.threads as u128)),
        (
            "timed_out".to_string(),
            Json::UInt(stats.timed_out as u128),
        ),
    ];
    let mut fields = vec![
        ("t".to_string(), Json::Str("run_record".into())),
        ("kind".to_string(), Json::Str(kind.into())),
        (
            "program_hash".to_string(),
            Json::Str(crate::coverage::program_hash(original)),
        ),
        (
            "rule_set_hash".to_string(),
            Json::Str(crate::coverage::rule_set_hash(original)),
        ),
        (
            "config".to_string(),
            Json::Str(config_fingerprint(config)),
        ),
        ("counters".to_string(), Json::Obj(counters)),
        (
            "coverage".to_string(),
            stats
                .rule_coverage
                .as_ref()
                .map(|c| c.to_json())
                .unwrap_or(Json::Arr(Vec::new())),
        ),
    ];
    if let Some((count, sum, p50, p99)) = latency {
        fields.push((
            "latency".to_string(),
            Json::Obj(vec![
                ("count".to_string(), Json::UInt(count as u128)),
                ("sum".to_string(), Json::UInt(sum as u128)),
                ("p50".to_string(), Json::UInt(p50 as u128)),
                ("p99".to_string(), Json::UInt(p99 as u128)),
            ]),
        ));
    }
    if let Err(e) = ledger::append(Json::Obj(fields)) {
        eprintln!("meissa: ledger append failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_lang::{compile, parse_program, parse_rules};

    const PROGRAM: &str = r#"
        header ethernet { dst: 48; src: 48; ether_type: 16; }
        header ipv4 { ttl: 8; protocol: 8; dst_addr: 32; }
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
    "#;

    const RULES: &str = r#"
        rules route {
          10.0.0.0/8 => set_port(1);
          192.168.0.0/16 => set_port(2);
        }
    "#;

    fn program() -> meissa_lang::CompiledProgram {
        let p = parse_program(PROGRAM).unwrap();
        let r = parse_rules(RULES).unwrap();
        compile(&p, &r).unwrap()
    }

    #[test]
    fn full_run_produces_templates() {
        let cp = program();
        let mut out = Meissa::new().run(&cp);
        // Valid behaviours: non-IPv4 (1), IPv4×{rule1, rule2, default} (3).
        assert_eq!(out.templates.len(), 4);
        for i in 0..out.templates.len() {
            assert!(out.instantiate(i).is_some(), "template {i} instantiates");
        }
    }

    #[test]
    fn summary_and_naive_agree_on_template_count() {
        let cp = program();
        let with = Meissa::new().run(&cp);
        let without = Meissa::without_summary().run(&cp);
        assert_eq!(with.templates.len(), without.templates.len());
        assert_eq!(with.stats.paths_before, without.stats.paths_before);
        // Single-pipeline program: code summary is an inter-pipeline
        // decomposition, so the engine skips it (§3.3) and both runs work
        // on the original graph.
        assert_eq!(with.stats.paths_after, with.stats.paths_before);
    }

    /// Two-pipeline program where summary actually runs.
    fn two_pipe_program() -> meissa_lang::CompiledProgram {
        let src = r#"
            header pkt { t: 16; }
            metadata meta { a: 8; b: 8; }
            parser p { state start { extract(pkt); accept; } }
            action seta(v: 8) { meta.a = v; }
            action setb(v: 8) { meta.b = v; }
            action none_() { }
            table t1 {
              key = { hdr.pkt.t: exact; }
              actions = { seta; none_; }
              default_action = none_();
            }
            table t2 {
              key = { meta.a: exact; }
              actions = { setb; none_; }
              default_action = none_();
            }
            control c1 { apply(t1); }
            control c2 { apply(t2); }
            pipeline p1 { parser = p; control = c1; }
            pipeline p2 { control = c2; }
            topology { start -> p1; p1 -> p2; p2 -> end; }
        "#;
        let rules = r#"
            rules t1 { 1 => seta(1); 2 => seta(2); 3 => seta(3); }
            rules t2 { 1 => setb(10); 2 => setb(20); 3 => setb(30); }
        "#;
        compile(&parse_program(src).unwrap(), &parse_rules(rules).unwrap()).unwrap()
    }

    #[test]
    fn grouped_and_ungrouped_summaries_cover_identically() {
        // The §7 grouping is a performance refinement; coverage must not
        // change when it is disabled.
        let cp = two_pipe_program();
        let grouped = Meissa::new().run(&cp);
        let ungrouped = Meissa {
            config: MeissaConfig {
                grouped_summary: false,
                ..MeissaConfig::default()
            },
        }
        .run(&cp);
        assert_eq!(grouped.templates.len(), ungrouped.templates.len());
    }

    #[test]
    fn summary_reduces_paths_on_multi_pipe_programs() {
        let cp = two_pipe_program();
        let with = Meissa::new().run(&cp);
        let without = Meissa::without_summary().run(&cp);
        assert_eq!(with.templates.len(), without.templates.len());
        assert!(with.stats.summary.is_some());
        // This toy is perfectly diagonal (every rule pair lines up), so the
        // summarized graph has the same possible-path count; the Fig. 7
        // reduction (100× fewer paths) is asserted in `summary::tests`.
        assert!(with.stats.paths_after <= with.stats.paths_before);
    }

    #[test]
    fn instantiated_inputs_replay_on_original_cfg() {
        let cp = program();
        let mut out = Meissa::new().run(&cp);
        let fields = &cp.cfg.fields;
        for i in 0..out.templates.len() {
            let input = out.instantiate(i).unwrap();
            let valid: Vec<_> = meissa_ir::enumerate_paths(&cp.cfg, 1000)
                .into_iter()
                .filter_map(|p| meissa_ir::eval_path(&cp.cfg, &p, &input).ok())
                .collect();
            assert_eq!(valid.len(), 1, "input {i} drives exactly one original path");
        }
        let _ = fields;
    }

    #[test]
    fn rule_coverage_is_stamped_on_plain_and_summarized_runs() {
        // Single pipeline (no summary): route has 2 rules + miss; the
        // IPv4 templates hit both rules and the miss arm.
        let out = Meissa::new().run(&program());
        assert_eq!(out.stats.rules_total, 2);
        assert_eq!(out.stats.rules_hit, 2);
        assert_eq!(out.stats.tables_total, 1);
        assert_eq!(out.stats.tables_full, 1);
        let cov = out.stats.rule_coverage.as_ref().unwrap();
        assert_eq!(cov.tables["route"].miss_hits, 1);

        // Two pipelines (summary runs): attribution must survive the
        // trie rewrite — 3 rules + miss per table, all hit.
        let multi = Meissa::new().run(&two_pipe_program());
        assert!(multi.stats.summary.is_some(), "summary must have run");
        assert_eq!(multi.stats.rules_total, 6);
        assert_eq!(multi.stats.rules_hit, 6);
        assert_eq!(multi.stats.tables_total, 2);
        assert_eq!(multi.stats.tables_full, 2);
        let cov = multi.stats.rule_coverage.as_ref().unwrap();
        for t in ["t1", "t2"] {
            assert!(cov.tables[t].has_miss, "{t} has a default arm");
            assert!(cov.tables[t].miss_hits > 0, "{t} miss arm covered");
        }

        // Summarized and naive runs agree on what was covered.
        let naive = Meissa::without_summary().run(&two_pipe_program());
        assert_eq!(
            multi.stats.rule_coverage, naive.stats.rule_coverage,
            "summary must not change rule attribution"
        );
    }

    #[test]
    fn summary_runs_report_their_pruned_arms() {
        let multi = Meissa::new().run(&two_pipe_program());
        assert!(multi.stats.summary.is_some(), "summary must have run");
        // t2 keys on the `meta.a` that t1 just set, so two of its three
        // rule arms are infeasible after every t1 rule.
        assert!(multi.stats.pruned > 0, "summary prunes infeasible t2 arms");
    }

    #[test]
    fn stats_are_populated() {
        let cp = program();
        let out = Meissa::new().run(&cp);
        assert!(out.stats.smt_checks > 0);
        assert!(out.stats.arm_batches > 0, "full config batches sibling arms");
        assert!(!out.stats.paths_before.is_zero());
        assert_eq!(out.stats.valid_paths as usize, out.templates.len());
        // Single-pipeline program: the engine skips the summary pass.
        assert!(out.stats.summary.is_none());
        let multi = Meissa::new().run(&two_pipe_program());
        assert!(multi.stats.summary.is_some());
        let without = Meissa::without_summary().run(&cp);
        assert!(without.stats.summary.is_none());
    }
}
