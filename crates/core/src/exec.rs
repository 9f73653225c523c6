//! Algorithm 1: basic test case generation with DFS and early termination.
//!
//! The executor walks the CFG depth-first, maintaining the condition stack
//! `C` (as incremental solver frames) and value stack `V` (with an undo
//! log). At a predicate node it translates the guard under `V`, pushes it as
//! a solver frame, and — with early termination enabled — checks
//! satisfiability immediately, pruning the whole subtree on UNSAT exactly as
//! the `SAT(C ∧ b′)` premise of Fig. 6's Sym. Predicate rule demands. At a
//! leaf it emits a test case template. Backtracking pops solver frames and
//! rolls back `V` (lines 10 and 18 of Algorithm 1).
//!
//! Three baseline-defining switches:
//!
//! * `early_termination: false` — only check satisfiability at leaves
//!   (explores every *possible* path; the model-based-testing baselines);
//! * `incremental: false` — answer each check with a fresh solver over the
//!   re-asserted constraint list (what a tool without push/pop pays);
//! * both `true` — Meissa's configuration.

use crate::session::SolveSession;
use crate::symstate::{SymCtx, ValueStack};
use crate::template::{HashObligation, TestTemplate};
use meissa_ir::{Cfg, NodeId, Stmt};
use meissa_smt::{CheckResult, Solver, TermId, TermPool};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration for one symbolic execution.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Prune unsatisfiable prefixes at every predicate node (§3.2).
    pub early_termination: bool,
    /// Reuse one incremental solver across checks; `false` re-solves from
    /// scratch each time (for baseline comparisons).
    pub incremental: bool,
    /// Group pipeline pre-conditions by packet type during code summary
    /// (the §7 mitigation). Disabling falls back to the single global
    /// public pre-condition of Algorithm 2 lines 4–7 (the ablation the
    /// design document calls out).
    pub grouped_summary: bool,
    /// Hard cap on generated templates (safety valve for baselines on
    /// exponential graphs).
    pub max_templates: Option<usize>,
    /// Wall-clock budget; exceeded ⇒ the run reports a timeout.
    pub time_budget: Option<Duration>,
    /// Worker threads for top-level explorations and summary batches.
    /// `1` (the default) runs the unchanged sequential engine; `> 1`
    /// routes [`generate_templates`] through the work-sharing frontier of
    /// [`crate::parallel`] and batches code summary's independent
    /// searches. The final template *set* is identical for any value; with
    /// `max_templates` or a time budget, which subset survives the cap can
    /// differ across thread counts.
    pub threads: usize,
    /// Right-sizing for the parallel frontier: an extra worker joins the
    /// pool only when the saturating possible-path estimate below the
    /// exploration root grants it at least this many paths. Tiny trees
    /// otherwise pay fork/steal/merge overhead with nothing to share
    /// (gw-3-r8 at 8 threads ran at 0.54× sequential). Batched sibling
    /// probing roughly halved per-path solver cost, so the floor doubled
    /// to keep the fork break-even point where measurements put it. `0`
    /// disables the cap — used by tests that exercise the parallel
    /// machinery on deliberately small graphs.
    pub min_paths_per_worker: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            early_termination: true,
            incremental: true,
            grouped_summary: true,
            max_templates: None,
            time_budget: None,
            threads: 1,
            min_paths_per_worker: 1024,
        }
    }
}

/// Shared cancellation + emission state for one top-level exploration,
/// consulted by every walker — the sequential one, or one per parallel
/// worker. Once any observer trips the template cap or the deadline, the
/// sticky `state` makes every other walker's next [`ExploreBudget::poll`]
/// answer "stop", which is what propagates a budget expiry observed in one
/// worker to all of them promptly.
pub(crate) struct ExploreBudget {
    deadline: Option<Instant>,
    max_templates: Option<usize>,
    emitted: AtomicUsize,
    /// 0 = running, 1 = template cap reached, 2 = time budget expired.
    state: AtomicU8,
}

const BUDGET_RUNNING: u8 = 0;
const BUDGET_CAPPED: u8 = 1;
const BUDGET_TIMED_OUT: u8 = 2;

impl ExploreBudget {
    pub(crate) fn new(config: &ExecConfig, t0: Instant) -> Self {
        ExploreBudget {
            deadline: config.time_budget.map(|b| t0 + b),
            max_templates: config.max_templates,
            emitted: AtomicUsize::new(0),
            state: AtomicU8::new(BUDGET_RUNNING),
        }
    }

    /// Should exploration stop? `Some(timed_out)` when yes.
    pub(crate) fn poll(&self) -> Option<bool> {
        match self.state.load(Ordering::Relaxed) {
            BUDGET_CAPPED => return Some(false),
            BUDGET_TIMED_OUT => return Some(true),
            _ => {}
        }
        if let Some(max) = self.max_templates {
            if self.emitted.load(Ordering::Relaxed) >= max {
                self.state.store(BUDGET_CAPPED, Ordering::Relaxed);
                return Some(false);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                self.state.store(BUDGET_TIMED_OUT, Ordering::Relaxed);
                return Some(true);
            }
        }
        None
    }

    /// Counts one emitted template (toward `max_templates`).
    pub(crate) fn note_emit(&self) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Did the time budget expire (on any observer)?
    pub(crate) fn timed_out(&self) -> bool {
        self.state.load(Ordering::Relaxed) == BUDGET_TIMED_OUT
    }
}

/// A sibling range: children of one branch node, in successor order. Once
/// decided ([`Walker::decide_arms`]) it holds only feasible arms, each with
/// the guard its parent already settled (`None` for markers and
/// non-predicate nodes, which `visit` handles itself); undecided, every
/// entry is `None`.
pub(crate) type Arms = Vec<(NodeId, Option<PreArm>)>;

/// Donation hook a parallel frontier installs on each worker's walker. A
/// walker whose frontier is hungry hands the back half of an open branch's
/// unstarted siblings to an idle worker as one range task: `(path-prefix,
/// constraint-prefix, value-snapshot, arms, decided)`.
pub(crate) trait WorkSharer: Sync {
    /// Is anyone idle with nothing queued? Consulted before every sibling
    /// a walker descends into, so it must cost a couple of atomic loads.
    fn hungry(&self) -> bool;
    /// Enqueues one range task. `pool` is the donor's pool — prefix terms
    /// and the arms' conjuncts must be translated into a pool the task
    /// owns, since the donor keeps mutating its own.
    fn donate(
        &self,
        pool: &TermPool,
        trace: &[NodeId],
        constraints: &[TermId],
        values: &[(meissa_ir::FieldId, TermId)],
        arms: Arms,
        decided: bool,
    );
}

/// Probes per batch when a [`WorkSharer`] is installed: between chunks a
/// hungry frontier can take half of a wide branch's unprobed arms. At ~50 µs
/// per SAT-probed arm (a 1,025-arm table under a ~20-conjunct prefix, on a
/// 2-core x86 host), an idle worker waits at most a few milliseconds.
const PROBE_CHUNK: usize = 64;

/// Counters for one execution (the raw numbers behind Figs. 9–12).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Paths enumerated to a leaf (valid or not).
    pub paths_explored: u64,
    /// Valid paths (= templates emitted, unless capped).
    pub valid_paths: u64,
    /// Subtrees pruned by early termination.
    pub pruned: u64,
    /// SMT checks issued.
    pub smt_checks: u64,
    /// Early-termination probes that consulted the session's verdict cache
    /// (incremental + early-termination configuration only).
    pub cache_probes: u64,
    /// Probes answered from the verdict cache without invoking the solver.
    pub cache_hits: u64,
    /// Sibling-arm probes issued through batched branch expansion
    /// ([`crate::session::SolveSession::probe_arms`] /
    /// [`meissa_smt::Solver::check_under`]). Each batched arm still counts
    /// one `smt_checks`, so this splits the Fig. 11b metric by probing
    /// style rather than adding to it.
    pub batched_probes: u64,
    /// Branch points whose sibling arms were probed as one batch.
    pub arm_batches: u64,
    /// Wall-clock time of the execution.
    pub elapsed: Duration,
    /// True when the time budget expired before completion.
    pub timed_out: bool,
}

impl ExecStats {
    /// Mean sibling arms per batched branch probe (0 when nothing batched).
    pub fn arms_per_batch(&self) -> f64 {
        if self.arm_batches == 0 {
            0.0
        } else {
            self.batched_probes as f64 / self.arm_batches as f64
        }
    }
}

/// The result of a symbolic execution.
pub struct ExecOutput {
    /// One template per valid path discovered.
    pub templates: Vec<TestTemplate>,
    /// Statistics.
    pub stats: ExecStats,
}

/// A valid path discovered by [`explore`], in raw (pre-template) form; code
/// summary consumes these directly.
pub struct RawPath {
    /// Node sequence.
    pub path: Vec<NodeId>,
    /// Collected guard terms.
    pub constraints: Vec<TermId>,
    /// Final value stack snapshot.
    pub final_values: Vec<(meissa_ir::FieldId, TermId)>,
}

/// Generates test case templates for a CFG (Algorithm 1). With
/// `config.threads > 1` the DFS is sharded across a work-stealing frontier
/// ([`crate::parallel`]); the template set is identical either way, and the
/// emission order is the sequential DFS order in both cases.
pub fn generate_templates(
    cfg: &Cfg,
    session: &mut SolveSession,
    config: &ExecConfig,
) -> ExecOutput {
    let mut ctx = SymCtx::new(None);
    let (paths, stats) = if config.threads > 1 {
        crate::parallel::explore_parallel(
            cfg,
            session,
            &mut ctx,
            cfg.entry(),
            &std::collections::HashSet::new(),
            &[],
            &[],
            config,
        )
    } else {
        let mut paths = Vec::new();
        let stats = explore(
            cfg,
            session,
            &mut ctx,
            cfg.entry(),
            None,
            &[],
            config,
            &mut |p| paths.push(p),
        );
        (paths, stats)
    };
    let templates = raw_paths_to_templates(&session.pool, &ctx, paths);
    ExecOutput { templates, stats }
}

/// Turns raw valid paths into test case templates, attaching the hash
/// obligations recorded in `ctx` to the paths that mention them (§4).
///
/// Attachment costs one DAG walk per path, not one per (path, obligation)
/// pair: obligations are indexed by stand-in, and a single epoch-stamped
/// `seen` table (allocated once, re-armed per path by bumping the epoch)
/// bounds each walk by the path's own terms.
pub fn raw_paths_to_templates(
    pool: &TermPool,
    ctx: &SymCtx,
    paths: Vec<RawPath>,
) -> Vec<TestTemplate> {
    let mut obligations: Vec<HashObligation> = ctx.hash_defs().map(HashObligation::from).collect();
    // Stand-in names are content-keyed and unique per application; sorting
    // by them pins the obligation order, which hash-map iteration above does
    // not (and parallel workers discover obligations in racy order).
    obligations.sort_by_key(|o| match *pool.node(o.out) {
        meissa_smt::TermNode::BvVar(v) => pool.var_name(v).to_string(),
        _ => String::new(),
    });
    let by_out: std::collections::HashMap<TermId, usize> = obligations
        .iter()
        .enumerate()
        .map(|(i, o)| (o.out, i))
        .collect();
    let mut seen: Vec<u32> = if obligations.is_empty() {
        Vec::new()
    } else {
        vec![0; pool.len()]
    };
    let mut epoch = 0u32;
    let mut stack: Vec<TermId> = Vec::new();
    let mut hits: Vec<usize> = Vec::new();
    paths
        .into_iter()
        .enumerate()
        .map(|(id, raw)| {
            // Attach only obligations whose stand-in appears somewhere in
            // this path's constraints or final values, in name order.
            hits.clear();
            if !obligations.is_empty() {
                epoch += 1;
                stack.extend(&raw.constraints);
                stack.extend(raw.final_values.iter().map(|&(_, t)| t));
                while let Some(t) = stack.pop() {
                    if std::mem::replace(&mut seen[t.index()], epoch) == epoch {
                        continue;
                    }
                    use meissa_smt::TermNode::*;
                    match *pool.node(t) {
                        BvVar(_) => hits.extend(by_out.get(&t)),
                        BvConst(_) | BoolConst(_) => {}
                        BvBin(_, a, b)
                        | BvConcat(a, b)
                        | Cmp(_, a, b)
                        | BoolAnd(a, b)
                        | BoolOr(a, b) => stack.extend([a, b]),
                        BvNot(a) | BvShl(a, _) | BvShr(a, _) | BvExtract(a, _, _) | BoolNot(a) => {
                            stack.push(a)
                        }
                        BvIte(c, a, b) => stack.extend([c, a, b]),
                    }
                }
                hits.sort_unstable();
            }
            TestTemplate {
                id,
                path: raw.path,
                constraints: raw.constraints,
                final_values: raw.final_values,
                hash_obligations: hits.iter().map(|&i| obligations[i].clone()).collect(),
            }
        })
        .collect()
}

/// Splits a boolean term into its top-level conjuncts, appending them to
/// `out`. `a && (b && c)` yields `[a, b, c]`; non-conjunction terms are
/// appended as-is.
pub(crate) fn flatten_conjuncts(pool: &TermPool, t: TermId, out: &mut Vec<TermId>) {
    if let meissa_smt::TermNode::BoolAnd(a, b) = *pool.node(t) {
        flatten_conjuncts(pool, a, out);
        flatten_conjuncts(pool, b, out);
    } else {
        out.push(t);
    }
}

/// Core DFS shared by whole-program execution and per-pipeline summary
/// execution. Walks from `start`; a path ends at `target` (when given) or at
/// any terminal node. `base_constraints` are asserted once below every
/// frame (the public pre-condition of Algorithm 2).
///
/// `sink` receives each valid path.
#[allow(clippy::too_many_arguments)]
pub fn explore(
    cfg: &Cfg,
    session: &mut SolveSession,
    ctx: &mut SymCtx,
    start: NodeId,
    target: Option<NodeId>,
    base_constraints: &[TermId],
    config: &ExecConfig,
    sink: &mut dyn FnMut(RawPath),
) -> ExecStats {
    let targets = target.into_iter().collect();
    explore_in_session(
        cfg,
        session,
        ctx,
        start,
        &targets,
        base_constraints,
        &[],
        config,
        sink,
    )
}

/// Like [`explore`], with a *set* of target nodes — a path ends as soon as
/// it reaches any of them — and an initial value-stack seed (the symbolic
/// state at `start`, used by Algorithm 2's incremental path extension).
/// With an empty target set, paths end at terminal nodes. With targets,
/// paths reaching a terminal node *without* hitting any target are also
/// emitted (the caller distinguishes them by their last node) — Algorithm
/// 2's extension needs both continuations toward later pipelines and
/// program-completing paths.
///
/// Runs on the session's **current** solver. Base constraints are installed
/// in a solver frame per call, so successive calls with different
/// pre-conditions reuse everything the solver has already blasted and
/// learned (one shared bit-blasting cache) instead of re-encoding the
/// shared program terms from scratch each time. Frame isolation keeps
/// verdicts independent across calls. Summary batch workers run every
/// job this way: starting each job on a fresh solver re-blasted its prefix
/// and arms, ~2.0 s of CPU on gw-4 (32 EIPs, one thread).
#[allow(clippy::too_many_arguments)]
pub fn explore_in_session(
    cfg: &Cfg,
    session: &mut SolveSession,
    ctx: &mut SymCtx,
    start: NodeId,
    targets: &std::collections::HashSet<NodeId>,
    base_constraints: &[TermId],
    initial_values: &[(meissa_ir::FieldId, TermId)],
    config: &ExecConfig,
    sink: &mut dyn FnMut(RawPath),
) -> ExecStats {
    let budget = ExploreBudget::new(config, Instant::now());
    explore_task(
        cfg,
        session,
        ctx,
        vec![(start, None)],
        true,
        targets,
        &[],
        base_constraints,
        initial_values,
        config,
        &budget,
        None,
        sink,
    )
}

/// The workhorse behind [`explore_in_session`] and each parallel worker's
/// task: explores the sibling range `arms` (a single decided `(start,
/// None)` for a whole exploration) with an already-established prefix —
/// `prefix_trace` (path nodes up to but excluding the arms),
/// `prefix_constraints` (asserted into one solver frame, **without**
/// re-checking: the donor already validated them), and `initial_values`
/// (the value stack at the arms). A `decided` range carries its parent's
/// verdicts and is never probed again; an undecided one is decided here,
/// in one batch. Budget state is shared through `budget`; `sharer`, when
/// present, may be handed part of any open sibling range.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_task(
    cfg: &Cfg,
    session: &mut SolveSession,
    ctx: &mut SymCtx,
    arms: Arms,
    decided: bool,
    targets: &std::collections::HashSet<NodeId>,
    prefix_trace: &[NodeId],
    prefix_constraints: &[TermId],
    initial_values: &[(meissa_ir::FieldId, TermId)],
    config: &ExecConfig,
    budget: &ExploreBudget,
    sharer: Option<&dyn WorkSharer>,
    sink: &mut dyn FnMut(RawPath),
) -> ExecStats {
    let mut stats = ExecStats::default();
    let t0 = Instant::now();
    // Task boundary: pick up clauses sibling workers published since this
    // worker's last task (no-op without an exchange attached).
    session.import_shared();
    let SolveSession {
        pool,
        solver,
        verdict_cache,
        base_verdicts,
        ..
    } = session;
    solver.push();
    for &c in prefix_constraints {
        solver.assert_term(pool, c);
    }
    // The verdict cache keys on the content hash of the *entire* current
    // constraint set, so the prefix's conjunct hashes seed the stack. Only
    // the incremental early-termination configuration probes it; the
    // baselines skip the keying entirely.
    let use_cache = config.incremental && config.early_termination;
    let key_stack: Vec<u64> = if use_cache {
        prefix_constraints
            .iter()
            .map(|&c| pool.term_hash(c))
            .collect()
    } else {
        Vec::new()
    };
    let mut walker = Walker {
        cfg,
        targets,
        config,
        stats: &mut stats,
        sink,
        budget,
        sharer,
        all_constraints: prefix_constraints.to_vec(),
        trace: prefix_trace.to_vec(),
        cache: verdict_cache,
        base: base_verdicts.as_deref(),
        key_stack,
        use_cache,
        frames: Vec::new(),
    };
    let mut v = ValueStack::new();
    for &(f, t) in initial_values {
        v.set(f, t);
    }
    let arms = if decided {
        arms
    } else {
        let children: Vec<NodeId> = arms.iter().map(|&(n, _)| n).collect();
        walker.decide_arms(pool, ctx, solver, &v, &children)
    };
    walker.expand(pool, ctx, solver, &mut v, arms);
    solver.pop();
    // Incremental checks are counted by the session's solver (delta since
    // the previous exploration); non-incremental checks were tallied
    // directly into `stats.smt_checks` by the walker.
    stats.smt_checks += session.take_new_checks();
    stats.elapsed = t0.elapsed();
    session.record(&stats);
    stats
}

struct Walker<'a> {
    cfg: &'a Cfg,
    targets: &'a std::collections::HashSet<NodeId>,
    config: &'a ExecConfig,
    stats: &'a mut ExecStats,
    sink: &'a mut dyn FnMut(RawPath),
    budget: &'a ExploreBudget,
    sharer: Option<&'a dyn WorkSharer>,
    /// Every constraint currently on the path (for non-incremental
    /// re-solving and for template emission).
    all_constraints: Vec<TermId>,
    trace: Vec<NodeId>,
    /// The session's `(constraint set) → verdict` cache: satisfiability of
    /// a constraint set is context-free, so verdicts survive across tasks,
    /// explorations, and solver resets within one session. This is what
    /// lets a parallel worker that re-explores a familiar region after a
    /// donation skip already-decided sibling arms.
    cache: &'a mut std::collections::HashMap<u128, bool>,
    /// Read-only verdicts inherited from the parent session (see
    /// [`crate::session::SolveSession::base_verdicts`]); consulted after a
    /// `cache` miss, never written.
    base: Option<&'a std::collections::HashMap<u128, bool>>,
    /// Pool-independent structural hashes of `all_constraints`, maintained
    /// in lockstep (only when `use_cache`); their lane fold
    /// ([`crate::session::verdict_key`]) is the cache key for the current
    /// set.
    key_stack: Vec<u64>,
    use_cache: bool,
    /// The sibling ranges currently being walked, shallowest first.
    frames: Vec<Frame>,
}

/// One branch node's children while the walker descends into them:
/// `siblings[next..]` are not started yet, and a hungry frontier may be
/// handed a tail of them. The lengths and the value-stack mark pin the
/// prefix at the branch point, which stays intact below it.
struct Frame {
    siblings: Arms,
    next: usize,
    trace_len: usize,
    constraints_len: usize,
    value_mark: usize,
}

/// A feasible sibling arm's guard, decided at the parent's branch point —
/// folded to true, or translated and probed SAT as part of a batch; the
/// child's `visit` asserts it without re-translating or re-probing.
/// Infeasible arms never get one: the decision prunes them on the spot.
#[derive(Default)]
pub(crate) struct PreArm {
    /// The guard's conjuncts, sorted by structural hash; empty for a guard
    /// that folded to true (no solver frame).
    pub(crate) conjuncts: Vec<TermId>,
    /// Structural hashes of `conjuncts`, in the same order.
    pub(crate) hashes: Vec<u64>,
}

impl Walker<'_> {
    fn out_of_budget(&mut self) -> bool {
        match self.budget.poll() {
            Some(timed_out) => {
                if timed_out {
                    self.stats.timed_out = true;
                }
                true
            }
            None => false,
        }
    }

    /// Satisfiability of the current constraint set, honoring the
    /// incremental/non-incremental configuration.
    fn check(&mut self, pool: &mut TermPool, solver: &mut Solver) -> CheckResult {
        if self.config.incremental {
            solver.check(pool)
        } else {
            // Fresh solver per query: what a tool without push/pop pays.
            self.stats.smt_checks += 1;
            let mut fresh = Solver::new();
            fresh.push();
            for &c in &self.all_constraints {
                fresh.assert_term(pool, c);
            }
            fresh.check(pool)
        }
    }

    /// Early-termination probe: is the current constraint set unsatisfiable?
    /// Under the incremental configuration the probe first consults the
    /// session's verdict cache — satisfiability depends only on the
    /// constraint set, so a set already decided by an earlier task (or an
    /// earlier exploration in the same session) is answered without the
    /// solver. A hit still counts one `smt_checks`, exactly like the folded
    /// checks above, so the Fig. 11b "number of SMT calls" metric stays
    /// comparable whether or not the cache intervenes. A cache miss checks
    /// the incremental solver's live frames.
    fn probe_unsat(&mut self, pool: &mut TermPool, solver: &mut Solver) -> bool {
        if !self.use_cache {
            return self.check(pool, solver) == CheckResult::Unsat;
        }
        self.stats.cache_probes += 1;
        let key = crate::session::verdict_key(&self.key_stack);
        if let Some(&unsat) = self
            .cache
            .get(&key)
            .or_else(|| self.base.and_then(|b| b.get(&key)))
        {
            self.stats.cache_hits += 1;
            self.stats.smt_checks += 1; // cached validity check
            return unsat;
        }
        let unsat = solver.check(pool) == CheckResult::Unsat;
        self.cache.insert(key, unsat);
        unsat
    }

    /// Decides the guards of a branch node's `Assume` children under the
    /// current value stack and returns the children left to walk, in
    /// order. A guard [`SymCtx::eval_const`] settles never reaches the
    /// pool; one that folds during translation is settled the same way —
    /// one folded validity check each, under Algorithm 1's accounting. The
    /// rest are probed in batched solver interactions
    /// ([`crate::session::probe_arms_cached`] →
    /// [`meissa_smt::Solver::check_under`]), counted per arm. Arms found
    /// infeasible are pruned here and never visited. Markers, non-predicate
    /// nodes, and every child under the non-caching baseline
    /// configurations get no [`PreArm`] and fall back to the per-node
    /// logic in `visit`.
    ///
    /// Without a sharer the probes go out as one batch. With one, they go
    /// out [`PROBE_CHUNK`] at a time, and between chunks a hungry frontier
    /// is handed the back half of the arms not yet probed as an undecided
    /// range — a wide batch is the longest stretch a walker spends without
    /// reaching [`Walker::share`], and an idle worker should not wait it out.
    fn decide_arms(
        &mut self,
        pool: &mut TermPool,
        ctx: &mut SymCtx,
        solver: &mut Solver,
        v: &ValueStack,
        children: &[NodeId],
    ) -> Arms {
        if !self.use_cache {
            return children.iter().map(|&c| (c, None)).collect();
        }
        let mut arms: Arms = Vec::new();
        // Positions in `arms` awaiting a probe, with their guards.
        let mut pending = Vec::new();
        let mut terms = Vec::new();
        let mut arm_hashes = Vec::new();
        for &child in children {
            let b = match self.cfg.stmt(child) {
                Stmt::Assume(b) if b != &meissa_ir::BExp::True => b,
                // Structural markers carry no validity question.
                _ => {
                    arms.push((child, None));
                    continue;
                }
            };
            let decided = match SymCtx::eval_const(pool, v, b) {
                Some(k) => Ok(k),
                None => {
                    let t = ctx.bexp(pool, &self.cfg.fields, v, b);
                    pool.as_bool_const(t).ok_or(t)
                }
            };
            match decided {
                Ok(k) => {
                    self.stats.smt_checks += 1; // folded validity check
                    if k {
                        arms.push((child, Some(PreArm::default())));
                    } else {
                        self.stats.pruned += 1;
                    }
                }
                Err(t) => {
                    let mut conjuncts = Vec::new();
                    flatten_conjuncts(pool, t, &mut conjuncts);
                    conjuncts.sort_by_key(|&c| pool.term_hash(c));
                    let hashes: Vec<u64> = conjuncts.iter().map(|&c| pool.term_hash(c)).collect();
                    pending.push(arms.len());
                    terms.push(t);
                    arm_hashes.push(hashes.clone());
                    arms.push((child, Some(PreArm { conjuncts, hashes })));
                }
            }
        }
        let mut skip = vec![false; arms.len()];
        let (mut probed, mut end) = (0, pending.len());
        while probed < end {
            let hi = match self.sharer {
                Some(_) => (probed + PROBE_CHUNK).min(end),
                None => end,
            };
            let unsats = crate::session::probe_arms_cached(
                pool,
                solver,
                self.cache,
                self.base,
                self.stats,
                &self.key_stack,
                &terms[probed..hi],
                &arm_hashes[probed..hi],
            );
            for (&i, unsat) in pending[probed..hi].iter().zip(unsats) {
                if unsat {
                    skip[i] = true;
                    self.stats.pruned += 1;
                }
            }
            probed = hi;
            if let Some(sh) = self.sharer {
                if end - probed >= 2 && sh.hungry() {
                    let cut = end - (end - probed) / 2;
                    let given = pending[cut..end].iter().map(|&i| {
                        skip[i] = true;
                        (arms[i].0, None)
                    });
                    sh.donate(
                        pool,
                        &self.trace,
                        &self.all_constraints,
                        &v.snapshot_at(v.mark()),
                        given.collect(),
                        false,
                    );
                    end = cut;
                }
            }
        }
        // The arms this walker probed count as one batch, however many
        // chunks they went out in.
        crate::session::record_batch(self.stats, end);
        let mut i = 0;
        arms.retain(|_| {
            i += 1;
            !skip[i - 1]
        });
        arms
    }

    /// Walks a decided sibling range in order, as one open [`Frame`].
    /// Before each sibling it offers work to a hungry frontier
    /// ([`Walker::share`]), so the range may shrink from the back while it
    /// is being walked.
    fn expand(
        &mut self,
        pool: &mut TermPool,
        ctx: &mut SymCtx,
        solver: &mut Solver,
        v: &mut ValueStack,
        siblings: Arms,
    ) {
        let fi = self.frames.len();
        self.frames.push(Frame {
            siblings,
            next: 0,
            trace_len: self.trace.len(),
            constraints_len: self.all_constraints.len(),
            value_mark: v.mark(),
        });
        loop {
            self.share(pool, v);
            let f = &mut self.frames[fi];
            let Some(slot) = f.siblings.get_mut(f.next) else {
                break;
            };
            let (node, pre) = (slot.0, slot.1.take());
            f.next += 1;
            let mark = v.mark();
            self.visit(pool, ctx, solver, v, node, pre);
            v.restore(mark);
            if self.out_of_budget() {
                break;
            }
        }
        self.frames.pop();
    }

    /// Work sharing: when the frontier is hungry, hand the back half of the
    /// *shallowest* open range's unstarted siblings to it as one range task.
    /// Shallow ranges hold the biggest subtrees, so an idle worker gets a
    /// chunky task however deep the donor currently is. The task carries
    /// the range's prefix and every sibling's [`PreArm`], so the receiver
    /// re-establishes the prefix once and probes nothing again — every arm
    /// is still decided once and visited once, which is what keeps the
    /// merged counters equal to a sequential run's.
    fn share(&mut self, pool: &TermPool, v: &ValueStack) {
        let Some(sh) = self.sharer else {
            return;
        };
        if !sh.hungry() {
            return;
        }
        let Some(f) = self
            .frames
            .iter_mut()
            .find(|f| f.siblings.len() - f.next >= 2)
        else {
            return;
        };
        let cut = f.siblings.len() - (f.siblings.len() - f.next) / 2;
        let arms = f.siblings.split_off(cut);
        sh.donate(
            pool,
            &self.trace[..f.trace_len],
            &self.all_constraints[..f.constraints_len],
            &v.snapshot_at(f.value_mark),
            arms,
            true,
        );
    }

    fn visit(
        &mut self,
        pool: &mut TermPool,
        ctx: &mut SymCtx,
        solver: &mut Solver,
        v: &mut ValueStack,
        node: NodeId,
        pre: Option<PreArm>,
    ) {
        if self.out_of_budget() {
            return;
        }
        self.trace.push(node);
        let mut pushed = false;
        let mut feasible = true;
        let constraints_mark = self.all_constraints.len();

        match self.cfg.stmt(node) {
            Stmt::Assume(_) if pre.is_some() => {
                // The parent's branch expansion already decided this arm
                // feasible and counted its check: folded to true (nothing
                // to assert, no solver frame), or probed SAT in one batched
                // interaction across all siblings.
                let arm = pre.unwrap();
                if !arm.conjuncts.is_empty() {
                    solver.push();
                    pushed = true;
                    for (c, h) in arm.conjuncts.into_iter().zip(arm.hashes) {
                        solver.assert_term(pool, c);
                        self.all_constraints.push(c);
                        self.key_stack.push(h);
                    }
                }
            }
            Stmt::Assume(b) => {
                // Structural no-op markers carry no validity question;
                // every other predicate node costs one validity check under
                // Algorithm 1's accounting (line 4 calls the solver at each
                // predicate). Constant folding answers many of those checks
                // without the SAT engine — cheaper, but still a check, so
                // the Fig. 11b "number of SMT calls" metric stays
                // comparable with the paper's implementation.
                let is_marker = b == &meissa_ir::BExp::True;
                let t = ctx.bexp(pool, &self.cfg.fields, v, b);
                match pool.as_bool_const(t) {
                    Some(true) => {
                        if !is_marker && self.config.early_termination {
                            self.stats.smt_checks += 1; // folded validity check
                        }
                    }
                    Some(false) if self.config.early_termination => {
                        // Syntactically false: prune via the fold fast path.
                        self.stats.smt_checks += 1; // folded validity check
                        feasible = false;
                        self.stats.pruned += 1;
                    }
                    Some(false) => {
                        // Naive mode must not benefit from folding: carry
                        // the contradiction along and discover it at the
                        // leaf check, like a tool without early termination.
                        solver.push();
                        solver.assert_term(pool, t);
                        self.all_constraints.push(t);
                        pushed = true;
                    }
                    None => {
                        // Record individual conjuncts: Algorithm 2's public
                        // pre-condition intersects *constraint sets*, which
                        // only works at conjunct granularity.
                        solver.push();
                        pushed = true;
                        let before = self.all_constraints.len();
                        flatten_conjuncts(pool, t, &mut self.all_constraints);
                        // `BoolAnd` canonicalizes its operands by pool-local
                        // TermId, so the flatten order above depends on term
                        // interning history — fine sequentially, but a parallel
                        // worker's pool interns in a schedule-dependent order.
                        // Re-sort the statement's conjuncts by their
                        // pool-independent structural hash so every pool
                        // records the same constraint sequence.
                        self.all_constraints[before..]
                            .sort_by_key(|&c| pool.term_hash(c));
                        for i in before..self.all_constraints.len() {
                            let c = self.all_constraints[i];
                            solver.assert_term(pool, c);
                            if self.use_cache {
                                self.key_stack.push(pool.term_hash(c));
                            }
                        }
                        if self.config.early_termination && self.probe_unsat(pool, solver) {
                            feasible = false;
                            self.stats.pruned += 1;
                        }
                    }
                }
            }
            Stmt::Assign(f, e) => {
                let t = ctx.aexp(pool, &self.cfg.fields, v, e);
                v.set(*f, t);
            }
        }
        if feasible {
            let at_target = self.targets.contains(&node);
            let cfg = self.cfg;
            let children = cfg.succ(node);
            if at_target || children.is_empty() {
                self.leaf(pool, solver, v);
            } else {
                // Batched branch expansion: decide every sibling arm in one
                // pass before descending.
                let arms = self.decide_arms(pool, ctx, solver, v, children);
                self.expand(pool, ctx, solver, v, arms);
            }
        }

        if pushed {
            solver.pop();
            self.all_constraints.truncate(constraints_mark);
            if self.use_cache {
                self.key_stack.truncate(constraints_mark);
            }
        }
        self.trace.pop();
    }

    fn leaf(&mut self, pool: &mut TermPool, solver: &mut Solver, v: &ValueStack) {
        self.stats.paths_explored += 1;
        // With early termination every prefix was checked, but the last
        // check may predate recent assume-true / assignment nodes; the
        // constraint set is unchanged since then, so the path is valid.
        // Without early termination this is the only check on the path.
        let valid = if self.config.early_termination {
            true
        } else {
            self.check(pool, solver) == CheckResult::Sat
        };
        if !valid {
            return;
        }
        self.stats.valid_paths += 1;
        self.budget.note_emit();
        // Sorted by field so emitted paths are deterministic — the value
        // stack is a hash map, whose iteration order is not.
        let mut final_values: Vec<_> = v.iter().collect();
        final_values.sort_by_key(|&(f, _)| f);
        (self.sink)(RawPath {
            path: self.trace.clone(),
            constraints: self.all_constraints.clone(),
            final_values,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_ir::{AExp, BExp, CfgBuilder, CmpOp, FieldId};
    use meissa_num::Bv;

    fn field(b: &mut CfgBuilder, name: &str, w: u16) -> FieldId {
        b.fields_mut().intern(name, w)
    }

    /// The Fig. 7a graph: table A assigns port by dst, table B branches on
    /// port — n×n possible paths, n valid.
    fn fig7_cfg(n: u128) -> Cfg {
        let mut b = CfgBuilder::new();
        let dst = field(&mut b, "dstIP", 32);
        let port = field(&mut b, "egressPort", 9);
        let mac = field(&mut b, "dstMAC", 48);
        b.nop();
        // Table ipv4_host.
        let base = b.frontier();
        let mut arms = Vec::new();
        for i in 0..n {
            b.set_frontier(base.clone());
            b.stmt(Stmt::Assume(BExp::Cmp(
                CmpOp::Eq,
                AExp::Field(dst),
                AExp::Const(Bv::new(32, 0x01010101 + i)),
            )));
            b.stmt(Stmt::Assign(port, AExp::Const(Bv::new(9, 1 + i))));
            arms.push(b.frontier());
        }
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.nop();
        // Table mac_agent.
        let base = b.frontier();
        let mut arms = Vec::new();
        for i in 0..n {
            b.set_frontier(base.clone());
            b.stmt(Stmt::Assume(BExp::Cmp(
                CmpOp::Eq,
                AExp::Field(port),
                AExp::Const(Bv::new(9, 1 + i)),
            )));
            b.stmt(Stmt::Assign(mac, AExp::Const(Bv::new(48, i + 1))));
            arms.push(b.frontier());
        }
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.nop();
        b.finish()
    }

    #[test]
    fn fig7_valid_paths_are_diagonal() {
        let cfg = fig7_cfg(5);
        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        // 25 possible, 5 valid (port set by table A must match table B key).
        assert_eq!(out.templates.len(), 5);
        assert_eq!(out.stats.valid_paths, 5);
        assert_eq!(out.stats.pruned, 20);
    }

    #[test]
    fn early_termination_prunes_smt_work() {
        let cfg = fig7_cfg(6);
        let mut session1 = SolveSession::new();
        let with = generate_templates(&cfg, &mut session1, &ExecConfig::default());
        let mut session2 = SolveSession::new();
        let without = generate_templates(
            &cfg,
            &mut session2,
            &ExecConfig {
                early_termination: false,
                ..ExecConfig::default()
            },
        );
        assert_eq!(with.templates.len(), without.templates.len());
        assert_eq!(without.stats.paths_explored, 36, "all possible paths");
        assert!(with.stats.paths_explored < without.stats.paths_explored);
    }

    #[test]
    fn verdict_cache_answers_repeat_probes() {
        let cfg = fig7_cfg(4);
        let config = ExecConfig::default();
        let mut session = SolveSession::new();
        let first = generate_templates(&cfg, &mut session, &config);
        assert!(
            first.stats.cache_probes > 0,
            "early-termination probes consult the cache"
        );
        assert_eq!(first.stats.cache_hits, 0, "a fresh session starts cold");
        // Re-exploring the same CFG in the same session re-issues the same
        // constraint sets; every probe is now answered from the cache.
        let second = generate_templates(&cfg, &mut session, &config);
        assert_eq!(second.stats.cache_probes, first.stats.cache_probes);
        assert_eq!(
            second.stats.cache_hits, second.stats.cache_probes,
            "identical re-exploration hits on every probe"
        );
        assert_eq!(
            second.stats.smt_checks, first.stats.smt_checks,
            "hits count as checks, keeping the Fig. 11b metric comparable"
        );
        assert_eq!(second.templates.len(), first.templates.len());
        // Session totals carry the cumulative counters.
        assert_eq!(
            session.exec.cache_probes,
            first.stats.cache_probes + second.stats.cache_probes
        );
        assert_eq!(session.exec.cache_hits, second.stats.cache_hits);
    }

    #[test]
    fn verdict_cache_is_off_in_baseline_modes() {
        let cfg = fig7_cfg(3);
        for config in [
            ExecConfig {
                early_termination: false,
                ..ExecConfig::default()
            },
            ExecConfig {
                incremental: false,
                ..ExecConfig::default()
            },
        ] {
            let mut session = SolveSession::new();
            let a = generate_templates(&cfg, &mut session, &config);
            let b = generate_templates(&cfg, &mut session, &config);
            assert_eq!(a.stats.cache_probes, 0, "baselines never probe the cache");
            assert_eq!(b.stats.cache_hits, 0);
            assert_eq!(b.templates.len(), a.templates.len());
        }
    }

    #[test]
    fn templates_instantiate_and_replay() {
        // End-to-end Definition 3 check: every template's model drives the
        // concrete evaluator down exactly the template's path.
        let cfg = fig7_cfg(4);
        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        for t in &out.templates {
            let input = t
                .instantiate(&mut session.pool, &cfg.fields, &[])
                .expect("valid template instantiates");
            let result = meissa_ir::eval_path(&cfg, &t.path, &input);
            assert!(result.is_ok(), "model must execute the covered path");
        }
    }

    #[test]
    fn distinct_templates_cover_distinct_paths() {
        let cfg = fig7_cfg(4);
        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        let mut seen = std::collections::HashSet::new();
        for t in &out.templates {
            assert!(seen.insert(t.path.clone()), "duplicate path");
        }
    }

    #[test]
    fn syntactically_false_guards_skip_solver() {
        let mut b = CfgBuilder::new();
        let f = field(&mut b, "x", 8);
        b.nop();
        let base = b.frontier();
        // Branch 1: x == 1 (satisfiable).
        b.set_frontier(base.clone());
        b.stmt(Stmt::Assume(BExp::Cmp(
            CmpOp::Eq,
            AExp::Field(f),
            AExp::Const(Bv::new(8, 1)),
        )));
        let f1 = b.frontier();
        // Branch 2: constant false.
        b.set_frontier(base);
        b.stmt(Stmt::Assume(BExp::False));
        let f2 = b.frontier();
        b.set_frontier(Vec::new());
        b.merge_frontiers(vec![f1, f2]);
        b.nop();
        let cfg = b.finish();

        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        assert_eq!(out.templates.len(), 1);
        assert_eq!(out.stats.pruned, 1);
    }

    #[test]
    fn assignment_then_contradiction_is_pruned() {
        // Fig. 5b: dstIP ← k then dstIP == other: invalid.
        let mut b = CfgBuilder::new();
        let f = field(&mut b, "dstIP", 32);
        b.stmt(Stmt::Assign(f, AExp::Const(Bv::new(32, 0xc0a80001))));
        b.stmt(Stmt::Assume(BExp::Cmp(
            CmpOp::Eq,
            AExp::Field(f),
            AExp::Const(Bv::new(32, 0x0a010101)),
        )));
        let cfg = b.finish();
        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        assert_eq!(out.templates.len(), 0);
        assert_eq!(out.stats.pruned, 1);
    }

    #[test]
    fn max_templates_caps_output() {
        let cfg = fig7_cfg(8);
        let mut session = SolveSession::new();
        let out = generate_templates(
            &cfg,
            &mut session,
            &ExecConfig {
                max_templates: Some(3),
                ..ExecConfig::default()
            },
        );
        assert_eq!(out.templates.len(), 3);
    }

    #[test]
    fn time_budget_flags_timeout() {
        let cfg = fig7_cfg(10);
        let mut session = SolveSession::new();
        let out = generate_templates(
            &cfg,
            &mut session,
            &ExecConfig {
                time_budget: Some(Duration::from_nanos(1)),
                ..ExecConfig::default()
            },
        );
        assert!(out.stats.timed_out);
    }

    #[test]
    fn non_incremental_mode_matches_results() {
        let cfg = fig7_cfg(5);
        let mut session1 = SolveSession::new();
        let inc = generate_templates(&cfg, &mut session1, &ExecConfig::default());
        let mut session2 = SolveSession::new();
        let fresh = generate_templates(
            &cfg,
            &mut session2,
            &ExecConfig {
                incremental: false,
                ..ExecConfig::default()
            },
        );
        assert_eq!(inc.templates.len(), fresh.templates.len());
    }

    #[test]
    fn session_reuses_one_solver_across_explorations() {
        // `explore_in_session` keeps the session's solver: successive runs
        // with different base constraints answer from the shared
        // bit-blasting cache, and frame isolation keeps verdicts
        // independent.
        let cfg = fig7_cfg(4);
        let mut session = SolveSession::new();
        let mut ctx = crate::symstate::SymCtx::new(None);
        let config = ExecConfig::default();
        let dst = cfg.fields.get("dstIP").unwrap();
        let dst_var = session.pool.var("dstIP", 32);
        let targets = std::collections::HashSet::new();

        // Unconstrained: all 4 diagonal paths.
        let mut n_free = 0;
        explore_in_session(
            &cfg,
            &mut session,
            &mut ctx,
            cfg.entry(),
            &targets,
            &[],
            &[],
            &config,
            &mut |_| n_free += 1,
        );
        assert_eq!(n_free, 4);

        // Base-constrained to one dst: a single path.
        let k = session.pool.bv_const(meissa_num::Bv::new(32, 0x01010102));
        let pin = session.pool.eq(dst_var, k);
        let mut n_pinned = 0;
        explore_in_session(
            &cfg,
            &mut session,
            &mut ctx,
            cfg.entry(),
            &targets,
            &[pin],
            &[],
            &config,
            &mut |_| n_pinned += 1,
        );
        assert_eq!(n_pinned, 1);

        // And the constraint did not leak into a third run.
        let mut n_again = 0;
        explore_in_session(
            &cfg,
            &mut session,
            &mut ctx,
            cfg.entry(),
            &targets,
            &[],
            &[],
            &config,
            &mut |_| n_again += 1,
        );
        assert_eq!(n_again, 4);
        // The session accumulated every exploration's work.
        assert_eq!(session.exec.valid_paths, 9);
        assert!(session.solver_stats().checks > 0);
        let _ = dst;
    }

    #[test]
    fn final_values_capture_effects() {
        let cfg = fig7_cfg(3);
        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        let mac = cfg.fields.get("dstMAC").unwrap();
        for t in &out.templates {
            let mac_val = t
                .final_values
                .iter()
                .find(|(f, _)| *f == mac)
                .map(|&(_, v)| v)
                .expect("dstMAC assigned on every valid path");
            assert!(session.pool.as_const(mac_val).is_some());
        }
    }
}
