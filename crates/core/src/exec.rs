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
use meissa_ir::{AExp, BExp, Cfg, FieldTable, MatchIndex, NodeId, Stmt};
use meissa_num::Bv;
use meissa_smt::term::{CmpOp, EvalValue};
use meissa_smt::{CheckResult, Solver, TermId, TermNode, TermPool, VarId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
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

/// A decided sibling range ([`Walker::decide_arms`]): the feasible
/// children of one branch node, in successor order, each with the guard its
/// parent already settled (`None` for markers and non-predicate nodes,
/// which `visit` handles itself). An exploration starts from the one-arm
/// range `[(start, None)]`.
pub(crate) type Arms = Vec<(NodeId, Option<PreArm>)>;

/// Donation hook a parallel frontier installs on each worker's walker. A
/// walker whose frontier is hungry hands the back half of an open branch's
/// unstarted siblings to an idle worker as one range task: `(path-prefix,
/// constraint-prefix, value-snapshot, arms)`.
pub(crate) trait WorkSharer: Sync {
    /// Is anyone idle with nothing queued? Consulted before every sibling
    /// a walker descends into, so it must cost a couple of atomic loads.
    /// `engine_calls` is the asking walker's SAT-engine calls so far: the
    /// solver work its subtrees have shown, which a frontier may require
    /// before it lets idle workers in.
    fn hungry(&self, engine_calls: u64) -> bool;
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
    );
}

/// The walker's match indexes over one CFG's `Assume` guards, built at
/// most once per branch node, on the node's first visit, and shared
/// read-only by every worker of an exploration. It borrows the graph it
/// indexes, so it cannot outlive it: code summary rewrites the CFG between
/// batches, and each exploration call builds its own.
///
/// A table whose key fields an earlier action bound to constants (gw-1's
/// `vni_underlay` and `nh_rewrite`, keyed on the `meta.vni` that
/// `eip_lookup` wrote) is decided by one hash lookup per mask group
/// instead of one [`SymCtx::eval_const`] per rule — on a 1,024-rule table
/// the miss arm alone is a conjunction of 1,024 negations.
pub struct ArmIndex<'a> {
    cfg: &'a Cfg,
    nodes: Vec<OnceLock<Option<Box<NodeArms>>>>,
}

/// One branch node's index and the accounting it stands in for.
struct NodeArms {
    index: MatchIndex,
    /// Arms the index decides: the indexed ones, then the miss arm when
    /// the index recognizes it.
    covered: usize,
    /// Non-marker arms among them; each is one folded validity check.
    checks: u64,
}

/// A node's leading arms as decided by its [`ArmIndex`] entry, exactly as
/// [`SymCtx::eval_const`] would decide each one.
pub struct IndexedArms {
    /// Arms `..covered` are decided; the rest take the per-arm path.
    pub covered: usize,
    /// The decided arms whose guard holds, ascending (markers included).
    pub holding: Vec<usize>,
    /// Non-marker arms among the decided ones (one folded check each).
    pub checks: u64,
}

impl<'a> ArmIndex<'a> {
    /// An empty index over `cfg`; entries are built on first use.
    pub fn new(cfg: &'a Cfg) -> Self {
        ArmIndex {
            cfg,
            nodes: (0..cfg.num_nodes()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Decides `node`'s leading arms under the value stack `v`, when every
    /// field their guards read is bound to a constant there; `None` when
    /// the node has no index or some key field is unbound or symbolic.
    pub fn decide(&self, pool: &TermPool, v: &ValueStack, node: NodeId) -> Option<IndexedArms> {
        let arms = self.nodes[node.0 as usize]
            .get_or_init(|| self.build(node).map(Box::new))
            .as_deref()?;
        let fields = &self.cfg.fields;
        let mut holding = Vec::new();
        arms.index.matches(
            |f| {
                let c = pool.as_const(v.get(f)?)?;
                (c.width() == fields.width(f)).then_some(c.val())
            },
            &mut holding,
        )?;
        if arms.covered > arms.index.indexed() && holding.is_empty() {
            holding.push(arms.index.indexed());
        }
        Some(IndexedArms {
            covered: arms.covered,
            holding,
            checks: arms.checks,
        })
    }

    fn build(&self, node: NodeId) -> Option<NodeArms> {
        let cfg = self.cfg;
        let succ = cfg.succ(node);
        let index = MatchIndex::build(&cfg.fields, succ.len(), |i| match cfg.stmt(succ[i]) {
            Stmt::Assume(b) => Some(b),
            Stmt::Assign(..) => None,
        })?;
        let covered = index.indexed() + index.miss_direct() as usize;
        let checks = succ[..covered]
            .iter()
            .filter(|&&s| !cfg.stmt(s).is_nop())
            .count() as u64;
        Some(NodeArms {
            index,
            covered,
            checks,
        })
    }
}

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
    /// Sibling arms decided together in batched branch expansion
    /// ([`meissa_smt::Solver::check_under`] or the independence shortcut;
    /// incremental + early-termination configuration only). Each batched
    /// arm still counts one `smt_checks`, so this splits the Fig. 11b
    /// metric by probing style rather than adding to it.
    pub batched_probes: u64,
    /// Batched arms decided Sat without a solver call because their guard
    /// is `x == c` on a variable no live path constraint mentions
    /// ([`PathVars::is_free_eq`]). Each is one of `batched_probes` and
    /// still counts one `smt_checks`.
    pub arms_independent: u64,
    /// Arms decided without a solver call by the constants live `x == c`
    /// path constraints pin variables to ([`PathVars::pin`]): refuted ones
    /// count one folded `smt_checks` and one `pruned`, as a fold does;
    /// accepted ones are among `batched_probes` and count one
    /// `smt_checks`, as an independent arm does.
    pub arms_pinned: u64,
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
                    match pool.node(t) {
                        TermNode::BvVar(_) => hits.extend(by_out.get(&t)),
                        node => push_operands(node, &mut stack),
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

/// Pushes a term node's operands onto a DAG-walk stack.
fn push_operands(node: &TermNode, stack: &mut Vec<TermId>) {
    use TermNode::*;
    match *node {
        BvVar(_) | BvConst(_) | BoolConst(_) => {}
        BvBin(_, a, b) | BvConcat(a, b) | Cmp(_, a, b) | BoolAnd(a, b) | BoolOr(a, b) => {
            stack.extend([a, b])
        }
        BvNot(a) | BvShl(a, _) | BvShr(a, _) | BvExtract(a, _, _) | BoolNot(a) => stack.push(a),
        BvIte(c, a, b) => stack.extend([c, a, b]),
    }
}

/// Splits a boolean term into its top-level conjuncts, appending them to
/// `out`. `a && (b && c)` yields `[a, b, c]`; non-conjunction terms are
/// appended as-is.
pub fn flatten_conjuncts(pool: &TermPool, t: TermId, out: &mut Vec<TermId>) {
    if let TermNode::BoolAnd(a, b) = *pool.node(t) {
        flatten_conjuncts(pool, a, out);
        flatten_conjuncts(pool, b, out);
    } else {
        out.push(t);
    }
}

/// The variables of the constraints live on a walker's path, kept as the
/// number of live constraints that mention each one, and the constants
/// live `x == c` constraints pin variables to. The walker adds a
/// constraint when it asserts it and drops it when it backtracks past it,
/// so asking whether a variable is free on the path, or what it is pinned
/// to, costs one lookup.
///
/// This is constraint independence (KLEE, Cadar et al., OSDI 2008) in its
/// cheapest form: when the path condition is satisfiable and leaves `x`
/// free, `x == c` (with `c` of `x`'s width) is satisfiable together with
/// it, so [`Walker::decide_arms`] decides such an arm Sat without asking
/// the solver. Pins are KLEE's constraint-set simplification in the same
/// spirit: a path whose constraints imply `x == k` refutes every guard
/// that is false with `x` at `k`, and takes one that is true with it.
#[derive(Default)]
pub struct PathVars {
    /// Live constraints mentioning each variable, by [`VarId::index`].
    counts: Vec<u32>,
    /// Each live constraint's distinct variables, in push order.
    vars: Vec<VarId>,
    /// The constant each variable is pinned to, by [`VarId::index`].
    pins: Vec<Option<Bv>>,
    /// Each live pinning constraint's variable and the pin it replaced, in
    /// push order.
    repins: Vec<(VarId, Option<Bv>)>,
    /// `vars.len()` and `repins.len()` before each live constraint.
    marks: Vec<(usize, usize)>,
    /// Buffers reused by the DAG walk in `push`.
    seen: HashSet<TermId>,
    stack: Vec<TermId>,
}

/// `t` as `x == c` with `c` a constant of `x`'s width.
fn var_const_eq(pool: &TermPool, t: TermId) -> Option<(VarId, Bv)> {
    let TermNode::Cmp(CmpOp::Eq, a, b) = *pool.node(t) else {
        return None;
    };
    let (x, c) = match (pool.node(a), pool.node(b)) {
        (&TermNode::BvVar(x), &TermNode::BvConst(c))
        | (&TermNode::BvConst(c), &TermNode::BvVar(x)) => (x, c),
        _ => return None,
    };
    (c.width() == pool.var_width(x)).then_some((x, c))
}

impl PathVars {
    /// An empty path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds constraint `t` to the path.
    pub fn push(&mut self, pool: &TermPool, t: TermId) {
        self.marks.push((self.vars.len(), self.repins.len()));
        if let Some((x, c)) = var_const_eq(pool, t) {
            if self.pins.len() <= x.index() {
                self.pins.resize(x.index() + 1, None);
            }
            let prev = self.pins[x.index()].replace(c);
            self.repins.push((x, prev));
        }
        self.seen.clear();
        self.stack.push(t);
        while let Some(t) = self.stack.pop() {
            if !self.seen.insert(t) {
                continue;
            }
            match pool.node(t) {
                &TermNode::BvVar(x) => {
                    if self.counts.len() <= x.index() {
                        self.counts.resize(x.index() + 1, 0);
                    }
                    self.counts[x.index()] += 1;
                    self.vars.push(x);
                }
                node => push_operands(node, &mut self.stack),
            }
        }
    }

    /// Drops every constraint past the first `len`.
    pub fn truncate(&mut self, len: usize) {
        let Some(&(vars_from, repins_from)) = self.marks.get(len) else {
            return;
        };
        for x in self.vars.drain(vars_from..) {
            self.counts[x.index()] -= 1;
        }
        while self.repins.len() > repins_from {
            let (x, prev) = self.repins.pop().expect("checked length");
            self.pins[x.index()] = prev;
        }
        self.marks.truncate(len);
    }

    /// Is `t` an equality `x == c` of a variable that no live constraint
    /// mentions and a constant of its width? If the live constraints are
    /// satisfiable, so is their conjunction with such a `t`.
    pub fn is_free_eq(&self, pool: &TermPool, t: TermId) -> bool {
        var_const_eq(pool, t)
            .is_some_and(|(x, _)| self.counts.get(x.index()).is_none_or(|&n| n == 0))
    }

    /// The constant a live constraint `x == c` pins `x` to (the latest such
    /// constraint's, when several do).
    pub fn pin(&self, x: VarId) -> Option<Bv> {
        self.pins.get(x.index()).copied().flatten()
    }

    /// Is guard `b` a comparison `field == k` whose field reads, under the
    /// value stack `v`, a variable pinned to a constant other than `k`? The
    /// path's constraints then imply the guard is false, satisfiable or
    /// not, so the walker refutes the arm before [`SymCtx::bexp`]
    /// translates it. Reading the field may intern its input variable, as
    /// translating the guard would.
    pub fn refutes(
        &self,
        pool: &mut TermPool,
        ctx: &mut SymCtx,
        fields: &FieldTable,
        v: &ValueStack,
        b: &BExp,
    ) -> bool {
        if self.repins.is_empty() {
            return false;
        }
        let BExp::Cmp(meissa_ir::CmpOp::Eq, l, r) = b else {
            return false;
        };
        let (f, k) = match (l, r) {
            (AExp::Field(f), AExp::Const(k)) | (AExp::Const(k), AExp::Field(f)) => (*f, *k),
            _ => return false,
        };
        let t = ctx.read(pool, fields, v, f);
        match *pool.node(t) {
            TermNode::BvVar(x) => self
                .pin(x)
                .is_some_and(|c| c.width() == k.width() && c != k),
            _ => false,
        }
    }

    /// Decides the conjunction of `conjuncts` under the pins: `Some(false)`
    /// when some conjunct evaluates to false with every pinned variable at
    /// its pin, `Some(true)` when every one evaluates to true. The path's
    /// constraints imply their pins, so a false conjunct makes the arm
    /// infeasible on any path, and an all-true one makes it feasible on any
    /// satisfiable path. `None` when a conjunct reads a variable with no pin.
    pub fn decide(&self, pool: &TermPool, conjuncts: &[TermId]) -> Option<bool> {
        if self.repins.is_empty() {
            return None;
        }
        let env = |x: VarId| self.pin(x);
        let mut all = true;
        for &c in conjuncts {
            match pool.eval(c, &env) {
                Some(EvalValue::Bool(false)) => return Some(false),
                Some(_) => {}
                None => all = false,
            }
        }
        all.then_some(true)
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
        &ArmIndex::new(cfg),
        session,
        ctx,
        start,
        &targets,
        base_constraints,
        false,
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
/// and arms, ~2.0 s of CPU on gw-4 (32 EIPs, one thread). `arm_index`
/// must index `cfg`; callers running several explorations of one graph
/// share one. `base_sat` says the caller knows `base_constraints` to be
/// satisfiable (an empty base always is). Otherwise the walker does not
/// assume it: it accepts arms without the solver ([`PathVars`]) only after
/// the first Sat answer. Refuting an arm against a pinned variable needs
/// no satisfiable base.
#[allow(clippy::too_many_arguments)]
pub fn explore_in_session(
    cfg: &Cfg,
    arm_index: &ArmIndex<'_>,
    session: &mut SolveSession,
    ctx: &mut SymCtx,
    start: NodeId,
    targets: &std::collections::HashSet<NodeId>,
    base_constraints: &[TermId],
    base_sat: bool,
    initial_values: &[(meissa_ir::FieldId, TermId)],
    config: &ExecConfig,
    sink: &mut dyn FnMut(RawPath),
) -> ExecStats {
    let budget = ExploreBudget::new(config, Instant::now());
    explore_task(
        cfg,
        arm_index,
        session,
        ctx,
        vec![(start, None)],
        base_sat || base_constraints.is_empty(),
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
/// task: explores the decided sibling range `arms` (`[(start, None)]` for
/// a whole exploration) with an already-established prefix —
/// `prefix_trace` (path nodes up to but excluding the arms),
/// `prefix_constraints` (asserted into one solver frame, **without**
/// re-checking), and `initial_values` (the value stack at the arms). The
/// arms carry their parent's verdicts and are never probed again.
/// `prefix_sat` says the prefix is known satisfiable — empty, or validated
/// by the donor — which lets the walker accept arms without the solver
/// from the start. Budget state is shared through
/// `budget`; `sharer`, when present, may be handed part of any open
/// sibling range.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_task(
    cfg: &Cfg,
    arm_index: &ArmIndex<'_>,
    session: &mut SolveSession,
    ctx: &mut SymCtx,
    arms: Arms,
    prefix_sat: bool,
    targets: &std::collections::HashSet<NodeId>,
    prefix_trace: &[NodeId],
    prefix_constraints: &[TermId],
    initial_values: &[(meissa_ir::FieldId, TermId)],
    config: &ExecConfig,
    budget: &ExploreBudget,
    sharer: Option<&dyn WorkSharer>,
    sink: &mut dyn FnMut(RawPath),
) -> ExecStats {
    debug_assert!(
        std::ptr::eq(cfg, arm_index.cfg),
        "arm index built for another graph"
    );
    let mut stats = ExecStats::default();
    let t0 = Instant::now();
    let SolveSession { pool, solver, .. } = session;
    let mut walker = Walker {
        cfg,
        targets,
        config,
        stats: &mut stats,
        sink,
        budget,
        sharer,
        arm_index,
        all_constraints: Vec::with_capacity(prefix_constraints.len()),
        path_vars: PathVars::new(),
        engine_calls: 0,
        sat_known: prefix_sat,
        trace: prefix_trace.to_vec(),
        // Only the incremental early-termination configuration decides
        // sibling arms in batches; the baselines probe node by node.
        batch_arms: config.incremental && config.early_termination,
        frames: Vec::new(),
    };
    solver.push();
    for &c in prefix_constraints {
        walker.assert_constraint(pool, solver, c);
    }
    let mut v = ValueStack::new();
    for &(f, t) in initial_values {
        v.set(f, t);
    }
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
    /// Match indexes over `cfg`'s branch nodes, shared with every worker.
    arm_index: &'a ArmIndex<'a>,
    /// Every constraint currently on the path (for non-incremental
    /// re-solving and for template emission).
    all_constraints: Vec<TermId>,
    /// The variables of `all_constraints` (kept only with `batch_arms`).
    path_vars: PathVars,
    /// SAT-engine calls this walker's checks have made.
    engine_calls: u64,
    /// Are the live constraints known satisfiable? True from the start
    /// under a prefix known satisfiable, and from the first Sat answer of
    /// a batch on: every constraint pushed after that belongs to an arm
    /// decided Sat under the constraints before it.
    sat_known: bool,
    trace: Vec<NodeId>,
    /// Decide each branch node's sibling arms in one batched probe
    /// ([`Walker::decide_arms`]) instead of one check per child.
    batch_arms: bool,
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

    /// Asserts `c` into the solver's top frame and records it on the path.
    fn assert_constraint(&mut self, pool: &mut TermPool, solver: &mut Solver, c: TermId) {
        solver.assert_term(pool, c);
        self.all_constraints.push(c);
        if self.batch_arms {
            self.path_vars.push(pool, c);
        }
    }

    /// Satisfiability of the current constraint set, honoring the
    /// incremental/non-incremental configuration.
    fn check(&mut self, pool: &mut TermPool, solver: &mut Solver) -> CheckResult {
        if self.config.incremental {
            let engine_calls = solver.stats.sat_engine_calls;
            let r = solver.check(pool);
            self.engine_calls += solver.stats.sat_engine_calls - engine_calls;
            r
        } else {
            // Fresh solver per query: what a tool without push/pop pays.
            self.stats.smt_checks += 1;
            let mut fresh = Solver::new();
            fresh.push();
            for &c in &self.all_constraints {
                fresh.assert_term(pool, c);
            }
            let r = fresh.check(pool);
            self.engine_calls += fresh.stats.sat_engine_calls;
            r
        }
    }

    /// Decides the guards of a branch node's `Assume` children under the
    /// current value stack and returns the children left to walk, in
    /// order. When the [`ArmIndex`] can decide `parent`'s leading arms
    /// (every key field bound to a constant), those take one lookup and
    /// count exactly what the per-arm fold below would. A guard
    /// [`SymCtx::eval_const`] settles never reaches the pool; one that
    /// folds during translation is settled the same way — one folded
    /// validity check each, under Algorithm 1's accounting. So is a guard
    /// the path's pins refute ([`PathVars::pin`]): `field == k` on a field
    /// that reads a variable pinned to another constant, before
    /// translation, or a translated guard with a conjunct false under the
    /// pins ([`PathVars::decide`]). The rest are decided as one batch,
    /// counted per arm: while the live constraints are known satisfiable,
    /// a guard true under the pins, or `x == c` on a variable free on the
    /// path ([`PathVars::is_free_eq`]), is Sat without a solver call, and
    /// every other guard is probed in one batched solver interaction
    /// ([`meissa_smt::Solver::check_under`] over the live frames). Arms
    /// found infeasible are pruned here and never visited. Markers,
    /// non-predicate nodes, and every child under the baseline
    /// configurations (no `batch_arms`) get no [`PreArm`] and fall back to
    /// the per-node logic in `visit`.
    fn decide_arms(
        &mut self,
        pool: &mut TermPool,
        ctx: &mut SymCtx,
        solver: &mut Solver,
        v: &ValueStack,
        parent: NodeId,
    ) -> Arms {
        let cfg = self.cfg;
        let children = cfg.succ(parent);
        if !self.batch_arms {
            return children.iter().map(|&c| (c, None)).collect();
        }
        let mut arms: Arms = Vec::new();
        let mut first = 0;
        if let Some(ix) = self.arm_index.decide(pool, v, parent) {
            self.stats.smt_checks += ix.checks; // folded validity checks
            let mut held = 0;
            for i in ix.holding {
                let child = children[i];
                if self.cfg.stmt(child).is_nop() {
                    arms.push((child, None));
                } else {
                    held += 1;
                    arms.push((child, Some(PreArm::default())));
                }
            }
            self.stats.pruned += ix.checks - held;
            first = ix.covered;
        }
        // Positions in `arms` awaiting a probe, with their guards.
        let mut pending = Vec::new();
        let mut terms = Vec::new();
        let (mut independent, mut accepted) = (0, 0);
        for &child in &children[first..] {
            let b = match self.cfg.stmt(child) {
                Stmt::Assume(b) if b != &BExp::True => b,
                // Structural markers carry no validity question.
                _ => {
                    arms.push((child, None));
                    continue;
                }
            };
            let decided = match SymCtx::eval_const(pool, v, b) {
                Some(k) => Ok(k),
                None if self.path_vars.refutes(pool, ctx, &self.cfg.fields, v, b) => {
                    self.stats.arms_pinned += 1;
                    Ok(false)
                }
                None => {
                    let t = ctx.bexp(pool, &self.cfg.fields, v, b);
                    pool.as_bool_const(t).ok_or(t)
                }
            };
            let (t, conjuncts) = match decided {
                Ok(k) => {
                    self.stats.smt_checks += 1; // folded validity check
                    if k {
                        arms.push((child, Some(PreArm::default())));
                    } else {
                        self.stats.pruned += 1;
                    }
                    continue;
                }
                Err(t) => {
                    let mut conjuncts = Vec::new();
                    flatten_conjuncts(pool, t, &mut conjuncts);
                    conjuncts.sort_by_key(|&c| pool.term_hash(c));
                    (t, conjuncts)
                }
            };
            match self.path_vars.decide(pool, &conjuncts) {
                Some(false) => {
                    // Refuted by a pin: a folded validity check.
                    self.stats.arms_pinned += 1;
                    self.stats.smt_checks += 1;
                    self.stats.pruned += 1;
                    continue;
                }
                Some(true) if self.sat_known => accepted += 1,
                _ if self.sat_known && self.path_vars.is_free_eq(pool, t) => independent += 1,
                _ => {
                    pending.push(arms.len());
                    terms.push(t);
                }
            }
            arms.push((child, Some(PreArm { conjuncts })));
        }
        // Each arm decided Sat without the solver is one validity check.
        self.stats.smt_checks += independent + accepted;
        self.stats.arms_independent += independent;
        self.stats.arms_pinned += accepted;
        crate::session::record_batch(
            self.stats,
            pending.len() + (independent + accepted) as usize,
        );
        let engine_calls = solver.stats.sat_engine_calls;
        let verdicts = solver.check_under(pool, &terms);
        self.engine_calls += solver.stats.sat_engine_calls - engine_calls;
        let mut skip = vec![false; arms.len()];
        for (&i, verdict) in pending.iter().zip(verdicts) {
            match verdict {
                CheckResult::Unsat => {
                    skip[i] = true;
                    self.stats.pruned += 1;
                }
                CheckResult::Sat => self.sat_known = true,
            }
        }
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
        if !sh.hungry(self.engine_calls) {
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
                    for c in arm.conjuncts {
                        self.assert_constraint(pool, solver, c);
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
                let is_marker = b == &BExp::True;
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
                        self.assert_constraint(pool, solver, t);
                        pushed = true;
                    }
                    None => {
                        // Record individual conjuncts: Algorithm 2's public
                        // pre-condition intersects *constraint sets*, which
                        // only works at conjunct granularity.
                        solver.push();
                        pushed = true;
                        let mut conjuncts = Vec::new();
                        flatten_conjuncts(pool, t, &mut conjuncts);
                        // `BoolAnd` canonicalizes its operands by pool-local
                        // TermId, so the flatten order above depends on term
                        // interning history — fine sequentially, but a parallel
                        // worker's pool interns in a schedule-dependent order.
                        // Re-sort the statement's conjuncts by their
                        // pool-independent structural hash so every pool
                        // records the same constraint sequence.
                        conjuncts.sort_by_key(|&c| pool.term_hash(c));
                        for c in conjuncts {
                            self.assert_constraint(pool, solver, c);
                        }
                        if self.config.early_termination
                            && self.check(pool, solver) == CheckResult::Unsat
                        {
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
            if self.targets.contains(&node) || self.cfg.succ(node).is_empty() {
                self.leaf(pool, solver, v);
            } else {
                // Batched branch expansion: decide every sibling arm in one
                // pass before descending.
                let arms = self.decide_arms(pool, ctx, solver, v, node);
                self.expand(pool, ctx, solver, v, arms);
            }
        }

        if pushed {
            solver.pop();
            self.all_constraints.truncate(constraints_mark);
            self.path_vars.truncate(constraints_mark);
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
    use meissa_ir::{CfgBuilder, CmpOp, FieldId};
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
    fn baseline_modes_never_batch_probes() {
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
            let out = generate_templates(&cfg, &mut session, &config);
            assert_eq!(out.stats.arm_batches, 0, "baselines probe node by node");
            assert_eq!(out.stats.batched_probes, 0);
            assert_eq!(out.templates.len(), 3);
        }
        let mut session = SolveSession::new();
        let full = generate_templates(&cfg, &mut session, &ExecConfig::default());
        assert!(full.stats.arm_batches > 0, "the full config batches sibling arms");
        assert!(full.stats.batched_probes >= 2 * full.stats.arm_batches);
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
        let arm_index = ArmIndex::new(&cfg);

        // Unconstrained: all 4 diagonal paths.
        let mut n_free = 0;
        explore_in_session(
            &cfg,
            &arm_index,
            &mut session,
            &mut ctx,
            cfg.entry(),
            &targets,
            &[],
            false,
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
            &arm_index,
            &mut session,
            &mut ctx,
            cfg.entry(),
            &targets,
            &[pin],
            false,
            &[],
            &config,
            &mut |_| n_pinned += 1,
        );
        assert_eq!(n_pinned, 1);

        // And the constraint did not leak into a third run.
        let mut n_again = 0;
        explore_in_session(
            &cfg,
            &arm_index,
            &mut session,
            &mut ctx,
            cfg.entry(),
            &targets,
            &[],
            false,
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

    /// A two-way branch on field `y`: `y == 3` or `y == 4`.
    fn y_branch_cfg() -> Cfg {
        let mut b = CfgBuilder::new();
        let y = field(&mut b, "y", 8);
        b.nop();
        let base = b.frontier();
        let mut arms = Vec::new();
        for k in [3, 4] {
            b.set_frontier(base.clone());
            b.stmt(Stmt::Assume(BExp::Cmp(
                CmpOp::Eq,
                AExp::Field(y),
                AExp::Const(Bv::new(8, k)),
            )));
            arms.push(b.frontier());
        }
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.nop();
        b.finish()
    }

    #[test]
    fn independent_arms_skip_the_solver_only_under_a_satisfiable_path() {
        let cfg = y_branch_cfg();
        let arm_index = ArmIndex::new(&cfg);
        let targets = std::collections::HashSet::new();
        let config = ExecConfig::default();
        let run = |session: &mut SolveSession, base: &[TermId]| {
            let mut n = 0;
            let stats = explore_in_session(
                &cfg,
                &arm_index,
                session,
                &mut SymCtx::new(None),
                cfg.entry(),
                &targets,
                base,
                false,
                &[],
                &config,
                &mut |_| n += 1,
            );
            (n, stats)
        };

        // Empty base: both arms are `y == c` with `y` free, decided Sat
        // without a solver call, one check each.
        let mut session = SolveSession::new();
        let (n, stats) = run(&mut session, &[]);
        assert_eq!(n, 2);
        assert_eq!(stats.arms_independent, 2);
        assert_eq!(stats.smt_checks, 2);
        assert_eq!(session.solver_stats().sat_engine_calls, 0);

        // An unsat base that never mentions `y`: the independent arms must
        // still go to the solver, which refutes them.
        let mut session = SolveSession::new();
        let x = session.pool.var("x", 8);
        let base: Vec<TermId> = [1, 2]
            .map(|k| {
                let c = session.pool.bv_const(Bv::new(8, k));
                session.pool.eq(x, c)
            })
            .to_vec();
        let (n, stats) = run(&mut session, &base);
        assert_eq!(n, 0, "an unsat base yields no path");
        assert_eq!(stats.arms_independent, 0);
        assert_eq!(stats.pruned, 2);
        assert_eq!(stats.smt_checks, 2);
    }

    #[test]
    fn path_vars_follow_push_and_truncate() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let one = pool.bv_const(Bv::new(8, 1));
        let wide = pool.bv_const(Bv::new(16, 1));
        let x_eq = pool.eq(x, one);
        let y_eq = pool.eq(y, one);
        let sum = pool.add(x, y);
        let sum_eq = pool.eq(sum, one);
        let z = pool.var("z", 16);
        let z_eq = pool.eq(z, wide);
        let mut pv = PathVars::new();
        assert!(pv.is_free_eq(&pool, x_eq) && pv.is_free_eq(&pool, y_eq));
        assert!(
            !pv.is_free_eq(&pool, sum_eq),
            "not a variable-constant equality"
        );
        pv.push(&pool, x_eq);
        assert!(!pv.is_free_eq(&pool, x_eq));
        assert!(pv.is_free_eq(&pool, y_eq));
        pv.push(&pool, sum_eq);
        assert!(!pv.is_free_eq(&pool, y_eq));
        assert!(pv.is_free_eq(&pool, z_eq));
        pv.truncate(1);
        assert!(pv.is_free_eq(&pool, y_eq), "truncation drops y");
        assert!(!pv.is_free_eq(&pool, x_eq));
        pv.truncate(0);
        assert!(pv.is_free_eq(&pool, x_eq));
    }

    #[test]
    fn pins_follow_push_and_truncate() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let [one, two, three] = [1, 2, 3].map(|k| pool.bv_const(Bv::new(8, k)));
        let x_is_1 = pool.eq(x, one);
        let two_is_x = pool.eq(two, x);
        let x_lt_3 = pool.ult(x, three);
        let sum = pool.add(x, y);
        let sum_is_3 = pool.eq(sum, three);
        let (xv, yv) = match (pool.node(x), pool.node(y)) {
            (&TermNode::BvVar(xv), &TermNode::BvVar(yv)) => (xv, yv),
            _ => unreachable!("variables"),
        };
        let mut pv = PathVars::new();
        assert_eq!(pv.pin(xv), None);
        pv.push(&pool, x_is_1);
        assert_eq!(pv.pin(xv), Some(Bv::new(8, 1)));
        pv.push(&pool, x_lt_3);
        pv.push(&pool, sum_is_3);
        assert_eq!(pv.pin(xv), Some(Bv::new(8, 1)), "only x == c pins");
        assert_eq!(pv.pin(yv), None, "x + y == 3 pins nothing");
        // A constant on the left pins too; the latest pin wins.
        pv.push(&pool, two_is_x);
        assert_eq!(pv.pin(xv), Some(Bv::new(8, 2)));
        pv.truncate(3);
        assert_eq!(pv.pin(xv), Some(Bv::new(8, 1)), "the earlier pin is back");
        pv.truncate(1);
        assert_eq!(pv.pin(xv), Some(Bv::new(8, 1)));
        pv.truncate(0);
        assert_eq!(pv.pin(xv), None);
        // Under the pins, a conjunct is decided only when every variable it
        // reads is pinned.
        pv.push(&pool, x_is_1);
        assert_eq!(pv.decide(&pool, &[x_lt_3]), Some(true));
        assert_eq!(pv.decide(&pool, &[two_is_x]), Some(false));
        assert_eq!(pv.decide(&pool, &[sum_is_3]), None);
        assert_eq!(pv.decide(&pool, &[sum_is_3, two_is_x]), Some(false));
        assert_eq!(pv.decide(&pool, &[sum_is_3, x_lt_3]), None);
    }

    /// A three-way branch on fields `y` and `z`: `y == 3`, `y == 4`, or
    /// `z == 1 && y == 5`.
    fn pinned_branch_cfg() -> Cfg {
        let mut b = CfgBuilder::new();
        let y = field(&mut b, "y", 8);
        let z = field(&mut b, "z", 8);
        let eq = |f, k| BExp::Cmp(CmpOp::Eq, AExp::Field(f), AExp::Const(Bv::new(8, k)));
        b.nop();
        let base = b.frontier();
        let mut arms = Vec::new();
        for guard in [eq(y, 3), eq(y, 4), BExp::and(eq(z, 1), eq(y, 5))] {
            b.set_frontier(base.clone());
            b.stmt(Stmt::Assume(guard));
            arms.push(b.frontier());
        }
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.nop();
        b.finish()
    }

    /// Explores [`pinned_branch_cfg`] under `base` (constraints `name ==
    /// k`), returning the paths found, the run's counters and its
    /// SAT-engine calls.
    fn run_pinned(base: &[(&str, u128)], base_sat: bool) -> (usize, ExecStats, u64) {
        let cfg = pinned_branch_cfg();
        let mut session = SolveSession::new();
        let base: Vec<TermId> = base
            .iter()
            .map(|&(name, k)| {
                let x = session.pool.var(name, 8);
                let c = session.pool.bv_const(Bv::new(8, k));
                session.pool.eq(x, c)
            })
            .collect();
        let mut n = 0;
        let stats = explore_in_session(
            &cfg,
            &ArmIndex::new(&cfg),
            &mut session,
            &mut SymCtx::new(None),
            cfg.entry(),
            &std::collections::HashSet::new(),
            &base,
            base_sat,
            &[],
            &ExecConfig::default(),
            &mut |_| n += 1,
        );
        (n, stats, session.solver_stats().sat_engine_calls)
    }

    #[test]
    fn pins_refute_arms_under_an_unchecked_base() {
        // `y == 4` is refuted before translation and `z == 1 && y == 5` by
        // its `y` conjunct; neither needs the base to be satisfiable. Each
        // counts one folded check and one prune.
        let (n, stats, _) = run_pinned(&[("y", 3)], false);
        assert_eq!(n, 1);
        assert_eq!(stats.arms_pinned, 2);
        assert_eq!(stats.pruned, 2);
        assert_eq!(stats.smt_checks, 3);
        // The same under an unsat base: the pins refute the same two arms,
        // and the solver refutes `y == 3`.
        let (n, stats, _) = run_pinned(&[("y", 3), ("x", 1), ("x", 2)], false);
        assert_eq!(n, 0, "an unsat base yields no path");
        assert_eq!(stats.arms_pinned, 2);
        assert_eq!(stats.pruned, 3);
        assert_eq!(stats.smt_checks, 3);
    }

    #[test]
    fn pins_accept_arms_only_under_a_satisfiable_path() {
        // A known-satisfiable base: `y == 3` holds under the pin and is
        // Sat without the SAT engine.
        let (n, stats, engine_calls) = run_pinned(&[("y", 3)], true);
        assert_eq!(n, 1);
        assert_eq!(stats.arms_pinned, 3);
        assert_eq!(stats.smt_checks, 3);
        assert_eq!(engine_calls, 0);
        // Unchecked, the same base sends `y == 3` to the solver.
        let (n, stats, _) = run_pinned(&[("y", 3)], false);
        assert_eq!(n, 1);
        assert_eq!(stats.arms_pinned, 2);
        // An unsat base that pins `y` to 3 must not take `y == 3`.
        let (n, stats, _) = run_pinned(&[("x", 1), ("y", 3), ("x", 2)], false);
        assert_eq!(n, 0);
        assert_eq!(stats.arms_pinned, 2);
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
