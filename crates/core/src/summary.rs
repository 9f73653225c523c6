//! Algorithm 2: code summary.
//!
//! Pipelines are processed in topological order (line 2); for each:
//!
//! 1. **Public pre-condition** (lines 4–7): every valid path from the CFG
//!    entry to the pipeline's entry marker is enumerated over the
//!    *already-summarized* prefix graph. `C_pub` is the set-intersection of
//!    the paths' constraint sets; `V_pub` keeps a field's symbolic value
//!    only when *all* paths agree on it (the `★` of Lemma 1 is "absent").
//! 2. **Pipeline search** (lines 8–9): symbolic execution *within* the
//!    pipeline, in a fresh variable scope where every field reads as its
//!    value at pipeline entry (`f@ppl`). The pre-condition is installed as
//!    base assertions — `C_pub` plus binding equations `f@ppl == V_pub(f)`
//!    — so both intra-pipeline redundancy elimination (Fig. 7) and
//!    inter-pipeline pre-condition filtering (Fig. 8) prune the search.
//! 3. **Re-encoding** (lines 10–25): each valid path becomes one predicate
//!    node (the AND of its local constraints, rewritten over plain field
//!    reads) followed by `@var ← var` snapshots for every changed field and
//!    then `var ← value[@…]` assignments — the auxiliary-variable encoding
//!    that preserves the atomicity of simultaneous updates (the
//!    `srcPort`/`dstPort` example of §3.3).
//!
//! The summarized pipeline body replaces the original region; markers and
//! inter-pipeline wiring stay, so Definition 4's invariant — every valid
//! path of the original graph has exactly one counterpart with the same
//! path condition and effect — holds by construction (§3.4).

use crate::exec::{ExecConfig, ExecStats, RawPath};
use crate::session::SolveSession;
use crate::symstate::SymCtx;
use meissa_ir::{AExp, AOp, BExp, Cfg, CmpOp, FieldId, PipelineId, Stmt};
use meissa_smt::{TermId, TermNode, TermPool};
use meissa_testkit::obs;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Statistics for one code-summary pass.
#[derive(Clone, Debug, Default)]
pub struct SummaryStats {
    /// Per-pipeline (name, entry paths, valid paths kept).
    pub pipelines: Vec<(String, u64, u64)>,
    /// SMT checks spent inside the summary pass.
    pub smt_checks: u64,
    /// Pre-condition probes the pass routed through the batched assumption
    /// API ([`meissa_smt::Solver::check_under`]); each still counts as one
    /// of `smt_checks`.
    pub batched_probes: u64,
    /// Batched sibling probes issued by the pass (≥ 2 arms each).
    pub arm_batches: u64,
    /// Wall time of the pass.
    pub elapsed: Duration,
    /// True when a time budget expired mid-pass.
    pub timed_out: bool,
}

impl SummaryStats {
    /// Folds one exploration's per-call counters into the pass totals.
    fn absorb(&mut self, st: &ExecStats) {
        self.smt_checks += st.smt_checks;
        self.batched_probes += st.batched_probes;
        self.arm_batches += st.arm_batches;
        self.timed_out |= st.timed_out;
    }
}

/// The result of a code-summary pass.
pub struct SummaryOutcome {
    /// Statistics.
    pub stats: SummaryStats,
    /// Every valid end-to-end path, accumulated by the incremental
    /// extension — identical to what Algorithm 2's final DFS (line 27)
    /// would discover on the summarized graph, available without re-walking
    /// it. `None` when a time budget interrupted the pass.
    pub completed: Option<Vec<RawPath>>,
    /// The program-scope context (hash definitions for template
    /// obligations).
    pub ctx: SymCtx,
}

/// Summarizes every pipeline of `cfg` in place (Algorithm 2 lines 1–25).
/// Test generation on the summarized graph is the caller's job (line 27) —
/// or, equivalently, the returned [`SummaryOutcome::completed`] path set.
///
/// Line 5's "get paths from CFG.entry to pipeline.entry" is computed
/// *incrementally*: valid paths to each pipeline's entry are cached and
/// extended through each pipeline as soon as it is summarized, instead of
/// re-exploring the whole prefix graph per pipeline. This is a sound
/// refinement — summarizing a pipeline never changes the regions before it
/// — that removes a quadratic-in-pipeline-count re-enumeration.
pub fn summarize(cfg: &mut Cfg, session: &mut SolveSession, config: &ExecConfig) -> SummaryOutcome {
    let mut stats = SummaryStats::default();
    let mut completed: Vec<RawPath> = Vec::new();
    let t0 = std::time::Instant::now();
    let order = cfg.pipeline_topo_order();
    let entry_of: Vec<meissa_ir::NodeId> = order.iter().map(|&p| cfg.pipeline(p).entry).collect();

    // One program-scope context across the whole pass so cached paths'
    // terms stay consistent. Explorations run on warm solvers: each batch
    // worker keeps one across its jobs, because re-blasting every seed's
    // prefix and arms into a fresh solver was most of gw-4's generation
    // time, and the SAT engine's reuse of the shared assumption prefix
    // keeps a growing solver's checks cheap.
    let mut prog_ctx = SymCtx::new(None);
    // Valid paths from the program entry to each pipeline's entry marker.
    let mut cache: HashMap<meissa_ir::NodeId, Vec<RawPath>> = HashMap::new();

    // Seed: paths from the program entry to the first pipeline entries.
    // (`explore_parallel` runs the unchanged sequential engine at one
    // thread, so this is one code path for every thread count.)
    {
        let targets: HashSet<meissa_ir::NodeId> = entry_of.iter().copied().collect();
        let (sink_paths, st) = crate::parallel::explore_parallel(
            cfg,
            session,
            &mut prog_ctx,
            cfg.entry(),
            &targets,
            config,
        );
        stats.absorb(&st);
        let entry_set: HashSet<meissa_ir::NodeId> = entry_of.iter().copied().collect();
        for p in sink_paths {
            let end = *p.path.last().expect("non-empty path");
            if entry_set.contains(&end) {
                cache.entry(end).or_default().push(p);
            } else {
                completed.push(p); // terminated before any pipeline
            }
        }
    }

    // One pipeline engine for every thread count. The batched loop runs
    // each group search and seed extension as an `explore_batch` job, and
    // jobs share no verdicts, so per-job probe counters are a function of
    // the job alone, whichever worker runs it.
    summarize_pipelines_batched(
        cfg,
        session,
        config,
        &order,
        &entry_of,
        &mut prog_ctx,
        &mut cache,
        &mut completed,
        &mut stats,
    );
    stats.elapsed = t0.elapsed();
    let interrupted = stats.timed_out;
    let completed = dedup_subsumed(&session.pool, completed);
    SummaryOutcome {
        stats,
        completed: if interrupted { None } else { Some(completed) },
        ctx: prog_ctx,
    }
}

/// Drops completed paths whose constraint set strictly contains another
/// path's (their input region is a subset; the program is deterministic, so
/// the covered behaviour is identical). Such overlaps arise when one §7
/// group's pre-condition pins a field that another group leaves open —
/// both groups then re-discover the open-field variant of the same path.
fn dedup_subsumed(pool: &TermPool, completed: Vec<RawPath>) -> Vec<RawPath> {
    use std::collections::BTreeSet;
    // Bucket by the set of positive (non-negated) conjuncts: a subsuming
    // pair differs only in extra negations.
    let mut buckets: HashMap<Vec<TermId>, Vec<(BTreeSet<TermId>, usize)>> = HashMap::new();
    for (i, p) in completed.iter().enumerate() {
        let mut pos: Vec<TermId> = p
            .constraints
            .iter()
            .copied()
            .filter(|&c| !matches!(pool.node(c), TermNode::BoolNot(_)))
            .collect();
        pos.sort();
        pos.dedup();
        let full: BTreeSet<TermId> = p.constraints.iter().copied().collect();
        buckets.entry(pos).or_default().push((full, i));
    }
    let mut drop: HashSet<usize> = HashSet::new();
    for entries in buckets.values() {
        for (a_set, a_idx) in entries {
            for (b_set, b_idx) in entries {
                if a_idx != b_idx
                    && !drop.contains(a_idx)
                    && (a_set.is_subset(b_set) && (a_set.len() < b_set.len() || a_idx < b_idx))
                {
                    drop.insert(*b_idx);
                }
            }
        }
    }
    completed
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !drop.contains(i))
        .map(|(_, p)| p)
        .collect()
}

/// A constant projection of a path onto a pipeline's read-set (§7 grouping
/// key).
type Projection = Vec<(FieldId, meissa_num::Bv)>;

/// A read field is constant at entry when its symbolic value folded to a
/// constant (assigned upstream), or when the path *constrains* it to one
/// (`dst == 10.0.0.7` from an upstream exact match): both pin the field
/// for every packet following the path.
fn const_value_on(
    prog_ctx: &SymCtx,
    pool: &TermPool,
    p: &RawPath,
    f: FieldId,
) -> Option<meissa_num::Bv> {
    if let Some(&(_, t)) = p.final_values.iter().find(|&&(pf, _)| pf == f) {
        return pool.as_const(t);
    }
    for &c in &p.constraints {
        if let TermNode::Cmp(meissa_smt::term::CmpOp::Eq, a, b) = *pool.node(c) {
            let (var_side, const_side) = match (pool.node(a), pool.node(b)) {
                (TermNode::BvVar(v), TermNode::BvConst(k)) => (*v, *k),
                (TermNode::BvConst(k), TermNode::BvVar(v)) => (*v, *k),
                _ => continue,
            };
            if prog_ctx.field_of_var(var_side) == Some(f) {
                return Some(const_side);
            }
        }
    }
    None
}

/// §7 grouping ("we group pre-conditions according to packet type, conduct
/// summary separately and merge them into a full summary"): entry paths are
/// grouped by the *constant-valued* projection onto the pipeline's read-set
/// — the fields this region consumes whose symbolic value at entry is a
/// known constant (packet type flags, assigned VNIs, drop bits…). Within a
/// group those constants are installed as value-stack seeds, so the
/// per-group search folds its way through the pipeline exactly like a
/// concrete prefix would, and each group's paths are re-encoded behind a
/// shared group-guard prefix that restores the discrimination in the merged
/// summary. Also computes the discriminating-field set: fields whose
/// projected constant is identical across every group (or absent
/// everywhere) discriminate nothing; dropping them keeps group guards short
/// while preserving pairwise exclusivity of groups.
#[allow(clippy::type_complexity)]
fn group_entry_paths<'a>(
    cfg: &Cfg,
    pool: &TermPool,
    prog_ctx: &SymCtx,
    entry: meissa_ir::NodeId,
    exit: meissa_ir::NodeId,
    entry_paths: &'a [RawPath],
    config: &ExecConfig,
) -> (
    Vec<FieldId>,
    Vec<(Projection, Vec<&'a RawPath>)>,
    HashSet<FieldId>,
) {
    let read_set = {
        let mut rs: Vec<FieldId> = region_read_set(cfg, entry, exit).into_iter().collect();
        rs.sort();
        rs
    };
    let mut groups: HashMap<Projection, Vec<&RawPath>> = HashMap::new();
    for p in entry_paths {
        let key: Projection = if config.grouped_summary {
            read_set
                .iter()
                .filter_map(|&f| const_value_on(prog_ctx, pool, p, f).map(|c| (f, c)))
                .collect()
        } else {
            // Ablation: one global group — Algorithm 2's ungrouped public
            // pre-condition (lines 4–7 verbatim).
            Vec::new()
        };
        groups.entry(key).or_default().push(p);
    }
    let mut group_list: Vec<(Projection, Vec<&RawPath>)> = groups.into_iter().collect();
    group_list.sort_by(|a, b| a.0.cmp(&b.0)); // determinism
    let discriminating: HashSet<FieldId> = {
        let mut values: HashMap<FieldId, HashSet<meissa_num::Bv>> = HashMap::new();
        let mut presence: HashMap<FieldId, usize> = HashMap::new();
        for (proj, _) in &group_list {
            for &(f, c) in proj {
                values.entry(f).or_default().insert(c);
                *presence.entry(f).or_insert(0) += 1;
            }
        }
        values
            .into_iter()
            .filter(|(f, vs)| vs.len() > 1 || presence[f] < group_list.len())
            .map(|(f, _)| f)
            .collect()
    };
    (read_set, group_list, discriminating)
}

/// Everything Algorithm 2 needs to *search* one §7 group, computed without
/// running the search: the group pre-condition `C_pub^g` plus binding
/// equations (`base`), the constant value seeds, the group guard, and a
/// fresh pipeline-scope context. Building a plan mutates the main pool
/// (constants, entry variables, binding equations) but issues no solver
/// query — so plans for many groups, or for every pipeline at one topo
/// depth, can be built up front and their searches run as one parallel
/// batch.
struct GroupPlan {
    /// Group guard: one predicate per discriminating projected constant,
    /// shared by all of the group's paths (the trie merges them into one
    /// node chain).
    guard: Vec<Stmt>,
    ppl_ctx: SymCtx,
    base: Vec<TermId>,
    seeds: Vec<(FieldId, TermId)>,
    seed_map: HashMap<FieldId, TermId>,
}

#[allow(clippy::too_many_arguments)]
fn build_group_plan(
    fields: &meissa_ir::FieldTable,
    pool: &mut TermPool,
    prog_ctx: &mut SymCtx,
    name: &str,
    read_set: &[FieldId],
    discriminating: &HashSet<FieldId>,
    projection: &Projection,
    members: &[&RawPath],
) -> GroupPlan {
    // Group pre-condition: C_pub^g (constraint intersection within the
    // group); the constant projection is installed as value seeds so
    // interior predicates fold the way they would under any member
    // prefix (Lemma 1 holds per group: every member's concrete state
    // agrees with the seeds on the seeded fields).
    let mut c_pub: HashSet<TermId> = members[0].constraints.iter().copied().collect();
    for p in &members[1..] {
        let set: HashSet<TermId> = p.constraints.iter().copied().collect();
        c_pub.retain(|t| set.contains(t));
    }
    let mut ppl_ctx = SymCtx::new(Some(name));
    let mut base: Vec<TermId> = c_pub.into_iter().collect();
    base.sort(); // deterministic assertion order
    let seeds: Vec<(FieldId, TermId)> = projection
        .iter()
        .map(|&(f, c)| (f, pool.bv_const(c)))
        .collect();
    let seed_map: HashMap<FieldId, TermId> = seeds.iter().copied().collect();
    // Non-constant reads on which every member still agrees get binding
    // equations instead of value seeds: they connect the pipeline-entry
    // variable to the program-level term so that C_pub^g constraints
    // (e.g. Fig. 8's `proto == TCP`) keep filtering inside the pipe.
    {
        let value_on =
            |prog_ctx: &mut SymCtx, pool: &mut TermPool, p: &RawPath, f: FieldId| -> TermId {
                p.final_values
                    .iter()
                    .find(|&&(pf, _)| pf == f)
                    .map(|&(_, t)| t)
                    .unwrap_or_else(|| prog_ctx.input_var(pool, fields, f))
            };
        let v0 = crate::symstate::ValueStack::new();
        'bind: for &f in read_set {
            if seed_map.contains_key(&f) {
                continue;
            }
            let first = value_on(prog_ctx, pool, members[0], f);
            for p in &members[1..] {
                if value_on(prog_ctx, pool, p, f) != first {
                    continue 'bind; // ★: members disagree
                }
            }
            let entry_var = ppl_ctx.read(pool, fields, &v0, f);
            let bind = pool.eq(entry_var, first);
            base.push(bind);
        }
    }
    let guard: Vec<Stmt> = projection
        .iter()
        .filter(|(f, _)| discriminating.contains(f))
        .map(|&(f, c)| Stmt::Assume(BExp::eq(AExp::Field(f), AExp::Const(c))))
        .collect();
    GroupPlan {
        guard,
        ppl_ctx,
        base,
        seeds,
        seed_map,
    }
}

/// A pipeline's search plan: one [`GroupPlan`] per §7 group, ready to run
/// as batch jobs. Empty `groups` means the pipeline is unreachable.
struct PipelinePlan {
    name: String,
    entry: meissa_ir::NodeId,
    exit: meissa_ir::NodeId,
    num_entry_paths: u64,
    groups: Vec<GroupPlan>,
}

/// The read-only half of pipeline planning: region read-set, §7 grouping,
/// and the discriminating-field set. Touches the pool, program context, and
/// CFG only through shared references and issues no solver query — which is
/// what lets one topo level's analyses run on scoped threads while the pool
/// materialization ([`build_group_plan`]) stays sequential and
/// deterministic.
struct PipelineAnalysis<'a> {
    name: String,
    entry: meissa_ir::NodeId,
    exit: meissa_ir::NodeId,
    num_entry_paths: u64,
    read_set: Vec<FieldId>,
    group_list: Vec<(Projection, Vec<&'a RawPath>)>,
    discriminating: HashSet<FieldId>,
}

fn analyze_pipeline<'a>(
    cfg: &Cfg,
    pool: &TermPool,
    prog_ctx: &SymCtx,
    pid: PipelineId,
    entry_paths: &'a [RawPath],
    config: &ExecConfig,
) -> PipelineAnalysis<'a> {
    let (name, entry, exit) = {
        let p = cfg.pipeline(pid);
        (p.name.clone(), p.entry, p.exit)
    };
    let num_entry_paths = entry_paths.len() as u64;
    if entry_paths.is_empty() {
        return PipelineAnalysis {
            name,
            entry,
            exit,
            num_entry_paths,
            read_set: Vec::new(),
            group_list: Vec::new(),
            discriminating: HashSet::new(),
        };
    }
    let (read_set, group_list, discriminating) =
        group_entry_paths(cfg, pool, prog_ctx, entry, exit, entry_paths, config);
    PipelineAnalysis {
        name,
        entry,
        exit,
        num_entry_paths,
        read_set,
        group_list,
        discriminating,
    }
}

/// The mutating half: materializes each group's plan into the main pool
/// (constants, entry variables, binding equations). Must run in topo order
/// on one thread — pool interning order decides `TermId` assignment, which
/// downstream sorts and renderings depend on.
fn plan_from_analysis(
    cfg: &Cfg,
    session: &mut SolveSession,
    prog_ctx: &mut SymCtx,
    analysis: &PipelineAnalysis<'_>,
) -> PipelinePlan {
    let fields = cfg.fields.clone();
    let groups = analysis
        .group_list
        .iter()
        .map(|(projection, members)| {
            build_group_plan(
                &fields,
                &mut session.pool,
                prog_ctx,
                &analysis.name,
                &analysis.read_set,
                &analysis.discriminating,
                projection,
                members,
            )
        })
        .collect();
    PipelinePlan {
        name: analysis.name.clone(),
        entry: analysis.entry,
        exit: analysis.exit,
        num_entry_paths: analysis.num_entry_paths,
        groups,
    }
}

/// Re-encodes one pipeline's batched group-search results and replaces the
/// pipeline body (lines 10–25), exactly as the sequential group loop does.
fn encode_pipeline(
    cfg: &mut Cfg,
    session: &mut SolveSession,
    stats: &mut SummaryStats,
    pid: PipelineId,
    plan: PipelinePlan,
    group_results: Vec<crate::parallel::JobResult>,
) {
    let PipelinePlan {
        name,
        entry,
        exit,
        num_entry_paths,
        groups,
        ..
    } = plan;
    if groups.is_empty() {
        // Unreachable pipeline: make the region impassable (an empty body
        // would read as a terminal leaf and fabricate truncated paths).
        cfg.replace_pipeline_body(pid, vec![vec![Stmt::Assume(BExp::False)]]);
        stats.pipelines.push((name, 0, 0));
        return;
    }
    // Nodes of *this* pipeline's (still original) body: a raw path may be
    // seeded with a prefix through earlier pipelines, whose rule sites must
    // not be re-attributed here.
    let region = pipeline_region_nodes(cfg, entry, exit);
    let mut encoded: Vec<(Vec<Stmt>, Vec<meissa_ir::RuleSite>)> = Vec::new();
    let mut seen_paths: HashMap<Vec<Stmt>, usize> = HashMap::new();
    for (mut g, r) in groups.into_iter().zip(group_results) {
        stats.absorb(&r.stats);
        // The worker explored in its own pool and scope; adopt its hash
        // obligations and entry variables so re-encoding sees the same
        // context a sequential search would have built.
        for d in r.hash_defs {
            g.ppl_ctx.add_hash_def(d);
        }
        g.ppl_ctx.register_pool_vars(&mut session.pool, &cfg.fields);
        for p in &r.paths {
            let mut enc = g.guard.clone();
            enc.extend(encode_path(
                cfg,
                &session.pool,
                &g.ppl_ctx,
                &name,
                p,
                g.base.len(),
                &g.seed_map,
            ));
            // The rule sites this original path traversed, to be carried
            // onto the encoded path's final trie node.
            let sites: Vec<meissa_ir::RuleSite> = p
                .path
                .iter()
                .filter(|n| region.contains(n))
                .flat_map(|&n| cfg.rule_sites(n).iter().cloned())
                .collect();
            match seen_paths.get(&enc) {
                Some(&i) => {
                    // Distinct originals collapsing to one encoding: the
                    // encoded path stands for all of them.
                    let merged = &mut encoded[i].1;
                    for s in sites {
                        if !merged.contains(&s) {
                            merged.push(s);
                        }
                    }
                }
                None => {
                    seen_paths.insert(enc.clone(), encoded.len());
                    encoded.push((enc, sites));
                }
            }
        }
    }
    if encoded.is_empty() {
        cfg.replace_pipeline_body(pid, vec![vec![Stmt::Assume(BExp::False)]]);
        stats.pipelines.push((name, num_entry_paths, 0));
        return;
    }
    let kept = encoded.len() as u64;
    cfg.replace_pipeline_body_with_sites(pid, encoded);
    stats.pipelines.push((name, num_entry_paths, kept));
}

/// The nodes strictly inside a pipeline region plus its markers: everything
/// reachable from `entry` without passing `exit`.
fn pipeline_region_nodes(
    cfg: &Cfg,
    entry: meissa_ir::NodeId,
    exit: meissa_ir::NodeId,
) -> HashSet<meissa_ir::NodeId> {
    let mut seen: HashSet<meissa_ir::NodeId> = HashSet::new();
    let mut stack = vec![entry];
    while let Some(n) = stack.pop() {
        if !seen.insert(n) || n == exit {
            continue;
        }
        stack.extend(cfg.succ(n).iter().copied());
    }
    seen
}

/// Partitions pipelines into topo-depth levels: depth(B) = 1 + max depth(A)
/// over every pipeline A from whose exit B's entry is reachable. Same-depth
/// pipelines are mutually unreachable (any path between two pipelines
/// passes the upstream one's exit, which would increment the depth), so
/// their pre-conditions don't depend on each other and their searches can
/// run concurrently. `order` is a topo linearization, which makes the
/// single forward pass below sufficient.
fn pipeline_levels(cfg: &Cfg, order: &[PipelineId]) -> Vec<Vec<usize>> {
    let n = order.len();
    let entry_index: HashMap<meissa_ir::NodeId, usize> = order
        .iter()
        .enumerate()
        .map(|(i, &p)| (cfg.pipeline(p).entry, i))
        .collect();
    let mut depth = vec![0usize; n];
    for i in 0..n {
        let exit = cfg.pipeline(order[i]).exit;
        let mut stack = vec![exit];
        let mut seen = HashSet::new();
        while let Some(v) = stack.pop() {
            if !seen.insert(v) {
                continue;
            }
            if let Some(&j) = entry_index.get(&v) {
                if j != i && depth[j] < depth[i] + 1 {
                    depth[j] = depth[i] + 1;
                }
            }
            stack.extend(cfg.succ(v).iter().copied());
        }
    }
    let max_depth = depth.iter().copied().max().unwrap_or(0);
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); n.min(max_depth + 1)];
    for (i, &d) in depth.iter().enumerate() {
        levels[d].push(i);
    }
    levels.retain(|l| !l.is_empty());
    levels
}

/// The `config.threads > 1` pipeline loop: per topo-depth level, plan every
/// pipeline sequentially (cheap; pool mutations stay deterministic), run
/// all group searches of the level as one parallel batch, re-encode in topo
/// order, then run every seed extension of the level as a second batch.
/// Batch results merge in job order, so cache routing, completed-path
/// order, and main-pool term interning are identical to the sequential
/// loop's.
///
/// Each level emits two child spans of `engine.summary`, so a trace shows
/// where the summary's time goes: `engine.summary.group` covers Algorithm
/// 2 proper (analysis, group searches, re-encoding) and
/// `engine.summary.extend` the seed extensions. Both carry the level, the
/// batch's job count, and its `smt_checks` and valid paths.
#[allow(clippy::too_many_arguments)]
fn summarize_pipelines_batched(
    cfg: &mut Cfg,
    session: &mut SolveSession,
    config: &ExecConfig,
    order: &[PipelineId],
    entry_of: &[meissa_ir::NodeId],
    prog_ctx: &mut SymCtx,
    cache: &mut HashMap<meissa_ir::NodeId, Vec<RawPath>>,
    completed: &mut Vec<RawPath>,
    stats: &mut SummaryStats,
) {
    use crate::parallel::{explore_batch, ExploreJob};
    for (depth, level) in pipeline_levels(cfg, order).into_iter().enumerate() {
        let mut group_span = obs::span("engine.summary.group");
        // ---- analyze (read-only, parallel across the level) ---------------
        let seeds_by: Vec<(usize, Vec<RawPath>)> = level
            .iter()
            .map(|&idx| (idx, cache.remove(&entry_of[idx]).unwrap_or_default()))
            .collect();
        let analyses: Vec<PipelineAnalysis<'_>> = {
            let cfg_r: &Cfg = cfg;
            let pool: &TermPool = &session.pool;
            let ctx_r: &SymCtx = prog_ctx;
            if config.threads > 1 && seeds_by.len() > 1 {
                // §7 grouping scans every entry path's constraint list per
                // read field — the serial fraction Amdahl charges the whole
                // parallel region for. Same-level pipelines are independent,
                // so their analyses fan out on scoped threads.
                std::thread::scope(|s| {
                    let handles: Vec<_> = seeds_by
                        .iter()
                        .map(|(idx, seeds)| {
                            let idx = *idx;
                            s.spawn(move || {
                                analyze_pipeline(cfg_r, pool, ctx_r, order[idx], seeds, config)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("summary analysis thread panicked"))
                        .collect()
                })
            } else {
                seeds_by
                    .iter()
                    .map(|(idx, seeds)| analyze_pipeline(cfg_r, pool, ctx_r, order[*idx], seeds, config))
                    .collect()
            }
        };
        // ---- materialize plans (sequential, topo order) -------------------
        let plans: Vec<PipelinePlan> = analyses
            .iter()
            .map(|a| plan_from_analysis(cfg, session, prog_ctx, a))
            .collect();
        drop(analyses);
        let mut entries: Vec<(usize, Vec<RawPath>, Option<PipelinePlan>)> = seeds_by
            .into_iter()
            .zip(plans)
            .map(|((idx, seeds), plan)| (idx, seeds, Some(plan)))
            .collect();
        // ---- batched group searches ---------------------------------------
        let mut jobs: Vec<ExploreJob> = Vec::new();
        for (_, _, plan) in &entries {
            let plan = plan.as_ref().unwrap();
            for g in &plan.groups {
                jobs.push(ExploreJob {
                    start: plan.entry,
                    targets: std::iter::once(plan.exit).collect(),
                    base: g.base.clone(),
                    // The pre-condition and its binding equations are
                    // never checked on their own.
                    base_sat: false,
                    seeds: g.seeds.clone(),
                    scope: Some(plan.name.clone()),
                });
            }
        }
        let group_results = explore_batch(cfg, session, config, &jobs);
        record_phase(&mut group_span, depth, &group_results);
        let mut group_results = group_results.into_iter();
        // ---- encode + replace bodies (topo order) -------------------------
        for (idx, _, plan) in &mut entries {
            let plan = plan.take().unwrap();
            let n = plan.groups.len();
            let results: Vec<_> = group_results.by_ref().take(n).collect();
            encode_pipeline(cfg, session, stats, order[*idx], plan, results);
        }
        drop(group_span);
        if stats.timed_out {
            return;
        }
        let mut extend_span = obs::span("engine.summary.extend");
        // ---- batched seed extensions --------------------------------------
        // Extend each seed through its just-summarized pipeline: paths
        // reaching a later pipeline entry are cached for it; paths reaching
        // a program terminal are complete end-to-end valid paths. A
        // same-level pipeline's entry can appear in `later` but is
        // unreachable, so level batching routes exactly as the sequential
        // loop does.
        let laters: Vec<HashSet<meissa_ir::NodeId>> = entries
            .iter()
            .map(|&(idx, _, _)| entry_of[idx + 1..].iter().copied().collect())
            .collect();
        let mut ext_jobs: Vec<ExploreJob> = Vec::new();
        let mut ext_src: Vec<(usize, usize)> = Vec::new();
        for (pi, (idx, seeds, _)) in entries.iter().enumerate() {
            for (si, seed) in seeds.iter().enumerate() {
                ext_jobs.push(ExploreJob {
                    start: entry_of[*idx],
                    targets: laters[pi].clone(),
                    base: seed.constraints.clone(),
                    // A seed is a valid path: every arm on it was Sat.
                    base_sat: true,
                    seeds: seed.final_values.clone(),
                    scope: None,
                });
                ext_src.push((pi, si));
            }
        }
        let ext_results = explore_batch(cfg, session, config, &ext_jobs);
        record_phase(&mut extend_span, depth, &ext_results);
        for ((pi, si), r) in ext_src.into_iter().zip(ext_results) {
            stats.absorb(&r.stats);
            for d in r.hash_defs {
                prog_ctx.add_hash_def(d);
            }
            let seed = &entries[pi].1[si];
            for mut p in r.paths {
                let end = *p.path.last().expect("non-empty path");
                let mut full = seed.path.clone();
                full.extend(p.path.iter().copied());
                p.path = full;
                if laters[pi].contains(&end) {
                    cache.entry(end).or_default().push(p);
                } else {
                    completed.push(p);
                }
            }
        }
        prog_ctx.register_pool_vars(&mut session.pool, &cfg.fields);
        drop(extend_span);
        if stats.timed_out {
            return;
        }
    }
}

/// Tags a summary phase span with its topological level and its batch's
/// job count, SMT checks and valid paths.
fn record_phase(span: &mut obs::SpanGuard, level: usize, results: &[crate::parallel::JobResult]) {
    span.field("level", level as u64);
    span.field("jobs", results.len() as u64);
    span.field(
        "smt_checks",
        results.iter().map(|r| r.stats.smt_checks).sum(),
    );
    span.field("paths", results.iter().map(|r| r.paths.len() as u64).sum());
}

/// Fields *read* by statements in the region between `entry` and `exit`
/// (guard operands and assignment right-hand sides).
fn region_read_set(
    cfg: &Cfg,
    entry: meissa_ir::NodeId,
    exit: meissa_ir::NodeId,
) -> HashSet<FieldId> {
    let mut reads = Vec::new();
    let mut stack = vec![entry];
    let mut seen = HashSet::new();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) || n == exit {
            continue;
        }
        match cfg.stmt(n) {
            Stmt::Assume(b) => b.fields_into(&mut reads),
            Stmt::Assign(_, e) => e.fields_into(&mut reads),
        }
        stack.extend(cfg.succ(n));
    }
    reads.into_iter().collect()
}

/// Encodes one valid pipeline path as straight-line statements:
/// guard predicate, `@` snapshots, then effect assignments (lines 12–25).
fn encode_path(
    cfg: &mut Cfg,
    pool: &TermPool,
    ctx: &SymCtx,
    ppl_name: &str,
    path: &RawPath,
    base_len: usize,
    seeds: &HashMap<FieldId, TermId>,
) -> Vec<Stmt> {
    let mut stmts = Vec::new();

    // Guard: the constraints collected *inside* the pipeline (the base
    // pre-condition frame — the leading `base_len` entries — is context,
    // not part of this pipeline's guard). One predicate node per conjunct —
    // Algorithm 2's later public pre-condition intersections work on
    // constraint *sets*, so conjunct granularity must survive the
    // re-encoding. Deduplicate conjuncts (a rule may assert the same term
    // twice along one path) while preserving order.
    let mut seen: HashSet<TermId> = HashSet::new();
    let guards: Vec<BExp> = path
        .constraints
        .iter()
        .skip(base_len)
        .filter(|&&c| seen.insert(c))
        .map(|&c| term_to_bexp(cfg, pool, ctx, ppl_name, c, None))
        .filter(|b| *b != BExp::True)
        .collect();
    if guards.is_empty() {
        stmts.push(Stmt::Assume(BExp::True));
    } else {
        for g in guards {
            stmts.push(Stmt::Assume(g));
        }
    }

    // Which fields actually changed? A final value equal to the entry
    // variable, or to the group's seed constant, is no change.
    let mut changed: Vec<(FieldId, TermId)> = path
        .final_values
        .iter()
        .copied()
        .filter(|&(f, t)| !is_identity(pool, ctx, f, t) && seeds.get(&f) != Some(&t))
        .collect();
    changed.sort_by_key(|&(f, _)| f);
    let changed_set: HashSet<FieldId> = changed.iter().map(|&(f, _)| f).collect();

    // Snapshots: @ppl.field ← field (lines 16–19).
    let mut aux: HashMap<FieldId, FieldId> = HashMap::new();
    for &(f, _) in &changed {
        let width = cfg.fields.width(f);
        let aux_name = format!("@{ppl_name}.{}", cfg.fields.name(f));
        let a = cfg.fields.intern(&aux_name, width);
        aux.insert(f, a);
        stmts.push(Stmt::Assign(a, AExp::Field(f)));
    }

    // Effects: field ← value, entry references substituted with @aux for
    // changed fields (lines 20–24 — `SubstituteWithInit`).
    for &(f, t) in &changed {
        let rhs = term_to_aexp(cfg, pool, ctx, ppl_name, t, Some((&changed_set, &aux)));
        stmts.push(Stmt::Assign(f, rhs));
    }
    stmts
}

/// Is the term exactly the field's own pipeline-entry variable?
fn is_identity(pool: &TermPool, ctx: &SymCtx, f: FieldId, t: TermId) -> bool {
    match *pool.node(t) {
        TermNode::BvVar(v) => ctx.field_of_var(v) == Some(f),
        _ => false,
    }
}

type AuxMap<'m> = (&'m HashSet<FieldId>, &'m HashMap<FieldId, FieldId>);

/// Converts a solver term (over `field@ppl` entry variables) back into an IR
/// arithmetic expression over fields. With `aux = None`, entry variables
/// become plain field reads (correct in the guard, which precedes every
/// assignment). With `aux = Some(..)`, entry variables of *changed* fields
/// become their `@` snapshot.
#[allow(clippy::only_used_in_recursion)]
fn term_to_aexp(
    cfg: &mut Cfg,
    pool: &TermPool,
    ctx: &SymCtx,
    ppl: &str,
    t: TermId,
    aux: Option<AuxMap>,
) -> AExp {
    match pool.node(t).clone() {
        TermNode::BvConst(v) => AExp::Const(v),
        TermNode::BvVar(v) => {
            if let Some(f) = ctx.field_of_var(v) {
                if let Some((changed, map)) = aux {
                    if changed.contains(&f) {
                        return AExp::Field(map[&f]);
                    }
                }
                AExp::Field(f)
            } else if let Some(def) = ctx.hash_def_of(t) {
                // Hash stand-in: re-materialize the hash application so the
                // outer execution applies §4 handling again.
                let args = def
                    .keys
                    .clone()
                    .into_iter()
                    .map(|k| term_to_aexp(cfg, pool, ctx, ppl, k, aux))
                    .collect();
                AExp::Hash(def.alg, def.width, args)
            } else {
                panic!(
                    "summary: variable `{}` has no field mapping",
                    pool.var_name(v)
                );
            }
        }
        TermNode::BvBin(op, a, b) => {
            let ca = term_to_aexp(cfg, pool, ctx, ppl, a, aux);
            let cb = term_to_aexp(cfg, pool, ctx, ppl, b, aux);
            let op = match op {
                meissa_smt::term::BvBinOp::Add => AOp::Add,
                meissa_smt::term::BvBinOp::Sub => AOp::Sub,
                meissa_smt::term::BvBinOp::And => AOp::And,
                meissa_smt::term::BvBinOp::Or => AOp::Or,
                meissa_smt::term::BvBinOp::Xor => AOp::Xor,
            };
            AExp::bin(op, ca, cb)
        }
        TermNode::BvNot(a) => AExp::Not(Box::new(term_to_aexp(cfg, pool, ctx, ppl, a, aux))),
        TermNode::BvShl(a, n) => AExp::Shl(Box::new(term_to_aexp(cfg, pool, ctx, ppl, a, aux)), n),
        TermNode::BvShr(a, n) => AExp::Shr(Box::new(term_to_aexp(cfg, pool, ctx, ppl, a, aux)), n),
        other => panic!("summary: unexpected term shape {other:?} in pipeline effect"),
    }
}

/// Converts a boolean term back into an IR boolean expression (guard
/// position: entry variables read as plain fields).
#[allow(clippy::only_used_in_recursion)]
fn term_to_bexp(
    cfg: &mut Cfg,
    pool: &TermPool,
    ctx: &SymCtx,
    ppl: &str,
    t: TermId,
    aux: Option<AuxMap>,
) -> BExp {
    match pool.node(t).clone() {
        TermNode::BoolConst(true) => BExp::True,
        TermNode::BoolConst(false) => BExp::False,
        TermNode::BoolAnd(a, b) => BExp::and(
            term_to_bexp(cfg, pool, ctx, ppl, a, aux),
            term_to_bexp(cfg, pool, ctx, ppl, b, aux),
        ),
        TermNode::BoolOr(a, b) => BExp::or(
            term_to_bexp(cfg, pool, ctx, ppl, a, aux),
            term_to_bexp(cfg, pool, ctx, ppl, b, aux),
        ),
        TermNode::BoolNot(a) => BExp::not(term_to_bexp(cfg, pool, ctx, ppl, a, aux)),
        TermNode::Cmp(op, a, b) => {
            let ca = term_to_aexp(cfg, pool, ctx, ppl, a, aux);
            let cb = term_to_aexp(cfg, pool, ctx, ppl, b, aux);
            let op = match op {
                meissa_smt::term::CmpOp::Eq => CmpOp::Eq,
                meissa_smt::term::CmpOp::Ult => CmpOp::Lt,
            };
            BExp::Cmp(op, ca, cb)
        }
        other => panic!("summary: unexpected boolean term {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::generate_templates;
    use meissa_ir::{count_paths, CfgBuilder};
    use meissa_num::{BigUint, Bv};

    /// Builds the Fig. 7 two-table pipeline: `n` rules in each table,
    /// n² possible paths before summary, n after.
    fn fig7_pipeline(n: u128) -> Cfg {
        let mut b = CfgBuilder::new();
        let dst = b.fields_mut().intern("dstIP", 32);
        let port = b.fields_mut().intern("egressPort", 9);
        let mac = b.fields_mut().intern("dstMAC", 48);
        b.nop(); // program entry
        b.begin_pipeline("ppl0");
        let base = b.frontier();
        let mut arms = Vec::new();
        for i in 0..n {
            b.set_frontier(base.clone());
            b.stmt(Stmt::Assume(BExp::eq(
                AExp::Field(dst),
                AExp::Const(Bv::new(32, 0x01010101 + i)),
            )));
            b.stmt(Stmt::Assign(port, AExp::Const(Bv::new(9, 1 + i))));
            arms.push(b.frontier());
        }
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.nop();
        let base = b.frontier();
        let mut arms = Vec::new();
        for i in 0..n {
            b.set_frontier(base.clone());
            b.stmt(Stmt::Assume(BExp::eq(
                AExp::Field(port),
                AExp::Const(Bv::new(9, 1 + i)),
            )));
            b.stmt(Stmt::Assign(mac, AExp::Const(Bv::new(48, i + 1))));
            arms.push(b.frontier());
        }
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.end_pipeline();
        b.nop(); // program exit
        b.finish()
    }

    #[test]
    fn fig7_intra_pipeline_elimination() {
        let mut cfg = fig7_pipeline(10);
        assert_eq!(count_paths(&cfg).total, BigUint::from_u64(100));
        let mut session = SolveSession::new();
        let outcome = summarize(&mut cfg, &mut session, &ExecConfig::default());
        assert_eq!(count_paths(&cfg).total, BigUint::from_u64(10));
        assert_eq!(outcome.stats.pipelines.len(), 1);
        assert_eq!(outcome.stats.pipelines[0].2, 10, "10 valid paths kept");
    }

    #[test]
    fn summary_preserves_valid_path_semantics() {
        // Definition 4, checked concretely: templates from the summarized
        // graph instantiate to inputs that execute on the ORIGINAL graph
        // with identical final state.
        let original = fig7_pipeline(6);
        let mut summarized = original.clone();
        let mut session = SolveSession::new();
        summarize(&mut summarized, &mut session, &ExecConfig::default());
        let out = generate_templates(&summarized, &mut session, &ExecConfig::default());
        assert_eq!(out.templates.len(), 6);
        let mac = original.fields.get("dstMAC").unwrap();
        let port = original.fields.get("egressPort").unwrap();
        let mut seen_macs = HashSet::new();
        for t in &out.templates {
            let input = t
                .instantiate(&mut session.pool, &summarized.fields, &[])
                .expect("template instantiates");
            // Replay on the summarized path: must succeed.
            let sum_out = meissa_ir::eval_path(&summarized, &t.path, &input)
                .expect("summarized path executes");
            // Replay on the original graph (find its unique valid path).
            let orig_outs: Vec<_> = meissa_ir::enumerate_paths(&original, 1000)
                .into_iter()
                .filter_map(|p| meissa_ir::eval_path(&original, &p, &input).ok())
                .collect();
            assert_eq!(orig_outs.len(), 1, "one valid original path per input");
            assert_eq!(
                orig_outs[0].get(&original.fields, mac),
                sum_out.get(&summarized.fields, mac),
                "same dstMAC effect"
            );
            assert_eq!(
                orig_outs[0].get(&original.fields, port),
                sum_out.get(&summarized.fields, port),
                "same egressPort effect"
            );
            seen_macs.insert(orig_outs[0].get(&original.fields, mac));
        }
        assert_eq!(seen_macs.len(), 6, "all six behaviours covered");
    }

    /// Two sequential pipelines where the first constrains proto == TCP on
    /// every path — Fig. 8's public pre-condition example.
    fn fig8_two_pipelines() -> Cfg {
        let mut b = CfgBuilder::new();
        let proto = b.fields_mut().intern("proto", 8);
        let a = b.fields_mut().intern("meta.a", 8);
        let c = b.fields_mut().intern("meta.c", 8);
        b.nop();
        // Pipeline 1: all paths require proto == 6 (TCP).
        b.begin_pipeline("ppl1");
        b.stmt(Stmt::Assume(BExp::eq(
            AExp::Field(proto),
            AExp::Const(Bv::new(8, 6)),
        )));
        let base = b.frontier();
        let mut arms = Vec::new();
        for i in 0..2u128 {
            b.set_frontier(base.clone());
            b.stmt(Stmt::Assume(BExp::eq(
                AExp::Field(a),
                AExp::Const(Bv::new(8, i)),
            )));
            arms.push(b.frontier());
        }
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.end_pipeline();
        // Pipeline 2: branches on proto TCP vs UDP; UDP is dead.
        b.begin_pipeline("ppl2");
        let base = b.frontier();
        let mut arms = Vec::new();
        for (val, mark) in [(6u128, 1u128), (17, 2)] {
            b.set_frontier(base.clone());
            b.stmt(Stmt::Assume(BExp::eq(
                AExp::Field(proto),
                AExp::Const(Bv::new(8, val)),
            )));
            b.stmt(Stmt::Assign(c, AExp::Const(Bv::new(8, mark))));
            arms.push(b.frontier());
        }
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.end_pipeline();
        b.nop();
        b.finish()
    }

    #[test]
    fn fig8_public_precondition_prunes_udp() {
        let mut cfg = fig8_two_pipelines();
        // Before: 2 (ppl1) × 2 (ppl2) = 4 possible paths.
        assert_eq!(count_paths(&cfg).total, BigUint::from_u64(4));
        let mut session = SolveSession::new();
        let outcome = summarize(&mut cfg, &mut session, &ExecConfig::default());
        // ppl2 keeps only the TCP path: 2 × 1 = 2 paths remain.
        assert_eq!(count_paths(&cfg).total, BigUint::from_u64(2));
        let ppl2 = &outcome.stats.pipelines[1];
        assert_eq!(ppl2.2, 1, "UDP branch filtered by public pre-condition");
    }

    #[test]
    fn atomic_effect_encoding_uses_aux_vars() {
        // §3.3's example: srcPort ← 10000; dstPort ← srcPort + 1 inside a
        // pipeline must summarize so that dstPort gets the ENTRY srcPort + 1
        // ... no — sequential semantics makes dstPort = 10001. The aux-var
        // encoding must preserve exactly that.
        let mut b = CfgBuilder::new();
        let sp = b.fields_mut().intern("srcPort", 16);
        let dp = b.fields_mut().intern("dstPort", 16);
        b.nop();
        b.begin_pipeline("p");
        // dstPort ← srcPort + 1 FIRST (reads entry srcPort), then
        // srcPort ← 10000: the final state is the simultaneous update
        // {srcPort: 10000, dstPort: entry srcPort + 1} — the tricky case.
        b.stmt(Stmt::Assign(
            dp,
            AExp::bin(AOp::Add, AExp::Field(sp), AExp::Const(Bv::new(16, 1))),
        ));
        b.stmt(Stmt::Assign(sp, AExp::Const(Bv::new(16, 10000))));
        b.end_pipeline();
        b.nop();
        let original = b.finish();

        let mut summarized = original.clone();
        let mut session = SolveSession::new();
        summarize(&mut summarized, &mut session, &ExecConfig::default());

        // Concrete check on both graphs from srcPort = 555.
        let init = meissa_ir::ConcreteState::from_pairs([(sp, Bv::new(16, 555))]);
        for g in [&original, &summarized] {
            let paths = meissa_ir::enumerate_paths(g, 10);
            let outs: Vec<_> = paths
                .iter()
                .filter_map(|p| meissa_ir::eval_path(g, p, &init).ok())
                .collect();
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].get(&g.fields, sp), Bv::new(16, 10000));
            assert_eq!(outs[0].get(&g.fields, dp), Bv::new(16, 556));
        }
        // And the summarized graph indeed uses an @aux snapshot.
        let has_aux = summarized
            .fields
            .iter()
            .any(|f| summarized.fields.is_auxiliary(f));
        assert!(has_aux, "expected @p.srcPort snapshot variable");
    }

    #[test]
    fn multi_pipeline_template_counts_match_naive() {
        // The headline coverage theorem, empirically: summary + DFS yields
        // exactly as many templates as naive DFS, on a 3-pipeline program.
        let mut b = CfgBuilder::new();
        let x = b.fields_mut().intern("x", 8);
        let y = b.fields_mut().intern("y", 8);
        b.nop();
        for (ppl, k) in [("p0", 3u128), ("p1", 3), ("p2", 2)] {
            b.begin_pipeline(ppl);
            let base = b.frontier();
            let mut arms = Vec::new();
            for i in 0..k {
                b.set_frontier(base.clone());
                b.stmt(Stmt::Assume(BExp::eq(
                    AExp::Field(x),
                    AExp::Const(Bv::new(8, i)),
                )));
                b.stmt(Stmt::Assign(
                    y,
                    AExp::bin(AOp::Add, AExp::Field(y), AExp::Const(Bv::new(8, 1))),
                ));
                arms.push(b.frontier());
            }
            b.set_frontier(Vec::new());
            b.merge_frontiers(arms);
            b.end_pipeline();
        }
        b.nop();
        let cfg = b.finish();

        let mut session_naive = SolveSession::new();
        let naive = generate_templates(&cfg, &mut session_naive, &ExecConfig::default());

        let mut summarized = cfg.clone();
        let mut session = SolveSession::new();
        summarize(&mut summarized, &mut session, &ExecConfig::default());
        let with_summary = generate_templates(&summarized, &mut session, &ExecConfig::default());

        // x is never modified, so only x∈{0,1} survives all three pipelines
        // (p2 needs x<2, p0/p1 need x<3): 2 valid end-to-end paths.
        assert_eq!(naive.templates.len(), 2);
        assert_eq!(with_summary.templates.len(), naive.templates.len());
    }

    #[test]
    fn unreachable_pipeline_summarizes_to_empty() {
        let mut b = CfgBuilder::new();
        let x = b.fields_mut().intern("x", 8);
        b.nop();
        b.begin_pipeline("dead_gate");
        b.stmt(Stmt::Assume(BExp::False));
        b.end_pipeline();
        b.begin_pipeline("after");
        b.stmt(Stmt::Assign(x, AExp::Const(Bv::new(8, 1))));
        b.end_pipeline();
        b.nop();
        let mut cfg = b.finish();
        let mut session = SolveSession::new();
        let outcome = summarize(&mut cfg, &mut session, &ExecConfig::default());
        assert_eq!(outcome.stats.pipelines[0].2, 0, "gate keeps zero paths");
        assert_eq!(outcome.stats.pipelines[1].1, 0, "nothing reaches `after`");
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        assert!(out.templates.is_empty());
    }
}
