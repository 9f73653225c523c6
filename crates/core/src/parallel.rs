//! Work-stealing parallel path exploration over per-worker [`SolveSession`]s.
//!
//! The DFS + SMT loop of Algorithm 1 dominates end-to-end cost, and
//! independent path suffixes explore independently — so the explorer shards
//! the DFS *tree* across worker threads:
//!
//! * A **task** is a sibling range: `(path-prefix, constraint-prefix,
//!   value-snapshot, arms)`, where `arms` are feasible children of one
//!   branch node, each with the guard its parent already settled
//!   ([`crate::exec::PreArm`]). Term ids are pool-local, so a task carries
//!   its prefix terms and the arms' conjuncts in a private minipool; the
//!   donor translates once ([`TermPool::import`]) and the receiving worker
//!   translates into its own pool before re-establishing the prefix
//!   (asserted in one solver frame, *without* re-checking — the donor
//!   already validated it, so the receiver may decide path-independent
//!   arms without the solver from the start). The seed task is the
//!   one-arm range `[start]` under an empty prefix.
//! * Each worker owns one [`SolveSession`] (pool + incremental solver +
//!   counters) that persists across tasks, keeping the solver's
//!   bit-blasting cache warm. Each worker keeps the [`RawPath`]s it
//!   discovers in its own list, returned at join, so the merge step knows
//!   which pool their terms live in. All workers share one read-only
//!   [`ArmIndex`] over the graph.
//! * **Work sharing**: before descending into each sibling, a walker whose
//!   frontier is hungry donates the back half of the unstarted siblings of
//!   its *shallowest* open range as one range task
//!   ([`WorkSharer::donate`]); the receiver may split its range again.
//!   Every arm is decided once and every tree edge
//!   is explored once, by exactly one worker — which is why merged
//!   per-worker counters equal a sequential run's.
//! * **Grant**: workers past the first wait until the seed task's walker
//!   has made [`GRANT_ENGINE_CALLS`] SAT-engine calls. A tree with less
//!   solver work than that is walked by worker 0 alone, in sequential DFS
//!   order, and its fork becomes the main pool with no merge.
//! * **Cancellation**: one shared [`ExploreBudget`] (an atomic state cell)
//!   is polled by every walker; a template-cap or deadline trip observed by
//!   any worker stops all of them promptly. Drained-but-cancelled tasks
//!   abort on their first budget poll.
//!
//! **Determinism.** The final path *set* is thread-count independent (the
//! partition covers the same tree), and the emitted order is made
//! deterministic by sorting merged paths into sequential DFS order
//! ([`cmp_paths`]: order by successor position at the first divergence)
//! before translating them into the main pool — so main-pool term ids, and
//! everything derived from them, are reproducible run to run.

use crate::exec::{
    explore_task, ArmIndex, Arms, ExecConfig, ExecStats, ExploreBudget, PreArm, RawPath, WorkSharer,
};
use crate::session::SolveSession;
use crate::symstate::{HashDef, SymCtx};
use meissa_ir::{Cfg, FieldId, NodeId};
use meissa_smt::{TermId, TermNode, TermPool};
use meissa_testkit::obs;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One sibling-range task. Every worker pool is a fork of the main pool, so
/// the seed task (`pool: None`) carries main-pool ids that are valid
/// verbatim in every worker. A donated task instead carries its prefix
/// terms and its arms' conjuncts in a small private minipool, which the
/// receiver imports into its own pool.
struct Task {
    trace: Vec<NodeId>,
    pool: Option<TermPool>,
    constraints: Vec<TermId>,
    values: Vec<(FieldId, TermId)>,
    arms: Arms,
}

struct FrontierState {
    tasks: VecDeque<Task>,
    /// Workers currently blocked waiting for a task.
    idle: usize,
    /// Tasks created but not yet finished (queued *or* running). Donations
    /// increment before the donor's own subtree finishes, so this reaches
    /// zero only when the whole tree is explored.
    pending: usize,
    done: bool,
}

/// SAT-engine calls the seed task's walker must make before the frontier
/// lets its other workers in. A subtree only pays for a second worker when
/// it holds solver work: a donation snapshots its prefix and arms, the
/// receiver imports them and re-blasts every guard into its own solver, and
/// the merge re-sorts and re-imports every path. gw-1 with 1,024 EIPs
/// (millions of possible paths, 3 engine calls, ~23 ms on one thread) took
/// twice as long on two workers; plain-DFS gw-3 with 32 EIPs (2,663 engine
/// calls, ~12 a millisecond) reaches the floor within a few milliseconds.
const GRANT_ENGINE_CALLS: u64 = 32;

/// The shared work queue. `idle_hint`/`queue_hint` mirror the mutex-guarded
/// state so [`WorkSharer::hungry`] — consulted before every sibling a walker
/// descends into — costs two relaxed atomic loads, not a lock.
///
/// Workers other than the first wait at a gate ([`Frontier::admit`]) until
/// the frontier is granted: at once when the right-sizing is disabled, and
/// otherwise once the seed task's walker reports [`GRANT_ENGINE_CALLS`]
/// engine calls. Until then nobody is idle, so nothing is donated and the
/// first worker walks the tree as the sequential engine does.
struct Frontier {
    state: Mutex<FrontierState>,
    available: Condvar,
    idle_hint: AtomicUsize,
    queue_hint: AtomicUsize,
    granted: AtomicBool,
}

impl Frontier {
    fn new(initial: Task, granted: bool) -> Self {
        let mut tasks = VecDeque::new();
        tasks.push_back(initial);
        Frontier {
            state: Mutex::new(FrontierState {
                tasks,
                idle: 0,
                pending: 1,
                done: false,
            }),
            available: Condvar::new(),
            idle_hint: AtomicUsize::new(0),
            queue_hint: AtomicUsize::new(1),
            granted: AtomicBool::new(granted),
        }
    }

    /// Blocks a worker other than the first until the frontier is granted
    /// (true) or the run ends without needing it (false).
    fn admit(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        while !self.granted.load(Ordering::Relaxed) && !st.done {
            st = self.available.wait(st).unwrap();
        }
        self.granted.load(Ordering::Relaxed)
    }

    /// Lets the waiting workers in. The store precedes the lock, so a
    /// worker in [`Frontier::admit`] either sees it before it waits or is
    /// waiting when the notification comes.
    fn grant(&self) {
        if !self.granted.swap(true, Ordering::Relaxed) {
            let _st = self.state.lock().unwrap();
            self.available.notify_all();
        }
    }

    /// Blocks until a task is available or the frontier drains for good.
    fn pop(&self) -> Option<Task> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(t) = st.tasks.pop_front() {
                self.queue_hint.store(st.tasks.len(), Ordering::Relaxed);
                return Some(t);
            }
            if st.done {
                return None;
            }
            st.idle += 1;
            self.idle_hint.store(st.idle, Ordering::Relaxed);
            st = self.available.wait(st).unwrap();
            st.idle -= 1;
            self.idle_hint.store(st.idle, Ordering::Relaxed);
        }
    }

    /// Marks one popped task finished; the last finish ends the run.
    fn finish_task(&self) {
        let mut st = self.state.lock().unwrap();
        st.pending -= 1;
        if st.pending == 0 {
            st.done = true;
            self.available.notify_all();
        }
    }
}

impl WorkSharer for Frontier {
    fn hungry(&self, engine_calls: u64) -> bool {
        if !self.granted.load(Ordering::Relaxed) {
            if engine_calls < GRANT_ENGINE_CALLS {
                return false;
            }
            self.grant();
        }
        // Donate only when starving workers outnumber queued tasks. Keeping
        // this strict matters: every donation snapshots its prefix and every
        // received task re-asserts it, so a sated frontier that kept
        // accepting donations would turn the explorer into a task-creation
        // benchmark.
        self.idle_hint.load(Ordering::Relaxed) > self.queue_hint.load(Ordering::Relaxed)
    }

    fn donate(
        &self,
        pool: &TermPool,
        trace: &[NodeId],
        constraints: &[TermId],
        values: &[(FieldId, TermId)],
        arms: Arms,
    ) {
        // Snapshot the prefix and the arms' conjuncts into one small
        // minipool. Importing a handful of terms is far cheaper than cloning
        // the donor's whole pool, which grows without bound over the tasks
        // it runs.
        let mut mini = TermPool::new();
        let mut cache = HashMap::new();
        let constraints = constraints
            .iter()
            .map(|&c| mini.import(pool, c, &mut cache))
            .collect();
        let values = values
            .iter()
            .map(|&(f, t)| (f, mini.import(pool, t, &mut cache)))
            .collect();
        let arms: Arms = arms
            .into_iter()
            .map(|(node, pre)| {
                (
                    node,
                    pre.map(|a| import_arm(&mut mini, pool, a, &mut cache)),
                )
            })
            .collect();
        obs::event(
            "worker.donate",
            &[("arms", arms.len() as u64), ("depth", trace.len() as u64)],
        );
        let mut st = self.state.lock().unwrap();
        st.tasks.push_back(Task {
            trace: trace.to_vec(),
            pool: Some(mini),
            constraints,
            values,
            arms,
        });
        st.pending += 1;
        self.queue_hint.store(st.tasks.len(), Ordering::Relaxed);
        drop(st);
        self.available.notify_one();
    }
}

/// Translates an arm's conjuncts from `src` into `dst`. Structural hashes
/// and verdicts are pool-independent and travel verbatim.
fn import_arm(
    dst: &mut TermPool,
    src: &TermPool,
    mut arm: PreArm,
    cache: &mut HashMap<TermId, TermId>,
) -> PreArm {
    for c in &mut arm.conjuncts {
        *c = dst.import(src, *c, cache);
    }
    arm
}

/// Sequential DFS emission order, reconstructed from path node sequences:
/// at the first divergence the path whose node comes earlier in the shared
/// parent's successor list is emitted first. (A strict-prefix pair cannot
/// occur — paths end at targets or terminals, never mid-way through another
/// path — but length breaks the tie anyway.)
fn cmp_paths(cfg: &Cfg, a: &[NodeId], b: &[NodeId]) -> std::cmp::Ordering {
    let n = a.len().min(b.len());
    for i in 0..n {
        if a[i] != b[i] {
            let succ = cfg.succ(a[i - 1]);
            let pa = succ.iter().position(|&s| s == a[i]);
            let pb = succ.iter().position(|&s| s == b[i]);
            return pa.cmp(&pb);
        }
    }
    a.len().cmp(&b.len())
}

/// Saturating possible-path count below `start`, clamped to `limit`:
/// [`meissa_ir::count_paths_with`] in `u64` arithmetic, since the worker
/// cap only needs to distinguish "a handful" from "plenty" — real targets'
/// exact counts (up to 10^390) are irrelevant here.
fn possible_path_estimate(cfg: &Cfg, start: NodeId, limit: u64) -> u64 {
    meissa_ir::count_paths_with(cfg, start, None, 0, 1, |acc, &c| {
        *acc = acc.saturating_add(c).min(limit)
    })
}

struct WorkerOutput {
    session: SolveSession,
    ctx: SymCtx,
    /// The valid paths this worker found (terms in its own pool).
    paths: Vec<RawPath>,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    cfg: &Cfg,
    arm_index: &ArmIndex<'_>,
    main_pool: &TermPool,
    targets: &HashSet<NodeId>,
    config: &ExecConfig,
    frontier: &Frontier,
    budget: &ExploreBudget,
    scope: Option<&str>,
    wid: usize,
) -> WorkerOutput {
    // A popped solver frame only *disables* its clauses (the activation
    // literal is falsified, the clauses stay), so a long-lived solver's SAT
    // database — and with it every check — keeps growing as tasks
    // accumulate. The sequential engine pays that for the whole tree;
    // a worker bounds it by retiring its solver after this many checks and
    // re-blasting the (shallow) next prefix into a fresh one.
    const WORKER_RESET_CHECKS: u64 = 512;
    // A worker the frontier never admits did no work: no span, no pool.
    let t_gate = Instant::now();
    if wid > 0 && !frontier.admit() {
        return WorkerOutput {
            session: SolveSession::new(),
            ctx: SymCtx::new(scope),
            paths: Vec::new(),
        };
    }
    let t_worker = Instant::now();
    let mut span = obs::span("parallel.worker");
    span.field("wid", wid as u64);
    span.field("gate_wait_us", (t_worker - t_gate).as_micros() as u64);
    let mut session = SolveSession::fork_from(main_pool);
    let mut ctx = SymCtx::new(scope);
    let mut paths = Vec::new();
    let mut busy = std::time::Duration::ZERO;
    let mut steal_wait = std::time::Duration::ZERO;
    let mut tasks = 0usize;
    let mut steals = 0u64;
    loop {
        let t_pop = Instant::now();
        let Some(task) = frontier.pop() else {
            steal_wait += t_pop.elapsed();
            break;
        };
        steal_wait += t_pop.elapsed();
        let t_task = Instant::now();
        tasks += 1;
        if task.pool.is_some() {
            // A minipool snapshot means this task was donated by a sibling
            // worker rather than seeded by the dispatcher.
            steals += 1;
            obs::event("worker.steal", &[("depth", task.trace.len() as u64)]);
        }
        if session.solver.stats.checks >= WORKER_RESET_CHECKS {
            session.reset_solver();
        }
        // Resolve the task in this worker's pool. Seed-task ids are below
        // the fork point and valid verbatim; a donated task's terms import
        // from its minipool snapshot.
        let Task {
            trace,
            pool,
            mut constraints,
            mut values,
            mut arms,
        } = task;
        if let Some(mini) = pool {
            let mut cache = HashMap::new();
            for c in &mut constraints {
                *c = session.pool.import(&mini, *c, &mut cache);
            }
            for (_, t) in &mut values {
                *t = session.pool.import(&mini, *t, &mut cache);
            }
            arms = arms
                .into_iter()
                .map(|(node, pre)| {
                    (
                        node,
                        pre.map(|a| import_arm(&mut session.pool, &mini, a, &mut cache)),
                    )
                })
                .collect();
        }
        explore_task(
            cfg,
            arm_index,
            &mut session,
            &mut ctx,
            arms,
            true,
            targets,
            &trace,
            &constraints,
            &values,
            config,
            budget,
            Some(frontier),
            &mut |p| paths.push(p),
        );
        frontier.finish_task();
        busy += t_task.elapsed();
    }
    span.field("tasks", tasks as u64);
    span.field("steals", steals);
    span.field("busy_us", busy.as_micros() as u64);
    span.field("steal_wait_us", steal_wait.as_micros() as u64);
    span.field("wall_us", t_worker.elapsed().as_micros() as u64);
    span.field("smt_checks", session.exec.smt_checks);
    WorkerOutput {
        session,
        ctx,
        paths,
    }
}

/// Parallel counterpart of [`crate::exec::explore_in_session`] with no base
/// constraints and no initial values: explores from `start` across
/// `config.threads` workers and returns the discovered valid
/// paths — translated into the *main* session's pool, sorted into
/// sequential DFS order — plus merged per-call statistics. Worker counters
/// and hash obligations fold into `session` / `ctx` exactly as a sequential
/// run's would ([`SolveSession::merge_worker`],
/// [`SymCtx::add_hash_def`] + [`SymCtx::register_pool_vars`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_parallel(
    cfg: &Cfg,
    session: &mut SolveSession,
    ctx: &mut SymCtx,
    start: NodeId,
    targets: &HashSet<NodeId>,
    config: &ExecConfig,
) -> (Vec<RawPath>, ExecStats) {
    let mut threads = config.threads.max(1);
    if threads > 1 && config.min_paths_per_worker > 0 {
        // Right-size the pool before paying for it. Two caps:
        //
        // (a) machine cores — workers beyond the available parallelism
        //     only add scheduling latency, and each still costs a pool
        //     fork plus its share of the deterministic merge (observed:
        //     gw-3-r8 dropped to 0.54× sequential when 8 workers shared
        //     one core);
        // (b) possible paths below the root — a subtree with fewer than
        //     `min_paths_per_worker` paths per worker cannot keep the
        //     frontier fed, so tiny trees fall back toward the sequential
        //     engine. The estimate saturates, keeping the counting
        //     O(V + E) in u64; huge graphs always pass this cap.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        threads = threads.min(cores);
        let limit = (threads as u64).saturating_mul(config.min_paths_per_worker);
        let est = possible_path_estimate(cfg, start, limit);
        threads = threads.min((est / config.min_paths_per_worker).max(1) as usize);
    }
    let arm_index = ArmIndex::new(cfg);
    if threads == 1 {
        let mut paths = Vec::new();
        let stats = crate::exec::explore_in_session(
            cfg,
            &arm_index,
            session,
            ctx,
            start,
            targets,
            &[],
            true,
            &[],
            config,
            &mut |p| paths.push(p),
        );
        return (paths, stats);
    }
    let t0 = Instant::now();

    // Seed task: the start node under an empty prefix.
    let shared = session.pool.len() as u32;
    let seed = Task {
        trace: Vec::new(),
        pool: None,
        constraints: Vec::new(),
        values: Vec::new(),
        arms: vec![(start, None)],
    };
    let frontier = Frontier::new(seed, config.min_paths_per_worker == 0);
    let budget = ExploreBudget::new(config, t0);
    let scope: Option<String> = ctx.scope().map(str::to_string);

    let main_pool = &session.pool;
    // The main thread only waits: each worker keeps its own paths, so no
    // third thread wakes per discovered path.
    let mut outputs: Vec<WorkerOutput> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let (arm_index, frontier, budget) = (&arm_index, &frontier, &budget);
                let scope = scope.as_deref();
                s.spawn(move || {
                    worker_loop(
                        cfg, arm_index, main_pool, targets, config, frontier, budget, scope, wid,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel exploration worker panicked"))
            .collect()
    });
    if !frontier.granted.load(Ordering::Relaxed) {
        // The first worker walked the whole tree alone, in sequential DFS
        // order, on a fork of the main pool that nothing else touched: its
        // pool becomes the main pool, and its paths need no merge.
        let out = outputs.swap_remove(0);
        session.merge_worker(&out.session.exec, &out.session.solver_stats(), &out.session.sat_stats());
        let mut stats = out.session.exec;
        session.pool = out.session.pool;
        for d in out.ctx.hash_defs() {
            ctx.add_hash_def(d.clone());
        }
        ctx.register_pool_vars(&mut session.pool, &cfg.fields);
        stats.timed_out |= budget.timed_out();
        stats.elapsed = t0.elapsed();
        return (out.paths, stats);
    }
    let mut tagged: Vec<(usize, RawPath)> = outputs
        .iter_mut()
        .enumerate()
        .flat_map(|(w, out)| {
            std::mem::take(&mut out.paths)
                .into_iter()
                .map(move |p| (w, p))
        })
        .collect();

    // ---- deterministic merge -------------------------------------------
    // Sort the (worker, path) pairs into sequential DFS order *before*
    // translating into the main pool: translation order decides main-pool
    // term-id assignment, so sorting first makes those ids — and every
    // downstream rendering — independent of scheduling.
    let mut mspan = obs::span("parallel.merge");
    tagged.sort_by(|a, b| cmp_paths(cfg, &a.1.path, &b.1.path));
    if let Some(max) = config.max_templates {
        // Workers may overshoot the cap by in-flight emissions; keep the
        // first `max` in DFS order so the capped output is deterministic.
        tagged.truncate(max);
    }
    let mut caches: Vec<HashMap<TermId, TermId>> = (0..threads).map(|_| HashMap::new()).collect();
    let mut merged: Vec<RawPath> = Vec::with_capacity(tagged.len());
    for (w, p) in tagged {
        let wpool = &outputs[w].session.pool;
        let constraints = p
            .constraints
            .iter()
            .map(|&c| session.pool.import_from(wpool, c, shared, &mut caches[w]))
            .collect();
        let final_values = p
            .final_values
            .iter()
            .map(|&(f, t)| (f, session.pool.import_from(wpool, t, shared, &mut caches[w])))
            .collect();
        merged.push(RawPath {
            path: p.path,
            constraints,
            final_values,
        });
    }

    // Hash obligations: stand-in names are content-keyed, so every worker
    // mints identical names for identical applications; sorting by name
    // makes the import order (and dedup survivor) deterministic.
    let mut defs: Vec<(String, usize, HashDef)> = Vec::new();
    for (w, out) in outputs.iter().enumerate() {
        for d in out.ctx.hash_defs() {
            defs.push((var_term_name(&out.session.pool, d.out), w, d.clone()));
        }
    }
    defs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    for (_, w, d) in defs {
        let wpool = &outputs[w].session.pool;
        let keys = d
            .keys
            .iter()
            .map(|&k| session.pool.import_from(wpool, k, shared, &mut caches[w]))
            .collect();
        let out_t = session.pool.import_from(wpool, d.out, shared, &mut caches[w]);
        ctx.add_hash_def(HashDef {
            alg: d.alg,
            width: d.width,
            keys,
            out: out_t,
        });
    }
    ctx.register_pool_vars(&mut session.pool, &cfg.fields);
    mspan.field("paths", merged.len() as u64);
    drop(mspan);

    // ---- counter merge --------------------------------------------------
    let mut stats = ExecStats::default();
    for out in &outputs {
        stats.paths_explored += out.session.exec.paths_explored;
        stats.valid_paths += out.session.exec.valid_paths;
        stats.pruned += out.session.exec.pruned;
        stats.smt_checks += out.session.exec.smt_checks;
        stats.batched_probes += out.session.exec.batched_probes;
        stats.arms_independent += out.session.exec.arms_independent;
        stats.arms_pinned += out.session.exec.arms_pinned;
        stats.arm_batches += out.session.exec.arm_batches;
        stats.timed_out |= out.session.exec.timed_out;
        session.merge_worker(&out.session.exec, &out.session.solver_stats(), &out.session.sat_stats());
    }
    stats.timed_out |= budget.timed_out();
    stats.elapsed = t0.elapsed();
    (merged, stats)
}

fn var_term_name(pool: &TermPool, t: TermId) -> String {
    match *pool.node(t) {
        TermNode::BvVar(v) => pool.var_name(v).to_string(),
        _ => String::new(),
    }
}

/// One independent exploration job for [`explore_batch`]: Algorithm 2's
/// per-group interior searches and per-seed extensions, whose prefix terms
/// live in the *main* pool.
pub(crate) struct ExploreJob {
    pub start: NodeId,
    pub targets: HashSet<NodeId>,
    /// Base constraints (main-pool ids).
    pub base: Vec<TermId>,
    /// Is `base` known satisfiable, as a valid path's constraints are?
    pub base_sat: bool,
    /// Initial value-stack seed (main-pool ids).
    pub seeds: Vec<(FieldId, TermId)>,
    /// Variable scope for the job's fresh [`SymCtx`].
    pub scope: Option<String>,
}

/// The outcome of one [`ExploreJob`], translated back into the main pool.
pub(crate) struct JobResult {
    /// Valid paths, in the job's own sequential emission order.
    pub paths: Vec<RawPath>,
    /// The job's per-call statistics.
    pub stats: ExecStats,
    /// Hash obligations the job discovered, sorted by stand-in name; the
    /// caller registers them on the context that will re-encode the paths.
    pub hash_defs: Vec<HashDef>,
}

/// Runs a batch of independent exploration jobs across `config.threads`
/// workers and returns results **in job order** — which is also the order
/// their terms are translated into the main pool, so main-pool term-id
/// assignment is schedule-independent. Each job runs sequentially inside
/// one worker (its own emission order is the sequential one); workers pull
/// jobs from a shared counter and keep one warm [`SolveSession`] across the
/// jobs they execute. Worker counters merge into `session` at join.
pub(crate) fn explore_batch(
    cfg: &Cfg,
    session: &mut SolveSession,
    config: &ExecConfig,
    jobs: &[ExploreJob],
) -> Vec<JobResult> {
    struct BatchWorkerOutput {
        session: SolveSession,
        /// (job index, paths in worker pool, stats, defs in worker pool)
        done: Vec<(usize, Vec<RawPath>, ExecStats, Vec<HashDef>)>,
    }
    let mut threads = config.threads.max(1).min(jobs.len().max(1));
    if config.min_paths_per_worker > 0 {
        // Same right-sizing rationale as `explore_parallel` cap (a): a
        // batch worker beyond the core count only adds scheduling latency
        // plus a pool fork. Job-count imbalance is already handled by the
        // shared-counter pull below.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        threads = threads.min(cores);
    }
    let next = AtomicUsize::new(0);
    let arm_index = ArmIndex::new(cfg);
    let main_pool = &session.pool;
    let shared = main_pool.len() as u32;
    let outputs: Vec<BatchWorkerOutput> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (next, arm_index) = (&next, &arm_index);
                s.spawn(move || {
                    // Fork the main pool once per worker: job prefixes are
                    // main-pool ids and need no translation on the way in.
                    let mut wsession = SolveSession::fork_from(main_pool);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let job = &jobs[i];
                        let mut ctx = SymCtx::new(job.scope.as_deref());
                        let mut paths = Vec::new();
                        let stats = crate::exec::explore_in_session(
                            cfg,
                            arm_index,
                            &mut wsession,
                            &mut ctx,
                            job.start,
                            &job.targets,
                            &job.base,
                            job.base_sat,
                            &job.seeds,
                            config,
                            &mut |p| paths.push(p),
                        );
                        let defs: Vec<HashDef> = ctx.hash_defs().cloned().collect();
                        done.push((i, paths, stats, defs));
                    }
                    BatchWorkerOutput {
                        session: wsession,
                        done,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch exploration worker panicked"))
            .collect()
    });

    // Translate back in **job order** (not completion order) so main-pool
    // term-id assignment is deterministic.
    let mut by_job = vec![None; jobs.len()];
    for (w, out) in outputs.iter().enumerate() {
        for (i, paths, stats, defs) in &out.done {
            by_job[*i] = Some((w, paths, *stats, defs));
        }
    }
    let mut caches: Vec<HashMap<TermId, TermId>> = (0..outputs.len()).map(|_| HashMap::new()).collect();
    let mut results: Vec<JobResult> = Vec::with_capacity(jobs.len());
    for slot in by_job {
        let (w, paths, stats, defs) = slot.expect("every job was executed");
        let wpool = &outputs[w].session.pool;
        let paths = paths
            .iter()
            .map(|p| RawPath {
                path: p.path.clone(),
                constraints: p
                    .constraints
                    .iter()
                    .map(|&c| session.pool.import_from(wpool, c, shared, &mut caches[w]))
                    .collect(),
                final_values: p
                    .final_values
                    .iter()
                    .map(|&(f, t)| (f, session.pool.import_from(wpool, t, shared, &mut caches[w])))
                    .collect(),
            })
            .collect();
        let mut hash_defs: Vec<(String, HashDef)> = defs
            .iter()
            .map(|d| {
                let keys = d
                    .keys
                    .iter()
                    .map(|&k| session.pool.import_from(wpool, k, shared, &mut caches[w]))
                    .collect();
                let out_t = session.pool.import_from(wpool, d.out, shared, &mut caches[w]);
                (
                    var_term_name(wpool, d.out),
                    HashDef {
                        alg: d.alg,
                        width: d.width,
                        keys,
                        out: out_t,
                    },
                )
            })
            .collect();
        hash_defs.sort_by(|a, b| a.0.cmp(&b.0));
        results.push(JobResult {
            paths,
            stats,
            hash_defs: hash_defs.into_iter().map(|(_, d)| d).collect(),
        });
    }
    for out in &outputs {
        session.merge_worker(&out.session.exec, &out.session.solver_stats(), &out.session.sat_stats());
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{generate_templates, ExecConfig};
    use meissa_ir::{AExp, BExp, CfgBuilder, CmpOp, FieldId, Stmt};
    use meissa_num::Bv;

    fn field(b: &mut CfgBuilder, name: &str, w: u16) -> FieldId {
        b.fields_mut().intern(name, w)
    }

    /// The exec-test Fig. 7a graph: n×n possible paths, n valid.
    fn fig7_cfg(n: u128) -> Cfg {
        let mut b = CfgBuilder::new();
        let dst = field(&mut b, "dstIP", 32);
        let port = field(&mut b, "egressPort", 9);
        let mac = field(&mut b, "dstMAC", 48);
        b.nop();
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

    fn canon(pool: &TermPool, t: TermId) -> String {
        pool.canonical_key(t)
    }

    #[test]
    fn parallel_matches_sequential_set_order_and_counters() {
        let cfg = fig7_cfg(7);
        let mut seq_session = SolveSession::new();
        let seq = generate_templates(&cfg, &mut seq_session, &ExecConfig::default());
        for threads in [2, 4, 8] {
            let mut par_session = SolveSession::new();
            let par = generate_templates(
                &cfg,
                &mut par_session,
                &ExecConfig {
                    threads,
                    // fig7(7) has only 49 possible paths; disable the
                    // worker right-sizing so this test keeps exercising
                    // the full parallel machinery.
                    min_paths_per_worker: 0,
                    ..ExecConfig::default()
                },
            );
            assert_eq!(par.templates.len(), seq.templates.len(), "t={threads}");
            for (a, b) in seq.templates.iter().zip(&par.templates) {
                assert_eq!(a.path, b.path, "same path sequence, same order");
                let ca: Vec<String> = a
                    .constraints
                    .iter()
                    .map(|&c| canon(&seq_session.pool, c))
                    .collect();
                let cb: Vec<String> = b
                    .constraints
                    .iter()
                    .map(|&c| canon(&par_session.pool, c))
                    .collect();
                assert_eq!(ca, cb, "same constraints in the same order");
                let fa: Vec<(FieldId, String)> = a
                    .final_values
                    .iter()
                    .map(|&(f, t)| (f, canon(&seq_session.pool, t)))
                    .collect();
                let fb: Vec<(FieldId, String)> = b
                    .final_values
                    .iter()
                    .map(|&(f, t)| (f, canon(&par_session.pool, t)))
                    .collect();
                assert_eq!(fa, fb, "same final values");
            }
            // Every tree edge is explored exactly once, so merged counters
            // equal the sequential run's.
            assert_eq!(par.stats.valid_paths, seq.stats.valid_paths);
            assert_eq!(par.stats.paths_explored, seq.stats.paths_explored);
            assert_eq!(par.stats.pruned, seq.stats.pruned);
            assert_eq!(par.stats.smt_checks, seq.stats.smt_checks);
        }
    }

    #[test]
    fn parallel_merges_counters_into_session() {
        let cfg = fig7_cfg(5);
        let mut seq_session = SolveSession::new();
        generate_templates(&cfg, &mut seq_session, &ExecConfig::default());
        let mut par_session = SolveSession::new();
        generate_templates(
            &cfg,
            &mut par_session,
            &ExecConfig {
                threads: 4,
                min_paths_per_worker: 0,
                ..ExecConfig::default()
            },
        );
        assert_eq!(par_session.exec.valid_paths, seq_session.exec.valid_paths);
        assert_eq!(par_session.exec.pruned, seq_session.exec.pruned);
        assert_eq!(
            par_session.solver_stats().checks,
            seq_session.solver_stats().checks
        );
    }

    #[test]
    fn cmp_paths_reconstructs_dfs_order() {
        let cfg = fig7_cfg(3);
        // Collect sequential order, then shuffle deterministically and
        // re-sort: the comparator must restore the original order.
        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        let original: Vec<Vec<NodeId>> = out.templates.iter().map(|t| t.path.clone()).collect();
        let mut shuffled = original.clone();
        shuffled.reverse();
        shuffled.swap(0, 1);
        shuffled.sort_by(|a, b| cmp_paths(&cfg, a, b));
        assert_eq!(shuffled, original);
    }

    #[test]
    fn explore_batch_returns_results_in_job_order() {
        let cfg = fig7_cfg(4);
        let dst = cfg.fields.get("dstIP").unwrap();
        let mut session = SolveSession::new();
        let mut ctx = SymCtx::new(None);
        let dst_var = {
            use crate::symstate::ValueStack;
            let v0 = ValueStack::new();
            ctx.read(&mut session.pool, &cfg.fields, &v0, dst)
        };
        // One job per dst pin: each has exactly one valid path.
        let jobs: Vec<ExploreJob> = (0..4u128)
            .map(|i| {
                let k = session.pool.bv_const(Bv::new(32, 0x01010101 + i));
                let pin = session.pool.eq(dst_var, k);
                ExploreJob {
                    start: cfg.entry(),
                    targets: HashSet::new(),
                    base: vec![pin],
                    base_sat: false,
                    seeds: Vec::new(),
                    scope: None,
                }
            })
            .collect();
        let config = ExecConfig {
            threads: 4,
            min_paths_per_worker: 0,
            ..ExecConfig::default()
        };
        let results = explore_batch(&cfg, &mut session, &config, &jobs);
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.paths.len(), 1, "job {i}: one pinned path");
            // The imported base constraint round-trips to the job's own pin.
            assert_eq!(r.paths[0].constraints[0], jobs[i].base[0]);
        }
        // Worker counters merged: 4 jobs × (1 valid + 3 pruned per table).
        assert_eq!(session.exec.valid_paths, 4);
        assert_eq!(session.exec.pruned, 24);
    }
}
