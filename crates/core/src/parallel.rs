//! Work-stealing parallel path exploration over per-worker [`SolveSession`]s.
//!
//! The DFS + SMT loop of Algorithm 1 dominates end-to-end cost, and
//! independent path suffixes explore independently — so the explorer shards
//! the DFS *tree* across worker threads:
//!
//! * A **task** is a sibling range: `(path-prefix, constraint-prefix,
//!   value-snapshot, arms)`, where `arms` are children of one branch node,
//!   either decided — each feasible arm with the guard its parent already
//!   settled ([`crate::exec::PreArm`]) — or, when split off a wide batch of
//!   probes, still undecided. Term ids are pool-local, so a task carries
//!   its prefix terms and the arms' conjuncts in a private minipool; the
//!   donor translates once ([`TermPool::import`]) and the receiving worker
//!   translates into its own pool before re-establishing the prefix
//!   (asserted in one solver frame, *without* re-checking — the donor
//!   already validated it). The seed task is the one-arm range `[start]`.
//! * Each worker owns one [`SolveSession`] (pool + incremental solver +
//!   counters) that persists across tasks, keeping the solver's
//!   bit-blasting cache warm. Discovered [`RawPath`]s ship back over an
//!   [`std::sync::mpsc`] channel, tagged with the worker id so the merge
//!   step knows which pool their terms live in.
//! * **Work sharing**: before descending into each sibling, a walker whose
//!   frontier is hungry donates the back half of the unstarted siblings of
//!   its *shallowest* open range as one range task
//!   ([`WorkSharer::donate`]), and between chunks of a wide probe batch it
//!   donates the back half of the arms not yet probed; the receiver may
//!   split its range again. Every arm is decided once and every tree edge
//!   is explored once, by exactly one worker — which is why merged
//!   per-worker counters equal a sequential run's.
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
    explore_task, Arms, ExecConfig, ExecStats, ExploreBudget, PreArm, RawPath, WorkSharer,
};
use crate::session::SolveSession;
use crate::symstate::{HashDef, SymCtx};
use meissa_ir::{Cfg, FieldId, NodeId};
use meissa_smt::{ClauseExchange, TermId, TermNode, TermPool};
use meissa_testkit::obs;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Slots in the cross-worker learned-clause exchange. Publication is
/// append-only and drops on overflow, so this bounds both memory and the
/// work a late import can possibly do.
const EXCHANGE_CAPACITY: usize = 4096;

/// The cross-worker clause pool for a run, honoring the
/// `MEISSA_CLAUSE_SHARE` switch (`off` disables sharing; anything else —
/// including unset — enables it for multi-worker runs).
fn clause_exchange(workers: usize) -> Option<Arc<ClauseExchange>> {
    if workers < 2 {
        return None; // nothing to exchange with
    }
    if std::env::var("MEISSA_CLAUSE_SHARE").is_ok_and(|v| v == "off") {
        return None;
    }
    Some(Arc::new(ClauseExchange::new(EXCHANGE_CAPACITY)))
}

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
    /// Have the arms' guards been decided (see [`Arms`])?
    decided: bool,
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

/// The shared work queue. `idle_hint`/`queue_hint` mirror the mutex-guarded
/// state so [`WorkSharer::hungry`] — consulted before every sibling a walker
/// descends into — costs two relaxed atomic loads, not a lock.
struct Frontier {
    state: Mutex<FrontierState>,
    available: Condvar,
    idle_hint: AtomicUsize,
    queue_hint: AtomicUsize,
}

impl Frontier {
    fn new(initial: Task) -> Self {
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
    fn hungry(&self) -> bool {
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
        decided: bool,
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
            &[
                ("arms", arms.len() as u64),
                ("depth", trace.len() as u64),
                ("decided", decided as u64),
            ],
        );
        let mut st = self.state.lock().unwrap();
        st.tasks.push_back(Task {
            trace: trace.to_vec(),
            pool: Some(mini),
            constraints,
            values,
            arms,
            decided,
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
/// [`meissa_ir::count_paths_between`] in `u64` arithmetic, since the worker
/// cap only needs to distinguish "a handful" from "plenty" — real targets'
/// exact counts (up to 10^390) are irrelevant here.
fn possible_path_estimate(cfg: &Cfg, start: NodeId, limit: u64) -> u64 {
    let order = cfg.topo_order();
    let mut counts: HashMap<NodeId, u64> = HashMap::with_capacity(order.len());
    for &n in order.iter().rev() {
        let succ = cfg.succ(n);
        let c = if succ.is_empty() {
            1
        } else {
            succ.iter()
                .map(|s| counts.get(s).copied().unwrap_or(1))
                .fold(0u64, u64::saturating_add)
                .min(limit)
        };
        counts.insert(n, c);
    }
    counts.get(&start).copied().unwrap_or(1)
}

struct WorkerOutput {
    session: SolveSession,
    ctx: SymCtx,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    cfg: &Cfg,
    main_pool: &TermPool,
    targets: &HashSet<NodeId>,
    config: &ExecConfig,
    frontier: &Frontier,
    budget: &ExploreBudget,
    scope: Option<&str>,
    exchange: Option<&Arc<ClauseExchange>>,
    tx: mpsc::Sender<(usize, RawPath)>,
    wid: usize,
) -> WorkerOutput {
    // A popped solver frame only *disables* its clauses (the activation
    // literal is falsified, the clauses stay), so a long-lived solver's SAT
    // database — and with it every check — keeps growing as tasks
    // accumulate. The sequential engine pays that for the whole tree;
    // a worker bounds it by retiring its solver after this many checks and
    // re-blasting the (shallow) next prefix into a fresh one.
    const WORKER_RESET_CHECKS: u64 = 512;
    let t_worker = Instant::now();
    let mut span = obs::span("parallel.worker");
    span.field("wid", wid as u64);
    let mut session = SolveSession::fork_from(main_pool);
    if let Some(ex) = exchange {
        session.attach_exchange(ex.clone(), wid);
    }
    let mut ctx = SymCtx::new(scope);
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
            decided,
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
            &mut session,
            &mut ctx,
            arms,
            decided,
            targets,
            &trace,
            &constraints,
            &values,
            config,
            budget,
            Some(frontier),
            &mut |p| {
                // The receiver outlives the workers; a send only fails
                // after the main thread has given up on the run.
                let _ = tx.send((wid, p));
            },
        );
        frontier.finish_task();
        busy += t_task.elapsed();
    }
    // Last export: the clauses this worker learned after its final retire
    // boundary are still useful to stragglers.
    session.share_learned();
    span.field("tasks", tasks as u64);
    span.field("steals", steals);
    span.field("busy_us", busy.as_micros() as u64);
    span.field("steal_wait_us", steal_wait.as_micros() as u64);
    span.field("wall_us", t_worker.elapsed().as_micros() as u64);
    span.field("smt_checks", session.exec.smt_checks);
    WorkerOutput { session, ctx }
}

/// Parallel counterpart of [`crate::exec::explore_in_session`]: explores from
/// `start` across `config.threads` workers and returns the discovered valid
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
    base_constraints: &[TermId],
    initial_values: &[(FieldId, TermId)],
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
    if threads == 1 {
        let mut paths = Vec::new();
        let stats = crate::exec::explore_in_session(
            cfg,
            session,
            ctx,
            start,
            targets,
            base_constraints,
            initial_values,
            config,
            &mut |p| paths.push(p),
        );
        return (paths, stats);
    }
    let t0 = Instant::now();

    // Seed task: the caller's prefix ids are main-pool ids, valid verbatim
    // in every forked worker pool — no translation needed.
    let shared = session.pool.len() as u32;
    let mut vals: Vec<(FieldId, TermId)> = initial_values.to_vec();
    vals.sort_by_key(|&(f, _)| f);
    let frontier = Frontier::new(Task {
        trace: Vec::new(),
        pool: None,
        constraints: base_constraints.to_vec(),
        values: vals,
        arms: vec![(start, None)],
        decided: true,
    });
    let budget = ExploreBudget::new(config, t0);
    let scope: Option<String> = ctx.scope().map(str::to_string);
    let exchange = clause_exchange(threads);
    let (tx, rx) = mpsc::channel::<(usize, RawPath)>();

    let main_pool = &session.pool;
    // The main thread drains the path channel *inside* the scope, while
    // workers are still exploring — collecting (and allocating for) the
    // result set used to sit on the critical join path.
    let (outputs, mut tagged): (Vec<WorkerOutput>, Vec<(usize, RawPath)>) =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|wid| {
                    let frontier = &frontier;
                    let budget = &budget;
                    let scope = scope.as_deref();
                    let exchange = exchange.as_ref();
                    let tx = tx.clone();
                    s.spawn(move || {
                        worker_loop(
                            cfg, main_pool, targets, config, frontier, budget, scope, exchange,
                            tx, wid,
                        )
                    })
                })
                .collect();
            // Workers hold the remaining senders; the drain ends when the
            // last one exits its loop and drops its clone.
            drop(tx);
            let tagged: Vec<(usize, RawPath)> = rx.iter().collect();
            let outputs = handles
                .into_iter()
                .map(|h| h.join().expect("parallel exploration worker panicked"))
                .collect();
            (outputs, tagged)
        });

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
        stats.cache_probes += out.session.exec.cache_probes;
        stats.cache_hits += out.session.exec.cache_hits;
        stats.batched_probes += out.session.exec.batched_probes;
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
        /// (job index, paths in worker pool, stats, defs in worker pool,
        /// verdicts the job decided itself)
        done: Vec<(usize, Vec<RawPath>, ExecStats, Vec<HashDef>, HashMap<u128, bool>)>,
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
    // Workers see the main cache as a read-only snapshot: each job starts
    // from the same warm base at every thread count, which is what makes
    // per-job probe/hit/engine-call counters — and their batch sums —
    // thread-invariant. What a job decides on top of the base it keeps
    // locally; those discoveries are merged back below in job order.
    let base: Arc<HashMap<u128, bool>> = Arc::new(session.verdict_cache.clone());
    let exchange = clause_exchange(threads);
    let main_pool = &session.pool;
    let shared = main_pool.len() as u32;
    let outputs: Vec<BatchWorkerOutput> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let next = &next;
                let base = base.clone();
                let exchange = exchange.clone();
                s.spawn(move || {
                    // Fork the main pool once per worker: job prefixes are
                    // main-pool ids and need no translation on the way in.
                    let mut wsession = SolveSession::fork_from(main_pool);
                    wsession.base_verdicts = Some(base);
                    if let Some(ex) = exchange {
                        wsession.attach_exchange(ex, wid);
                    }
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
                            &mut wsession,
                            &mut ctx,
                            job.start,
                            &job.targets,
                            &job.base,
                            &job.seeds,
                            config,
                            &mut |p| paths.push(p),
                        );
                        let defs: Vec<HashDef> = ctx.hash_defs().cloned().collect();
                        // Emptying the local cache per job keeps every job's
                        // counters a function of (job, base) alone — not of
                        // which jobs this worker happened to run before.
                        let found = wsession.take_discoveries();
                        done.push((i, paths, stats, defs, found));
                    }
                    wsession.share_learned();
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
    #[allow(clippy::type_complexity)]
    let mut by_job: Vec<Option<(usize, &Vec<RawPath>, ExecStats, &Vec<HashDef>, &HashMap<u128, bool>)>> =
        (0..jobs.len()).map(|_| None).collect();
    for (w, out) in outputs.iter().enumerate() {
        for (i, paths, stats, defs, found) in &out.done {
            by_job[*i] = Some((w, paths, *stats, defs, found));
        }
    }
    let mut caches: Vec<HashMap<TermId, TermId>> = (0..outputs.len()).map(|_| HashMap::new()).collect();
    let mut results: Vec<JobResult> = Vec::with_capacity(jobs.len());
    for slot in by_job {
        let (w, paths, stats, defs, found) = slot.expect("every job was executed");
        // Fold the job's verdict discoveries into the main cache in job
        // order — a later `explore_batch` (or sequential exploration) in
        // the same session starts from the same warm cache regardless of
        // which worker ran which job. Keys are pool-independent content
        // hashes, so no translation is needed.
        for (&k, &v) in found {
            session.verdict_cache.entry(k).or_insert(v);
        }
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
            // Each predicate node probes exactly once regardless of which
            // worker visits it (donated prefixes are re-asserted without
            // re-probing); hit counts may differ — workers keep private
            // verdict caches — but probe counts must not.
            assert_eq!(par.stats.cache_probes, seq.stats.cache_probes);
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
