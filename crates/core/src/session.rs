//! The unified solve session threaded through the engine layers.
//!
//! Historically `engine` → `summary` → `exec` passed a `&mut TermPool`, a
//! `Solver`, and loose stat counters as separate parameters at every level.
//! [`SolveSession`] bundles them: one term pool, one current incremental
//! solver, and cumulative statistics across every exploration the session
//! ran. Besides removing the parameter threading, the bundle is the unit a
//! future parallel DFS hands to each worker — a worker owns one session,
//! and merging workers is merging their cumulative stats.

use crate::exec::ExecStats;
use meissa_smt::sat::SatStats;
use meissa_smt::{
    CheckResult, ClauseExchange, SharedClause, Solver, SolverStats, TermId, TermPool,
};
use meissa_testkit::obs;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Longest learned clause worth exchanging: short clauses prune the most
/// per literal, and translation cost is linear in clause length.
const MAX_SHARE_LITS: usize = 8;
/// Cap on clauses parked for retry because their atoms are not blasted yet.
const MAX_PENDING_IMPORTS: usize = 512;

/// Live observability metrics for the session cache layer
/// (`meissa_session_*` in the Prometheus exposition). Only touched when
/// [`obs::active`].
struct ObsMetrics {
    cache_probes: Arc<obs::Counter>,
    cache_hits: Arc<obs::Counter>,
    arm_batch: Arc<obs::Histogram>,
    clauses_exported: Arc<obs::Counter>,
    clauses_imported: Arc<obs::Counter>,
}

fn obs_metrics() -> &'static ObsMetrics {
    static M: OnceLock<ObsMetrics> = OnceLock::new();
    M.get_or_init(|| ObsMetrics {
        cache_probes: obs::counter("session.cache_probes"),
        cache_hits: obs::counter("session.cache_hits"),
        arm_batch: obs::histogram("session.arm_batch_size"),
        clauses_exported: obs::counter("session.clauses_exported"),
        clauses_imported: obs::counter("session.clauses_imported"),
    })
}

/// Verdict of one branch-arm probe (see [`SolveSession::probe_arms`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The prefix extended by the arm is satisfiable.
    Sat,
    /// The prefix extended by the arm is unsatisfiable.
    Unsat,
}

/// One solving context: term pool + current incremental solver + cumulative
/// statistics. All engine-layer entry points ([`crate::exec::explore_in_session`],
/// [`crate::exec::generate_templates`], [`crate::summary::summarize`]) take
/// `&mut SolveSession` instead of loose `(pool, solver, stats)` triples.
pub struct SolveSession {
    /// The term pool every constraint of this session lives in.
    pub pool: TermPool,
    /// The current incremental solver every probe goes to. Crate-private:
    /// explorations manage frames and check accounting through it, and
    /// [`SolveSession::reset_solver`] replaces it wholesale.
    pub(crate) solver: Solver,
    /// Cumulative execution counters across every exploration this session
    /// ran (each call also returns its own per-call [`ExecStats`] delta).
    pub exec: ExecStats,
    /// Solver counters retired by [`SolveSession::reset_solver`]; added to
    /// the live solver's counters by [`SolveSession::solver_stats`].
    retired: SolverStats,
    /// SAT-engine counters retired alongside [`SolveSession::retired`];
    /// added to the live engine's counters by [`SolveSession::sat_stats`].
    retired_sat: SatStats,
    /// Live-solver checks already attributed to some exploration's
    /// per-call stats (the incremental-check delta accounting previously
    /// kept by the `Explorer`).
    pub(crate) checks_consumed: u64,
    /// `(canonical constraint set) → unsat?` verdicts from early-termination
    /// probes. Satisfiability is context-free in the constraint set, so the
    /// cache is sound across explorations, CFGs, and solver resets within
    /// one session; a parallel worker re-exploring a familiar region after
    /// a donation skips already-decided sibling arms. Keys are 128-bit
    /// content hashes folded from per-conjunct structural hashes
    /// ([`meissa_smt::TermPool::term_hash`]) — pool-independent like the
    /// canonical renderings they replaced, but allocation-free per probe.
    pub(crate) verdict_cache: HashMap<u128, bool>,
    /// Read-only verdicts inherited from the parent session at fork time.
    /// Consulted after a `verdict_cache` miss (a hit counts exactly like a
    /// local one) but never written: `verdict_cache` then holds only what
    /// this session decided itself, so a batched-exploration driver can
    /// merge those *discoveries* back deterministically.
    pub(crate) base_verdicts: Option<Arc<HashMap<u128, bool>>>,
    /// The cross-worker learned-clause pool, when clause sharing is on.
    /// Export happens at solver-retire boundaries ([`SolveSession::
    /// reset_solver`] / [`SolveSession::share_learned`]); import at the
    /// driver's task boundaries via [`SolveSession::import_shared`].
    exchange: Option<Arc<ClauseExchange>>,
    /// This session's worker id on the exchange (own clauses are skipped).
    exchange_wid: usize,
    /// How far into the exchange this session has read.
    exchange_cursor: usize,
    /// Shared clauses whose atoms the live solver has not blasted yet;
    /// retried on the next import, bounded by [`MAX_PENDING_IMPORTS`].
    pending_import: Vec<SharedClause>,
    /// Content hashes of clauses already published, so successive retire
    /// boundaries don't republish the re-exported survivors.
    published: HashSet<u64>,
}

/// One step of the order-sensitive 64-bit lane fold behind [`verdict_key`]
/// (the same splitmix64 finalizer the term pool uses for structural hashes).
#[inline]
fn fold_step(mut h: u64, v: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(v);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Running state of the two independently-seeded key lanes.
#[derive(Clone, Copy)]
pub(crate) struct KeyLanes(u64, u64);

impl KeyLanes {
    /// Seeds chosen so the two lanes diverge immediately; any fixed,
    /// distinct pair works.
    pub(crate) fn new() -> KeyLanes {
        KeyLanes(0x6d65_6973_7361_2d61, 0x6d65_6973_7361_2d62)
    }

    pub(crate) fn fold(mut self, hashes: &[u64]) -> KeyLanes {
        for &h in hashes {
            self.0 = fold_step(self.0, h);
            self.1 = fold_step(self.1, !h);
        }
        self
    }

    pub(crate) fn key(self) -> u128 {
        (self.0 as u128) << 64 | self.1 as u128
    }
}

/// The 128-bit verdict-cache key for a constraint set given as per-conjunct
/// structural hashes: two independent order-sensitive lane folds,
/// concatenated. Same sequence → same key on any pool; distinct sequences
/// collide with probability ~2⁻¹²⁸.
pub(crate) fn verdict_key(hashes: &[u64]) -> u128 {
    KeyLanes::new().fold(hashes).key()
}

impl Default for SolveSession {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveSession {
    /// A fresh session: empty pool, fresh solver, zeroed statistics.
    pub fn new() -> Self {
        SolveSession {
            pool: TermPool::new(),
            solver: Solver::new(),
            exec: ExecStats::default(),
            retired: SolverStats::default(),
            retired_sat: SatStats::default(),
            checks_consumed: 0,
            verdict_cache: HashMap::new(),
            base_verdicts: None,
            exchange: None,
            exchange_wid: 0,
            exchange_cursor: 0,
            pending_import: Vec::new(),
            published: HashSet::new(),
        }
    }

    /// A worker session *forked* from a main pool: its pool starts as a
    /// clone, so every main-pool `TermId` below the fork point stays valid
    /// verbatim inside the worker — prefix constraints and value seeds need
    /// no translation on the way in, and
    /// [`meissa_smt::TermPool::import_from`] translates only worker-created
    /// terms on the way back. Solver and counters start fresh; the caller
    /// folds them back with [`SolveSession::merge_worker`] at join.
    pub fn fork_from(pool: &TermPool) -> Self {
        SolveSession {
            pool: pool.clone(),
            solver: Solver::new(),
            exec: ExecStats::default(),
            retired: SolverStats::default(),
            retired_sat: SatStats::default(),
            checks_consumed: 0,
            // Workers start cold: cloning the main cache would mostly copy
            // entries for regions the worker never visits, and the merged
            // counters should reflect what each worker actually decided.
            // Drivers that *do* want inherited verdicts attach a read-only
            // snapshot via `base_verdicts` instead.
            verdict_cache: HashMap::new(),
            base_verdicts: None,
            exchange: None,
            exchange_wid: 0,
            exchange_cursor: 0,
            pending_import: Vec::new(),
            published: HashSet::new(),
        }
    }

    /// Attaches the cross-worker clause exchange; `wid` identifies this
    /// session so it never re-imports its own exports.
    pub(crate) fn attach_exchange(&mut self, exchange: Arc<ClauseExchange>, wid: usize) {
        self.exchange = Some(exchange);
        self.exchange_wid = wid;
        self.exchange_cursor = 0;
    }

    /// Publishes the live solver's short, portable learned clauses to the
    /// exchange (no-op without one). Called from every retire boundary and
    /// by drivers at worker exit, so siblings stop re-deriving conflicts
    /// this solver already paid for.
    pub(crate) fn share_learned(&mut self) {
        let Some(ex) = self.exchange.clone() else {
            return;
        };
        let mut exported = 0u64;
        for lits in self.solver.export_portable(MAX_SHARE_LITS) {
            let h = lits
                .iter()
                .fold(0x636c_6175_7365u64, |h, &(k, pol)| fold_step(h, k ^ pol as u64));
            if !self.published.insert(h) {
                continue;
            }
            if !ex.publish(self.exchange_wid, lits) {
                break; // exchange full — later boundaries need not retry
            }
            exported += 1;
        }
        if exported > 0 && obs::active() {
            obs_metrics().clauses_exported.add(exported);
        }
    }

    /// Imports clauses other workers published since the last call into the
    /// live solver (no-op without an exchange). Clauses mentioning atoms
    /// this solver has not blasted yet are parked and retried next time;
    /// imports are logical consequences of the shared constraint content,
    /// so verdicts — and with them every counter above the SAT engine —
    /// are unchanged.
    pub(crate) fn import_shared(&mut self) {
        let Some(ex) = self.exchange.clone() else {
            return;
        };
        let mut fresh = ex.read_new(self.exchange_wid, &mut self.exchange_cursor);
        if fresh.is_empty() && self.pending_import.is_empty() {
            return;
        }
        fresh.append(&mut self.pending_import);
        let (imported, deferred) = self.solver.import_portable(fresh);
        self.pending_import = deferred;
        if self.pending_import.len() > MAX_PENDING_IMPORTS {
            let excess = self.pending_import.len() - MAX_PENDING_IMPORTS;
            self.pending_import.drain(..excess);
        }
        if imported > 0 && obs::active() {
            obs_metrics().clauses_imported.add(imported as u64);
        }
    }

    /// Takes the verdicts this session decided itself, leaving the local
    /// cache empty. With a `base_verdicts` snapshot attached these are
    /// exactly the *new* discoveries — what a batched driver merges back
    /// into the parent cache in deterministic job order.
    pub(crate) fn take_discoveries(&mut self) -> HashMap<u128, bool> {
        std::mem::take(&mut self.verdict_cache)
    }

    /// Replaces the incremental solver with a fresh one, retiring its
    /// counters into the session totals. A popped frame only disables its
    /// clauses, so a solver that never retires keeps growing; the parallel
    /// DFS workers retire theirs every few hundred checks to bound that.
    /// Explorations themselves run on the current solver: the SAT engine
    /// keeps the shared assumption prefix propagated between calls, so
    /// growth costs little, while re-blasting a fresh solver per summary
    /// job was most of gw-4's generation time.
    pub fn reset_solver(&mut self) {
        // A retiring solver's learned clauses are about to be dropped —
        // last chance to publish them for siblings.
        self.share_learned();
        let old = std::mem::replace(&mut self.solver, Solver::new());
        if obs::trace_on() {
            obs::event(
                "session.solver_retire",
                &[
                    ("checks", old.stats.checks),
                    ("learned", old.sat_stats().learned),
                ],
            );
        }
        self.retired = add_solver_stats(self.retired, old.stats);
        self.retired_sat = add_sat_stats(self.retired_sat, old.sat_stats());
        self.checks_consumed = 0;
    }

    /// Cumulative solver counters: every retired solver plus the live one.
    pub fn solver_stats(&self) -> SolverStats {
        add_solver_stats(self.retired, self.solver.stats)
    }

    /// Cumulative SAT-engine counters: every retired solver's engine plus
    /// the live one's.
    pub fn sat_stats(&self) -> SatStats {
        add_sat_stats(self.retired_sat, self.solver.sat_stats())
    }

    /// Live-solver checks not yet attributed to a per-exploration stats
    /// delta; marks them consumed.
    pub(crate) fn take_new_checks(&mut self) -> u64 {
        let delta = self.solver.stats.checks - self.checks_consumed;
        self.checks_consumed = self.solver.stats.checks;
        delta
    }

    /// Probes every sibling arm of a branch point in one batched solver
    /// interaction: per arm the verdict cache is consulted first (keyed on
    /// the content hash of `prefix ++ arm`, so verdicts survive across
    /// explorations and pools), the misses go to
    /// [`meissa_smt::Solver::check_under`] as one assumption batch over the
    /// solver's current frame stack, and fresh verdicts are fed back into
    /// the cache. The solver's live frames must assert exactly `prefix`.
    ///
    /// Every arm counts one check (cache hit or SAT run alike), keeping the
    /// Fig. 11b metric identical to individual `push/assert/check/pop`
    /// probing.
    pub fn probe_arms(&mut self, prefix: &[TermId], arms: &[TermId]) -> Vec<Verdict> {
        let prefix_hashes: Vec<u64> = prefix.iter().map(|&c| self.pool.term_hash(c)).collect();
        let arm_hashes: Vec<Vec<u64>> = arms
            .iter()
            .map(|&a| {
                // Key at conjunct granularity, sorted — the same shape the
                // walker uses, so verdicts flow both ways through the cache.
                let mut cs = Vec::new();
                crate::exec::flatten_conjuncts(&self.pool, a, &mut cs);
                let mut hs: Vec<u64> = cs.iter().map(|&c| self.pool.term_hash(c)).collect();
                hs.sort_unstable();
                hs
            })
            .collect();
        let mut exec = ExecStats::default();
        record_batch(&mut exec, arms.len());
        let verdicts = probe_arms_cached(
            &mut self.pool,
            &mut self.solver,
            &mut self.verdict_cache,
            self.base_verdicts.as_deref(),
            &mut exec,
            &prefix_hashes,
            arms,
            &arm_hashes,
        );
        exec.smt_checks += self.take_new_checks();
        self.record(&exec);
        verdicts
            .into_iter()
            .map(|unsat| if unsat { Verdict::Unsat } else { Verdict::Sat })
            .collect()
    }

    /// Folds one exploration's per-call counters into the session totals.
    pub(crate) fn record(&mut self, delta: &ExecStats) {
        self.exec.paths_explored += delta.paths_explored;
        self.exec.valid_paths += delta.valid_paths;
        self.exec.pruned += delta.pruned;
        self.exec.smt_checks += delta.smt_checks;
        self.exec.cache_probes += delta.cache_probes;
        self.exec.cache_hits += delta.cache_hits;
        self.exec.batched_probes += delta.batched_probes;
        self.exec.arm_batches += delta.arm_batches;
        self.exec.elapsed += delta.elapsed;
        self.exec.timed_out |= delta.timed_out;
    }

    /// Merges a parallel worker's cumulative counters into this session at
    /// join: execution tallies sum (and `timed_out` ORs) into
    /// [`SolveSession::exec`], solver counters fold into the retired totals
    /// so [`SolveSession::solver_stats`] covers every worker's solver.
    /// Merging N workers that together did a sequential run's work yields
    /// that run's counters: every field is a sum except `depth` (a gauge of
    /// the *live* solver, meaningless for a joined worker and dropped) and
    /// `max_depth` (a peak, merged via max).
    pub fn merge_worker(&mut self, exec: &ExecStats, solver: &SolverStats, sat: &SatStats) {
        self.record(exec);
        let dead = SolverStats {
            depth: 0, // joined workers hold no live frames
            ..*solver
        };
        self.retired = add_solver_stats(self.retired, dead);
        let dead_sat = SatStats {
            learned: 0, // a joined worker's clause store is gone
            ..*sat
        };
        self.retired_sat = add_sat_stats(self.retired_sat, dead_sat);
    }

    /// Consumes the session, yielding the pool (for [`crate::RunOutput`],
    /// whose templates' constraints live in it).
    pub fn into_pool(self) -> TermPool {
        self.pool
    }
}

/// Counts one branch point whose `arms` sibling arms were probed together
/// (batches of one are ordinary probes and not counted).
pub(crate) fn record_batch(exec: &mut ExecStats, arms: usize) {
    if arms >= 2 {
        exec.arm_batches += 1;
        exec.batched_probes += arms as u64;
        if obs::active() {
            obs_metrics().arm_batch.record(arms as u64);
        }
    }
}

/// The cache-then-batch probe shared by [`SolveSession::probe_arms`] and the
/// walker's branch expansion (which holds the session's pool, solver, and
/// cache as separate borrows). Per arm: one `cache_probes`; a hit answers
/// from the cache (one `cache_hits`, one `smt_checks` — cached validity
/// check); the misses go to one [`meissa_smt::Solver::check_under`] call
/// whose per-arm `checks` the caller attributes via `take_new_checks`, and
/// their verdicts are fed back into the cache. `prefix_hashes` are the
/// live frames' per-conjunct content hashes in assertion order. Returns
/// `unsat?` per arm, in order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_arms_cached(
    pool: &mut TermPool,
    solver: &mut Solver,
    cache: &mut HashMap<u128, bool>,
    base: Option<&HashMap<u128, bool>>,
    exec: &mut ExecStats,
    prefix_hashes: &[u64],
    arms: &[TermId],
    arm_hashes: &[Vec<u64>],
) -> Vec<bool> {
    debug_assert_eq!(arms.len(), arm_hashes.len());
    let obs_on = obs::active();
    let prefix_lanes = KeyLanes::new().fold(prefix_hashes);
    let mut verdicts: Vec<Option<bool>> = Vec::with_capacity(arms.len());
    let mut miss_terms: Vec<TermId> = Vec::new();
    let mut miss_keys: Vec<u128> = Vec::new();
    for (i, &arm) in arms.iter().enumerate() {
        exec.cache_probes += 1;
        let key = prefix_lanes.fold(&arm_hashes[i]).key();
        if let Some(&unsat) = cache
            .get(&key)
            .or_else(|| base.and_then(|b| b.get(&key)))
        {
            // A base-snapshot hit counts exactly like a local one but is
            // not copied down: `cache` stays "what this session decided".
            exec.cache_hits += 1;
            exec.smt_checks += 1; // cached validity check
            verdicts.push(Some(unsat));
        } else {
            verdicts.push(None);
            miss_terms.push(arm);
            miss_keys.push(key);
        }
    }
    if obs_on {
        let m = obs_metrics();
        m.cache_probes.add(arms.len() as u64);
        m.cache_hits.add((arms.len() - miss_terms.len()) as u64);
    }
    let solved = solver.check_under(pool, &miss_terms);
    let mut solved_it = solved.into_iter().zip(miss_keys);
    verdicts
        .into_iter()
        .map(|v| match v {
            Some(unsat) => unsat,
            None => {
                let (verdict, key) = solved_it.next().expect("one verdict per miss");
                let unsat = verdict == CheckResult::Unsat;
                cache.insert(key, unsat);
                unsat
            }
        })
        .collect()
}

/// `SolverStats` has no `Add` impl upstream; the session sums every counter
/// except `depth`, which is a gauge (the retired solver's depth is dead, the
/// live one's is current), and `max_depth`, a peak merged via max.
pub fn add_solver_stats(a: SolverStats, b: SolverStats) -> SolverStats {
    SolverStats {
        checks: a.checks + b.checks,
        fast_path: a.fast_path + b.fast_path,
        sat_engine_calls: a.sat_engine_calls + b.sat_engine_calls,
        model_reuse: a.model_reuse + b.model_reuse,
        sat: a.sat + b.sat,
        unsat: a.unsat + b.unsat,
        depth: b.depth,
        max_depth: a.max_depth.max(b.max_depth),
    }
}

/// Sums SAT-engine tallies; `learned` is a gauge (clauses *currently*
/// retained), so the live side's value wins — mirroring how
/// [`add_solver_stats`] treats `depth`.
pub fn add_sat_stats(a: SatStats, b: SatStats) -> SatStats {
    SatStats {
        solves: a.solves + b.solves,
        conflicts: a.conflicts + b.conflicts,
        decisions: a.decisions + b.decisions,
        propagations: a.propagations + b.propagations,
        restarts: a.restarts + b.restarts,
        learned: b.learned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_retires_counters() {
        let mut s = SolveSession::new();
        let t = s.pool.bool_const(true);
        s.solver.push();
        s.solver.assert_term(&mut s.pool, t);
        s.solver.check(&mut s.pool);
        assert_eq!(s.solver_stats().checks, 1);
        s.reset_solver();
        assert_eq!(s.solver_stats().checks, 1, "retired checks survive reset");
        assert_eq!(s.take_new_checks(), 0, "fresh solver has no new checks");
        s.solver.push();
        s.solver.assert_term(&mut s.pool, t);
        s.solver.check(&mut s.pool);
        assert_eq!(s.solver_stats().checks, 2);
        assert_eq!(s.take_new_checks(), 1);
    }

    #[test]
    fn merging_workers_equals_sequential_counters() {
        // A sequential run whose work was split across 3 workers must
        // reconstruct the same counters at join: tallies sum, peaks max.
        let worker_exec = [
            ExecStats {
                paths_explored: 4,
                valid_paths: 2,
                pruned: 1,
                smt_checks: 9,
                cache_probes: 6,
                cache_hits: 2,
                batched_probes: 4,
                arm_batches: 2,
                elapsed: std::time::Duration::from_millis(5),
                timed_out: false,
            },
            ExecStats {
                paths_explored: 3,
                valid_paths: 3,
                pruned: 0,
                smt_checks: 7,
                cache_probes: 4,
                cache_hits: 0,
                batched_probes: 2,
                arm_batches: 1,
                elapsed: std::time::Duration::from_millis(4),
                timed_out: false,
            },
            ExecStats {
                paths_explored: 1,
                valid_paths: 0,
                pruned: 2,
                smt_checks: 5,
                cache_probes: 3,
                cache_hits: 1,
                batched_probes: 0,
                arm_batches: 0,
                elapsed: std::time::Duration::from_millis(1),
                timed_out: false,
            },
        ];
        let worker_solver = [
            SolverStats {
                checks: 9,
                fast_path: 4,
                sat_engine_calls: 5,
                model_reuse: 1,
                sat: 6,
                unsat: 3,
                depth: 3,
                max_depth: 7,
            },
            SolverStats {
                checks: 7,
                fast_path: 2,
                sat_engine_calls: 5,
                model_reuse: 0,
                sat: 5,
                unsat: 2,
                depth: 1,
                max_depth: 11,
            },
            SolverStats {
                checks: 5,
                fast_path: 5,
                sat_engine_calls: 0,
                model_reuse: 1,
                sat: 1,
                unsat: 4,
                depth: 2,
                max_depth: 4,
            },
        ];
        let worker_sat = [
            SatStats { solves: 5, conflicts: 2, decisions: 9, propagations: 40, restarts: 1, learned: 3 },
            SatStats { solves: 5, conflicts: 1, decisions: 7, propagations: 30, restarts: 0, learned: 2 },
            SatStats { solves: 0, conflicts: 0, decisions: 0, propagations: 0, restarts: 0, learned: 0 },
        ];
        let mut main = SolveSession::new();
        for ((e, s), sat) in worker_exec.iter().zip(&worker_solver).zip(&worker_sat) {
            main.merge_worker(e, s, sat);
        }
        // Execution tallies: sums of the per-worker deltas.
        assert_eq!(main.exec.paths_explored, 8);
        assert_eq!(main.exec.valid_paths, 5);
        assert_eq!(main.exec.pruned, 3);
        assert_eq!(main.exec.smt_checks, 21);
        assert_eq!(main.exec.cache_probes, 13);
        assert_eq!(main.exec.cache_hits, 3);
        assert_eq!(main.exec.batched_probes, 6);
        assert_eq!(main.exec.arm_batches, 3);
        assert!(!main.exec.timed_out);
        // Solver tallies: sums; peak depth via max; live depth is the main
        // session's own (0 — joined workers hold no frames here).
        let s = main.solver_stats();
        assert_eq!(s.checks, 21);
        assert_eq!(s.fast_path, 11);
        assert_eq!(s.sat_engine_calls, 10);
        assert_eq!(s.model_reuse, 2);
        assert_eq!(s.sat, 12);
        assert_eq!(s.unsat, 9);
        assert_eq!(s.max_depth, 11, "peak depth merges via max");
        assert_eq!(s.depth, 0, "worker live depth is not carried over");
        let sat = main.sat_stats();
        assert_eq!(sat.solves, 10);
        assert_eq!(sat.propagations, 70);
        assert_eq!(sat.learned, 0, "worker clause stores are not carried over");
    }

    #[test]
    fn merge_worker_propagates_timeout() {
        let mut main = SolveSession::new();
        let mut e = ExecStats::default();
        main.merge_worker(&e, &SolverStats::default(), &SatStats::default());
        assert!(!main.exec.timed_out);
        e.timed_out = true;
        main.merge_worker(&e, &SolverStats::default(), &SatStats::default());
        assert!(main.exec.timed_out, "one timed-out worker flags the run");
    }

    #[test]
    fn merge_worker_composes_with_own_explorations() {
        // Counters a session accumulated itself and counters absorbed from
        // workers land in the same totals.
        let mut s = SolveSession::new();
        let t = s.pool.bool_const(true);
        s.solver.push();
        s.solver.assert_term(&mut s.pool, t);
        s.solver.check(&mut s.pool);
        let own_checks = s.solver_stats().checks;
        s.merge_worker(
            &ExecStats {
                smt_checks: 3,
                ..ExecStats::default()
            },
            &SolverStats {
                checks: 3,
                max_depth: 2,
                ..SolverStats::default()
            },
            &SatStats::default(),
        );
        assert_eq!(s.solver_stats().checks, own_checks + 3);
        assert_eq!(s.exec.smt_checks, 3);
    }

    #[test]
    fn record_accumulates() {
        let mut s = SolveSession::new();
        let d = ExecStats {
            paths_explored: 3,
            valid_paths: 2,
            pruned: 1,
            smt_checks: 5,
            cache_probes: 4,
            cache_hits: 2,
            batched_probes: 3,
            arm_batches: 1,
            elapsed: std::time::Duration::from_millis(2),
            timed_out: false,
        };
        s.record(&d);
        s.record(&d);
        assert_eq!(s.exec.paths_explored, 6);
        assert_eq!(s.exec.smt_checks, 10);
        assert_eq!(s.exec.cache_probes, 8);
        assert_eq!(s.exec.cache_hits, 4);
        assert!(!s.exec.timed_out);
    }
}
