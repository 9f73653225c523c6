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
use meissa_smt::{Solver, SolverStats, TermPool};
use meissa_testkit::obs;
use std::sync::{Arc, OnceLock};

/// The batch-size histogram (`meissa_session_arm_batch_size` in the
/// Prometheus exposition). Only touched when [`obs::active`].
fn arm_batch_histogram() -> &'static Arc<obs::Histogram> {
    static H: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| obs::histogram("session.arm_batch_size"))
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
}

impl Default for SolveSession {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveSession {
    /// A fresh session: empty pool, fresh solver, zeroed statistics.
    pub fn new() -> Self {
        Self::fork_from(&TermPool::new())
    }

    /// A worker session *forked* from a main pool: its pool starts as a
    /// clone, so every main-pool `TermId` below the fork point stays valid
    /// verbatim inside the worker — prefix constraints and value seeds need
    /// no translation on the way in, and
    /// [`meissa_smt::TermPool::import_from`] translates only worker-created
    /// terms on the way back. Nothing else carries over: solver and
    /// counters start fresh, and the caller folds the counters back with
    /// [`SolveSession::merge_worker`] at join.
    pub fn fork_from(pool: &TermPool) -> Self {
        SolveSession {
            pool: pool.clone(),
            solver: Solver::new(),
            exec: ExecStats::default(),
            retired: SolverStats::default(),
            retired_sat: SatStats::default(),
            checks_consumed: 0,
        }
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

    /// Folds one exploration's per-call counters into the session totals.
    pub(crate) fn record(&mut self, delta: &ExecStats) {
        self.exec.paths_explored += delta.paths_explored;
        self.exec.valid_paths += delta.valid_paths;
        self.exec.pruned += delta.pruned;
        self.exec.smt_checks += delta.smt_checks;
        self.exec.batched_probes += delta.batched_probes;
        self.exec.arms_independent += delta.arms_independent;
        self.exec.arms_pinned += delta.arms_pinned;
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
            arm_batch_histogram().record(arms as u64);
        }
    }
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
                batched_probes: 4,
                arms_independent: 1,
                arms_pinned: 3,
                arm_batches: 2,
                elapsed: std::time::Duration::from_millis(5),
                timed_out: false,
            },
            ExecStats {
                paths_explored: 3,
                valid_paths: 3,
                pruned: 0,
                smt_checks: 7,
                batched_probes: 2,
                arms_independent: 0,
                arms_pinned: 1,
                arm_batches: 1,
                elapsed: std::time::Duration::from_millis(4),
                timed_out: false,
            },
            ExecStats {
                paths_explored: 1,
                valid_paths: 0,
                pruned: 2,
                smt_checks: 5,
                batched_probes: 0,
                arms_independent: 0,
                arms_pinned: 2,
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
        assert_eq!(main.exec.batched_probes, 6);
        assert_eq!(main.exec.arms_independent, 1);
        assert_eq!(main.exec.arms_pinned, 6);
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
            batched_probes: 3,
            arms_independent: 2,
            arms_pinned: 1,
            arm_batches: 1,
            elapsed: std::time::Duration::from_millis(2),
            timed_out: false,
        };
        s.record(&d);
        s.record(&d);
        assert_eq!(s.exec.paths_explored, 6);
        assert_eq!(s.exec.smt_checks, 10);
        assert_eq!(s.exec.batched_probes, 6);
        assert_eq!(s.exec.arms_independent, 4);
        assert_eq!(s.exec.arms_pinned, 2);
        assert_eq!(s.exec.arm_batches, 2);
        assert!(!s.exec.timed_out);
    }
}
