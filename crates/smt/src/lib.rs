//! An incremental SMT solver for the quantifier-free bitvector fragment that
//! Meissa's constraint language (paper Fig. 3) generates.
//!
//! The paper uses Z3. No SMT solver crate is available in this offline
//! environment, so this crate implements the same decision pipeline Z3 uses
//! for `QF_BV`:
//!
//! 1. [`term`] — hash-consed terms over fixed-width bitvectors and booleans,
//!    with aggressive constant folding and local rewrites at construction.
//! 2. [`blast`] — Tseitin bit-blasting of terms into CNF over fresh SAT
//!    variables (ripple-carry adders, lexicographic comparators, gate
//!    caching so shared subterms are encoded once).
//! 3. [`sat`] — a CDCL SAT solver: two-watched-literal propagation, 1-UIP
//!    conflict learning, VSIDS decision heuristic, phase saving, Luby
//!    restarts, and solving under assumptions.
//! 4. [`solver`] — the incremental façade: `push` / `assert_term` / `check` /
//!    `model` / `pop`. Frames are implemented with activation literals (each
//!    frame's clauses are guarded by a fresh literal assumed during `check`
//!    and permanently disabled on `pop`), the standard incremental-SAT
//!    technique. This is the mechanism behind the paper's observation that
//!    early termination stays cheap because "the solver reuses intermediate
//!    results from previous invocations" (§3.2).
//!
//! # Example
//!
//! ```
//! use meissa_smt::{TermPool, Solver, CheckResult};
//! use meissa_num::Bv;
//!
//! let mut pool = TermPool::new();
//! let mut solver = Solver::new();
//! let x = pool.var("x", 8);
//! let seven = pool.bv_const(Bv::new(8, 7));
//! let sum = pool.add(x, seven);
//! let target = pool.bv_const(Bv::new(8, 3));
//! let c = pool.eq(sum, target);
//!
//! solver.push();
//! solver.assert_term(&mut pool, c);
//! assert_eq!(solver.check(&mut pool), CheckResult::Sat);
//! let model = solver.model(&pool);
//! assert_eq!(model.value_of("x").unwrap(), Bv::new(8, 252)); // 252 + 7 ≡ 3 (mod 256)
//! solver.pop();
//! ```

pub mod blast;
pub mod sat;
pub mod solver;
pub mod term;

pub use sat::{ClauseExchange, PortableLit, SharedClause};
pub use solver::{CheckResult, Model, Solver, SolverStats};
pub use term::{TermId, TermNode, TermPool, VarId};
