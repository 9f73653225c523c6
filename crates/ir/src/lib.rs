//! The control flow graph intermediate representation of paper §3.1.
//!
//! A data plane program — P4lite source plus its installed table rules plus
//! the multi-pipeline topology — is compiled (by `meissa-lang`) into one
//! acyclic CFG whose nodes each carry a single statement (Fig. 3):
//!
//! * **predicate** nodes, `assume bexp` — branch conditions from `if`
//!   statements, parser `select` arms, and table rule match conditions;
//! * **action** nodes, `field ← aexp` — assignments from table actions and
//!   parser extraction.
//!
//! Pipelines appear as single-entry / single-exit regions delimited by
//! no-op marker nodes, which is what Algorithm 2's code summary operates on.
//!
//! The crate also provides the paper's concrete evaluation relation
//! (Fig. 4, [`eval`]), possible/valid path machinery (Definitions 1 and 2),
//! DAG path counting with arbitrary precision (the `10^390` numbers of
//! Fig. 11c/12c), and the tuple-space [`match_index`] that both the switch
//! target and the symbolic walker use to decide wide table forks by key.

pub mod cfg;
pub mod eval;
pub mod exp;
pub mod fields;
pub mod hash;
pub mod match_index;
pub mod paths;
pub mod unroll;

pub use cfg::{Cfg, CfgBuilder, Node, NodeId, PipelineId, PipelineInfo, RuleArm, RuleSite};
pub use eval::{eval_path, eval_stmt, ConcreteState, EvalError};
pub use exp::{AExp, AOp, BExp, BOp, CmpOp, Stmt};
pub use fields::{FieldId, FieldTable};
pub use hash::HashAlg;
pub use match_index::MatchIndex;
pub use paths::{count_paths, count_paths_between, count_paths_with, enumerate_paths, PathCounts};
pub use unroll::{
    is_register_field, sequence_field_name, unroll, InitialState, UnrolledCfg,
    REGISTER_FIELD_PREFIX,
};
