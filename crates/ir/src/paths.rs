//! Possible-path machinery: Definition 1 enumeration and DAG path counting.
//!
//! Counting uses dynamic programming over the topological order with
//! [`BigUint`] — the paper reports possible-path counts up to `10^390`
//! (Fig. 12c), far beyond machine integers, and those counts are exactly
//! what the Fig. 11c/12c benches print.

use crate::cfg::{Cfg, NodeId};
use meissa_num::BigUint;

/// Path-count results for a CFG.
#[derive(Clone, Debug)]
pub struct PathCounts {
    /// Number of possible paths from the entry to any terminal node.
    pub total: BigUint,
}

impl PathCounts {
    /// `log10` of the total, for plotting (Fig. 11c's axis).
    pub fn log10(&self) -> f64 {
        self.total.log10()
    }
}

/// Counts possible paths from the entry to all terminal nodes
/// (Definition 1: maximal paths following `succ`).
pub fn count_paths(cfg: &Cfg) -> PathCounts {
    PathCounts {
        total: count_paths_between(cfg, cfg.entry(), None),
    }
}

/// Counts paths from `from` to `to` (or to any terminal node when `to` is
/// `None`). Runs in `O(V + E)` BigUint operations.
pub fn count_paths_between(cfg: &Cfg, from: NodeId, to: Option<NodeId>) -> BigUint {
    count_paths_with(
        cfg,
        from,
        to,
        BigUint::zero(),
        BigUint::one(),
        BigUint::add_assign,
    )
}

/// Path counting in any count type: one reverse-topological pass over a
/// dense per-node table, where a path's end counts `one` and `add` folds a
/// successor's count into its predecessor's in place. Counts paths from
/// `from` to `to` (or to any terminal node when `to` is `None`); an
/// unreachable `from` counts `zero`.
pub fn count_paths_with<T: Clone>(
    cfg: &Cfg,
    from: NodeId,
    to: Option<NodeId>,
    zero: T,
    one: T,
    add: impl Fn(&mut T, &T),
) -> T {
    // Count, for each node, the number of maximal paths starting at it,
    // processing nodes in reverse topological order.
    let mut counts = vec![zero.clone(); cfg.num_nodes()];
    for &n in cfg.topo_order().iter().rev() {
        let succ = cfg.succ(n);
        let c = if Some(n) == to || (succ.is_empty() && to.is_none()) {
            one.clone()
        } else {
            let mut acc = zero.clone();
            for &s in succ {
                add(&mut acc, &counts[s.0 as usize]);
            }
            acc
        };
        counts[n.0 as usize] = c;
    }
    counts.swap_remove(from.0 as usize)
}

/// Enumerates possible paths from the entry, stopping after `limit` paths.
///
/// Exists for tests and small examples; production-scale graphs have
/// astronomically many possible paths, which is the entire point of the
/// paper — use [`count_paths`] for those.
pub fn enumerate_paths(cfg: &Cfg, limit: usize) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut stack = vec![cfg.entry()];
    enumerate_rec(cfg, &mut stack, &mut out, limit);
    out
}

fn enumerate_rec(cfg: &Cfg, stack: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>, limit: usize) {
    if out.len() >= limit {
        return;
    }
    let cur = *stack.last().unwrap();
    let succ = cfg.succ(cur);
    if succ.is_empty() {
        out.push(stack.clone());
        return;
    }
    for &s in succ {
        stack.push(s);
        enumerate_rec(cfg, stack, out, limit);
        stack.pop();
        if out.len() >= limit {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::CfgBuilder;
    use crate::exp::{AExp, BExp, CmpOp, Stmt};
    use meissa_num::Bv;

    /// Builds a diamond ladder with `k` stages, each stage branching `n`
    /// ways — `n^k` possible paths, the shape of Appendix A's analysis.
    fn ladder(k: usize, n: usize) -> Cfg {
        let mut b = CfgBuilder::new();
        let f = b.fields_mut().intern("x", 32);
        b.nop();
        for _ in 0..k {
            let base = b.frontier();
            let mut arms = Vec::new();
            for i in 0..n {
                b.set_frontier(base.clone());
                b.stmt(Stmt::Assume(BExp::Cmp(
                    CmpOp::Eq,
                    AExp::Field(f),
                    AExp::Const(Bv::new(32, i as u128)),
                )));
                arms.push(b.frontier());
            }
            b.set_frontier(Vec::new());
            b.merge_frontiers(arms);
            b.nop();
        }
        b.finish()
    }

    #[test]
    fn straight_line_has_one_path() {
        let g = ladder(0, 0);
        assert_eq!(count_paths(&g).total, BigUint::one());
        assert_eq!(enumerate_paths(&g, 10).len(), 1);
    }

    #[test]
    fn ladder_counts_exponentially() {
        let g = ladder(5, 3);
        assert_eq!(count_paths(&g).total, BigUint::pow(&BigUint::from_u64(3), 5));
    }

    #[test]
    fn big_ladder_reaches_paper_scale() {
        // 100 stages × 10000 branches = 10^400 possible paths, the Fig. 12c
        // scale — counting stays fast because it's DP, not enumeration.
        let g = ladder(100, 100);
        let c = count_paths(&g);
        assert!((c.log10() - 200.0).abs() < 0.01, "log10 = {}", c.log10());
    }

    #[test]
    fn enumerate_respects_limit() {
        let g = ladder(4, 4); // 256 paths
        assert_eq!(enumerate_paths(&g, 10).len(), 10);
        assert_eq!(enumerate_paths(&g, 1000).len(), 256);
    }

    #[test]
    fn enumerated_paths_are_possible_paths() {
        let g = ladder(3, 2);
        for p in enumerate_paths(&g, 100) {
            assert_eq!(p[0], g.entry());
            for w in p.windows(2) {
                assert!(g.succ(w[0]).contains(&w[1]), "broken edge");
            }
            assert!(g.succ(*p.last().unwrap()).is_empty(), "not maximal");
        }
    }

    #[test]
    fn count_between_specific_nodes() {
        let g = ladder(2, 3);
        // From entry to the first join node: 3 paths.
        let order = g.topo_order();
        // First join is the node right after the 3 stage-one predicates.
        let join = order[4];
        assert_eq!(
            count_paths_between(&g, g.entry(), Some(join)),
            BigUint::from_u64(3)
        );
    }
}
