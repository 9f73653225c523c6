//! Property tests for the CDCL engine's trail reuse: `SatSolver::solve`
//! keeps the decision levels of the assumption prefix it shares with the
//! previous call instead of rewinding to level 0. On random CNF over at
//! most ten variables, a random sequence of solves whose assumptions share
//! prefixes — interleaved with clause additions, variable allocations and
//! assumptions that are already false — must answer every call exactly as
//! brute-force enumeration does, and every `Sat` assignment must satisfy
//! all clauses and all assumptions of that call.

use meissa_smt::sat::{Lit, SatResult, SatSolver, Var};
use meissa_testkit::prop::{self, G};
use meissa_testkit::{prop_assert, prop_assert_eq};

const MAX_VARS: usize = 10;

fn arb_lit(g: &mut G, nvars: usize) -> Lit {
    Lit::new(Var(g.index(nvars) as u32), g.bool())
}

/// A clause of one to three literals over the first `nvars` variables.
fn arb_clause(g: &mut G, nvars: usize) -> Vec<Lit> {
    let len = g.range(1..4usize);
    (0..len).map(|_| arb_lit(g, nvars)).collect()
}

fn lit_true(assignment: u32, l: Lit) -> bool {
    (assignment >> l.var().0 & 1 == 1) == l.positive()
}

/// Is there an assignment of `nvars` variables satisfying every clause and
/// every assumption?
fn brute_force(nvars: usize, clauses: &[Vec<Lit>], assumptions: &[Lit]) -> bool {
    (0..1u32 << nvars).any(|a| {
        clauses.iter().all(|c| c.iter().any(|&l| lit_true(a, l)))
            && assumptions.iter().all(|&l| lit_true(a, l))
    })
}

/// The next call's assumptions: a random-length prefix of the previous
/// call's, then up to three fresh literals. A fresh literal is sometimes
/// the negation of a unit clause or of an earlier assumption, so it is
/// already false when the solver reaches it.
fn next_assumptions(g: &mut G, prev: &[Lit], nvars: usize, units: &[Lit]) -> Vec<Lit> {
    let keep = g.range(0..prev.len() + 1);
    let mut out = prev[..keep].to_vec();
    for _ in 0..g.range(0..4usize) {
        let l = match g.index(4) {
            0 if !units.is_empty() => units[g.index(units.len())].neg(),
            1 if !out.is_empty() => out[g.index(out.len())].neg(),
            _ => arb_lit(g, nvars),
        };
        out.push(l);
    }
    out
}

#[test]
fn prefix_sharing_solves_agree_with_brute_force() {
    prop::check(prop::DEFAULT_CASES, |g| {
        let mut s = SatSolver::new();
        let mut nvars = g.range(1..MAX_VARS + 1);
        for _ in 0..nvars {
            s.new_var();
        }
        let mut clauses: Vec<Vec<Lit>> = (0..g.range(0..3 * nvars + 1))
            .map(|_| arb_clause(g, nvars))
            .collect();
        for c in &clauses {
            s.add_clause(c);
        }
        let mut prev: Vec<Lit> = Vec::new();
        for step in 0..g.range(1..25usize) {
            match g.index(6) {
                0 => {
                    let c = arb_clause(g, nvars);
                    s.add_clause(&c);
                    clauses.push(c);
                }
                1 if nvars < MAX_VARS => {
                    s.new_var();
                    nvars += 1;
                }
                _ => {
                    let units: Vec<Lit> = clauses
                        .iter()
                        .filter(|c| c.len() == 1)
                        .map(|c| c[0])
                        .collect();
                    let assumptions = next_assumptions(g, &prev, nvars, &units);
                    let got = s.solve(&assumptions);
                    let want = brute_force(nvars, &clauses, &assumptions);
                    prop_assert_eq!(
                        got == SatResult::Sat,
                        want,
                        "step {step}: verdict under {:?} over {} clauses",
                        assumptions,
                        clauses.len()
                    );
                    if got == SatResult::Sat {
                        let value = |l: Lit| s.value(l.var()) == l.positive();
                        for c in &clauses {
                            prop_assert!(
                                c.iter().any(|&l| value(l)),
                                "step {step}: model violates clause {c:?}"
                            );
                        }
                        for &l in &assumptions {
                            prop_assert!(value(l), "step {step}: model violates assumption {l:?}");
                        }
                    }
                    prev = assumptions;
                }
            }
        }
        Ok(())
    });
}
