//! The control flow graph (Fig. 3: `G ::= (V, v0, succ, code)`).
//!
//! The CFG is a DAG of statement nodes. Pipelines are single-entry /
//! single-exit regions delimited by no-op marker nodes; Algorithm 2's code
//! summary replaces everything strictly between a pipeline's markers with
//! the compact per-valid-path encoding, leaving the markers (and therefore
//! the inter-pipeline wiring) untouched.

use crate::exp::{BExp, Stmt};
use crate::fields::FieldTable;
use meissa_testkit::json::{Json, ToJson};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A node handle within one [`Cfg`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl ToJson for NodeId {
    fn to_json(&self) -> Json {
        Json::UInt(self.0 as u128)
    }
}

/// A pipeline handle within one [`Cfg`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PipelineId(pub u32);

/// One CFG node: a statement plus its successors.
#[derive(Clone, Debug)]
pub struct Node {
    /// The statement executed at this node.
    pub stmt: Stmt,
    /// Successor nodes (empty for terminal nodes).
    pub succ: Vec<NodeId>,
}

impl ToJson for Node {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("stmt".into(), self.stmt.to_json()),
            ("succ".into(), self.succ.to_json()),
        ])
    }
}

/// Metadata for one pipeline region.
#[derive(Clone, Debug)]
pub struct PipelineInfo {
    /// Human-readable name, e.g. `sw0.ingress0`.
    pub name: String,
    /// The entry marker node (a no-op).
    pub entry: NodeId,
    /// The exit marker node (a no-op).
    pub exit: NodeId,
}

impl ToJson for PipelineInfo {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("entry".into(), self.entry.to_json()),
            ("exit".into(), self.exit.to_json()),
        ])
    }
}

/// Which arm of a match-action table a predicate node encodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum RuleArm {
    /// Rule `i` of the table's installed rule set (0-based, priority order).
    Rule(u32),
    /// The miss arm: no installed rule matched (default action).
    Miss,
}

impl ToJson for RuleArm {
    fn to_json(&self) -> Json {
        match self {
            RuleArm::Rule(i) => Json::UInt(*i as u128),
            RuleArm::Miss => Json::Str("miss".into()),
        }
    }
}

/// Coverage-attribution metadata: the table arm a CFG node stands for.
///
/// The frontend marks every table-rule arm node and the miss-arm node with
/// the table name and arm index; code summary re-attaches the sites a
/// summarized path traversed to the path's final encoded node. Either way, a
/// template path attributes rule hits by node lookup alone — no structural
/// guard matching and no solver involvement, so coverage accounting can
/// never perturb exploration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RuleSite {
    /// Table name as written in the source, e.g. `eip_lookup`.
    pub table: String,
    /// Which arm of that table this node encodes.
    pub arm: RuleArm,
}

impl ToJson for RuleSite {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("table".into(), self.table.to_json()),
            ("arm".into(), self.arm.to_json()),
        ])
    }
}

/// The control flow graph of a whole (multi-pipeline, multi-switch) program.
///
/// Clones share the node, raw-guard and rule-site storage; the one
/// in-place rewrite, [`Cfg::replace_pipeline_body_with_sites`] (code
/// summary's), copies what it changes first. So an engine run that does
/// not summarize keeps the program's graph without copying it (on gw-1
/// with 1,024 EIPs a deep copy took about 5 ms).
#[derive(Clone, Debug)]
pub struct Cfg {
    nodes: Arc<Vec<Node>>,
    entry: NodeId,
    /// Field table shared by every statement in the graph.
    pub fields: FieldTable,
    pipelines: Vec<PipelineInfo>,
    /// Raw (priority-free) guards for predicate nodes that encode table
    /// rules or parser select arms. The `assume` statement of such a node is
    /// `raw ∧ ¬(higher-priority raws)` — the analyzer's flattening of
    /// first-match-wins — while the compiled target evaluates the raw guard
    /// in priority order, which is what hardware does (and what priority
    /// miscompilations perturb).
    raw_guards: Arc<HashMap<NodeId, BExp>>,
    /// Rule-coverage attribution: which table arms each node stands for.
    /// Frontend-marked arm nodes carry exactly one site; summarized trie
    /// leaves carry the full site list of their encoded path.
    rule_sites: Arc<HashMap<NodeId, Vec<RuleSite>>>,
}

impl Cfg {
    /// Assembles a graph from raw parts. Crate-internal: used by the
    /// k-packet unroller (`crate::unroll`), which builds node/edge vectors
    /// wholesale rather than through [`CfgBuilder`]'s frontier discipline.
    /// Callers are responsible for producing a graph that passes
    /// [`Cfg::validate`].
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        entry: NodeId,
        fields: FieldTable,
        pipelines: Vec<PipelineInfo>,
        raw_guards: HashMap<NodeId, BExp>,
        rule_sites: HashMap<NodeId, Vec<RuleSite>>,
    ) -> Cfg {
        Cfg {
            nodes: Arc::new(nodes),
            entry,
            fields,
            pipelines,
            raw_guards: Arc::new(raw_guards),
            rule_sites: Arc::new(rule_sites),
        }
    }

    /// The entry node (`v0`).
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The statement at a node.
    pub fn stmt(&self, id: NodeId) -> &Stmt {
        &self.nodes[id.0 as usize].stmt
    }

    /// The successors of a node (`succ(v)`).
    pub fn succ(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0 as usize].succ
    }

    /// Total number of nodes ever allocated (including nodes orphaned by
    /// summarization).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from the entry.
    pub fn num_reachable_nodes(&self) -> usize {
        self.reachable().len()
    }

    /// The declared pipelines, in declaration order.
    pub fn pipelines(&self) -> &[PipelineInfo] {
        &self.pipelines
    }

    /// Pipeline metadata by id.
    pub fn pipeline(&self, id: PipelineId) -> &PipelineInfo {
        &self.pipelines[id.0 as usize]
    }

    /// The raw (priority-free) guard recorded for a predicate node, if any.
    pub fn raw_guard(&self, id: NodeId) -> Option<&BExp> {
        self.raw_guards.get(&id)
    }

    /// The table arms attributed to a node (empty for unmarked nodes).
    pub fn rule_sites(&self, id: NodeId) -> &[RuleSite] {
        self.rule_sites.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The full node → sites attribution map.
    pub fn rule_site_map(&self) -> &HashMap<NodeId, Vec<RuleSite>> {
        &self.rule_sites
    }

    /// Finds a pipeline by name.
    pub fn find_pipeline(&self, name: &str) -> Option<PipelineId> {
        self.pipelines
            .iter()
            .position(|p| p.name == name)
            .map(|i| PipelineId(i as u32))
    }

    /// Nodes reachable from the entry, in DFS preorder.
    pub fn reachable(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.entry];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n.0 as usize], true) {
                continue;
            }
            out.push(n);
            for &s in &self.nodes[n.0 as usize].succ {
                stack.push(s);
            }
        }
        out
    }

    /// Topological order of all reachable nodes.
    ///
    /// # Panics
    /// Panics if the reachable graph contains a cycle — CFGs are acyclic by
    /// construction (§3.1: recursion is unrolled), so a cycle is a frontend
    /// bug.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let reach = self.reachable();
        let mut indeg = vec![0usize; self.nodes.len()];
        for &n in &reach {
            for &s in self.succ(n) {
                indeg[s.0 as usize] += 1;
            }
        }
        let mut queue: VecDeque<NodeId> = reach
            .iter()
            .copied()
            .filter(|n| indeg[n.0 as usize] == 0)
            .collect();
        let mut out = Vec::with_capacity(reach.len());
        while let Some(n) = queue.pop_front() {
            out.push(n);
            for &s in self.succ(n) {
                let d = &mut indeg[s.0 as usize];
                *d -= 1;
                if *d == 0 {
                    queue.push_back(s);
                }
            }
        }
        assert_eq!(out.len(), reach.len(), "cycle detected in CFG");
        out
    }

    /// Topological order of pipelines: `p` precedes `q` whenever some path
    /// runs from `p`'s exit to `q`'s entry (Alg. 2 line 2).
    pub fn pipeline_topo_order(&self) -> Vec<PipelineId> {
        let node_topo = self.topo_order();
        let pos: HashMap<NodeId, usize> = node_topo.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut ids: Vec<PipelineId> = (0..self.pipelines.len() as u32)
            .map(PipelineId)
            .filter(|p| pos.contains_key(&self.pipelines[p.0 as usize].entry))
            .collect();
        ids.sort_by_key(|p| pos[&self.pipelines[p.0 as usize].entry]);
        ids
    }

    /// Which pipeline a node belongs to, if any. A node belongs to pipeline
    /// `p` when it is reachable from `p.entry` without passing `p.exit`
    /// (markers themselves belong to the pipeline).
    pub fn pipeline_of(&self, node: NodeId) -> Option<PipelineId> {
        for (i, p) in self.pipelines.iter().enumerate() {
            if node == p.entry || node == p.exit {
                return Some(PipelineId(i as u32));
            }
            let mut stack = vec![p.entry];
            let mut seen = vec![false; self.nodes.len()];
            while let Some(n) = stack.pop() {
                if std::mem::replace(&mut seen[n.0 as usize], true) || n == p.exit {
                    continue;
                }
                if n == node {
                    return Some(PipelineId(i as u32));
                }
                stack.extend(self.succ(n));
            }
        }
        None
    }

    /// Replaces the body of a pipeline region (everything strictly between
    /// the entry and exit markers) with the given straight-line paths. Each
    /// path becomes a chain `entry → s0 → s1 → … → exit`. This is how
    /// Algorithm 2 installs a pipeline's summary (lines 11–25).
    ///
    /// An empty `paths` leaves the pipeline with no way through — callers
    /// only do this when the public pre-condition proved the pipeline
    /// unreachable.
    ///
    /// Paths sharing a statement prefix share the corresponding node chain
    /// (a trie): summarized paths are mutually exclusive, so sharing
    /// preserves semantics while keeping the DFS's progressive pruning —
    /// without it, every path probe would re-evaluate common guards.
    pub fn replace_pipeline_body(&mut self, id: PipelineId, paths: Vec<Vec<Stmt>>) {
        let with_sites = paths.into_iter().map(|p| (p, Vec::new())).collect();
        self.replace_pipeline_body_with_sites(id, with_sites);
    }

    /// [`Cfg::replace_pipeline_body`] with rule-coverage attribution: each
    /// path carries the [`RuleSite`]s its pre-summary original traversed,
    /// and those sites are attached to the path's *last* trie node — the
    /// one node every template taking this summarized path is guaranteed to
    /// visit and that no other path ends at. (A path that is a strict
    /// statement prefix of a sibling shares its last node with the longer
    /// path's interior; summarized paths are mutually exclusive by
    /// construction, so this does not occur for distinct encodings.)
    pub fn replace_pipeline_body_with_sites(
        &mut self,
        id: PipelineId,
        paths: Vec<(Vec<Stmt>, Vec<RuleSite>)>,
    ) {
        let (entry, exit) = {
            let p = &self.pipelines[id.0 as usize];
            (p.entry, p.exit)
        };
        Arc::make_mut(&mut self.nodes)[entry.0 as usize]
            .succ
            .clear();
        let items: Vec<(&[Stmt], &[RuleSite])> = paths
            .iter()
            .map(|(p, s)| (p.as_slice(), s.as_slice()))
            .collect();
        self.attach_shared(entry, exit, items);
    }

    fn attach_shared(&mut self, parent: NodeId, exit: NodeId, paths: Vec<(&[Stmt], &[RuleSite])>) {
        // Group by first statement, preserving first-seen order.
        let mut groups: Vec<(&Stmt, Vec<(&[Stmt], &[RuleSite])>)> = Vec::new();
        for (p, sites) in paths {
            match p.split_first() {
                None => {
                    Arc::make_mut(&mut self.nodes)[parent.0 as usize]
                        .succ
                        .push(exit);
                    if !sites.is_empty() {
                        Arc::make_mut(&mut self.rule_sites)
                            .entry(parent)
                            .or_default()
                            .extend(sites.iter().cloned());
                    }
                }
                Some((head, tail)) => {
                    match groups.iter_mut().find(|(h, _)| *h == head) {
                        Some((_, tails)) => tails.push((tail, sites)),
                        None => groups.push((head, vec![(tail, sites)])),
                    }
                }
            }
        }
        for (head, tails) in groups {
            let n = self.push_node(head.clone());
            Arc::make_mut(&mut self.nodes)[parent.0 as usize]
                .succ
                .push(n);
            self.attach_shared(n, exit, tails);
        }
    }

    fn push_node(&mut self, stmt: Stmt) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        Arc::make_mut(&mut self.nodes).push(Node {
            stmt,
            succ: Vec::new(),
        });
        id
    }

    /// Structural validation: the well-formedness invariants every graph
    /// the frontend or a manual encoder produces must satisfy. Returns the
    /// list of violations (empty = valid).
    ///
    /// Checks: acyclicity (§3.1 — recursion must be unrolled), pipeline
    /// markers are no-ops and reachable entry-before-exit, no edge from
    /// outside a pipeline into its interior (single-entry), and every
    /// assignment's expression width matches its destination field.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();

        // Acyclicity via the topo sort's own invariant, without panicking.
        let reach = self.reachable();
        {
            let mut indeg: HashMap<NodeId, usize> = reach.iter().map(|&n| (n, 0)).collect();
            for &n in &reach {
                for &s in self.succ(n) {
                    if let Some(d) = indeg.get_mut(&s) {
                        *d += 1;
                    }
                }
            }
            let mut queue: VecDeque<NodeId> =
                reach.iter().copied().filter(|n| indeg[n] == 0).collect();
            let mut seen = 0usize;
            while let Some(n) = queue.pop_front() {
                seen += 1;
                for &s in self.succ(n) {
                    let d = indeg.get_mut(&s).unwrap();
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(s);
                    }
                }
            }
            if seen != reach.len() {
                problems.push("cycle in reachable CFG (unroll recirculation per §4)".into());
            }
        }

        // Pipeline markers.
        let reach_set: std::collections::HashSet<NodeId> = reach.iter().copied().collect();
        for p in &self.pipelines {
            if reach_set.contains(&p.entry) {
                if !self.stmt(p.entry).is_nop() {
                    problems.push(format!("pipeline {} entry marker is not a no-op", p.name));
                }
                if !self.stmt(p.exit).is_nop() {
                    problems.push(format!("pipeline {} exit marker is not a no-op", p.name));
                }
                if !reach_set.contains(&p.exit) {
                    problems.push(format!(
                        "pipeline {} exit unreachable while entry is reachable",
                        p.name
                    ));
                }
            }
        }

        // Assignment width agreement.
        for &n in &reach {
            if let Stmt::Assign(f, e) = self.stmt(n) {
                let fw = self.fields.width(*f);
                let ew = e.width(&self.fields);
                if fw != ew {
                    problems.push(format!(
                        "node {} assigns {ew}-bit value to {fw}-bit field {}",
                        n.0,
                        self.fields.name(*f)
                    ));
                }
            }
        }
        problems
    }

    /// Renders the graph in DOT format for debugging.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph cfg {\n");
        for &n in &self.reachable() {
            let label = self
                .stmt(n)
                .display(&self.fields)
                .replace('"', "'");
            out.push_str(&format!("  n{} [label=\"{}\"];\n", n.0, label));
            for &s in self.succ(n) {
                out.push_str(&format!("  n{} -> n{};\n", n.0, s.0));
            }
        }
        out.push_str("}\n");
        out
    }
}

impl ToJson for Cfg {
    fn to_json(&self) -> Json {
        // raw_guards is a HashMap; emit entries sorted by node id so the
        // encoded text is byte-stable across runs.
        let mut guards: Vec<(&NodeId, &BExp)> = self.raw_guards.iter().collect();
        guards.sort_by_key(|(n, _)| **n);
        Json::Obj(vec![
            ("nodes".into(), self.nodes.to_json()),
            ("entry".into(), self.entry.to_json()),
            ("fields".into(), self.fields.to_json()),
            ("pipelines".into(), self.pipelines.to_json()),
            (
                "raw_guards".into(),
                Json::Arr(
                    guards
                        .into_iter()
                        .map(|(n, g)| Json::Arr(vec![n.to_json(), g.to_json()]))
                        .collect(),
                ),
            ),
            (
                "rule_sites".into(),
                Json::Arr({
                    let mut sites: Vec<(&NodeId, &Vec<RuleSite>)> =
                        self.rule_sites.iter().collect();
                    sites.sort_by_key(|(n, _)| **n);
                    sites
                        .into_iter()
                        .map(|(n, s)| Json::Arr(vec![n.to_json(), s.to_json()]))
                        .collect()
                }),
            ),
        ])
    }
}

/// Builder for [`Cfg`]s, used by the P4lite compiler and by tests.
///
/// The builder maintains a *frontier*: the set of dangling nodes whose
/// successor edges will point at whatever is appended next. This matches
/// how a compiler lowers structured control flow — `branch` forks the
/// frontier, `join` merges it.
pub struct CfgBuilder {
    nodes: Vec<Node>,
    entry: Option<NodeId>,
    /// Nodes whose successor lists are still open.
    frontier: Vec<NodeId>,
    fields: FieldTable,
    pipelines: Vec<PipelineInfo>,
    /// Entry marker of the pipeline currently being built, if any.
    open_pipeline: Option<(String, NodeId)>,
    raw_guards: HashMap<NodeId, BExp>,
    rule_sites: HashMap<NodeId, Vec<RuleSite>>,
}

impl Default for CfgBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CfgBuilder {
    /// Creates a builder with an empty graph.
    pub fn new() -> Self {
        CfgBuilder {
            nodes: Vec::new(),
            entry: None,
            frontier: Vec::new(),
            fields: FieldTable::new(),
            pipelines: Vec::new(),
            open_pipeline: None,
            raw_guards: HashMap::new(),
            rule_sites: HashMap::new(),
        }
    }

    /// Access to the field table for interning fields while building.
    pub fn fields_mut(&mut self) -> &mut FieldTable {
        &mut self.fields
    }

    /// Read-only access to the field table.
    pub fn fields(&self) -> &FieldTable {
        &self.fields
    }

    fn push(&mut self, stmt: Stmt) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            stmt,
            succ: Vec::new(),
        });
        id
    }

    fn link_frontier_to(&mut self, n: NodeId) {
        if self.entry.is_none() {
            self.entry = Some(n);
        }
        for f in std::mem::take(&mut self.frontier) {
            self.nodes[f.0 as usize].succ.push(n);
        }
    }

    /// Appends a statement node after the current frontier.
    pub fn stmt(&mut self, stmt: Stmt) -> NodeId {
        let n = self.push(stmt);
        self.link_frontier_to(n);
        self.frontier.push(n);
        n
    }

    /// Appends a predicate node recording its raw (priority-free) guard.
    /// Use for table-rule and select-arm branches: `stmt` carries the
    /// flattened first-match-wins condition for analysis, `raw` the plain
    /// match the hardware evaluates in priority order.
    pub fn stmt_with_raw(&mut self, stmt: Stmt, raw: BExp) -> NodeId {
        let n = self.stmt(stmt);
        self.raw_guards.insert(n, raw);
        n
    }

    /// Attributes a node to a table arm for rule-coverage accounting. The
    /// frontend calls this on every table-rule arm node (with the rule's
    /// priority-order index) and on the miss-arm node.
    pub fn mark_rule_site(&mut self, node: NodeId, table: &str, arm: RuleArm) {
        self.rule_sites.entry(node).or_default().push(RuleSite {
            table: table.to_string(),
            arm,
        });
    }

    /// Appends a no-op node (useful as an explicit join point).
    pub fn nop(&mut self) -> NodeId {
        self.stmt(Stmt::Assume(BExp::True))
    }

    /// The current frontier (dangling nodes).
    pub fn frontier(&self) -> Vec<NodeId> {
        self.frontier.clone()
    }

    /// Replaces the frontier, returning the previous one. Used to lower
    /// branching control flow: save the fork point, build each arm from it,
    /// then `merge_frontiers` of all arms.
    pub fn set_frontier(&mut self, frontier: Vec<NodeId>) -> Vec<NodeId> {
        std::mem::replace(&mut self.frontier, frontier)
    }

    /// Unions the given saved frontiers into the current one.
    pub fn merge_frontiers(&mut self, mut saved: Vec<Vec<NodeId>>) {
        for f in saved.drain(..) {
            self.frontier.extend(f);
        }
        self.frontier.sort();
        self.frontier.dedup();
    }

    /// Opens a pipeline region: emits the entry marker node.
    ///
    /// # Panics
    /// Panics if a pipeline is already open — pipelines never nest (they are
    /// hardware pipes).
    pub fn begin_pipeline(&mut self, name: &str) -> NodeId {
        assert!(
            self.open_pipeline.is_none(),
            "pipeline {name} opened while another pipeline is open"
        );
        let marker = self.nop();
        self.open_pipeline = Some((name.to_string(), marker));
        marker
    }

    /// Closes the open pipeline region: emits the exit marker node.
    pub fn end_pipeline(&mut self) -> PipelineId {
        let (name, entry) = self.open_pipeline.take().expect("no open pipeline");
        let exit = self.nop();
        let id = PipelineId(self.pipelines.len() as u32);
        self.pipelines.push(PipelineInfo { name, entry, exit });
        id
    }

    /// Finishes the graph.
    ///
    /// # Panics
    /// Panics if nothing was built or a pipeline is still open.
    pub fn finish(self) -> Cfg {
        assert!(self.open_pipeline.is_none(), "unclosed pipeline");
        Cfg {
            entry: self.entry.expect("empty CFG"),
            nodes: Arc::new(self.nodes),
            fields: self.fields,
            pipelines: self.pipelines,
            raw_guards: Arc::new(self.raw_guards),
            rule_sites: Arc::new(self.rule_sites),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{AExp, CmpOp};
    use meissa_num::Bv;

    fn assign(b: &mut CfgBuilder, name: &str, w: u16, v: u128) -> NodeId {
        let f = b.fields_mut().intern(name, w);
        b.stmt(Stmt::Assign(f, AExp::Const(Bv::new(w, v))))
    }

    fn pred(b: &mut CfgBuilder, name: &str, w: u16, v: u128) -> NodeId {
        let f = b.fields_mut().intern(name, w);
        b.stmt(Stmt::Assume(BExp::Cmp(
            CmpOp::Eq,
            AExp::Field(f),
            AExp::Const(Bv::new(w, v)),
        )))
    }

    #[test]
    fn straight_line_graph() {
        let mut b = CfgBuilder::new();
        let n1 = assign(&mut b, "x", 8, 1);
        let n2 = assign(&mut b, "y", 8, 2);
        let g = b.finish();
        assert_eq!(g.entry(), n1);
        assert_eq!(g.succ(n1), &[n2]);
        assert!(g.succ(n2).is_empty());
        assert_eq!(g.num_reachable_nodes(), 2);
    }

    #[test]
    fn branching_and_joining() {
        let mut b = CfgBuilder::new();
        let fork = b.nop();
        let _ = fork;
        let base = b.frontier();

        b.set_frontier(base.clone());
        let a1 = pred(&mut b, "x", 8, 1);
        let arm1 = b.frontier();

        b.set_frontier(base);
        let a2 = pred(&mut b, "x", 8, 2);
        let arm2 = b.frontier();

        b.set_frontier(Vec::new());
        b.merge_frontiers(vec![arm1, arm2]);
        let join = b.nop();

        let g = b.finish();
        let entry_succ = g.succ(g.entry());
        assert_eq!(entry_succ.len(), 2);
        assert!(entry_succ.contains(&a1) && entry_succ.contains(&a2));
        assert_eq!(g.succ(a1), &[join]);
        assert_eq!(g.succ(a2), &[join]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut b = CfgBuilder::new();
        let n1 = b.nop();
        let base = b.frontier();
        b.set_frontier(base.clone());
        let a = pred(&mut b, "x", 8, 1);
        let f1 = b.frontier();
        b.set_frontier(base);
        let c = pred(&mut b, "x", 8, 2);
        let f2 = b.frontier();
        b.set_frontier(Vec::new());
        b.merge_frontiers(vec![f1, f2]);
        let j = b.nop();
        let g = b.finish();
        let order = g.topo_order();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(n1) < pos(a));
        assert!(pos(n1) < pos(c));
        assert!(pos(a) < pos(j));
        assert!(pos(c) < pos(j));
    }

    #[test]
    fn pipeline_markers_and_membership() {
        let mut b = CfgBuilder::new();
        b.begin_pipeline("ingress0");
        let inner = assign(&mut b, "x", 8, 1);
        let p0 = b.end_pipeline();
        b.begin_pipeline("egress0");
        let inner2 = assign(&mut b, "y", 8, 2);
        let p1 = b.end_pipeline();
        let g = b.finish();

        assert_eq!(g.pipelines().len(), 2);
        assert_eq!(g.pipeline(p0).name, "ingress0");
        assert_eq!(g.pipeline_of(inner), Some(p0));
        assert_eq!(g.pipeline_of(inner2), Some(p1));
        assert_eq!(g.find_pipeline("egress0"), Some(p1));
        assert_eq!(g.find_pipeline("nope"), None);
        // Markers are no-ops.
        assert!(g.stmt(g.pipeline(p0).entry).is_nop());
        assert!(g.stmt(g.pipeline(p0).exit).is_nop());
    }

    #[test]
    fn pipeline_topo_order_follows_wiring() {
        let mut b = CfgBuilder::new();
        b.begin_pipeline("a");
        assign(&mut b, "x", 8, 1);
        let pa = b.end_pipeline();
        b.begin_pipeline("b");
        assign(&mut b, "y", 8, 1);
        let pb = b.end_pipeline();
        let g = b.finish();
        assert_eq!(g.pipeline_topo_order(), vec![pa, pb]);
    }

    #[test]
    fn replace_pipeline_body_rewires_region() {
        let mut b = CfgBuilder::new();
        b.begin_pipeline("p");
        assign(&mut b, "x", 8, 1);
        assign(&mut b, "x", 8, 2);
        let p = b.end_pipeline();
        let tail = assign(&mut b, "done", 1, 1);
        let mut g = b.finish();

        let f = g.fields.get("x").unwrap();
        g.replace_pipeline_body(
            p,
            vec![
                vec![Stmt::Assign(f, AExp::Const(Bv::new(8, 10)))],
                vec![Stmt::Assign(f, AExp::Const(Bv::new(8, 20)))],
            ],
        );
        let entry = g.pipeline(p).entry;
        let exit = g.pipeline(p).exit;
        assert_eq!(g.succ(entry).len(), 2, "two summarized paths");
        for &s in g.succ(entry) {
            assert_eq!(g.succ(s), &[exit]);
        }
        // Downstream wiring is intact.
        assert_eq!(g.succ(exit), &[tail]);
    }

    #[test]
    fn dot_rendering_mentions_fields() {
        let mut b = CfgBuilder::new();
        assign(&mut b, "meta.port", 9, 3);
        let g = b.finish();
        let dot = g.to_dot();
        assert!(dot.contains("meta.port"), "{dot}");
        assert!(dot.starts_with("digraph"));
    }


    #[test]
    fn validate_accepts_wellformed_graphs() {
        let mut b = CfgBuilder::new();
        b.begin_pipeline("p");
        assign(&mut b, "x", 8, 1);
        b.end_pipeline();
        let g = b.finish();
        assert!(g.validate().is_empty(), "{:?}", g.validate());
    }

    #[test]
    fn validate_flags_width_mismatch() {
        let mut b = CfgBuilder::new();
        let f = b.fields_mut().intern("x", 8);
        // Construct a deliberately ill-typed assignment.
        b.stmt(Stmt::Assign(f, AExp::Const(Bv::new(16, 1))));
        let g = b.finish();
        let problems = g.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("16-bit value to 8-bit"), "{problems:?}");
    }

    #[test]
    fn rule_sites_survive_marking() {
        let mut b = CfgBuilder::new();
        b.begin_pipeline("ingress0");
        let arm0 = pred(&mut b, "x", 8, 1);
        b.mark_rule_site(arm0, "t0", RuleArm::Rule(0));
        let miss = pred(&mut b, "x", 8, 2);
        b.mark_rule_site(miss, "t0", RuleArm::Miss);
        b.end_pipeline();
        let g = b.finish();

        assert_eq!(
            g.rule_sites(arm0),
            &[RuleSite {
                table: "t0".into(),
                arm: RuleArm::Rule(0)
            }]
        );
        assert_eq!(g.rule_sites(miss)[0].arm, RuleArm::Miss);
        assert!(g.rule_sites(g.entry()).is_empty());
    }

    #[test]
    fn replace_with_sites_attributes_last_node_of_each_path() {
        let mut b = CfgBuilder::new();
        b.begin_pipeline("p");
        assign(&mut b, "x", 8, 1);
        let p = b.end_pipeline();
        let mut g = b.finish();

        let f = g.fields.get("x").unwrap();
        let site = |i: u32| RuleSite {
            table: "t".into(),
            arm: RuleArm::Rule(i),
        };
        // Two paths sharing a one-statement prefix: the shared trie node
        // must stay unattributed; each path's final node carries its sites.
        let shared = Stmt::Assign(f, AExp::Const(Bv::new(8, 1)));
        g.replace_pipeline_body_with_sites(
            p,
            vec![
                (
                    vec![shared.clone(), Stmt::Assign(f, AExp::Const(Bv::new(8, 2)))],
                    vec![site(0)],
                ),
                (
                    vec![shared.clone(), Stmt::Assign(f, AExp::Const(Bv::new(8, 3)))],
                    vec![site(1)],
                ),
            ],
        );
        let entry = g.pipeline(p).entry;
        let exit = g.pipeline(p).exit;
        assert_eq!(g.succ(entry).len(), 1, "shared prefix collapses");
        let head = g.succ(entry)[0];
        assert!(g.rule_sites(head).is_empty(), "shared node unattributed");
        assert_eq!(g.succ(head).len(), 2);
        let mut seen = Vec::new();
        for &leaf in g.succ(head) {
            assert_eq!(g.succ(leaf), &[exit]);
            assert_eq!(g.rule_sites(leaf).len(), 1);
            seen.push(g.rule_sites(leaf)[0].arm);
        }
        seen.sort();
        assert_eq!(seen, vec![RuleArm::Rule(0), RuleArm::Rule(1)]);
    }

    #[test]
    #[should_panic(expected = "empty CFG")]
    fn empty_graph_panics() {
        CfgBuilder::new().finish();
    }

    #[test]
    #[should_panic(expected = "another pipeline is open")]
    fn nested_pipelines_panic() {
        let mut b = CfgBuilder::new();
        b.begin_pipeline("a");
        b.begin_pipeline("b");
    }
}
