//! The switch target: backend "compiler" + deterministic interpreter.
//!
//! A [`SwitchTarget`] is the *implementation under test*. It parses an
//! arriving packet with the program's parser spec, then executes the
//! program deterministically: at every branch it takes the first successor
//! whose guard holds (installed rules are mutually exclusive by
//! construction, so this matches hardware's single-match behaviour). An
//! injected [`Fault`] perturbs execution the way the paper's non-code bugs
//! do — at the *executed-artifact* level, invisible in the source and in
//! the CFG every analysis tool consumes.
//!
//! Match-action tables are looked up the way a switch does it, by key
//! rather than by walking every rule. When the target is built, each branch
//! node whose leading successors guard on match conjunctions gets a
//! [`MatchIndex`] (the tuple-space index of [`meissa_ir::match_index`],
//! which the symbolic walker shares), and a lookup takes its
//! [`MatchIndex::first_match`]: exactly "first guard that holds" in
//! successor order. The miss arm is taken without evaluation only when the
//! index recognizes it as the conjunction of the indexed guards' negations;
//! otherwise the successors after the indexed ones are scanned. Range keys,
//! other guard shapes and [`Fault::PriorityInverted`] keep the in-order
//! scan, which also stays as the oracle the index is tested against.

use crate::faults::Fault;
use crate::packet::{Packet, ParserPlan};
use meissa_ir::{
    AExp, BExp, Cfg, ConcreteState, FieldId, HashAlg, MatchIndex, NodeId, RuleArm, Stmt,
};
use meissa_lang::CompiledProgram;
use meissa_num::Bv;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What came out of the switch for one injected packet.
#[derive(Clone, Debug)]
pub struct TargetOutput {
    /// The emitted packet; `None` when the packet was dropped (explicitly
    /// via the program's drop flag, by a parse error, or by wedging in an
    /// undefined branch).
    pub packet: Option<Packet>,
    /// Final egress port (`meta.egress_port` convention), when present.
    pub egress_port: Option<Bv>,
    /// The complete final field state (visible to the checker like a
    /// hardware model's snapshot; real deployments only see `packet`).
    pub final_state: ConcreteState,
}

/// Lock-free per-rule hit accounting for a running target.
///
/// Built from the program CFG's rule-site markers: every `(table, arm)`
/// pair gets a stable index (sorted order, so indices are reproducible
/// across targets compiled from the same program), and every CFG node
/// carrying sites maps to the indices it should bump. The interpreter
/// bumps on branch selection with relaxed atomics, so a tally shared
/// across injector threads (agent serving concurrent RPCs, soak workers)
/// never serializes the hot path and can be snapshotted mid-run.
pub struct RuleTally {
    /// Arm identity per index, in sorted `(table, arm)` order.
    sites: Vec<(String, RuleArm)>,
    /// `node_sites[node_start[n]..node_start[n + 1]]` are the tally
    /// indices to bump when execution selects node `n` (dense by
    /// `NodeId`, so a bump is two array reads, not a hash lookup).
    node_start: Vec<u32>,
    node_sites: Vec<u32>,
    hits: Vec<AtomicU64>,
}

impl RuleTally {
    /// Indexes every rule site the CFG declares (hit or not — unhit arms
    /// are the interesting part of a coverage denominator).
    pub fn new(cfg: &Cfg) -> Self {
        let mut index: BTreeMap<(String, RuleArm), u32> = BTreeMap::new();
        for sites in cfg.rule_site_map().values() {
            for s in sites {
                let next = index.len() as u32;
                index.entry((s.table.clone(), s.arm)).or_insert(next);
            }
        }
        // Re-number in sorted-key order so indices are deterministic.
        let mut sites: Vec<(String, RuleArm)> = index.keys().cloned().collect();
        sites.sort();
        let lookup: HashMap<(String, RuleArm), u32> = sites
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        let mut node_start = Vec::with_capacity(cfg.num_nodes() + 1);
        let mut node_sites = Vec::new();
        for n in 0..cfg.num_nodes() {
            node_start.push(node_sites.len() as u32);
            node_sites.extend(
                cfg.rule_sites(NodeId(n as u32))
                    .iter()
                    .map(|s| lookup[&(s.table.clone(), s.arm)]),
            );
        }
        node_start.push(node_sites.len() as u32);
        let hits = (0..sites.len()).map(|_| AtomicU64::new(0)).collect();
        RuleTally {
            sites,
            node_start,
            node_sites,
            hits,
        }
    }

    /// Records that execution selected `node`. No-op for nodes without
    /// rule sites; relaxed ordering — counts are monotone tallies, not
    /// synchronization.
    pub fn bump(&self, node: NodeId) {
        let n = node.0 as usize;
        let (Some(&lo), Some(&hi)) = (self.node_start.get(n), self.node_start.get(n + 1)) else {
            return;
        };
        for &i in &self.node_sites[lo as usize..hi as usize] {
            self.hits[i as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total distinct arms tracked (the coverage denominator).
    pub fn arms_total(&self) -> u64 {
        self.sites.len() as u64
    }

    /// Arms hit at least once so far.
    pub fn arms_hit(&self) -> u64 {
        self.hits
            .iter()
            .filter(|h| h.load(Ordering::Relaxed) > 0)
            .count() as u64
    }

    /// A point-in-time `(table, arm, hits)` view in sorted arm order,
    /// including zero-hit arms.
    pub fn snapshot(&self) -> Vec<(&str, RuleArm, u64)> {
        self.sites
            .iter()
            .zip(&self.hits)
            .map(|((t, a), h)| (t.as_str(), *a, h.load(Ordering::Relaxed)))
            .collect()
    }
}

/// A software switch running one compiled program, possibly mis-compiled.
pub struct SwitchTarget {
    program: CompiledProgram,
    fault: Fault,
    /// Pre-resolved parser automaton — parse/normalize/deparse are on the
    /// per-packet hot path and must not re-resolve spec strings.
    plan: ParserPlan,
    /// Conventional drop flag (`meta.drop`), when the program declares one.
    drop_field: Option<FieldId>,
    /// Conventional egress port (`meta.egress_port`), when declared.
    egress_field: Option<FieldId>,
    /// Optional per-rule hit accounting, shared with scrapers.
    tally: Option<Arc<RuleTally>>,
    /// The fault's field names, resolved once.
    fault_fields: FaultFields,
    /// Match index per branch node, dense by `NodeId`; empty when every
    /// branch is scanned (priority inversion, the scan oracle).
    index: Vec<Option<Box<MatchIndex>>>,
}

impl SwitchTarget {
    /// A faithful target for the program.
    pub fn new(program: &CompiledProgram) -> Self {
        Self::with_fault(program, Fault::None)
    }

    /// A target whose backend exhibits the given fault.
    pub fn with_fault(program: &CompiledProgram, fault: Fault) -> Self {
        // Inverted priority picks the *last* matching rule; only the scan
        // models that, so the faulty target has one lookup semantics.
        let indexed = fault != Fault::PriorityInverted;
        Self::build(program, fault, indexed)
    }

    /// The same target with every branch resolved by the in-order guard
    /// scan: the oracle that differential tests hold the match index to.
    #[doc(hidden)]
    pub fn scan_oracle(program: &CompiledProgram, fault: Fault) -> Self {
        Self::build(program, fault, false)
    }

    fn build(program: &CompiledProgram, fault: Fault, indexed: bool) -> Self {
        let cfg = &program.cfg;
        let fields = &cfg.fields;
        let index = if indexed {
            (0..cfg.num_nodes())
                .map(|n| {
                    let succ = cfg.succ(NodeId(n as u32));
                    MatchIndex::build(fields, succ.len(), |i| scan_guard(cfg, succ[i]))
                        .map(Box::new)
                })
                .collect()
        } else {
            Vec::new()
        };
        SwitchTarget {
            drop_field: fields.get("meta.drop"),
            egress_field: fields.get("meta.egress_port"),
            plan: ParserPlan::new(program),
            fault_fields: FaultFields::resolve(fields, &fault),
            program: program.clone(),
            fault,
            tally: None,
            index,
        }
    }

    /// The branch nodes served by the match index, in node order: the
    /// node, how many leading successors the index covers, and whether a
    /// lookup miss takes the next successor (the table's miss arm) without
    /// evaluating its guard.
    #[doc(hidden)]
    pub fn indexed_branches(&self) -> Vec<(NodeId, usize, bool)> {
        self.index
            .iter()
            .enumerate()
            .filter_map(|(n, ix)| {
                ix.as_ref()
                    .map(|ix| (NodeId(n as u32), ix.indexed(), ix.miss_direct()))
            })
            .collect()
    }

    /// Enables per-rule hit accounting over the program's rule sites.
    /// The tally is built once from the CFG and bumped lock-free on every
    /// executed packet; snapshot it via [`SwitchTarget::tally`].
    pub fn with_tally(mut self) -> Self {
        self.tally = Some(Arc::new(RuleTally::new(&self.program.cfg)));
        self
    }

    /// The live hit tally, when enabled via [`SwitchTarget::with_tally`].
    pub fn tally(&self) -> Option<&Arc<RuleTally>> {
        self.tally.as_ref()
    }

    /// The program under test.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The pre-resolved parser automaton (shared with drivers so their
    /// per-case serialize/parse work skips spec-string resolution).
    pub fn plan(&self) -> &ParserPlan {
        &self.plan
    }

    /// The injected fault.
    pub fn fault(&self) -> &Fault {
        &self.fault
    }

    /// Injects a packet: parse → execute → deparse.
    pub fn inject(&self, packet: &Packet) -> TargetOutput {
        let Ok(state) = self.plan.parse(&self.program.cfg.fields, packet) else {
            return TargetOutput {
                packet: None,
                egress_port: None,
                final_state: ConcreteState::new(),
            };
        };
        self.run_state(&state, packet.id)
    }

    /// Injects an *ordered* packet sequence against a live register file.
    ///
    /// The file starts from `initial_registers` (cells absent there read
    /// zero — a freshly booted switch) and persists across the sequence:
    /// packet *i*'s register reads see packet *i−1*'s writes, which is the
    /// concrete counterpart of the k-packet symbolic unrolling. Returns one
    /// output per packet, in order.
    pub fn inject_sequence(
        &self,
        packets: &[Packet],
        initial_registers: &ConcreteState,
    ) -> Vec<TargetOutput> {
        let mut regs = initial_registers.clone();
        packets
            .iter()
            .map(|p| self.inject_stateful(p, &mut regs))
            .collect()
    }

    /// Injects one packet against a mutable register file, committing the
    /// packet's register writes back into it. A packet that fails to parse
    /// or wedges in an undefined branch leaves the file untouched; a packet
    /// the program *drops* still executed its path, so its writes commit.
    pub fn inject_stateful(&self, packet: &Packet, regs: &mut ConcreteState) -> TargetOutput {
        let Ok(state) = self.plan.parse(&self.program.cfg.fields, packet) else {
            return TargetOutput {
                packet: None,
                egress_port: None,
                final_state: ConcreteState::new(),
            };
        };
        self.run_state_with_registers(&state, packet.id, regs)
    }

    /// Executes the program from an already-parsed field state. Exposed so
    /// the test driver can also drive state-level comparisons.
    pub fn run_state(&self, input: &ConcreteState, id: u64) -> TargetOutput {
        let state = self.plan.normalize_input(&self.program.cfg.fields, input);
        match self.interpret(&self.program.cfg, &state) {
            Some(final_state) => self.emit(final_state, id),
            None => TargetOutput {
                packet: None,
                egress_port: None,
                final_state: state,
            },
        }
    }

    /// [`SwitchTarget::run_state`] against a live register file: every
    /// declared register cell in the input is overwritten by the file's
    /// current value before execution (the wire carries no register state),
    /// and the final values are committed back after.
    pub fn run_state_with_registers(
        &self,
        input: &ConcreteState,
        id: u64,
        regs: &mut ConcreteState,
    ) -> TargetOutput {
        let fields = &self.program.cfg.fields;
        let mut seeded = input.clone();
        for r in &self.program.registers {
            for &(_, f) in &r.cells {
                seeded.set(fields, f, regs.get(fields, f));
            }
        }
        let state = self.plan.normalize_input(&self.program.cfg.fields, &seeded);
        match self.interpret(&self.program.cfg, &state) {
            Some(final_state) => {
                for r in &self.program.registers {
                    for &(_, f) in &r.cells {
                        regs.set(fields, f, final_state.get(fields, f));
                    }
                }
                self.emit(final_state, id)
            }
            // Wedged: undefined behaviour is modeled as a silent drop that
            // never reached the register stage.
            None => TargetOutput {
                packet: None,
                egress_port: None,
                final_state: state,
            },
        }
    }

    /// Assembles the output for a completed execution: drop check, egress
    /// port, deparsed packet.
    fn emit(&self, final_state: ConcreteState, id: u64) -> TargetOutput {
        let fields = &self.program.cfg.fields;
        let dropped = self
            .drop_field
            .map(|f| !final_state.get(fields, f).is_zero())
            .unwrap_or(false);
        let egress_port = self.egress_field.map(|f| final_state.get(fields, f));
        let packet = if dropped {
            None
        } else {
            Some(self.plan.serialize_output(&self.program.cfg.fields, &final_state, id))
        };
        TargetOutput {
            packet,
            egress_port,
            final_state,
        }
    }

    /// Deterministic execution with fault application. Returns the final
    /// state, or `None` when execution wedges (no viable branch — undefined
    /// behaviour on hardware; we model it as a silent drop).
    fn interpret(&self, cfg: &Cfg, input: &ConcreteState) -> Option<ConcreteState> {
        let fields = &cfg.fields;
        let mut state = input.clone();
        let mut node = cfg.entry();
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > cfg.num_nodes() + 16 {
                return None; // cycle guard; CFGs are acyclic so unreachable
            }
            self.exec_stmt(fields, &mut state, cfg.stmt(node))?;
            let succ = cfg.succ(node);
            if succ.is_empty() {
                return Some(state);
            }
            node = self.pick_branch(cfg, &state, node)?;
            if let Some(t) = &self.tally {
                t.bump(node);
            }
        }
    }

    /// Branch selection with hardware semantics: where a successor carries
    /// a *raw* match guard (table rules, select arms), the target evaluates
    /// the raw match in successor (priority) order — first match wins,
    /// exactly equivalent to the CFG's flattened conditions on a faithful
    /// backend, but perturbable by the priority-inversion fault. An indexed
    /// node answers the same question with one hash lookup per mask group.
    fn pick_branch(&self, cfg: &Cfg, state: &ConcreteState, node: NodeId) -> Option<NodeId> {
        let succ = cfg.succ(node);
        let mut rest = succ;
        if let Some(Some(ix)) = self.index.get(node.0 as usize) {
            if let Some(i) = ix.first_match(|f| state.get(&cfg.fields, f).val()) {
                return Some(succ[i]);
            }
            if ix.miss_direct() {
                return Some(succ[ix.indexed()]);
            }
            rest = &succ[ix.indexed()..];
        }
        self.scan(cfg, state, rest)
    }

    /// The in-order guard scan over `succ`.
    fn scan(&self, cfg: &Cfg, state: &ConcreteState, succ: &[NodeId]) -> Option<NodeId> {
        let mut chosen = None;
        for &s in succ {
            let take = match scan_guard(cfg, s) {
                Some(guard) => self.eval_bexp(&cfg.fields, state, guard),
                // Non-predicate successors are unconditional continuations.
                None => true,
            };
            if take {
                chosen = Some(s);
                // Fault: inverted rule priority keeps scanning so the LAST
                // matching alternative wins (but never steals the default
                // branch's slot: hardware defaults fire only on total miss).
                if self.fault != Fault::PriorityInverted {
                    break;
                }
            }
        }
        chosen // None = all guards false: undefined; drop
    }

    fn exec_stmt(
        &self,
        fields: &meissa_ir::FieldTable,
        state: &mut ConcreteState,
        stmt: &Stmt,
    ) -> Option<()> {
        match stmt {
            Stmt::Assume(_) => {
                // Guards were evaluated by `pick_branch` before entering the
                // node (raw guards included); re-checking here would wrongly
                // re-apply the analyzer's priority flattening under the
                // inversion fault. Nothing to execute.
                Some(())
            }
            Stmt::Assign(f, e) => {
                let ff = &self.fault_fields;
                // Fault: setValid compiled to a no-op (backend bug C).
                if ff.valid_dropped == Some(*f) && matches!(e, AExp::Const(c) if c.val() == 1) {
                    return Some(());
                }
                // Fault: checksum-update writes dropped (missing flag).
                if self.fault == Fault::ChecksumNotUpdated && contains_csum(e) {
                    return Some(());
                }
                let mut value = state.eval_aexp(fields, e);
                // Fault: corrupted immediate (frontend constant bug).
                if let Some((field, xor_mask)) = ff.wrong_constant {
                    if field == *f && matches!(e, AExp::Const(_)) {
                        value = value.xor(&Bv::new(value.width(), xor_mask));
                    }
                }
                // Fault: assignment lands on the wrong destination.
                let dest = match ff.wrong_assignment {
                    Some((intended, actual)) if intended == *f => actual,
                    _ => *f,
                };
                state.set(fields, dest, value);
                // Fault: pragma overlay — the partner field is clobbered.
                if let Some((a, b)) = ff.overlap {
                    let partner = if dest == a {
                        Some(b)
                    } else if dest == b {
                        Some(a)
                    } else {
                        None
                    };
                    if let Some(p) = partner {
                        if fields.width(p) == value.width() {
                            state.set(fields, p, value);
                        }
                    }
                }
                Some(())
            }
        }
    }

    /// Boolean evaluation with the comparison fault applied.
    fn eval_bexp(&self, fields: &meissa_ir::FieldTable, state: &ConcreteState, b: &BExp) -> bool {
        match b {
            BExp::True => true,
            BExp::False => false,
            BExp::Cmp(op, x, y) => {
                let vx = state.eval_aexp(fields, x);
                let vy = state.eval_aexp(fields, y);
                let mut op = *op;
                if let Fault::WrongArithComparison { width } = self.fault {
                    if vx.width() == width {
                        op = match op {
                            meissa_ir::CmpOp::Lt => meissa_ir::CmpOp::Le,
                            meissa_ir::CmpOp::Gt => meissa_ir::CmpOp::Ge,
                            other => other,
                        };
                    }
                }
                match op {
                    meissa_ir::CmpOp::Eq => vx == vy,
                    meissa_ir::CmpOp::Ne => vx != vy,
                    meissa_ir::CmpOp::Lt => vx.ult(&vy),
                    meissa_ir::CmpOp::Gt => vx.ugt(&vy),
                    meissa_ir::CmpOp::Le => !vx.ugt(&vy),
                    meissa_ir::CmpOp::Ge => !vx.ult(&vy),
                }
            }
            BExp::Bin(meissa_ir::BOp::And, x, y) => {
                self.eval_bexp(fields, state, x) && self.eval_bexp(fields, state, y)
            }
            BExp::Bin(meissa_ir::BOp::Or, x, y) => {
                self.eval_bexp(fields, state, x) || self.eval_bexp(fields, state, y)
            }
            BExp::Not(x) => !self.eval_bexp(fields, state, x),
        }
    }
}

/// The fields a [`Fault`] names, resolved against the program's field
/// table once so the per-assignment checks compare `FieldId`s, not names.
/// A name the program does not declare resolves to `None`, so the fault
/// never fires.
#[derive(Default)]
struct FaultFields {
    /// `hdr.<header>.$valid` under [`Fault::SetValidDropped`].
    valid_dropped: Option<FieldId>,
    /// The corrupted destination and its XOR mask under
    /// [`Fault::WrongConstant`].
    wrong_constant: Option<(FieldId, u128)>,
    /// `(intended, actual)` under [`Fault::WrongAssignment`], when both exist.
    wrong_assignment: Option<(FieldId, FieldId)>,
    /// The overlaid pair under [`Fault::FieldOverlap`], when both exist
    /// (a write to one clobbers the other only then).
    overlap: Option<(FieldId, FieldId)>,
}

impl FaultFields {
    fn resolve(fields: &meissa_ir::FieldTable, fault: &Fault) -> Self {
        let mut ff = FaultFields::default();
        match fault {
            Fault::SetValidDropped { header } => {
                ff.valid_dropped = fields.get(&format!("hdr.{header}.$valid"));
            }
            Fault::WrongConstant { field, xor_mask } => {
                ff.wrong_constant = fields.get(field).map(|f| (f, *xor_mask));
            }
            Fault::WrongAssignment { intended, actual } => {
                ff.wrong_assignment = fields.get(intended).zip(fields.get(actual));
            }
            Fault::FieldOverlap { a, b } => ff.overlap = fields.get(a).zip(fields.get(b)),
            _ => {}
        }
        ff
    }
}

/// The guard the scan evaluates before entering `s`: its raw match guard
/// when it has one, else its `assume` condition; `None` for an
/// unconditional continuation.
fn scan_guard(cfg: &Cfg, s: NodeId) -> Option<&BExp> {
    match (cfg.raw_guard(s), cfg.stmt(s)) {
        (Some(raw), _) => Some(raw),
        (None, Stmt::Assume(b)) => Some(b),
        (None, _) => None,
    }
}

fn contains_csum(e: &AExp) -> bool {
    match e {
        AExp::Hash(HashAlg::Csum16, _, _) => true,
        AExp::Hash(_, _, args) => args.iter().any(contains_csum),
        AExp::Field(_) | AExp::Const(_) => false,
        AExp::Bin(_, a, b) => contains_csum(a) || contains_csum(b),
        AExp::Not(a) | AExp::Shl(a, _) | AExp::Shr(a, _) => contains_csum(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::serialize_state;
    use meissa_lang::{compile, parse_program, parse_rules};

    const PROGRAM: &str = r#"
        header ethernet { dst: 48; src: 48; ether_type: 16; }
        header ipv4 { ttl: 8; protocol: 8; src_addr: 32; dst_addr: 32; checksum: 16; }
        header vxlan { vni: 24; }
        metadata meta { egress_port: 9; drop: 1; }
        parser main {
          state start {
            extract(ethernet);
            select (hdr.ethernet.ether_type) { 0x0800 => parse_ipv4; default => accept; }
          }
          state parse_ipv4 { extract(ipv4); accept; }
        }
        action set_port(port: 9) { meta.egress_port = port; }
        action encap(vni: 24) {
          hdr.vxlan.setValid();
          hdr.vxlan.vni = vni;
          hdr.ipv4.checksum = hash(csum16, 16, hdr.ipv4.src_addr, hdr.ipv4.dst_addr);
        }
        action drop_() { meta.drop = 1; }
        table route {
          key = { hdr.ipv4.dst_addr: lpm; }
          actions = { set_port; drop_; }
          default_action = drop_();
        }
        control ig {
          if (hdr.ipv4.isValid()) {
            apply(route);
            if (hdr.ipv4.ttl < 2) { call drop_(); } else { call encap(99); }
          }
        }
        pipeline ingress0 { parser = main; control = ig; }
        deparser { emit(ethernet); emit(ipv4); emit(vxlan); }
    "#;

    const RULES: &str = "rules route { 10.0.0.0/8 => set_port(3); }";

    fn program() -> CompiledProgram {
        let p = parse_program(PROGRAM).unwrap();
        compile(&p, &parse_rules(RULES).unwrap()).unwrap()
    }

    fn input(cp: &CompiledProgram, ttl: u128, dst: u128) -> ConcreteState {
        let fields = &cp.cfg.fields;
        let f = |n: &str| fields.get(n).unwrap();
        ConcreteState::from_pairs([
            (f("hdr.ethernet.ether_type"), Bv::new(16, 0x0800)),
            (f("hdr.ipv4.ttl"), Bv::new(8, ttl)),
            (f("hdr.ipv4.dst_addr"), Bv::new(32, dst)),
            (f("hdr.ipv4.src_addr"), Bv::new(32, 0x01020304)),
        ])
    }

    #[test]
    fn faithful_target_forwards_and_encaps() {
        let cp = program();
        let t = SwitchTarget::new(&cp);
        let out = t.run_state(&input(&cp, 64, 0x0a000001), 1);
        assert!(out.packet.is_some());
        assert_eq!(out.egress_port, Some(Bv::new(9, 3)));
        let fields = &cp.cfg.fields;
        let vv = fields.get("hdr.vxlan.$valid").unwrap();
        assert_eq!(out.final_state.get(fields, vv).val(), 1);
        let cs = fields.get("hdr.ipv4.checksum").unwrap();
        let expect = HashAlg::Csum16.compute(
            16,
            &[Bv::new(32, 0x01020304), Bv::new(32, 0x0a000001)],
        );
        assert_eq!(out.final_state.get(fields, cs), expect);
    }

    #[test]
    fn tally_counts_rule_and_miss_arms_per_injected_packet() {
        let cp = program();
        let t = SwitchTarget::new(&cp).with_tally();
        let tally = t.tally().expect("tally enabled").clone();
        // One installed rule plus the default (miss) arm.
        assert_eq!(tally.arms_total(), 2);
        assert_eq!(tally.arms_hit(), 0);

        // Two packets matching rule 0, one total miss (default drop).
        t.run_state(&input(&cp, 64, 0x0a000001), 1);
        t.run_state(&input(&cp, 64, 0x0a000002), 2);
        t.run_state(&input(&cp, 64, 0x08080808), 3);

        assert_eq!(tally.arms_hit(), 2);
        let snap = tally.snapshot();
        assert_eq!(
            snap,
            vec![
                ("route", RuleArm::Rule(0), 2),
                ("route", RuleArm::Miss, 1),
            ]
        );
    }

    #[test]
    fn tally_absent_by_default_and_costless() {
        let cp = program();
        let t = SwitchTarget::new(&cp);
        assert!(t.tally().is_none());
        // Behaviour identical with and without the tally.
        let with = SwitchTarget::new(&cp).with_tally();
        let a = t.run_state(&input(&cp, 64, 0x0a000001), 1);
        let b = with.run_state(&input(&cp, 64, 0x0a000001), 1);
        assert_eq!(a.egress_port, b.egress_port);
        assert_eq!(a.final_state, b.final_state);
    }

    #[test]
    fn drop_flag_suppresses_output() {
        let cp = program();
        let t = SwitchTarget::new(&cp);
        // dst matches no rule → default drop_.
        let out = t.run_state(&input(&cp, 64, 0x08080808), 1);
        assert!(out.packet.is_none());
    }

    #[test]
    fn packet_level_injection_roundtrip() {
        let cp = program();
        let t = SwitchTarget::new(&cp);
        let state = input(&cp, 64, 0x0a000001);
        let pkt = serialize_state(&cp, &state, 42).unwrap();
        let out = t.inject(&pkt);
        let got = out.packet.expect("forwarded");
        assert_eq!(got.id, 42);
        // Output carries vxlan now: longer than the input.
        assert!(got.len() > pkt.len());
    }

    #[test]
    fn setvalid_dropped_fault_diverges() {
        let cp = program();
        let good = SwitchTarget::new(&cp);
        let bad = SwitchTarget::with_fault(
            &cp,
            Fault::SetValidDropped {
                header: "vxlan".into(),
            },
        );
        let state = input(&cp, 64, 0x0a000001);
        let fields = &cp.cfg.fields;
        let vv = fields.get("hdr.vxlan.$valid").unwrap();
        assert_eq!(good.run_state(&state, 1).final_state.get(fields, vv).val(), 1);
        assert_eq!(bad.run_state(&state, 1).final_state.get(fields, vv).val(), 0);
        // And the emitted packets differ (no vxlan header on the wire).
        let g = good.run_state(&state, 1).packet.unwrap();
        let b = bad.run_state(&state, 1).packet.unwrap();
        assert!(g.len() > b.len());
    }

    #[test]
    fn checksum_fault_leaves_stale_checksum() {
        let cp = program();
        let bad = SwitchTarget::with_fault(&cp, Fault::ChecksumNotUpdated);
        let state = input(&cp, 64, 0x0a000001);
        let fields = &cp.cfg.fields;
        let cs = fields.get("hdr.ipv4.checksum").unwrap();
        let out = bad.run_state(&state, 1);
        assert_eq!(out.final_state.get(fields, cs).val(), 0, "never updated");
    }

    #[test]
    fn wrong_comparison_fault_flips_boundary() {
        let cp = program();
        let good = SwitchTarget::new(&cp);
        let bad = SwitchTarget::with_fault(&cp, Fault::WrongArithComparison { width: 8 });
        // ttl == 2 sits exactly on the `ttl < 2` boundary: faithful target
        // encaps; faulty target (`<` → `<=`) drops.
        let state = input(&cp, 2, 0x0a000001);
        assert!(good.run_state(&state, 1).packet.is_some());
        assert!(bad.run_state(&state, 1).packet.is_none());
        // Away from the boundary both agree.
        let state = input(&cp, 64, 0x0a000001);
        assert!(good.run_state(&state, 1).packet.is_some());
        assert!(bad.run_state(&state, 1).packet.is_some());
    }

    #[test]
    fn wrong_assignment_fault_redirects_write() {
        let cp = program();
        let bad = SwitchTarget::with_fault(
            &cp,
            Fault::WrongAssignment {
                intended: "hdr.vxlan.vni".into(),
                actual: "hdr.vxlan.vni".into(), // same-name redirect is a no-op…
            },
        );
        let state = input(&cp, 64, 0x0a000001);
        let fields = &cp.cfg.fields;
        let vni = fields.get("hdr.vxlan.vni").unwrap();
        assert_eq!(bad.run_state(&state, 1).final_state.get(fields, vni).val(), 99);
    }

    #[test]
    fn field_overlap_fault_clobbers_partner() {
        // The §6 pragma case shape: a 16-bit field the program writes
        // (ipv4.checksum, via encap) was overlaid with an unrelated 16-bit
        // field (ethernet.ether_type) — the write corrupts both.
        let cp = program();
        let bad = SwitchTarget::with_fault(
            &cp,
            Fault::FieldOverlap {
                a: "hdr.ethernet.ether_type".into(),
                b: "hdr.ipv4.checksum".into(),
            },
        );
        let state = input(&cp, 64, 0x0a000001);
        let out = bad.run_state(&state, 1);
        let fields = &cp.cfg.fields;
        let et = fields.get("hdr.ethernet.ether_type").unwrap();
        let cs = fields.get("hdr.ipv4.checksum").unwrap();
        assert_eq!(
            out.final_state.get(fields, et),
            out.final_state.get(fields, cs),
            "overlaid fields collapse to one value"
        );
        assert_ne!(
            out.final_state.get(fields, et),
            Bv::new(16, 0x0800),
            "ether_type corrupted by the checksum write"
        );
        // The faithful target keeps them independent.
        let good = SwitchTarget::new(&cp).run_state(&state, 1);
        assert_eq!(good.final_state.get(fields, et), Bv::new(16, 0x0800));
    }

    #[test]
    fn register_file_persists_across_a_sequence() {
        let src = r#"
            header pkt { x: 8; }
            metadata meta { y: 8; }
            register acc[1]: 8;
            parser p { state start { extract(pkt); accept; } }
            action bump() { acc[0] = acc[0] + hdr.pkt.x; meta.y = acc[0]; }
            control ig { call bump(); }
            pipeline ingress0 { parser = p; control = ig; }
            deparser { emit(pkt); }
        "#;
        let cp = compile(
            &parse_program(src).unwrap(),
            &parse_rules("").unwrap(),
        )
        .unwrap();
        let t = SwitchTarget::new(&cp);
        let fields = &cp.cfg.fields;
        let x = fields.get("hdr.pkt.x").unwrap();
        let y = fields.get("meta.y").unwrap();
        let mk = |v: u128, id: u64| {
            serialize_state(&cp, &ConcreteState::from_pairs([(x, Bv::new(8, v))]), id).unwrap()
        };
        let pkts = [mk(5, 1), mk(7, 2), mk(11, 3)];

        // Stateful sequence: the accumulator carries across packets.
        let outs = t.inject_sequence(&pkts, &ConcreteState::new());
        let ys: Vec<u128> = outs.iter().map(|o| o.final_state.get(fields, y).val()).collect();
        assert_eq!(ys, vec![5, 12, 23]);

        // Plain inject is stateless: every packet sees a zero register.
        assert_eq!(t.inject(&pkts[1]).final_state.get(fields, y).val(), 7);
        assert_eq!(t.inject(&pkts[1]).final_state.get(fields, y).val(), 7);

        // Seeded initial state shifts the whole sequence.
        let acc = fields.get("REG:acc-POS:0").unwrap();
        let seed = ConcreteState::from_pairs([(acc, Bv::new(8, 100))]);
        let outs = t.inject_sequence(&pkts[..1], &seed);
        assert_eq!(outs[0].final_state.get(fields, y).val(), 105);
    }

    #[test]
    fn truncated_packet_is_dropped() {
        let cp = program();
        let t = SwitchTarget::new(&cp);
        let out = t.inject(&Packet {
            bytes: vec![0u8; 3],
            id: 0,
        });
        assert!(out.packet.is_none());
    }
}
