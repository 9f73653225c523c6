//! Stateful multi-packet test generation: k-packet sequence templates.
//!
//! The single-packet engine inherits §4's stateless register model: every
//! `REG:name-POS:idx` cell is a free symbolic input, so behaviours that
//! depend on what an *earlier* packet stored are invisible. This module
//! closes that gap for bounded sequences. [`Meissa::run_sequences`] unrolls
//! the program CFG `k` times ([`meissa_ir::unroll`]) — non-register fields
//! renamed `pkt{i}.…` per copy, register fields *shared* — and runs the
//! ordinary template generator on the concatenated graph. Because symbolic
//! execution walks one path through all `k` copies with a single value
//! environment, a register write in copy `i−1` shadows the register's input
//! variable for copy `i`'s reads: packet *i*'s behaviour is constrained by
//! packet *i−1*'s writes with no extra encoding.
//!
//! Each valid unrolled path becomes a [`SequenceTemplate`]: the underlying
//! [`TestTemplate`] holds the *inter-packet* constraint conjunction and the
//! final symbolic state, and `packet_paths` records the per-packet slice of
//! the covered path in original-CFG node ids. Instantiation yields a
//! [`SequenceCase`] — one concrete input state per packet (over the
//! original program's fields) plus the initial register values the sequence
//! assumes, which is empty under zero-init (the default: a freshly booted
//! target already satisfies it) and carries the solver's chosen pre-state
//! under `symbolic_init`.
//!
//! `k = 1` does not approximate the single-packet engine — it *is* the
//! single-packet engine: `run_sequences` delegates to the exact
//! [`Meissa::run`] flow (summary included) and wraps each template 1:1, so
//! templates and [`RunStats`] are byte-identical to a plain `run`.

use crate::engine::{Meissa, RunStats};
use crate::exec::generate_templates;
use crate::session::SolveSession;
use crate::template::TestTemplate;
use meissa_ir::{
    count_paths, is_register_field, unroll, Cfg, ConcreteState, FieldId, FieldTable,
    InitialState, NodeId,
};
use meissa_lang::CompiledProgram;
use meissa_num::Bv;
use meissa_smt::TermPool;
use meissa_testkit::obs;
use std::collections::HashMap;
use std::time::Instant;

/// A test case template for one valid k-packet sequence.
#[derive(Clone, Debug)]
pub struct SequenceTemplate {
    /// Sequential template id.
    pub id: usize,
    /// Sequence length.
    pub k: usize,
    /// Per-packet slices of the covered path, as *original-CFG* node ids
    /// (`packet_paths[i]` is the path packet `i` drives). Zero-init chain
    /// nodes belong to no packet and are omitted.
    pub packet_paths: Vec<Vec<NodeId>>,
    /// The underlying template over the unrolled CFG: `constraints` is the
    /// inter-packet path condition (over `pkt{i}.…` input variables and the
    /// shared register state), `final_values` the expected symbolic outputs
    /// of every copy.
    pub template: TestTemplate,
}

/// A concrete, ordered test case instantiated from a [`SequenceTemplate`].
#[derive(Clone, Debug)]
pub struct SequenceCase {
    /// One input state per packet, over the *original* program's fields.
    /// Register fields are deliberately absent: the target threads register
    /// state across the sequence itself.
    pub packets: Vec<ConcreteState>,
    /// Register values the sequence assumes *before* packet 0, over the
    /// original program's fields. Empty under zero-init; under
    /// `symbolic_init` a driver must seed these into the target before
    /// injecting.
    pub initial_registers: ConcreteState,
}

/// The output of a stateful engine run.
pub struct StatefulRunOutput {
    /// Term pool the sequence constraints live in.
    pub pool: TermPool,
    /// The graph template generation actually ran on: the k-unrolled CFG,
    /// or (for `k = 1`) whatever [`Meissa::run`] produced.
    pub cfg: Cfg,
    /// Generated sequence templates, one per valid unrolled path.
    pub sequences: Vec<SequenceTemplate>,
    /// Statistics — byte-identical to a plain `run` when `k = 1`.
    pub stats: RunStats,
    /// Sequence length.
    pub k: usize,
    /// The original program's field table (for splitting unrolled states).
    original_fields: FieldTable,
    /// `copy_field[i][f.0]` = exploration-table id of original field `f` in
    /// copy `i` (identity for `k = 1`).
    copy_field: Vec<Vec<FieldId>>,
    /// Register cells as (original id, exploration-table id) pairs.
    registers: Vec<(FieldId, FieldId)>,
}

impl StatefulRunOutput {
    /// Instantiates sequence template `idx` into a concrete ordered case.
    pub fn instantiate(&mut self, idx: usize) -> Option<SequenceCase> {
        let t = &self.sequences[idx].template;
        let unrolled = t.instantiate(&mut self.pool, &self.cfg.fields, &[])?;
        Some(self.split(&unrolled))
    }

    /// Splits a model over the unrolled field table into per-packet input
    /// states (original fields) plus the initial register state.
    pub fn split(&self, unrolled: &ConcreteState) -> SequenceCase {
        let vals: HashMap<FieldId, Bv> = unrolled.iter().collect();
        let mut packets = Vec::with_capacity(self.k);
        for map in &self.copy_field {
            let mut st = ConcreteState::new();
            for f in self.original_fields.iter() {
                if is_register_field(self.original_fields.name(f)) {
                    continue; // the target threads register state itself
                }
                if let Some(v) = vals.get(&map[f.0 as usize]) {
                    st.set(&self.original_fields, f, *v);
                }
            }
            packets.push(st);
        }
        let mut initial_registers = ConcreteState::new();
        for &(orig, unrolled_id) in &self.registers {
            if let Some(v) = vals.get(&unrolled_id) {
                initial_registers.set(&self.original_fields, orig, *v);
            }
        }
        SequenceCase {
            packets,
            initial_registers,
        }
    }

    /// The original program's field table the per-packet states refer to.
    pub fn original_fields(&self) -> &FieldTable {
        &self.original_fields
    }
}

impl Meissa {
    /// Runs stateful sequence-test generation: `config.k_packets` packets
    /// per sequence, initial register state zeroed unless
    /// `config.symbolic_init`. See the module docs for the encoding;
    /// `k_packets = 1` delegates to the exact single-packet [`Meissa::run`]
    /// flow.
    pub fn run_sequences(&self, program: &CompiledProgram) -> StatefulRunOutput {
        obs::init_from_env();
        let k = self.config.k_packets.max(1);
        let mut seq_span = obs::span("sequence.run");
        seq_span.field("k", k as u64);

        let original_fields = program.cfg.fields.clone();
        if k == 1 {
            let out = self.run(program);
            seq_span.field("templates", out.templates.len() as u64);
            drop(seq_span);
            // The summarized table extends the original one in place, so
            // original ids are valid exploration ids: identity mapping.
            let identity: Vec<FieldId> = original_fields.iter().collect();
            let registers: Vec<(FieldId, FieldId)> = original_fields
                .iter()
                .filter(|&f| is_register_field(original_fields.name(f)))
                .map(|f| (f, f))
                .collect();
            let sequences = out
                .templates
                .into_iter()
                .map(|t| SequenceTemplate {
                    id: t.id,
                    k: 1,
                    packet_paths: vec![t.path.clone()],
                    template: t,
                })
                .collect();
            return StatefulRunOutput {
                pool: out.pool,
                cfg: out.cfg,
                sequences,
                stats: out.stats,
                k: 1,
                original_fields,
                copy_field: vec![identity],
                registers,
            };
        }

        let t0 = Instant::now();
        let init = if self.config.symbolic_init {
            InitialState::Symbolic
        } else {
            InitialState::Zero
        };
        let mut unroll_span = obs::span("sequence.unroll");
        let u = unroll(&program.cfg, k, init);
        unroll_span.field("k", k as u64);
        unroll_span.field("nodes", u.cfg.num_nodes() as u64);
        unroll_span.field("registers", u.registers.len() as u64);
        drop(unroll_span);

        let mut session = SolveSession::new();
        let mut stats = RunStats {
            paths_before: count_paths(&u.cfg).total,
            ..RunStats::default()
        };
        // Code summary is an inter-pipeline decomposition of *one* packet's
        // traversal; across copies the shared register fields make effects
        // order-dependent, so the unrolled graph runs the basic framework.
        stats.paths_after = stats.paths_before.clone();

        let exec = generate_templates(&u.cfg, &mut session, &self.config.exec_config());
        stats.exec_elapsed = exec.stats.elapsed;
        stats.smt_checks = exec.stats.smt_checks;
        stats.valid_paths = exec.stats.valid_paths;
        stats.paths_explored = exec.stats.paths_explored;
        stats.pruned = exec.stats.pruned;
        stats.timed_out = exec.stats.timed_out;
        stats.batched_probes = session.exec.batched_probes;
        stats.arm_batches = session.exec.arm_batches;
        stats.solver = session.solver_stats();
        stats.sat = session.sat_stats();
        stats.elapsed = t0.elapsed();

        // Rule coverage over the unrolled graph: sites propagate per copy
        // with un-prefixed table names, so hits from any packet of a
        // sequence accrue to the one physical table.
        let rcov = crate::coverage::measure_rules(&u.cfg, &exec.templates);
        stats.rules_hit = rcov.rules_hit();
        stats.rules_total = rcov.rules_total();
        stats.tables_full = rcov.tables_full();
        stats.tables_total = rcov.tables_total();
        if obs::active() {
            obs::counter("coverage.rules_hit").add(stats.rules_hit);
            obs::gauge("coverage.tables_full").set(stats.tables_full);
        }

        // Split each unrolled path into per-packet slices: node j of copy i
        // has unrolled id i·n + j; init-chain nodes (ids ≥ k·n) are global.
        let n = program.cfg.num_nodes();
        let sequences: Vec<SequenceTemplate> = exec
            .templates
            .into_iter()
            .map(|t| {
                let mut packet_paths = vec![Vec::new(); k];
                for &node in &t.path {
                    let idx = node.0 as usize;
                    if idx < k * n {
                        packet_paths[idx / n].push(NodeId((idx % n) as u32));
                    }
                }
                SequenceTemplate {
                    id: t.id,
                    k,
                    packet_paths,
                    template: t,
                }
            })
            .collect();

        if obs::trace_on() {
            obs::note("coverage", {
                use meissa_testkit::json::ToJson as _;
                rcov.to_json().to_text()
            });
            seq_span.field("templates", sequences.len() as u64);
            seq_span.field("smt_checks", stats.smt_checks);
            seq_span.field("paths_explored", stats.paths_explored);
            seq_span.field("rules_hit", stats.rules_hit);
            seq_span.field("rules_total", stats.rules_total);
            drop(seq_span);
            if let Err(e) = obs::flush_trace() {
                eprintln!("meissa: trace flush failed: {e}");
            }
        }
        if obs::log_on(obs::LogLevel::Info) {
            obs::log(
                obs::LogLevel::Info,
                "sequence",
                &format!(
                    "run done: k={k} sequences={} smt_checks={} elapsed={:?}",
                    sequences.len(),
                    stats.smt_checks,
                    stats.elapsed
                ),
            );
        }

        stats.rule_coverage = Some(rcov);
        crate::engine::ledger_append_run(
            "sequence.run",
            &program.cfg,
            &self.config,
            &stats,
            None,
        );

        let registers: Vec<(FieldId, FieldId)> = u
            .registers
            .iter()
            .map(|&r| {
                let name = u.cfg.fields.name(r);
                (
                    original_fields
                        .get(name)
                        .expect("register exists in the original table"),
                    r,
                )
            })
            .collect();
        StatefulRunOutput {
            pool: session.into_pool(),
            cfg: u.cfg,
            sequences,
            stats,
            k,
            original_fields,
            copy_field: u.copy_field,
            registers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MeissaConfig;
    use meissa_lang::{compile, parse_program, parse_rules};

    /// A register-gated forwarder: packet is forwarded only when the seen
    /// flag is already set; every packet from port 1 sets it. Only a
    /// 2-packet sequence can both set and consume the flag from zero-init.
    const GATED: &str = r#"
        header pkt { kind: 8; }
        metadata meta { drop: 1; }
        register seen[2]: 1;
        parser p { state start { extract(pkt); accept; } }
        action mark() { seen[0] = 1; }
        action pass_() { }
        action drop_() { meta.drop = 1; }
        control ig {
          if (hdr.pkt.kind == 1) { call mark(); }
          else {
            if (seen[0] == 1) { call pass_(); } else { call drop_(); }
          }
        }
        pipeline ingress0 { parser = p; control = ig; }
        deparser { emit(pkt); }
    "#;

    fn program() -> meissa_lang::CompiledProgram {
        compile(
            &parse_program(GATED).unwrap(),
            &parse_rules("").unwrap(),
        )
        .unwrap()
    }

    fn engine(k: usize) -> Meissa {
        Meissa {
            config: MeissaConfig {
                k_packets: k,
                threads: 1,
                ..MeissaConfig::default()
            },
        }
    }

    #[test]
    fn k1_is_byte_identical_to_run() {
        let cp = program();
        let single = Meissa {
            config: MeissaConfig {
                threads: 1,
                ..MeissaConfig::default()
            },
        }
        .run(&cp);
        let seq = engine(1).run_sequences(&cp);
        assert_eq!(seq.k, 1);
        assert_eq!(seq.sequences.len(), single.templates.len());
        for (s, t) in seq.sequences.iter().zip(&single.templates) {
            assert_eq!(s.template.path, t.path);
            assert_eq!(s.template.constraints, t.constraints);
            assert_eq!(s.template.final_values, t.final_values);
            assert_eq!(s.packet_paths, vec![t.path.clone()]);
        }
        assert_eq!(seq.stats.smt_checks, single.stats.smt_checks);
        assert_eq!(seq.stats.paths_before, single.stats.paths_before);
        assert_eq!(seq.stats.paths_explored, single.stats.paths_explored);
    }

    #[test]
    fn k2_finds_the_set_then_consume_sequence() {
        let cp = program();
        let mut out = engine(2).run_sequences(&cp);
        assert_eq!(out.k, 2);
        assert!(!out.sequences.is_empty());
        let fields = out.original_fields().clone();
        let kind = fields.get("hdr.pkt.kind").unwrap();
        let drop = fields.get("meta.drop").unwrap();
        // Look for a sequence whose packet 0 marks (kind==1) and whose
        // packet 1 consumes the flag (kind!=1 yet not dropped). Under
        // zero-init this is only reachable via the threaded register.
        let mut found = false;
        for i in 0..out.sequences.len() {
            let Some(case) = out.instantiate(i) else {
                continue;
            };
            assert_eq!(case.packets.len(), 2);
            assert!(
                case.initial_registers.is_empty(),
                "zero-init carries no register seed"
            );
            let k0 = case.packets[0].get(&fields, kind);
            let k1 = case.packets[1].get(&fields, kind);
            if k0.val() == 1 && k1.val() != 1 {
                // Replay concretely on the unrolled graph: packet 1 must
                // pass (drop stays 0 in copy 1).
                let mut st = ConcreteState::new();
                let t = &out.cfg.fields;
                for (copy, pkt) in case.packets.iter().enumerate() {
                    for (f, v) in pkt.iter() {
                        let name = fields.name(f);
                        let uf = t
                            .get(&meissa_ir::sequence_field_name(copy, name))
                            .unwrap();
                        st.set(t, uf, v);
                    }
                }
                let final_st =
                    meissa_ir::eval_path(&out.cfg, &out.sequences[i].template.path, &st)
                        .expect("sequence path replays");
                let d1 = t.get(&meissa_ir::sequence_field_name(1, "meta.drop")).unwrap();
                if final_st.get(t, d1).is_zero() {
                    found = true;
                }
            }
            let _ = drop;
        }
        assert!(found, "a mark-then-pass sequence must be generated");
    }

    #[test]
    fn symbolic_init_seeds_initial_registers() {
        let cp = program();
        let mut e = engine(2);
        e.config.symbolic_init = true;
        let mut out = e.run_sequences(&cp);
        let fields = out.original_fields().clone();
        let kind = fields.get("hdr.pkt.kind").unwrap();
        let seen = fields.get("REG:seen-POS:0").unwrap();
        // With a symbolic pre-state there is a sequence where BOTH packets
        // consume (neither marks): the flag was already set before packet 0.
        let mut found = false;
        for i in 0..out.sequences.len() {
            let Some(case) = out.instantiate(i) else {
                continue;
            };
            let both_consume = case
                .packets
                .iter()
                .all(|p| p.get(&fields, kind).val() != 1);
            if both_consume && case.initial_registers.get(&fields, seen).val() == 1 {
                found = true;
            }
        }
        assert!(found, "symbolic init must surface a pre-seeded sequence");
    }

    #[test]
    fn sequence_exploration_is_thread_invariant() {
        let cp = program();
        let base = engine(2).run_sequences(&cp);
        let mut e4 = engine(2);
        e4.config.threads = 4;
        e4.config.min_paths_per_worker = 0;
        let par = e4.run_sequences(&cp);
        assert_eq!(base.sequences.len(), par.sequences.len());
        for (a, b) in base.sequences.iter().zip(&par.sequences) {
            assert_eq!(a.template.path, b.template.path);
            assert_eq!(a.packet_paths, b.packet_paths);
        }
        assert_eq!(base.stats.smt_checks, par.stats.smt_checks);
    }
}
