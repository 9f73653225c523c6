//! The **P4lite** frontend.
//!
//! The paper's frontend (12.5 kLoC of Java) encodes the bf-p4c intermediate
//! representation of real P4-16 programs. This crate rebuilds that layer for
//! a P4-16-shaped DSL that keeps every construct Meissa's encoding relies
//! on — headers with validity bits, a parser state machine with
//! `extract`/`select`, match-action tables with exact/lpm/ternary/range
//! keys, actions with runtime parameters, structured control flow, hash and
//! checksum builtins, registers (modeled per §4), multi-pipeline /
//! multi-switch topology with traffic-manager steering predicates, and an
//! LPI-like intent language — while dropping P4 syntax noise.
//!
//! Pipeline overview:
//!
//! ```text
//! source text ─lexer→ tokens ─parser→ ast::Program ┐
//! rule text  ─rules::parse_rules→ RuleSet          ├─compile→ CompiledProgram
//! (intents are part of the source text)            ┘            (meissa_ir::Cfg + layouts)
//! ```
//!
//! See `examples/quickstart.rs` at the workspace root for the language in
//! action, and `meissa-suite` for the full evaluation corpus written in it.

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod rules;

pub use ast::Program;
pub use compile::{compile, CompiledIntent, CompiledProgram, HeaderLayout, RegisterLayout};
pub use lint::{lint, Lint};
pub use parser::{parse_program, ParseError};
pub use rules::{parse_rules, KeyMatch, Rule, RuleSet};

/// Counts source lines of code the way Table 1 does: non-empty lines that
/// are not pure comments.
pub fn count_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with("//"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_ignores_blanks_and_comments() {
        let src = "header h { a: 8; }\n\n# comment\n// another\n  \naction f() { }\n";
        assert_eq!(count_loc(src), 2);
    }
}
