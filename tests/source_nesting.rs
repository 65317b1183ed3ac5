//! SimC source nested as deep as the parser allows still deploys, on an
//! ordinary test thread: the parser's bound keeps the compiler, the source
//! transformation and every other pass over the tree within the stack.
//! The parser's own tests show that one level deeper is a parse error.

use nvariant::prelude::*;
use nvariant_vm::MAX_NESTING;

/// One `main` per shape that nests, each nesting exactly [`MAX_NESTING`]
/// levels deep. The function body is one level and a `return` expression
/// another.
fn at_the_bound() -> [(&'static str, String); 6] {
    let n = MAX_NESTING - 2;
    [
        (
            "parentheses",
            format!(
                "fn main() -> int {{ return {}0{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            ),
        ),
        (
            "prefix operators",
            format!("fn main() -> int {{ return {}0; }}", "- ".repeat(n)),
        ),
        (
            "operator chain",
            format!("fn main() -> int {{ return 0{}; }}", " + 1".repeat(n)),
        ),
        (
            "index chain",
            format!(
                "var b: buf[4]; fn main() -> int {{ return b{}; }}",
                "[0]".repeat(n)
            ),
        ),
        (
            "blocks",
            format!(
                "fn main() -> int {{ {}{} return 0; }}",
                "if (1) { ".repeat(n + 1),
                "}".repeat(n + 1)
            ),
        ),
        // Each `else if` is a level, and its block one more.
        (
            "else if",
            format!(
                "fn main() -> int {{ if (1) {{ }}{} return 0; }}",
                " else if (1) { }".repeat(n)
            ),
        ),
    ]
}

fn build(source: &str) -> Result<RunnableSystem, BuildError> {
    NVariantSystemBuilder::from_source(source)?
        .config(DeploymentConfig::TwoVariantUid)
        .build()
}

#[test]
fn every_nesting_shape_at_the_bound_builds() {
    for (shape, source) in at_the_bound() {
        if let Err(error) = build(&source) {
            panic!("{shape}: {error}");
        }
    }
}

/// Chains inside chains: each parenthesised chain as long as the levels
/// open around it allow. Every operator of an enclosing chain sinks the
/// whole inner chain one more level, so the tree is about
/// `MAX_NESTING^2 / 2` deep although no point of the source has more than
/// `MAX_NESTING` constructs open. A bound on open constructs alone would
/// accept it, and compiling it overflows a test thread's stack.
#[test]
fn chains_inside_chains_count_the_levels_they_sink() {
    fn chains(open: usize) -> String {
        if open == MAX_NESTING {
            return "0".to_string();
        }
        format!(
            "({}){}",
            chains(open + 1),
            " + 1".repeat(MAX_NESTING - open - 1)
        )
    }
    let source = format!("fn main() -> int {{ return {}; }}", chains(2));
    match build(&source) {
        Err(BuildError::Parse(error)) => assert_eq!(error.line, 1),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("built"),
    }
}
