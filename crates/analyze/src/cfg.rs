//! Control-flow graph reconstruction from a decoded instruction stream.
//!
//! Leaders are the classic ones: the start of each function, every
//! jump/branch target, and the instruction after every terminator
//! (`Jmp`/`Jz`/`Jnz`/`Ret`/`Halt`). Jump operands in this machine are
//! code-segment byte offsets, which the compiler always emits as multiples
//! of `INSTR_SIZE`, so block boundaries are exact — there is no disassembly
//! ambiguity to resolve.
//!
//! Blocks cover whole slots only. An image read from anywhere may hold a
//! jump into the middle of a slot or a function entry that is not on a slot
//! boundary: such a target is neither a leader nor a successor (the
//! verifier reports the jump, see [`crate::analyze_pair`]), and a function
//! range too short to hold one whole slot has no blocks.

use nvariant_vm::{Instr, Op, INSTR_SIZE};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// One basic block: a maximal straight-line run of instructions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// Code-segment byte offset of the first instruction.
    pub start: u32,
    /// Byte offset one past the last instruction.
    pub end: u32,
    /// Successor block start offsets, in (target, fallthrough) order.
    pub succs: Vec<u32>,
}

impl BasicBlock {
    /// The indices into the decoded stream covered by this block.
    #[must_use]
    pub fn instr_range(&self) -> std::ops::Range<usize> {
        (self.start / INSTR_SIZE) as usize..(self.end / INSTR_SIZE) as usize
    }
}

/// The CFG of one function (or of the entry stub).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionCfg {
    /// The function name, or `"<start>"` for the entry stub.
    pub name: String,
    /// The half-open byte range `[start, end)` the function covers.
    pub range: (u32, u32),
    /// Basic blocks, sorted by start offset; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
}

impl FunctionCfg {
    /// Index of the block containing byte offset `pc`, if any.
    #[must_use]
    pub fn block_of(&self, pc: u32) -> Option<usize> {
        self.blocks.iter().position(|b| b.start <= pc && pc < b.end)
    }
}

fn is_terminator(op: Op) -> bool {
    matches!(op, Op::Jmp | Op::Jz | Op::Jnz | Op::Ret | Op::Halt)
}

pub(crate) fn is_jump(op: Op) -> bool {
    matches!(op, Op::Jmp | Op::Jz | Op::Jnz)
}

/// Reconstructs one CFG per function from the decoded stream.
///
/// `functions` maps names to code offsets (as `CompiledProgram::functions`
/// does); the region before the first function is the compiler's start stub
/// and gets its own CFG named `"<start>"`.
#[must_use]
pub fn build_cfgs(stream: &[Instr], functions: &BTreeMap<String, u32>) -> Vec<FunctionCfg> {
    let code_len = (stream.len() as u32) * INSTR_SIZE;
    let mut boundaries: Vec<(u32, String)> = functions
        .iter()
        .map(|(name, &off)| (off, name.clone()))
        .collect();
    boundaries.sort();
    let first = boundaries.first().map_or(code_len, |(off, _)| *off);
    if first > 0 {
        boundaries.insert(0, (0, "<start>".to_string()));
    }

    let mut cfgs = Vec::with_capacity(boundaries.len());
    for (i, (start, name)) in boundaries.iter().enumerate() {
        let end = boundaries
            .get(i + 1)
            .map_or(code_len, |(next, _)| (*next).min(code_len));
        if *start >= end {
            continue;
        }
        cfgs.push(build_function_cfg(stream, name, *start, end));
    }
    cfgs
}

fn build_function_cfg(stream: &[Instr], name: &str, start: u32, end: u32) -> FunctionCfg {
    // The whole slots of `[start, end)` are those of `[first, limit)`.
    let first = start.next_multiple_of(INSTR_SIZE);
    let limit = end - end % INSTR_SIZE;
    let is_slot =
        |offset: u32| offset.is_multiple_of(INSTR_SIZE) && (first..limit).contains(&offset);

    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    if first < limit {
        leaders.insert(first);
    }
    for pc in (first..limit).step_by(INSTR_SIZE as usize) {
        let instr = stream[(pc / INSTR_SIZE) as usize];
        if is_jump(instr.op) && is_slot(instr.operand) {
            leaders.insert(instr.operand);
        }
        if is_terminator(instr.op) && pc + INSTR_SIZE < limit {
            leaders.insert(pc + INSTR_SIZE);
        }
    }

    let starts: Vec<u32> = leaders.into_iter().collect();
    let mut blocks = Vec::with_capacity(starts.len());
    for (i, &block_start) in starts.iter().enumerate() {
        let block_end = starts.get(i + 1).copied().unwrap_or(limit);
        let last = stream[((block_end - INSTR_SIZE) / INSTR_SIZE) as usize];
        let mut succs = Vec::new();
        if is_jump(last.op) && is_slot(last.operand) {
            succs.push(last.operand);
        }
        if !matches!(last.op, Op::Jmp | Op::Ret | Op::Halt) && block_end < limit {
            succs.push(block_end);
        }
        blocks.push(BasicBlock {
            start: block_start,
            end: block_end,
            succs,
        });
    }

    FunctionCfg {
        name: name.to_string(),
        range: (start, end),
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_vm::{compile_program, decode_slot_at, parse_program};

    /// The decoded stream and function offsets of `src`.
    fn stream_of(src: &str) -> (Vec<Instr>, BTreeMap<String, u32>) {
        let compiled = compile_program(&parse_program(src).unwrap()).unwrap();
        let code = compiled.code();
        let stream: Vec<Instr> = (0..code.len() as u32 / INSTR_SIZE)
            .map(|i| decode_slot_at(code, i * INSTR_SIZE).unwrap())
            .collect();
        (stream, (*compiled.functions).clone())
    }

    fn cfgs_of(src: &str) -> Vec<FunctionCfg> {
        let (stream, functions) = stream_of(src);
        build_cfgs(&stream, &functions)
    }

    /// Every block spans whole slots inside its function, and every edge
    /// leads to a block start.
    fn assert_well_formed(cfgs: &[FunctionCfg]) {
        for cfg in cfgs {
            let starts: BTreeSet<u32> = cfg.blocks.iter().map(|b| b.start).collect();
            for block in &cfg.blocks {
                assert!(block.start < block.end, "{}: {block:?}", cfg.name);
                assert!(block.start.is_multiple_of(INSTR_SIZE), "{block:?}");
                assert!(block.end.is_multiple_of(INSTR_SIZE), "{block:?}");
                assert!(cfg.range.0 <= block.start && block.end <= cfg.range.1);
                for succ in &block.succs {
                    assert!(starts.contains(succ), "dangling edge to {succ:#x}");
                }
            }
        }
    }

    #[test]
    fn a_jump_into_the_middle_of_a_slot_is_no_edge() {
        let (mut stream, functions) = stream_of(
            "fn main() -> int { var i: int = 0; while (i < 3) { i = i + 1; } return i; }",
        );
        stream[1] = Instr::new(Op::Jmp, 3);
        let cfgs = build_cfgs(&stream, &functions);
        assert_well_formed(&cfgs);
        let stub = cfgs.iter().find(|c| c.name == "<start>").unwrap();
        assert_eq!(stub.blocks[0].start, 0);
        assert_eq!(stub.blocks[0].end, 2 * INSTR_SIZE);
        assert!(stub.blocks[0].succs.is_empty(), "{:?}", stub.blocks);
    }

    #[test]
    fn a_function_range_shorter_than_one_slot_has_no_blocks() {
        let (stream, _) = stream_of("fn main() -> int { return 0; }");
        let functions = BTreeMap::from([("main".to_string(), 3)]);
        let cfgs = build_cfgs(&stream, &functions);
        assert_well_formed(&cfgs);
        let stub = cfgs.iter().find(|c| c.name == "<start>").unwrap();
        assert_eq!(stub.range, (0, 3));
        assert!(stub.blocks.is_empty(), "{:?}", stub.blocks);
        // The misaligned entry's partial slot is left out as well.
        let main = cfgs.iter().find(|c| c.name == "main").unwrap();
        assert_eq!(main.blocks[0].start, INSTR_SIZE);
    }

    #[test]
    fn straight_line_function_is_one_block() {
        let cfgs = cfgs_of("fn main() -> int { return 7; }");
        let main = cfgs.iter().find(|c| c.name == "main").unwrap();
        // The explicit `return` plus the compiler's fallback `Push 0; Ret`
        // epilogue — both straight-line, both ending the function.
        assert_eq!(main.blocks.len(), 2, "blocks: {:?}", main.blocks);
        assert!(
            main.blocks.iter().all(|b| b.succs.is_empty()),
            "Ret has no successors"
        );
        // The start stub exists and covers offset 0.
        let stub = cfgs.iter().find(|c| c.name == "<start>").unwrap();
        assert_eq!(stub.range.0, 0);
    }

    #[test]
    fn branches_split_blocks_and_wire_both_edges() {
        let cfgs = cfgs_of(
            r"
            fn main() -> int {
                var x: int = 1;
                if (x) { x = 2; } else { x = 3; }
                while (x) { x = x - 1; }
                return x;
            }
            ",
        );
        let main = cfgs.iter().find(|c| c.name == "main").unwrap();
        assert!(main.blocks.len() >= 5, "blocks: {:?}", main.blocks);
        // Every conditional-jump block has two successors; every successor
        // offset is a block start.
        let starts: BTreeSet<u32> = main.blocks.iter().map(|b| b.start).collect();
        for block in &main.blocks {
            for succ in &block.succs {
                assert!(starts.contains(succ), "dangling edge to {succ:#x}");
            }
        }
        assert!(main.blocks.iter().any(|b| b.succs.len() == 2));
        // block_of resolves interior pcs.
        let b1 = &main.blocks[1];
        assert_eq!(main.block_of(b1.start), Some(1));
    }
}
