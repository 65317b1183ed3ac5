//! Trap semantics of the bytecode interpreter, pinned on arbitrary
//! bytecode.
//!
//! Compiled SimC only ever exercises the interpreter's well-formed paths.
//! This test drives fixed-seed random code images over every opcode through
//! the fault paths instead: operands biased to segment edges, misaligned
//! and out-of-image jump targets, code planted in the globals segment, and
//! `Enter`/`Call` near the stack base. Every image runs under the default,
//! partition-bit and partition+offset layouts, with tags 0 and 1, a
//! mismatched tag and a mixed-tag image. Each case probes three states at
//! budgets 0, 1, 7 and 10,000: the fresh process, and the process after
//! each of its first two traps under the full budget — resumed past a
//! system call, or already exited or faulted.
//!
//! Random images almost never hold one of the instruction runs the
//! interpreter fuses into one dispatch, so twelve more images, drawn from
//! their own generator stream, plant them: one run at the entry, behind 0
//! to 4 feeding slots, and more throughout the image, with edge operands,
//! an operand stack that is empty or one word short, branch targets in
//! the middle of runs, and budgets 0 to 7 that end a slice at every offset
//! inside the entry's run. The test asserts the planted runs are met in
//! every way that matters: each instruction of a run that can fault is
//! seen faulting, and a slice is seen ending, and a branch landing, at
//! every offset inside every run. Since `step()` never fuses, the
//! step-by-step check compares every fused probe with unfused execution.
//!
//! The last sixteen images, from a third generator stream, plant the
//! five string routines the interpreter runs natively (`strlen`,
//! `starts_with`, `strcpy`, `strcmp` and `strcat`) as the compiler emits
//! them, behind a caller that calls them with short strings and edge
//! arguments: strings that end at (or run off) the last byte of the
//! globals or of the stored stack, pointers into the callee's frame, into
//! code, into the unstored stack or nowhere, destinations in code, off the
//! end of the globals or overlapping their source, an operand stack one
//! word short, residue in the callee's `Enter` padding word, and caller
//! frames that leave the callee's frame just below or exactly on the stack
//! base, and a return through a forged saved fp that leaves `sp` in the
//! globals, where a callee's frame would be writable but the `Call`
//! overflows the stack. Budgets from 0 up to one past the end of the
//! first call end a slice at every offset inside it (up to 160, past
//! which only a copy onto itself runs); later states take the random
//! images' budgets. The test asserts every routine is seen ending a
//! slice, faulting and returning inside its body, and the faults each
//! give-up leaves to the bytecode are seen where the images plant them,
//! in a body or at a call.
//!
//! Sixteen more images, from a fourth generator stream, plant the longer
//! runs the way the run images plant theirs: the byte-loop test
//! `a[i] != c` (`LoadL; LoadL; Add; LoadB; Push; Ne; Jz`), an increment
//! and its jump (`LoadL; Push; Add; StoreL; Jmp`), whole loops made of
//! the two, and the join `&&` compiles to (`Push; Jmp` to a `Jz`). A
//! join's `Jmp` also targets a slot that is not a `Jz`, a misaligned
//! offset or one outside the image. The entry runs are bare, fed, planted
//! with edge operands, or entered in their middle with an operand stack
//! that is empty or one word short, and budgets 0 to 17 end a slice at
//! every offset inside them. The test asserts these runs too are seen
//! faulting at each instruction that can, ending a slice and taking a
//! branch at every offset, taking and falling through their `Jz`, and a
//! join's `Jmp` reaching each kind of target.
//!
//! Each probe is one line of the committed golden fixture
//! `tests/fixtures/interpreter_traps_golden.txt`: the trap, pc, sp, fp,
//! `instructions_executed`, `syscalls_made` and the `digest_into` value.
//! The same probe stepped one `step()` at a time must reach the same trap
//! with the same values. Regenerate the fixture (only when a change
//! *deliberately* alters interpreter semantics) with
//! `NVARIANT_REGEN_GOLDEN=1 cargo test --test interpreter_traps`. A change
//! to what `digest_into` computes, and not to what it covers, may
//! regenerate only the `d=` column: every line must be identical once
//! ` d=…` is removed, and grouping the lines by their `d=` value must give
//! the same groups as before. Regenerate right after the digest change,
//! before any other edit.

use nvariant_simos::Sysno;
use nvariant_types::{Fnv1a, Word};
use nvariant_vm::bytecode::{decode_all, encode_all};
use nvariant_vm::{
    compile_program, parse_with_stdlib, CompiledProgram, Fault, Instr, MemoryLayout, Op, Process,
    ProcessState, TrapReason, TypeInfo, INSTR_SIZE,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 15;
const IMAGES: u64 = 20;
const BUDGETS: [u64; 4] = [0, 1, 7, FULL];
/// The budget that advances a case from one probed state to the next.
const FULL: u64 = 10_000;
const STATES: usize = 3;
const SLOT: usize = INSTR_SIZE as usize;
/// The images after the random ones plant the interpreter's fused runs.
const RUN_SEED: u64 = 24;
const RUN_IMAGES: u64 = 12;
/// Every budget up to 7 ends a slice at each offset inside the run planted
/// at a run image's entry, behind its feeding slots.
const RUN_BUDGETS: [u64; 9] = [0, 1, 2, 3, 4, 5, 6, 7, FULL];

/// The images after the run images plant the natively run string routines.
const NATIVE_SEED: u64 = 28;
const NATIVE_IMAGES: u64 = 16;
/// The longest first call whose every offset the budgets probe.
const NATIVE_SWEEP: u64 = 160;

/// The images after the native-call images plant the byte-loop test, the
/// increment with its jump and the `&&` join.
const LOOP_SEED: u64 = 37;
const LOOP_IMAGES: u64 = 18;
/// Every budget up to 17 ends a slice at each offset inside the runs
/// planted at a loop image's entry, behind their feeding slots: a whole
/// loop's are 16 slots.
const LOOP_BUDGETS: [u64; 19] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, FULL,
];

/// The string routines the interpreter runs natively, and how many
/// arguments each pops.
const ROUTINES: [(&str, u32); 5] = [
    ("strlen", 1),
    ("starts_with", 2),
    ("strcpy", 2),
    ("strcmp", 2),
    ("strcat", 2),
];

/// Each way every planted routine must be met: a slice ending inside its
/// body, a fault there, and its `Ret` returning.
const ROUTINE_EVENTS: [&str; 3] = ["budget", "Segfault", "return"];

/// The faults some routine, or a `call` to one, must be seen raising:
/// (routine, fault).
const ROUTINE_FAULTS: [(&str, &str); 5] = [
    ("strlen", "StackOverflow"),
    ("starts_with", "OperandStackUnderflow"),
    ("strcpy", "WriteProtection"),
    ("strcat", "WriteProtection"),
    ("call", "StackOverflow"),
];

/// The globals offset of the return address and saved fp a forged frame
/// returns through, 24 bytes above the globals' base: a routine's frame
/// below the `sp` it leaves would lie in the globals.
const FORGED: u32 = 24;

/// The instruction runs the images plant, by name: the ones the
/// interpreter executes in one dispatch, and `Ne; Jz`, which it executes
/// one instruction at a time. The `&&` join's `Jz` is the slot its `Jmp`
/// targets; every other run's instructions are adjacent.
const RUNS: [(&str, &[Op]); 7] = [
    ("index_byte", &[Op::LoadL, Op::LoadL, Op::Add, Op::LoadB]),
    ("branch_if_imm", &[Op::Push, Op::Ne, Op::Jz]),
    ("add_imm_local", &[Op::LoadL, Op::Push, Op::Add, Op::StoreL]),
    ("branch_if_equal", &[Op::Ne, Op::Jz]),
    (
        "byte_loop_test",
        &[
            Op::LoadL,
            Op::LoadL,
            Op::Add,
            Op::LoadB,
            Op::Push,
            Op::Ne,
            Op::Jz,
        ],
    ),
    (
        "inc_jump",
        &[Op::LoadL, Op::Push, Op::Add, Op::StoreL, Op::Jmp],
    ),
    ("and_join", &[Op::Push, Op::Jmp, Op::Jz]),
];
/// Indices into [`RUNS`] of the runs the loop images plant.
const BYTE_LOOP_TEST: usize = 4;
const INC_JUMP: usize = 5;
const AND_JOIN: usize = 6;

/// Each instruction of a run that can fault there, with its fault. Entered
/// at its head, a run's `Push`, `Add`, `Ne`, `Jmp` and `Jz` cannot: their
/// operands are the run's own. Entered in its middle one word short, as a
/// loop image's entry is, an `Add`, `Ne` or `Jz` underflows.
const RUN_FAULTS: [(&str, u32, &str); 17] = [
    ("index_byte", 0, "Segfault"),
    ("index_byte", 1, "Segfault"),
    ("index_byte", 3, "Segfault"),
    ("branch_if_imm", 1, "OperandStackUnderflow"),
    ("add_imm_local", 0, "Segfault"),
    ("add_imm_local", 3, "Segfault"),
    ("add_imm_local", 3, "WriteProtection"),
    ("branch_if_equal", 0, "OperandStackUnderflow"),
    ("byte_loop_test", 0, "Segfault"),
    ("byte_loop_test", 1, "Segfault"),
    ("byte_loop_test", 3, "Segfault"),
    ("byte_loop_test", 5, "OperandStackUnderflow"),
    ("inc_jump", 0, "Segfault"),
    ("inc_jump", 2, "OperandStackUnderflow"),
    ("inc_jump", 3, "Segfault"),
    ("inc_jump", 3, "WriteProtection"),
    ("and_join", 2, "OperandStackUnderflow"),
];

/// The ways the loop images' jumps must be seen going: the byte-loop
/// test's and the join's `Jz` taken and falling through, and the join's
/// `Jmp` reaching each kind of target.
const RUN_JUMPS: [(&str, u32, &str); 8] = [
    ("byte_loop_test", 6, "taken"),
    ("byte_loop_test", 6, "fell through"),
    ("and_join", 2, "taken"),
    ("and_join", 2, "fell through"),
    ("and_join", 1, "to a Jz"),
    ("and_join", 1, "to another op"),
    ("and_join", 1, "misaligned"),
    ("and_join", 1, "outside the image"),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("interpreter_traps_golden.txt")
}

fn layouts() -> [MemoryLayout; 3] {
    let base = MemoryLayout::default();
    [
        base,
        base.with_partition_bit(),
        base.with_partition_bit().with_offset(0x40),
    ]
}

/// SplitMix64: a dependency-free, fixed-seed generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }

    fn pick(&mut self, values: &[u32]) -> u32 {
        values[self.below(values.len() as u32) as usize]
    }
}

/// One random image: the compiled program plus the shape facts the
/// operand generator biases towards.
struct Image {
    compiled: CompiledProgram,
    /// Slot indices whose tag byte the mixed-tag image restamps.
    mixed_slots: Vec<usize>,
    /// The planted fused runs: head slot and index into [`RUNS`].
    runs: Vec<(u32, usize)>,
    /// The slot of each planted `&&` join's `Jz`, by the join's head, for
    /// the joins whose `Jmp` reaches one.
    joins: BTreeMap<u32, u32>,
    /// The planted string routines, and each call to one as `call`: first
    /// slot, slot count and name.
    routines: Vec<(u32, u32, &'static str)>,
}

impl Image {
    /// The offset of `slot` in the planted run `RUNS[kind]` at `head`.
    fn offset_in(&self, slot: u32, head: u32, kind: usize) -> Option<u32> {
        if kind == AND_JOIN && self.joins.get(&head) == Some(&slot) {
            return Some(2);
        }
        let adjacent = if kind == AND_JOIN {
            2
        } else {
            RUNS[kind].1.len() as u32
        };
        (head..head + adjacent).contains(&slot).then(|| slot - head)
    }
}

/// Operands aimed at the edges of every segment under every layout.
struct Edges {
    slots: u32,
    globals_len: u32,
    /// Globals offset of the code planted in the globals segment.
    plant: u32,
}

impl Edges {
    fn globals_relative(&self, rng: &mut Rng) -> u32 {
        let g = self.globals_len;
        let base = MemoryLayout::default();
        let to_code = base.code_base.wrapping_sub(base.globals_base);
        let to_stack = base.stack_base().wrapping_sub(base.globals_base);
        if rng.below(3) != 0 {
            return 4 * rng.below(g / 4 - 1);
        }
        let inside = rng.below(g);
        rng.pick(&[
            0,
            4,
            g - 4,
            g - 3,
            g - 1,
            g,
            g + 4,
            inside,
            0u32.wrapping_sub(4),
            to_code,
            to_code.wrapping_add(self.slots * INSTR_SIZE - 2),
            to_stack,
            to_stack.wrapping_sub(2),
        ])
    }

    fn frame_relative(rng: &mut Rng) -> u32 {
        if rng.below(3) != 0 {
            return 4 + 4 * rng.below(15);
        }
        let size = MemoryLayout::default().stack_size;
        let (local, wild) = (4 * rng.below(16), rng.next() as u32);
        rng.pick(&[
            0,
            2,
            4,
            8,
            12,
            local,
            0u32.wrapping_sub(4),
            0u32.wrapping_sub(8),
            size - 4,
            size - 1,
            size,
            size + 4,
            wild,
        ])
    }

    fn code_target(&self, rng: &mut Rng) -> u32 {
        let end = self.slots * INSTR_SIZE;
        let base = MemoryLayout::default();
        let to_globals = base.globals_base.wrapping_sub(base.code_base);
        let in_image = rng.below(self.slots) * INSTR_SIZE;
        if rng.below(3) != 0 {
            return in_image;
        }
        let misaligned = in_image + 1 + rng.below(INSTR_SIZE - 1);
        let wild = rng.next() as u32;
        rng.pick(&[
            in_image,
            in_image,
            misaligned,
            end,
            end + INSTR_SIZE,
            end - 3,
            0u32.wrapping_sub(INSTR_SIZE),
            to_globals.wrapping_add(self.plant),
            to_globals.wrapping_add(self.globals_len - 2),
            wild,
        ])
    }

    fn frame_size(rng: &mut Rng) -> u32 {
        if rng.below(3) != 0 {
            return 4 * rng.below(8);
        }
        let size = MemoryLayout::default().stack_size;
        rng.pick(&[
            0,
            4,
            16,
            size - 12,
            size - 8,
            size - 4,
            size,
            size + 8,
            0u32.wrapping_sub(16),
            0x0090_0000,
        ])
    }

    fn address(&self, rng: &mut Rng) -> u32 {
        let layout = layouts()[rng.below(3) as usize];
        let globals_end = layout.globals_base + self.globals_len;
        let code_end = layout.code_base + self.slots * INSTR_SIZE;
        let slot = layout.code_base + rng.below(self.slots) * INSTR_SIZE;
        let (small, wild) = (rng.below(8), rng.next() as u32);
        rng.pick(&[
            layout.globals_base,
            layout.globals_base + self.plant,
            globals_end - 4,
            globals_end - 3,
            globals_end - 1,
            globals_end,
            layout.globals_base - 1,
            layout.stack_base(),
            layout.stack_base() - 1,
            layout.stack_base() - 4,
            layout.stack_top - 4,
            layout.stack_top - 3,
            layout.stack_top - 1,
            layout.stack_top,
            layout.code_base,
            slot,
            code_end - 1,
            code_end,
            0,
            1,
            small,
            wild,
        ])
    }

    fn syscall(rng: &mut Rng) -> u32 {
        let number = if rng.below(8) == 0 {
            0xABC
        } else {
            Sysno::ALL[rng.below(Sysno::ALL.len() as u32) as usize].as_u32()
        };
        let argc = if rng.below(16) == 0 {
            0xFF
        } else {
            rng.below(4)
        };
        (number << 8) | argc
    }

    fn operand(&self, op: Op, rng: &mut Rng) -> u32 {
        match op {
            Op::LoadG | Op::StoreG | Op::LeaG => self.globals_relative(rng),
            Op::LoadL | Op::StoreL | Op::LeaL => Self::frame_relative(rng),
            Op::Jmp | Op::Jz | Op::Jnz | Op::Call => self.code_target(rng),
            Op::Enter => Self::frame_size(rng),
            Op::Syscall => Self::syscall(rng),
            Op::Push => self.address(rng),
            _ => rng.below(4),
        }
    }

    /// A data word: small values (zero divides) or a segment edge.
    fn value(&self, rng: &mut Rng) -> Instr {
        let value = if rng.below(3) != 0 {
            rng.below(4)
        } else {
            self.address(rng)
        };
        Instr::new(Op::Push, value)
    }

    /// An instruction leaving an address on the operand stack: computed
    /// relative to the globals or the frame, as compiled code does, or
    /// absolute.
    fn address_of(&self, rng: &mut Rng) -> Instr {
        match rng.below(3) {
            0 => Instr::new(Op::LeaG, self.globals_relative(rng)),
            1 => Instr::new(Op::LeaL, Self::frame_relative(rng)),
            _ => Instr::new(Op::Push, self.address(rng)),
        }
    }

    /// A fed sequence aimed at one edge: a call frame at or below the
    /// stack base, a store into code, a word straddling the end of the
    /// globals or the top of the stack, or a jump into planted code or off
    /// the slot grid.
    fn motif(&self, rng: &mut Rng, out: &mut Vec<Instr>) {
        let base = MemoryLayout::default();
        let to_code = base.code_base.wrapping_sub(base.globals_base);
        let to_globals = base.globals_base.wrapping_sub(base.code_base);
        let g = self.globals_len;
        match rng.below(5) {
            0 => {
                out.push(Instr::new(Op::Enter, base.stack_size - 4 * rng.below(4)));
                out.push(Instr::new(Op::Call, rng.below(self.slots) * INSTR_SIZE));
            }
            1 => {
                let store = [Op::StoreW, Op::StoreB][rng.below(2) as usize];
                out.push(self.value(rng));
                out.push(Instr::new(Op::LeaG, to_code.wrapping_add(rng.below(8))));
                out.push(Instr::new(store, 0));
            }
            2 => {
                out.push(Instr::new(Op::LeaG, g - 1 - rng.below(3)));
                out.push(Instr::new(Op::LoadW, 0));
            }
            3 => out.push(Instr::new(Op::LoadL, 0u32.wrapping_sub(1 + rng.below(3)))),
            _ => {
                let target = if rng.below(2) == 0 {
                    to_globals.wrapping_add(self.plant)
                } else {
                    rng.below(self.slots) * INSTR_SIZE + 1 + rng.below(INSTR_SIZE - 1)
                };
                out.push(Instr::new(Op::Jmp, target));
            }
        }
    }

    /// One random opcode, usually preceded by the pushes that feed its
    /// operands so execution reaches past it.
    fn snippet(&self, rng: &mut Rng, out: &mut Vec<Instr>) {
        if rng.below(5) == 0 {
            self.motif(rng, out);
            return;
        }
        let op = Op::ALL[rng.below(Op::ALL.len() as u32) as usize];
        let instr = Instr::new(op, self.operand(op, rng));
        if rng.below(8) != 0 {
            match op {
                Op::LoadW | Op::LoadB | Op::CallPtr => out.push(self.address_of(rng)),
                Op::StoreW | Op::StoreB => {
                    out.push(self.value(rng));
                    out.push(self.address_of(rng));
                }
                Op::Jz | Op::Jnz => out.push(Instr::new(Op::Push, rng.below(2))),
                Op::StoreG | Op::StoreL | Op::Pop | Op::Dup | Op::Neg | Op::Not | Op::BitNot => {
                    out.push(self.value(rng));
                }
                Op::Syscall => {
                    for _ in 0..(instr.operand & 0xFF).min(3) {
                        out.push(self.value(rng));
                    }
                }
                Op::Swap
                | Op::Add
                | Op::Sub
                | Op::Mul
                | Op::Div
                | Op::Mod
                | Op::BitAnd
                | Op::BitOr
                | Op::BitXor
                | Op::Shl
                | Op::Shr
                | Op::Eq
                | Op::Ne
                | Op::Lt
                | Op::Le
                | Op::Gt
                | Op::Ge => {
                    out.push(self.value(rng));
                    out.push(self.value(rng));
                }
                _ => {}
            }
        }
        out.push(instr);
        // A frame reserved near the stack base, then a call whose frame
        // push lands on (or just below) it.
        if op == Op::Enter && rng.below(2) == 0 {
            out.push(Instr::new(Op::Call, self.code_target(rng)));
        }
    }

    /// A frame operand for a fused run's locals: a local of the current
    /// frame when `tame`, and usually otherwise; else a
    /// [`Edges::run_edges`] operand, one across the stack top or a wild one.
    fn run_local(&self, tame: bool, rng: &mut Rng) -> u32 {
        if tame || rng.below(8) != 0 {
            return 4 + 4 * rng.below(15);
        }
        let wild = rng.next() as u32;
        let edges = self.run_edges();
        rng.pick(&[edges[0], edges[1], 2, edges[2], edges[3], wild])
    }

    /// Frame operands that, from the top-level frame, lie above the stack
    /// top, below the stack base, across the end of the globals and on the
    /// code base.
    fn run_edges(&self) -> [u32; 4] {
        let base = MemoryLayout::default();
        let to_globals_end = base.stack_top - base.globals_base - self.globals_len;
        [
            0u32.wrapping_sub(4),
            base.stack_size + 4,
            to_globals_end + 2,
            base.stack_top - base.code_base,
        ]
    }

    /// Usually an address inside the globals, otherwise any address.
    fn byte_address(&self, rng: &mut Rng) -> Instr {
        if rng.below(8) == 0 {
            self.address_of(rng)
        } else {
            Instr::new(Op::LeaG, rng.below(self.globals_len - 4))
        }
    }

    /// Plants the fused run `RUNS[kind]` behind a `Jmp` to its slot at
    /// `offset`, preceded by the words the run's remainder pops there: an
    /// address for `LoadB`, and what `Add` and `Ne` combine.
    fn run_from_middle(
        &self,
        kind: usize,
        offset: u32,
        tame: bool,
        rng: &mut Rng,
        out: &mut Vec<Instr>,
        runs: &mut Vec<(u32, usize)>,
    ) {
        match (kind, offset) {
            (0, 2) => {
                out.push(self.byte_address(rng));
                out.push(Instr::new(Op::Push, rng.below(4)));
            }
            (0, _) => out.push(self.byte_address(rng)),
            (1, 1) | (2 | INC_JUMP, 2) | (BYTE_LOOP_TEST, 5) => {
                out.push(self.value(rng));
                out.push(self.value(rng));
            }
            (BYTE_LOOP_TEST, 2) => {
                out.push(self.byte_address(rng));
                out.push(Instr::new(Op::Push, rng.below(4)));
            }
            (BYTE_LOOP_TEST, 1 | 3) => out.push(self.byte_address(rng)),
            _ => out.push(self.value(rng)),
        }
        out.push(Instr::new(Op::Jmp, 0));
        let jump = out.len() - 1;
        self.run(kind, 2, tame, rng, out, runs);
        let head = runs[runs.len() - 1].0;
        out[jump].operand = run_slot(out, head, kind, offset) * INSTR_SIZE;
    }

    /// A run's branch target: the slot after the run, at `next`, when
    /// `tame`, and usually otherwise, so execution goes on there whether
    /// the branch is taken or not.
    fn run_target(&self, tame: bool, rng: &mut Rng, next: usize) -> u32 {
        if !tame && rng.below(3) == 0 {
            self.code_target(rng)
        } else {
            next as u32 * INSTR_SIZE
        }
    }

    /// Plants the fused run `RUNS[kind]`, recording its head in `runs`.
    /// With `feed`, the slots before it store the locals it reads, push
    /// `feed` words (at most one for `branch_if_imm`) for its `Ne`, or,
    /// for the `&&` join, test the two operands of the `&&`. A `tame` run
    /// reads and writes only locals of the current frame and branches to
    /// the slot after it.
    fn run(
        &self,
        kind: usize,
        feed: u32,
        tame: bool,
        rng: &mut Rng,
        out: &mut Vec<Instr>,
        runs: &mut Vec<(u32, usize)>,
    ) {
        let run = match kind {
            0 => {
                let base = self.run_local(tame, rng);
                let index = match self.run_local(tame, rng) {
                    index if index == base => base.wrapping_add(4),
                    index => index,
                };
                if feed > 0 {
                    out.push(self.byte_address(rng));
                    out.push(Instr::new(Op::StoreL, base));
                    out.push(Instr::new(Op::Push, rng.below(4)));
                    out.push(Instr::new(Op::StoreL, index));
                }
                [
                    Instr::new(Op::LoadL, base),
                    Instr::new(Op::LoadL, index),
                    Instr::simple(Op::Add),
                    Instr::simple(Op::LoadB),
                ]
                .to_vec()
            }
            1 => {
                let imm = self.value(rng).operand;
                if feed > 0 {
                    let word = if rng.below(2) == 0 {
                        imm
                    } else {
                        self.value(rng).operand
                    };
                    out.push(Instr::new(Op::Push, word));
                }
                [
                    Instr::new(Op::Push, imm),
                    Instr::simple(Op::Ne),
                    Instr::new(Op::Jz, self.run_target(tame, rng, out.len() + 3)),
                ]
                .to_vec()
            }
            2 => {
                let (src, dst) = (self.run_local(tame, rng), self.run_local(tame, rng));
                if feed > 0 {
                    out.push(self.value(rng));
                    out.push(Instr::new(Op::StoreL, src));
                }
                let imm = if rng.below(4) == 0 {
                    rng.next() as u32
                } else {
                    rng.below(4)
                };
                [
                    Instr::new(Op::LoadL, src),
                    Instr::new(Op::Push, imm),
                    Instr::simple(Op::Add),
                    Instr::new(Op::StoreL, dst),
                ]
                .to_vec()
            }
            BYTE_LOOP_TEST => {
                // Tame tests share one address and one index, so a test
                // entered in its middle reads what an earlier feed stored.
                let (base, index) = if tame {
                    (4, 8)
                } else {
                    let base = self.run_local(false, rng);
                    match self.run_local(false, rng) {
                        index if index == base => (base, base.wrapping_add(4)),
                        index => (base, index),
                    }
                };
                if feed > 0 {
                    out.push(self.byte_address(rng));
                    out.push(Instr::new(Op::StoreL, base));
                    out.push(Instr::new(Op::Push, rng.below(4)));
                    out.push(Instr::new(Op::StoreL, index));
                }
                // The loop images' globals hold bytes below 4.
                let imm = if rng.below(4) == 0 {
                    self.value(rng).operand
                } else {
                    rng.below(4)
                };
                [
                    Instr::new(Op::LoadL, base),
                    Instr::new(Op::LoadL, index),
                    Instr::simple(Op::Add),
                    Instr::simple(Op::LoadB),
                    Instr::new(Op::Push, imm),
                    Instr::simple(Op::Ne),
                    Instr::new(Op::Jz, self.run_target(tame, rng, out.len() + 7)),
                ]
                .to_vec()
            }
            INC_JUMP => {
                // Tame increments count in a local of their own.
                let (src, dst) = if tame {
                    (12, 12)
                } else {
                    (self.run_local(false, rng), self.run_local(false, rng))
                };
                if feed > 0 {
                    out.push(self.value(rng));
                    out.push(Instr::new(Op::StoreL, src));
                }
                let imm = if rng.below(4) == 0 {
                    rng.next() as u32
                } else {
                    rng.below(4)
                };
                [
                    Instr::new(Op::LoadL, src),
                    Instr::new(Op::Push, imm),
                    Instr::simple(Op::Add),
                    Instr::new(Op::StoreL, dst),
                    Instr::new(Op::Jmp, self.run_target(tame, rng, out.len() + 5)),
                ]
                .to_vec()
            }
            AND_JOIN => {
                // `lhs && rhs` as the compiler emits it: each operand's
                // `Jz` goes to the `Push 0` arm, and `Push 1; Jmp` to the
                // join's `Jz`, which falls in after the arm and, tame,
                // skips the `Nop` after it. The join's word is 0 or any
                // word at times.
                let head = (out.len() + if feed > 0 { 4 } else { 0 }) as u32;
                if feed > 0 {
                    for _ in 0..2 {
                        out.push(Instr::new(Op::Push, rng.pick(&[1, 1, 0])));
                        out.push(Instr::new(Op::Jz, (head + 2) * INSTR_SIZE));
                    }
                }
                let word = self.value(rng).operand;
                [
                    Instr::new(Op::Push, rng.pick(&[1, 1, 0, word])),
                    Instr::new(Op::Jmp, (head + 3) * INSTR_SIZE),
                    Instr::new(Op::Push, 0),
                    Instr::new(Op::Jz, self.run_target(tame, rng, head as usize + 5)),
                    Instr::simple(Op::Nop),
                ]
                .to_vec()
            }
            _ => {
                for _ in 0..feed {
                    out.push(self.value(rng));
                }
                [
                    Instr::simple(Op::Ne),
                    Instr::new(Op::Jz, self.run_target(tame, rng, out.len() + 2)),
                ]
                .to_vec()
            }
        };
        runs.push((out.len() as u32, kind));
        out.extend(run);
    }

    /// Plants a loop that scans bytes for a value, as
    /// `while (a[i] != c) { i = i + 1; }` compiles: a fed byte-loop test
    /// that leaves the loop, and an increment of its index whose `Jmp`
    /// goes back to the test. A `tame` loop steps by one.
    fn byte_loop(
        &self,
        tame: bool,
        rng: &mut Rng,
        out: &mut Vec<Instr>,
        runs: &mut Vec<(u32, usize)>,
    ) {
        self.run(BYTE_LOOP_TEST, 1, tame, rng, out, runs);
        let head = runs[runs.len() - 1].0;
        let index = out[head as usize + 1].operand;
        self.run(INC_JUMP, 0, true, rng, out, runs);
        let inc = head as usize + 7;
        out[head as usize + 6].operand = (head + 12) * INSTR_SIZE;
        out[inc].operand = index;
        if tame {
            out[inc + 1].operand = 1;
        }
        out[inc + 3].operand = index;
        out[inc + 4].operand = head * INSTR_SIZE;
    }

    /// Plants `Push 1; Jmp` where the `Jmp` reaches no `Jz`: it targets
    /// the `Pop` after it, a misaligned offset, or somewhere outside the
    /// image (one or two slots past its end, the code planted in the
    /// globals, or anywhere).
    fn join_elsewhere(&self, rng: &mut Rng, out: &mut Vec<Instr>, runs: &mut Vec<(u32, usize)>) {
        let head = out.len() as u32;
        let end = self.slots * INSTR_SIZE;
        let base = MemoryLayout::default();
        let to_globals = base.globals_base.wrapping_sub(base.code_base);
        let target = match rng.below(3) {
            0 => (head + 2) * INSTR_SIZE,
            1 => rng.below(self.slots) * INSTR_SIZE + 1 + rng.below(INSTR_SIZE - 1),
            _ => {
                let wild = rng.next() as u32;
                rng.pick(&[
                    end,
                    end + INSTR_SIZE,
                    to_globals.wrapping_add(self.plant),
                    wild,
                ])
            }
        };
        runs.push((head, AND_JOIN));
        out.extend([
            Instr::new(Op::Push, 1),
            Instr::new(Op::Jmp, target),
            Instr::simple(Op::Pop),
        ]);
    }
}

/// The slot of instruction `offset` of the planted run `RUNS[kind]` whose
/// head is slot `head` of `instrs`: the `&&` join's `Jz` is its `Jmp`'s
/// target.
fn run_slot(instrs: &[Instr], head: u32, kind: usize, offset: u32) -> u32 {
    match (kind, offset) {
        (AND_JOIN, 2) => instrs[head as usize + 1].operand / INSTR_SIZE,
        _ => head + offset,
    }
}

/// Image 0: a well-formed tour that executes every opcode once under the
/// default layout — arithmetic, stack shuffles, globals and frame accesses,
/// every branch, a direct and an indirect call, a system call and `Halt`.
fn tour_image() -> Image {
    use Op::{
        Add, BitAnd, BitNot, BitOr, BitXor, Call, CallPtr, Div, Dup, Enter, Eq, Ge, Gt, Halt, Jmp,
        Jnz, Jz, Le, LeaG, LeaL, LoadB, LoadG, LoadL, LoadW, Lt, Mod, Mul, Ne, Neg, Nop, Not, Pop,
        Push, Ret, Shl, Shr, StoreB, StoreG, StoreL, StoreW, Sub, Swap, Syscall,
    };
    let mut body: Vec<(Op, u32)> = vec![(Nop, 0), (Push, 5), (Push, 3), (Add, 0)];
    for (op, rhs) in [
        (Sub, 2),
        (Mul, 3),
        (Div, 4),
        (Mod, 3),
        (BitAnd, 3),
        (BitOr, 6),
        (BitXor, 2),
        (Shl, 2),
        (Shr, 1),
        (Eq, 1),
        (Ne, 0),
        (Lt, 1),
        (Le, 1),
        (Gt, 0),
        (Ge, 2),
    ] {
        body.extend([(Push, rhs), (op, 0)]);
    }
    body.extend([
        (Neg, 0),
        (Not, 0),
        (BitNot, 0),
        (Dup, 0),
        (Swap, 0),
        (Pop, 0),
    ]);
    body.extend([
        (StoreG, 0),
        (LoadG, 0),
        (Jz, 0),
        (Push, 1),
        (Jnz, 0),
        (Jmp, 0),
    ]);
    body.extend([(LeaG, 4), (LoadW, 0), (Pop, 0)]);
    body.extend([
        (Push, 0x41),
        (LeaG, 8),
        (StoreW, 0),
        (Push, 0x42),
        (LeaG, 9),
        (StoreB, 0),
    ]);
    body.extend([
        (LeaG, 9),
        (LoadB, 0),
        (Pop, 0),
        (Call, 0),
        (Push, 0),
        (CallPtr, 0),
    ]);
    // The whole stack reserved in one frame: the stack pointer lands
    // exactly on the stack base, which is not an overflow.
    let stack_size = MemoryLayout::default().stack_size;
    body.extend([
        (Syscall, Sysno::Time.as_u32() << 8),
        (Pop, 0),
        (Enter, stack_size),
    ]);
    body.push((Halt, 0));
    let function = body.len() as u32 * INSTR_SIZE;
    body.extend([
        (Enter, 8),
        (Push, 9),
        (StoreL, 4),
        (LoadL, 4),
        (LeaL, 4),
        (Pop, 0),
    ]);
    body.extend([(Pop, 0), (Ret, 0)]);

    let instrs: Vec<Instr> = body
        .iter()
        .enumerate()
        .map(|(slot, &(op, operand))| {
            let operand = match op {
                // Branches fall through to the next slot whether taken or not.
                Jz | Jnz | Jmp => (slot as u32 + 1) * INSTR_SIZE,
                Call => function,
                _ if op == Push && body[slot + 1].0 == CallPtr => {
                    MemoryLayout::default().code_base + function
                }
                _ => operand,
            };
            Instr::new(op, operand)
        })
        .collect();
    let slots = instrs.len();
    image(
        encode_all(&instrs),
        vec![0; 16],
        0,
        vec![slots / 2],
        Vec::new(),
    )
}

fn random_image(index: u64) -> Image {
    let mut rng = Rng(SEED ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    let slots = 24 + rng.below(48);
    let globals_len = 16 + 4 * rng.below(12) + rng.below(4);
    let edges = Edges {
        slots,
        globals_len,
        plant: rng.below(globals_len - 2 * INSTR_SIZE),
    };

    let mut instrs = Vec::new();
    while instrs.len() < slots as usize {
        edges.snippet(&mut rng, &mut instrs);
    }
    instrs.truncate(slots as usize);
    let mut code = encode_all(&instrs);
    // One image in six carries an undecodable slot, so it never predecodes
    // and every fetch takes the byte-accurate path.
    if rng.below(6) == 0 {
        let slot = rng.below(8) as usize;
        code[slot * SLOT + 1] = 0xEE;
    }

    let (globals, mixed_slots) = globals_and_mixed(&edges, &mut rng);
    let entry = if rng.below(4) == 0 {
        rng.below(slots) * INSTR_SIZE
    } else {
        0
    };
    image(code, globals, entry, mixed_slots, Vec::new())
}

/// The ways into a fused run's middle: (index into [`RUNS`], offset).
const MIDDLES: [(usize, u32); 9] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 1),
    (1, 2),
    (2, 1),
    (2, 2),
    (2, 3),
    (3, 1),
];

/// Run image `index`: a fused run at the entry, then a body of fused runs,
/// system calls (whose results later probe states resume past) and random
/// snippets. The entry run is bare in images 0 to 3, where `Ne` meets an
/// empty operand stack, and in image 9, where `LoadB` reads address 0; a
/// single word feeds `branch_if_equal` (which underflows on its second
/// pop) in image 7. Images 0, 2, 6, 8 and 10 plant an edge operand that
/// makes `LoadL` or `StoreL` fault inside the entry run; in image 10 the
/// store writes three bytes before it faults, over the word the run's
/// load read, so a run that wrote before giving up would load something
/// else when the loop executes it again. Images 4, 5 and 11 feed it fully
/// and run on into the body, which starts with a `Jmp` into each of
/// [`MIDDLES`], fed so the run's remainder completes. In the rest of the
/// body every second run is entered by a `Jmp` into its middle, and a
/// third of its runs' `Jz` targets move into the middle of a later run.
fn run_image(index: u64) -> Image {
    let mut rng = Rng(RUN_SEED ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    let slots = 96 + rng.below(32);
    let globals_len = 16 + 4 * rng.below(12) + rng.below(4);
    let edges = Edges {
        slots,
        globals_len,
        plant: rng.below(globals_len - 2 * INSTR_SIZE),
    };

    let [above_top, below_base, across_globals_end, on_code] = edges.run_edges();
    let (kind, feed, planted): (usize, u32, &[(usize, u32)]) = match index {
        0 => (0, 0, &[(0, above_top)]),
        2 => (2, 0, &[(3, on_code)]),
        6 => (2, 0, &[(0, below_base)]),
        7 => (3, 1, &[]),
        8 => (0, 0, &[(1, below_base)]),
        9 => (0, 0, &[(0, 4), (1, 8)]),
        10 => (
            2,
            2,
            &[(0, across_globals_end + 2), (3, across_globals_end + 1)],
        ),
        _ => (index as usize % 4, if index < 4 { 0 } else { 2 }, &[]),
    };
    let mut instrs = Vec::new();
    let mut runs = Vec::new();
    edges.run(kind, feed, true, &mut rng, &mut instrs, &mut runs);
    for &(slot, operand) in planted {
        instrs[runs[0].0 as usize + slot].operand = operand;
    }
    // Words for the remainders of runs entered in the middle to pop.
    for _ in 0..4 {
        instrs.push(edges.value(&mut rng));
    }
    for (kind, offset) in MIDDLES {
        edges.run_from_middle(kind, offset, true, &mut rng, &mut instrs, &mut runs);
    }
    while instrs.len() < slots as usize {
        match rng.below(8) {
            0 => edges.snippet(&mut rng, &mut instrs),
            1 => instrs.push(Instr::new(Op::Syscall, Sysno::Time.as_u32() << 8)),
            k if k % 2 == 0 => {
                let kind = rng.below(4) as usize;
                let offset = 1 + rng.below(RUNS[kind].1.len() as u32 - 1);
                edges.run_from_middle(kind, offset, false, &mut rng, &mut instrs, &mut runs);
            }
            _ => {
                let kind = rng.below(4) as usize;
                edges.run(kind, 2, false, &mut rng, &mut instrs, &mut runs);
            }
        }
    }
    instrs.truncate(slots as usize);
    runs.retain(|&(head, kind)| head as usize + RUNS[kind].1.len() <= instrs.len());
    // The entry run and the tame ones after it keep their targets.
    for i in 1 + MIDDLES.len()..runs.len() {
        let (head, kind) = runs[i];
        let ops = RUNS[kind].1;
        let later = runs.len() - i - 1;
        if ops.last() == Some(&Op::Jz) && later > 0 && rng.below(3) == 0 {
            let (to, to_kind) = runs[i + 1 + rng.below(later as u32) as usize];
            let offset = 1 + rng.below(RUNS[to_kind].1.len() as u32 - 1);
            instrs[(head as usize) + ops.len() - 1].operand = (to + offset) * INSTR_SIZE;
        }
    }

    let (globals, mixed_slots) = globals_and_mixed(&edges, &mut rng);
    image(encode_all(&instrs), globals, 0, mixed_slots, runs)
}

/// The ways into the middle of a loop image's run: (index into [`RUNS`],
/// offset). Offset 2 of the `&&` join is its `Jz`.
const LOOP_MIDDLES: [(usize, u32); 12] = [
    (BYTE_LOOP_TEST, 1),
    (BYTE_LOOP_TEST, 2),
    (BYTE_LOOP_TEST, 3),
    (BYTE_LOOP_TEST, 4),
    (BYTE_LOOP_TEST, 5),
    (BYTE_LOOP_TEST, 6),
    (INC_JUMP, 1),
    (INC_JUMP, 2),
    (INC_JUMP, 3),
    (INC_JUMP, 4),
    (AND_JOIN, 1),
    (AND_JOIN, 2),
];

/// Loop image `index`: a run or a loop at the entry, then a body. The
/// entry is bare in images 0 to 2: a byte-loop test whose `LoadB` reads
/// address 0, an increment and a join. Images 3 to 7 feed it and plant an
/// edge operand that makes a `LoadL` or `StoreL` fault inside it: the
/// test's first or second load, the increment's store into code or its
/// load below the stack base, and in image 7 an increment whose store
/// writes three bytes before it faults, over the word its load read, so a
/// run that wrote before giving up would load something else when the
/// loop executes it again. Image 8 starts with a whole loop. Images 9 to
/// 11 jump into the middle of a run with an operand stack one word short
/// or empty: to the test's `Ne`, the increment's `Add` and the join's
/// `Jz`. Images 12 to 15 feed a test, an increment, a join behind the
/// tests of its `&&`, and such a join whose `Jmp` targets the `Push 0`
/// arm instead; the bare joins of images 16 and 17 jump to a misaligned
/// offset inside their own `Jz` slot and past the image's end. Entries that do not fault run on
/// into the body, which
/// starts with a `Jmp` into each of [`LOOP_MIDDLES`], fed so the run's
/// remainder completes, and goes on with loops, runs, joins whose `Jmp`
/// reaches no `Jz`, runs entered in their middle, system calls and random
/// snippets; a third of the test and increment jumps after the entry and
/// the middles move into the middle of a later run. The globals hold
/// bytes below 4, so a test often finds its byte.
fn loop_image(index: u64) -> Image {
    let mut rng = Rng(LOOP_SEED ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    let slots = 256 + rng.below(64);
    let globals_len = 16 + 4 * rng.below(12) + rng.below(4);
    let edges = Edges {
        slots,
        globals_len,
        plant: rng.below(globals_len - 2 * INSTR_SIZE),
    };

    let [above_top, below_base, across_globals_end, on_code] = edges.run_edges();
    let mut instrs = Vec::new();
    let mut runs = Vec::new();
    match index {
        8 => edges.byte_loop(true, &mut rng, &mut instrs, &mut runs),
        9..=11 => {
            let (kind, offset, words) =
                [(BYTE_LOOP_TEST, 5, 1), (INC_JUMP, 2, 1), (AND_JOIN, 2, 0)][index as usize - 9];
            for _ in 0..words {
                instrs.push(edges.value(&mut rng));
            }
            instrs.push(Instr::new(Op::Jmp, 0));
            edges.run(kind, 2, true, &mut rng, &mut instrs, &mut runs);
            instrs[words] = Instr::new(
                Op::Jmp,
                run_slot(&instrs, runs[0].0, kind, offset) * INSTR_SIZE,
            );
        }
        _ => {
            let (kind, feed, planted): (usize, u32, &[(usize, u32)]) = match index {
                0 => (BYTE_LOOP_TEST, 0, &[]),
                1 => (INC_JUMP, 0, &[]),
                2 => (AND_JOIN, 0, &[]),
                3 => (BYTE_LOOP_TEST, 1, &[(0, above_top)]),
                4 => (BYTE_LOOP_TEST, 1, &[(1, below_base)]),
                5 => (INC_JUMP, 1, &[(3, on_code)]),
                6 => (INC_JUMP, 1, &[(0, below_base)]),
                7 => (
                    INC_JUMP,
                    1,
                    &[(0, across_globals_end + 2), (3, across_globals_end + 1)],
                ),
                12 => (BYTE_LOOP_TEST, 1, &[]),
                13 => (INC_JUMP, 1, &[]),
                14 | 15 => (AND_JOIN, 1, &[]),
                _ => (AND_JOIN, 0, &[]),
            };
            edges.run(kind, feed, true, &mut rng, &mut instrs, &mut runs);
            let head = runs[0].0 as usize;
            for &(slot, operand) in planted {
                instrs[head + slot].operand = operand;
            }
            let arm = (head as u32 + 2) * INSTR_SIZE;
            match index {
                15 => instrs[head + 1].operand = arm,
                16 => instrs[head + 1].operand = arm + INSTR_SIZE + 1 + rng.below(INSTR_SIZE - 1),
                17 => instrs[head + 1].operand = (slots + rng.below(2)) * INSTR_SIZE,
                _ => {}
            }
        }
    }
    // Words for the remainders of runs entered in the middle to pop.
    for _ in 0..4 {
        instrs.push(edges.value(&mut rng));
    }
    for (kind, offset) in LOOP_MIDDLES {
        edges.run_from_middle(kind, offset, true, &mut rng, &mut instrs, &mut runs);
    }
    let fixed = runs.len();
    while instrs.len() < slots as usize {
        match rng.below(10) {
            0 => edges.snippet(&mut rng, &mut instrs),
            1 => instrs.push(Instr::new(Op::Syscall, Sysno::Time.as_u32() << 8)),
            2 | 3 => {
                let kind = BYTE_LOOP_TEST + rng.below(3) as usize;
                let offset = 1 + rng.below(RUNS[kind].1.len() as u32 - 1);
                edges.run_from_middle(kind, offset, false, &mut rng, &mut instrs, &mut runs);
            }
            4 | 5 => edges.byte_loop(false, &mut rng, &mut instrs, &mut runs),
            6 => edges.join_elsewhere(&mut rng, &mut instrs, &mut runs),
            _ => {
                let kind = BYTE_LOOP_TEST + rng.below(3) as usize;
                edges.run(kind, 2, false, &mut rng, &mut instrs, &mut runs);
            }
        }
    }
    instrs.truncate(slots as usize);
    runs.retain(|&(head, kind)| {
        let adjacent = if kind == AND_JOIN {
            2
        } else {
            RUNS[kind].1.len()
        };
        head as usize + adjacent <= instrs.len()
    });
    for i in fixed.min(runs.len())..runs.len() {
        let (head, kind) = runs[i];
        let later = runs.len() - i - 1;
        if kind != AND_JOIN && later > 0 && rng.below(3) == 0 {
            let (to, to_kind) = runs[i + 1 + rng.below(later as u32) as usize];
            let offset = if to_kind == AND_JOIN {
                1
            } else {
                1 + rng.below(RUNS[to_kind].1.len() as u32 - 1)
            };
            let last = head as usize + RUNS[kind].1.len() - 1;
            instrs[last].operand = (to + offset) * INSTR_SIZE;
        }
    }

    let (mut globals, mixed_slots) = globals_and_mixed(&edges, &mut rng);
    let planted = edges.plant as usize..edges.plant as usize + 2 * SLOT;
    for (at, byte) in globals.iter_mut().enumerate() {
        if !planted.contains(&at) {
            *byte &= 3;
        }
    }
    let joins = runs
        .iter()
        .filter(|&&(_, kind)| kind == AND_JOIN)
        .filter_map(|&(head, _)| {
            let target = instrs[head as usize + 1].operand;
            let jz = target / INSTR_SIZE;
            let lands = target.is_multiple_of(INSTR_SIZE)
                && instrs
                    .get(jz as usize)
                    .is_some_and(|instr| instr.op == Op::Jz);
            lands.then_some((head, jz))
        })
        .collect();
    let mut image = image(encode_all(&instrs), globals, 0, mixed_slots, runs);
    image.joins = joins;
    image
}

/// The five string routines as the compiler emits them, in [`ROUTINES`]
/// order, with jump operands relative to the routine's first slot.
fn routine_bodies() -> Vec<Vec<Instr>> {
    let stub = parse_with_stdlib("fn main() -> int { return 0; }").unwrap();
    let compiled = compile_program(&stub).unwrap();
    let instrs = decode_all(compiled.code()).unwrap();
    let end = compiled.code().len() as u32;
    ROUTINES
        .iter()
        .map(|&(name, _)| {
            let start = compiled.functions[name];
            let next = compiled
                .functions
                .values()
                .copied()
                .filter(|&offset| offset > start)
                .min()
                .unwrap_or(end);
            instrs[(start / INSTR_SIZE) as usize..(next / INSTR_SIZE) as usize]
                .iter()
                .map(|&instr| match instr.op {
                    Op::Jmp | Op::Jz | Op::Jnz => Instr::new(instr.op, instr.operand - start),
                    _ => instr,
                })
                .collect()
        })
        .collect()
}

/// Native-call image `index`: a caller that reserves a frame, fills its
/// words with short strings, then calls the planted routines, sometimes
/// making a system call in between. A later call passes short strings
/// and a buffer in the globals two times in three, and edge arguments
/// otherwise, as the first call does. The first call is to
/// `ROUTINES[index % 5]`. Images 0, 1 and 3 draw its arguments like the
/// later calls'; images 2 and 4 copy a string onto itself, one byte ahead
/// and at its end; images 5 to 9 pass an unmapped string last; image 10
/// reserves a caller frame that leaves the callee's frame just below the
/// stack base, and image 13 one that leaves it exactly on the base; image
/// 11 pushes one argument too few; images 12 and 14 copy into code. Image
/// 15 first returns through a saved fp it forged to point at [`FORGED`],
/// which leaves `sp` in the globals, and then calls `strlen` with a
/// string in the globals. Returns the image and the budgets that end a
/// slice at every offset up to one past the end of the first call, or up
/// to [`NATIVE_SWEEP`].
fn native_image(index: u64, bodies: &[Vec<Instr>]) -> (Image, Vec<u64>) {
    let mut rng = Rng(NATIVE_SEED ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    let layout = MemoryLayout::default();
    let globals_len = 33 + rng.below(8);
    let frame = match index {
        10 => layout.stack_size - 12,
        13 => layout.stack_size - 24,
        _ => 16,
    };
    let mut caller = vec![Instr::new(Op::Enter, frame)];
    // Three words of stack strings below the stack top: the two lower
    // ones end in a NUL, the top one ends at the last stored byte or runs
    // off it.
    for (k, disp) in [12, 8, 4].into_iter().enumerate() {
        let mut bytes = [0u8; 4];
        let len = if k == 2 { 3 } else { rng.below(4) };
        for byte in &mut bytes[..len as usize] {
            *byte = b'a' + rng.below(2) as u8;
        }
        if k == 2 && rng.below(2) == 0 {
            bytes[3] = b'b';
        }
        caller.push(Instr::new(Op::Push, u32::from_le_bytes(bytes)));
        caller.push(Instr::new(Op::StoreL, disp));
    }
    // Residue where a two-argument callee keeps its `Enter` padding word.
    if frame == 16 {
        caller.push(Instr::new(Op::Push, 0x5A5A_5A5A));
        caller.push(Instr::new(Op::StoreL, frame + 24));
    }
    // The caller stores the address of the slot after its `Ret`, and its
    // own fp, at `FORGED`; `forge` points its saved fp there, so that
    // `Ret` resumes at the next slot with `sp` 8 bytes above `FORGED`.
    let forge = (index == 15).then(|| {
        let resume = caller.len() as u32 + 6;
        caller.extend([
            Instr::new(Op::LeaG, to_code().wrapping_add(resume * INSTR_SIZE)),
            Instr::new(Op::StoreG, FORGED),
            Instr::new(Op::LeaL, 0),
            Instr::new(Op::StoreG, FORGED + 4),
            Instr::new(Op::Call, 0),
            Instr::simple(Op::Ret),
        ]);
        caller.len() - 2
    });
    let calls = 4 + rng.below(3);
    let mut sites = Vec::new();
    for call in 0..calls {
        let routine = if call == 0 {
            index as usize % ROUTINES.len()
        } else {
            rng.below(ROUTINES.len() as u32) as usize
        };
        let mut args = if call > 0 && rng.below(3) != 0 {
            tame_args(routine, &mut rng)
        } else {
            native_args(routine, globals_len, frame, &mut rng)
        };
        let short = if call == 0 {
            match index {
                2 => args = vec![Instr::new(Op::LeaG, 1), Instr::new(Op::LeaG, 0)],
                4 => args = vec![Instr::new(Op::LeaG, 0), Instr::new(Op::LeaG, 0)],
                5..=9 => *args.last_mut().unwrap() = Instr::new(Op::Push, 0),
                12 | 14 => args[0] = Instr::new(Op::LeaG, to_code().wrapping_add(INSTR_SIZE)),
                15 => args = vec![Instr::new(Op::LeaG, 0)],
                _ => {}
            }
            index == 11
        } else {
            rng.below(8) == 0
        };
        caller.extend(&args[usize::from(short)..]);
        sites.push((caller.len(), routine));
        caller.push(Instr::new(Op::Call, 0));
        match rng.below(3) {
            0 => caller.push(Instr::new(Op::Syscall, Sysno::Time.as_u32() << 8)),
            1 => caller.push(Instr::simple(Op::Pop)),
            _ => {}
        }
    }
    caller.push(Instr::simple(Op::Halt));
    if let Some(site) = forge {
        caller[site].operand = caller.len() as u32 * INSTR_SIZE;
        caller.extend([
            Instr::new(Op::LeaG, FORGED),
            Instr::new(Op::StoreL, 0u32.wrapping_sub(4)),
            Instr::simple(Op::Ret),
        ]);
    }

    // The bodies follow the caller, in `ROUTINES` order.
    let mut instrs = caller;
    let mut entries = Vec::new();
    let mut routines: Vec<_> = sites
        .iter()
        .map(|&(site, _)| (site as u32, 1, "call"))
        .collect();
    for (k, body) in bodies.iter().enumerate() {
        let entry = instrs.len() as u32 * INSTR_SIZE;
        entries.push(entry);
        routines.push((instrs.len() as u32, body.len() as u32, ROUTINES[k].0));
        instrs.extend(body.iter().map(|&instr| match instr.op {
            Op::Jmp | Op::Jz | Op::Jnz => Instr::new(instr.op, instr.operand + entry),
            // `strcat` calls `strlen`, planted first.
            Op::Call => Instr::new(Op::Call, entries[0]),
            _ => instr,
        }));
    }
    for &(site, routine) in &sites {
        instrs[site].operand = entries[routine];
    }

    // Globals: two short strings, the first not empty, a zeroed buffer,
    // and up to three letters that end at, or run off, the last byte.
    let mut globals = vec![0u8; globals_len as usize];
    for at in [0, 8] {
        let len = if at == 0 {
            1 + rng.below(3)
        } else {
            rng.below(4)
        };
        for byte in &mut globals[at..at + len as usize] {
            *byte = b'a' + rng.below(2) as u8;
        }
    }
    let tail = globals_len as usize - 1;
    for byte in &mut globals[tail - rng.below(3) as usize..tail] {
        *byte = b'a' + rng.below(2) as u8;
    }
    if rng.below(2) == 0 {
        globals[tail] = b'b';
    }
    let mut mixed_slots: Vec<usize> = (0..instrs.len()).filter(|_| rng.below(4) == 0).collect();
    if mixed_slots.is_empty() {
        mixed_slots.push(0);
    }

    let first_return = (sites[0].0 as u32 + 1) * INSTR_SIZE;
    let mut image = image(encode_all(&instrs), globals, 0, mixed_slots, Vec::new());
    image.routines = routines;
    let mut process = Process::new(&image.compiled, layout);
    let mut steps = 0;
    while steps < NATIVE_SWEEP
        && process.pc().as_u32() != layout.code_base + first_return
        && process.step().is_none()
    {
        steps += 1;
    }
    (image, (0..=steps + 1).chain([FULL]).collect())
}

/// The instructions that push the arguments of `ROUTINES[routine]`: the
/// destination first for `strcpy` and `strcat`.
fn native_args(routine: usize, globals_len: u32, frame: u32, rng: &mut Rng) -> Vec<Instr> {
    let src = native_string(globals_len, frame, rng);
    match ROUTINES[routine] {
        (_, 1) => vec![src],
        ("strcpy" | "strcat", _) => vec![native_destination(globals_len, frame, src, rng), src],
        _ => vec![native_string(globals_len, frame, rng), src],
    }
}

/// The instructions that push short strings, in the globals or the
/// caller's terminated stack words, as the arguments of
/// `ROUTINES[routine]`, and the globals' buffer as a destination.
fn tame_args(routine: usize, rng: &mut Rng) -> Vec<Instr> {
    let string = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            Instr::new(Op::LeaG, 8 * rng.below(2))
        } else {
            Instr::new(Op::LeaL, 8 + 4 * rng.below(2))
        }
    };
    let src = string(rng);
    match ROUTINES[routine] {
        (_, 1) => vec![src],
        ("strcpy" | "strcat", _) => vec![Instr::new(Op::LeaG, 16 + rng.below(4)), src],
        _ => vec![string(rng), src],
    }
}

/// The globals-relative displacement of the code segment, the same under
/// every layout.
fn to_code() -> u32 {
    let base = MemoryLayout::default();
    base.code_base.wrapping_sub(base.globals_base)
}

/// An instruction leaving the address of a string to read: a short string
/// in the globals, their last bytes, the caller's stack words up to the
/// stack top, the callee's own frame (`strcat`'s nested one included),
/// code, the unstored stack or an unmapped address.
fn native_string(globals_len: u32, frame: u32, rng: &mut Rng) -> Instr {
    match rng.below(12) {
        0..=4 => Instr::new(Op::LeaG, 8 * rng.below(2)),
        5 => Instr::new(Op::LeaG, globals_len - 1 - rng.below(4)),
        6 | 7 => Instr::new(Op::LeaL, 4 + 4 * rng.below(3)),
        8 => Instr::new(Op::LeaL, frame + 4 + 4 * rng.below(10)),
        9 => Instr::new(Op::LeaG, to_code().wrapping_add(rng.below(48))),
        10 => Instr::new(Op::LeaL, 0x2000 + rng.below(8)),
        _ => Instr::new(Op::Push, rng.below(8)),
    }
}

/// An instruction leaving a copy's destination: the globals' buffer, a
/// caller stack word or the dead stack below the callee, code, the last
/// bytes of the globals, the callee's frame, or `src` or one past it.
fn native_destination(globals_len: u32, frame: u32, src: Instr, rng: &mut Rng) -> Instr {
    match rng.below(10) {
        0..=2 => Instr::new(Op::LeaG, 16 + rng.below(4)),
        3 => Instr::new(Op::LeaL, rng.pick(&[16, frame + 64])),
        4 => Instr::new(Op::LeaG, to_code().wrapping_add(rng.below(48))),
        5 => Instr::new(Op::LeaG, globals_len - 1 - rng.below(2)),
        6 => Instr::new(Op::LeaL, frame + 4 + 4 * rng.below(10)),
        _ => {
            let ahead = rng.below(2);
            match src.op {
                Op::LeaL => Instr::new(Op::LeaL, src.operand.wrapping_sub(ahead)),
                _ => Instr::new(src.op, src.operand.wrapping_add(ahead)),
            }
        }
    }
}

/// The globals of a random image with two snippets planted at
/// `edges.plant`, and the slots its mixed-tag image restamps.
fn globals_and_mixed(edges: &Edges, rng: &mut Rng) -> (Vec<u8>, Vec<usize>) {
    let mut globals = vec![0u8; edges.globals_len as usize];
    for byte in &mut globals {
        *byte = rng.below(256) as u8;
    }
    let mut planted = Vec::new();
    while planted.len() < 2 {
        edges.snippet(rng, &mut planted);
    }
    for (k, instr) in planted.iter().take(2).enumerate() {
        let tag = rng.below(3) as u8;
        let at = edges.plant as usize + k * SLOT;
        globals[at..at + SLOT].copy_from_slice(&instr.with_tag(tag).encode());
    }

    let slots = edges.slots;
    let mut mixed_slots: Vec<usize> = (0..slots as usize).filter(|_| rng.below(4) == 0).collect();
    if mixed_slots.is_empty() {
        mixed_slots.push(rng.below(slots) as usize);
    }
    (globals, mixed_slots)
}

fn image(
    code: Vec<u8>,
    globals: Vec<u8>,
    entry: u32,
    mixed_slots: Vec<usize>,
    runs: Vec<(u32, usize)>,
) -> Image {
    Image {
        compiled: CompiledProgram::new(
            code,
            globals,
            BTreeMap::new(),
            BTreeMap::new(),
            entry,
            TypeInfo::default(),
        ),
        mixed_slots,
        runs,
        joins: BTreeMap::new(),
        routines: Vec::new(),
    }
}

/// The four tag configurations: (label, expected tag, code image).
fn tag_cases(image: &Image) -> [(&'static str, u8, Arc<[u8]>); 4] {
    let compiled = &image.compiled;
    let mut mixed = compiled.retagged_image(1).to_vec();
    for slot in &image.mixed_slots {
        mixed[slot * SLOT] = 0;
    }
    [
        ("t0", 0, compiled.retagged_image(0)),
        ("t1", 1, compiled.retagged_image(1)),
        ("mismatch", 1, compiled.retagged_image(0)),
        ("mixed", 1, Arc::from(mixed)),
    ]
}

fn render_trap(trap: &TrapReason) -> String {
    match trap {
        TrapReason::Syscall(req) => {
            let args: Vec<String> = req
                .args
                .iter()
                .map(|w| format!("{:x}", w.as_u32()))
                .collect();
            format!("syscall {}({})", req.sysno.name(), args.join(","))
        }
        TrapReason::Exited(status) => format!("exited {status}"),
        TrapReason::Faulted(fault) => format!("{fault:?}"),
    }
}

/// The recorded values of a process after a slice.
fn snapshot(process: &Process, trap: &TrapReason) -> String {
    let mut digest = Fnv1a::new();
    process.digest_into(&mut digest);
    format!(
        "{} pc={:x} sp={:x} fp={:x} n={} sc={} d={:016x}",
        render_trap(trap),
        process.pc().as_u32(),
        process.sp().as_u32(),
        process.fp().as_u32(),
        process.instructions_executed(),
        process.syscalls_made(),
        digest.finish()
    )
}

/// The opcode the next `step()` would execute, if the process is running
/// and its pc decodes.
fn next_op(process: &Process) -> Option<Op> {
    if process.state() != ProcessState::Running {
        return None;
    }
    let bytes = process.read_bytes(process.pc(), SLOT).ok()?;
    Instr::decode(&bytes).map(|instr| instr.op)
}

/// What the single-step reference saw: every opcode it executed, each
/// way it met a planted fused run, as (run name, offset in the run, event):
/// the fault an instruction there raised, a `budget` that ran out before
/// it, a `branch` that landed on it, or where a jump there went (see
/// [`RUN_JUMPS`]); and each way it met a planted string routine, as
/// (routine name, event).
#[derive(Default)]
struct Seen {
    ops: BTreeSet<u8>,
    runs: BTreeSet<(&'static str, u32, String)>,
    routines: BTreeSet<(&'static str, String)>,
}

impl Seen {
    fn note(&mut self, image: &Image, process: &Process, pc: u32, event: &str) {
        let off = pc.wrapping_sub(process.layout().code_base);
        if !off.is_multiple_of(INSTR_SIZE) {
            return;
        }
        let slot = off / INSTR_SIZE;
        for &(head, kind) in &image.runs {
            if let Some(offset) = image.offset_in(slot, head, kind) {
                self.runs.insert((RUNS[kind].0, offset, event.to_string()));
            }
        }
        for &(first, len, name) in &image.routines {
            if (first..first + len).contains(&slot) {
                self.routines.insert((name, event.to_string()));
            }
        }
    }

    /// Notes where a completed jump at `pc` of a planted run went, `to`: a
    /// `Jz` ending a run taken or falling through (when the two differ),
    /// and a join's `Jmp` by what it reached.
    fn note_jump(&mut self, image: &Image, process: &Process, pc: u32, to: u32) {
        let base = process.layout().code_base;
        let code = image.compiled.code();
        let off = pc.wrapping_sub(base);
        let decode_at = |off: u32| code.get(off as usize..).and_then(Instr::decode);
        let Some(instr) = decode_at(off).filter(|_| off.is_multiple_of(INSTR_SIZE)) else {
            return;
        };
        for &(head, kind) in &image.runs {
            let Some(offset) = image.offset_in(off / INSTR_SIZE, head, kind) else {
                continue;
            };
            let (name, ops) = RUNS[kind];
            let event = match instr.op {
                Op::Jz if offset as usize == ops.len() - 1 => {
                    let target = base.wrapping_add(instr.operand);
                    if target == pc.wrapping_add(INSTR_SIZE) {
                        continue;
                    }
                    if to == target {
                        "taken"
                    } else {
                        "fell through"
                    }
                }
                Op::Jmp if kind == AND_JOIN => {
                    let at = to.wrapping_sub(base);
                    match decode_at(at) {
                        _ if !at.is_multiple_of(INSTR_SIZE) => "misaligned",
                        Some(instr) if instr.op == Op::Jz => "to a Jz",
                        Some(_) => "to another op",
                        None => "outside the image",
                    }
                }
                _ => continue,
            };
            self.runs.insert((name, offset, event.to_string()));
        }
    }

    /// The ways some planted routine was never met.
    fn missed_routines(&self) -> Vec<(&'static str, String)> {
        let mut want: Vec<_> = ROUTINES
            .iter()
            .flat_map(|&(name, _)| ROUTINE_EVENTS.map(|event| (name, event.to_string())))
            .chain(
                ROUTINE_FAULTS
                    .iter()
                    .map(|&(name, event)| (name, event.to_string())),
            )
            .collect();
        want.retain(|way| !self.routines.contains(way));
        want
    }

    /// The ways some planted run was never met, of those every run of
    /// [`RUNS`] must be.
    fn missed_runs(&self) -> Vec<(&'static str, u32, String)> {
        let mut want: Vec<_> = RUN_FAULTS
            .iter()
            .chain(&RUN_JUMPS)
            .map(|&(name, offset, event)| (name, offset, event.to_string()))
            .collect();
        for (name, ops) in RUNS {
            for offset in 1..ops.len() as u32 {
                want.push((name, offset, "budget".to_string()));
                want.push((name, offset, "branch".to_string()));
            }
        }
        want.retain(|way| !self.runs.contains(way));
        want
    }
}

/// Runs `budget` single steps, stopping at the first trap; an exhausted
/// budget faults exactly as `run_until_trap` does.
fn step_slice(process: &mut Process, budget: u64, image: &Image, seen: &mut Seen) -> TrapReason {
    for _ in 0..budget {
        let pc = process.pc().as_u32();
        let running = process.state() == ProcessState::Running;
        let op = next_op(process);
        if let Some(op) = op {
            seen.ops.insert(op.as_u8());
        }
        let Some(trap) = process.step() else {
            let to = process.pc().as_u32();
            if to != pc.wrapping_add(INSTR_SIZE) {
                seen.note(image, process, to, "branch");
            }
            if op == Some(Op::Ret) {
                seen.note(image, process, pc, "return");
            }
            seen.note_jump(image, process, pc, to);
            continue;
        };
        if let (true, TrapReason::Faulted(fault)) = (running, &trap) {
            let name = format!("{fault:?}");
            let name = name.split(|c: char| !c.is_alphanumeric()).next();
            seen.note(image, process, pc, name.unwrap_or_default());
        }
        return trap;
    }
    if process.state() == ProcessState::Running {
        seen.note(image, process, process.pc().as_u32(), "budget");
    }
    process.set_faulted(Fault::StepLimitExceeded);
    TrapReason::Faulted(Fault::StepLimitExceeded)
}

/// Answers a system call the way a kernel would: `exit` ends the process,
/// anything else returns a fixed value.
fn resume(process: &mut Process, trap: &TrapReason, state: usize) {
    if let TrapReason::Syscall(req) = trap {
        if req.sysno == Sysno::Exit {
            process.set_exited(req.arg(0).as_i32());
        } else {
            process.complete_syscall(Word::from_u32(state as u32 + 3));
        }
    }
}

fn golden_text(seen: &mut Seen) -> String {
    let random = (0..IMAGES).map(|index| {
        let image = if index == 0 {
            tour_image()
        } else {
            random_image(index)
        };
        (index, image, BUDGETS.to_vec(), &BUDGETS[..])
    });
    let runs = (0..RUN_IMAGES).map(|k| {
        let budgets = RUN_BUDGETS.to_vec();
        (IMAGES + k, run_image(k), budgets, &RUN_BUDGETS[..])
    });
    let bodies = routine_bodies();
    let natives = (0..NATIVE_IMAGES).map(|k| {
        let (image, first_call) = native_image(k, &bodies);
        (IMAGES + RUN_IMAGES + k, image, first_call, &BUDGETS[..])
    });
    let loops = (0..LOOP_IMAGES).map(|k| {
        let index = IMAGES + RUN_IMAGES + NATIVE_IMAGES + k;
        (index, loop_image(k), LOOP_BUDGETS.to_vec(), &BUDGETS[..])
    });
    let mut text = String::new();
    for (index, image, first, later) in random.chain(runs).chain(natives).chain(loops) {
        for (l, layout) in layouts().into_iter().enumerate() {
            for (label, tag, code) in tag_cases(&image) {
                let mut process =
                    Process::with_image(&image.compiled, layout, tag, Arc::clone(&code));
                for state in 0..STATES {
                    let budgets = if state == 0 { &first[..] } else { later };
                    for &budget in budgets {
                        let mut run = process.clone();
                        let trap = run.run_until_trap(budget);
                        let line = snapshot(&run, &trap);
                        let mut stepped = process.clone();
                        let stepped_trap = step_slice(&mut stepped, budget, &image, seen);
                        assert_eq!(
                            snapshot(&stepped, &stepped_trap),
                            line,
                            "image {index} layout {l} {label} state {state} budget {budget}: \
                             stepping diverged from run_until_trap"
                        );
                        writeln!(text, "i{index} l{l} {label} s{state} b{budget} {line}").unwrap();
                    }
                    let trap = process.run_until_trap(FULL);
                    resume(&mut process, &trap, state);
                }
            }
        }
    }
    text
}

#[test]
fn random_bytecode_traps_match_the_committed_golden_fixture() {
    let mut seen = Seen::default();
    let text = golden_text(&mut seen);
    let missing: Vec<Op> = Op::ALL
        .iter()
        .copied()
        .filter(|op| !seen.ops.contains(&op.as_u8()))
        .collect();
    assert!(missing.is_empty(), "opcodes never executed: {missing:?}");
    let missed = seen.missed_runs();
    assert!(
        missed.is_empty(),
        "fused runs never met these ways: {missed:?}"
    );
    let missed = seen.missed_routines();
    assert!(
        missed.is_empty(),
        "string routines never met these ways: {missed:?}"
    );

    let path = golden_path();
    if std::env::var_os("NVARIANT_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it on a known-good \
             tree with NVARIANT_REGEN_GOLDEN=1 cargo test --test interpreter_traps",
            path.display()
        )
    });
    if let Some((n, (got, want))) = text
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "line {} drifted from the golden fixture:\n got: {got}\nwant: {want}",
            n + 1
        );
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "line count drifted from the golden fixture"
    );
}
