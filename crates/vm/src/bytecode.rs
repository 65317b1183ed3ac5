//! The SimC bytecode: a fixed-width, byte-encoded instruction set.
//!
//! Every instruction is encoded as six bytes:
//!
//! ```text
//! +--------+--------+----------------------------------+
//! |  tag   | opcode |        operand (u32, LE)         |
//! +--------+--------+----------------------------------+
//! ```
//!
//! The leading **tag** byte exists to support the *instruction-set tagging*
//! variation of Table 1: each variant's code image is stamped with a
//! different tag, the fetch stage checks the tag before decoding, and
//! injected instructions (which necessarily carry a single concrete tag)
//! therefore fault in at least one variant.

use std::collections::BTreeMap;
use std::fmt;

/// Size in bytes of one encoded instruction.
pub const INSTR_SIZE: u32 = 6;

/// Operation codes of the SimC machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u8)]
pub enum Op {
    /// Do nothing.
    Nop = 0,
    /// Push the operand as an immediate word.
    Push = 1,
    /// Push the word at `globals_base + operand`.
    LoadG = 2,
    /// Pop a word and store it at `globals_base + operand`.
    StoreG = 3,
    /// Push the word at `fp - operand` (a local slot).
    LoadL = 4,
    /// Pop a word and store it at `fp - operand`.
    StoreL = 5,
    /// Pop an address and push the word it points to.
    LoadW = 6,
    /// Pop an address, then a value, and store the value at the address.
    StoreW = 7,
    /// Pop an address and push the byte it points to (zero-extended).
    LoadB = 8,
    /// Pop an address, then a value, and store its low byte at the address.
    StoreB = 9,
    /// Push the address `globals_base + operand`.
    LeaG = 10,
    /// Push the address `fp - operand`.
    LeaL = 11,
    /// Pop two words, push their sum.
    Add = 12,
    /// Pop two words, push their difference.
    Sub = 13,
    /// Pop two words, push their product.
    Mul = 14,
    /// Pop two words, push their signed quotient.
    Div = 15,
    /// Pop two words, push their signed remainder.
    Mod = 16,
    /// Bitwise and.
    BitAnd = 17,
    /// Bitwise or.
    BitOr = 18,
    /// Bitwise xor.
    BitXor = 19,
    /// Shift left.
    Shl = 20,
    /// Logical shift right.
    Shr = 21,
    /// Arithmetic negation.
    Neg = 22,
    /// Logical not (0 becomes 1, everything else 0).
    Not = 23,
    /// Bitwise complement.
    BitNot = 24,
    /// Signed comparisons pushing 0 or 1.
    Eq = 25,
    /// Not equal.
    Ne = 26,
    /// Less than.
    Lt = 27,
    /// Less or equal.
    Le = 28,
    /// Greater than.
    Gt = 29,
    /// Greater or equal.
    Ge = 30,
    /// Unconditional jump to the absolute code address in the operand.
    Jmp = 31,
    /// Pop a word; jump if it is zero.
    Jz = 32,
    /// Pop a word; jump if it is non-zero.
    Jnz = 33,
    /// Call the function at the absolute code address in the operand.
    Call = 34,
    /// Pop an address and call it (indirect call).
    CallPtr = 35,
    /// Reserve `operand` bytes of locals (function prologue).
    Enter = 36,
    /// Return to the caller, leaving the return value on the operand stack.
    Ret = 37,
    /// System call; operand encodes `sysno << 8 | argc`.
    Syscall = 38,
    /// Duplicate the top of the operand stack.
    Dup = 39,
    /// Discard the top of the operand stack.
    Pop = 40,
    /// Swap the two top operand stack entries.
    Swap = 41,
    /// Halt the machine (only reachable from the start stub).
    Halt = 42,
}

impl Op {
    /// All opcodes in numbering order.
    pub const ALL: &'static [Op] = &[
        Op::Nop,
        Op::Push,
        Op::LoadG,
        Op::StoreG,
        Op::LoadL,
        Op::StoreL,
        Op::LoadW,
        Op::StoreW,
        Op::LoadB,
        Op::StoreB,
        Op::LeaG,
        Op::LeaL,
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Mod,
        Op::BitAnd,
        Op::BitOr,
        Op::BitXor,
        Op::Shl,
        Op::Shr,
        Op::Neg,
        Op::Not,
        Op::BitNot,
        Op::Eq,
        Op::Ne,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
        Op::Jmp,
        Op::Jz,
        Op::Jnz,
        Op::Call,
        Op::CallPtr,
        Op::Enter,
        Op::Ret,
        Op::Syscall,
        Op::Dup,
        Op::Pop,
        Op::Swap,
        Op::Halt,
    ];

    /// Numeric opcode.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes an opcode byte.
    #[must_use]
    pub fn from_u8(byte: u8) -> Option<Op> {
        Op::ALL.iter().copied().find(|o| o.as_u8() == byte)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One decoded instruction.
///
/// # Example
///
/// ```
/// use nvariant_vm::{Instr, Op, INSTR_SIZE};
///
/// let instr = Instr::new(Op::Push, 42).with_tag(1);
/// let bytes = instr.encode();
/// assert_eq!(bytes.len() as u32, INSTR_SIZE);
/// assert_eq!(Instr::decode(&bytes).unwrap(), instr);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Instr {
    /// The variant tag stamped on this instruction.
    pub tag: u8,
    /// The operation.
    pub op: Op,
    /// The 32-bit operand (meaning depends on the operation).
    pub operand: u32,
}

impl Instr {
    /// Creates an instruction with tag 0.
    #[must_use]
    pub fn new(op: Op, operand: u32) -> Self {
        Instr {
            tag: 0,
            op,
            operand,
        }
    }

    /// Creates an instruction with no operand and tag 0.
    #[must_use]
    pub fn simple(op: Op) -> Self {
        Instr::new(op, 0)
    }

    /// Returns the instruction with the given tag.
    #[must_use]
    pub fn with_tag(mut self, tag: u8) -> Self {
        self.tag = tag;
        self
    }

    /// Encodes the instruction into its six-byte representation.
    #[must_use]
    pub fn encode(&self) -> [u8; INSTR_SIZE as usize] {
        let operand = self.operand.to_le_bytes();
        [
            self.tag,
            self.op.as_u8(),
            operand[0],
            operand[1],
            operand[2],
            operand[3],
        ]
    }

    /// Decodes an instruction from six bytes. Returns `None` if the opcode
    /// byte is not a valid operation (the caller converts this into an
    /// illegal-instruction fault).
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Instr> {
        if bytes.len() < INSTR_SIZE as usize {
            return None;
        }
        let op = Op::from_u8(bytes[1])?;
        let operand = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
        Some(Instr {
            tag: bytes[0],
            op,
            operand,
        })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} {:#x}", self.tag, self.op, self.operand)
    }
}

/// An instruction slot that failed to decode: the offending program counter
/// and the raw bytes found there.
///
/// Both the interpreter's fetch fallback and the static analyzer's stream
/// walk report undecodable slots through this one type, so a bad opcode byte
/// renders identically whether it is hit at run time or at verify time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DecodeFailure {
    /// The program counter (or code-segment byte offset) of the bad slot.
    pub pc: u32,
    /// The six raw bytes of the slot (zero-padded past the end of the image).
    pub raw: [u8; INSTR_SIZE as usize],
}

impl DecodeFailure {
    /// The canonical one-line rendering shared by the interpreter fault
    /// display and the analyzer diagnostics.
    #[must_use]
    pub fn describe(&self) -> String {
        let bytes: Vec<String> = self.raw.iter().map(|b| format!("{b:02x}")).collect();
        format!(
            "illegal instruction at {:#010x}: raw bytes {} (opcode byte {:#04x} does not decode)",
            self.pc,
            bytes.join(" "),
            self.raw[1]
        )
    }
}

impl fmt::Display for DecodeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Decodes the six bytes of one slot, carrying the offending `pc` and the
/// raw bytes into the failure so callers can report them verbatim.
pub fn decode_slot(raw: [u8; INSTR_SIZE as usize], pc: u32) -> Result<Instr, DecodeFailure> {
    Instr::decode(&raw).ok_or(DecodeFailure { pc, raw })
}

/// Decodes the slot at byte offset `pc` of a flat code image. Bytes past the
/// end of the image read as zero, matching what a freshly mapped page holds.
pub fn decode_slot_at(code: &[u8], pc: u32) -> Result<Instr, DecodeFailure> {
    let mut raw = [0u8; INSTR_SIZE as usize];
    for (i, byte) in raw.iter_mut().enumerate() {
        *byte = code.get(pc as usize + i).copied().unwrap_or(0);
    }
    decode_slot(raw, pc)
}

/// Encodes a sequence of instructions into a flat code image.
#[must_use]
pub fn encode_all(instrs: &[Instr]) -> Vec<u8> {
    let mut out = Vec::with_capacity(instrs.len() * INSTR_SIZE as usize);
    for i in instrs {
        out.extend_from_slice(&i.encode());
    }
    out
}

/// Decodes a flat code image back into instructions.
///
/// Returns `None` if any instruction fails to decode or the image length is
/// not a multiple of [`INSTR_SIZE`].
#[must_use]
pub fn decode_all(code: &[u8]) -> Option<Vec<Instr>> {
    if !code.len().is_multiple_of(INSTR_SIZE as usize) {
        return None;
    }
    code.chunks(INSTR_SIZE as usize)
        .map(Instr::decode)
        .collect()
}

/// What the interpreter executes in one dispatch, all or nothing, at a
/// slot of the predecoded stream (see the `interp` module docs): a run of
/// instructions that starts there, or the whole call a `Call` there makes
/// to a standard-library string routine. A run's instructions are the
/// ones single steps execute in turn: adjacent slots, except that the
/// instruction after a `Jmp` is the one at its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fused {
    /// The slot starts no run.
    Single,
    /// `LoadL a; LoadL i; Add; LoadB; Push c; Ne; Jz t`: jump to `t` if
    /// the byte at local `a` plus local `i` is `c`, as the loop test
    /// `while (a[i] != c)` compiles.
    ByteLoopTest,
    /// `LoadL s; Push c; Add; StoreL d; Jmp t`: local `d` becomes local
    /// `s` plus `c`, and control goes to `t`, as `i = i + 1;` compiles at
    /// the end of a loop's body.
    IncJump,
    /// `LoadL a; LoadL i; Add; LoadB`: push the byte at local `a` plus
    /// local `i`, as `a[i]` compiles.
    IndexByte,
    /// `LoadL s; Push c; Add; StoreL d`: local `d` becomes local `s` plus
    /// `c`, as `i = i + 1` compiles.
    AddImmLocal,
    /// `Push c; Jmp t` where slot `t` holds `Jz u`: go to `u` if `c` is
    /// zero and to the slot after `t` otherwise, as the join of `a && b`
    /// compiles where a condition tests it.
    AndJoin,
    /// `Push c; Ne; Jz t`: pop a word and jump to `t` if it equals `c`, as
    /// the loop test `while (x != c)` compiles.
    BranchIfImm,
    /// A `Call` whose target is, slot for slot, the routine's body as the
    /// compiler emits it.
    Call(Routine),
}

impl Fused {
    /// Every run and its opcodes, longest first: a slot is marked with the
    /// longest run that starts there, and each of its slots keeps the
    /// marks of the shorter runs that start at them.
    const RUNS: [(Fused, &'static [Op]); 6] = [
        (
            Fused::ByteLoopTest,
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
            Fused::IncJump,
            &[Op::LoadL, Op::Push, Op::Add, Op::StoreL, Op::Jmp],
        ),
        (
            Fused::IndexByte,
            &[Op::LoadL, Op::LoadL, Op::Add, Op::LoadB],
        ),
        (
            Fused::AddImmLocal,
            &[Op::LoadL, Op::Push, Op::Add, Op::StoreL],
        ),
        (Fused::AndJoin, &[Op::Push, Op::Jmp, Op::Jz]),
        (Fused::BranchIfImm, &[Op::Push, Op::Ne, Op::Jz]),
    ];

    /// The longest run that starts at slot `at` of `instrs`. A `Jmp` leads
    /// on only to an aligned target inside the image, which is where the
    /// interpreter fetches from the stream.
    fn starting(instrs: &[Instr], at: usize) -> Fused {
        Self::RUNS
            .iter()
            .find(|(_, ops)| {
                let mut slot = Some(at);
                ops.iter().all(|&op| {
                    let Some(instr) = slot.and_then(|slot| instrs.get(slot)) else {
                        return false;
                    };
                    slot = match op {
                        Op::Jmp => instr
                            .operand
                            .is_multiple_of(INSTR_SIZE)
                            .then_some((instr.operand / INSTR_SIZE) as usize),
                        _ => slot.map(|slot| slot + 1),
                    };
                    instr.op == op
                })
            })
            .map_or(Fused::Single, |&(run, _)| run)
    }

    /// The budget the interpreter needs left to try this at a slot: the
    /// number of instructions a run executes, and 0 for a slot that starts
    /// nothing. A call's number depends on its strings, and the
    /// interpreter checks it against the budget once it has scanned them;
    /// the 2 here only keeps a budget of one from trying a call.
    fn budget(self) -> u8 {
        match self {
            Fused::Single => 0,
            Fused::Call(_) => 2,
            Fused::BranchIfImm | Fused::AndJoin => 3,
            Fused::IndexByte | Fused::AddImmLocal => 4,
            Fused::IncJump => 5,
            Fused::ByteLoopTest => 7,
        }
    }
}

/// A SimC standard-library string routine the interpreter runs natively
/// (see the `interp` module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Routine {
    /// `strlen(s)`.
    Strlen,
    /// `starts_with(s, prefix)`.
    StartsWith,
    /// `strcpy(dst, src)`.
    Strcpy,
    /// `strcmp(a, b)`.
    Strcmp,
    /// `strcat(dst, src)`, which calls `strlen(dst)`.
    Strcat,
}

impl Routine {
    /// Every routine, in the order a body is compared with them.
    pub(crate) const ALL: [Routine; 5] = [
        Routine::Strlen,
        Routine::StartsWith,
        Routine::Strcpy,
        Routine::Strcmp,
        Routine::Strcat,
    ];

    /// The routine's standard-library name.
    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Routine::Strlen => "strlen",
            Routine::StartsWith => "starts_with",
            Routine::Strcpy => "strcpy",
            Routine::Strcmp => "strcmp",
            Routine::Strcat => "strcat",
        }
    }

    /// The routine's body as the compiler emits it from `stdlib_source`,
    /// slot for slot: op and operand, jump operands relative to the first
    /// slot. `strcat`'s `Call` operand is not compared: its target must
    /// itself be `strlen`'s body.
    pub(crate) fn template(self) -> &'static [(Op, u32)] {
        use Op::{Add, Call, Enter, Jmp, Jz, LoadB, LoadL, Ne, Push, Ret, StoreB, StoreL, Sub};
        /// The jump operand of slot `n`.
        const fn at(n: u32) -> u32 {
            n * INSTR_SIZE
        }
        #[rustfmt::skip]
        const STRLEN: [(Op, u32); 20] = [
            (Enter, 8), (StoreL, 4), (Push, 0), (StoreL, 8),
            // while (s[n] != 0)
            (LoadL, 4), (LoadL, 8), (Add, 0), (LoadB, 0), (Push, 0), (Ne, 0), (Jz, at(16)),
            // n = n + 1;
            (LoadL, 8), (Push, 1), (Add, 0), (StoreL, 8), (Jmp, at(4)),
            // return n;
            (LoadL, 8), (Ret, 0),
            (Push, 0), (Ret, 0),
        ];
        #[rustfmt::skip]
        const STARTS_WITH: [(Op, u32); 34] = [
            (Enter, 16), (StoreL, 8), (StoreL, 4), (Push, 0), (StoreL, 12),
            // while (prefix[i] != 0)
            (LoadL, 8), (LoadL, 12), (Add, 0), (LoadB, 0), (Push, 0), (Ne, 0), (Jz, at(30)),
            // if (s[i] != prefix[i]) { return 0; }
            (LoadL, 4), (LoadL, 12), (Add, 0), (LoadB, 0),
            (LoadL, 8), (LoadL, 12), (Add, 0), (LoadB, 0),
            (Ne, 0), (Jz, at(25)), (Push, 0), (Ret, 0), (Jmp, at(25)),
            // i = i + 1;
            (LoadL, 12), (Push, 1), (Add, 0), (StoreL, 12), (Jmp, at(5)),
            // return 1;
            (Push, 1), (Ret, 0),
            (Push, 0), (Ret, 0),
        ];
        #[rustfmt::skip]
        const STRCPY: [(Op, u32); 34] = [
            (Enter, 16), (StoreL, 8), (StoreL, 4), (Push, 0), (StoreL, 12),
            // while (src[i] != 0)
            (LoadL, 8), (LoadL, 12), (Add, 0), (LoadB, 0), (Push, 0), (Ne, 0), (Jz, at(25)),
            // dst[i] = src[i];
            (LoadL, 8), (LoadL, 12), (Add, 0), (LoadB, 0),
            (LoadL, 4), (LoadL, 12), (Add, 0), (StoreB, 0),
            // i = i + 1;
            (LoadL, 12), (Push, 1), (Add, 0), (StoreL, 12), (Jmp, at(5)),
            // dst[i] = 0; return i;
            (Push, 0), (LoadL, 4), (LoadL, 12), (Add, 0), (StoreB, 0),
            (LoadL, 12), (Ret, 0),
            (Push, 0), (Ret, 0),
        ];
        #[rustfmt::skip]
        const STRCMP: [(Op, u32); 61] = [
            (Enter, 16), (StoreL, 8), (StoreL, 4), (Push, 0), (StoreL, 12),
            // while (a[i] != 0 && b[i] != 0)
            (LoadL, 4), (LoadL, 12), (Add, 0), (LoadB, 0), (Push, 0), (Ne, 0), (Jz, at(21)),
            (LoadL, 8), (LoadL, 12), (Add, 0), (LoadB, 0), (Push, 0), (Ne, 0), (Jz, at(21)),
            (Push, 1), (Jmp, at(22)), (Push, 0), (Jz, at(49)),
            // if (a[i] != b[i]) { return a[i] - b[i]; }
            (LoadL, 4), (LoadL, 12), (Add, 0), (LoadB, 0),
            (LoadL, 8), (LoadL, 12), (Add, 0), (LoadB, 0),
            (Ne, 0), (Jz, at(44)),
            (LoadL, 4), (LoadL, 12), (Add, 0), (LoadB, 0),
            (LoadL, 8), (LoadL, 12), (Add, 0), (LoadB, 0),
            (Sub, 0), (Ret, 0), (Jmp, at(44)),
            // i = i + 1;
            (LoadL, 12), (Push, 1), (Add, 0), (StoreL, 12), (Jmp, at(5)),
            // return a[i] - b[i];
            (LoadL, 4), (LoadL, 12), (Add, 0), (LoadB, 0),
            (LoadL, 8), (LoadL, 12), (Add, 0), (LoadB, 0),
            (Sub, 0), (Ret, 0),
            (Push, 0), (Ret, 0),
        ];
        #[rustfmt::skip]
        const STRCAT: [(Op, u32); 43] = [
            (Enter, 16), (StoreL, 8), (StoreL, 4),
            // var off: int = strlen(dst); var i: int = 0;
            (LoadL, 4), (Call, 0), (StoreL, 12), (Push, 0), (StoreL, 16),
            // while (src[i] != 0)
            (LoadL, 8), (LoadL, 16), (Add, 0), (LoadB, 0), (Push, 0), (Ne, 0), (Jz, at(30)),
            // dst[off + i] = src[i];
            (LoadL, 8), (LoadL, 16), (Add, 0), (LoadB, 0),
            (LoadL, 4), (LoadL, 12), (LoadL, 16), (Add, 0), (Add, 0), (StoreB, 0),
            // i = i + 1;
            (LoadL, 16), (Push, 1), (Add, 0), (StoreL, 16), (Jmp, at(8)),
            // dst[off + i] = 0; return off + i;
            (Push, 0), (LoadL, 4), (LoadL, 12), (LoadL, 16), (Add, 0), (Add, 0), (StoreB, 0),
            (LoadL, 12), (LoadL, 16), (Add, 0), (Ret, 0),
            (Push, 0), (Ret, 0),
        ];
        match self {
            Routine::Strlen => &STRLEN,
            Routine::StartsWith => &STARTS_WITH,
            Routine::Strcpy => &STRCPY,
            Routine::Strcmp => &STRCMP,
            Routine::Strcat => &STRCAT,
        }
    }

    /// The routine whose body starts at code offset `target` of `instrs`.
    fn at(instrs: &[Instr], target: u32) -> Option<Routine> {
        Self::ALL
            .into_iter()
            .find(|routine| routine.is_at(instrs, target))
    }

    /// Whether the body at code offset `target` of `instrs` is this
    /// routine's template.
    fn is_at(self, instrs: &[Instr], target: u32) -> bool {
        let template = self.template();
        let start = (target / INSTR_SIZE) as usize;
        let Some(body) = instrs.get(start..start + template.len()) else {
            return false;
        };
        target.is_multiple_of(INSTR_SIZE)
            && body.iter().zip(template).all(|(instr, &(op, operand))| {
                instr.op == op
                    && match op {
                        Op::Jmp | Op::Jz | Op::Jnz => instr.operand == target.wrapping_add(operand),
                        Op::Call => Routine::Strlen.is_at(instrs, instr.operand),
                        _ => instr.operand == operand,
                    }
            })
    }
}

/// One slot of the interpreter's predecoded stream: the op and operand of
/// the instruction there, and the fused run it starts. The tag stays in
/// the image, where the interpreter reads it live, so one stream serves
/// every retagged image. Eight bytes, the size of an [`Instr`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    pub(crate) op: Op,
    pub(crate) fused: Fused,
    /// `fused`'s [`Fused::budget`], in the byte the other fields leave
    /// spare: whether to try a run is one comparison of it with the
    /// budget left, not a jump on `fused`.
    pub(crate) run: u8,
    pub(crate) operand: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 8);

impl From<Instr> for Slot {
    fn from(instr: Instr) -> Self {
        Slot {
            op: instr.op,
            fused: Fused::Single,
            run: 0,
            operand: instr.operand,
        }
    }
}

/// Predecodes a code image into the interpreter's stream, marking every
/// slot that starts a whole fused run with the longest such run, and
/// every `Call` whose target is a string routine's body (each distinct
/// target compared once). Every slot keeps its own op and operand, so a
/// jump into the middle of a run executes the rest of it one instruction
/// at a time, or as the shorter runs marked there. `None` when the image
/// does not decode (see [`decode_all`]).
pub(crate) fn predecode(code: &[u8]) -> Option<Vec<Slot>> {
    let instrs = decode_all(code)?;
    let mut targets = BTreeMap::new();
    Some(
        (0..instrs.len())
            .map(|i| {
                let instr = instrs[i];
                let fused = if instr.op == Op::Call {
                    targets
                        .entry(instr.operand)
                        .or_insert_with(|| Routine::at(&instrs, instr.operand))
                        .map_or(Fused::Single, Fused::Call)
                } else {
                    Fused::starting(&instrs, i)
                };
                Slot {
                    fused,
                    run: fused.budget(),
                    ..Slot::from(instr)
                }
            })
            .collect(),
    )
}

/// The tag every instruction slot of a code image carries, when they all
/// carry one (`None` for an empty image).
#[must_use]
pub(crate) fn uniform_tag(code: &[u8]) -> Option<u8> {
    let tag = *code.first()?;
    code.iter()
        .step_by(INSTR_SIZE as usize)
        .all(|&found| found == tag)
        .then_some(tag)
}

/// Re-stamps every instruction in a code image with `tag`, returning the new
/// image. This is the code-transformation half of the instruction-set
/// tagging variation.
#[must_use]
pub fn retag_code(code: &[u8], tag: u8) -> Vec<u8> {
    let mut out = code.to_vec();
    let mut i = 0;
    while i < out.len() {
        out[i] = tag;
        i += INSTR_SIZE as usize;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_round_trip() {
        for &op in Op::ALL {
            assert_eq!(Op::from_u8(op.as_u8()), Some(op));
        }
        assert_eq!(Op::from_u8(200), None);
    }

    #[test]
    fn opcode_numbers_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &op in Op::ALL {
            assert!(seen.insert(op.as_u8()), "duplicate opcode for {op}");
        }
    }

    #[test]
    fn instruction_encode_decode_round_trip() {
        let cases = [
            Instr::new(Op::Push, 0xDEAD_BEEF).with_tag(3),
            Instr::simple(Op::Ret),
            Instr::new(Op::Syscall, (9 << 8) | 3),
            Instr::new(Op::Jmp, 0x1234),
        ];
        for instr in cases {
            assert_eq!(Instr::decode(&instr.encode()), Some(instr));
        }
    }

    #[test]
    fn decode_rejects_short_or_invalid_input() {
        assert_eq!(Instr::decode(&[0, 1, 2]), None);
        let mut bytes = Instr::simple(Op::Nop).encode();
        bytes[1] = 0xFF;
        assert_eq!(Instr::decode(&bytes), None);
    }

    #[test]
    fn encode_all_decode_all_round_trip() {
        let instrs = vec![
            Instr::new(Op::Push, 1),
            Instr::new(Op::Push, 2),
            Instr::simple(Op::Add),
            Instr::simple(Op::Ret),
        ];
        let code = encode_all(&instrs);
        assert_eq!(code.len(), 4 * INSTR_SIZE as usize);
        assert_eq!(decode_all(&code), Some(instrs));
        assert_eq!(decode_all(&code[..7]), None);
    }

    #[test]
    fn retag_changes_only_tags() {
        let instrs = vec![Instr::new(Op::Push, 7), Instr::simple(Op::Halt)];
        let code = encode_all(&instrs);
        let tagged = retag_code(&code, 1);
        let decoded = decode_all(&tagged).unwrap();
        assert!(decoded.iter().all(|i| i.tag == 1));
        assert_eq!(decoded[0].op, Op::Push);
        assert_eq!(decoded[0].operand, 7);
        assert_eq!(decoded[1].op, Op::Halt);
    }

    #[test]
    fn decode_slot_carries_pc_and_raw_bytes() {
        let mut bytes = Instr::new(Op::Push, 0xAABB).encode();
        bytes[1] = 0xFF;
        let failure = decode_slot(bytes, 0x2A).unwrap_err();
        assert_eq!(failure.pc, 0x2A);
        assert_eq!(failure.raw, bytes);
        let text = failure.describe();
        assert!(text.contains("0x0000002a"), "{text}");
        assert!(text.contains("0xff"), "{text}");
        assert!(text.contains("ff"), "{text}");
    }

    #[test]
    fn decode_slot_at_zero_pads_past_image_end() {
        let code = encode_all(&[Instr::simple(Op::Halt)]);
        // One full slot past the end: all-zero bytes decode as tag-0 Nop.
        assert_eq!(
            decode_slot_at(&code, INSTR_SIZE).unwrap(),
            Instr::simple(Op::Nop)
        );
        // A bad opcode inside the image reports its own bytes.
        let mut bad = code.clone();
        bad[1] = 0xEE;
        let failure = decode_slot_at(&bad, 0).unwrap_err();
        assert_eq!(failure.raw[1], 0xEE);
        assert_eq!(failure.pc, 0);
    }

    #[test]
    fn predecode_marks_whole_runs_and_keeps_every_slot() {
        use Fused::{AddImmLocal, AndJoin, BranchIfImm, ByteLoopTest, IncJump, IndexByte, Single};
        use Op::{Add, Jmp, Jz, LoadB, LoadL, Ne, Push, StoreL};
        let at = |slot: u32| slot * INSTR_SIZE;
        let instrs = [
            // while (a[i] != 0) { i = i + 1; }
            Instr::new(LoadL, 4),
            Instr::new(LoadL, 8),
            Instr::simple(Add),
            Instr::simple(LoadB),
            Instr::new(Push, 0),
            Instr::simple(Ne),
            Instr::new(Jz, at(12)),
            Instr::new(LoadL, 8),
            Instr::new(Push, 1),
            Instr::simple(Add),
            Instr::new(StoreL, 8),
            Instr::new(Jmp, 0),
            // The join `&&` compiles to, tested by the `Jz` at slot 14.
            Instr::new(Push, 1),
            Instr::new(Jmp, at(14)),
            Instr::new(Jz, 0),
            // `Push; Jmp` to a slot that is not a `Jz`, to a misaligned
            // offset and past the image: no join.
            Instr::new(Push, 1),
            Instr::new(Jmp, 0),
            Instr::new(Push, 1),
            Instr::new(Jmp, at(14) + 1),
            Instr::new(Push, 1),
            Instr::new(Jmp, at(31)),
            // The shorter runs, where the longer ones do not continue.
            Instr::new(LoadL, 8),
            Instr::new(LoadL, 4),
            Instr::simple(Add),
            Instr::simple(LoadB),
            Instr::new(LoadL, 8),
            Instr::new(Push, 1),
            Instr::simple(Add),
            Instr::new(StoreL, 8),
            // Cut short by the end of the image: no run.
            Instr::new(Push, 0),
            Instr::simple(Ne),
        ];
        let stream = predecode(&encode_all(&instrs)).unwrap();
        let marks: Vec<Fused> = stream.iter().map(|slot| slot.fused).collect();
        #[rustfmt::skip]
        assert_eq!(
            marks,
            [
                ByteLoopTest, Single, Single, Single, BranchIfImm, Single, Single,
                IncJump, Single, Single, Single, Single,
                AndJoin, Single, Single,
                Single, Single, Single, Single, Single, Single,
                IndexByte, Single, Single, Single,
                AddImmLocal, Single, Single, Single,
                Single, Single,
            ]
        );
        for (slot, instr) in stream.iter().zip(&instrs) {
            assert_eq!((slot.op, slot.operand), (instr.op, instr.operand));
            assert_eq!(slot.run, slot.fused.budget());
        }
        for (run, ops) in Fused::RUNS {
            assert_eq!(usize::from(run.budget()), ops.len(), "{run:?}");
        }
        let mut bad = encode_all(&instrs);
        bad[1] = 0xEE;
        assert_eq!(predecode(&bad), None);
    }

    #[test]
    fn display_contains_tag_and_op() {
        let text = Instr::new(Op::Push, 16).with_tag(1).to_string();
        assert!(text.contains("Push"));
        assert!(text.contains("[1]"));
        assert!(text.contains("0x10"));
    }
}
