//! SimC: a small C-like language and bytecode machine used as the
//! *application substrate* of the *Security through Redundant Data
//! Diversity* reproduction.
//!
//! The paper's UID data variation is a **source-to-source transformation**
//! over typed C programs (Apache), and its threat model is memory corruption
//! in those programs. Reproducing either faithfully requires owning the
//! whole chain from source text to executed instructions, so this crate
//! provides:
//!
//! * a parser and type checker for SimC, a C subset with `uid_t`/`gid_t`
//!   types, byte buffers, pointers and unchecked copy routines ([`ast`],
//!   [`lexer`], [`parser`], [`typecheck`]),
//! * a compiler to a fixed-width, byte-encoded bytecode in which every
//!   instruction carries a *tag* byte (the hook for instruction-set tagging,
//!   Table 1 of the paper) ([`bytecode`], [`compile`]),
//! * a process image with a classic memory layout — code, globals + rodata,
//!   and a downward-growing stack holding return addresses — so relative
//!   overflows, absolute writes and return-address smashes behave as they do
//!   on the paper's real targets ([`process`]),
//! * a step interpreter that yields at system-call boundaries, which is what
//!   the N-variant monitor synchronizes on ([`interp`]),
//! * a SimC standard library (`strcpy`, `memcpy`, `atoi`, …) written in SimC
//!   ([`stdlib`]), and
//! * a single-process runner used for the paper's Configurations 1 and 2
//!   ([`runner`]).
//!
//! # Example
//!
//! ```
//! use nvariant_simos::OsKernel;
//! use nvariant_types::Uid;
//! use nvariant_vm::{compile_program, parse_program, MemoryLayout, Process, RunLimits, Runner};
//!
//! let source = r#"
//!     fn main() -> int {
//!         var uid: uid_t;
//!         uid = getuid();
//!         if (uid == 0) { return 1; }
//!         return 0;
//!     }
//! "#;
//! let program = parse_program(source)?;
//! let compiled = compile_program(&program)?;
//! let mut process = Process::new(&compiled, MemoryLayout::default());
//!
//! let mut kernel = OsKernel::new();
//! let pid = kernel.spawn_process(Uid::ROOT);
//! let outcome = Runner::new(RunLimits::default()).run(&mut kernel, pid, &mut process);
//! assert_eq!(outcome.exit_status, Some(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod compile;
pub mod fault;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod process;
pub mod runner;
pub mod stdlib;
pub mod typecheck;

pub use ast::{BinOp, Expr, Function, GlobalDecl, LValue, Param, Program, Stmt, Type, UnOp};
pub use bytecode::{decode_slot, decode_slot_at, DecodeFailure, Instr, Op, INSTR_SIZE};
pub use compile::{compile_program, CompileError, CompiledProgram};
pub use fault::Fault;
pub use interp::TrapReason;
pub use lexer::{LexError, Token};
pub use parser::{parse_program, ParseError};
pub use pretty::pretty_print;
pub use process::{MemoryLayout, Process, ProcessState};
pub use runner::{RunLimits, RunOutcome, Runner};
pub use stdlib::{parse_with_stdlib, stdlib_source};
pub use typecheck::{typecheck_program, FunctionSig, TypeError, TypeInfo};
