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
//!   the N-variant monitor synchronizes on ([`interp`]); the monitor runs
//!   every deployment, a single process as a group of one, and
//! * a SimC standard library (`strcpy`, `memcpy`, `atoi`, …) written in SimC
//!   ([`stdlib`]).
//!
//! # Example
//!
//! ```
//! use nvariant_simos::Sysno;
//! use nvariant_types::Word;
//! use nvariant_vm::{compile_program, parse_program, MemoryLayout, Process, TrapReason};
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
//! // The process runs until it traps. A system call waits for the result
//! // its runner (the N-variant monitor) delivers: here uid 0.
//! let TrapReason::Syscall(request) = process.run_until_trap(10_000) else {
//!     panic!("expected a system call");
//! };
//! assert_eq!(request.sysno, Sysno::GetUid);
//! process.complete_syscall(Word::ZERO);
//!
//! // `main` returned 1, which the start stub passes to `exit`.
//! let TrapReason::Syscall(exit) = process.run_until_trap(10_000) else {
//!     panic!("expected a system call");
//! };
//! assert_eq!(exit.sysno, Sysno::Exit);
//! assert_eq!(exit.arg(0), Word::from_u32(1));
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
pub mod stdlib;
pub mod typecheck;

pub use ast::{BinOp, Expr, Function, GlobalDecl, LValue, Param, Program, Stmt, Type, UnOp};
pub use bytecode::{decode_slot, decode_slot_at, DecodeFailure, Instr, Op, INSTR_SIZE};
pub use compile::{compile_program, CompileError, CompiledProgram};
pub use fault::Fault;
pub use interp::TrapReason;
pub use lexer::{LexError, Token};
pub use parser::{parse_program, ParseError, MAX_NESTING};
pub use pretty::pretty_print;
pub use process::{MemoryLayout, Process, ProcessState};
pub use stdlib::{parse_with_stdlib, stdlib_source};
pub use typecheck::{typecheck_program, FunctionSig, TypeError, TypeInfo};

#[cfg(test)]
mod tests {
    //! The front end is total: token streams and mutated sources end in a
    //! typed error or a compiled program, never a panic. Debug builds run
    //! it with overflow checks on.

    use super::*;

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

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A token of [`VOCABULARY`], drawn uniformly.
        fn token(&mut self) -> &'static str {
            let count = VOCABULARY.split_whitespace().count();
            let index = self.below(count);
            VOCABULARY
                .split_whitespace()
                .nth(index)
                .expect("index below count")
        }
    }

    /// Every kind of token, plus names the standard library and the
    /// seeds define, separated by spaces.
    const VOCABULARY: &str = "fn var if else while return break continue int uid_t gid_t ptr buf \
        ( ) { } [ ] , : ; -> + - * / % & | ^ ~ ! << >> = == != < <= > >= && || \
        main x uid line getuid setuid strcpy write_str \
        0 1 48 0x7fffffff 4294967295 'a' '\\n' \"ok\" \"\"";

    const SEEDS: &[&str] = &[
        r#"
        var server_uid: uid_t = 48;
        var line: buf[32];
        fn drop_to(uid: uid_t) -> int {
            if (uid == 0) { return 1; }
            return setuid(uid);
        }
        fn main() -> int {
            var i: int = 0;
            var p: ptr;
            while (i < 3) {
                if (server_uid == getuid()) { break; } else { i = i + 1; continue; }
            }
            p = &line;
            strcpy(p, "GET / HTTP/1.0");
            line[4] = 'x';
            write_str(1, &line);
            return drop_to(server_uid) + (i << 2) % 7;
        }
        "#,
        r"
        var hits: int;
        fn count(n: int, step: int) -> int {
            var total: int = 0;
            while (n > 0 && !(total >= 100 || step == 0)) { total = total + step; n = n - 1; }
            return total ^ ~hits;
        }
        fn main() -> int {
            var g: gid_t;
            g = getgid();
            hits = count(5, 0x10) - -1;
            if (cc_eq(getuid(), geteuid())) { return cond_chk(hits != 0); }
            return *(&hits) / 3;
        }
        ",
    ];

    /// Runs `source` through every stage, returning the stage that
    /// refused it (or `"compiled"`). A stage that panics fails the test.
    fn front_end(source: &str, with_stdlib: bool) -> &'static str {
        let parsed = if with_stdlib {
            parse_with_stdlib(source)
        } else {
            parse_program(source)
        };
        let Ok(program) = parsed else {
            return "parse";
        };
        if typecheck_program(&program).is_err() {
            return "typecheck";
        }
        match compile_program(&program) {
            Ok(_) => "compiled",
            Err(_) => "compile",
        }
    }

    /// One random edit of `source`: delete, duplicate or move a short run
    /// of bytes, or insert a vocabulary token.
    fn mutate(rng: &mut Rng, source: &mut String) {
        let len = source.len();
        let at = rng.below(len + 1);
        let run = (at + 1 + rng.below(4)).min(len);
        match rng.below(4) {
            0 => drop(source.drain(at..run)),
            1 => {
                let copy = source[at..run].to_string();
                source.insert_str(at, &copy);
            }
            2 => {
                let moved: String = source.drain(at..run).collect();
                let to = rng.below(source.len() + 1);
                source.insert_str(to, &moved);
            }
            _ => source.insert_str(at, &format!(" {} ", rng.token())),
        }
    }

    #[test]
    fn front_end_returns_typed_errors_on_arbitrary_input() {
        let mut rng = Rng(17);
        let mut reached = std::collections::BTreeMap::new();
        // Token streams, bare and inside a function body.
        for case in 0..1_500 {
            let tokens: Vec<&str> = (0..rng.below(40)).map(|_| rng.token()).collect();
            let source = if case % 2 == 0 {
                tokens.join(" ")
            } else {
                format!("fn main() -> int {{ {} }}", tokens.join(" "))
            };
            *reached.entry(front_end(&source, false)).or_insert(0) += 1;
        }
        // Seeds with a few edits each, linked against the standard library.
        for case in 0..1_500 {
            let mut source = SEEDS[case % SEEDS.len()].to_string();
            for _ in 0..=rng.below(2) {
                mutate(&mut rng, &mut source);
            }
            *reached.entry(front_end(&source, true)).or_insert(0) += 1;
        }
        // Every stage refused something and some inputs got through.
        for stage in ["parse", "typecheck", "compile", "compiled"] {
            assert!(
                reached.contains_key(stage),
                "{stage} never reached: {reached:?}"
            );
        }
    }
}
