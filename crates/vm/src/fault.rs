//! Hardware-level faults raised by the simulated machine.
//!
//! Faults are first-class in the N-variant model: address-space partitioning
//! turns an injected absolute address into a [`Fault::Segfault`] in one
//! variant, and instruction-set tagging turns injected code into a
//! [`Fault::TagMismatch`]; the monitor interprets either as divergence.

use nvariant_types::VirtAddr;
use std::fmt;

/// A fault that terminates a variant process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Fault {
    /// An access to unmapped memory.
    Segfault {
        /// The offending address.
        addr: VirtAddr,
    },
    /// The byte at the program counter does not decode to an instruction.
    IllegalInstruction {
        /// The program counter at the time of the fault.
        pc: VirtAddr,
        /// The six raw bytes of the undecodable slot.
        raw: [u8; crate::bytecode::INSTR_SIZE as usize],
    },
    /// The instruction's tag byte does not match the variant's expected tag
    /// (instruction-set tagging, Table 1 of the paper).
    TagMismatch {
        /// The program counter at the time of the fault.
        pc: VirtAddr,
        /// The tag this variant requires.
        expected: u8,
        /// The tag found in memory.
        found: u8,
    },
    /// The memory stack grew past its reserved region.
    StackOverflow,
    /// The operand stack was popped while empty (indicates a compiler or
    /// injected-code error).
    OperandStackUnderflow,
    /// Integer division or remainder by zero.
    DivideByZero,
    /// A `syscall` instruction named an unknown call number.
    InvalidSyscall {
        /// The unknown call number.
        number: u32,
    },
    /// A write targeted the read-only code or rodata region.
    WriteProtection {
        /// The offending address.
        addr: VirtAddr,
    },
    /// The configured step budget was exhausted (runaway loop guard).
    StepLimitExceeded,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Segfault { addr } => write!(f, "segmentation fault at {addr}"),
            Fault::IllegalInstruction { pc, raw } => {
                // One renderer for undecodable slots, shared with the static
                // analyzer, so run-time and verify-time reports agree.
                let failure = crate::bytecode::DecodeFailure {
                    pc: pc.as_u32(),
                    raw: *raw,
                };
                f.write_str(&failure.describe())
            }
            Fault::TagMismatch {
                pc,
                expected,
                found,
            } => write!(
                f,
                "instruction tag mismatch at {pc}: expected {expected}, found {found}"
            ),
            Fault::StackOverflow => write!(f, "stack overflow"),
            Fault::OperandStackUnderflow => write!(f, "operand stack underflow"),
            Fault::DivideByZero => write!(f, "division by zero"),
            Fault::InvalidSyscall { number } => write!(f, "invalid system call number {number}"),
            Fault::WriteProtection { addr } => write!(f, "write to protected memory at {addr}"),
            Fault::StepLimitExceeded => write!(f, "step limit exceeded"),
        }
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let text = Fault::Segfault {
            addr: VirtAddr::new(0x8000_1234),
        }
        .to_string();
        assert!(text.contains("0x80001234"));
        let text = Fault::TagMismatch {
            pc: VirtAddr::new(0x1000),
            expected: 1,
            found: 0,
        }
        .to_string();
        assert!(text.contains("expected 1"));
        assert!(text.contains("found 0"));
        assert!(Fault::DivideByZero.to_string().contains("division"));
        let text = Fault::IllegalInstruction {
            pc: VirtAddr::new(0x42),
            raw: [0, 0xFF, 0, 0, 0, 0],
        }
        .to_string();
        assert!(text.contains("illegal instruction at 0x00000042"), "{text}");
        assert!(text.contains("0xff"), "{text}");
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<Fault>();
    }
}
