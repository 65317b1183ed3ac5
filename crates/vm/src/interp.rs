//! The bytecode interpreter: one loop that fetches, checks the tag, decodes
//! and executes until the process traps.
//!
//! Execution *traps* to the caller on every system call, exit or fault —
//! the hook the single-process runner and the N-variant monitor both build
//! on. [`Process::run_until_trap`] runs a slice of up to `max_steps`
//! instructions; [`Process::step`] is a slice of one. Both are the same
//! loop, which implements every opcode exactly once.
//!
//! What the loop checks once instead of per instruction:
//!
//! - the process state, once per slice: a running process stays running
//!   until the loop itself traps;
//! - the predecoded stream, borrowed once per slice;
//! - the tag: [`Process::with_image`] records the tag every slot of its
//!   write-protected image carries, so the live tag byte is read only when
//!   that record differs from the expected tag (a restamped expected tag,
//!   a mixed-tag image), and such images fault at exactly the slot a
//!   per-step check would;
//! - memory: when the layout's segments are disjoint (decided once per
//!   process), an address in the stored part of the stack or in the globals
//!   is placed by one comparison against that part's bounds; any other
//!   address takes the full segment lookup, and every access faults exactly
//!   where a byte walk would. `Enter` grows the stored part when `sp` first
//!   moves below it (one comparison; the growth itself is out of line), so
//!   a frame's locals are stored; a pushed call frame grows it through its
//!   own stores.
//!
//! A pc outside the predecoded stream (misaligned, beyond the image, in a
//! data segment, or in an image that did not predecode) always takes the
//! byte-accurate fetch.

use crate::bytecode::{Instr, Op, INSTR_SIZE};
use crate::fault::Fault;
use crate::process::{Process, ProcessState};
use nvariant_simos::{SyscallRequest, Sysno};
use nvariant_types::{VirtAddr, Word};
use serde::{Deserialize, Serialize};

/// Why the interpreter stopped: the trap [`Process::run_until_trap`]
/// returns, and the one [`Process::step`] returns unless the instruction
/// simply completed.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrapReason {
    /// The process issued a system call and is waiting for its result
    /// (deliver it with [`Process::complete_syscall`]).
    Syscall(SyscallRequest),
    /// The process exited.
    Exited(i32),
    /// The process faulted.
    Faulted(Fault),
}

impl Process {
    /// Executes instructions until the process traps (system call, exit or
    /// fault) or `max_steps` instructions have been executed, whichever
    /// comes first.
    ///
    /// Exceeding the step budget is reported as a
    /// [`Fault::StepLimitExceeded`] — the monitor treats a runaway variant
    /// the same way it treats any other fault. A budget of zero does so
    /// without looking at the process, even one that already exited.
    pub fn run_until_trap(&mut self, max_steps: u64) -> TrapReason {
        self.run_steps(max_steps).unwrap_or_else(|| {
            self.set_faulted(Fault::StepLimitExceeded);
            TrapReason::Faulted(Fault::StepLimitExceeded)
        })
    }

    /// Executes one instruction: `None` when it completed and execution
    /// may continue, otherwise the trap it raised (an exited or faulted
    /// process traps again without executing anything).
    pub fn step(&mut self) -> Option<TrapReason> {
        self.run_steps(1)
    }

    /// Runs at most `budget` instructions; `None` when the budget ran out
    /// before a trap.
    fn run_steps(&mut self, budget: u64) -> Option<TrapReason> {
        if budget == 0 {
            return None;
        }
        match self.state {
            ProcessState::Running => {}
            ProcessState::Exited(status) => return Some(TrapReason::Exited(status)),
            ProcessState::Faulted(fault) => return Some(TrapReason::Faulted(fault)),
        }
        // Moved out for the slice so the loop can borrow it while mutating
        // the rest of the process; nothing else reads it meanwhile.
        let stream = self.instrs.take();
        let trap = self.interpret(stream.as_deref().unwrap_or_default(), budget);
        self.instrs = stream;
        trap
    }

    fn interpret(&mut self, stream: &[Instr], budget: u64) -> Option<TrapReason> {
        macro_rules! try_fault {
            ($e:expr) => {
                match $e {
                    Ok(value) => value,
                    Err(fault) => return Some(self.fault(fault)),
                }
            };
        }
        macro_rules! pop {
            () => {
                try_fault!(self.ostack.pop().ok_or(Fault::OperandStackUnderflow))
            };
        }
        macro_rules! binary {
            ($lhs:ident, $rhs:ident => $result:expr) => {{
                let $rhs = pop!();
                let $lhs = pop!();
                self.ostack.push($result);
            }};
        }

        let check_tags = self.image_tag != Some(self.expected_tag);
        for _ in 0..budget {
            // Fetch: an aligned pc inside the stream indexes it directly
            // (the stream spans exactly the image, see `with_image`).
            let off = self.pc.wrapping_sub(self.layout.code_base);
            let instr = match stream.get((off / INSTR_SIZE) as usize) {
                Some(&instr) if off.is_multiple_of(INSTR_SIZE) => {
                    if check_tags {
                        let found = self.code[off as usize];
                        if found != self.expected_tag {
                            return Some(self.fault(self.tag_mismatch(found)));
                        }
                    }
                    instr
                }
                _ => try_fault!(self.fetch_bytes()),
            };
            self.pc = self.pc.wrapping_add(INSTR_SIZE);
            self.instructions_executed += 1;

            let operand = instr.operand;
            match instr.op {
                Op::Nop => {}
                Op::Push => self.ostack.push(Word::from_u32(operand)),
                Op::Dup => {
                    let top = pop!();
                    self.ostack.push(top);
                    self.ostack.push(top);
                }
                Op::Pop => {
                    pop!();
                }
                Op::Swap => {
                    let a = pop!();
                    let b = pop!();
                    self.ostack.push(a);
                    self.ostack.push(b);
                }

                Op::LoadG => {
                    let addr = self.layout.globals_base.wrapping_add(operand);
                    let value = try_fault!(self.read_word(VirtAddr::new(addr)));
                    self.ostack.push(value);
                }
                Op::StoreG => {
                    let value = pop!();
                    let addr = self.layout.globals_base.wrapping_add(operand);
                    try_fault!(self.write_word(VirtAddr::new(addr), value));
                }
                Op::LoadL => {
                    let addr = self.fp.wrapping_sub(operand);
                    let value = try_fault!(self.read_word(VirtAddr::new(addr)));
                    self.ostack.push(value);
                }
                Op::StoreL => {
                    let value = pop!();
                    let addr = self.fp.wrapping_sub(operand);
                    try_fault!(self.write_word(VirtAddr::new(addr), value));
                }
                Op::LeaG => self.ostack.push(Word::from_u32(
                    self.layout.globals_base.wrapping_add(operand),
                )),
                Op::LeaL => self
                    .ostack
                    .push(Word::from_u32(self.fp.wrapping_sub(operand))),
                Op::LoadW => {
                    let addr = pop!().as_addr();
                    let value = try_fault!(self.read_word(addr));
                    self.ostack.push(value);
                }
                Op::StoreW => {
                    let addr = pop!().as_addr();
                    let value = pop!();
                    try_fault!(self.write_word(addr, value));
                }
                Op::LoadB => {
                    let addr = pop!().as_addr();
                    let value = try_fault!(self.read_byte(addr));
                    self.ostack.push(Word::from_u32(u32::from(value)));
                }
                Op::StoreB => {
                    let addr = pop!().as_addr();
                    let value = pop!();
                    try_fault!(self.write_byte(addr, (value.as_u32() & 0xFF) as u8));
                }

                Op::Add => binary!(l, r => Word::from_u32(l.as_u32().wrapping_add(r.as_u32()))),
                Op::Sub => binary!(l, r => Word::from_u32(l.as_u32().wrapping_sub(r.as_u32()))),
                Op::Mul => binary!(l, r => Word::from_u32(l.as_u32().wrapping_mul(r.as_u32()))),
                Op::Div | Op::Mod => {
                    let rhs = pop!();
                    let lhs = pop!();
                    if rhs.as_i32() == 0 {
                        return Some(self.fault(Fault::DivideByZero));
                    }
                    self.ostack.push(Word::from_i32(if instr.op == Op::Div {
                        lhs.as_i32().wrapping_div(rhs.as_i32())
                    } else {
                        lhs.as_i32().wrapping_rem(rhs.as_i32())
                    }));
                }
                Op::BitAnd => binary!(l, r => Word::from_u32(l.as_u32() & r.as_u32())),
                Op::BitOr => binary!(l, r => Word::from_u32(l.as_u32() | r.as_u32())),
                Op::BitXor => binary!(l, r => Word::from_u32(l.as_u32() ^ r.as_u32())),
                Op::Shl => {
                    binary!(l, r => Word::from_u32(l.as_u32().wrapping_shl(r.as_u32() & 31)));
                }
                Op::Shr => {
                    binary!(l, r => Word::from_u32(l.as_u32().wrapping_shr(r.as_u32() & 31)));
                }
                Op::Eq => binary!(l, r => Word::from_bool(l == r)),
                Op::Ne => binary!(l, r => Word::from_bool(l != r)),
                Op::Lt => binary!(l, r => Word::from_bool(l.as_i32() < r.as_i32())),
                Op::Le => binary!(l, r => Word::from_bool(l.as_i32() <= r.as_i32())),
                Op::Gt => binary!(l, r => Word::from_bool(l.as_i32() > r.as_i32())),
                Op::Ge => binary!(l, r => Word::from_bool(l.as_i32() >= r.as_i32())),
                Op::Neg => {
                    let value = pop!();
                    self.ostack
                        .push(Word::from_i32(value.as_i32().wrapping_neg()));
                }
                Op::Not => {
                    let value = pop!();
                    self.ostack.push(Word::from_bool(value.as_u32() == 0));
                }
                Op::BitNot => {
                    let value = pop!();
                    self.ostack.push(Word::from_u32(!value.as_u32()));
                }

                Op::Jmp => self.pc = self.layout.code_base.wrapping_add(operand),
                Op::Jz => {
                    if pop!().as_u32() == 0 {
                        self.pc = self.layout.code_base.wrapping_add(operand);
                    }
                }
                Op::Jnz => {
                    if pop!().as_u32() != 0 {
                        self.pc = self.layout.code_base.wrapping_add(operand);
                    }
                }

                Op::Call => {
                    let target = self.layout.code_base.wrapping_add(operand);
                    try_fault!(self.push_frame(target));
                }
                Op::CallPtr => {
                    let target = pop!().as_u32();
                    try_fault!(self.push_frame(target));
                }
                Op::Enter => {
                    self.sp = self.sp.wrapping_sub(operand);
                    if self.sp < self.layout.stack_base() {
                        return Some(self.fault(Fault::StackOverflow));
                    }
                    if self.sp < self.stack_stored_base() {
                        self.grow_stack(self.sp);
                    }
                }
                Op::Ret => {
                    let fp = VirtAddr::new(self.fp);
                    let return_addr = try_fault!(self.read_word(fp));
                    let saved_fp = try_fault!(self.read_word(fp + 4));
                    self.sp = self.fp.wrapping_add(8);
                    self.fp = saved_fp.as_u32();
                    self.pc = return_addr.as_u32();
                }

                Op::Syscall => {
                    let number = operand >> 8;
                    let argc = (operand & 0xFF) as usize;
                    let Some(sysno) = Sysno::from_u32(number) else {
                        return Some(self.fault(Fault::InvalidSyscall { number }));
                    };
                    let mut args = Vec::with_capacity(argc);
                    for _ in 0..argc {
                        args.push(pop!());
                    }
                    args.reverse();
                    self.syscalls_made += 1;
                    return Some(TrapReason::Syscall(SyscallRequest::new(sysno, args)));
                }

                Op::Halt => {
                    self.state = ProcessState::Exited(0);
                    return Some(TrapReason::Exited(0));
                }
            }
        }
        None
    }

    fn fault(&mut self, fault: Fault) -> TrapReason {
        self.state = ProcessState::Faulted(fault);
        TrapReason::Faulted(fault)
    }

    fn tag_mismatch(&self, found: u8) -> Fault {
        Fault::TagMismatch {
            pc: VirtAddr::new(self.pc),
            expected: self.expected_tag,
            found,
        }
    }

    /// The byte-accurate fetch for a pc outside the predecoded stream:
    /// misaligned or out of the image, redirected into a data segment (the
    /// monitor's code-injection scenarios), or in an image that did not
    /// predecode. Faults exactly as a byte walk would.
    fn fetch_bytes(&self) -> Result<Instr, Fault> {
        let pc = VirtAddr::new(self.pc);
        let mut raw = [0u8; INSTR_SIZE as usize];
        for (i, byte) in raw.iter_mut().enumerate() {
            *byte = self.read_byte(pc + i as u32)?;
        }
        let instr = crate::bytecode::decode_slot(raw, pc.as_u32()).map_err(|failure| {
            Fault::IllegalInstruction {
                pc,
                raw: failure.raw,
            }
        })?;
        if instr.tag != self.expected_tag {
            return Err(self.tag_mismatch(instr.tag));
        }
        Ok(instr)
    }

    /// Pushes a call frame (return address and saved frame pointer) onto the
    /// memory stack and transfers control to `target`.
    fn push_frame(&mut self, target: u32) -> Result<(), Fault> {
        let new_sp = self.sp.wrapping_sub(8);
        if new_sp < self.layout.stack_base() {
            return Err(Fault::StackOverflow);
        }
        // Saved frame pointer at the higher address, return address below it:
        // a buffer overflow that writes upward reaches the return address
        // first, exactly like the classic stack-smash layout.
        self.write_word(
            VirtAddr::new(new_sp.wrapping_add(4)),
            Word::from_u32(self.fp),
        )?;
        self.write_word(VirtAddr::new(new_sp), Word::from_u32(self.pc))?;
        self.fp = new_sp;
        self.sp = new_sp;
        self.pc = target;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use crate::parser::parse_program;
    use crate::process::MemoryLayout;

    fn process_for(src: &str) -> Process {
        let program = parse_program(src).unwrap();
        let compiled = compile_program(&program).unwrap();
        Process::new(&compiled, MemoryLayout::default())
    }

    /// Runs a process that makes no system calls other than the final exit
    /// and returns the exit status.
    fn run_to_exit(process: &mut Process) -> i32 {
        match process.run_until_trap(1_000_000) {
            TrapReason::Syscall(req) if req.sysno == Sysno::Exit => {
                let status = req.arg(0).as_i32();
                process.set_exited(status);
                status
            }
            TrapReason::Syscall(req) => panic!("unexpected syscall {req}"),
            TrapReason::Exited(status) => status,
            TrapReason::Faulted(fault) => panic!("unexpected fault: {fault}"),
        }
    }

    #[test]
    fn arithmetic_and_return_value() {
        let mut p = process_for("fn main() -> int { return (2 + 3) * 4 - 10 / 2; }");
        assert_eq!(run_to_exit(&mut p), 15);
    }

    #[test]
    fn signed_arithmetic_and_comparisons() {
        let mut p = process_for(
            r"
            fn main() -> int {
                var a: int = 0 - 7;
                var b: int = 3;
                if (a < b) {
                    if (a / b == 0 - 2) {
                        if (a % b == 0 - 1) { return 1; }
                    }
                }
                return 0;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 1);
    }

    #[test]
    fn while_loop_and_locals() {
        let mut p = process_for(
            r"
            fn main() -> int {
                var i: int = 0;
                var total: int = 0;
                while (i < 10) {
                    total = total + i;
                    i = i + 1;
                }
                return total;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 45);
    }

    #[test]
    fn break_and_continue() {
        let mut p = process_for(
            r"
            fn main() -> int {
                var i: int = 0;
                var total: int = 0;
                while (1) {
                    i = i + 1;
                    if (i > 10) { break; }
                    if (i % 2 == 0) { continue; }
                    total = total + i;
                }
                return total;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 25);
    }

    #[test]
    fn function_calls_with_arguments() {
        let mut p = process_for(
            r"
            fn add3(a: int, b: int, c: int) -> int { return a + b + c; }
            fn twice(x: int) -> int { return add3(x, x, 0); }
            fn main() -> int { return twice(7) + add3(1, 2, 3); }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 20);
    }

    #[test]
    fn recursion() {
        let mut p = process_for(
            r"
            fn fib(n: int) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() -> int { return fib(10); }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 55);
    }

    #[test]
    fn globals_buffers_and_pointers() {
        let mut p = process_for(
            r"
            var table: buf[16];
            var cursor: int = 0;
            fn put(value: int) {
                table[cursor] = value;
                cursor = cursor + 1;
            }
            fn main() -> int {
                var p: ptr;
                put(10);
                put(20);
                put(30);
                p = &cursor;
                *p = *p + 100;
                return table[0] + table[1] + table[2] + cursor;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 163);
    }

    #[test]
    fn logical_operators_short_circuit() {
        let mut p = process_for(
            r"
            var side_effects: int = 0;
            fn bump() -> int { side_effects = side_effects + 1; return 1; }
            fn main() -> int {
                if (0 && bump()) { return 100; }
                if (1 || bump()) {
                    if (side_effects == 0) { return 1; }
                }
                return 0;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 1);
    }

    #[test]
    fn division_by_zero_faults() {
        let mut p = process_for("fn main() -> int { var z: int = 0; return 5 / z; }");
        match p.run_until_trap(10_000) {
            TrapReason::Faulted(Fault::DivideByZero) => {}
            other => panic!("expected divide-by-zero, got {other:?}"),
        }
        assert!(matches!(p.state(), ProcessState::Faulted(_)));
    }

    #[test]
    fn wild_pointer_write_segfaults() {
        let mut p = process_for(
            r"
            fn main() -> int {
                var p: ptr;
                p = 0x40;
                *p = 7;
                return 0;
            }
            ",
        );
        match p.run_until_trap(10_000) {
            TrapReason::Faulted(Fault::Segfault { addr }) => {
                assert_eq!(addr.as_u32(), 0x40);
            }
            other => panic!("expected segfault, got {other:?}"),
        }
    }

    #[test]
    fn partitioned_variant_faults_on_low_half_absolute_address() {
        // The Figure 1 scenario: an absolute address valid for variant 0 is
        // unmapped in the partitioned variant.
        let program = parse_program(
            r"
            var target: int = 5;
            fn main() -> int {
                var p: ptr;
                p = 0x00100000;
                *p = 99;
                return target;
            }
            ",
        )
        .unwrap();
        let compiled = compile_program(&program).unwrap();
        let mut p0 = Process::new(&compiled, MemoryLayout::default());
        let mut p1 = Process::new(&compiled, MemoryLayout::default().with_partition_bit());
        assert_eq!(run_to_exit(&mut p0), 99);
        match p1.run_until_trap(10_000) {
            TrapReason::Faulted(Fault::Segfault { .. }) => {}
            other => panic!("expected segfault in partitioned variant, got {other:?}"),
        }
    }

    #[test]
    fn tag_mismatch_faults_immediately() {
        let program = parse_program("fn main() -> int { return 0; }").unwrap();
        let compiled = compile_program(&program).unwrap();
        // Code stamped with tag 0 but the variant expects tag 1.
        let mut p = Process::new(&compiled, MemoryLayout::default());
        p.expected_tag = 1;
        match p.step() {
            Some(TrapReason::Faulted(Fault::TagMismatch {
                expected, found, ..
            })) => {
                assert_eq!(expected, 1);
                assert_eq!(found, 0);
            }
            other => panic!("expected tag mismatch, got {other:?}"),
        }
    }

    #[test]
    fn syscall_traps_and_resumes() {
        let mut p = process_for("fn main() -> int { return getuid() + 1; }");
        match p.run_until_trap(10_000) {
            TrapReason::Syscall(req) => {
                assert_eq!(req.sysno, Sysno::GetUid);
                assert!(req.args.is_empty());
            }
            other => panic!("expected getuid trap, got {other:?}"),
        }
        p.complete_syscall(Word::from_u32(48));
        match p.run_until_trap(10_000) {
            TrapReason::Syscall(req) => {
                assert_eq!(req.sysno, Sysno::Exit);
                assert_eq!(req.arg(0).as_u32(), 49);
            }
            other => panic!("expected exit trap, got {other:?}"),
        }
    }

    #[test]
    fn step_limit_is_reported_as_fault() {
        let mut p = process_for("fn main() -> int { while (1) { } return 0; }");
        match p.run_until_trap(1_000) {
            TrapReason::Faulted(Fault::StepLimitExceeded) => {}
            other => panic!("expected step limit fault, got {other:?}"),
        }
    }

    #[test]
    fn deep_recursion_overflows_the_stack() {
        let mut p = process_for(
            r"
            fn spin(n: int) -> int { return spin(n + 1); }
            fn main() -> int { return spin(0); }
            ",
        );
        match p.run_until_trap(50_000_000) {
            TrapReason::Faulted(Fault::StackOverflow) => {}
            other => panic!("expected stack overflow, got {other:?}"),
        }
    }

    #[test]
    fn instruction_counter_advances() {
        let mut p = process_for("fn main() -> int { return 1 + 2; }");
        let _ = p.run_until_trap(10_000);
        assert!(p.instructions_executed() > 3);
        assert_eq!(p.syscalls_made(), 1);
    }

    #[test]
    fn exited_process_stays_exited() {
        let mut p = process_for("fn main() -> int { return 3; }");
        let _ = run_to_exit(&mut p);
        assert_eq!(p.step(), Some(TrapReason::Exited(3)));
        assert_eq!(p.run_until_trap(10), TrapReason::Exited(3));
        // A zero budget is exhausted before the state is looked at.
        assert_eq!(
            p.run_until_trap(0),
            TrapReason::Faulted(Fault::StepLimitExceeded)
        );
        assert_eq!(p.state(), ProcessState::Faulted(Fault::StepLimitExceeded));
    }
}
