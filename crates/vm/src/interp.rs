//! The bytecode interpreter: one loop that fetches, checks the tag, decodes
//! and executes until the process traps.
//!
//! Execution *traps* to the caller on every system call, exit or fault —
//! the hook the N-variant monitor builds on, for a single process as for a
//! group. [`Process::run_until_trap`] runs a slice of up to `max_steps`
//! instructions; [`Process::step`] is a slice of one. Both are the same
//! loop, which implements every opcode, and every trap, exactly once; the
//! fused runs below repeat only the paths on which their instructions
//! complete.
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
//!
//! # Fused runs
//!
//! The predecoded stream marks each slot that starts one of three runs of
//! adjacent instructions: the byte load `a[i]`
//! (`LoadL; LoadL; Add; LoadB`), the increment `i = i + 1`
//! (`LoadL; Push; Add; StoreL`) and the loop test `x != c`
//! (`Push; Ne; Jz`). The string routines run natively (below), so the runs
//! serve the httpd's own loops: one pass of the 200-cell security matrix
//! meets 662,332 byte loads, 444,792 increments and 718,076 loop tests in
//! 7,962,365 dispatches. The two-word test `Ne; Jz` is not a run, because
//! that pass meets it nowhere outside the native routines. The loop
//! executes a marked run in one dispatch, all or nothing. It tries the run
//! only when the budget left covers every instruction in it and the image
//! needs no per-slot tag check. The run then does every read first, through
//! the accessors the single instructions use, checks that the operand stack
//! holds what it pops, and writes only through one writable span. If a read
//! would fault, the stack is too shallow or the store would take the
//! byte-at-a-time path, it gives up having touched nothing, and the loop
//! executes the run's first slot as an ordinary instruction. A completed
//! run adds its length to `instructions_executed` and moves pc to its end
//! or its jump target.
//!
//! So every trap, fault pc, budget boundary, operand stack and instruction
//! count is the one single steps produce, and the opcode `match` stays the
//! only implementation of every trap. [`Process::step`] never fuses, since
//! its budget of one is shorter than any run: it is the reference the trap
//! tests compare fused execution against. Every slot keeps its own op and
//! operand, so a jump into the middle of a run executes the rest of it one
//! instruction at a time.
//!
//! # Native calls
//!
//! Five standard-library string routines, `strlen`, `starts_with`,
//! `strcpy`, `strcmp` and `strcat`, execute most of the instructions a
//! served request costs. The predecoder marks a `Call` whose target is,
//! slot for slot, one of their bodies as the compiler emits it (and, for
//! `strcat`, whose inner `Call` targets `strlen`'s), whatever the
//! functions are named. The loop runs such a call natively, in one
//! dispatch and whole or not at all, under the fused runs' conditions (an
//! aligned in-stream fetch, no per-slot tag check) and these, all checked
//! before anything is written:
//!
//! - the layout's segments are disjoint, and the operand stack holds the
//!   routine's arguments;
//! - the callee frame (return address, saved fp and the `Enter` size; for
//!   `strcat` also `strlen`'s nested 16 bytes) is one writable span of the
//!   stored stack, at or above the stack base, directly below `sp`;
//! - every string the routine reads ends in the stored bytes of the
//!   segment it starts in, and no byte it reads or writes lies in the
//!   callee frames;
//! - a copy's destination, NUL included, is one writable span that does
//!   not overlap its source;
//! - the budget left covers the call's whole instruction count.
//!
//! A native call then leaves what the bytecode leaves: the arguments
//! popped and the result pushed, the frames' return addresses, saved fps,
//! parameter copies and final locals (the `Enter` padding word untouched),
//! the copied bytes, pc at the return address with sp and fp unchanged,
//! and `instructions_executed` grown by the bytecode's exact count. Stack
//! residue is observable, by a later uninitialised local and by the state
//! digest, so those bytes are exact. If any condition fails it gives up
//! having touched nothing, and the `Call` executes as an ordinary
//! instruction: every fault then comes from the single-instruction code,
//! at the byte and the instruction the bytecode reaches. The shortest
//! call, `strlen("")`, is 14 instructions, so [`Process::step`] never runs
//! one natively and stays the reference here too. A `CallPtr`, an image
//! that did not predecode and code fetched byte by byte are never marked.

use crate::bytecode::{Fused, Instr, Op, Routine, Slot, INSTR_SIZE};
use crate::fault::Fault;
use crate::process::{Process, ProcessState};
use nvariant_simos::{SyscallRequest, Sysno};
use nvariant_types::{VirtAddr, Word};

/// Why the interpreter stopped: the trap [`Process::run_until_trap`]
/// returns, and the one [`Process::step`] returns unless the instruction
/// simply completed.
#[derive(Clone, Debug, PartialEq, Eq)]
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

    fn interpret(&mut self, stream: &[Slot], budget: u64) -> Option<TrapReason> {
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
        let mut left = budget;
        while left > 0 {
            // Fetch: an aligned pc inside the stream indexes it directly
            // (the stream spans exactly the image, see `with_image`).
            let off = self.pc.wrapping_sub(self.layout.code_base);
            let index = (off / INSTR_SIZE) as usize;
            let instr = match stream.get(index) {
                Some(&slot) if off.is_multiple_of(INSTR_SIZE) => {
                    if check_tags {
                        let found = self.code[off as usize];
                        if found != self.expected_tag {
                            return Some(self.fault(self.tag_mismatch(found)));
                        }
                    } else if slot.fused != Fused::Single && left >= slot.fused.instructions() {
                        let done = self.run_fused(slot.fused, &stream[index..], left);
                        if done > 0 {
                            left -= done;
                            continue;
                        }
                    }
                    slot
                }
                _ => Slot::from(try_fault!(self.fetch_bytes())),
            };
            left -= 1;
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

    /// Executes what `kind` marks at `run[0]` as one step and returns the
    /// instructions it executed, at most `left`, or returns 0 having
    /// touched nothing. A run reads everything first, through the
    /// accessors the single instructions use, and gives up if a read would
    /// fault, the operand stack is too shallow for the run, or its store
    /// would take the byte-at-a-time path; a call gives up as
    /// [`Process::call_native`] says. The caller then executes `run[0]`
    /// alone, so every trap comes from the single-instruction code.
    #[inline]
    fn run_fused(&mut self, kind: Fused, run: &[Slot], left: u64) -> u64 {
        let fp = self.fp;
        let local = |slot: Slot| VirtAddr::new(fp.wrapping_sub(slot.operand));
        let jump = match kind {
            Fused::Single => return 0,
            Fused::Call(routine) => return self.call_native(routine, run[0].operand, left),
            Fused::IndexByte => {
                let Ok(base) = self.read_word(local(run[0])) else {
                    return 0;
                };
                let Ok(index) = self.read_word(local(run[1])) else {
                    return 0;
                };
                let addr = base.as_u32().wrapping_add(index.as_u32());
                let Ok(byte) = self.read_byte(VirtAddr::new(addr)) else {
                    return 0;
                };
                self.ostack.push(Word::from_u32(u32::from(byte)));
                None
            }
            Fused::AddImmLocal => {
                let Ok(value) = self.read_word(local(run[0])) else {
                    return 0;
                };
                let sum = Word::from_u32(value.as_u32().wrapping_add(run[1].operand));
                let Some(span) = self.write_span(local(run[3]), 4) else {
                    return 0;
                };
                span.copy_from_slice(&sum.to_le_bytes());
                None
            }
            Fused::BranchIfImm => {
                let Some(value) = self.ostack.pop() else {
                    return 0;
                };
                (value == Word::from_u32(run[0].operand)).then_some(run[2].operand)
            }
        };
        let count = kind.instructions();
        self.instructions_executed += count;
        self.pc = match jump {
            Some(target) => self.layout.code_base.wrapping_add(target),
            None => self.pc.wrapping_add(count as u32 * INSTR_SIZE),
        };
        count
    }

    /// Runs the call at pc to `routine`, whose body starts at code offset
    /// `target`, natively (see the module docs): returns its instruction
    /// count, or 0 having touched nothing.
    #[inline(never)]
    fn call_native(&mut self, routine: Routine, target: u32, left: u64) -> u64 {
        let done = self
            .plan_call(routine, target)
            .map_or(0, |plan| self.commit_call(&plan, left));
        #[cfg(test)]
        tally::note(routine, done > 0);
        done
    }

    /// Scans what `routine` reads, without writing, and plans what its
    /// call leaves; `None` when a string it reads does not end in the
    /// stored bytes of its segment, or the operand stack is too shallow.
    fn plan_call(&self, routine: Routine, target: u32) -> Option<CallPlan> {
        let args = if routine == Routine::Strlen { 1 } else { 2 };
        // The first and the last argument: one and the same for `strlen`.
        let words = &self.ostack[self.ostack.len().checked_sub(args)?..];
        let (x, y) = (words[0].as_u32(), words[args - 1].as_u32());
        let ret = self.pc.wrapping_add(INSTR_SIZE);
        let fp = self.fp;
        let mut plan = CallPlan {
            args,
            frame: [None; MAX_FRAME_WORDS],
            words: 6,
            reads: [(0, 0); 2],
            copy: None,
            count: 0,
            result: 0,
        };
        match routine {
            Routine::Strlen => {
                let n = self.string_length(y)?;
                plan.words = 4;
                plan.frame[..4].copy_from_slice(&[Some(n), Some(y), Some(ret), Some(fp)]);
                plan.reads[0] = (y, n + 1);
                plan.count = 14 + 12 * u64::from(n);
                plan.result = n;
            }
            Routine::StartsWith => {
                let (s, prefix) = (self.stored_from(x), self.stored_from(y));
                let mut k = 0;
                let matched = loop {
                    let &p = prefix.get(k)?;
                    if p == 0 {
                        break true;
                    }
                    if *s.get(k)? != p {
                        break false;
                    }
                    k += 1;
                };
                let k = k as u32;
                plan.frame = padded_frame([k, y, x, ret, fp]);
                plan.reads = [(x, k + u32::from(!matched)), (y, k + 1)];
                plan.count = if matched { 15 } else { 25 } + 22 * u64::from(k);
                plan.result = u32::from(matched);
            }
            Routine::Strcpy => {
                let n = self.string_length(y)?;
                plan.frame = padded_frame([n, y, x, ret, fp]);
                plan.reads[0] = (y, n + 1);
                plan.copy = Some((x, y, n + 1));
                plan.count = 20 + 20 * u64::from(n);
                plan.result = n;
            }
            Routine::Strcmp => {
                let (a, b) = (self.stored_from(x), self.stored_from(y));
                let mut k = 0;
                let (p, q) = loop {
                    let (&p, &q) = (a.get(k)?, b.get(k)?);
                    if p == 0 || q == 0 || p != q {
                        break (p, q);
                    }
                    k += 1;
                };
                let k = k as u32;
                let stop = match (p, q) {
                    (0, _) => 19,
                    (_, 0) => 26,
                    _ => 37,
                };
                plan.frame = padded_frame([k, y, x, ret, fp]);
                plan.reads = [(x, k + 1), (y, k + 1)];
                plan.count = 6 + 32 * u64::from(k) + stop;
                plan.result = u32::from(p).wrapping_sub(u32::from(q));
            }
            Routine::Strcat => {
                let len = self.string_length(x)?;
                let n = self.string_length(y)?;
                // `strlen`'s nested frame, then `strcat`'s own. `strlen`
                // returns to the slot after the template's `Call`.
                let call = Routine::Strcat
                    .template()
                    .iter()
                    .position(|&(op, _)| op == Op::Call)?;
                let nested_ret = self
                    .layout
                    .code_base
                    .wrapping_add(target)
                    .wrapping_add((call as u32 + 1) * INSTR_SIZE);
                let callee_fp = self.sp.wrapping_sub(8);
                let words = [len, x, nested_ret, callee_fp, n, len, y, x, ret, fp];
                plan.words = MAX_FRAME_WORDS;
                plan.frame = words.map(Some);
                plan.reads = [(x, len + 1), (y, n + 1)];
                plan.copy = Some((x.wrapping_add(len), y, n + 1));
                plan.count = 40 + 12 * u64::from(len) + 22 * u64::from(n);
                plan.result = len.wrapping_add(n);
            }
        }
        Some(plan)
    }

    /// The length of the string at `addr`, when its NUL lies in the stored
    /// bytes of the segment `addr` is in.
    fn string_length(&self, addr: u32) -> Option<u32> {
        let nul = self.stored_from(addr).iter().position(|&byte| byte == 0)?;
        Some(nul as u32)
    }

    /// Checks every condition of a native call against `plan`, then
    /// writes what it leaves: returns its instruction count, or 0 having
    /// touched nothing.
    fn commit_call(&mut self, plan: &CallPlan, left: u64) -> u64 {
        let size = plan.words as u32 * 4;
        let Some(low) = self.sp.checked_sub(size) else {
            return 0;
        };
        let frame = (low, size);
        // Only frames in the stored stack are pushed without a fault or a
        // growth: with `sp` in the globals, say after a `Ret` through a
        // forged saved fp, the `Call` overflows the stack instead.
        if low < self.stack_stored_base() || self.sp > self.layout.stack_top {
            return 0;
        }
        if plan.count > left || plan.reads.iter().any(|&read| overlaps(read, frame)) {
            return 0;
        }
        if let Some((dst, src, len)) = plan.copy {
            if overlaps((dst, len), frame)
                || overlaps((dst, len), (src, len))
                || self.write_span(VirtAddr::new(dst), len as usize).is_none()
            {
                return 0;
            }
        }
        // The last check; the writes follow.
        let Some(span) = self.write_span(VirtAddr::new(low), size as usize) else {
            return 0;
        };
        for (word, bytes) in plan.frame.iter().zip(span.chunks_exact_mut(4)) {
            if let Some(word) = word {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
        }
        if let Some((dst, src, len)) = plan.copy {
            self.copy_stored(dst, src, len as usize);
        }
        self.ostack.truncate(self.ostack.len() - plan.args);
        self.ostack.push(Word::from_u32(plan.result));
        self.pc = self.pc.wrapping_add(INSTR_SIZE);
        self.instructions_executed += plan.count;
        plan.count
    }

    /// Copies `len` stored bytes from `src` to the writable span at `dst`,
    /// which [`Process::commit_call`] has checked, through a buffer on the
    /// machine stack.
    fn copy_stored(&mut self, dst: u32, src: u32, len: usize) {
        let mut chunk = [0u8; 64];
        let mut done = 0;
        while done < len {
            let n = (len - done).min(chunk.len());
            let at = done as u32;
            chunk[..n].copy_from_slice(&self.stored_from(src.wrapping_add(at))[..n]);
            if let Some(span) = self.write_span(VirtAddr::new(dst.wrapping_add(at)), n) {
                span.copy_from_slice(&chunk[..n]);
            }
            done += n;
        }
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

/// The most frame words a native call writes: `strcat`'s ten.
const MAX_FRAME_WORDS: usize = 10;

/// What a native call reads and leaves, planned before anything is
/// written (see the module docs).
struct CallPlan {
    /// The operand words the call pops.
    args: usize,
    /// The callee frames' words, lowest first, the last one just below
    /// `sp`: `None` is `Enter`'s padding word, left as it is.
    frame: [Option<u32>; MAX_FRAME_WORDS],
    /// How many of `frame` the call spans.
    words: usize,
    /// The byte ranges the routine reads, as (address, length).
    reads: [(u32, u32); 2],
    /// A copy: destination, source and length, NUL included.
    copy: Option<(u32, u32, u32)>,
    /// The instructions the call executes, the `Call` included.
    count: u64,
    result: u32,
}

/// The frame of a two-argument routine with `Enter 16` and one local,
/// lowest word first: the padding word, the local, the second and first
/// parameters, the return address and the saved fp.
fn padded_frame([local, second, first, ret, fp]: [u32; 5]) -> [Option<u32>; MAX_FRAME_WORDS] {
    let mut frame = [None; MAX_FRAME_WORDS];
    frame[1..6].copy_from_slice(&[Some(local), Some(second), Some(first), Some(ret), Some(fp)]);
    frame
}

/// Whether two byte ranges, each (address, length), share a byte.
fn overlaps((a, a_len): (u32, u32), (b, b_len): (u32, u32)) -> bool {
    let (a, b) = (u64::from(a), u64::from(b));
    a < b + u64::from(b_len) && b < a + u64::from(a_len)
}

/// Native runs and give-ups of each string routine on this thread, so a
/// test can tell which path a call took.
#[cfg(test)]
pub(crate) mod tally {
    use crate::bytecode::Routine;
    use std::cell::Cell;

    thread_local! {
        static COUNTS: Cell<[[u64; 2]; 5]> = const { Cell::new([[0; 2]; 5]) };
    }

    pub(crate) fn note(routine: Routine, native: bool) {
        COUNTS.with(|counts| {
            let mut all = counts.get();
            all[routine as usize][usize::from(native)] += 1;
            counts.set(all);
        });
    }

    /// Takes this thread's (give-ups, native runs) of every routine, in
    /// [`Routine::ALL`] order, and starts again from zero.
    pub(crate) fn take() -> [[u64; 2]; 5] {
        COUNTS.with(|counts| counts.replace([[0; 2]; 5]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_program, CompiledProgram};
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

    /// The C string routines of the standard library, on fixed strings and
    /// an empty one: the code whose loops the interpreter fuses.
    const STRING_ROUTINES: &str = r#"
        var dst: buf[64];
        var copy: buf[32];
        fn main() -> int {
            var total: int = strlen("GET /index.html HTTP/1.0") + strlen("");
            total = total + strcmp("alpha", "alpha") + strcmp("alpha", "alpine");
            total = total + strcmp("", "x");
            total = total + strncmp("content-length", "content-type", 8);
            total = total + strncmp("abc", "abd", 3);
            total = total + starts_with("GET /", "GET ") + starts_with("GE", "GET ");
            strcpy(&dst, "/cgi-bin/");
            strcat(&dst, "status");
            strcat(&dst, "");
            total = total + strlen(&dst);
            memcpy(&copy, &dst, 16);
            total = total + strcmp(&copy, &dst);
            return total + atoi("-1234") + atoi("987") + atoi("");
        }
    "#;

    /// Scans that run off the last byte of the globals: `tail` is the only
    /// global and no string literal follows it.
    const RUNAWAY_SCANS: [&str; 2] = [
        r"
        var tail: buf[8];
        fn main() -> int {
            var i: int = 0;
            while (i < 8) { tail[i] = 'x'; i = i + 1; }
            return strlen(&tail);
        }
        ",
        r"
        var tail: buf[8];
        fn main() -> int {
            var local: buf[32];
            memset(&tail, 'y', 8);
            return strcpy(&local, &tail);
        }
        ",
    ];

    fn stdlib_process(src: &str) -> (CompiledProgram, Process) {
        let compiled = compile_program(&crate::parse_with_stdlib(src).unwrap()).unwrap();
        let process = Process::new(&compiled, MemoryLayout::default());
        (compiled, process)
    }

    /// What a slice leaves behind: the trap and the process' registers,
    /// instruction count and state digest.
    fn observe(p: &Process, trap: Option<&TrapReason>) -> String {
        let mut digest = nvariant_types::Fnv1a::new();
        p.digest_into(&mut digest);
        format!(
            "{trap:?} pc={:x} sp={:x} fp={:x} n={} d={:x}",
            p.pc,
            p.sp,
            p.fp,
            p.instructions_executed,
            digest.finish()
        )
    }

    /// Runs `process` in slices of `budget` instructions until it traps
    /// for good, checking every slice against the same slice executed
    /// one `step()` at a time — which never fuses, its budget being
    /// shorter than any run. Returns the final trap.
    fn slices_match_steps(mut process: Process, budget: u64) -> TrapReason {
        loop {
            let mut stepped = process.clone();
            let trap = process.run_steps(budget);
            let stepped_trap = (0..budget).find_map(|_| stepped.step());
            assert_eq!(
                observe(&process, trap.as_ref()),
                observe(&stepped, stepped_trap.as_ref()),
                "budget {budget}"
            );
            if let Some(trap) = trap {
                return trap;
            }
        }
    }

    /// The longest call [`STRING_ROUTINES`] makes to a natively run
    /// routine: `strcmp(&copy, &dst)` on two equal 15-byte strings, 6 +
    /// 32 × 15 + 19 instructions.
    const LONGEST_CALL: u64 = 505;

    #[test]
    fn fused_string_routines_match_single_steps_at_every_budget() {
        let full = 1_000_000;
        let (_, process) = stdlib_process(STRING_ROUTINES);
        tally::take();
        for budget in (1..=LONGEST_CALL + 1).chain([full]) {
            match slices_match_steps(process.clone(), budget) {
                TrapReason::Syscall(req) if req.sysno == Sysno::Exit => {
                    assert_eq!(req.arg(0).as_i32(), -329);
                }
                other => panic!("expected exit, got {other:?}"),
            }
        }
        // Every slice long enough for a call ran it natively.
        for ([_, native], routine) in tally::take().into_iter().zip(Routine::ALL) {
            assert!(native > 0, "{routine:?} never ran natively");
        }
        for src in RUNAWAY_SCANS {
            let (compiled, process) = stdlib_process(src);
            let end = process.layout().globals_base + compiled.globals_image.len() as u32;
            for budget in (1..=LONGEST_CALL + 1).chain([full]) {
                assert_eq!(
                    slices_match_steps(process.clone(), budget),
                    TrapReason::Faulted(Fault::Segfault {
                        addr: VirtAddr::new(end)
                    })
                );
            }
        }
    }

    /// Runs `src` to its first trap in slices of every budget up to 64,
    /// each checked against single steps, then once with the whole budget:
    /// returns that run's trap and process, and the (give-ups, native
    /// runs) of each routine it called.
    fn run_counted(src: &str) -> (TrapReason, Process, [[u64; 2]; 5]) {
        let (_, process) = stdlib_process(src);
        for budget in 1..=64 {
            slices_match_steps(process.clone(), budget);
        }
        let mut run = process.clone();
        tally::take();
        let trap = run.run_until_trap(1_000_000);
        let counts = tally::take();
        let stepped = slices_match_steps(process, 1_000_000);
        assert_eq!(trap, stepped);
        (trap, run, counts)
    }

    #[test]
    fn string_routine_calls_run_natively() {
        let (trap, _, counts) = run_counted(STRING_ROUTINES);
        assert!(matches!(trap, TrapReason::Syscall(req) if req.arg(0).as_i32() == -329));
        for ([give_ups, native], routine) in counts.into_iter().zip(Routine::ALL) {
            assert!(native > 0, "{routine:?} never ran natively");
            assert_eq!(give_ups, 0, "{routine:?} gave up");
        }
    }

    /// One program per condition a native call checks, each calling the
    /// routine once: the call gives up, runs as bytecode and traps where
    /// single steps do. `p` points at `main`'s first local minus an
    /// offset: 20 bytes down is the callee's own `n`, 8,000 is below the
    /// stored stack. `big` leaves `main`'s `sp` 8 bytes above the stack
    /// base, so `strlen`'s frame would end 8 bytes below it. `forge` copies
    /// `middle`'s return address and saved fp into `saved` and points its
    /// own saved fp there, so `middle`'s `Ret` leaves `sp` in the globals,
    /// 40 bytes above their base: `strlen`'s frame would be writable
    /// there, but the bytecode's `Call` overflows the stack.
    #[test]
    fn native_calls_give_up_on_every_condition() {
        let layout = MemoryLayout::default();
        let segfault = |addr: u32| {
            TrapReason::Faulted(Fault::Segfault {
                addr: VirtAddr::new(addr),
            })
        };
        let exit = |status: i32| {
            TrapReason::Syscall(SyscallRequest::new(
                Sysno::Exit,
                vec![Word::from_i32(status)],
            ))
        };
        let cases = [
            (
                "var b: buf[8];
                 fn main() -> int { b[0] = 'a'; b[1] = 'b'; return strcpy(&b + 1, &b); }",
                Routine::Strcpy,
                segfault(layout.globals_base + 8),
            ),
            (
                "var s: buf[8];
                 fn main() -> int { s[0] = 'a'; s[1] = 'b'; return strcat(&s, &s); }",
                Routine::Strcat,
                segfault(layout.globals_base + 8),
            ),
            (
                r#"fn main() -> int { var p: ptr; p = 4096; return strcpy(p, "x"); }"#,
                Routine::Strcpy,
                TrapReason::Faulted(Fault::WriteProtection {
                    addr: VirtAddr::new(layout.code_base),
                }),
            ),
            (
                "var tail: buf[4];
                 fn main() -> int {
                     var local: buf[16];
                     memset(&local, 'z', 8);
                     return strcpy(&tail, &local);
                 }",
                Routine::Strcpy,
                segfault(layout.globals_base + 4),
            ),
            (
                "fn main() -> int { var x: int; var p: ptr; p = &x - 20; return strlen(p); }",
                Routine::Strlen,
                exit(0),
            ),
            (
                "fn main() -> int { var x: int; var p: ptr; p = &x - 8000; return strlen(p); }",
                Routine::Strlen,
                exit(0),
            ),
            (
                r#"fn main() -> int { var big: buf[131048]; var r: int; r = strlen("abc"); return r; }"#,
                Routine::Strlen,
                TrapReason::Faulted(Fault::StackOverflow),
            ),
            (
                r#"var pad: buf[32];
                   var saved: buf[8];
                   fn forge() -> int {
                       var x: int; var caller: ptr; var to: ptr;
                       memcpy(&caller, &x + 8, 4);
                       memcpy(&saved, caller, 8);
                       to = &saved;
                       memcpy(&x + 8, &to, 4);
                       return 0;
                   }
                   fn middle() -> int { forge(); return 0; }
                   fn main() -> int { middle(); return strlen("abc"); }"#,
                Routine::Strlen,
                TrapReason::Faulted(Fault::StackOverflow),
            ),
        ];
        for (src, routine, want) in cases {
            let (trap, process, counts) = run_counted(src);
            assert_eq!(trap, want, "{src}");
            let [give_ups, native] = counts[routine as usize];
            assert_eq!(native, 0, "{src}");
            assert!(give_ups > 0, "{src}");
            if src.contains("tail") {
                // The bytes before the end of the globals were written.
                let tail = process.read_bytes(VirtAddr::new(layout.globals_base), 4);
                assert_eq!(tail.unwrap(), b"zzzz");
            }
        }
    }

    /// Under a layout whose globals lie inside the stack segment, every
    /// call gives up: a string could run on from one segment into the
    /// other, where a scan of one segment's bytes would not follow it.
    #[test]
    fn native_calls_give_up_when_segments_overlap() {
        let (compiled, _) = stdlib_process(STRING_ROUTINES);
        let mut layout = MemoryLayout::default();
        layout.globals_base = layout.stack_base() + 0x100;
        let process = Process::new(&compiled, layout);
        for budget in (1..=64).chain([1_000_000]) {
            let trap = slices_match_steps(process.clone(), budget);
            assert!(matches!(trap, TrapReason::Syscall(req) if req.arg(0).as_i32() == -329));
        }
        tally::take();
        process.clone().run_until_trap(1_000_000);
        for ([give_ups, native], routine) in tally::take().into_iter().zip(Routine::ALL) {
            assert_eq!(native, 0, "{routine:?}");
            assert!(give_ups > 0, "{routine:?}");
        }
    }

    /// `stdlib_source` compiles each routine to exactly its template.
    #[test]
    fn templates_are_the_compiled_standard_library() {
        let (compiled, _) = stdlib_process("fn main() -> int { return 0; }");
        let instrs = crate::bytecode::decode_all(compiled.code()).unwrap();
        for routine in Routine::ALL {
            let start = compiled.functions[routine.name()];
            let end = compiled
                .functions
                .values()
                .copied()
                .filter(|&offset| offset > start)
                .min()
                .unwrap();
            let body: Vec<(Op, u32)> = instrs
                [(start / INSTR_SIZE) as usize..(end / INSTR_SIZE) as usize]
                .iter()
                .map(|instr| match instr.op {
                    Op::Jmp | Op::Jz | Op::Jnz => (instr.op, instr.operand - start),
                    Op::Call => {
                        assert_eq!(instr.operand, compiled.functions["strlen"]);
                        (Op::Call, 0)
                    }
                    _ => (instr.op, instr.operand),
                })
                .collect();
            assert_eq!(body, routine.template(), "{routine:?}");
        }
    }

    /// The case-study server's SimC source, cut from the `nvariant_apps`
    /// file that holds it.
    fn httpd_source() -> &'static str {
        let file = include_str!("../../apps/src/httpd.rs");
        let start = file.find("r#\"").unwrap() + 3;
        let end = start + file[start..].find("\"#").unwrap();
        &file[start..end]
    }

    #[test]
    fn every_httpd_call_to_a_string_routine_is_marked() {
        let (compiled, _) = stdlib_process(httpd_source());
        let mut marked = [0; 5];
        for slot in compiled.stream().unwrap().iter() {
            let callee = Routine::ALL
                .into_iter()
                .find(|routine| compiled.functions[routine.name()] == slot.operand);
            match (slot.op, slot.fused) {
                (Op::Call, Fused::Call(routine)) => {
                    assert_eq!(callee, Some(routine));
                    marked[routine as usize] += 1;
                }
                (Op::Call, _) => assert_eq!(callee, None),
                _ => {}
            }
        }
        // strlen: httpd's four calls, strcat's, write_str's and send_str's.
        assert_eq!(marked, [7, 6, 1, 1, 2]);
    }

    /// The standard library's `strlen` with one operand changed (its
    /// `Add`'s, which nothing reads), and an application's own `strlen`
    /// with another body: neither is marked, nor is `strcat`, whose inner
    /// call no longer targets `strlen`'s body, and both run as bytecode.
    #[test]
    fn lookalike_bodies_stay_unmarked_and_run_as_bytecode() {
        let (compiled, _) = stdlib_process(r#"fn main() -> int { return strlen("abc"); }"#);
        let mut code = compiled.code().to_vec();
        let add = compiled.functions["strlen"] + 6 * INSTR_SIZE;
        assert_eq!(code[add as usize + 1], Op::Add.as_u8());
        code[add as usize + 2] = 1;
        let lookalike = CompiledProgram::new(
            code,
            compiled.globals_image.clone(),
            (*compiled.globals_map).clone(),
            (*compiled.functions).clone(),
            compiled.entry_offset,
            compiled.type_info.clone(),
        );
        let own = r#"
            fn strlen(s: ptr) -> int {
                var n: int = 0;
                while (s[n]) { n = n + 1; }
                return n;
            }
            fn main() -> int { return strlen("abc"); }
        "#;
        let own = compile_program(&parse_program(own).unwrap()).unwrap();
        for program in [lookalike, own] {
            let stream = program.stream().unwrap();
            assert!(stream
                .iter()
                .all(|slot| !matches!(slot.fused, Fused::Call(_))));
            tally::take();
            let mut process = Process::new(&program, MemoryLayout::default());
            assert_eq!(run_to_exit(&mut process), 3);
            assert_eq!(tally::take(), [[0; 2]; 5]);
        }
    }

    #[test]
    fn stdlib_string_loops_are_marked_fused() {
        use Fused::{AddImmLocal, BranchIfImm, IndexByte};
        let (compiled, _) = stdlib_process(STRING_ROUTINES);
        let stream = compiled.stream().unwrap();
        let marks = |function: &str| -> Vec<Fused> {
            let start = compiled.functions[function];
            let end = compiled
                .functions
                .values()
                .copied()
                .filter(|&offset| offset > start)
                .min()
                .unwrap_or(compiled.code().len() as u32);
            stream[(start / INSTR_SIZE) as usize..(end / INSTR_SIZE) as usize]
                .iter()
                .map(|slot| slot.fused)
                .filter(|&fused| fused != Fused::Single)
                .collect()
        };
        // `while (s[n] != 0) { n = n + 1; }`: the byte load, the test and
        // the increment.
        assert_eq!(marks("strlen"), [IndexByte, BranchIfImm, AddImmLocal]);
        let strcmp = marks("strcmp");
        for run in [IndexByte, BranchIfImm, AddImmLocal] {
            assert!(strcmp.contains(&run), "strcmp lost {run:?}: {strcmp:?}");
        }
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
