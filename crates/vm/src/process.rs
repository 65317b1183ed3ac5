//! Variant process images: memory layout, segments, registers and counters.
//!
//! The layout is the classic one the paper's attack classes assume:
//!
//! ```text
//!   high addresses
//!   +--------------------+  stack_top
//!   |  stack (grows ↓)   |  return addresses & saved frame pointers live here
//!   +--------------------+  stack_top - stack_size
//!   |        ...         |
//!   +--------------------+  globals_base + globals.len()
//!   |  globals + rodata  |  declaration order fixes adjacency
//!   +--------------------+  globals_base
//!   |        ...         |
//!   +--------------------+  code_base + code.len()
//!   |   code (tagged)    |  read-only
//!   +--------------------+  code_base
//!   low addresses
//! ```
//!
//! Address-space partitioning is realized by shifting every base by the
//! partition bit (`0x8000_0000`), so the same program runs at disjoint
//! addresses in the two variants.
//!
//! # The stored stack
//!
//! The whole stack segment `[stack_top - stack_size, stack_top)` is mapped,
//! but a process stores only its *used* part: the bytes from the lowest
//! address it has reached up to `stack_top`. Every byte below that is zero,
//! because nothing has written there. The stored part grows down in 4 KiB
//! steps that at least double: at `Enter` when `sp` moves below it, and at
//! any store that lands below it, such as a pushed call frame. It never
//! shrinks. So every read, write and fault is what a fully stored segment
//! would give, while a clone copies only the used part and instantiating a
//! process allocates no stack at all. [`Process::digest_into`] folds the
//! unstored zeros as a count with
//! [`WordFold::write_zeros`](nvariant_types::fnv::WordFold::write_zeros)
//! and so returns the value a fully stored segment would: two processes
//! with equal bytes digest equally however deep each one reached.

use crate::ast::Type;
use crate::bytecode::{Slot, INSTR_SIZE};
use crate::compile::CompiledProgram;
use crate::fault::Fault;
use nvariant_types::fnv::{word_fold, WordFold};
use nvariant_types::{VirtAddr, Word};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Placement of the code, globals and stack segments in the 32-bit virtual
/// address space of one variant.
///
/// # Example
///
/// ```
/// use nvariant_vm::MemoryLayout;
///
/// let base = MemoryLayout::default();
/// let partitioned = base.with_partition_bit();
/// assert_eq!(partitioned.code_base, base.code_base | 0x8000_0000);
/// assert_eq!(partitioned.stack_top, base.stack_top | 0x8000_0000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemoryLayout {
    /// Base address of the (read-only) code segment.
    pub code_base: u32,
    /// Base address of the globals + rodata segment.
    pub globals_base: u32,
    /// Address one past the top of the stack (the stack grows downward from
    /// here).
    pub stack_top: u32,
    /// Size of the stack segment in bytes.
    pub stack_size: u32,
}

impl Default for MemoryLayout {
    fn default() -> Self {
        MemoryLayout {
            code_base: 0x0000_1000,
            globals_base: 0x0010_0000,
            stack_top: 0x0080_0000,
            stack_size: 0x0002_0000,
        }
    }
}

impl MemoryLayout {
    /// Returns the layout shifted into the upper half of the address space
    /// (the `R1(a) = a + 0x80000000` reexpression of Table 1).
    #[must_use]
    pub fn with_partition_bit(self) -> Self {
        MemoryLayout {
            code_base: self.code_base | 0x8000_0000,
            globals_base: self.globals_base | 0x8000_0000,
            stack_top: self.stack_top | 0x8000_0000,
            stack_size: self.stack_size,
        }
    }

    /// Returns the layout shifted by an additional byte offset, as in the
    /// *extended* address-space partitioning of Bruschi et al. (Table 1).
    #[must_use]
    pub fn with_offset(self, offset: u32) -> Self {
        MemoryLayout {
            code_base: self.code_base.wrapping_add(offset),
            globals_base: self.globals_base.wrapping_add(offset),
            stack_top: self.stack_top.wrapping_add(offset),
            stack_size: self.stack_size,
        }
    }

    /// Lowest stack address.
    #[must_use]
    pub fn stack_base(&self) -> u32 {
        self.stack_top - self.stack_size
    }
}

/// Execution state of a variant process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessState {
    /// The process is runnable.
    Running,
    /// The process exited with the given status.
    Exited(i32),
    /// The process was terminated by a fault.
    Faulted(Fault),
}

/// A variant process: one compiled program instantiated at one memory layout
/// with one instruction tag.
///
/// # Example
///
/// ```
/// use nvariant_vm::{compile_program, parse_program, MemoryLayout, Process};
///
/// let program = parse_program("var x: int = 7; fn main() -> int { return x; }")?;
/// let compiled = compile_program(&program)?;
/// let process = Process::new(&compiled, MemoryLayout::default());
/// let addr = process.global_addr("x").unwrap();
/// assert_eq!(process.read_word(addr).unwrap().as_i32(), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Process {
    pub(crate) layout: MemoryLayout,
    /// The (possibly retagged) code image, shared with the compiled program
    /// and every sibling process at the same tag — code is write-protected,
    /// so one reference-counted image serves them all.
    pub(crate) code: Arc<[u8]>,
    /// Predecoded view of `code`, fused runs marked: slot `i` covers bytes
    /// `i * INSTR_SIZE ..`. Opcode and operand are tag-independent, so the
    /// program's one stream serves every retagged image. `None` (an image
    /// that did not predecode, or one whose length is not the stream's)
    /// falls back to byte decoding.
    pub(crate) instrs: Option<Arc<[Slot]>>,
    /// The tag every instruction slot of `code` carries, when they all
    /// carry one. The code segment is write-protected, so this never goes
    /// stale: the fetch stage reads live tag bytes only when it differs
    /// from `expected_tag`.
    pub(crate) image_tag: Option<u8>,
    /// Whether no two segments overlap (as in every layout the paper's
    /// variations build), so an address in the stack or the globals can be
    /// placed without the full segment lookup.
    disjoint: bool,
    pub(crate) globals: Vec<u8>,
    /// The stored part of the stack segment: the bytes of
    /// `[stack_top - stack.len(), stack_top)`. Every byte of the segment
    /// below it is zero (see the module docs).
    stack: Vec<u8>,
    pub(crate) pc: u32,
    pub(crate) sp: u32,
    pub(crate) fp: u32,
    pub(crate) ostack: Vec<Word>,
    pub(crate) state: ProcessState,
    pub(crate) expected_tag: u8,
    pub(crate) instructions_executed: u64,
    pub(crate) syscalls_made: u64,
    /// The program's symbol tables, shared with it and with every clone.
    symbols: Arc<BTreeMap<String, (u32, Type)>>,
    functions: Arc<BTreeMap<String, u32>>,
}

/// The step the stored part of a stack grows by, at the least.
const STACK_STEP: usize = 4096;

impl Process {
    /// Instantiates a process from a compiled program with instruction tag 0.
    #[must_use]
    pub fn new(compiled: &CompiledProgram, layout: MemoryLayout) -> Self {
        Self::with_tag(compiled, layout, 0)
    }

    /// Instantiates a process whose code image is stamped with `tag` and
    /// whose fetch stage requires that tag (instruction-set tagging).
    ///
    /// Retags the image on every call for tags other than 0; batch
    /// instantiators (the campaign engine) retag once via
    /// [`CompiledProgram::retagged_image`] and use [`Process::with_image`].
    #[must_use]
    pub fn with_tag(compiled: &CompiledProgram, layout: MemoryLayout, tag: u8) -> Self {
        Self::with_image(compiled, layout, tag, compiled.retagged_image(tag))
    }

    /// Instantiates a process around an already-retagged shared code image
    /// (obtained from [`CompiledProgram::retagged_image`] with the same
    /// `tag`), so instantiating many sibling processes copies no code.
    #[must_use]
    pub fn with_image(
        compiled: &CompiledProgram,
        layout: MemoryLayout,
        tag: u8,
        image: Arc<[u8]>,
    ) -> Self {
        let instrs = compiled
            .stream()
            .filter(|stream| stream.len() * INSTR_SIZE as usize == image.len());
        let image_tag = compiled.image_tag(&image);
        let globals = compiled.globals_image.clone();
        let disjoint = segments_disjoint(layout, image.len(), globals.len());
        Process {
            layout,
            code: image,
            instrs,
            image_tag,
            disjoint,
            globals,
            stack: Vec::new(),
            pc: layout.code_base + compiled.entry_offset,
            sp: layout.stack_top,
            fp: layout.stack_top,
            ostack: Vec::new(),
            state: ProcessState::Running,
            expected_tag: tag,
            instructions_executed: 0,
            syscalls_made: 0,
            symbols: Arc::clone(&compiled.globals_map),
            functions: Arc::clone(&compiled.functions),
        }
    }

    /// The memory layout this process runs at.
    #[must_use]
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Current execution state.
    #[must_use]
    pub fn state(&self) -> ProcessState {
        self.state
    }

    /// The current program counter.
    #[must_use]
    pub fn pc(&self) -> VirtAddr {
        VirtAddr::new(self.pc)
    }

    /// The current stack pointer.
    #[must_use]
    pub fn sp(&self) -> VirtAddr {
        VirtAddr::new(self.sp)
    }

    /// The current frame pointer.
    #[must_use]
    pub fn fp(&self) -> VirtAddr {
        VirtAddr::new(self.fp)
    }

    /// The instruction tag this process' fetch stage requires.
    #[must_use]
    pub fn expected_tag(&self) -> u8 {
        self.expected_tag
    }

    /// Number of bytecode instructions executed so far.
    #[must_use]
    pub fn instructions_executed(&self) -> u64 {
        self.instructions_executed
    }

    /// Number of system calls issued so far.
    #[must_use]
    pub fn syscalls_made(&self) -> u64 {
        self.syscalls_made
    }

    /// Marks the process as exited (used by the kernel's `exit` handling).
    pub fn set_exited(&mut self, status: i32) {
        self.state = ProcessState::Exited(status);
    }

    /// Marks the process as faulted (used by the monitor when it terminates a
    /// divergent variant).
    pub fn set_faulted(&mut self, fault: Fault) {
        self.state = ProcessState::Faulted(fault);
    }

    /// The virtual address of a named global variable, if it exists.
    #[must_use]
    pub fn global_addr(&self, name: &str) -> Option<VirtAddr> {
        self.symbols
            .get(name)
            .map(|(offset, _)| VirtAddr::new(self.layout.globals_base + offset))
    }

    /// The virtual address of a named function's first instruction.
    #[must_use]
    pub fn function_addr(&self, name: &str) -> Option<VirtAddr> {
        self.functions
            .get(name)
            .map(|offset| VirtAddr::new(self.layout.code_base + offset))
    }

    /// Pushes a value onto the operand stack (used to deliver system-call
    /// results).
    pub fn complete_syscall(&mut self, value: Word) {
        self.ostack.push(value);
    }

    /// Folds the process' mutable execution state — registers, operand
    /// stack, globals and stack images, execution state and instruction tag
    /// — into `digest`.
    ///
    /// Deliberately excluded: the code image (write-protected, fixed at
    /// construction and implied by the tag), the symbol tables (immutable),
    /// and the `instructions_executed` / `syscalls_made` counters (monotone
    /// bookkeeping whose inclusion would make every state look new and
    /// defeat the model checker's visited-state pruning).
    ///
    /// The globals and the whole stack segment each fold through the word
    /// fold ([`nvariant_types::fnv`]) into one `u64`. The stack folds as
    /// the whole segment: the unstored zeros as a count, in O(1), then the
    /// stored bytes, in which an all-zero 64-byte block costs one test. So
    /// the digest costs what the process used, and is the same however
    /// deep the stored part reaches.
    pub fn digest_into(&self, digest: &mut nvariant_types::Fnv1a) {
        digest.write_u32(self.pc);
        digest.write_u32(self.sp);
        digest.write_u32(self.fp);
        digest.write_u8(self.expected_tag);
        // The state folds as its `Debug` rendering, rendered only when the
        // process has stopped.
        match self.state {
            ProcessState::Running => digest.write_str("Running"),
            state => digest.write_str(&format!("{state:?}")),
        }
        digest.write_usize(self.ostack.len());
        for word in &self.ostack {
            digest.write_u32(word.as_u32());
        }
        digest.write_u64(word_fold(&self.globals));
        let mut stack = WordFold::new();
        stack.write_zeros(self.layout.stack_size as usize - self.stack.len());
        stack.write(&self.stack);
        digest.write_u64(stack.finish());
    }

    // ----- memory access ------------------------------------------------------

    /// The lowest stack address the stored part holds.
    #[inline]
    pub(crate) fn stack_stored_base(&self) -> u32 {
        self.layout.stack_top - self.stack.len() as u32
    }

    /// Grows the stored part of the stack down to `addr`, which must lie in
    /// the segment below it: to a multiple of [`STACK_STEP`] that at least
    /// doubles it, within the segment. Out of line, since the interpreter
    /// calls it only when `sp` or a store first goes deeper.
    #[cold]
    #[inline(never)]
    pub(crate) fn grow_stack(&mut self, addr: u32) {
        let reach = (self.layout.stack_top - addr) as usize;
        let len = reach
            .next_multiple_of(STACK_STEP)
            .max(2 * self.stack.len())
            .min(self.layout.stack_size as usize);
        let mut grown = vec![0; len];
        grown[len - self.stack.len()..].copy_from_slice(&self.stack);
        self.stack = grown;
    }

    fn bytes_of(&self, segment: Segment) -> &[u8] {
        match segment {
            Segment::Code => &self.code,
            Segment::Globals => &self.globals,
            Segment::Stack => &self.stack,
        }
    }

    /// The segment whose stored bytes hold `addr`, and its offset there;
    /// `None` for an unmapped address and for the unstored part of the
    /// stack, which the byte-level accessors tell apart. With disjoint
    /// segments the stored stack and then the globals are tried first,
    /// against their bounds alone — behind nearly every load and store.
    #[inline]
    fn segment_for(&self, addr: u32) -> Option<(Segment, usize)> {
        if self.disjoint {
            let off = addr.wrapping_sub(self.stack_stored_base()) as usize;
            if off < self.stack.len() {
                return Some((Segment::Stack, off));
            }
            let off = addr.wrapping_sub(self.layout.globals_base) as usize;
            if off < self.globals.len() {
                return Some((Segment::Globals, off));
            }
        }
        let code_end = self.layout.code_base + self.code.len() as u32;
        let globals_end = self.layout.globals_base + self.globals.len() as u32;
        let stored_base = self.stack_stored_base();
        if addr >= self.layout.code_base && addr < code_end {
            Some((Segment::Code, (addr - self.layout.code_base) as usize))
        } else if addr >= self.layout.globals_base && addr < globals_end {
            Some((Segment::Globals, (addr - self.layout.globals_base) as usize))
        } else if addr >= stored_base && addr < self.layout.stack_top {
            Some((Segment::Stack, (addr - stored_base) as usize))
        } else {
            None
        }
    }

    /// Reads one byte of process memory.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] if the address is unmapped.
    #[inline]
    pub fn read_byte(&self, addr: VirtAddr) -> Result<u8, Fault> {
        match self.segment_for(addr.as_u32()) {
            Some((segment, off)) => Ok(self.bytes_of(segment)[off]),
            None => self.read_unstored(addr),
        }
    }

    /// The stored bytes from `addr` to the end of the segment that holds
    /// it. Empty where no segment stores `addr`, and everywhere when the
    /// layout's segments are not disjoint, where bytes run on into the
    /// next segment. The interpreter's native string calls scan and copy
    /// through it.
    pub(crate) fn stored_from(&self, addr: u32) -> &[u8] {
        match self.segment_for(addr) {
            Some((segment, off)) if self.disjoint => &self.bytes_of(segment)[off..],
            _ => &[],
        }
    }

    /// Whether `addr` lies in the stack segment below its stored part.
    fn is_unstored(&self, addr: VirtAddr) -> bool {
        let addr = addr.as_u32();
        addr >= self.layout.stack_base() && addr < self.stack_stored_base()
    }

    /// [`Process::read_byte`] where no segment stores `addr`: zero in the
    /// unstored part of the stack, a fault anywhere else. Out of line, so
    /// the interpreter's inlined byte loads stay as small as they were.
    #[cold]
    fn read_unstored(&self, addr: VirtAddr) -> Result<u8, Fault> {
        if self.is_unstored(addr) {
            Ok(0)
        } else {
            Err(Fault::Segfault { addr })
        }
    }

    /// [`Process::write_byte`] where no segment stores `addr`: the store
    /// grows the stored part of the stack down to it, and faults anywhere
    /// else.
    #[cold]
    fn write_unstored(&mut self, addr: VirtAddr, value: u8) -> Result<(), Fault> {
        if self.is_unstored(addr) {
            self.grow_stack(addr.as_u32());
            self.write_byte(addr, value)
        } else {
            Err(Fault::Segfault { addr })
        }
    }

    /// Writes one byte of process memory.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] for unmapped addresses and
    /// [`Fault::WriteProtection`] for the read-only code segment.
    pub fn write_byte(&mut self, addr: VirtAddr, value: u8) -> Result<(), Fault> {
        match self.segment_for(addr.as_u32()) {
            Some((Segment::Code, _)) => Err(Fault::WriteProtection { addr }),
            Some((Segment::Globals, off)) => {
                self.globals[off] = value;
                Ok(())
            }
            Some((Segment::Stack, off)) => {
                self.stack[off] = value;
                Ok(())
            }
            None => self.write_unstored(addr, value),
        }
    }

    /// Reads a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] if any of the four bytes is unmapped.
    pub fn read_word(&self, addr: VirtAddr) -> Result<Word, Fault> {
        if let Ok(bytes) = self.read_slice(addr, 4) {
            Ok(Word::from_le_bytes([
                bytes[0], bytes[1], bytes[2], bytes[3],
            ]))
        } else {
            // Byte-accurate slow path: the range straddles a segment end,
            // so fault (or succeed, under adjacent custom layouts) exactly
            // where a byte-at-a-time walk would.
            let mut bytes = [0u8; 4];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_byte(addr + i as u32)?;
            }
            Ok(Word::from_le_bytes(bytes))
        }
    }

    /// Writes a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] or [`Fault::WriteProtection`] as for
    /// [`Process::write_byte`].
    pub fn write_word(&mut self, addr: VirtAddr, value: Word) -> Result<(), Fault> {
        if let Some(span) = self.write_span(addr, 4) {
            span.copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_byte(addr + i as u32, *b)?;
        }
        Ok(())
    }

    /// Borrows `len` bytes of process memory without copying, when the
    /// whole range lies within a single segment's stored bytes — the common
    /// case for word accesses, syscall buffers and string reads. Ranges
    /// that cross a segment boundary are refused (even if every byte is
    /// mapped under an adjacent custom layout, a contiguous borrow cannot
    /// exist), and so are ranges that start in the unstored part of the
    /// stack (its bytes are zero but not stored; see the module docs);
    /// callers needing byte-exact semantics fall back to
    /// [`Process::read_bytes`], which reads both.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] naming the first byte that does not fit
    /// in the segment containing `addr`, or `addr` itself if it is unmapped
    /// or unstored.
    pub fn read_slice(&self, addr: VirtAddr, len: usize) -> Result<&[u8], Fault> {
        let (segment, off) = self
            .segment_for(addr.as_u32())
            .ok_or(Fault::Segfault { addr })?;
        let bytes = self.bytes_of(segment);
        match bytes.get(off..off + len) {
            Some(slice) => Ok(slice),
            None => Err(Fault::Segfault {
                addr: addr + (bytes.len() - off) as u32,
            }),
        }
    }

    /// Mutably borrows `len` bytes when the whole range lies within one
    /// *writable* segment; `None` sends the caller to the byte-at-a-time
    /// path, which reports [`Fault::WriteProtection`] / [`Fault::Segfault`]
    /// byte-accurately.
    pub(crate) fn write_span(&mut self, addr: VirtAddr, len: usize) -> Option<&mut [u8]> {
        let (segment, off) = self.segment_for(addr.as_u32())?;
        let bytes = match segment {
            Segment::Code => return None,
            Segment::Globals => &mut self.globals,
            Segment::Stack => &mut self.stack,
        };
        bytes.get_mut(off..off + len)
    }

    /// Reads `len` bytes of process memory.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] if any byte is unmapped.
    pub fn read_bytes(&self, addr: VirtAddr, len: usize) -> Result<Vec<u8>, Fault> {
        if let Ok(slice) = self.read_slice(addr, len) {
            return Ok(slice.to_vec());
        }
        // `len` is the program's own choice (a `write` count), so reserve
        // no more than the containing segment holds: the walk faults where
        // the mapping ends, and grows past it only under adjacent layouts.
        let room = self
            .segment_for(addr.as_u32())
            .map_or(0, |(segment, off)| self.bytes_of(segment).len() - off);
        let mut out = Vec::with_capacity(len.min(room));
        for i in 0..len {
            out.push(self.read_byte(addr + i as u32)?);
        }
        Ok(out)
    }

    /// Writes a byte slice into process memory.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] or [`Fault::WriteProtection`] as for
    /// [`Process::write_byte`].
    pub fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), Fault> {
        if let Some(span) = self.write_span(addr, data.len()) {
            span.copy_from_slice(data);
            return Ok(());
        }
        for (i, b) in data.iter().enumerate() {
            self.write_byte(addr + i as u32, *b)?;
        }
        Ok(())
    }

    /// Reads a NUL-terminated string (excluding the terminator).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] if the string runs off mapped memory
    /// before a terminator is found within `max` bytes.
    pub fn read_cstring(&self, addr: VirtAddr, max: usize) -> Result<Vec<u8>, Fault> {
        // Fast path: scan the containing segment directly. Valid only when
        // the segment holds the full `max` window or terminates the string
        // within it — otherwise the byte walk decides what lies beyond the
        // segment end.
        if let Some((segment, off)) = self.segment_for(addr.as_u32()) {
            let bytes = self.bytes_of(segment);
            let window = &bytes[off..bytes.len().min(off + max)];
            match window.iter().position(|&b| b == 0) {
                Some(nul) => return Ok(window[..nul].to_vec()),
                None if window.len() == max => return Ok(window.to_vec()),
                None => {}
            }
        }
        let mut out = Vec::new();
        for i in 0..max {
            let b = self.read_byte(addr + i as u32)?;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
        }
        Ok(out)
    }
}

/// Whether the code, globals and stack segments of `layout` neither
/// overlap nor wrap past the top of the address space.
fn segments_disjoint(layout: MemoryLayout, code_len: usize, globals_len: usize) -> bool {
    let span = |base: u32, len: u64| (u64::from(base), u64::from(base) + len);
    let mut segments = [
        span(layout.code_base, code_len as u64),
        span(layout.globals_base, globals_len as u64),
        span(layout.stack_base(), u64::from(layout.stack_size)),
    ];
    segments.sort_unstable();
    segments[2].1 <= 1 << 32 && segments.windows(2).all(|pair| pair[0].1 <= pair[1].0)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    Code,
    Globals,
    /// The stored part of the stack.
    Stack,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use crate::parser::parse_program;

    fn compiled() -> CompiledProgram {
        let program = parse_program(
            r"
            var logbuf: buf[16];
            var server_uid: uid_t = 48;
            fn main() -> int { return 0; }
            ",
        )
        .unwrap();
        compile_program(&program).unwrap()
    }

    #[test]
    fn layout_partitioning_and_offset() {
        let layout = MemoryLayout::default();
        assert!(layout.code_base < layout.globals_base);
        assert!(layout.globals_base < layout.stack_base());
        let hi = layout.with_partition_bit();
        assert_eq!(hi.globals_base & 0x8000_0000, 0x8000_0000);
        assert_eq!(hi.stack_size, layout.stack_size);
        let extended = hi.with_offset(0x40);
        assert_eq!(extended.code_base, hi.code_base + 0x40);
    }

    #[test]
    fn globals_are_initialized_and_addressable() {
        let c = compiled();
        let p = Process::new(&c, MemoryLayout::default());
        let uid_addr = p.global_addr("server_uid").unwrap();
        assert_eq!(p.read_word(uid_addr).unwrap().as_u32(), 48);
        // Declaration order fixes adjacency: the buffer sits below the UID.
        let buf_addr = p.global_addr("logbuf").unwrap();
        assert!(buf_addr < uid_addr);
        assert_eq!(uid_addr.offset_from(buf_addr), Some(16));
        assert!(p.global_addr("missing").is_none());
    }

    #[test]
    fn partitioned_variant_reads_same_logical_data_at_different_addresses() {
        let c = compiled();
        let p0 = Process::new(&c, MemoryLayout::default());
        let p1 = Process::new(&c, MemoryLayout::default().with_partition_bit());
        let a0 = p0.global_addr("server_uid").unwrap();
        let a1 = p1.global_addr("server_uid").unwrap();
        assert_ne!(a0, a1);
        assert_eq!(a1.without_high_bit(), a0);
        assert_eq!(p0.read_word(a0).unwrap(), p1.read_word(a1).unwrap());
        // An address valid in variant 1 is unmapped in variant 0.
        assert!(p0.read_word(a1).is_err());
        assert!(p1.read_word(a0).is_err());
    }

    #[test]
    fn memory_faults() {
        let c = compiled();
        let mut p = Process::new(&c, MemoryLayout::default());
        assert!(matches!(
            p.read_byte(VirtAddr::new(0x0000_0004)),
            Err(Fault::Segfault { .. })
        ));
        let code_addr = VirtAddr::new(p.layout().code_base);
        assert!(matches!(
            p.write_byte(code_addr, 0),
            Err(Fault::WriteProtection { .. })
        ));
        // Stack is writable.
        let stack_addr = VirtAddr::new(p.layout().stack_top - 8);
        p.write_word(stack_addr, Word::from_u32(0xAABB_CCDD))
            .unwrap();
        assert_eq!(p.read_word(stack_addr).unwrap().as_u32(), 0xAABB_CCDD);
    }

    #[test]
    fn cstring_reads() {
        let c = compiled();
        let mut p = Process::new(&c, MemoryLayout::default());
        let addr = p.global_addr("logbuf").unwrap();
        p.write_bytes(addr, b"GET /index.html\0").unwrap();
        assert_eq!(p.read_cstring(addr, 64).unwrap(), b"GET /index.html");
        // A max that stops before the terminator returns the prefix.
        assert_eq!(p.read_cstring(addr, 3).unwrap(), b"GET");
    }

    #[test]
    fn tagging_restamps_code() {
        let c = compiled();
        let p0 = Process::new(&c, MemoryLayout::default());
        let p1 = Process::with_tag(&c, MemoryLayout::default(), 1);
        assert_eq!(p0.expected_tag(), 0);
        assert_eq!(p1.expected_tag(), 1);
        // First code byte is the tag of the first instruction.
        assert_eq!(p0.code[0], 0);
        assert_eq!(p1.code[0], 1);
        // Operands are untouched.
        assert_eq!(p0.code[1..6], p1.code[1..6]);
    }

    /// `digest_into`'s fields folded with plain writes, the stack as the
    /// word fold of the whole segment read back through `read_bytes`.
    fn reference_digest(p: &Process) -> u64 {
        let mut d = nvariant_types::Fnv1a::new();
        d.write_u32(p.pc);
        d.write_u32(p.sp);
        d.write_u32(p.fp);
        d.write_u8(p.expected_tag);
        d.write_str(&format!("{:?}", p.state));
        d.write_usize(p.ostack.len());
        for word in &p.ostack {
            d.write_u32(word.as_u32());
        }
        d.write_u64(word_fold(&p.globals));
        d.write_u64(word_fold(&whole_stack(p)));
        d.finish()
    }

    fn whole_stack(p: &Process) -> Vec<u8> {
        let layout = p.layout();
        p.read_bytes(
            VirtAddr::new(layout.stack_base()),
            layout.stack_size as usize,
        )
        .unwrap()
    }

    fn digest(p: &Process) -> u64 {
        let mut d = nvariant_types::Fnv1a::new();
        p.digest_into(&mut d);
        d.finish()
    }

    /// The stored stack against a model of the whole segment: fixed-seed
    /// word and byte stores anywhere in it, zero and not, at and across
    /// the stored part's lower edge, near the top and deep below the edge.
    /// Each episode starts from a fresh process. The checker's pruning
    /// rests on the digest equalities checked here.
    #[test]
    fn stored_stack_reads_writes_and_digests_as_the_whole_segment() {
        let c = compiled();
        let layout = MemoryLayout::default();
        let (base, top) = (layout.stack_base(), layout.stack_top);
        let mut seed = 0x5EED_57AC_u64;
        let mut next = |n: u32| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % u64::from(n)) as u32
        };
        let mut partly_stored = 0;
        for episode in 0..8 {
            let mut p = Process::new(&c, layout);
            // Holds the same bytes, but stored to the bottom of the segment.
            let mut deep = p.clone();
            deep.write_byte(VirtAddr::new(base), 0).unwrap();
            assert_eq!(deep.stack_stored_base(), base);
            assert_eq!(p.stack_stored_base(), top);
            assert_eq!(digest(&p), digest(&deep));
            let mut model = vec![0u8; layout.stack_size as usize];
            for round in 0..24 {
                let at = format!("episode {episode} round {round}");
                let edge = p.stack_stored_base();
                let addr = match next(16) {
                    0..=1 => edge.saturating_sub(1 + next(3)).max(base),
                    2..=6 => edge + next(16),
                    7..=12 => top - 4 - next(64),
                    13..=14 => edge.saturating_sub(next(12_288)).max(base),
                    _ => base + next(layout.stack_size - 3),
                }
                .min(top - 4);
                let value = if next(3) == 0 { 0 } else { next(u32::MAX) };
                let off = (addr - base) as usize;
                if next(2) == 0 {
                    let word = Word::from_u32(value);
                    p.write_word(VirtAddr::new(addr), word).unwrap();
                    deep.write_word(VirtAddr::new(addr), word).unwrap();
                    model[off..off + 4].copy_from_slice(&value.to_le_bytes());
                } else {
                    p.write_byte(VirtAddr::new(addr), value as u8).unwrap();
                    deep.write_byte(VirtAddr::new(addr), value as u8).unwrap();
                    model[off] = value as u8;
                }
                let edge = p.stack_stored_base();
                assert!(edge <= addr, "{at}");
                let unstored = (edge - base) as usize;
                assert!(model[..unstored].iter().all(|&b| b == 0), "{at}");
                assert_eq!(whole_stack(&p), model, "{at}");
                assert_eq!(digest(&p), reference_digest(&p), "{at}");
                let clone = p.clone();
                assert_eq!(whole_stack(&clone), model, "{at}");
                assert_eq!(digest(&clone), digest(&p), "{at}");
                assert_eq!(digest(&deep), digest(&p), "{at}");
                // A word across the stored part's lower edge reads like any
                // other; its unstored half is zero.
                if edge >= base + 2 {
                    partly_stored += 1;
                    let off = unstored - 2;
                    let want = u32::from_le_bytes(model[off..off + 4].try_into().unwrap());
                    let straddle = VirtAddr::new(edge - 2);
                    assert_eq!(p.read_word(straddle).unwrap().as_u32(), want, "{at}");
                    assert!(p.read_slice(straddle, 4).is_err(), "{at}");
                    assert_eq!(p.read_byte(straddle).unwrap(), 0, "{at}");
                    assert_eq!(p.read_cstring(straddle, 8).unwrap(), b"", "{at}");
                }
            }
            // The segment's ends still fault where they did.
            let below = VirtAddr::new(base - 1);
            assert_eq!(p.read_byte(below), Err(Fault::Segfault { addr: below }));
            assert_eq!(p.write_byte(below, 1), Err(Fault::Segfault { addr: below }));
            let end = VirtAddr::new(top);
            assert_eq!(p.read_word(end - 2), Err(Fault::Segfault { addr: end }));
        }
        assert!(
            partly_stored >= 64,
            "only {partly_stored} rounds left bytes unstored"
        );
    }

    #[test]
    fn function_addresses_are_exposed() {
        let c = compiled();
        let p = Process::new(&c, MemoryLayout::default());
        let main_addr = p.function_addr("main").unwrap();
        assert!(main_addr.as_u32() >= p.layout().code_base);
        assert!(p.function_addr("nope").is_none());
    }
}
