//! The SimC compiler: AST to byte-encoded bytecode.

use crate::ast::{BinOp, Expr, Function, LValue, Program, Stmt, Type, UnOp};
use crate::bytecode::{
    self, encode_all, predecode, retag_code, uniform_tag, Instr, Op, INSTR_SIZE,
};
use crate::typecheck::{typecheck_program, TypeError, TypeInfo};
use nvariant_simos::Sysno;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors produced by the compiler.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CompileError {
    /// The program failed type checking.
    Type(TypeError),
    /// The program has no `main` function.
    MissingMain,
    /// A global had an initializer the compiler cannot place in the image.
    UnsupportedGlobalInit(String),
    /// `break` or `continue` appeared outside a loop.
    LoopControlOutsideLoop(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Type(e) => write!(f, "{e}"),
            CompileError::MissingMain => write!(f, "program has no `main` function"),
            CompileError::UnsupportedGlobalInit(name) => {
                write!(f, "global `{name}` has an unsupported initializer")
            }
            CompileError::LoopControlOutsideLoop(which) => {
                write!(f, "`{which}` outside of a loop")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}

/// The output of compilation: a position-independent code image (jump and
/// call operands are code-segment offsets), the initial globals/rodata
/// image, and symbol tables.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompiledProgram {
    /// Encoded instructions (all stamped with tag 0), reference-counted so
    /// every process instantiated from this program shares one image.
    code: Arc<[u8]>,
    /// The code image predecoded once at construction: slot `i` covers
    /// bytes `i * INSTR_SIZE ..`. Each 8-byte slot holds the instruction's
    /// op, a one-byte mark naming the fused run the slot starts (or none)
    /// and the 32-bit operand; the tag is not copied, since the interpreter
    /// reads live tags from the image. `None` when the image does not
    /// decode cleanly (possible for a corrupted artifact-store entry whose
    /// hex still parses) — the interpreter then falls back to its
    /// byte-accurate fetch path.
    stream: Option<Arc<[bytecode::Slot]>>,
    /// The tag every instruction slot of `code` carries, when they all
    /// carry one (always 0 for compiler output; a loaded artifact may hold
    /// anything).
    code_tag: Option<u8>,
    /// Initial contents of the globals + rodata segment.
    pub globals_image: Vec<u8>,
    /// Offset and declared type of each global within the globals segment,
    /// shared with every process instantiated from this program.
    pub globals_map: Arc<BTreeMap<String, (u32, Type)>>,
    /// Code-segment offset of each function's first instruction, shared
    /// likewise.
    pub functions: Arc<BTreeMap<String, u32>>,
    /// Code-segment offset where execution starts (the start stub).
    pub entry_offset: u32,
    /// The type information computed during compilation.
    pub type_info: TypeInfo,
}

impl CompiledProgram {
    /// Assembles a compiled program from its parts, predecoding the code
    /// image once, fused runs marked, so instruction fetch never re-decodes
    /// per step.
    #[must_use]
    pub fn new(
        code: Vec<u8>,
        globals_image: Vec<u8>,
        globals_map: BTreeMap<String, (u32, Type)>,
        functions: BTreeMap<String, u32>,
        entry_offset: u32,
        type_info: TypeInfo,
    ) -> Self {
        let stream = predecode(&code).map(Arc::from);
        CompiledProgram {
            code_tag: uniform_tag(&code),
            code: Arc::from(code),
            stream,
            globals_image,
            globals_map: Arc::new(globals_map),
            functions: Arc::new(functions),
            entry_offset,
            type_info,
        }
    }

    /// The encoded code image (all instructions stamped with tag 0).
    #[must_use]
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// A shared handle to the code image restamped with `tag`. Tag 0 is
    /// the image's own tag, so it returns the already-shared image without
    /// copying a byte; other tags copy once per call — callers that
    /// instantiate many processes at one tag (the campaign engine) hold on
    /// to the returned handle instead of re-calling.
    #[must_use]
    pub fn retagged_image(&self, tag: u8) -> Arc<[u8]> {
        if tag == 0 {
            Arc::clone(&self.code)
        } else {
            Arc::from(retag_code(&self.code, tag))
        }
    }

    /// The predecoded stream, when the image decodes cleanly. It holds no
    /// tags: the interpreter reads the live tag byte from the (possibly
    /// retagged) code image, so one stream serves every variant —
    /// retagging changes only byte 0 of each instruction, never the opcode
    /// or operand.
    pub(crate) fn stream(&self) -> Option<Arc<[bytecode::Slot]>> {
        self.stream.clone()
    }

    /// The tag every instruction slot of `image` carries, when they all
    /// carry one: recorded at construction for the program's own image,
    /// read off the slots for any other.
    pub(crate) fn image_tag(&self, image: &Arc<[u8]>) -> Option<u8> {
        if Arc::ptr_eq(image, &self.code) {
            self.code_tag
        } else {
            uniform_tag(image)
        }
    }

    /// Number of encoded instructions in the code image.
    #[must_use]
    pub fn instruction_count(&self) -> usize {
        self.code.len() / INSTR_SIZE as usize
    }
}

/// Compiles a type-checked SimC program to bytecode.
///
/// # Errors
///
/// Returns a [`CompileError`] if the program fails type checking, has no
/// `main`, uses `break`/`continue` outside a loop, or has a global
/// initializer that cannot be placed into the data image.
///
/// # Example
///
/// ```
/// use nvariant_vm::{compile_program, parse_program};
///
/// let program = parse_program("fn main() -> int { return 2 + 3; }")?;
/// let compiled = compile_program(&program)?;
/// assert!(compiled.instruction_count() > 3);
/// assert!(compiled.functions.contains_key("main"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile_program(program: &Program) -> Result<CompiledProgram, CompileError> {
    let type_info = typecheck_program(program)?;
    if program.function("main").is_none() {
        return Err(CompileError::MissingMain);
    }
    let mut compiler = Compiler::new(program, type_info);
    compiler.layout_globals()?;
    compiler.emit_start_stub();
    for function in &program.functions {
        compiler.compile_function(function)?;
    }
    Ok(compiler.finish())
}

/// Where a named variable lives, as seen by the code generator.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Displacement below the frame pointer.
    Local(u32, Type),
    /// Offset within the globals segment.
    Global(u32, Type),
}

struct LoopLabels {
    start: usize,
    end: usize,
}

struct Compiler<'a> {
    program: &'a Program,
    type_info: TypeInfo,
    instrs: Vec<Instr>,
    globals_image: Vec<u8>,
    globals_map: BTreeMap<String, (u32, Type)>,
    functions: BTreeMap<String, u32>,
    call_fixups: Vec<(usize, String)>,
    jump_fixups: Vec<(usize, usize)>,
    labels: Vec<Option<usize>>,
    string_pool: BTreeMap<String, u32>,
    locals: BTreeMap<String, Slot>,
    loop_stack: Vec<LoopLabels>,
    current_function: String,
}

impl<'a> Compiler<'a> {
    fn new(program: &'a Program, type_info: TypeInfo) -> Self {
        Compiler {
            program,
            type_info,
            instrs: Vec::new(),
            globals_image: Vec::new(),
            globals_map: BTreeMap::new(),
            functions: BTreeMap::new(),
            call_fixups: Vec::new(),
            jump_fixups: Vec::new(),
            labels: Vec::new(),
            string_pool: BTreeMap::new(),
            locals: BTreeMap::new(),
            loop_stack: Vec::new(),
            current_function: String::new(),
        }
    }

    // ----- labels and emission -------------------------------------------------

    fn emit(&mut self, op: Op, operand: u32) -> usize {
        self.instrs.push(Instr::new(op, operand));
        self.instrs.len() - 1
    }

    fn new_label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind_label(&mut self, label: usize) {
        self.labels[label] = Some(self.instrs.len());
    }

    fn emit_jump(&mut self, op: Op, label: usize) {
        let index = self.emit(op, 0);
        self.jump_fixups.push((index, label));
    }

    // ----- data layout ------------------------------------------------------------

    fn layout_globals(&mut self) -> Result<(), CompileError> {
        for global in &self.program.globals {
            let size = round_up(global.ty.size(), 4);
            let offset = self.globals_image.len() as u32;
            self.globals_map
                .insert(global.name.clone(), (offset, global.ty));
            let mut bytes = vec![0u8; size as usize];
            match &global.init {
                None => {}
                Some(Expr::IntLit(value)) => {
                    bytes[..4].copy_from_slice(&(*value as u32).to_le_bytes());
                }
                Some(_) => return Err(CompileError::UnsupportedGlobalInit(global.name.clone())),
            }
            self.globals_image.extend_from_slice(&bytes);
        }
        Ok(())
    }

    fn intern_string(&mut self, value: &str) -> u32 {
        if let Some(&offset) = self.string_pool.get(value) {
            return offset;
        }
        let offset = self.globals_image.len() as u32;
        self.globals_image.extend_from_slice(value.as_bytes());
        self.globals_image.push(0);
        // Keep words aligned for anything placed afterwards.
        while !self.globals_image.len().is_multiple_of(4) {
            self.globals_image.push(0);
        }
        self.string_pool.insert(value.to_string(), offset);
        offset
    }

    // ----- program structure -------------------------------------------------------

    fn emit_start_stub(&mut self) {
        // call main; exit(main's return value); halt.
        let call_index = self.emit(Op::Call, 0);
        self.call_fixups.push((call_index, "main".to_string()));
        self.emit(Op::Syscall, (Sysno::Exit.as_u32() << 8) | 1);
        self.emit(Op::Halt, 0);
    }

    fn compile_function(&mut self, function: &Function) -> Result<(), CompileError> {
        self.current_function.clone_from(&function.name);
        let offset = (self.instrs.len() as u32) * INSTR_SIZE;
        self.functions.insert(function.name.clone(), offset);

        // Assign frame slots: parameters first, then every local declared
        // anywhere in the body, in declaration order.
        self.locals.clear();
        let mut displacement = 0u32;
        let mut assign = |name: &str, ty: Type, locals: &mut BTreeMap<String, Slot>| {
            let size = round_up(ty.size(), 4);
            displacement += size;
            locals.insert(name.to_string(), Slot::Local(displacement, ty));
            displacement
        };
        for param in &function.params {
            assign(&param.name, param.ty, &mut self.locals);
        }
        collect_locals(&function.body, &mut |name, ty| {
            assign(name, ty, &mut self.locals);
        });
        let frame_size = round_up(displacement, 8);

        self.emit(Op::Enter, frame_size);
        // Parameters were pushed left-to-right by the caller, so the last one
        // is on top of the operand stack: store them in reverse.
        for param in function.params.iter().rev() {
            let slot = self.locals[&param.name];
            if let Slot::Local(disp, _) = slot {
                self.emit(Op::StoreL, disp);
            }
        }

        self.compile_block(&function.body)?;

        // Fallthrough return (also the only return for void functions).
        self.emit(Op::Push, 0);
        self.emit(Op::Ret, 0);
        Ok(())
    }

    fn compile_block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for stmt in stmts {
            self.compile_stmt(stmt)?;
        }
        Ok(())
    }

    fn slot(&self, name: &str) -> Option<Slot> {
        if let Some(slot) = self.locals.get(name) {
            return Some(*slot);
        }
        self.globals_map
            .get(name)
            .map(|(offset, ty)| Slot::Global(*offset, *ty))
    }

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::VarDecl { name, init, .. } => {
                if let Some(init) = init {
                    self.compile_expr(init)?;
                    match self.slot(name) {
                        Some(Slot::Local(disp, _)) => {
                            self.emit(Op::StoreL, disp);
                        }
                        _ => unreachable!("locals are always assigned slots"),
                    }
                }
                Ok(())
            }
            Stmt::Assign { target, value } => {
                match target {
                    LValue::Var(name) => {
                        self.compile_expr(value)?;
                        match self.slot(name) {
                            Some(Slot::Local(disp, _)) => {
                                self.emit(Op::StoreL, disp);
                            }
                            Some(Slot::Global(offset, _)) => {
                                self.emit(Op::StoreG, offset);
                            }
                            None => unreachable!("checked by typechecker"),
                        }
                    }
                    LValue::Index(base, index) => {
                        self.compile_expr(value)?;
                        self.compile_address_of_index(base, index)?;
                        self.emit(Op::StoreB, 0);
                    }
                    LValue::Deref(inner) => {
                        self.compile_expr(value)?;
                        self.compile_expr(inner)?;
                        self.emit(Op::StoreW, 0);
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let else_label = self.new_label();
                let end_label = self.new_label();
                self.compile_expr(cond)?;
                self.emit_jump(Op::Jz, else_label);
                self.compile_block(then_body)?;
                self.emit_jump(Op::Jmp, end_label);
                self.bind_label(else_label);
                self.compile_block(else_body)?;
                self.bind_label(end_label);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let start_label = self.new_label();
                let end_label = self.new_label();
                self.bind_label(start_label);
                self.compile_expr(cond)?;
                self.emit_jump(Op::Jz, end_label);
                self.loop_stack.push(LoopLabels {
                    start: start_label,
                    end: end_label,
                });
                self.compile_block(body)?;
                self.loop_stack.pop();
                self.emit_jump(Op::Jmp, start_label);
                self.bind_label(end_label);
                Ok(())
            }
            Stmt::Return(value) => {
                match value {
                    Some(value) => self.compile_expr(value)?,
                    None => {
                        self.emit(Op::Push, 0);
                    }
                }
                self.emit(Op::Ret, 0);
                Ok(())
            }
            Stmt::Expr(expr) => {
                self.compile_expr(expr)?;
                self.emit(Op::Pop, 0);
                Ok(())
            }
            Stmt::Break => {
                let Some(labels) = self.loop_stack.last() else {
                    return Err(CompileError::LoopControlOutsideLoop("break".to_string()));
                };
                let end = labels.end;
                self.emit_jump(Op::Jmp, end);
                Ok(())
            }
            Stmt::Continue => {
                let Some(labels) = self.loop_stack.last() else {
                    return Err(CompileError::LoopControlOutsideLoop("continue".to_string()));
                };
                let start = labels.start;
                self.emit_jump(Op::Jmp, start);
                Ok(())
            }
        }
    }

    /// Compiles the address computation for `base[index]`, leaving the byte
    /// address on the operand stack.
    fn compile_address_of_index(&mut self, base: &Expr, index: &Expr) -> Result<(), CompileError> {
        self.compile_base_address(base)?;
        self.compile_expr(index)?;
        self.emit(Op::Add, 0);
        Ok(())
    }

    /// Compiles `base` so its *address value* ends up on the operand stack:
    /// buffers decay to their address, pointers are loaded, everything else
    /// is evaluated as an address-valued expression.
    fn compile_base_address(&mut self, base: &Expr) -> Result<(), CompileError> {
        if let Expr::Ident(name) = base {
            match self.slot(name) {
                Some(Slot::Local(disp, Type::Buf(_))) => {
                    self.emit(Op::LeaL, disp);
                    return Ok(());
                }
                Some(Slot::Global(offset, Type::Buf(_))) => {
                    self.emit(Op::LeaG, offset);
                    return Ok(());
                }
                _ => {}
            }
        }
        self.compile_expr(base)
    }

    fn compile_expr(&mut self, expr: &Expr) -> Result<(), CompileError> {
        match expr {
            Expr::IntLit(value) => {
                self.emit(Op::Push, *value as u32);
                Ok(())
            }
            Expr::StrLit(value) => {
                let offset = self.intern_string(value);
                self.emit(Op::LeaG, offset);
                Ok(())
            }
            Expr::Ident(name) => {
                match self.slot(name) {
                    Some(Slot::Local(disp, ty)) => {
                        if matches!(ty, Type::Buf(_)) {
                            self.emit(Op::LeaL, disp);
                        } else {
                            self.emit(Op::LoadL, disp);
                        }
                    }
                    Some(Slot::Global(offset, ty)) => {
                        if matches!(ty, Type::Buf(_)) {
                            self.emit(Op::LeaG, offset);
                        } else {
                            self.emit(Op::LoadG, offset);
                        }
                    }
                    None => unreachable!("checked by typechecker"),
                }
                Ok(())
            }
            Expr::AddrOf(name) => {
                match self.slot(name) {
                    Some(Slot::Local(disp, _)) => {
                        self.emit(Op::LeaL, disp);
                    }
                    Some(Slot::Global(offset, _)) => {
                        self.emit(Op::LeaG, offset);
                    }
                    None => unreachable!("checked by typechecker"),
                }
                Ok(())
            }
            Expr::Deref(inner) => {
                self.compile_expr(inner)?;
                self.emit(Op::LoadW, 0);
                Ok(())
            }
            Expr::Index(base, index) => {
                self.compile_address_of_index(base, index)?;
                self.emit(Op::LoadB, 0);
                Ok(())
            }
            Expr::Unary(op, inner) => {
                self.compile_expr(inner)?;
                match op {
                    UnOp::Neg => self.emit(Op::Neg, 0),
                    UnOp::Not => self.emit(Op::Not, 0),
                    UnOp::BitNot => self.emit(Op::BitNot, 0),
                };
                Ok(())
            }
            Expr::Binary(BinOp::LogAnd, lhs, rhs) => {
                let false_label = self.new_label();
                let end_label = self.new_label();
                self.compile_expr(lhs)?;
                self.emit_jump(Op::Jz, false_label);
                self.compile_expr(rhs)?;
                self.emit_jump(Op::Jz, false_label);
                self.emit(Op::Push, 1);
                self.emit_jump(Op::Jmp, end_label);
                self.bind_label(false_label);
                self.emit(Op::Push, 0);
                self.bind_label(end_label);
                Ok(())
            }
            Expr::Binary(BinOp::LogOr, lhs, rhs) => {
                let true_label = self.new_label();
                let end_label = self.new_label();
                self.compile_expr(lhs)?;
                self.emit_jump(Op::Jnz, true_label);
                self.compile_expr(rhs)?;
                self.emit_jump(Op::Jnz, true_label);
                self.emit(Op::Push, 0);
                self.emit_jump(Op::Jmp, end_label);
                self.bind_label(true_label);
                self.emit(Op::Push, 1);
                self.bind_label(end_label);
                Ok(())
            }
            Expr::Binary(op, lhs, rhs) => {
                self.compile_expr(lhs)?;
                self.compile_expr(rhs)?;
                let machine_op = match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Mod => Op::Mod,
                    BinOp::BitAnd => Op::BitAnd,
                    BinOp::BitOr => Op::BitOr,
                    BinOp::BitXor => Op::BitXor,
                    BinOp::Shl => Op::Shl,
                    BinOp::Shr => Op::Shr,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::LogAnd | BinOp::LogOr => unreachable!("handled above"),
                };
                self.emit(machine_op, 0);
                Ok(())
            }
            Expr::Call(name, args) => {
                for arg in args {
                    self.compile_expr(arg)?;
                }
                if let Some(sysno) = Sysno::from_name(name) {
                    self.emit(Op::Syscall, (sysno.as_u32() << 8) | args.len() as u32);
                } else {
                    let index = self.emit(Op::Call, 0);
                    self.call_fixups.push((index, name.clone()));
                }
                Ok(())
            }
        }
    }

    fn finish(mut self) -> CompiledProgram {
        // Resolve call targets.
        for (index, name) in &self.call_fixups {
            let offset = self.functions[name];
            self.instrs[*index].operand = offset;
        }
        // Resolve jump labels.
        for (index, label) in &self.jump_fixups {
            let target_index = self.labels[*label].expect("label bound before finish");
            self.instrs[*index].operand = target_index as u32 * INSTR_SIZE;
        }
        CompiledProgram::new(
            encode_all(&self.instrs),
            self.globals_image,
            self.globals_map,
            self.functions,
            0,
            self.type_info,
        )
    }
}

fn round_up(value: u32, to: u32) -> u32 {
    value.div_ceil(to) * to
}

fn collect_locals(stmts: &[Stmt], visit: &mut impl FnMut(&str, Type)) {
    for stmt in stmts {
        match stmt {
            Stmt::VarDecl { name, ty, .. } => visit(name, *ty),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_locals(then_body, visit);
                collect_locals(else_body, visit);
            }
            Stmt::While { body, .. } => collect_locals(body, visit),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::decode_all;
    use crate::parser::parse_program;

    fn compile(src: &str) -> CompiledProgram {
        compile_program(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn compiles_minimal_program() {
        let c = compile("fn main() -> int { return 42; }");
        assert!(c.functions.contains_key("main"));
        assert_eq!(c.entry_offset, 0);
        let instrs = decode_all(c.code()).unwrap();
        // Start stub: Call main, Syscall exit, Halt.
        assert_eq!(instrs[0].op, Op::Call);
        assert_eq!(instrs[1].op, Op::Syscall);
        assert_eq!(instrs[2].op, Op::Halt);
        // main starts with Enter.
        let main_offset = c.functions["main"] as usize / INSTR_SIZE as usize;
        assert_eq!(instrs[main_offset].op, Op::Enter);
    }

    #[test]
    fn missing_main_is_rejected() {
        let program = parse_program("fn helper() -> int { return 1; }").unwrap();
        assert!(matches!(
            compile_program(&program),
            Err(CompileError::MissingMain)
        ));
    }

    #[test]
    fn type_errors_are_propagated() {
        let program = parse_program("fn main() -> int { return missing; }").unwrap();
        assert!(matches!(
            compile_program(&program),
            Err(CompileError::Type(_))
        ));
    }

    #[test]
    fn globals_layout_is_declaration_order() {
        let c = compile(
            r"
            var first: int = 5;
            var logbuf: buf[10];
            var server_uid: uid_t = 48;
            fn main() -> int { return first; }
            ",
        );
        let (first_off, _) = c.globals_map["first"];
        let (buf_off, buf_ty) = c.globals_map["logbuf"];
        let (uid_off, _) = c.globals_map["server_uid"];
        assert_eq!(first_off, 0);
        assert_eq!(buf_off, 4);
        // Buffer rounded up to a word multiple.
        assert_eq!(uid_off, 4 + 12);
        assert_eq!(buf_ty, Type::Buf(10));
        // Initializers are placed in the image.
        assert_eq!(&c.globals_image[0..4], &5u32.to_le_bytes());
        assert_eq!(
            &c.globals_image[uid_off as usize..uid_off as usize + 4],
            &48u32.to_le_bytes()
        );
    }

    #[test]
    fn string_literals_are_interned_and_deduplicated() {
        let c = compile(
            r#"fn main() -> int { write(1, "hello", 5); write(1, "hello", 5); write(1, "bye", 3); return 0; }"#,
        );
        let image = String::from_utf8_lossy(&c.globals_image).to_string();
        assert_eq!(image.matches("hello").count(), 1);
        assert_eq!(image.matches("bye").count(), 1);
    }

    #[test]
    fn syscalls_encode_number_and_argc() {
        let c = compile("fn main() -> int { return setuid(48); }");
        let instrs = decode_all(c.code()).unwrap();
        let syscall = instrs
            .iter()
            .find(|i| i.op == Op::Syscall && (i.operand >> 8) == Sysno::SetUid.as_u32())
            .expect("setuid syscall emitted");
        assert_eq!(syscall.operand & 0xFF, 1);
    }

    #[test]
    fn loop_control_outside_loop_is_rejected() {
        let program = parse_program("fn main() -> int { break; return 0; }").unwrap();
        assert!(matches!(
            compile_program(&program),
            Err(CompileError::LoopControlOutsideLoop(_))
        ));
        let program = parse_program("fn main() -> int { continue; return 0; }").unwrap();
        assert!(matches!(
            compile_program(&program),
            Err(CompileError::LoopControlOutsideLoop(_))
        ));
    }

    #[test]
    fn string_global_initializers_are_unsupported() {
        let program =
            parse_program(r#"var name: ptr = "httpd"; fn main() -> int { return 0; }"#).unwrap();
        assert!(matches!(
            compile_program(&program),
            Err(CompileError::UnsupportedGlobalInit(_))
        ));
    }

    #[test]
    fn jumps_are_resolved_to_code_offsets() {
        let c = compile(
            r"
            fn main() -> int {
                var i: int = 0;
                while (i < 10) { i = i + 1; }
                if (i == 10) { return 1; } else { return 2; }
            }
            ",
        );
        let instrs = decode_all(c.code()).unwrap();
        for instr in &instrs {
            if matches!(instr.op, Op::Jmp | Op::Jz | Op::Jnz) {
                assert_eq!(instr.operand % INSTR_SIZE, 0);
                assert!((instr.operand as usize) < c.code().len());
            }
        }
    }

    #[test]
    fn instruction_count_reflects_code_size() {
        let c = compile("fn main() -> int { return 1 + 2 + 3; }");
        assert_eq!(c.instruction_count() * INSTR_SIZE as usize, c.code().len());
    }
}
