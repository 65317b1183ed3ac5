//! `analyze_pair`: lockstep comparison plus worklist abstract
//! interpretation over one compiled variant pair.
//!
//! The pair is checked in two phases. **Phase 1 (P-Lockstep)** is purely
//! structural: decode both images (undecodable slots report through the
//! interpreter's own [`nvariant_vm::DecodeFailure`] renderer), require equal
//! stream lengths, isomorphic CFGs, matching tag bytes, and per-index
//! instructions identical modulo the declared relation — operands must be
//! equal except a `Push` whose operands are related by the pairwise UID
//! mask, and the memory layouts must differ by exactly the declared address
//! partition displacement. **Phase 2 (P-Residual / P-Boundary)** runs only
//! on a lockstep-clean pair: a worklist fixpoint over each function's CFG
//! propagates [`AbsVal`]s through stack slots and locals, then a reporting
//! pass walks every block once with its fixpoint entry state and checks the
//! UID sinks.
//!
//! Soundness caveats (documented in `docs/static-analysis.md`): indirect
//! loads and stores (`LoadW`/`StoreW`/`LoadB`/`StoreB`) widen to `Top`, as
//! does everything reached through `CallPtr` (which the compiler never
//! emits); a `Top` UID argument is excluded from the boundary-domain check
//! rather than guessed.

use crate::cfg::{build_cfgs, is_jump, FunctionCfg};
use crate::lattice::{AbsVal, Region};
use crate::report::{AnalysisReport, Finding, Property};
use crate::{pair_relation, VariantArtifact};
use nvariant_diversity::UidTransform;
use nvariant_simos::Sysno;
use nvariant_transform::UidContext;
use nvariant_types::Uid;
use nvariant_vm::{decode_slot_at, CompiledProgram, Instr, Op, INSTR_SIZE};
use std::collections::{BTreeMap, VecDeque};

/// Verifies one variant pair: P-Lockstep structurally, then P-Residual and
/// P-Boundary by abstract interpretation of the base variant's stream with
/// the other variant's operands as counterparts.
///
/// The `ctx` is the AST-level UID inference of the (transformed) program
/// both variants were compiled from; it seeds the global classification.
#[must_use]
pub fn analyze_pair(
    base: &VariantArtifact<'_>,
    other: &VariantArtifact<'_>,
    ctx: &UidContext,
) -> AnalysisReport {
    let relation = pair_relation(base.spec.uid, other.spec.uid);
    let mut findings = Vec::new();

    let stream_a = decode_stream(base, &mut findings);
    let stream_b = decode_stream(other, &mut findings);

    check_layouts(base, other, &mut findings);

    // Undecodable slots were already reported identically to the
    // interpreter's fault path; nothing deeper is meaningful.
    let (Some(stream_a), Some(stream_b)) = (stream_a, stream_b) else {
        return AnalysisReport {
            base: base.spec,
            other: other.spec,
            relation,
            functions: 0,
            blocks: 0,
            instructions: 0,
            findings,
        };
    };

    let cfgs_a = build_cfgs(&stream_a, &base.program.functions);
    let cfgs_b = build_cfgs(&stream_b, &other.program.functions);
    check_lockstep(
        base,
        other,
        &stream_a,
        &stream_b,
        &cfgs_a,
        &cfgs_b,
        relation,
        &mut findings,
    );
    check_globals_image(base, other, ctx, relation, &mut findings);

    // Phase 2 needs lockstep to hold (it reads counterpart operands by
    // index), but a data-segment residual does not invalidate it.
    let lockstep_clean = findings.iter().all(|f| f.property != Property::Lockstep);
    if lockstep_clean {
        let pair = PairContext {
            base,
            other_stream: &stream_b,
            relation,
            uid_globals: uid_global_words(base.program, ctx),
            offsets_to_names: base
                .program
                .functions
                .iter()
                .map(|(name, &off)| (off, name.clone()))
                .collect(),
        };
        for cfg in &cfgs_a {
            interpret_function(&pair, cfg, &stream_a, &mut findings);
        }
    }

    AnalysisReport {
        base: base.spec,
        other: other.spec,
        relation,
        functions: cfgs_a.len(),
        blocks: cfgs_a.iter().map(|c| c.blocks.len()).sum(),
        instructions: stream_a.len(),
        findings,
    }
}

/// Decodes a variant's retagged image, reporting every undecodable slot
/// with the same text the interpreter's illegal-instruction fault renders,
/// and every jump into the middle of a slot of the image: the CFG has no
/// block there, so the pair cannot be shown to run in lockstep.
fn decode_stream(variant: &VariantArtifact<'_>, findings: &mut Vec<Finding>) -> Option<Vec<Instr>> {
    let code = &variant.image[..];
    let slots = code.len() as u32 / INSTR_SIZE;
    let mut stream = Vec::with_capacity(slots as usize);
    let mut clean = true;
    if !(code.len() as u32).is_multiple_of(INSTR_SIZE) {
        findings.push(Finding {
            property: Property::Lockstep,
            pc: None,
            function: "<image>".to_string(),
            block: None,
            index: None,
            instr: None,
            detail: format!(
                "code image length {} is not a multiple of the {INSTR_SIZE}-byte instruction size",
                code.len()
            ),
        });
        clean = false;
    }
    for i in 0..slots {
        let pc = i * INSTR_SIZE;
        match decode_slot_at(code, pc) {
            Ok(instr) => {
                let target = instr.operand;
                if is_jump(instr.op)
                    && target < slots * INSTR_SIZE
                    && !target.is_multiple_of(INSTR_SIZE)
                {
                    findings.push(Finding {
                        property: Property::Lockstep,
                        pc: Some(pc),
                        function: function_at(&variant.program.functions, pc),
                        block: None,
                        index: None,
                        instr: Some(instr),
                        detail: format!(
                            "jump target {target:#x} lies inside the slot at {:#x}, not on a \
                             slot boundary",
                            target - target % INSTR_SIZE
                        ),
                    });
                }
                stream.push(instr);
            }
            Err(failure) => {
                findings.push(Finding {
                    property: Property::Lockstep,
                    pc: Some(pc),
                    function: function_at(&variant.program.functions, pc),
                    block: None,
                    index: None,
                    instr: None,
                    detail: failure.describe(),
                });
                clean = false;
            }
        }
    }
    clean.then_some(stream)
}

/// The name of the function whose range contains `pc`.
fn function_at(functions: &BTreeMap<String, u32>, pc: u32) -> String {
    functions
        .iter()
        .filter(|(_, &off)| off <= pc)
        .max_by_key(|(_, &off)| off)
        .map_or_else(|| "<start>".to_string(), |(name, _)| name.clone())
}

/// The declared address relation must be visible in the layouts: each
/// segment base of `other` sits exactly at its spec's transform of the
/// canonical base recovered from `base`.
fn check_layouts(
    base: &VariantArtifact<'_>,
    other: &VariantArtifact<'_>,
    findings: &mut Vec<Finding>,
) {
    use nvariant_types::VirtAddr;
    let segments = [
        ("code_base", base.layout.code_base, other.layout.code_base),
        (
            "globals_base",
            base.layout.globals_base,
            other.layout.globals_base,
        ),
        ("stack_top", base.layout.stack_top, other.layout.stack_top),
    ];
    for (segment, a, b) in segments {
        let canonical = base.spec.addr.invert(VirtAddr::new(a));
        let expected = other.spec.addr.apply(canonical).as_u32();
        if b != expected {
            findings.push(Finding {
                property: Property::Lockstep,
                pc: None,
                function: "<image>".to_string(),
                block: None,
                index: None,
                instr: None,
                detail: format!(
                    "layout {segment} {b:#010x} does not reflect the declared address \
                     relation {} (expected {expected:#010x} from canonical {:#010x})",
                    other.spec.addr.describe(),
                    canonical.as_u32(),
                ),
            });
        }
    }
}

/// Phase 1: streams equal length, CFGs isomorphic, instructions identical
/// modulo tag byte and the pairwise UID relation on `Push` operands. Only
/// the first diverging (block, index) pair is reported.
#[allow(clippy::too_many_arguments)]
fn check_lockstep(
    base: &VariantArtifact<'_>,
    other: &VariantArtifact<'_>,
    stream_a: &[Instr],
    stream_b: &[Instr],
    cfgs_a: &[FunctionCfg],
    cfgs_b: &[FunctionCfg],
    relation: UidTransform,
    findings: &mut Vec<Finding>,
) {
    if stream_a.len() != stream_b.len() {
        let index = stream_a.len().min(stream_b.len());
        findings.push(Finding {
            property: Property::Lockstep,
            pc: Some(index as u32 * INSTR_SIZE),
            function: "<image>".to_string(),
            block: None,
            index: None,
            instr: None,
            detail: format!(
                "instruction streams diverge in length: {} vs {} instructions",
                stream_a.len(),
                stream_b.len()
            ),
        });
        return;
    }

    // CFG isomorphism. With equal-length streams the block partition is
    // derived data, but comparing it directly is what makes structural
    // drift reportable as a (block, index) coordinate.
    if cfgs_a.len() != cfgs_b.len() {
        findings.push(Finding {
            property: Property::Lockstep,
            pc: None,
            function: "<image>".to_string(),
            block: None,
            index: None,
            instr: None,
            detail: format!(
                "CFGs are not isomorphic: {} vs {} functions",
                cfgs_a.len(),
                cfgs_b.len()
            ),
        });
        return;
    }
    for (fa, fb) in cfgs_a.iter().zip(cfgs_b) {
        if fa.name != fb.name || fa.range != fb.range || fa.blocks != fb.blocks {
            let block = fa
                .blocks
                .iter()
                .zip(&fb.blocks)
                .position(|(a, b)| a != b)
                .unwrap_or(fa.blocks.len().min(fb.blocks.len()));
            findings.push(Finding {
                property: Property::Lockstep,
                pc: None,
                function: fa.name.clone(),
                block: Some(block),
                index: Some(0),
                instr: None,
                detail: format!(
                    "CFGs are not isomorphic: function {} diverges at block {block} \
                     ({} vs {} blocks)",
                    fa.name,
                    fa.blocks.len(),
                    fb.blocks.len()
                ),
            });
            return;
        }
    }

    for (i, (a, b)) in stream_a.iter().zip(stream_b).enumerate() {
        let pc = i as u32 * INSTR_SIZE;
        let divergence = instruction_divergence(*a, *b, base, other, relation);
        if let Some(detail) = divergence {
            let (function, block, index) = locate(cfgs_a, pc);
            findings.push(Finding {
                property: Property::Lockstep,
                pc: Some(pc),
                function,
                block,
                index,
                instr: Some(*a),
                detail,
            });
            return; // first diverging (block, index) pair only
        }
    }
}

/// Why two corresponding instructions are *not* identical modulo the
/// declared relation, if they aren't.
fn instruction_divergence(
    a: Instr,
    b: Instr,
    base: &VariantArtifact<'_>,
    other: &VariantArtifact<'_>,
    relation: UidTransform,
) -> Option<String> {
    if a.tag != base.spec.tag {
        return Some(format!(
            "tag byte {} does not match the base variant's declared tag {}",
            a.tag, base.spec.tag
        ));
    }
    if b.tag != other.spec.tag {
        return Some(format!(
            "counterpart tag byte {} does not match the other variant's declared tag {}",
            b.tag, other.spec.tag
        ));
    }
    if a.op != b.op {
        return Some(format!("opcode diverges: {} vs counterpart {}", a.op, b.op));
    }
    if a.operand == b.operand {
        return None;
    }
    let related = a.op == Op::Push
        && !relation.is_identity()
        && b.operand == relation.apply(Uid::new(a.operand)).as_u32();
    if related {
        return None;
    }
    Some(format!(
        "operand diverges outside the declared relation: {:#x} vs counterpart {:#x} \
         (uid relation {})",
        a.operand,
        b.operand,
        relation.describe()
    ))
}

/// Resolves a pc to (function, block index, instruction-in-block index).
fn locate(cfgs: &[FunctionCfg], pc: u32) -> (String, Option<usize>, Option<usize>) {
    for cfg in cfgs {
        if pc >= cfg.range.0 && pc < cfg.range.1 {
            if let Some(block) = cfg.block_of(pc) {
                let index = ((pc - cfg.blocks[block].start) / INSTR_SIZE) as usize;
                return (cfg.name.clone(), Some(block), Some(index));
            }
            return (cfg.name.clone(), None, None);
        }
    }
    ("<image>".to_string(), None, None)
}

/// UID-class global words: offset → name, from the declared types plus the
/// AST-level inference.
fn uid_global_words(program: &CompiledProgram, ctx: &UidContext) -> BTreeMap<u32, String> {
    let inferred = ctx.uid_globals();
    program
        .globals_map
        .iter()
        .filter(|(name, (_, ty))| ty.is_uid_class() || inferred.iter().any(|g| g == *name))
        .map(|(name, (off, _))| (*off, name.clone()))
        .collect()
}

/// The initial globals images must be identical except at UID-class words,
/// which must be related by the pairwise UID relation. An *equal, nonzero*
/// UID word under a non-identity relation is an untransformed initializer —
/// a P-Residual at the data segment. (Zero words are indistinguishable from
/// uninitialized storage and pass; runtime assignments cover them.)
fn check_globals_image(
    base: &VariantArtifact<'_>,
    other: &VariantArtifact<'_>,
    ctx: &UidContext,
    relation: UidTransform,
    findings: &mut Vec<Finding>,
) {
    let image_a = &base.program.globals_image;
    let image_b = &other.program.globals_image;
    if image_a.len() != image_b.len() {
        findings.push(Finding {
            property: Property::Lockstep,
            pc: None,
            function: "<image>".to_string(),
            block: None,
            index: None,
            instr: None,
            detail: format!(
                "globals images diverge in length: {} vs {} bytes",
                image_a.len(),
                image_b.len()
            ),
        });
        return;
    }

    let uid_words = uid_global_words(base.program, ctx);
    let word = |image: &[u8], off: u32| {
        let off = off as usize;
        image
            .get(off..off + 4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    };
    for (&off, name) in &uid_words {
        let (Some(a), Some(b)) = (word(image_a, off), word(image_b, off)) else {
            continue;
        };
        let expected = relation.apply(Uid::new(a)).as_u32();
        if b == expected {
            continue;
        }
        if a == b {
            if a == 0 || relation.is_identity() {
                continue;
            }
            findings.push(Finding {
                property: Property::Residual,
                pc: None,
                function: "<image>".to_string(),
                block: None,
                index: None,
                instr: None,
                detail: format!(
                    "UID-class global '{name}' (globals offset {off:#x}) holds the \
                     untransformed initializer {a:#x} in both variants (uid relation {})",
                    relation.describe()
                ),
            });
        } else {
            findings.push(Finding {
                property: Property::Lockstep,
                pc: None,
                function: "<image>".to_string(),
                block: None,
                index: None,
                instr: None,
                detail: format!(
                    "UID-class global '{name}' (globals offset {off:#x}) diverges outside \
                     the declared relation: {a:#x} vs counterpart {b:#x}"
                ),
            });
        }
    }

    // Everything outside UID words must match byte for byte.
    let in_uid_word = |i: usize| {
        uid_words
            .keys()
            .any(|&off| i >= off as usize && i < off as usize + 4)
    };
    if let Some(offset) = image_a
        .iter()
        .zip(image_b)
        .enumerate()
        .position(|(i, (a, b))| a != b && !in_uid_word(i))
    {
        findings.push(Finding {
            property: Property::Lockstep,
            pc: None,
            function: "<image>".to_string(),
            block: None,
            index: None,
            instr: None,
            detail: format!(
                "globals images diverge at non-UID offset {offset:#x}: \
                 {:#04x} vs counterpart {:#04x}",
                image_a[offset], image_b[offset]
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Phase 2: worklist abstract interpretation.
// ---------------------------------------------------------------------------

struct PairContext<'a> {
    base: &'a VariantArtifact<'a>,
    other_stream: &'a [Instr],
    relation: UidTransform,
    /// Offset → name of every UID-class global word.
    uid_globals: BTreeMap<u32, String>,
    /// Code offset → function name, for resolving `Call` targets.
    offsets_to_names: BTreeMap<u32, String>,
}

impl PairContext<'_> {
    /// A constant that is equal across the pair under a non-identity UID
    /// relation cannot have been reexpressed: the residual witness.
    fn residual(&self, v: AbsVal) -> Option<(u32, u32)> {
        if self.relation.is_identity() {
            return None;
        }
        match v {
            AbsVal::Const {
                value,
                counterpart,
                pc,
            } if counterpart == value => Some((value, pc)),
            _ => None,
        }
    }

    /// The reexpression domain a UID-position value sits in, when known.
    /// `None` (Top, addresses, taint) is excluded from the boundary check.
    fn domain(&self, v: AbsVal) -> Option<&'static str> {
        match v {
            _ if self.relation.is_identity() => match v {
                AbsVal::Const { .. } | AbsVal::UidClass(_) => Some("canonical"),
                _ => None,
            },
            AbsVal::UidClass(_) => Some("per-variant"),
            AbsVal::Const {
                value, counterpart, ..
            } => {
                if counterpart == self.relation.apply(Uid::new(value)).as_u32() {
                    Some("per-variant")
                } else {
                    Some("shared")
                }
            }
            _ => None,
        }
    }

    fn function_sig(&self, name: &str) -> Option<&nvariant_vm::FunctionSig> {
        self.base.program.type_info.functions.get(name)
    }
}

/// Abstract machine state at one program point.
#[derive(Clone, Debug, PartialEq)]
struct State {
    stack: Vec<AbsVal>,
    locals: BTreeMap<u32, AbsVal>,
}

impl State {
    fn join(&self, other: &State) -> State {
        // Operand stacks align from the top; compiler-generated code keeps
        // heights equal at joins, but injected or hand-built images may not
        // — align the common suffix and drop the rest (absent = Top-ish,
        // but a shorter stack is the safe degraded answer).
        let keep = self.stack.len().min(other.stack.len());
        let stack = self.stack[self.stack.len() - keep..]
            .iter()
            .zip(&other.stack[other.stack.len() - keep..])
            .map(|(a, b)| a.join(*b))
            .collect();
        // Locals absent from either side are Top and drop out.
        let locals = self
            .locals
            .iter()
            .filter_map(|(k, v)| {
                other
                    .locals
                    .get(k)
                    .map(|o| (*k, v.join(*o)))
                    .filter(|(_, j)| *j != AbsVal::Top)
            })
            .collect();
        State { stack, locals }
    }
}

/// Runs the worklist fixpoint over one function, then a single reporting
/// pass per block so findings are emitted exactly once.
fn interpret_function(
    pair: &PairContext<'_>,
    cfg: &FunctionCfg,
    stream: &[Instr],
    findings: &mut Vec<Finding>,
) {
    if cfg.blocks.is_empty() {
        return;
    }
    let entry = entry_state(pair, cfg);
    let mut in_states: BTreeMap<u32, State> = BTreeMap::new();
    in_states.insert(cfg.blocks[0].start, entry);
    let mut worklist: VecDeque<usize> = VecDeque::from([0]);
    // The lattice is finite-height, but bound the fixpoint defensively: a
    // hostile image cannot loop the verifier.
    let mut budget = cfg.blocks.len() * 64 + 64;

    while let Some(block_index) = worklist.pop_front() {
        if budget == 0 {
            return;
        }
        budget -= 1;
        let block = &cfg.blocks[block_index];
        let Some(state) = in_states.get(&block.start).cloned() else {
            continue;
        };
        let out = transfer_block(pair, cfg, block_index, state, stream, None);
        for &succ in &block.succs {
            let joined = match in_states.get(&succ) {
                Some(existing) => existing.join(&out),
                None => out.clone(),
            };
            if in_states.get(&succ) != Some(&joined) {
                in_states.insert(succ, joined);
                if let Some(index) = cfg.blocks.iter().position(|b| b.start == succ) {
                    worklist.push_back(index);
                }
            }
        }
    }

    for (block_index, block) in cfg.blocks.iter().enumerate() {
        if let Some(state) = in_states.get(&block.start).cloned() {
            transfer_block(pair, cfg, block_index, state, stream, Some(findings));
        }
    }
}

/// The abstract state on entry to a function: the caller has pushed the
/// arguments (last argument on top), typed from the signature.
fn entry_state(pair: &PairContext<'_>, cfg: &FunctionCfg) -> State {
    let mut stack = Vec::new();
    if let Some(sig) = pair.function_sig(&cfg.name) {
        for param in &sig.params {
            stack.push(if param.is_uid_class() {
                AbsVal::UidClass(pair.base.spec.uid)
            } else {
                AbsVal::Top
            });
        }
    }
    State {
        stack,
        locals: BTreeMap::new(),
    }
}

/// Executes one block abstractly. When `findings` is `Some`, the UID sinks
/// are checked (the reporting pass); the fixpoint pass passes `None`.
fn transfer_block(
    pair: &PairContext<'_>,
    cfg: &FunctionCfg,
    block_index: usize,
    mut state: State,
    stream: &[Instr],
    mut findings: Option<&mut Vec<Finding>>,
) -> State {
    let block = &cfg.blocks[block_index];
    for (index, stream_index) in block.instr_range().enumerate() {
        let instr = stream[stream_index];
        let pc = stream_index as u32 * INSTR_SIZE;
        let pop = |state: &mut State| state.stack.pop().unwrap_or(AbsVal::Top);
        match instr.op {
            Op::Nop | Op::Enter | Op::Jmp | Op::Ret | Op::Halt => {}
            Op::Push => {
                let counterpart = pair
                    .other_stream
                    .get(stream_index)
                    .map_or(instr.operand, |b| b.operand);
                state.stack.push(AbsVal::Const {
                    value: instr.operand,
                    counterpart,
                    pc,
                });
            }
            Op::LoadG => {
                let loaded = if pair.uid_globals.contains_key(&instr.operand) {
                    AbsVal::UidClass(pair.base.spec.uid)
                } else {
                    AbsVal::Top
                };
                state.stack.push(loaded);
            }
            Op::StoreG => {
                let value = pop(&mut state);
                if let Some(name) = pair.uid_globals.get(&instr.operand) {
                    if let (Some((residual, def_pc)), Some(findings)) =
                        (pair.residual(value), findings.as_deref_mut())
                    {
                        findings.push(Finding {
                            property: Property::Residual,
                            pc: Some(def_pc),
                            function: cfg.name.clone(),
                            block: Some(block_index),
                            index: Some(index),
                            instr: Some(instr),
                            detail: format!(
                                "UID-class constant {residual:#x} (defined at pc {def_pc:#010x}) \
                                 is stored to UID global '{name}' untransformed in both variants \
                                 (uid relation {}); lattice: {value}",
                                pair.relation.describe()
                            ),
                        });
                    }
                }
            }
            Op::LoadL => {
                let loaded = state
                    .locals
                    .get(&instr.operand)
                    .copied()
                    .unwrap_or(AbsVal::Top);
                state.stack.push(loaded);
            }
            Op::StoreL => {
                let value = pop(&mut state);
                state.locals.insert(instr.operand, value);
            }
            Op::LoadW | Op::LoadB => {
                let addr = pop(&mut state);
                // Indirect loads widen (soundness caveat); taint sticks.
                state.stack.push(if addr.is_tainted() {
                    AbsVal::Tainted
                } else {
                    AbsVal::Top
                });
            }
            Op::StoreW | Op::StoreB => {
                let _addr = pop(&mut state);
                let _value = pop(&mut state);
                // Indirect stores widen: not checked (documented caveat).
            }
            Op::LeaG => state.stack.push(AbsVal::AddrClass(Region::Globals)),
            Op::LeaL => state.stack.push(AbsVal::AddrClass(Region::Stack)),
            Op::Add
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
                let rhs = pop(&mut state);
                let lhs = pop(&mut state);
                state.stack.push(if lhs.is_tainted() || rhs.is_tainted() {
                    AbsVal::Tainted
                } else {
                    AbsVal::Top
                });
            }
            Op::Neg | Op::Not | Op::BitNot => {
                let value = pop(&mut state);
                state.stack.push(if value.is_tainted() {
                    AbsVal::Tainted
                } else {
                    AbsVal::Top
                });
            }
            Op::Jz | Op::Jnz => {
                let _cond = pop(&mut state);
            }
            Op::Call => {
                let callee = pair.offsets_to_names.get(&instr.operand).cloned();
                let sig = callee.as_deref().and_then(|name| pair.function_sig(name));
                if let (Some(callee), Some(sig)) = (callee.as_deref(), sig) {
                    let argc = sig.params.len();
                    let mut args = Vec::with_capacity(argc);
                    for _ in 0..argc {
                        args.push(pop(&mut state));
                    }
                    args.reverse();
                    if let Some(findings) = findings.as_deref_mut() {
                        for (position, (arg, ty)) in args.iter().zip(&sig.params).enumerate() {
                            if !ty.is_uid_class() {
                                continue;
                            }
                            if let Some((residual, def_pc)) = pair.residual(*arg) {
                                findings.push(Finding {
                                    property: Property::Residual,
                                    pc: Some(def_pc),
                                    function: cfg.name.clone(),
                                    block: Some(block_index),
                                    index: Some(index),
                                    instr: Some(instr),
                                    detail: format!(
                                        "UID-class constant {residual:#x} (defined at pc \
                                             {def_pc:#010x}) reaches uid_t parameter {position} \
                                             of {callee} untransformed in both variants \
                                             (uid relation {}); lattice: {arg}",
                                        pair.relation.describe()
                                    ),
                                });
                            }
                        }
                    }
                    state.stack.push(if sig.ret.is_uid_class() {
                        AbsVal::UidClass(pair.base.spec.uid)
                    } else {
                        AbsVal::Top
                    });
                } else {
                    // Unknown call target: no reliable arity. Degrade
                    // the whole frame rather than misalign the stack.
                    for slot in &mut state.stack {
                        *slot = AbsVal::Top;
                    }
                    state.locals.clear();
                }
            }
            Op::CallPtr => {
                // Never compiler-emitted; an indirect call could do
                // anything, so widen everything reachable.
                let _target = pop(&mut state);
                for slot in &mut state.stack {
                    *slot = AbsVal::Top;
                }
                state.locals.clear();
                state.stack.push(AbsVal::Top);
            }
            Op::Syscall => {
                syscall_transfer(
                    pair,
                    cfg,
                    block_index,
                    index,
                    instr,
                    pc,
                    &mut state,
                    &mut findings,
                );
            }
            Op::Dup => {
                let top = pop(&mut state);
                state.stack.push(top);
                state.stack.push(top);
            }
            Op::Pop => {
                let _ = pop(&mut state);
            }
            Op::Swap => {
                let a = pop(&mut state);
                let b = pop(&mut state);
                state.stack.push(a);
                state.stack.push(b);
            }
            // `Op` is non-exhaustive, but decode only produces the variants
            // above — an unknown opcode byte already failed phase 1.
            _ => {}
        }
    }
    state
}

/// Pops a syscall's arguments, checks P-Residual and P-Boundary on the
/// UID-class positions, and pushes the abstract result.
#[allow(clippy::too_many_arguments)]
fn syscall_transfer(
    pair: &PairContext<'_>,
    cfg: &FunctionCfg,
    block_index: usize,
    index: usize,
    instr: Instr,
    pc: u32,
    state: &mut State,
    findings: &mut Option<&mut Vec<Finding>>,
) {
    let sysno = Sysno::from_u32(instr.operand >> 8);
    let argc = (instr.operand & 0xFF) as usize;
    let mut args = Vec::with_capacity(argc);
    for _ in 0..argc {
        args.push(state.stack.pop().unwrap_or(AbsVal::Top));
    }
    args.reverse();

    if let (Some(sysno), Some(findings)) = (sysno, findings.as_deref_mut()) {
        for &position in sysno.uid_arg_positions() {
            let Some(&arg) = args.get(position) else {
                continue;
            };
            if let Some((residual, def_pc)) = pair.residual(arg) {
                findings.push(Finding {
                    property: Property::Residual,
                    pc: Some(def_pc),
                    function: cfg.name.clone(),
                    block: Some(block_index),
                    index: Some(index),
                    instr: Some(instr),
                    detail: format!(
                        "UID-class constant {residual:#x} (defined at pc {def_pc:#010x}) \
                         reaches {} argument {position} untransformed in both variants \
                         (uid relation {}); lattice: {arg}",
                        sysno.name(),
                        pair.relation.describe()
                    ),
                });
            }
        }
        let mut domains: Vec<(&'static str, usize)> = Vec::new();
        for &position in sysno.uid_arg_positions() {
            let Some(&arg) = args.get(position) else {
                continue;
            };
            if let Some(domain) = pair.domain(arg) {
                if !domains.iter().any(|(d, _)| *d == domain) {
                    domains.push((domain, position));
                }
            }
        }
        if domains.len() > 1 {
            let described: Vec<String> = sysno
                .uid_arg_positions()
                .iter()
                .filter_map(|&position| {
                    let arg = args.get(position)?;
                    let domain = pair.domain(*arg)?;
                    Some(format!("arg {position} {domain} ({arg})"))
                })
                .collect();
            findings.push(Finding {
                property: Property::Boundary,
                pc: Some(pc),
                function: cfg.name.clone(),
                block: Some(block_index),
                index: Some(index),
                instr: Some(instr),
                detail: format!(
                    "{} mixes reexpression domains across its UID-class arguments: {}",
                    sysno.name(),
                    described.join(", ")
                ),
            });
        }
    }

    let result = match sysno {
        Some(sysno) if sysno.returns_uid() => AbsVal::UidClass(pair.base.spec.uid),
        Some(sysno) if sysno.is_input() => AbsVal::Tainted,
        _ => AbsVal::Top,
    };
    state.stack.push(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_diversity::{AddressTransform, VariantSpec};
    use nvariant_transform::{TransformOptions, UidTransformer};
    use nvariant_vm::{compile_program, parse_program, CompiledProgram, MemoryLayout};
    use std::sync::Arc;

    const SRC: &str = r"
        var server_uid: uid_t = 48;
        var hits: int = 0;

        fn main() -> int {
            var root: uid_t;
            root = getuid();
            if (server_uid == 0) { return 2; }
            if (server_uid == root) { hits = hits + 1; }
            setuid(server_uid);
            return 0;
        }
    ";

    fn compile_pair(options: TransformOptions) -> (CompiledProgram, CompiledProgram, UidContext) {
        compile_pair_of(SRC, options)
    }

    fn compile_pair_of(
        src: &str,
        options: TransformOptions,
    ) -> (CompiledProgram, CompiledProgram, UidContext) {
        let program = parse_program(src).unwrap();
        let transformer = UidTransformer::new(options);
        let variants = transformer
            .transform_for_variants(
                &program,
                &[UidTransform::Identity, UidTransform::paper_mask()],
            )
            .unwrap();
        let ctx = UidContext::analyze(&variants[0].program).unwrap();
        let a = compile_program(&variants[0].program).unwrap();
        let b = compile_program(&variants[1].program).unwrap();
        (a, b, ctx)
    }

    fn base_spec() -> VariantSpec {
        VariantSpec::identity()
    }

    fn other_spec() -> VariantSpec {
        VariantSpec::identity()
            .with_uid(UidTransform::paper_mask())
            .with_tag(1)
    }

    #[test]
    fn correctly_transformed_pair_is_clean() {
        let (a, b, ctx) = compile_pair(TransformOptions::default());
        let base = VariantArtifact::new(&a, MemoryLayout::default(), base_spec());
        let other = VariantArtifact::new(&b, MemoryLayout::default(), other_spec());
        let report = analyze_pair(&base, &other, &ctx);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.functions >= 2, "main + <start>");
        assert!(report.instructions > 10);
    }

    #[test]
    fn pair_with_itself_under_identity_relation_is_clean() {
        let (a, _, ctx) = compile_pair(TransformOptions::default());
        let base = VariantArtifact::new(&a, MemoryLayout::default(), base_spec());
        let report = analyze_pair(&base, &base.clone(), &ctx);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.relation, UidTransform::Identity);
    }

    #[test]
    fn partitioned_layouts_satisfy_the_declared_address_relation() {
        let (a, b, ctx) = compile_pair(TransformOptions::default());
        let base = VariantArtifact::new(&a, MemoryLayout::default(), base_spec());
        let other = VariantArtifact::new(
            &b,
            MemoryLayout::default().with_partition_bit(),
            other_spec().with_addr(AddressTransform::PartitionHigh),
        );
        let report = analyze_pair(&base, &other, &ctx);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn undeclared_layout_shift_is_a_lockstep_finding() {
        let (a, b, ctx) = compile_pair(TransformOptions::default());
        let base = VariantArtifact::new(&a, MemoryLayout::default(), base_spec());
        // The spec claims a partitioned address space but the layout is
        // the canonical one.
        let other = VariantArtifact::new(
            &b,
            MemoryLayout::default(),
            other_spec().with_addr(AddressTransform::PartitionHigh),
        );
        let report = analyze_pair(&base, &other, &ctx);
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .all(|f| f.property == Property::Lockstep));
        assert!(report.findings[0].detail.contains("layout code_base"));
    }

    #[test]
    fn mis_stamped_tag_is_a_lockstep_finding() {
        let (a, b, ctx) = compile_pair(TransformOptions::default());
        let base = VariantArtifact::new(&a, MemoryLayout::default(), base_spec());
        // The image is stamped with tag 1 but the spec claims tag 2.
        let mut other = VariantArtifact::new(&b, MemoryLayout::default(), other_spec());
        other.spec = other.spec.with_tag(2);
        let report = analyze_pair(&base, &other, &ctx);
        assert!(!report.is_clean());
        let first = &report.findings[0];
        assert_eq!(first.property, Property::Lockstep);
        assert_eq!(first.pc, Some(0), "first divergence is the first slot");
        assert!(first.detail.contains("tag byte"));
    }

    #[test]
    fn operand_drift_outside_the_relation_is_a_lockstep_finding() {
        let program = parse_program(SRC).unwrap();
        let transformer = UidTransformer::default();
        let variants = transformer
            .transform_for_variants(
                &program,
                // The second variant was built with the *full* mask...
                &[UidTransform::Identity, UidTransform::full_mask()],
            )
            .unwrap();
        let ctx = UidContext::analyze(&variants[0].program).unwrap();
        let a = compile_program(&variants[0].program).unwrap();
        let b = compile_program(&variants[1].program).unwrap();
        let base = VariantArtifact::new(&a, MemoryLayout::default(), base_spec());
        // ...but its spec claims the paper mask.
        let other = VariantArtifact::new(&b, MemoryLayout::default(), other_spec());
        let report = analyze_pair(&base, &other, &ctx);
        assert!(!report.is_clean());
        let first = &report.findings[0];
        assert_eq!(first.property, Property::Lockstep);
        assert!(
            first.detail.contains("outside the declared relation"),
            "{}",
            first.detail
        );
        assert!(first.block.is_some() && first.index.is_some());
    }

    #[test]
    fn weakened_transform_surfaces_residual_and_boundary_findings() {
        let (a, b, ctx) = compile_pair(TransformOptions {
            skip_reexpression_globals: vec!["server_uid".to_string()],
            ..TransformOptions::default()
        });
        let base = VariantArtifact::new(&a, MemoryLayout::default(), base_spec());
        let other = VariantArtifact::new(&b, MemoryLayout::default(), other_spec());
        let report = analyze_pair(&base, &other, &ctx);
        assert!(!report.is_clean());
        // The untransformed `server_uid == 0` comparison leaves a canonical
        // 0 reaching the cc_eq reexpression boundary: a P-Residual anchored
        // to the defining Push, plus a P-Boundary at the syscall.
        let residual = report
            .findings
            .iter()
            .find(|f| f.property == Property::Residual && f.pc.is_some())
            .unwrap_or_else(|| panic!("no code-level residual:\n{}", report.render()));
        assert!(residual.detail.contains("cc_eq"), "{}", residual.detail);
        assert_eq!(residual.function, "main");
        assert!(report
            .findings
            .iter()
            .any(|f| f.property == Property::Boundary));
        // The skipped global's initializer (48 in both images) is the
        // data-segment residual.
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.property == Property::Residual
                    && f.pc.is_none()
                    && f.detail.contains("server_uid")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn undecodable_slot_reports_like_the_interpreter() {
        let (a, _, ctx) = compile_pair(TransformOptions::default());
        let base = VariantArtifact::new(&a, MemoryLayout::default(), base_spec());
        let mut corrupt = base.clone();
        let mut bytes = corrupt.image.to_vec();
        bytes[1] = 0xFF; // opcode byte of slot 0
        corrupt.image = bytes.into();
        let report = analyze_pair(&corrupt, &base, &ctx);
        assert!(!report.is_clean());
        let first = &report.findings[0];
        assert_eq!(first.property, Property::Lockstep);
        assert_eq!(first.pc, Some(0));
        assert!(
            first
                .detail
                .contains("illegal instruction at 0x00000000: raw bytes"),
            "{}",
            first.detail
        );
    }

    /// The image of `variant` with slot `slot` replaced by `instr`, stamped
    /// with the variant's tag.
    fn with_slot(variant: &VariantArtifact<'_>, slot: usize, instr: Instr) -> Arc<[u8]> {
        let mut bytes = variant.image.to_vec();
        let at = slot * INSTR_SIZE as usize;
        let instr = Instr {
            tag: variant.spec.tag,
            ..instr
        };
        bytes[at..at + INSTR_SIZE as usize].copy_from_slice(&instr.encode());
        bytes.into()
    }

    #[test]
    fn a_jump_into_the_middle_of_a_slot_is_a_lockstep_finding_at_the_jump() {
        let program = parse_program(
            "fn main() -> int { var i: int = 0; while (i < 3) { i = i + 1; } return i; }",
        )
        .unwrap();
        let compiled = compile_program(&program).unwrap();
        let ctx = UidContext::analyze(&program).unwrap();
        let base = VariantArtifact::new(&compiled, MemoryLayout::default(), base_spec());
        let mut corrupt = base.clone();
        corrupt.image = with_slot(&base, 1, Instr::new(Op::Jmp, 3));
        let report = analyze_pair(&corrupt, &base, &ctx);
        let first = &report.findings[0];
        assert_eq!(first.property, Property::Lockstep);
        assert_eq!(first.pc, Some(INSTR_SIZE));
        assert_eq!(first.function, "<start>");
        assert!(
            first
                .detail
                .contains("jump target 0x3 lies inside the slot at 0x0"),
            "{}",
            first.detail
        );

        // A function entry less than one slot in: no blocks, no panic.
        let (mut a, mut b, ctx) = compile_pair_of(
            "fn main() -> int { return 0; }",
            TransformOptions::default(),
        );
        for program in [&mut a, &mut b] {
            program.functions = Arc::new(BTreeMap::from([("main".to_string(), 3)]));
        }
        let base = VariantArtifact::new(&a, MemoryLayout::default(), base_spec());
        let other = VariantArtifact::new(&b, MemoryLayout::default(), other_spec());
        let report = analyze_pair(&base, &other, &ctx);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.functions, 2);
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

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A transformed pair with calls, loops, branches and UID sinks, for
    /// the mutation test.
    const MUTATED: &str = r"
        var server_uid: uid_t = 48;
        var hits: int = 0;

        fn drop_to(uid: uid_t) -> int {
            if (uid == 0) { return 1; }
            return setuid(uid);
        }

        fn main() -> int {
            var i: int = 0;
            var root: uid_t;
            root = getuid();
            while (i < 3) {
                if (server_uid == root) { hits = hits + 1; } else { hits = hits + 2; }
                i = i + 1;
            }
            return drop_to(server_uid);
        }
    ";

    #[test]
    fn mutated_images_are_reported_without_panicking() {
        let (a, b, ctx) = compile_pair_of(MUTATED, TransformOptions::default());
        let pair = [
            VariantArtifact::new(&a, MemoryLayout::default(), base_spec()),
            VariantArtifact::new(&b, MemoryLayout::default(), other_spec()),
        ];
        let slot = INSTR_SIZE as usize;
        let slots = pair[0].image.len() / slot;
        let mut rng = Rng(20);
        let mut misaligned = 0;
        for case in 0..1_500 {
            let side = case % 2;
            let mut mutant = pair[side].clone();
            let mut bytes = mutant.image.to_vec();
            for _ in 0..=rng.below(3) {
                let at = rng.below(slots) * slot;
                match rng.below(3) {
                    // Rewrite an operand.
                    0 => {
                        let operand = rng.next() as u32;
                        bytes[at + 2..at + slot].copy_from_slice(&operand.to_le_bytes());
                    }
                    // Copy another slot's opcode.
                    1 => bytes[at + 1] = bytes[rng.below(slots) * slot + 1],
                    // Aim a jump at an in-range offset, on a slot boundary
                    // or not.
                    _ => {
                        let op = [Op::Jmp, Op::Jz, Op::Jnz][rng.below(3)];
                        let target = rng.below(bytes.len()) as u32;
                        let target = if rng.below(2) == 0 {
                            target - target % INSTR_SIZE
                        } else {
                            target
                        };
                        bytes[at + 1] = op.as_u8();
                        bytes[at + 2..at + slot].copy_from_slice(&target.to_le_bytes());
                    }
                }
            }
            mutant.image = bytes.into();
            let report = if side == 0 {
                analyze_pair(&mutant, &pair[1], &ctx)
            } else {
                analyze_pair(&pair[0], &mutant, &ctx)
            };
            for pc in (0..mutant.image.len() as u32).step_by(slot) {
                let Ok(instr) = decode_slot_at(&mutant.image, pc) else {
                    continue;
                };
                let target = instr.operand;
                if is_jump(instr.op)
                    && (target as usize) < mutant.image.len()
                    && !target.is_multiple_of(INSTR_SIZE)
                {
                    misaligned += 1;
                    assert!(
                        report
                            .findings
                            .iter()
                            .any(|f| f.property == Property::Lockstep
                                && f.pc == Some(pc)
                                && f.detail.contains("inside the slot")),
                        "case {case}: jump at {pc:#x} to {target:#x} unreported\n{}",
                        report.render()
                    );
                }
            }
        }
        assert!(misaligned > 100, "only {misaligned} misaligned jumps drawn");
    }
}
