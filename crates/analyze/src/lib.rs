//! Static diversity verifier over compiled variant pairs.
//!
//! The paper's security argument (§3) rests on variants differing *only and
//! everywhere* in the diversified data: one UID constant the transform
//! missed is a blind spot where an attack corrupts every variant identically
//! and no divergence fires. The AST-level inference
//! (`nvariant_transform::UidContext`) finds the UID data class, but nothing
//! downstream of it is checked — the transform passes, the compiler and the
//! predecoder are trusted blindly. This crate closes that gap by verifying
//! the **compiled artifacts**:
//!
//! 1. a control-flow graph is reconstructed from each variant's decoded
//!    instruction stream ([`cfg`](mod@cfg)),
//! 2. a worklist abstract interpretation runs over stack slots, locals and
//!    globals with the small value lattice of [`lattice::AbsVal`]
//!    (`Top / Const / UidClass / AddrClass / Tainted`), seeded from the
//!    [`UidContext`](nvariant_transform::UidContext) and the pair's
//!    [`VariantSpec`]s, and
//! 3. three properties are checked with precise diagnostics
//!    ([`report::Finding`] carries the pc, the decoded instruction, the
//!    enclosing function and the lattice state):
//!
//! * **P-Lockstep** — the variants' CFGs are isomorphic and corresponding
//!   instructions are identical *modulo the declared relation* (tag byte,
//!   UID xor mask, address partition displacement); the first diverging
//!   (block, index) pair is reported.
//! * **P-Residual** — no UID-class constant reaches memory or a
//!   `setuid`-like syscall argument untransformed in a variant whose spec
//!   says it must be reexpressed.
//! * **P-Boundary** — every syscall's UID-class arguments sit consistently
//!   in exactly one reexpression domain: the static mirror of the monitor's
//!   runtime boundary check.
//!
//! Undecodable instruction slots are reported through
//! [`nvariant_vm::DecodeFailure`], the same helper the interpreter's fetch
//! fallback uses, so a bad opcode byte renders identically at verify time
//! and at run time.

pub mod absint;
pub mod cfg;
pub mod lattice;
pub mod report;

pub use absint::analyze_pair;
pub use cfg::{build_cfgs, BasicBlock, FunctionCfg};
pub use lattice::{AbsVal, Region};
pub use report::{combined_verdict, verdict_is_clean, AnalysisReport, Finding, Property};

use nvariant_diversity::{UidTransform, VariantSpec};
use nvariant_vm::{CompiledProgram, MemoryLayout};

/// A compiled variant as the verifier sees it: the program, the retagged
/// code image the variant actually maps, the memory layout it was linked
/// against, and the diversity spec it claims to implement. (The core
/// crate's `CompiledVariant` is crate-private; this is the analysis-facing
/// view of the same data.)
#[derive(Clone, Debug)]
pub struct VariantArtifact<'a> {
    /// The compiled program (globals image, symbol maps, type info).
    pub program: &'a CompiledProgram,
    /// The code image restamped with the variant's tag — the bytes a
    /// process of this variant executes, which is what gets verified.
    pub image: std::sync::Arc<[u8]>,
    /// The memory layout the variant runs under.
    pub layout: MemoryLayout,
    /// The diversity spec this variant claims to implement.
    pub spec: VariantSpec,
}

impl<'a> VariantArtifact<'a> {
    /// Builds the verifier's view of one variant, restamping the code image
    /// with the spec's tag exactly as process instantiation does.
    #[must_use]
    pub fn new(program: &'a CompiledProgram, layout: MemoryLayout, spec: VariantSpec) -> Self {
        VariantArtifact {
            image: program.retagged_image(spec.tag),
            program,
            layout,
            spec,
        }
    }
}

/// The pairwise UID relation between two variants: the single xor mask that
/// maps one variant's reexpressed constants onto the other's. Composes
/// generally because every supported reexpression is xor-based.
#[must_use]
pub fn pair_relation(base: UidTransform, other: UidTransform) -> UidTransform {
    let mask = |t: UidTransform| match t {
        UidTransform::Identity => 0,
        UidTransform::Xor(mask) => mask,
    };
    let combined = mask(base) ^ mask(other);
    if combined == 0 {
        UidTransform::Identity
    } else {
        UidTransform::Xor(combined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_relation_composes_masks() {
        assert_eq!(
            pair_relation(UidTransform::Identity, UidTransform::Identity),
            UidTransform::Identity
        );
        assert_eq!(
            pair_relation(UidTransform::Identity, UidTransform::paper_mask()),
            UidTransform::paper_mask()
        );
        assert_eq!(
            pair_relation(UidTransform::paper_mask(), UidTransform::paper_mask()),
            UidTransform::Identity
        );
        assert_eq!(
            pair_relation(UidTransform::Xor(0xFF), UidTransform::Xor(0x0F)),
            UidTransform::Xor(0xF0)
        );
    }
}
