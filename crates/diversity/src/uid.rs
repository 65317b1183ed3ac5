//! Reexpression functions for UID-class data.

use nvariant_types::{Uid, Word};
use std::fmt;

/// The reexpression mask used by the paper's UID variation
/// (`R₁(u) = u ⊕ 0x7FFFFFFF`).
///
/// The high bit is deliberately left unflipped because the kernel treats
/// negative UID values as special cases (§3.2); the price is susceptibility
/// to a *single-bit* overwrite of the high bit, which the paper argues is
/// outside the realistic remote-attacker threat model.
pub const PAPER_UID_MASK: u32 = 0x7FFF_FFFF;

/// The "ideal" mask that flips every bit (`R₁(u) = u ⊕ 0xFFFFFFFF`),
/// discussed and rejected in §3.2 of the paper.
pub const FULL_UID_MASK: u32 = 0xFFFF_FFFF;

/// A reexpression function over UID-class values.
///
/// All supported reexpressions are XOR-based, so the function is its own
/// inverse; the [`UidTransform::invert`] method is still distinct in the API
/// because the *model* distinguishes `R` from `R⁻¹` and other reexpression
/// families (e.g. additive ones) would not be involutions.
///
/// # Example
///
/// ```
/// use nvariant_diversity::UidTransform;
/// use nvariant_types::Uid;
///
/// let r1 = UidTransform::paper_mask();
/// let reexpressed = r1.apply(Uid::new(48));
/// assert_eq!(reexpressed.as_u32(), 48 ^ 0x7FFF_FFFF);
/// assert_eq!(r1.invert(reexpressed), Uid::new(48));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum UidTransform {
    /// The identity reexpression (used by variant 0).
    #[default]
    Identity,
    /// XOR with a fixed mask.
    Xor(u32),
}

impl UidTransform {
    /// The paper's `R₁`: XOR with [`PAPER_UID_MASK`].
    #[must_use]
    pub fn paper_mask() -> Self {
        UidTransform::Xor(PAPER_UID_MASK)
    }

    /// The full bit-flip discussed in §3.2: XOR with [`FULL_UID_MASK`].
    #[must_use]
    pub fn full_mask() -> Self {
        UidTransform::Xor(FULL_UID_MASK)
    }

    /// Applies the reexpression function `R` to a canonical UID.
    #[must_use]
    pub fn apply(&self, uid: Uid) -> Uid {
        match self {
            UidTransform::Identity => uid,
            UidTransform::Xor(mask) => uid.xor(*mask),
        }
    }

    /// Applies the inverse reexpression function `R⁻¹` to a concrete
    /// (variant-local) UID, recovering the canonical value.
    #[must_use]
    pub fn invert(&self, uid: Uid) -> Uid {
        // XOR reexpressions are involutions.
        self.apply(uid)
    }

    /// Applies `R` to a raw machine word holding a UID.
    #[must_use]
    pub fn apply_word(&self, word: Word) -> Word {
        Word::from_uid(self.apply(word.as_uid()))
    }

    /// Applies `R⁻¹` to a raw machine word holding a UID.
    #[must_use]
    pub fn invert_word(&self, word: Word) -> Word {
        Word::from_uid(self.invert(word.as_uid()))
    }

    /// Returns `true` if this transform is the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        matches!(self, UidTransform::Identity) || matches!(self, UidTransform::Xor(0))
    }

    /// Human-readable description of `R`, as in Table 1 of the paper.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            UidTransform::Identity => "R(u) = u".to_string(),
            UidTransform::Xor(mask) => format!("R(u) = u \u{2295} {mask:#010X}"),
        }
    }

    /// Human-readable description of `R⁻¹`.
    #[must_use]
    pub fn describe_inverse(&self) -> String {
        match self {
            UidTransform::Identity => "R\u{207b}\u{00b9}(u) = u".to_string(),
            UidTransform::Xor(mask) => {
                format!("R\u{207b}\u{00b9}(u) = u \u{2295} {mask:#010X}")
            }
        }
    }
}

impl fmt::Display for UidTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_is_identity() {
        let r = UidTransform::Identity;
        for raw in [0u32, 1, 48, 1000, u32::MAX] {
            assert_eq!(r.apply(Uid::new(raw)), Uid::new(raw));
            assert_eq!(r.invert(Uid::new(raw)), Uid::new(raw));
        }
        assert!(r.is_identity());
        assert!(UidTransform::Xor(0).is_identity());
        assert!(!UidTransform::paper_mask().is_identity());
    }

    #[test]
    fn paper_mask_maps_root_to_all_low_bits() {
        let r1 = UidTransform::paper_mask();
        assert_eq!(r1.apply(Uid::ROOT).as_u32(), 0x7FFF_FFFF);
        assert_eq!(r1.apply(Uid::new(48)).as_u32(), 0x7FFF_FFCF);
        // High bit is preserved (the §3.2 caveat).
        assert_eq!(
            r1.apply(Uid::new(0x8000_0000)).as_u32() & 0x8000_0000,
            0x8000_0000
        );
    }

    #[test]
    fn full_mask_flips_every_bit() {
        let r = UidTransform::full_mask();
        assert_eq!(r.apply(Uid::ROOT).as_u32(), u32::MAX);
        assert_eq!(r.apply(Uid::new(u32::MAX)), Uid::ROOT);
    }

    #[test]
    fn word_view_matches_uid_view() {
        let r1 = UidTransform::paper_mask();
        let word = Word::from_u32(48);
        assert_eq!(r1.apply_word(word).as_u32(), 48 ^ 0x7FFF_FFFF);
        assert_eq!(r1.invert_word(r1.apply_word(word)), word);
    }

    #[test]
    fn descriptions_match_table_1() {
        assert_eq!(UidTransform::Identity.describe(), "R(u) = u");
        assert!(UidTransform::paper_mask().describe().contains("0x7FFFFFFF"));
        assert!(UidTransform::paper_mask()
            .describe_inverse()
            .contains("0x7FFFFFFF"));
        assert_eq!(format!("{}", UidTransform::Identity), "R(u) = u");
    }

    proptest! {
        /// Inverse property (§2.2, property 3): ∀x, R⁻¹(R(x)) ≡ x.
        #[test]
        fn prop_inverse_property(raw in any::<u32>(), mask in any::<u32>()) {
            let r = UidTransform::Xor(mask);
            prop_assert_eq!(r.invert(r.apply(Uid::new(raw))), Uid::new(raw));
            let id = UidTransform::Identity;
            prop_assert_eq!(id.invert(id.apply(Uid::new(raw))), Uid::new(raw));
        }

        /// Disjointedness (§2.3): with a non-zero mask, the two inverse
        /// functions never agree on any concrete value.
        #[test]
        fn prop_disjointedness_of_paper_pair(raw in any::<u32>()) {
            let r0 = UidTransform::Identity;
            let r1 = UidTransform::paper_mask();
            prop_assert_ne!(r0.invert(Uid::new(raw)), r1.invert(Uid::new(raw)));
        }

        /// The reexpressed value always differs from the canonical value for
        /// non-trivial masks (flipping bits always changes the value).
        #[test]
        fn prop_reexpression_changes_value(raw in any::<u32>()) {
            let r1 = UidTransform::paper_mask();
            prop_assert_ne!(r1.apply(Uid::new(raw)), Uid::new(raw));
            let rf = UidTransform::full_mask();
            prop_assert_ne!(rf.apply(Uid::new(raw)), Uid::new(raw));
        }
    }
}
