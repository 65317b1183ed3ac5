//! Canonicalization: mapping variant-local concrete values back to the
//! canonical representation for comparison.
//!
//! The paper's normal-equivalence argument (§2.2) relies on a
//! *canonicalization function* that maps the states of all variants onto a
//! common canonical state. The monitor only ever compares canonicalized
//! values: raw values legitimately differ between variants (that is the
//! whole point of the diversity), and it is their canonical meanings that
//! must agree.

use crate::spec::VariantSpec;
use nvariant_types::Word;

/// The data class of a system-call argument, which determines which inverse
/// reexpression function the monitor applies before comparing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// UID/GID values: canonicalized with the UID inverse reexpression.
    Uid,
    /// Pointers into variant memory: canonicalized with the address inverse
    /// reexpression.
    Address,
    /// Everything else: compared verbatim.
    Opaque,
}

/// Applies the inverse reexpression functions of one variant.
///
/// # Example
///
/// ```
/// use nvariant_diversity::{Canonicalizer, UidTransform, VariantSpec};
/// use nvariant_diversity::canonical::DataClass;
/// use nvariant_types::Word;
///
/// let spec = VariantSpec::identity().with_uid(UidTransform::paper_mask());
/// let canon = Canonicalizer::new(spec);
/// // The variant's representation of root (0x7FFFFFFF) canonicalizes to 0.
/// let root = Word::from_u32(0x7FFF_FFFF);
/// assert_eq!(canon.canonical(root, DataClass::Uid), Word::ZERO);
/// // Opaque data passes through untouched.
/// assert_eq!(canon.canonical(root, DataClass::Opaque), root);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Canonicalizer {
    spec: VariantSpec,
}

impl Canonicalizer {
    /// Creates a canonicalizer for one variant's specification.
    #[must_use]
    pub fn new(spec: VariantSpec) -> Self {
        Canonicalizer { spec }
    }

    /// The variant specification this canonicalizer inverts.
    #[must_use]
    pub fn spec(&self) -> &VariantSpec {
        &self.spec
    }

    /// Canonicalizes a UID-class word (applies `R⁻¹` for UID data).
    #[must_use]
    pub fn canonical_uid(&self, word: Word) -> Word {
        self.spec.uid.invert_word(word)
    }

    /// Re-expresses a canonical UID word into this variant's representation
    /// (applies `R` for UID data) — used for system calls that *return* UIDs.
    #[must_use]
    pub fn reexpress_uid(&self, word: Word) -> Word {
        self.spec.uid.apply_word(word)
    }

    /// Canonicalizes an address-class word (applies `R⁻¹` for addresses).
    #[must_use]
    pub fn canonical_addr(&self, word: Word) -> Word {
        Word::from_addr(self.spec.addr.invert(word.as_addr()))
    }

    /// Canonicalizes a word according to its data class.
    #[must_use]
    pub fn canonical(&self, word: Word, class: DataClass) -> Word {
        match class {
            DataClass::Uid => self.canonical_uid(word),
            DataClass::Address => self.canonical_addr(word),
            DataClass::Opaque => word,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddressTransform;
    use crate::uid::UidTransform;
    use proptest::prelude::*;

    fn paper_variant() -> Canonicalizer {
        Canonicalizer::new(VariantSpec::identity().with_uid(UidTransform::paper_mask()))
    }

    fn partitioned_variant() -> Canonicalizer {
        Canonicalizer::new(VariantSpec::identity().with_addr(AddressTransform::PartitionHigh))
    }

    #[test]
    fn uid_canonicalization_round_trips() {
        let canon = paper_variant();
        let canonical = Word::from_u32(48);
        let reexpressed = canon.reexpress_uid(canonical);
        assert_ne!(reexpressed, canonical);
        assert_eq!(canon.canonical_uid(reexpressed), canonical);
        assert_eq!(canon.spec().uid, UidTransform::paper_mask());
    }

    #[test]
    fn address_canonicalization_strips_partition() {
        let canon = partitioned_variant();
        let hi = Word::from_u32(0x8010_0040);
        assert_eq!(canon.canonical_addr(hi).as_u32(), 0x0010_0040);
        assert_eq!(
            canon.canonical(hi, DataClass::Address).as_u32(),
            0x0010_0040
        );
    }

    #[test]
    fn opaque_data_is_untouched() {
        let canon = paper_variant();
        let w = Word::from_u32(0xDEAD_BEEF);
        assert_eq!(canon.canonical(w, DataClass::Opaque), w);
    }

    #[test]
    fn identity_variant_canonicalization_is_identity() {
        let canon = Canonicalizer::new(VariantSpec::identity());
        for raw in [0u32, 48, 0x7FFF_FFFF, u32::MAX] {
            let w = Word::from_u32(raw);
            assert_eq!(canon.canonical(w, DataClass::Uid), w);
            assert_eq!(canon.canonical(w, DataClass::Address), w);
        }
    }

    proptest! {
        /// Normal equivalence at the value level: for any canonical UID, the
        /// two variants' concrete representations differ, yet both
        /// canonicalize back to the same value.
        #[test]
        fn prop_two_variant_uid_agreement(raw in any::<u32>()) {
            let v0 = Canonicalizer::new(VariantSpec::identity());
            let v1 = paper_variant();
            let canonical = Word::from_u32(raw);
            let c0 = v0.reexpress_uid(canonical);
            let c1 = v1.reexpress_uid(canonical);
            prop_assert_ne!(c0, c1);
            prop_assert_eq!(v0.canonical_uid(c0), v1.canonical_uid(c1));
        }

        /// Detection at the value level: a single concrete value injected
        /// into both variants never canonicalizes to the same meaning.
        #[test]
        fn prop_injected_value_diverges(raw in any::<u32>()) {
            let v0 = Canonicalizer::new(VariantSpec::identity());
            let v1 = paper_variant();
            let injected = Word::from_u32(raw);
            prop_assert_ne!(v0.canonical_uid(injected), v1.canonical_uid(injected));
        }
    }
}
