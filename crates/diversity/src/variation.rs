//! The variation catalogue: Table 1 of the paper, plus composition.

use crate::addr::AddressTransform;
use crate::spec::VariantSpec;
use crate::uid::{UidTransform, FULL_UID_MASK, PAPER_UID_MASK};
use std::fmt;

/// A diversity variation: a rule for constructing the reexpression functions
/// of every variant in an N-variant system.
///
/// The first four correspond to the rows of Table 1; [`Variation::Composed`]
/// implements the composition of variations the paper discusses as future
/// work (§5, §7).
///
/// # Example
///
/// ```
/// use nvariant_diversity::Variation;
///
/// let rows = Variation::table1();
/// assert_eq!(rows.len(), 4);
/// assert_eq!(rows[3].variation, "UID Variation");
/// assert!(rows[3].reexpression_p1.contains("0x7FFFFFFF"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Variation {
    /// Address-space partitioning (Cox et al. 2006).
    AddressPartitioning,
    /// Extended address-space partitioning (Bruschi et al. 2007).
    ExtendedAddressPartitioning {
        /// The extra skew added on top of the partition bit.
        offset: u32,
    },
    /// Instruction-set tagging (Cox et al. 2006).
    InstructionTagging,
    /// The UID data variation introduced by this paper.
    UidDiversity {
        /// The XOR mask used by variant 1 (and derived masks for further
        /// variants).
        mask: u32,
    },
    /// Several variations applied simultaneously to the same variants.
    Composed(Vec<Variation>),
}

impl Variation {
    /// Address-space partitioning with the standard partition bit.
    #[must_use]
    pub fn address_partitioning() -> Self {
        Variation::AddressPartitioning
    }

    /// Extended address-space partitioning with the given extra offset.
    #[must_use]
    pub fn extended_address_partitioning(offset: u32) -> Self {
        Variation::ExtendedAddressPartitioning { offset }
    }

    /// Instruction-set tagging.
    #[must_use]
    pub fn instruction_tagging() -> Self {
        Variation::InstructionTagging
    }

    /// The paper's UID variation (`R₁(u) = u ⊕ 0x7FFFFFFF`).
    #[must_use]
    pub fn uid_diversity() -> Self {
        Variation::UidDiversity {
            mask: PAPER_UID_MASK,
        }
    }

    /// The full-bit-flip UID variation discussed and rejected in §3.2
    /// (`R₁(u) = u ⊕ 0xFFFFFFFF`), kept for the ablation study.
    #[must_use]
    pub fn uid_diversity_full_mask() -> Self {
        Variation::UidDiversity {
            mask: FULL_UID_MASK,
        }
    }

    /// Composes several variations (e.g. address partitioning **and** UID
    /// diversity in the same pair of variants).
    #[must_use]
    pub fn composed(parts: Vec<Variation>) -> Self {
        Variation::Composed(parts)
    }

    /// Short human-readable name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Variation::AddressPartitioning => "Address Space Partitioning".to_string(),
            Variation::ExtendedAddressPartitioning { .. } => {
                "Extended Address Space Partitioning".to_string()
            }
            Variation::InstructionTagging => "Instruction Set Tagging".to_string(),
            Variation::UidDiversity { mask } if *mask == PAPER_UID_MASK => {
                "UID Variation".to_string()
            }
            Variation::UidDiversity { mask } => format!("UID Variation (mask {mask:#010X})"),
            Variation::Composed(parts) => {
                let names: Vec<String> = parts.iter().map(Variation::name).collect();
                format!("Composed [{}]", names.join(" + "))
            }
        }
    }

    /// The *target type* column of Table 1.
    #[must_use]
    pub fn target_type(&self) -> String {
        match self {
            Variation::AddressPartitioning | Variation::ExtendedAddressPartitioning { .. } => {
                "Address".to_string()
            }
            Variation::InstructionTagging => "Instruction".to_string(),
            Variation::UidDiversity { .. } => "UID".to_string(),
            Variation::Composed(parts) => {
                let mut types: Vec<String> = parts.iter().map(Variation::target_type).collect();
                types.dedup();
                types.join(" + ")
            }
        }
    }

    /// The per-variant specifications for an `n`-variant deployment.
    ///
    /// # Panics
    ///
    /// Panics if a composed variation assigns conflicting reexpressions to
    /// the same data class; use [`Variation::try_variant_specs`] to handle
    /// that case gracefully.
    #[must_use]
    pub fn variant_specs(&self, n: usize) -> Vec<VariantSpec> {
        self.try_variant_specs(n)
            .expect("composed variations must diversify disjoint data classes")
    }

    /// The per-variant specifications for an `n`-variant deployment.
    ///
    /// # Errors
    ///
    /// Returns a description of the conflict if a composed variation assigns
    /// conflicting reexpressions to the same data class.
    pub fn try_variant_specs(&self, n: usize) -> Result<Vec<VariantSpec>, String> {
        let mut specs = Vec::with_capacity(n);
        for index in 0..n {
            specs.push(self.spec_for(index)?);
        }
        Ok(specs)
    }

    fn spec_for(&self, index: usize) -> Result<VariantSpec, String> {
        if index == 0 {
            // Variant 0 always runs the canonical representation.
            return Ok(VariantSpec::identity());
        }
        let spec = match self {
            Variation::AddressPartitioning => VariantSpec::identity().with_addr(if index == 1 {
                AddressTransform::PartitionHigh
            } else {
                AddressTransform::PartitionHighWithOffset(0x1_0000 * (index as u32 - 1))
            }),
            Variation::ExtendedAddressPartitioning { offset } => VariantSpec::identity().with_addr(
                AddressTransform::PartitionHighWithOffset(offset.wrapping_mul(index as u32)),
            ),
            Variation::InstructionTagging => {
                VariantSpec::identity().with_tag(u8::try_from(index).unwrap_or(u8::MAX))
            }
            Variation::UidDiversity { mask } => {
                // Each additional variant gets a distinct non-zero mask so the
                // disjointedness property holds pairwise.
                let variant_mask = mask ^ (index as u32 - 1);
                if variant_mask == 0 {
                    return Err(format!(
                        "variant {index} would receive the identity mask; choose a different base mask"
                    ));
                }
                VariantSpec::identity().with_uid(UidTransform::Xor(variant_mask))
            }
            Variation::Composed(parts) => {
                let mut spec = VariantSpec::identity();
                for part in parts {
                    spec = spec.compose(&part.spec_for(index)?)?;
                }
                spec
            }
        };
        Ok(spec)
    }
}

impl fmt::Display for Variation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// One row of the paper's Table 1, rendered for a two-variant deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table1Row {
    /// Variation name.
    pub variation: String,
    /// Target data type.
    pub target_type: String,
    /// `R₀` description.
    pub reexpression_p0: String,
    /// `R₁` description.
    pub reexpression_p1: String,
    /// `R₀⁻¹` description.
    pub inverse_p0: String,
    /// `R₁⁻¹` description.
    pub inverse_p1: String,
}

impl Variation {
    /// Renders this variation as a Table 1 row for a two-variant system.
    #[must_use]
    pub fn table1_row(&self) -> Table1Row {
        let specs = self
            .try_variant_specs(2)
            .unwrap_or_else(|_| vec![VariantSpec::identity(), VariantSpec::identity()]);
        let (r0, r1, i0, i1) = match self {
            Variation::InstructionTagging => (
                "R(inst) = 0 || inst".to_string(),
                "R(inst) = 1 || inst".to_string(),
                "R\u{207b}\u{00b9}(0 || inst) = inst".to_string(),
                "R\u{207b}\u{00b9}(1 || inst) = inst".to_string(),
            ),
            Variation::UidDiversity { .. } => (
                specs[0].uid.describe(),
                specs[1].uid.describe(),
                specs[0].uid.describe_inverse(),
                specs[1].uid.describe_inverse(),
            ),
            _ => (
                specs[0].addr.describe(),
                specs[1].addr.describe(),
                specs[0].addr.describe_inverse(),
                specs[1].addr.describe_inverse(),
            ),
        };
        Table1Row {
            variation: self.name(),
            target_type: self.target_type(),
            reexpression_p0: r0,
            reexpression_p1: r1,
            inverse_p0: i0,
            inverse_p1: i1,
        }
    }

    /// The four rows of the paper's Table 1.
    #[must_use]
    pub fn table1() -> Vec<Table1Row> {
        vec![
            Variation::address_partitioning().table1_row(),
            Variation::extended_address_partitioning(0x40).table1_row(),
            Variation::instruction_tagging().table1_row(),
            Variation::uid_diversity().table1_row(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_types::Uid;

    #[test]
    fn variant_zero_is_always_identity() {
        for variation in [
            Variation::address_partitioning(),
            Variation::extended_address_partitioning(0x40),
            Variation::instruction_tagging(),
            Variation::uid_diversity(),
        ] {
            let specs = variation.variant_specs(2);
            assert!(specs[0].is_identity(), "{variation} variant 0 not identity");
            assert!(!specs[1].is_identity(), "{variation} variant 1 identity");
        }
    }

    #[test]
    fn uid_diversity_masks_are_pairwise_distinct() {
        let specs = Variation::uid_diversity().variant_specs(4);
        let mut masks = std::collections::BTreeSet::new();
        for spec in &specs[1..] {
            match spec.uid {
                UidTransform::Xor(mask) => assert!(masks.insert(mask)),
                UidTransform::Identity => panic!("non-zero variants must reexpress"),
            }
        }
        // Pairwise disjointedness of inverses over a sample value.
        for i in 0..specs.len() {
            for j in (i + 1)..specs.len() {
                assert_ne!(
                    specs[i].uid.invert(Uid::new(42)),
                    specs[j].uid.invert(Uid::new(42)),
                    "variants {i} and {j} agree"
                );
            }
        }
    }

    #[test]
    fn instruction_tagging_assigns_distinct_tags() {
        let specs = Variation::instruction_tagging().variant_specs(3);
        assert_eq!(specs[0].tag, 0);
        assert_eq!(specs[1].tag, 1);
        assert_eq!(specs[2].tag, 2);
    }

    #[test]
    fn composition_merges_uid_and_address() {
        let composed = Variation::composed(vec![
            Variation::uid_diversity(),
            Variation::address_partitioning(),
        ]);
        let specs = composed.variant_specs(2);
        assert_eq!(specs[1].uid, UidTransform::paper_mask());
        assert_eq!(specs[1].addr, AddressTransform::PartitionHigh);
        assert!(composed.name().contains("Composed"));
        assert_eq!(composed.target_type(), "UID + Address");
    }

    #[test]
    fn conflicting_composition_is_rejected() {
        let conflicted = Variation::composed(vec![
            Variation::uid_diversity(),
            Variation::uid_diversity_full_mask(),
        ]);
        assert!(conflicted.try_variant_specs(2).is_err());
    }

    #[test]
    fn table1_matches_the_paper() {
        let rows = Variation::table1();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].variation, "Address Space Partitioning");
        assert_eq!(rows[0].target_type, "Address");
        assert_eq!(rows[0].reexpression_p0, "R(a) = a");
        assert_eq!(rows[0].reexpression_p1, "R(a) = a + 0x80000000");
        assert!(rows[1].reexpression_p1.contains("0x40"));
        assert_eq!(rows[2].target_type, "Instruction");
        assert!(rows[2].reexpression_p1.contains("1 || inst"));
        assert_eq!(rows[3].target_type, "UID");
        assert!(rows[3].inverse_p1.contains("0x7FFFFFFF"));
    }

    #[test]
    fn extended_partitioning_scales_offset_per_variant() {
        let specs = Variation::extended_address_partitioning(0x40).variant_specs(3);
        assert_eq!(
            specs[1].addr,
            AddressTransform::PartitionHighWithOffset(0x40)
        );
        assert_eq!(
            specs[2].addr,
            AddressTransform::PartitionHighWithOffset(0x80)
        );
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(format!("{}", Variation::uid_diversity()), "UID Variation");
        assert!(Variation::uid_diversity_full_mask()
            .name()
            .contains("0xFFFFFFFF"));
    }
}
