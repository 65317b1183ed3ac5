//! Reexpression functions for addresses (address-space partitioning).

use nvariant_types::VirtAddr;
use std::fmt;

/// A reexpression function over virtual addresses.
///
/// Address-space partitioning (Cox et al., Table 1 row 1) places variant 1's
/// address space entirely in the upper half (`R₁(a) = a + 0x80000000`);
/// the extended variant of Bruschi et al. additionally skews the layout by a
/// small offset so even partial-overwrite attacks are (probabilistically)
/// disturbed.
///
/// # Example
///
/// ```
/// use nvariant_diversity::AddressTransform;
/// use nvariant_types::VirtAddr;
///
/// let r1 = AddressTransform::PartitionHigh;
/// let a = VirtAddr::new(0x0010_0000);
/// assert_eq!(r1.apply(a).as_u32(), 0x8010_0000);
/// assert_eq!(r1.invert(r1.apply(a)), a);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum AddressTransform {
    /// The identity mapping (variant 0).
    #[default]
    Identity,
    /// `R(a) = a + 0x80000000`: the partitioned upper half.
    PartitionHigh,
    /// `R(a) = a + 0x80000000 + offset`: extended partitioning.
    PartitionHighWithOffset(u32),
}

impl AddressTransform {
    /// The partition constant `0x80000000`.
    pub const PARTITION: u32 = 0x8000_0000;

    /// Applies `R` to a canonical address.
    #[must_use]
    pub fn apply(&self, addr: VirtAddr) -> VirtAddr {
        match self {
            AddressTransform::Identity => addr,
            AddressTransform::PartitionHigh => {
                VirtAddr::new(addr.as_u32().wrapping_add(Self::PARTITION))
            }
            AddressTransform::PartitionHighWithOffset(offset) => VirtAddr::new(
                addr.as_u32()
                    .wrapping_add(Self::PARTITION)
                    .wrapping_add(*offset),
            ),
        }
    }

    /// Applies `R⁻¹`, recovering the canonical address.
    #[must_use]
    pub fn invert(&self, addr: VirtAddr) -> VirtAddr {
        match self {
            AddressTransform::Identity => addr,
            AddressTransform::PartitionHigh => {
                VirtAddr::new(addr.as_u32().wrapping_sub(Self::PARTITION))
            }
            AddressTransform::PartitionHighWithOffset(offset) => VirtAddr::new(
                addr.as_u32()
                    .wrapping_sub(Self::PARTITION)
                    .wrapping_sub(*offset),
            ),
        }
    }

    /// Returns `true` if this transform is the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        matches!(self, AddressTransform::Identity)
    }

    /// The byte displacement this transform adds to every address.
    #[must_use]
    pub fn displacement(&self) -> u32 {
        match self {
            AddressTransform::Identity => 0,
            AddressTransform::PartitionHigh => Self::PARTITION,
            AddressTransform::PartitionHighWithOffset(offset) => {
                Self::PARTITION.wrapping_add(*offset)
            }
        }
    }

    /// Human-readable description of `R`, as in Table 1.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            AddressTransform::Identity => "R(a) = a".to_string(),
            AddressTransform::PartitionHigh => "R(a) = a + 0x80000000".to_string(),
            AddressTransform::PartitionHighWithOffset(offset) => {
                format!("R(a) = a + 0x80000000 + {offset:#x}")
            }
        }
    }

    /// Human-readable description of `R⁻¹`.
    #[must_use]
    pub fn describe_inverse(&self) -> String {
        match self {
            AddressTransform::Identity => "R\u{207b}\u{00b9}(a) = a".to_string(),
            AddressTransform::PartitionHigh => "R\u{207b}\u{00b9}(a) = a - 0x80000000".to_string(),
            AddressTransform::PartitionHighWithOffset(offset) => {
                format!("R\u{207b}\u{00b9}(a) = a - 0x80000000 - {offset:#x}")
            }
        }
    }
}

impl fmt::Display for AddressTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn partition_moves_to_upper_half() {
        let r1 = AddressTransform::PartitionHigh;
        let a = VirtAddr::new(0x0000_4000);
        assert!(r1.apply(a).high_bit_set());
        assert!(!AddressTransform::Identity.apply(a).high_bit_set());
        assert_eq!(r1.displacement(), 0x8000_0000);
        assert_eq!(AddressTransform::Identity.displacement(), 0);
    }

    #[test]
    fn extended_partition_adds_offset() {
        let r1 = AddressTransform::PartitionHighWithOffset(0x40);
        let a = VirtAddr::new(0x0000_4000);
        assert_eq!(r1.apply(a).as_u32(), 0x8000_4040);
        assert_eq!(r1.invert(r1.apply(a)), a);
        assert_eq!(r1.displacement(), 0x8000_0040);
    }

    #[test]
    fn descriptions_match_table_1() {
        assert_eq!(AddressTransform::Identity.describe(), "R(a) = a");
        assert_eq!(
            AddressTransform::PartitionHigh.describe(),
            "R(a) = a + 0x80000000"
        );
        assert!(AddressTransform::PartitionHighWithOffset(0x40)
            .describe_inverse()
            .contains("- 0x40"));
        assert!(!AddressTransform::PartitionHigh.is_identity());
        assert!(AddressTransform::Identity.is_identity());
    }

    proptest! {
        /// Inverse property for every address transform.
        #[test]
        fn prop_inverse_property(raw in any::<u32>(), offset in 0u32..0x1000) {
            for transform in [
                AddressTransform::Identity,
                AddressTransform::PartitionHigh,
                AddressTransform::PartitionHighWithOffset(offset),
            ] {
                let a = VirtAddr::new(raw);
                prop_assert_eq!(transform.invert(transform.apply(a)), a);
            }
        }

        /// Disjointedness of the identity/partition pair: the two inverses
        /// never agree on any concrete address value.
        #[test]
        fn prop_disjointedness(raw in any::<u32>()) {
            let r0 = AddressTransform::Identity;
            let r1 = AddressTransform::PartitionHigh;
            prop_assert_ne!(r0.invert(VirtAddr::new(raw)), r1.invert(VirtAddr::new(raw)));
        }
    }
}
