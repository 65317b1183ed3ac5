//! Per-variant configuration: which reexpression each variant applies to
//! each data class.

use crate::addr::AddressTransform;
use crate::uid::UidTransform;
use nvariant_types::VariantId;
use std::fmt;

/// Everything the framework needs to know to instantiate and monitor one
/// variant: the UID reexpression, the address-space transform, and the
/// instruction tag.
///
/// Variant 0 conventionally uses the identity for every data class (the
/// original, untransformed program); non-trivial reexpressions are assigned
/// to the other variants.
///
/// # Example
///
/// ```
/// use nvariant_diversity::{UidTransform, VariantSpec};
/// use nvariant_types::Uid;
///
/// let spec = VariantSpec::identity().with_uid(UidTransform::paper_mask());
/// assert_eq!(spec.uid.apply(Uid::ROOT).as_u32(), 0x7FFF_FFFF);
/// assert_eq!(spec.tag, 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct VariantSpec {
    /// Reexpression applied to UID-class data.
    pub uid: UidTransform,
    /// Reexpression applied to addresses (memory layout placement).
    pub addr: AddressTransform,
    /// Instruction tag stamped on the variant's code image and required by
    /// its fetch stage.
    pub tag: u8,
}

impl VariantSpec {
    /// The all-identity specification (variant 0 / an unprotected process).
    #[must_use]
    pub fn identity() -> Self {
        VariantSpec::default()
    }

    /// Sets the UID reexpression.
    #[must_use]
    pub fn with_uid(mut self, uid: UidTransform) -> Self {
        self.uid = uid;
        self
    }

    /// Sets the address transform.
    #[must_use]
    pub fn with_addr(mut self, addr: AddressTransform) -> Self {
        self.addr = addr;
        self
    }

    /// Sets the instruction tag.
    #[must_use]
    pub fn with_tag(mut self, tag: u8) -> Self {
        self.tag = tag;
        self
    }

    /// Returns `true` if every data class uses the identity reexpression and
    /// the default tag — i.e. this variant is an unmodified process.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.uid.is_identity() && self.addr.is_identity() && self.tag == 0
    }

    /// Merges another specification into this one, used when composing
    /// variations (§5 of the paper). Non-identity components of `other`
    /// override identity components of `self`; two conflicting non-identity
    /// components are rejected because composed variations must each keep
    /// their normal-equivalence argument intact.
    ///
    /// # Errors
    ///
    /// Returns a description of the conflicting component if both
    /// specifications define a non-identity reexpression for the same data
    /// class.
    pub fn compose(&self, other: &VariantSpec) -> Result<VariantSpec, String> {
        let uid = match (self.uid.is_identity(), other.uid.is_identity()) {
            (_, true) => self.uid,
            (true, false) => other.uid,
            (false, false) => return Err("both variations reexpress UID data".to_string()),
        };
        let addr = match (self.addr.is_identity(), other.addr.is_identity()) {
            (_, true) => self.addr,
            (true, false) => other.addr,
            (false, false) => return Err("both variations reexpress addresses".to_string()),
        };
        let tag = match (self.tag, other.tag) {
            (t, 0) => t,
            (0, t) => t,
            (a, b) if a == b => a,
            _ => return Err("both variations assign instruction tags".to_string()),
        };
        Ok(VariantSpec { uid, addr, tag })
    }
}

impl fmt::Display for VariantSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "uid: {}; addr: {}; tag: {}",
            self.uid, self.addr, self.tag
        )
    }
}

/// A list of variant specifications, indexed by [`VariantId`].
///
/// # Example
///
/// ```
/// use nvariant_diversity::{VariantSet, Variation};
/// use nvariant_types::VariantId;
///
/// let set = VariantSet::from_variation(&Variation::uid_diversity(), 2);
/// assert_eq!(set.len(), 2);
/// assert!(set.spec(VariantId::P0).is_identity());
/// assert!(!set.spec(VariantId::P1).is_identity());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VariantSet {
    specs: Vec<VariantSpec>,
}

impl VariantSet {
    /// Creates a set from explicit specifications.
    #[must_use]
    pub fn new(specs: Vec<VariantSpec>) -> Self {
        VariantSet { specs }
    }

    /// Creates the specifications for `n` variants of a variation.
    #[must_use]
    pub fn from_variation(variation: &crate::variation::Variation, n: usize) -> Self {
        VariantSet {
            specs: variation.variant_specs(n),
        }
    }

    /// Number of variants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` if the set holds no variants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The specification of one variant.
    ///
    /// # Panics
    ///
    /// Panics if the variant index is out of range.
    #[must_use]
    pub fn spec(&self, variant: VariantId) -> &VariantSpec {
        &self.specs[variant.index()]
    }

    /// Iterates over `(variant, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VariantId, &VariantSpec)> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, spec)| (VariantId::new(i), spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::Variation;

    #[test]
    fn builder_methods() {
        let spec = VariantSpec::identity()
            .with_uid(UidTransform::paper_mask())
            .with_addr(AddressTransform::PartitionHigh)
            .with_tag(1);
        assert!(!spec.is_identity());
        assert_eq!(spec.tag, 1);
        assert!(VariantSpec::identity().is_identity());
        assert!(format!("{spec}").contains("0x7FFFFFFF"));
    }

    #[test]
    fn compose_merges_disjoint_classes() {
        let uid_spec = VariantSpec::identity().with_uid(UidTransform::paper_mask());
        let addr_spec = VariantSpec::identity().with_addr(AddressTransform::PartitionHigh);
        let composed = uid_spec.compose(&addr_spec).unwrap();
        assert_eq!(composed.uid, UidTransform::paper_mask());
        assert_eq!(composed.addr, AddressTransform::PartitionHigh);
        // Composition with identity on both sides is identity.
        assert!(VariantSpec::identity()
            .compose(&VariantSpec::identity())
            .unwrap()
            .is_identity());
    }

    #[test]
    fn compose_rejects_conflicts() {
        let a = VariantSpec::identity().with_uid(UidTransform::paper_mask());
        let b = VariantSpec::identity().with_uid(UidTransform::full_mask());
        assert!(a.compose(&b).is_err());
        let c = VariantSpec::identity().with_addr(AddressTransform::PartitionHigh);
        let d = VariantSpec::identity().with_addr(AddressTransform::PartitionHighWithOffset(4));
        assert!(c.compose(&d).is_err());
        let e = VariantSpec::identity().with_tag(1);
        let f = VariantSpec::identity().with_tag(2);
        assert!(e.compose(&f).is_err());
        // Equal tags are not a conflict.
        assert!(e.compose(&VariantSpec::identity().with_tag(1)).is_ok());
    }

    #[test]
    fn variant_set_indexing_and_iteration() {
        let set = VariantSet::from_variation(&Variation::uid_diversity(), 3);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert!(set.spec(VariantId::P0).is_identity());
        let collected: Vec<_> = set.iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[1].0, VariantId::P1);
    }
}
