//! User and group identifier newtypes.

use std::fmt;

/// A user identifier, mirroring POSIX `uid_t`.
///
/// In the paper, UID values are the *target type* of the data variation: the
/// second variant stores every UID re-expressed as `u ⊕ 0x7FFFFFFF`, so the
/// concrete bit pattern `0` no longer means *root* inside that variant.
/// This type always holds the **canonical** (un-reexpressed) value when used
/// on the kernel side of the system; re-expressed values flowing through
/// variant memory are plain [`Word`](crate::Word)s until they are inverted at
/// the target-interpreter boundary.
///
/// # Example
///
/// ```
/// use nvariant_types::Uid;
///
/// let www = Uid::new(48);
/// assert!(!www.is_root());
/// assert_eq!(www.as_u32(), 48);
/// assert_eq!(format!("{www}"), "uid(48)");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Uid(u32);

impl Uid {
    /// The superuser identity (`uid == 0`).
    pub const ROOT: Uid = Uid(0);

    /// The conventional "nobody" user on many Unix systems.
    pub const NOBODY: Uid = Uid(65534);

    /// Creates a UID from its raw numeric value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Uid(raw)
    }

    /// Returns the raw numeric value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns `true` if this UID denotes the superuser.
    #[must_use]
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }

    /// Applies a bitwise XOR to the raw value, returning a new UID.
    ///
    /// This is the primitive used by the UID reexpression functions in the
    /// paper (`R₁(u) = u ⊕ 0x7FFFFFFF`).
    #[must_use]
    pub const fn xor(self, mask: u32) -> Self {
        Uid(self.0 ^ mask)
    }
}

impl fmt::Debug for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uid({})", self.0)
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid({})", self.0)
    }
}

impl fmt::LowerHex for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u32> for Uid {
    fn from(raw: u32) -> Self {
        Uid(raw)
    }
}

impl From<Uid> for u32 {
    fn from(uid: Uid) -> Self {
        uid.0
    }
}

/// A group identifier, mirroring POSIX `gid_t`.
///
/// The paper uses the term *UID* to denote both UID and GID values (§3); the
/// reexpression machinery treats both identically, but keeping separate Rust
/// types prevents accidental cross-assignment in the kernel model.
///
/// # Example
///
/// ```
/// use nvariant_types::Gid;
///
/// let wheel = Gid::new(10);
/// assert_eq!(wheel.as_u32(), 10);
/// assert!(Gid::ROOT.is_root());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gid(u32);

impl Gid {
    /// The root group (`gid == 0`).
    pub const ROOT: Gid = Gid(0);

    /// Creates a GID from its raw numeric value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Gid(raw)
    }

    /// Returns the raw numeric value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns `true` if this GID denotes the root group.
    #[must_use]
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }

    /// Applies a bitwise XOR to the raw value, returning a new GID.
    #[must_use]
    pub const fn xor(self, mask: u32) -> Self {
        Gid(self.0 ^ mask)
    }
}

impl fmt::Debug for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gid({})", self.0)
    }
}

impl fmt::Display for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gid({})", self.0)
    }
}

impl From<u32> for Gid {
    fn from(raw: u32) -> Self {
        Gid(raw)
    }
}

impl From<Gid> for u32 {
    fn from(gid: Gid) -> Self {
        gid.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_zero() {
        assert_eq!(Uid::ROOT.as_u32(), 0);
        assert!(Uid::ROOT.is_root());
        assert!(Gid::ROOT.is_root());
    }

    #[test]
    fn non_root_is_not_root() {
        assert!(!Uid::new(1000).is_root());
        assert!(!Gid::new(100).is_root());
    }

    #[test]
    fn xor_round_trips() {
        let uid = Uid::new(48);
        assert_eq!(uid.xor(0x7FFF_FFFF).xor(0x7FFF_FFFF), uid);
        let gid = Gid::new(513);
        assert_eq!(gid.xor(0x7FFF_FFFF).xor(0x7FFF_FFFF), gid);
    }

    #[test]
    fn xor_changes_value() {
        // Disjointedness of the paper's mask: flipping the low 31 bits always
        // changes the value.
        for raw in [0u32, 1, 48, 1000, u32::MAX] {
            assert_ne!(Uid::new(raw).xor(0x7FFF_FFFF), Uid::new(raw));
        }
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert_eq!(format!("{}", Uid::new(7)), "uid(7)");
        assert_eq!(format!("{:?}", Uid::new(7)), "Uid(7)");
        assert_eq!(format!("{}", Gid::new(7)), "gid(7)");
        assert_eq!(format!("{:?}", Gid::new(7)), "Gid(7)");
    }

    #[test]
    fn conversions() {
        let uid: Uid = 42u32.into();
        let raw: u32 = uid.into();
        assert_eq!(raw, 42);
        let gid: Gid = 7u32.into();
        let raw: u32 = gid.into();
        assert_eq!(raw, 7);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Uid::new(1) < Uid::new(2));
        assert!(Gid::new(10) > Gid::new(9));
    }
}
