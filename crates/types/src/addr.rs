//! Virtual addresses in the simulated process address space.

use std::fmt;
use std::ops::{Add, Sub};

/// A 32-bit virtual address in a simulated variant process.
///
/// Address-space partitioning (Table 1 of the paper) places variant 0
/// entirely in addresses whose high bit is `0` and variant 1 in addresses
/// whose high bit is `1`; an attack that injects a complete absolute address
/// is therefore guaranteed to fault in one of the two variants.
///
/// # Example
///
/// ```
/// use nvariant_types::VirtAddr;
///
/// let a = VirtAddr::new(0x0000_4000);
/// let partitioned = a.with_high_bit();
/// assert!(partitioned.high_bit_set());
/// assert_eq!(partitioned.without_high_bit(), a);
/// assert_eq!(a.checked_add(4), Some(VirtAddr::new(0x0000_4004)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u32);

/// The partition bit used by address-space partitioning: `0x8000_0000`.
pub const PARTITION_BIT: u32 = 0x8000_0000;

impl VirtAddr {
    /// The null address.
    pub const NULL: VirtAddr = VirtAddr(0);

    /// Creates an address from its raw numeric value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw numeric value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the address as a `usize` offset, useful for indexing segments.
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this is the null address.
    #[must_use]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if the partition (high) bit is set.
    #[must_use]
    pub const fn high_bit_set(self) -> bool {
        self.0 & PARTITION_BIT != 0
    }

    /// Returns the address with the partition bit set.
    #[must_use]
    pub const fn with_high_bit(self) -> Self {
        VirtAddr(self.0 | PARTITION_BIT)
    }

    /// Returns the address with the partition bit cleared.
    #[must_use]
    pub const fn without_high_bit(self) -> Self {
        VirtAddr(self.0 & !PARTITION_BIT)
    }

    /// Adds `offset` bytes, returning `None` on overflow.
    #[must_use]
    pub fn checked_add(self, offset: u32) -> Option<Self> {
        self.0.checked_add(offset).map(VirtAddr)
    }

    /// Subtracts `offset` bytes, returning `None` on underflow.
    #[must_use]
    pub fn checked_sub(self, offset: u32) -> Option<Self> {
        self.0.checked_sub(offset).map(VirtAddr)
    }

    /// Adds `offset` bytes with wraparound (two's complement), matching the
    /// behaviour of pointer arithmetic in the simulated machine.
    #[must_use]
    pub const fn wrapping_add(self, offset: u32) -> Self {
        VirtAddr(self.0.wrapping_add(offset))
    }

    /// Returns the byte distance from `other` to `self`, if non-negative.
    #[must_use]
    pub fn offset_from(self, other: VirtAddr) -> Option<u32> {
        self.0.checked_sub(other.0)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#010x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u32> for VirtAddr {
    fn from(raw: u32) -> Self {
        VirtAddr(raw)
    }
}

impl From<VirtAddr> for u32 {
    fn from(addr: VirtAddr) -> Self {
        addr.0
    }
}

impl Add<u32> for VirtAddr {
    type Output = VirtAddr;

    fn add(self, rhs: u32) -> VirtAddr {
        VirtAddr(self.0.wrapping_add(rhs))
    }
}

impl Sub<u32> for VirtAddr {
    type Output = VirtAddr;

    fn sub(self, rhs: u32) -> VirtAddr {
        VirtAddr(self.0.wrapping_sub(rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_bit_manipulation() {
        let a = VirtAddr::new(0x1234);
        assert!(!a.high_bit_set());
        let b = a.with_high_bit();
        assert!(b.high_bit_set());
        assert_eq!(b.without_high_bit(), a);
        assert_eq!(b.as_u32(), 0x8000_1234);
    }

    #[test]
    fn arithmetic() {
        let a = VirtAddr::new(100);
        assert_eq!((a + 4).as_u32(), 104);
        assert_eq!((a - 4).as_u32(), 96);
        assert_eq!(a.checked_add(4), Some(VirtAddr::new(104)));
        assert_eq!(a.checked_sub(200), None);
        assert_eq!(VirtAddr::new(u32::MAX).checked_add(1), None);
        assert_eq!(VirtAddr::new(u32::MAX).wrapping_add(1), VirtAddr::NULL);
    }

    #[test]
    fn offset_from() {
        let base = VirtAddr::new(0x1000);
        let p = VirtAddr::new(0x1010);
        assert_eq!(p.offset_from(base), Some(0x10));
        assert_eq!(base.offset_from(p), None);
    }

    #[test]
    fn null_address() {
        assert!(VirtAddr::NULL.is_null());
        assert!(!VirtAddr::new(1).is_null());
    }

    #[test]
    fn display_formats_as_hex() {
        assert_eq!(format!("{}", VirtAddr::new(0x8000_1234)), "0x80001234");
        assert_eq!(
            format!("{:?}", VirtAddr::new(0x1234)),
            "VirtAddr(0x00001234)"
        );
    }
}
