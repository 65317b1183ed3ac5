//! Machine words as stored in variant process memory and registers.

use crate::{Uid, VirtAddr};
use std::fmt;

/// A 32-bit machine word.
///
/// The simulated machine is untyped at runtime, exactly like the hardware the
/// paper targets: UIDs, addresses, counts, and characters are all just words
/// once the program is compiled. Type information (and therefore the UID data
/// variation) exists only at the source level. `Word` provides explicit
/// conversions to and from the typed views so that the *kernel* side of the
/// system can recover meaning at the target-interpreter boundary.
///
/// # Example
///
/// ```
/// use nvariant_types::{Uid, VirtAddr, Word};
///
/// let w = Word::from_i32(-1);
/// assert_eq!(w.as_u32(), u32::MAX);
///
/// let uid_word = Word::from_uid(Uid::new(48));
/// assert_eq!(uid_word.as_uid(), Uid::new(48));
///
/// let addr_word = Word::from_addr(VirtAddr::new(0x8000_0000));
/// assert!(addr_word.as_addr().high_bit_set());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Word(u32);

impl Word {
    /// The zero word.
    pub const ZERO: Word = Word(0);
    /// The all-ones word (`-1` as a signed value).
    pub const MINUS_ONE: Word = Word(u32::MAX);

    /// Creates a word from an unsigned 32-bit value.
    #[must_use]
    pub const fn from_u32(raw: u32) -> Self {
        Word(raw)
    }

    /// Creates a word from a signed 32-bit value (two's complement).
    #[must_use]
    pub const fn from_i32(raw: i32) -> Self {
        Word(raw as u32)
    }

    /// Creates a word holding a boolean (`1` for true, `0` for false).
    #[must_use]
    pub const fn from_bool(value: bool) -> Self {
        Word(value as u32)
    }

    /// Creates a word from a UID's raw value.
    #[must_use]
    pub const fn from_uid(uid: Uid) -> Self {
        Word(uid.as_u32())
    }

    /// Creates a word from a virtual address.
    #[must_use]
    pub const fn from_addr(addr: VirtAddr) -> Self {
        Word(addr.as_u32())
    }

    /// Returns the unsigned value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the signed (two's complement) value.
    #[must_use]
    pub const fn as_i32(self) -> i32 {
        self.0 as i32
    }

    /// Interprets the word as a UID.
    #[must_use]
    pub const fn as_uid(self) -> Uid {
        Uid::new(self.0)
    }

    /// Interprets the word as a virtual address.
    #[must_use]
    pub const fn as_addr(self) -> VirtAddr {
        VirtAddr::new(self.0)
    }

    /// Returns the little-endian byte representation used in process memory.
    #[must_use]
    pub const fn to_le_bytes(self) -> [u8; 4] {
        self.0.to_le_bytes()
    }

    /// Reconstructs a word from its little-endian byte representation.
    #[must_use]
    pub const fn from_le_bytes(bytes: [u8; 4]) -> Self {
        Word(u32::from_le_bytes(bytes))
    }

    /// XORs the word with a mask, the primitive used by data reexpression.
    #[must_use]
    pub const fn xor(self, mask: u32) -> Self {
        Word(self.0 ^ mask)
    }

    /// Wrapping addition, matching machine semantics.
    #[must_use]
    pub const fn wrapping_add(self, rhs: Word) -> Self {
        Word(self.0.wrapping_add(rhs.0))
    }

    /// Wrapping subtraction, matching machine semantics.
    #[must_use]
    pub const fn wrapping_sub(self, rhs: Word) -> Self {
        Word(self.0.wrapping_sub(rhs.0))
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Word({:#x})", self.0)
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_i32())
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u32> for Word {
    fn from(raw: u32) -> Self {
        Word(raw)
    }
}

impl From<i32> for Word {
    fn from(raw: i32) -> Self {
        Word::from_i32(raw)
    }
}

impl From<Word> for u32 {
    fn from(word: Word) -> Self {
        word.0
    }
}

impl From<Uid> for Word {
    fn from(uid: Uid) -> Self {
        Word::from_uid(uid)
    }
}

impl From<VirtAddr> for Word {
    fn from(addr: VirtAddr) -> Self {
        Word::from_addr(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_unsigned_views_agree() {
        assert_eq!(Word::from_i32(-1).as_u32(), u32::MAX);
        assert_eq!(Word::from_u32(u32::MAX).as_i32(), -1);
        assert_eq!(Word::from_i32(42).as_i32(), 42);
    }

    #[test]
    fn typed_views() {
        assert_eq!(Word::from_uid(Uid::ROOT).as_uid(), Uid::ROOT);
        let a = VirtAddr::new(0x8000_1000);
        assert_eq!(Word::from_addr(a).as_addr(), a);
    }

    #[test]
    fn little_endian_round_trip() {
        let w = Word::from_u32(0x1234_5678);
        assert_eq!(w.to_le_bytes(), [0x78, 0x56, 0x34, 0x12]);
        assert_eq!(Word::from_le_bytes(w.to_le_bytes()), w);
    }

    #[test]
    fn xor_is_involutive() {
        let w = Word::from_u32(48);
        assert_eq!(w.xor(0x7FFF_FFFF).xor(0x7FFF_FFFF), w);
    }

    #[test]
    fn wrapping_arithmetic() {
        assert_eq!(
            Word::from_u32(u32::MAX).wrapping_add(Word::from_u32(1)),
            Word::ZERO
        );
        assert_eq!(Word::ZERO.wrapping_sub(Word::from_u32(1)), Word::MINUS_ONE);
    }

    #[test]
    fn formatting() {
        assert_eq!(format!("{}", Word::from_i32(-5)), "-5");
        assert_eq!(format!("{:x}", Word::from_u32(0xff)), "ff");
        assert_eq!(format!("{:b}", Word::from_u32(5)), "101");
    }
}
