//! FNV-1a 64: tiny, dependency-free, and stable across platforms and
//! processes.
//!
//! Every cross-process identity in the workspace — the campaign plan hash,
//! the artifact store's content fingerprints and checksums, and the model
//! checker's canonical state digests — uses this one construction, because
//! such keys must survive process and machine boundaries (unlike `std`'s
//! `DefaultHasher`, whose output is explicitly allowed to vary between
//! releases).
//!
//! FNV-1a folds a byte as `hash = (hash ^ byte) * PRIME (mod 2^64)`. A zero
//! byte leaves the XOR step unchanged, so a run of `n` zero bytes multiplies
//! the state by `PRIME^n`: [`Fnv1a::write_zeros`] takes that power by
//! repeated squaring in O(log n) steps, and returns exactly what `n`
//! one-byte zero writes would. The model checker folds the never-written
//! part of a process stack this way.

/// The FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// Hashes `bytes` with FNV-1a 64 in one call.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(bytes);
    hasher.finish()
}

/// A streaming FNV-1a 64 hasher, for digests assembled from many small
/// fields (kernel and process state digests) without building an
/// intermediate buffer.
///
/// Multi-byte integers are folded in little-endian order; the caller is
/// responsible for domain separation (writing distinguishing tags between
/// variable-length fields) where ambiguity is possible.
#[derive(Clone, Debug)]
pub struct Fnv1a {
    hash: u64,
}

impl Fnv1a {
    /// Starts a fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv1a { hash: OFFSET_BASIS }
    }

    /// Folds a byte slice into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(PRIME);
        }
    }

    /// Folds `n` zero bytes into the digest: the same state as
    /// `write(&[0; n])`, in O(log n) multiplications (see the module docs).
    pub fn write_zeros(&mut self, mut n: usize) {
        let mut power = PRIME;
        while n > 0 {
            if n & 1 == 1 {
                self.hash = self.hash.wrapping_mul(power);
            }
            power = power.wrapping_mul(power);
            n >>= 1;
        }
    }

    /// Folds a single byte into the digest.
    pub fn write_u8(&mut self, value: u8) {
        self.write(&[value]);
    }

    /// Folds a `u32` into the digest (little-endian).
    pub fn write_u32(&mut self, value: u32) {
        self.write(&value.to_le_bytes());
    }

    /// Folds a `u64` into the digest (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Folds a `usize` into the digest (as a `u64`, so the digest is
    /// identical across pointer widths).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Folds a string's bytes into the digest, preceded by its length so
    /// adjacent strings cannot alias (`"ab" + "c"` vs `"a" + "bc"`).
    pub fn write_str(&mut self, value: &str) {
        self.write_usize(value.len());
        self.write(value.as_bytes());
    }

    /// The current digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut hasher = Fnv1a::new();
        hasher.write(b"foo");
        hasher.write(b"bar");
        assert_eq!(hasher.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn integer_writes_are_little_endian() {
        let mut split = Fnv1a::new();
        split.write_u32(0x0403_0201);
        let mut raw = Fnv1a::new();
        raw.write(&[1, 2, 3, 4]);
        assert_eq!(split.finish(), raw.finish());

        let mut wide = Fnv1a::new();
        wide.write_u64(0x0807_0605_0403_0201);
        let mut raw = Fnv1a::new();
        raw.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(wide.finish(), raw.finish());
    }

    #[test]
    fn zero_runs_equal_one_byte_zero_writes() {
        for n in [0, 1, 7, 4096, 131_072] {
            for prefix in [&b""[..], b"after other input"] {
                let mut fast = Fnv1a::new();
                fast.write(prefix);
                fast.write_zeros(n);
                let mut slow = Fnv1a::new();
                slow.write(prefix);
                for _ in 0..n {
                    slow.write_u8(0);
                }
                assert_eq!(fast.finish(), slow.finish(), "n={n} prefix={prefix:?}");
            }
        }
    }

    #[test]
    fn length_prefixed_strings_do_not_alias() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
