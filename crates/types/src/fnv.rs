//! FNV-1a 64: tiny, dependency-free, and stable across platforms and
//! processes.
//!
//! Cross-process identities and checksums must survive process and machine
//! boundaries (unlike `std`'s `DefaultHasher`, whose output is explicitly
//! allowed to vary between releases), so the workspace computes them all
//! here, in one of two folds over the same offset basis and prime:
//!
//! - **Byte-wise FNV-1a** ([`Fnv1a`], [`fnv1a_64`]): the campaign plan
//!   hash, the artifact store's content fingerprints and checksums, and the
//!   model checker's canonical state digests.
//! - **Word-wise FNV-1a** ([`FnvWords`], [`fnv1a_64_words`]): the cell
//!   cache's record checksums. It folds each 8-byte little-endian word as
//!   one step, `hash = (hash ^ word) * PRIME`, then the 0–7 bytes after the
//!   last whole word one at a time. A record is a whole cell block, about
//!   96 KiB in the security matrix; folded a byte at a time its checksum
//!   would cost more than encoding the cell, folded a word at a time about
//!   an eighth of that. Its values differ from byte-wise FNV-1a's.
//!
//! FNV-1a folds a byte as `hash = (hash ^ byte) * PRIME (mod 2^64)`. A zero
//! byte leaves the XOR step unchanged, so a run of `n` zero bytes multiplies
//! the state by `PRIME^n`: [`Fnv1a::write_zeros`] takes that power by
//! repeated squaring in O(log n) steps, and returns exactly what `n`
//! one-byte zero writes would. The model checker folds the never-written
//! part of a process stack this way.
//!
//! [`Fnv1a::write`] uses the same identity inside its input: it walks the
//! bytes in 8-byte words, counts each run of consecutive all-zero words and
//! folds the run with [`Fnv1a::write_zeros`], in O(log n) multiplications
//! for a run of n words; any other word, and the 0–7 bytes after the last
//! whole word, fold one byte at a time. Every value is still byte-wise
//! FNV-1a's, however the input is split between calls. A process's stored
//! stack is mostly long runs of zero words, so its digest costs little
//! more than its non-zero words; text, which has no zero word, still folds
//! a byte at a time.

/// The FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// `PRIME^8`: what folding eight zero bytes multiplies the state by.
const PRIME_POW_8: u64 = {
    let squared = PRIME.wrapping_mul(PRIME);
    let fourth = squared.wrapping_mul(squared);
    fourth.wrapping_mul(fourth)
};

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

    /// Folds a byte slice into the digest. A run of all-zero 8-byte words
    /// in the slice folds in O(log n) multiplications (see the module docs).
    pub fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        let mut zero_words = 0;
        for word in &mut words {
            if u64::from_ne_bytes(word.try_into().expect("chunks of 8 bytes")) == 0 {
                zero_words += 1;
            } else {
                if zero_words > 0 {
                    self.write_zeros(8 * zero_words);
                    zero_words = 0;
                }
                self.write_bytes(word);
            }
        }
        self.write_zeros(8 * zero_words);
        self.write_bytes(words.remainder());
    }

    /// Folds `bytes` one at a time.
    fn write_bytes(&mut self, bytes: &[u8]) {
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
        self.write_bytes(&[value]);
    }

    /// Folds a `u32` into the digest (little-endian).
    pub fn write_u32(&mut self, value: u32) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Folds a `u64` into the digest (little-endian); zero, eight zero
    /// bytes, as one multiplication by `PRIME^8`.
    pub fn write_u64(&mut self, value: u64) {
        if value == 0 {
            self.hash = self.hash.wrapping_mul(PRIME_POW_8);
        } else {
            self.write_bytes(&value.to_le_bytes());
        }
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

/// Hashes `bytes` with the word-wise fold in one call (see the module
/// docs).
#[must_use]
pub fn fnv1a_64_words(bytes: &[u8]) -> u64 {
    let mut hasher = FnvWords::new();
    hasher.write(bytes);
    hasher.finish()
}

/// A streaming word-wise FNV-1a 64 fold (see the module docs). The digest
/// depends only on the bytes written, not on how they were split between
/// [`write`](Self::write) calls: up to 7 bytes of an unfinished word wait
/// for the next call.
#[derive(Clone, Debug)]
pub struct FnvWords {
    hash: u64,
    pending: [u8; 8],
    held: usize,
}

impl FnvWords {
    /// Starts a fresh fold at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        FnvWords {
            hash: OFFSET_BASIS,
            pending: [0; 8],
            held: 0,
        }
    }

    /// Folds a byte slice into the digest.
    pub fn write(&mut self, mut bytes: &[u8]) {
        if self.held > 0 {
            let take = (8 - self.held).min(bytes.len());
            self.pending[self.held..self.held + take].copy_from_slice(&bytes[..take]);
            self.held += take;
            bytes = &bytes[take..];
            if self.held < 8 {
                return;
            }
            self.hash = (self.hash ^ u64::from_le_bytes(self.pending)).wrapping_mul(PRIME);
            self.held = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("chunks of 8 bytes"));
            self.hash = (self.hash ^ word).wrapping_mul(PRIME);
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.held = rest.len();
    }

    /// The digest of the bytes written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.pending[..self.held]
            .iter()
            .fold(self.hash, |hash, &byte| {
                (hash ^ u64::from(byte)).wrapping_mul(PRIME)
            })
    }
}

impl Default for FnvWords {
    fn default() -> Self {
        FnvWords::new()
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

    /// Byte-wise FNV-1a, one byte at a time: what [`Fnv1a::write`] must
    /// equal.
    fn reference(bytes: &[u8]) -> u64 {
        bytes.iter().fold(OFFSET_BASIS, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(PRIME)
        })
    }

    /// Fixed-seed bytes from a xorshift64 generator.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[0]
            })
            .collect()
    }

    /// Asserts the fold of `bytes` equals the reference, in one call and
    /// split across two calls at every split point.
    fn assert_folds_like_the_reference(bytes: &[u8]) {
        let expected = reference(bytes);
        assert_eq!(fnv1a_64(bytes), expected, "one call over {bytes:?}");
        for split in 0..=bytes.len() {
            let mut hasher = Fnv1a::new();
            hasher.write(&bytes[..split]);
            hasher.write(&bytes[split..]);
            assert_eq!(hasher.finish(), expected, "split at {split} of {bytes:?}");
        }
    }

    #[test]
    fn zero_words_fold_to_the_byte_wise_value() {
        assert_eq!(
            PRIME_POW_8,
            (0..8).fold(1u64, |power, _| power.wrapping_mul(PRIME))
        );
        for len in 0..=80 {
            assert_folds_like_the_reference(&noise(len, 0x9e37_79b9_7f4a_7c15));
            assert_folds_like_the_reference(&vec![0; len]);
            // Zero runs starting at every offset within a word, short of a
            // word, exactly one, and crossing one or two word boundaries.
            for start in 0..8 {
                for run in [1, 7, 8, 9, 16, 17] {
                    let mut bytes = noise(len, len as u64 * 64 + start as u64 + 1);
                    for byte in bytes.iter_mut().skip(start).take(run) {
                        *byte = 0;
                    }
                    assert_folds_like_the_reference(&bytes);
                }
            }
        }
    }

    #[test]
    fn zero_word_runs_fold_to_the_byte_wise_value() {
        // A run of 0–300 zero words starting at every offset within a word,
        // between non-zero bytes, in one call and split across calls inside
        // the run, at its edges and three ways.
        for words in 0..=300 {
            for start in 0..8 {
                let run = 8 * words;
                let mut bytes: Vec<u8> = noise(start, words as u64 + 1)
                    .into_iter()
                    .map(|byte| byte | 1)
                    .collect();
                bytes.resize(start + run, 0);
                bytes.extend_from_slice(b"after the run");
                let expected = reference(&bytes);
                assert_eq!(fnv1a_64(&bytes), expected, "{words} words at {start}");
                for split in [
                    0,
                    start,
                    start + 3,
                    start + run / 2,
                    start + run,
                    bytes.len(),
                ] {
                    let split = split.min(bytes.len());
                    let mut hasher = Fnv1a::new();
                    hasher.write(&bytes[..split]);
                    hasher.write(&bytes[split..]);
                    assert_eq!(
                        hasher.finish(),
                        expected,
                        "{words} words at {start}, split {split}"
                    );
                }
                let (third, two_thirds) = (start + run / 3, start + 2 * run / 3 + 5);
                let mut hasher = Fnv1a::new();
                hasher.write(&bytes[..third]);
                hasher.write(&bytes[third..two_thirds]);
                hasher.write(&bytes[two_thirds..]);
                assert_eq!(
                    hasher.finish(),
                    expected,
                    "{words} words at {start}, three calls"
                );
            }
        }
    }

    #[test]
    fn integer_writes_fold_to_the_byte_wise_value() {
        for value in [0, 1, 0x100, 0xff00_0000, u64::MAX, 0x0807_0605_0403_0201] {
            let mut hasher = Fnv1a::new();
            hasher.write_u8(value as u8);
            hasher.write_u32(value as u32);
            hasher.write_u64(value);
            let mut bytes = vec![value as u8];
            bytes.extend_from_slice(&(value as u32).to_le_bytes());
            bytes.extend_from_slice(&value.to_le_bytes());
            assert_eq!(hasher.finish(), reference(&bytes), "{value:#x}");
        }
    }

    #[test]
    fn a_stack_like_buffer_folds_to_the_byte_wise_value() {
        // 8 KiB of mostly zero words, with a live region of noise at the
        // top and scattered nonzero words below it, as a stored stack has.
        let mut bytes = vec![0u8; 8192];
        bytes[7_000..].copy_from_slice(&noise(1_192, 7));
        for (index, word) in noise(64, 11).iter().enumerate() {
            let at = index * 97 + usize::from(*word % 8);
            bytes[at] = word | 1;
        }
        assert_folds_like_the_reference(&bytes);
    }

    #[test]
    fn the_word_fold_folds_whole_words_then_the_tail_bytes() {
        // Under 8 bytes there is no whole word, so the fold is byte-wise.
        assert_eq!(fnv1a_64_words(b""), fnv1a_64(b""));
        assert_eq!(fnv1a_64_words(b"foobar"), fnv1a_64(b"foobar"));
        let word = u64::from_le_bytes(*b"01234567");
        let expected = (OFFSET_BASIS ^ word).wrapping_mul(PRIME);
        assert_eq!(fnv1a_64_words(b"01234567"), expected);
        let mut tail = Fnv1a { hash: expected };
        tail.write(b"89");
        assert_eq!(fnv1a_64_words(b"0123456789"), tail.finish());
        assert_ne!(fnv1a_64_words(b"0123456789"), fnv1a_64(b"0123456789"));
    }

    #[test]
    fn the_word_fold_ignores_how_the_input_was_split() {
        let bytes: Vec<u8> = (0u32..300).map(|i| (i * 7 + 3) as u8).collect();
        let whole = fnv1a_64_words(&bytes);
        for split in [1, 3, 7, 8, 9, 64, 299] {
            let mut hasher = FnvWords::new();
            for chunk in bytes.chunks(split) {
                hasher.write(chunk);
                hasher.write(&[]);
            }
            assert_eq!(hasher.finish(), whole, "split {split}");
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
