//! Stable 64-bit folds: the same value on every platform and in every
//! process.
//!
//! `std`'s `DefaultHasher` may change its output between releases, so
//! whatever must compare equal across processes, runs or machines is
//! computed here, by one of two folds:
//!
//! - **Byte-wise FNV-1a** ([`Fnv1a`], [`fnv1a_64`]) for the identities
//!   that cross processes and are pinned: the campaign plan hash, the
//!   artifact store's content fingerprints and checksums, and the text
//!   digests built on them. The model checker's state digests also fold
//!   their scalar fields (registers, descriptors, credentials, lengths)
//!   through it. It folds a byte as `hash = (hash ^ byte) * PRIME (mod
//!   2^64)`: one multiply per byte.
//! - **The word fold** ([`WordFold`], [`word_fold`]) for byte payloads
//!   compared within a run and for checksums: the state digests' process
//!   memory, connection buffers, preloaded requests, console buffers and
//!   file contents, and the cell cache's record checksums.
//!
//! # The word fold
//!
//! The input is read as little-endian 8-byte words, the last one
//! zero-padded. Word `k`, if it is not zero, adds
//! `mix(word ^ WORD_KEY, POSITION_BASE + k * POSITION_STEP)` to a sum
//! modulo 2^64, where `mix(a, b)` is the 128-bit product of `a` and `b`
//! with its two halves XORed together. A zero word adds nothing. The
//! digest is `mix(sum ^ FINISH_KEY, length ^ LENGTH_KEY)`, the length in
//! bytes. So:
//!
//! 1. it takes 8 bytes per step through one full-width multiply;
//! 2. zero words cost nothing: [`WordFold::write_zeros`] folds a run of
//!    zeros in O(1), and [`WordFold::write`] skips an all-zero 64-byte
//!    block after one test. A process stack's unstored zeros and its
//!    stored ones fold alike;
//! 3. it streams: each word's term depends only on the word and its index,
//!    so however the input is split between calls, the value is the same;
//! 4. a difference in any bit of a word changes the product across its
//!    full width, and so reaches the whole result.
//!
//! **Why not FNV-1a.** Byte-wise FNV-1a pays a multiply per byte: for the
//! ~6 KB of globals and stored stack a process digest meets, that was most
//! of a model-check sweep. FNV-1a over whole words,
//! `hash = (hash ^ word) * PRIME`, is cheap but weak: a multiply only
//! carries upward, so a difference in a word's top byte stays in the
//! hash's top byte, and two such differences cancel about once in 256.
//! The cell cache's checksums were that fold, and let two changed hex
//! digits of a payload through as a hit.
//!
//! Neither fold resists inputs chosen to collide: they tell states apart
//! and catch accidental damage.
//!
//! # Zero runs in FNV-1a
//!
//! A zero byte leaves FNV-1a's XOR step unchanged, so a run of `n` zero
//! bytes multiplies the state by `PRIME^n`: [`Fnv1a::write_zeros`] takes
//! that power by repeated squaring in O(log n) steps, and returns exactly
//! what `n` one-byte zero writes would.

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
/// fields (identities, and the scalar fields of state digests) without
/// building an intermediate buffer.
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

    /// Folds a byte slice into the digest, one byte at a time.
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

    /// Folds a `u64` into the digest (little-endian); zero, eight zero
    /// bytes, as one multiplication by `PRIME^8`.
    pub fn write_u64(&mut self, value: u64) {
        if value == 0 {
            self.hash = self.hash.wrapping_mul(PRIME_POW_8);
        } else {
            self.write(&value.to_le_bytes());
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

/// The key every word is XORed with before it is multiplied.
const WORD_KEY: u64 = 0xa076_1d64_78bd_642f;

/// The multiplier of word 0; word `k`'s is `POSITION_BASE + k * POSITION_STEP`.
const POSITION_BASE: u64 = 0xe703_7ed1_a0b4_28db;

/// How far one word's multiplier is from the next one's (odd).
const POSITION_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// The key [`WordFold::finish`] XORs the sum with.
const FINISH_KEY: u64 = 0x8ebc_6af0_9c88_c6e3;

/// The key [`WordFold::finish`] XORs the length with.
const LENGTH_KEY: u64 = 0x5899_65cc_7537_4cc3;

/// The full 128-bit product of `a` and `b`, its halves XORed together.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The little-endian word in the first 8 bytes of `bytes`.
#[inline]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// The term word `word` at word index `at` adds to the sum: a full-width
/// product of the keyed word and the position's multiplier, or nothing for
/// a zero word.
#[inline]
fn term(word: u64, at: u64) -> u64 {
    let position = POSITION_BASE.wrapping_add(at.wrapping_mul(POSITION_STEP));
    let term = mix(word ^ WORD_KEY, position);
    if word == 0 {
        0
    } else {
        term
    }
}

/// Folds `bytes` with the word fold in one call (see the module docs).
#[must_use]
pub fn word_fold(bytes: &[u8]) -> u64 {
    let mut fold = WordFold::new();
    fold.write(bytes);
    fold.finish()
}

/// A streaming word fold (see the module docs): the digest depends only on
/// the bytes written, not on how they were split between
/// [`write`](Self::write) and [`write_zeros`](Self::write_zeros) calls.
#[derive(Clone, Debug, Default)]
pub struct WordFold {
    /// The sum of every finished non-zero word's term.
    sum: u64,
    /// Bytes written so far.
    len: u64,
    /// The bytes of the unfinished word, `len % 8` of them, in place.
    tail: u64,
}

impl WordFold {
    /// Starts an empty fold.
    #[must_use]
    pub fn new() -> Self {
        WordFold::default()
    }

    /// Folds a byte slice. An all-zero 64-byte block costs one test.
    pub fn write(&mut self, mut bytes: &[u8]) {
        let held = (self.len % 8) as usize;
        if held > 0 {
            let take = bytes.len().min(8 - held);
            self.hold(&bytes[..take], held);
            self.len += take as u64;
            bytes = &bytes[take..];
            if held + take < 8 {
                return;
            }
            self.add(self.tail, self.len / 8 - 1);
            self.tail = 0;
        }
        let mut index = self.len / 8;
        self.len += bytes.len() as u64;
        let mut blocks = bytes.chunks_exact(64);
        for block in &mut blocks {
            let words: [u64; 8] = std::array::from_fn(|at| word(&block[8 * at..]));
            if words.iter().any(|&word| word != 0) {
                for (at, word) in (index..).zip(words) {
                    self.add(word, at);
                }
            }
            index += 8;
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for (at, bytes) in (index..).zip(&mut words) {
            self.add(word(bytes), at);
        }
        self.hold(words.remainder(), 0);
    }

    /// Places `bytes` in the unfinished word, from its byte `from` on.
    fn hold(&mut self, bytes: &[u8], from: usize) {
        for (at, &byte) in (from..).zip(bytes) {
            self.tail |= u64::from(byte) << (8 * at);
        }
    }

    /// Folds `n` zero bytes: the same state as `write(&[0; n])`, in O(1).
    pub fn write_zeros(&mut self, n: usize) {
        let held = self.len % 8;
        if held > 0 && held + n as u64 >= 8 {
            self.add(self.tail, self.len / 8);
            self.tail = 0;
        }
        self.len += n as u64;
    }

    /// Adds the term of `word` at word index `at`.
    #[inline]
    fn add(&mut self, word: u64, at: u64) {
        self.sum = self.sum.wrapping_add(term(word, at));
    }

    /// The digest of the bytes written so far: an unfinished word folds as
    /// if zero-padded, and the length tells the padding apart.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let sum = self.sum.wrapping_add(term(self.tail, self.len / 8));
        mix(sum ^ FINISH_KEY, self.len ^ LENGTH_KEY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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

    /// The word fold by its definition: every word, the last one
    /// zero-padded, one at a time, with no block skipping or streaming.
    fn word_reference(bytes: &[u8]) -> u64 {
        let mut sum = 0u64;
        for (at, chunk) in (0u64..).zip(bytes.chunks(8)) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            if word != 0 {
                let position = POSITION_BASE.wrapping_add(at.wrapping_mul(POSITION_STEP));
                sum = sum.wrapping_add(mix(word ^ WORD_KEY, position));
            }
        }
        mix(sum ^ FINISH_KEY, bytes.len() as u64 ^ LENGTH_KEY)
    }

    #[test]
    fn the_word_fold_folds_whole_words_then_the_tail_bytes() {
        // Cell-cache packs on disk carry these values as checksums.
        assert_eq!(word_fold(b""), 0x02c4_5fcc_a5b2_4b2a);
        assert_eq!(word_fold(b"foobar"), 0x1fae_5925_c34b_4dd6);
        assert_eq!(word_fold(b"0123456789"), 0x21f3_1616_1f27_0c07);
        assert_eq!(mix(u64::MAX, u64::MAX), 0xffff_ffff_ffff_fffe ^ 1);
        for len in 0..=80 {
            let bytes = noise(len, 0x9e37_79b9_7f4a_7c15);
            assert_eq!(word_fold(&bytes), word_reference(&bytes), "{bytes:?}");
            assert_eq!(word_fold(&vec![0; len]), word_reference(&vec![0; len]));
        }
        // Zero padding folds like zero bytes; only the length tells them
        // apart.
        assert_ne!(word_fold(b"foobar"), word_fold(b"foobar\0\0"));
        let mut bytes = vec![0u8; 8192];
        bytes[7_000..].copy_from_slice(&noise(1_192, 7));
        for (index, word) in noise(64, 11).iter().enumerate() {
            bytes[index * 97 + usize::from(*word % 8)] = word | 1;
        }
        assert_eq!(word_fold(&bytes), word_reference(&bytes));
    }

    /// Folds `bytes` in the parts between `cuts`, each all-zero part as a
    /// count when `counts` holds.
    fn fold_in_parts(bytes: &[u8], cuts: &[usize], counts: bool) -> u64 {
        let mut fold = WordFold::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&bytes.len()]) {
            let part = &bytes[from..to];
            if counts && part.iter().all(|&byte| byte == 0) {
                fold.write_zeros(part.len());
            } else {
                fold.write(part);
            }
            from = to;
        }
        fold.finish()
    }

    #[test]
    fn the_word_fold_ignores_how_the_input_was_split() {
        // Zero runs short of a word, of a word and of a block, starting at
        // every offset within a word, between non-zero bytes; split at
        // every two points, each part written out and, where it is all
        // zeros, as a count.
        for offset in 0..8 {
            for run in [0, 5, 8, 13, 64, 71] {
                let mut bytes: Vec<u8> = noise(offset, run as u64 + 1)
                    .into_iter()
                    .map(|byte| byte | 1)
                    .collect();
                bytes.resize(offset + run, 0);
                bytes.extend_from_slice(b"between");
                bytes.resize(bytes.len() + 64 + offset, 0);
                bytes.extend_from_slice(b"end");
                let whole = word_reference(&bytes);
                assert_eq!(word_fold(&bytes), whole);
                for first in 0..=bytes.len() {
                    for second in first..=bytes.len() {
                        for counts in [false, true] {
                            assert_eq!(
                                fold_in_parts(&bytes, &[first, second], counts),
                                whole,
                                "offset {offset} run {run} cuts {first} {second}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_zero_run_written_as_a_count_folds_like_the_zeros_written_out() {
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 4096, 131_072] {
            for prefix in [&b""[..], b"abc", b"01234567", b"after other input"] {
                let mut counted = WordFold::new();
                counted.write(prefix);
                counted.write_zeros(n);
                counted.write(b"!");
                let mut written = WordFold::new();
                written.write(prefix);
                written.write(&vec![0; n]);
                written.write(b"!");
                assert_eq!(
                    counted.finish(),
                    written.finish(),
                    "n={n} prefix={prefix:?}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flips_and_top_byte_pairs_fold_apart() {
        // A mostly-zero 4 KiB buffer, as a stack is: a live top of 64
        // words and 7 scattered non-zero words below it, 441 zero words
        // of 512. Every single-bit flip, and a flipped top byte in every
        // two of its words, must give its own digest. Word-wise FNV-1a
        // keeps a top-byte difference in the hash's top byte, so it fails
        // both.
        let mut base = vec![0u8; 4096];
        base[3584..].copy_from_slice(&noise(512, 9));
        for (index, byte) in noise(7, 3).iter().enumerate() {
            base[index * 509 % 3584 / 8 * 8] = byte | 1;
        }
        let mut digests = HashSet::from([word_fold(&base)]);
        let mut inputs = 1;
        let mut flipped = base.clone();
        for bit in 0..8 * base.len() {
            flipped[bit / 8] ^= 1 << (bit % 8);
            digests.insert(word_fold(&flipped));
            flipped[bit / 8] ^= 1 << (bit % 8);
            inputs += 1;
        }
        for first in 0..512 {
            flipped[8 * first + 7] ^= 0xff;
            for second in first + 1..512 {
                flipped[8 * second + 7] ^= 0xff;
                digests.insert(word_fold(&flipped));
                flipped[8 * second + 7] ^= 0xff;
                inputs += 1;
            }
            flipped[8 * first + 7] ^= 0xff;
        }
        assert_eq!(digests.len(), inputs);
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
