//! Hexadecimal codec for the binary payloads of the line codec
//! ([`lines`](crate::lines)) that the artifact store and the shard
//! interchange format share.
//!
//! Both formats carry binary payloads (code images, request/response bytes)
//! as lowercase hex tokens with a `-` sentinel for the empty payload, and
//! both sit on hot paths — an artifact-store hit decodes every compiled
//! code image, a shard encode, merge or cell-cache hit encodes or decodes
//! every exchange.
//!
//! # Block kernels
//!
//! One kernel per direction does all the work: encoding turns 16 payload
//! bytes into 32 digits per step, decoding 32 digits into 16 bytes. Each
//! step treats its block as sixteen 16-bit lanes, one byte or one digit
//! pair per lane, and computes every lane with the same branch-free adds,
//! masks and shifts, so LLVM compiles a step to a handful of vector
//! instructions of the baseline x86-64 target, with no table lookups. A
//! payload that is not a whole number of blocks ends with one more step
//! over a block padded with zero bytes or `0` digits, of which only the
//! payload's part is kept.
//!
//! Output is appended block by block into capacity reserved once, so each
//! output byte is written once.
//!
//! # Validity and errors
//!
//! Decoding does not stop at a bad digit. Each step ORs every lane's
//! invalid flags into one accumulator, which is tested once, after the
//! last step. Digits `0-9`, `a-f` and `A-F` are valid: the encoder emits
//! lowercase, but the historical decoder accepted uppercase too, so
//! externally produced interchange files keep parsing. Only a token that
//! failed reaches the cold path that names its problem: odd length first,
//! then the first bad digit, named as the character at its position
//! ([`hex_decode`]). A reader that decodes tokens from raw bytes
//! ([`hex_decode_bytes`]) learns only that a token failed, and asks
//! [`hex_decode`] for the message once it has the token as text.
//!
//! # Example
//!
//! ```
//! use nvariant_types::hex::{hex_decode, hex_decode_bytes, hex_encode, hex_encode_into};
//!
//! assert_eq!(hex_encode(&[0xAB, 0x01]), "ab01");
//! assert_eq!(hex_encode(&[]), "-");
//! let mut line = b"exchange ".to_vec();
//! hex_encode_into(&mut line, &[0xAB, 0x01]);
//! assert_eq!(line, b"exchange ab01");
//! assert_eq!(hex_decode("ab01").unwrap(), vec![0xAB, 0x01]);
//! assert_eq!(hex_decode("-").unwrap(), Vec::<u8>::new());
//! assert_eq!(hex_decode_bytes(b"AB01"), Some(vec![0xAB, 0x01]));
//! assert_eq!(hex_decode_bytes(b"ab0"), None);
//! assert_eq!(hex_decode("ab0g").unwrap_err(), "bad hex digit 'g'");
//! ```

/// Payload bytes one kernel step encodes, or decodes into.
const BLOCK: usize = 16;

/// Encodes one block: each lane holds a byte's high nibble in its low byte
/// and its low nibble in its high byte, so its little-endian bytes are the
/// byte's two digits once `0` is added to each nibble and another 39 to
/// each nibble above 9, which skips from `:` to `a`.
fn encode_block(bytes: &[u8; BLOCK]) -> [u8; 2 * BLOCK] {
    let mut digits = [0u8; 2 * BLOCK];
    let (pairs, _) = digits.as_chunks_mut::<2>();
    for (pair, &byte) in pairs.iter_mut().zip(bytes) {
        let byte = u16::from(byte);
        let nibbles = byte >> 4 | (byte & 0xF) << 8;
        // 0x76 carries a nibble above 9 into bit 7 of its byte.
        let letters = (nibbles + 0x7676) >> 7 & 0x0101;
        *pair = (nibbles + 0x3030 + letters * 39).to_le_bytes();
    }
    digits
}

/// Decodes one block, ORing each lane's invalid flags (bit 7 of a bad
/// digit's byte) into `bad`. A lane holds a digit pair, the high nibble's
/// digit in its low byte. A byte below 0x80 is a decimal digit when adding
/// 0x50 carries it into bit 7 and adding 0x46 does not, and a letter when,
/// with its case bit set, adding 0x1F does and 0x19 does not; neither sum
/// carries out of it. A byte from 0x80 up passes neither test, and its
/// carries can mislead only its neighbour's tests, in a lane already bad.
fn decode_block(digits: &[u8; 2 * BLOCK], bad: &mut [u16; BLOCK]) -> [u8; BLOCK] {
    let mut bytes = [0u8; BLOCK];
    let (pairs, _) = digits.as_chunks::<2>();
    for ((byte, &pair), bad) in bytes.iter_mut().zip(pairs).zip(bad.iter_mut()) {
        let pair = u16::from_le_bytes(pair);
        let folded = pair | 0x2020;
        let decimal = pair.wrapping_add(0x5050) & !pair.wrapping_add(0x4646);
        let letter = folded.wrapping_add(0x1F1F) & !folded.wrapping_add(0x1919);
        *bad |= (decimal | letter) & 0x8080 ^ 0x8080;
        // A letter's low four bits are its value less 9.
        let values = (pair & 0x0F0F) + (letter >> 7 & 0x0101) * 9;
        *byte = (values << 4 | values >> 8) as u8;
    }
    bytes
}

/// Encodes `bytes` as lowercase hex; the empty payload encodes as `-` so it
/// survives space-delimited line formats as a token.
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = Vec::new();
    hex_encode_into(&mut out, bytes);
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Appends [`hex_encode`]'s token for `bytes` to `out`: the buffer grows
/// once, by exactly the token's length, and the kernel's digit blocks are
/// appended into it.
pub fn hex_encode_into(out: &mut Vec<u8>, bytes: &[u8]) {
    if bytes.is_empty() {
        out.push(b'-');
        return;
    }
    out.reserve(bytes.len() * 2);
    let (blocks, rest) = bytes.as_chunks::<BLOCK>();
    for block in blocks {
        out.extend_from_slice(&encode_block(block));
    }
    if !rest.is_empty() {
        let mut block = [0u8; BLOCK];
        block[..rest.len()].copy_from_slice(rest);
        out.extend_from_slice(&encode_block(&block)[..2 * rest.len()]);
    }
}

/// Decodes a [`hex_encode`]d token given as bytes, or returns `None` if it
/// is not one: odd length or a bad digit. [`hex_decode`] names the problem.
#[must_use]
pub fn hex_decode_bytes(token: &[u8]) -> Option<Vec<u8>> {
    if token == b"-" {
        return Some(Vec::new());
    }
    if !token.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(token.len() / 2);
    let mut bad = [0u16; BLOCK];
    let (blocks, rest) = token.as_chunks::<{ 2 * BLOCK }>();
    for block in blocks {
        out.extend_from_slice(&decode_block(block, &mut bad));
    }
    if !rest.is_empty() {
        let mut block = [b'0'; 2 * BLOCK];
        block[..rest.len()].copy_from_slice(rest);
        out.extend_from_slice(&decode_block(&block, &mut bad)[..rest.len() / 2]);
    }
    (bad.iter().fold(0, |any, &lane| any | lane) == 0).then_some(out)
}

/// Decodes a [`hex_encode`]d token.
///
/// # Errors
///
/// Returns a message naming the problem for odd-length tokens or non-digit
/// characters (a parser of untrusted interchange files must report, never
/// panic — the input may be arbitrarily corrupt, including mid-UTF-8
/// truncations). A bad digit is named as the character at its position.
pub fn hex_decode(token: &str) -> Result<Vec<u8>, String> {
    hex_decode_bytes(token.as_bytes()).ok_or_else(|| token_error(token))
}

/// What is wrong with a token [`hex_decode_bytes`] refused.
#[cold]
fn token_error(token: &str) -> String {
    let digits = token.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return format!("odd-length hex payload ({} bytes)", digits.len());
    }
    // Every digit is ASCII, so the first bad byte starts a character.
    let at = digits
        .iter()
        .position(|digit| !digit.is_ascii_hexdigit())
        .unwrap_or_default();
    let digit = token.get(at..).and_then(|rest| rest.chars().next());
    format!(
        "bad hex digit {:?}",
        digit.unwrap_or(char::REPLACEMENT_CHARACTER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_byte_value() {
        let all: Vec<u8> = (0..=255).collect();
        let encoded = hex_encode(&all);
        assert_eq!(encoded.len(), 512);
        assert!(encoded.bytes().all(|b| b.is_ascii_hexdigit()));
        assert!(!encoded.bytes().any(|b| b.is_ascii_uppercase()));
        assert_eq!(hex_decode(&encoded).unwrap(), all);
    }

    #[test]
    fn empty_payload_uses_the_dash_sentinel() {
        assert_eq!(hex_encode(&[]), "-");
        assert_eq!(hex_decode("-").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn uppercase_is_accepted_on_decode() {
        assert_eq!(hex_decode("AbFf").unwrap(), vec![0xAB, 0xFF]);
    }

    #[test]
    fn corrupt_tokens_report_without_panicking() {
        assert_eq!(
            hex_decode("abc").unwrap_err(),
            "odd-length hex payload (3 bytes)"
        );
        assert_eq!(hex_decode("zz").unwrap_err(), "bad hex digit 'z'");
        // A multi-byte UTF-8 token must not panic byte-offset slicing.
        assert!(hex_decode("é!").is_err());
        // A non-ASCII digit is named as the character, not its first byte.
        assert_eq!(hex_decode("éé").unwrap_err(), "bad hex digit 'é'");
        assert_eq!(hex_decode("00é").unwrap_err(), "bad hex digit 'é'");
    }

    #[test]
    fn decode_names_the_first_bad_digit_in_either_half_of_a_pair() {
        assert_eq!(hex_decode("zb").unwrap_err(), "bad hex digit 'z'");
        assert_eq!(hex_decode("az").unwrap_err(), "bad hex digit 'z'");
        assert_eq!(hex_decode("ab0z").unwrap_err(), "bad hex digit 'z'");
        assert_eq!(hex_decode("ab0zq1").unwrap_err(), "bad hex digit 'z'");
        assert_eq!(
            hex_decode("ab xy").unwrap_err(),
            "odd-length hex payload (5 bytes)"
        );
        assert_eq!(hex_decode("ab x").unwrap_err(), "bad hex digit ' '");
    }

    #[test]
    fn encode_into_appends_after_existing_bytes_and_matches_encode() {
        for payload in [&b""[..], &[0], &[0xff, 0x00, 0x7f], b"GET / HTTP/1.0"] {
            let mut out = b"exchange ".to_vec();
            hex_encode_into(&mut out, payload);
            assert_eq!(&out[..9], b"exchange ");
            assert_eq!(&out[9..], hex_encode(payload).as_bytes(), "{payload:?}");
        }
    }

    #[test]
    fn matches_the_reference_nibble_walk() {
        let payload: Vec<u8> = (0u32..4096)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        let mut reference = String::new();
        for b in &payload {
            reference.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
            reference.push(char::from_digit(u32::from(b & 0xF), 16).unwrap());
        }
        assert_eq!(hex_encode(&payload), reference);
        assert_eq!(hex_decode(&reference).unwrap(), payload);
        assert_eq!(hex_decode(&reference.to_uppercase()).unwrap(), payload);
    }

    /// The digit value of `byte`, as the decoder must read it.
    fn reference_value(byte: u8) -> Option<u8> {
        char::from(byte).to_digit(16).map(|value| value as u8)
    }

    #[test]
    fn every_byte_value_at_every_offset_of_a_block_and_its_tail() {
        // Tokens of whole blocks, of a padded tail, and of both; every
        // byte value at every offset, in the high and the low digit of a
        // pair, must decode to the reference value or fail.
        for len in [2, 30, 32, 34, 64, 94] {
            let base: Vec<u8> = (0..len)
                .map(|at| b"0123456789abcdefABCDEF"[at % 22])
                .collect();
            for at in 0..len {
                for byte in 0..=255u8 {
                    let mut token = base.clone();
                    token[at] = byte;
                    let expected: Option<Vec<u8>> = token
                        .chunks_exact(2)
                        .map(|pair| {
                            Some(reference_value(pair[0])? << 4 | reference_value(pair[1])?)
                        })
                        .collect();
                    assert_eq!(
                        hex_decode_bytes(&token),
                        expected,
                        "{byte:#04x} at {at} of {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_digit_pair_in_a_first_a_last_and_a_padded_lane() {
        // A lane's tests share carries between its two bytes, so every
        // pair of byte values is tried, not just one bad byte at a time.
        for (len, at) in [(32, 0), (32, 30), (34, 32)] {
            for pair in 0..=u16::MAX {
                let mut token = vec![b'0'; len];
                token[at..at + 2].copy_from_slice(&pair.to_le_bytes());
                let value = reference_value(token[at])
                    .zip(reference_value(token[at + 1]))
                    .map(|(high, low)| high << 4 | low);
                let decoded = hex_decode_bytes(&token).map(|bytes| bytes[at / 2]);
                assert_eq!(decoded, value, "{pair:#06x} at {at} of {len}");
            }
        }
    }

    #[test]
    fn every_length_round_trips_through_whole_and_padded_blocks() {
        let payload: Vec<u8> = (0u32..100)
            .map(|i| (i.wrapping_mul(167) ^ 0x5a) as u8)
            .collect();
        for len in 1..payload.len() {
            let encoded = hex_encode(&payload[..len]);
            assert_eq!(encoded.len(), 2 * len);
            for (pair, &byte) in encoded.as_bytes().chunks_exact(2).zip(&payload) {
                let value = reference_value(pair[0]).zip(reference_value(pair[1]));
                assert_eq!(value, Some((byte >> 4, byte & 0xF)), "{len}");
            }
            assert!(!encoded.bytes().any(|b| b.is_ascii_uppercase()));
            assert_eq!(hex_decode(&encoded).unwrap(), &payload[..len], "{len}");
        }
    }
}
