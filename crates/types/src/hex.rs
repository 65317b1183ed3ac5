//! Table-driven hexadecimal codec for the binary payloads of the line codec
//! ([`lines`](crate::lines)) that the artifact store and the shard
//! interchange format share.
//!
//! Both formats carry binary payloads (code images, request/response bytes)
//! as lowercase hex tokens with a `-` sentinel for the empty payload, and
//! both sit on hot paths — an artifact-store hit decodes every compiled
//! code image, a shard encode, merge or cell-cache hit encodes or decodes
//! every exchange. Encoding writes digit pairs from a precomputed
//! byte→digit-pair table straight into a pre-sized slice of the caller's
//! buffer ([`hex_encode_into`]); decoding looks each digit up in a
//! 256-entry nibble table and checks for a bad digit once per token, not
//! once per nibble.
//!
//! # Example
//!
//! ```
//! use nvariant_types::hex::{hex_decode, hex_encode, hex_encode_into};
//!
//! assert_eq!(hex_encode(&[0xAB, 0x01]), "ab01");
//! assert_eq!(hex_encode(&[]), "-");
//! let mut line = b"exchange ".to_vec();
//! hex_encode_into(&mut line, &[0xAB, 0x01]);
//! assert_eq!(line, b"exchange ab01");
//! assert_eq!(hex_decode("ab01").unwrap(), vec![0xAB, 0x01]);
//! assert_eq!(hex_decode("-").unwrap(), Vec::<u8>::new());
//! ```

/// Lowercase digit pair for every possible byte value.
const ENCODE: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut byte = 0usize;
    while byte < 256 {
        table[byte] = [DIGITS[byte >> 4], DIGITS[byte & 0xF]];
        byte += 1;
    }
    table
};

/// Nibble value for every possible digit byte; `0xFF` marks a non-digit, so
/// OR-ing the looked-up values of a whole token has its high bit set
/// exactly when some digit was bad. The encoder emits lowercase, but the
/// historical decoder accepted uppercase too, so externally produced
/// interchange files keep parsing.
const DECODE: [u8; 256] = {
    let mut table = [0xFFu8; 256];
    let mut b = 0usize;
    while b < 256 {
        let byte = b as u8;
        table[b] = match byte {
            b'0'..=b'9' => byte - b'0',
            b'a'..=b'f' => byte - b'a' + 10,
            b'A'..=b'F' => byte - b'A' + 10,
            _ => 0xFF,
        };
        b += 1;
    }
    table
};

/// Encodes `bytes` as lowercase hex; the empty payload encodes as `-` so it
/// survives space-delimited line formats as a token.
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = Vec::new();
    hex_encode_into(&mut out, bytes);
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Appends [`hex_encode`]'s token for `bytes` to `out`: the buffer grows
/// once, by exactly the token's length, and the digit pairs are written
/// into that slice.
pub fn hex_encode_into(out: &mut Vec<u8>, bytes: &[u8]) {
    if bytes.is_empty() {
        out.push(b'-');
        return;
    }
    let start = out.len();
    out.resize(start + bytes.len() * 2, 0);
    for (pair, &byte) in out[start..].chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&ENCODE[usize::from(byte)]);
    }
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
    if token == "-" {
        return Ok(Vec::new());
    }
    let digits = token.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return Err(format!("odd-length hex payload ({} bytes)", digits.len()));
    }
    let mut out = vec![0u8; digits.len() / 2];
    let mut bad = 0u8;
    for (byte, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
        let high = DECODE[usize::from(pair[0])];
        let low = DECODE[usize::from(pair[1])];
        bad |= high | low;
        *byte = high << 4 | low;
    }
    if bad & 0x80 != 0 {
        // Every digit is ASCII, so the first bad byte starts a character.
        let at = digits
            .iter()
            .position(|&digit| DECODE[usize::from(digit)] == 0xFF)
            .unwrap_or_default();
        let digit = token.get(at..).and_then(|rest| rest.chars().next());
        return Err(format!(
            "bad hex digit {:?}",
            digit.unwrap_or(char::REPLACEMENT_CHARACTER)
        ));
    }
    Ok(out)
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
}
