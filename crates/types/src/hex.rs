//! Table-driven hexadecimal codec for the binary payloads of the line codec
//! ([`lines`](crate::lines)) that the artifact store and the shard
//! interchange format share.
//!
//! Both formats carry binary payloads (code images, request/response bytes)
//! as lowercase hex tokens with a `-` sentinel for the empty payload, and
//! both sit on warm-run hot paths — an artifact-store hit decodes every
//! compiled code image, a shard merge decodes every exchange. Encoding goes
//! through a precomputed byte→digit-pair table and decoding through a
//! 256-entry nibble table, so neither walks a match per nibble.
//!
//! # Example
//!
//! ```
//! use nvariant_types::hex::{hex_decode, hex_encode};
//!
//! assert_eq!(hex_encode(&[0xAB, 0x01]), "ab01");
//! assert_eq!(hex_encode(&[]), "-");
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

/// Nibble value for every possible digit byte; `0xFF` marks a non-digit.
/// The encoder emits lowercase, but the historical decoder accepted
/// uppercase too, so externally produced interchange files keep parsing.
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
    if bytes.is_empty() {
        return "-".to_string();
    }
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.extend_from_slice(&ENCODE[usize::from(b)]);
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decodes a [`hex_encode`]d token.
///
/// # Errors
///
/// Returns a message naming the problem for odd-length tokens or non-digit
/// bytes (a parser of untrusted interchange files must report, never
/// panic — the input may be arbitrarily corrupt, including mid-UTF-8
/// truncations).
pub fn hex_decode(token: &str) -> Result<Vec<u8>, String> {
    if token == "-" {
        return Ok(Vec::new());
    }
    if !token.len().is_multiple_of(2) {
        return Err(format!("odd-length hex payload ({} bytes)", token.len()));
    }
    let nibble = |b: u8| -> Result<u8, String> {
        match DECODE[usize::from(b)] {
            0xFF => Err(format!("bad hex digit {:?}", char::from(b))),
            value => Ok(value),
        }
    };
    let mut out = Vec::with_capacity(token.len() / 2);
    for pair in token.as_bytes().chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
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
    }
}
