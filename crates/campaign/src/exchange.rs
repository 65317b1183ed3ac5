//! Request/response pairs observed at the simulated network, with an HTTP
//! status-line parser shared by every scenario and report.

/// One request/response pair observed at the simulated network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServedRequest {
    /// The raw request the client sent.
    pub request: Vec<u8>,
    /// The raw response the server produced (possibly empty if the group
    /// was terminated before answering).
    pub response: Vec<u8>,
}

impl ServedRequest {
    /// Parses the HTTP status code out of the response's status line.
    ///
    /// Accepts any `HTTP/<major>.<minor>` version token (`HTTP/1.0`,
    /// `HTTP/1.1`, ...), then expects a three-digit status code. Returns
    /// `None` for empty or malformed responses.
    #[must_use]
    pub fn status_code(&self) -> Option<u16> {
        let line = self
            .response
            .split(|&b| b == b'\r' || b == b'\n')
            .next()
            .unwrap_or(&[]);
        let rest = line.strip_prefix(b"HTTP/")?;
        // The version token ("1.0", "1.1", "2", ...) up to the space: must
        // start with a digit and contain only digits and dots.
        let space = rest.iter().position(|&b| b == b' ')?;
        let version = &rest[..space];
        if !version.first().is_some_and(u8::is_ascii_digit)
            || !version.iter().all(|&b| b.is_ascii_digit() || b == b'.')
        {
            return None;
        }
        // Exactly three status digits, terminated by a space, the reason
        // phrase, or the end of the line ("HTTP/1.0 2004" is malformed).
        let status_line = &rest[space + 1..];
        let digits = status_line.get(..3)?;
        if !digits.iter().all(u8::is_ascii_digit) || status_line.get(3).is_some_and(|&b| b != b' ')
        {
            return None;
        }
        Some(
            digits
                .iter()
                .fold(0u16, |acc, &d| acc * 10 + u16::from(d - b'0')),
        )
    }

    /// Returns `true` if the response is a 200.
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.status_code() == Some(200)
    }

    /// Returns `true` if the response is a 403.
    #[must_use]
    pub fn is_forbidden(&self) -> bool {
        self.status_code() == Some(403)
    }

    /// Returns `true` if the response is a 404.
    #[must_use]
    pub fn is_not_found(&self) -> bool {
        self.status_code() == Some(404)
    }

    /// The response body (everything after the blank line).
    #[must_use]
    pub fn body(&self) -> &[u8] {
        match self.response.windows(4).position(|w| w == b"\r\n\r\n") {
            Some(pos) => &self.response[pos + 4..],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(response: &[u8]) -> ServedRequest {
        ServedRequest {
            request: b"GET / HTTP/1.0\r\n\r\n".to_vec(),
            response: response.to_vec(),
        }
    }

    #[test]
    fn status_code_parses_both_http_versions() {
        assert_eq!(
            served(b"HTTP/1.0 200 OK\r\n\r\nhello").status_code(),
            Some(200)
        );
        assert_eq!(
            served(b"HTTP/1.1 200 OK\r\n\r\nhello").status_code(),
            Some(200)
        );
        assert_eq!(
            served(b"HTTP/1.1 404 Not Found\r\n\r\n").status_code(),
            Some(404)
        );
        assert_eq!(
            served(b"HTTP/2 403 Forbidden\r\n\r\n").status_code(),
            Some(403)
        );
    }

    #[test]
    fn status_code_rejects_malformed_responses() {
        assert_eq!(served(b"").status_code(), None);
        assert_eq!(served(b"garbage").status_code(), None);
        assert_eq!(served(b"HTTP/ 200 OK").status_code(), None);
        assert_eq!(served(b"HTTP/x.y 200 OK").status_code(), None);
        assert_eq!(served(b"HTTP/1.0").status_code(), None);
        assert_eq!(served(b"HTTP/1.0 2x0 huh").status_code(), None);
        assert_eq!(served(b"HTTP/1.0 20").status_code(), None);
        // Exactly three status digits and a real version token.
        assert_eq!(served(b"HTTP/1.1 2004 Weird\r\n\r\n").status_code(), None);
        assert_eq!(served(b"HTTP/.. 200 OK\r\n\r\n").status_code(), None);
        assert_eq!(served(b"HTTP/.1 200 OK\r\n\r\n").status_code(), None);
        // Bare status with no reason phrase is fine.
        assert_eq!(served(b"HTTP/1.1 204\r\n\r\n").status_code(), Some(204));
    }

    #[test]
    fn helpers_use_the_parser() {
        assert!(served(b"HTTP/1.1 200 OK\r\n\r\n").is_success());
        assert!(served(b"HTTP/1.1 403 Forbidden\r\n\r\n").is_forbidden());
        assert!(served(b"HTTP/1.1 404 Not Found\r\n\r\n").is_not_found());
        assert!(!served(b"").is_success());
        assert!(!served(b"").is_not_found());
    }

    #[test]
    fn body_extracts_after_blank_line() {
        assert_eq!(served(b"HTTP/1.0 200 OK\r\n\r\nhello").body(), b"hello");
        assert_eq!(served(b"no blank line").body(), b"");
    }
}
