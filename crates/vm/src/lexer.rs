//! The SimC lexer.

use std::fmt;

/// Tokens produced by the lexer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// Identifier or keyword-like type name.
    Ident(String),
    /// Integer literal (decimal, hexadecimal, or character constant).
    Int(i64),
    /// String literal (unescaped contents).
    Str(String),
    /// `fn`
    KwFn,
    /// `var`
    KwVar,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `return`
    KwReturn,
    /// `break`
    KwBreak,
    /// `continue`
    KwContinue,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semicolon,
    /// `->`
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Int(n) => write!(f, "integer {n}"),
            Token::Str(s) => write!(f, "string {s:?}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token together with the source line it started on (for diagnostics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// 1-based source line number.
    pub line: usize,
}

/// Errors produced while tokenizing SimC source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line number.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes SimC source text.
///
/// # Errors
///
/// Returns a [`LexError`] for unterminated strings or characters, malformed
/// numbers, or bytes that start no token.
///
/// # Example
///
/// ```
/// use nvariant_vm::lexer::{tokenize, Token};
///
/// let tokens = tokenize("uid = getuid();")?;
/// assert_eq!(tokens[0].token, Token::Ident("uid".into()));
/// assert_eq!(tokens[1].token, Token::Assign);
/// # Ok::<(), nvariant_vm::LexError>(())
/// ```
pub fn tokenize(source: &str) -> Result<Vec<SpannedToken>, LexError> {
    let bytes: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;

    let err = |message: &str, line: usize| LexError {
        message: message.to_string(),
        line,
    };

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(err("unterminated block comment", line));
                    }
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    if bytes[i] == '*' && bytes[i + 1] == '/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                let token = match word.as_str() {
                    "fn" => Token::KwFn,
                    "var" => Token::KwVar,
                    "if" => Token::KwIf,
                    "else" => Token::KwElse,
                    "while" => Token::KwWhile,
                    "return" => Token::KwReturn,
                    "break" => Token::KwBreak,
                    "continue" => Token::KwContinue,
                    _ => Token::Ident(word),
                };
                tokens.push(SpannedToken { token, line });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                if c == '0' && i + 1 < bytes.len() && (bytes[i + 1] == 'x' || bytes[i + 1] == 'X') {
                    i += 2;
                    let hex_start = i;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    if hex_start == i {
                        return Err(err("malformed hexadecimal literal", line));
                    }
                    let text: String = bytes[hex_start..i].iter().collect();
                    let value = i64::from_str_radix(&text, 16)
                        .map_err(|_| err("hexadecimal literal out of range", line))?;
                    tokens.push(SpannedToken {
                        token: Token::Int(value),
                        line,
                    });
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text: String = bytes[start..i].iter().collect();
                    let value = text
                        .parse::<i64>()
                        .map_err(|_| err("decimal literal out of range", line))?;
                    tokens.push(SpannedToken {
                        token: Token::Int(value),
                        line,
                    });
                }
            }
            '"' => {
                i += 1;
                let mut value = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(err("unterminated string literal", line));
                    }
                    match bytes[i] {
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\\' => {
                            if i + 1 >= bytes.len() {
                                return Err(err("unterminated escape sequence", line));
                            }
                            let escaped = match bytes[i + 1] {
                                'n' => '\n',
                                'r' => '\r',
                                't' => '\t',
                                '0' => '\0',
                                '\\' => '\\',
                                '"' => '"',
                                other => {
                                    return Err(err(
                                        &format!("unknown escape sequence \\{other}"),
                                        line,
                                    ))
                                }
                            };
                            value.push(escaped);
                            i += 2;
                        }
                        '\n' => return Err(err("newline in string literal", line)),
                        other => {
                            value.push(other);
                            i += 1;
                        }
                    }
                }
                tokens.push(SpannedToken {
                    token: Token::Str(value),
                    line,
                });
            }
            '\'' => {
                if i + 2 >= bytes.len() {
                    return Err(err("unterminated character literal", line));
                }
                let (value, consumed) = if bytes[i + 1] == '\\' {
                    let escaped = match bytes[i + 2] {
                        'n' => b'\n',
                        'r' => b'\r',
                        't' => b'\t',
                        '0' => 0,
                        '\\' => b'\\',
                        '\'' => b'\'',
                        other => {
                            return Err(err(&format!("unknown escape sequence \\{other}"), line))
                        }
                    };
                    (escaped, 4)
                } else {
                    (bytes[i + 1] as u8, 3)
                };
                if i + consumed > bytes.len() || bytes[i + consumed - 1] != '\'' {
                    return Err(err("unterminated character literal", line));
                }
                tokens.push(SpannedToken {
                    token: Token::Int(i64::from(value)),
                    line,
                });
                i += consumed;
            }
            '(' => {
                tokens.push(SpannedToken {
                    token: Token::LParen,
                    line,
                });
                i += 1;
            }
            ')' => {
                tokens.push(SpannedToken {
                    token: Token::RParen,
                    line,
                });
                i += 1;
            }
            '{' => {
                tokens.push(SpannedToken {
                    token: Token::LBrace,
                    line,
                });
                i += 1;
            }
            '}' => {
                tokens.push(SpannedToken {
                    token: Token::RBrace,
                    line,
                });
                i += 1;
            }
            '[' => {
                tokens.push(SpannedToken {
                    token: Token::LBracket,
                    line,
                });
                i += 1;
            }
            ']' => {
                tokens.push(SpannedToken {
                    token: Token::RBracket,
                    line,
                });
                i += 1;
            }
            ',' => {
                tokens.push(SpannedToken {
                    token: Token::Comma,
                    line,
                });
                i += 1;
            }
            ':' => {
                tokens.push(SpannedToken {
                    token: Token::Colon,
                    line,
                });
                i += 1;
            }
            ';' => {
                tokens.push(SpannedToken {
                    token: Token::Semicolon,
                    line,
                });
                i += 1;
            }
            '+' => {
                tokens.push(SpannedToken {
                    token: Token::Plus,
                    line,
                });
                i += 1;
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '>' {
                    tokens.push(SpannedToken {
                        token: Token::Arrow,
                        line,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Minus,
                        line,
                    });
                    i += 1;
                }
            }
            '*' => {
                tokens.push(SpannedToken {
                    token: Token::Star,
                    line,
                });
                i += 1;
            }
            '/' => {
                tokens.push(SpannedToken {
                    token: Token::Slash,
                    line,
                });
                i += 1;
            }
            '%' => {
                tokens.push(SpannedToken {
                    token: Token::Percent,
                    line,
                });
                i += 1;
            }
            '~' => {
                tokens.push(SpannedToken {
                    token: Token::Tilde,
                    line,
                });
                i += 1;
            }
            '^' => {
                tokens.push(SpannedToken {
                    token: Token::Caret,
                    line,
                });
                i += 1;
            }
            '&' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '&' {
                    tokens.push(SpannedToken {
                        token: Token::AndAnd,
                        line,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Amp,
                        line,
                    });
                    i += 1;
                }
            }
            '|' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '|' {
                    tokens.push(SpannedToken {
                        token: Token::OrOr,
                        line,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Pipe,
                        line,
                    });
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                    tokens.push(SpannedToken {
                        token: Token::NotEq,
                        line,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Bang,
                        line,
                    });
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                    tokens.push(SpannedToken {
                        token: Token::EqEq,
                        line,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Assign,
                        line,
                    });
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                    tokens.push(SpannedToken {
                        token: Token::Le,
                        line,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == '<' {
                    tokens.push(SpannedToken {
                        token: Token::Shl,
                        line,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Lt,
                        line,
                    });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                    tokens.push(SpannedToken {
                        token: Token::Ge,
                        line,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == '>' {
                    tokens.push(SpannedToken {
                        token: Token::Shr,
                        line,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Gt,
                        line,
                    });
                    i += 1;
                }
            }
            other => {
                return Err(err(&format!("unexpected character {other:?}"), line));
            }
        }
    }

    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            toks("fn var if else while return break continue uid_t foo_1"),
            vec![
                Token::KwFn,
                Token::KwVar,
                Token::KwIf,
                Token::KwElse,
                Token::KwWhile,
                Token::KwReturn,
                Token::KwBreak,
                Token::KwContinue,
                Token::Ident("uid_t".into()),
                Token::Ident("foo_1".into()),
            ]
        );
    }

    #[test]
    fn numbers_decimal_hex_char() {
        assert_eq!(
            toks("0 42 0x7FFFFFFF 'A' '\\n' '\\0'"),
            vec![
                Token::Int(0),
                Token::Int(42),
                Token::Int(0x7FFF_FFFF),
                Token::Int(65),
                Token::Int(10),
                Token::Int(0),
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""GET / HTTP/1.0\r\n""#),
            vec![Token::Str("GET / HTTP/1.0\r\n".into())]
        );
    }

    #[test]
    fn operators_multi_char() {
        assert_eq!(
            toks("== != <= >= << >> && || -> = < >"),
            vec![
                Token::EqEq,
                Token::NotEq,
                Token::Le,
                Token::Ge,
                Token::Shl,
                Token::Shr,
                Token::AndAnd,
                Token::OrOr,
                Token::Arrow,
                Token::Assign,
                Token::Lt,
                Token::Gt,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // comment\n b /* block\n comment */ c"),
            vec![
                Token::Ident("a".into()),
                Token::Ident("b".into()),
                Token::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn line_numbers_are_tracked() {
        let tokens = tokenize("a\nb\n\nc").unwrap();
        assert_eq!(tokens[0].line, 1);
        assert_eq!(tokens[1].line, 2);
        assert_eq!(tokens[2].line, 4);
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let err = tokenize("ok\n\"unterminated").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unterminated"));
        assert!(tokenize("@").is_err());
        assert!(tokenize("/* never closed").is_err());
        assert!(tokenize("'x").is_err());
        assert!(tokenize("0x").is_err());
    }

    #[test]
    fn full_statement() {
        assert_eq!(
            toks("if (uid == 0) { send(fd, buf, 8); }"),
            vec![
                Token::KwIf,
                Token::LParen,
                Token::Ident("uid".into()),
                Token::EqEq,
                Token::Int(0),
                Token::RParen,
                Token::LBrace,
                Token::Ident("send".into()),
                Token::LParen,
                Token::Ident("fd".into()),
                Token::Comma,
                Token::Ident("buf".into()),
                Token::Comma,
                Token::Int(8),
                Token::RParen,
                Token::Semicolon,
                Token::RBrace,
            ]
        );
    }
}
