//! Hand-written lexer for the SystemVerilog subset.

use std::fmt;

/// Token classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are distinguished by the parser).
    Ident(String),
    /// Numeric literal, kept as source text: `42`, `4'b10x0`, `'0`.
    Number(String),
    /// Punctuation or operator symbol, e.g. `(`, `<=`, `===`.
    Symbol(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Number(s) => write!(f, "number `{s}`"),
            TokenKind::Symbol(s) => write!(f, "`{s}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification and text.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

/// One-character punctuation and operator symbols.
const SINGLE: &[&str] = &[
    "(", ")", "[", "]", "{", "}", ";", ",", ":", ".", "#", "?", "=", "+", "-", "*", "/", "%", "!",
    "~", "&", "|", "^", "<", ">", "@",
];

/// The longest symbol `rest` starts with: a two- or three-character
/// operator, picked by its leading bytes, else a [`SINGLE`] one.
fn symbol_at(rest: &[u8]) -> Option<&'static str> {
    let next = |n: usize| rest.get(n).copied();
    Some(match (rest[0], next(1), next(2)) {
        (b'=', Some(b'='), Some(b'=')) => "===",
        (b'!', Some(b'='), Some(b'=')) => "!==",
        (b'<', Some(b'<'), _) => "<<",
        (b'>', Some(b'>'), _) => ">>",
        (b'<', Some(b'='), _) => "<=",
        (b'>', Some(b'='), _) => ">=",
        (b'=', Some(b'='), _) => "==",
        (b'!', Some(b'='), _) => "!=",
        (b'&', Some(b'&'), _) => "&&",
        (b'|', Some(b'|'), _) => "||",
        (b'~', Some(b'&'), _) => "~&",
        (b'~', Some(b'|'), _) => "~|",
        (b'~', Some(b'^'), _) => "~^",
        (b'-', Some(b'>'), _) => "->",
        (c, _, _) => return SINGLE.iter().find(|s| s.as_bytes() == [c]).copied(),
    })
}

/// Error produced when the input contains a character that starts no token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// The offending character.
    pub ch: char,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected character `{}` on line {}",
            self.ch, self.line
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenises `src`, skipping whitespace and `//`/`/* */` comments.
///
/// Scans bytes: every token is ASCII, so only whitespace and the
/// offending character of an error are ever decoded as `char`s.
///
/// # Errors
///
/// Returns [`LexError`] on a character that cannot start any token.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1u32;

    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if !c.is_ascii() {
            // Every branch stops on a char boundary (comments end at an
            // ASCII byte), so a char starts at `i`.
            let ch = src[i..].chars().next().expect("non-empty tail");
            if !ch.is_whitespace() {
                return Err(LexError { ch, line });
            }
            i += ch.len_utf8();
            continue;
        }
        if (c as char).is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comment.
        if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
            i += 2;
            while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                if bytes[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            i = (i + 2).min(bytes.len());
            continue;
        }
        // Identifier / keyword / system identifier ($past etc.).
        if c.is_ascii_alphabetic() || c == b'_' || c == b'$' {
            let start = i;
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident(src[start..i].to_string()),
                line,
            });
            continue;
        }
        // Number: digits, optionally followed by 'b/'h/'d/'o and digits.
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
            if bytes.get(i) == Some(&b'\'') {
                i += 1; // tick
                if i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                    i += 1; // base
                    while i < bytes.len()
                        && (bytes[i].is_ascii_alphanumeric()
                            || bytes[i] == b'_'
                            || bytes[i] == b'?')
                    {
                        i += 1;
                    }
                }
            }
            tokens.push(Token {
                kind: TokenKind::Number(src[start..i].to_string()),
                line,
            });
            continue;
        }
        // Unsized fill literal: '0 '1 'x 'z
        if c == b'\'' && bytes.get(i + 1).is_some_and(|n| n.is_ascii_alphanumeric()) {
            tokens.push(Token {
                kind: TokenKind::Number(src[i..i + 2].to_string()),
                line,
            });
            i += 2;
            continue;
        }
        // Operator / punctuation: the longest symbol starting here.
        let Some(sym) = symbol_at(&bytes[i..]) else {
            return Err(LexError {
                ch: c as char,
                line,
            });
        };
        tokens.push(Token {
            kind: TokenKind::Symbol(sym),
            line,
        });
        i += sym.len();
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_identifiers_and_symbols() {
        let toks = kinds("assign y = a & b;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("assign".into()),
                TokenKind::Ident("y".into()),
                TokenKind::Symbol("="),
                TokenKind::Ident("a".into()),
                TokenKind::Symbol("&"),
                TokenKind::Ident("b".into()),
                TokenKind::Symbol(";"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_based_literals_as_single_tokens() {
        let toks = kinds("4'b10x0 16'hdead 8'd25 '0 'z 42");
        let nums: Vec<String> = toks
            .iter()
            .filter_map(|t| match t {
                TokenKind::Number(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["4'b10x0", "16'hdead", "8'd25", "'0", "'z", "42"]);
    }

    #[test]
    fn greedy_multi_char_symbols() {
        assert_eq!(
            kinds("a <= b === c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Symbol("<="),
                TokenKind::Ident("b".into()),
                TokenKind::Symbol("==="),
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
        assert_eq!(kinds("a<b")[1], TokenKind::Symbol("<"));
        assert_eq!(kinds("x!==y")[1], TokenKind::Symbol("!=="));
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let toks = lex("// top\nmodule /* inline\nspanning */ m;\n").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("module".into()));
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks[1].kind, TokenKind::Ident("m".into()));
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn system_identifiers() {
        let toks = kinds("$past(x)");
        assert_eq!(toks[0], TokenKind::Ident("$past".into()));
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = lex("a ` b").unwrap_err();
        assert_eq!(err.ch, '`');
        assert_eq!(err.line, 1);
    }

    #[test]
    fn underscored_numbers() {
        let toks = kinds("16'b1010_0101 1_000");
        assert_eq!(toks[0], TokenKind::Number("16'b1010_0101".into()));
        assert_eq!(toks[1], TokenKind::Number("1_000".into()));
    }
}
