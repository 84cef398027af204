//! Robustness of the HDL front end over every shipped RTL source.
//!
//! The lexer scans bytes and decodes a `char` only for non-ASCII input
//! (Unicode whitespace, or the character an error reports). These
//! checks pin the behaviour that scan must keep: truncated sources fail
//! with a typed error instead of panicking, printed sources parse back
//! to the same AST, non-ASCII whitespace is skipped, and errors name
//! the offending character and its line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use symbfuzz_hdl::{lex, parse, print_source, LexError, TokenKind};

/// Every `STRIDE`-th char boundary of each source is parsed as a
/// truncated source (odd, so the sample does not lock onto any
/// indentation pattern).
const STRIDE: usize = 11;

/// The processors, peripherals, the 14 Table-1 bugs, goalfabric and
/// hard_factor.
fn sources() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let benches = symbfuzz_designs::processor_benchmarks()
        .into_iter()
        .chain(symbfuzz_designs::peripheral_benchmarks());
    out.extend(benches.map(|b| (b.name.to_string(), b.rtl)));
    out.extend(
        symbfuzz_designs::bug_benchmarks()
            .into_iter()
            .map(|b| (b.name.to_string(), b.rtl)),
    );
    out.push(("goalfabric".into(), symbfuzz_designs::GOAL_FABRIC_RTL));
    out.push(("hard_factor".into(), symbfuzz_designs::HARD_FACTOR_RTL));
    out
}

#[test]
fn truncated_sources_fail_with_typed_errors() {
    let mut parsed = 0;
    for (name, src) in sources() {
        let cuts = src
            .char_indices()
            .map(|(i, _)| i)
            .step_by(STRIDE)
            .chain([src.len()]);
        for cut in cuts {
            let prefix = &src[..cut];
            // Ok or Err are both fine; a panic is not.
            let outcome = catch_unwind(AssertUnwindSafe(|| parse(prefix).map(|_| ())));
            assert!(
                outcome.is_ok(),
                "{name}: parse panicked on its first {cut} bytes"
            );
            parsed += 1;
        }
    }
    assert!(parsed > 1000, "only {parsed} prefixes sampled");
}

#[test]
fn printed_sources_parse_back_to_the_same_ast() {
    let all = sources();
    assert_eq!(all.len(), 23);
    for (name, src) in all {
        let file = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = print_source(&file);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{name} reprinted: {e}"));
        assert_eq!(reparsed, file, "{name}: print then parse changed the AST");
    }
}

#[test]
fn unicode_whitespace_between_tokens_is_skipped() {
    // `char::is_whitespace` accepts both; `u8::is_ascii_whitespace`
    // would reject the vertical tab.
    let toks: Vec<TokenKind> = lex("a\u{a0}b\x0Bc\u{2003}\r\n;")
        .unwrap()
        .into_iter()
        .map(|t| t.kind)
        .collect();
    assert_eq!(
        toks,
        vec![
            TokenKind::Ident("a".into()),
            TokenKind::Ident("b".into()),
            TokenKind::Ident("c".into()),
            TokenKind::Symbol(";"),
            TokenKind::Eof,
        ]
    );
    let toks = lex("x\n\u{a0}\ny").unwrap();
    assert_eq!(
        (toks[1].kind.clone(), toks[1].line),
        (TokenKind::Ident("y".into()), 3)
    );
}

#[test]
fn errors_name_the_offending_character_and_line() {
    assert_eq!(lex("a é b").unwrap_err(), LexError { ch: 'é', line: 1 });
    assert_eq!(lex("'").unwrap_err(), LexError { ch: '\'', line: 1 });
    assert_eq!(
        lex("a\n/* é\n */ b\n€").unwrap_err(),
        LexError { ch: '€', line: 4 }
    );
    // Comments may hold any text; an unterminated one ends the input.
    assert_eq!(lex("// é\n/* ü").unwrap().len(), 1);
    let err = parse("module m;\n  é\nendmodule").unwrap_err();
    assert_eq!(err.line(), 2);
}
