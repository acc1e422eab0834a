//! Parser robustness: every text parser returns `Ok` or `Err` on
//! mutated valid programs and never panics. Edits insert or replace
//! tokens from the lexers' alphabet, or delete single bytes, so most
//! mutants get past the lexer and reach the grammar and validation.

use proptest::prelude::*;
use rtx::dedalus::parse_dedalus;
use rtx::query::parser::{parse_fo_query, parse_formula, parse_program};

/// Valid inputs for the four parsers.
const SEEDS: [&str; 8] = [
    "t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).",
    "r(X,Y) :- e(X,Y), !p(Y,X), X != Y. q(X) :- lab(X, 'hi'), v(X, -5). ok.",
    "(X) <- s(X) & !exists Y . e(X,Y)",
    "(X, Y) <- (e(X,Y) | e(Y,X)) & X != Y & forall Z . (!e(X,Z) | s(Z))",
    "() <- exists X . (s(X) & true) | false",
    "s(X)@next :- s(X). seen(X) :- s(X). seen(X)@next :- seen(X).",
    "minted(X, now)@next :- want(X). c(X)@async :- e(X), !d(X). % note",
    "a(X) :- e(X). # comment\nb(X)@next :- e(X), X != 3.",
];

/// Token-sized fragments of every lexer's alphabet, plus separators.
const ALPHABET: [&str; 32] = [
    "(", ")", ",", ".", ":-", "<-", "!", "!=", "=", "&", "|", "@", "'", "%", "#", "\n", " ", "-",
    "0", "42", "X", "_", "e", "s", "exists", "forall", "true", "false", "now", "next", "async",
    ":",
];

/// Apply `(kind, position, token)` edits to `seed`: kind 0 inserts the
/// token, kind 1 replaces one byte with it, kind 2 deletes one byte.
fn mutate(seed: &str, edits: &[(u8, u32, usize)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(kind, pos, tok) in edits {
        let tok = ALPHABET[tok].as_bytes();
        let at = pos as usize % (bytes.len() + 1);
        match kind {
            0 => {
                bytes.splice(at..at, tok.iter().copied());
            }
            _ if at == bytes.len() => {}
            1 => {
                bytes.splice(at..at + 1, tok.iter().copied());
            }
            _ => {
                bytes.remove(at);
            }
        }
    }
    String::from_utf8(bytes).expect("seeds and alphabet are ASCII")
}

/// Run `parse` on `src`, turning a panic into a failure message.
fn no_panic<T>(name: &str, src: &str, parse: impl Fn(&str) -> T) -> Result<(), String> {
    let run = std::panic::AssertUnwindSafe(|| drop(parse(src)));
    std::panic::catch_unwind(run).map_err(|_| format!("{name} panicked on {src:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_never_panic_on_mutated_programs(
        seed in 0usize..SEEDS.len(),
        edits in proptest::collection::vec((0u8..3, any::<u32>(), 0usize..ALPHABET.len()), 1..8),
    ) {
        let src = mutate(SEEDS[seed], &edits);
        for outcome in [
            no_panic("parse_program", &src, parse_program),
            no_panic("parse_fo_query", &src, parse_fo_query),
            no_panic("parse_formula", &src, parse_formula),
            no_panic("parse_dedalus", &src, parse_dedalus),
        ] {
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}

#[test]
fn seeds_parse_under_their_own_parser() {
    assert!(SEEDS[..2].iter().all(|s| parse_program(s).is_ok()));
    assert!(SEEDS[2..5].iter().all(|s| parse_fo_query(s).is_ok()));
    assert!(SEEDS[5..].iter().all(|s| parse_dedalus(s).is_ok()));
}
