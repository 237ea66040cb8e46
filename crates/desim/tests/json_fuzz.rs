//! Self-seeded fuzz of `desim::json`, the one reader every spec,
//! fault plan, placement file and resumed document passes through.
//!
//! Three properties, each over documents drawn from `desim::rng` (the
//! seeds are fixed, so a failure reproduces):
//!
//! * what the writer emits, compact or pretty, parses back to the same
//!   value — strings mixing ASCII, escapes, controls and 2/3/4-byte
//!   UTF-8, numbers from integral to extreme, nesting up to the bound;
//! * no input makes the parser panic or overflow the stack: truncated,
//!   byte-flipped and nesting-bombed texts yield `Ok` or `Err`, and
//!   whatever is accepted survives a write/parse round trip itself;
//! * parse time is linear in the document, guarded with a ceiling that
//!   a linear reader misses by two orders of magnitude and a quadratic
//!   one exceeds by two.

use std::fmt::Write;
use std::time::{Duration, Instant};

use desim::json::{Json, MAX_DEPTH};
use desim::SmallRng;

/// Characters the generator draws strings from: plain ASCII, the ones
/// the writer escapes, raw controls, and UTF-8 of every length.
const ALPHABET: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '_',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'λ',
    '\u{7ff}',
    '€',
    '\u{d7ff}',
    '\u{e000}',
    '\u{ffff}',
    '😀',
    '\u{10000}',
    '\u{10ffff}',
];

fn string(rng: &mut SmallRng) -> String {
    let len = rng.gen_index(0..12);
    (0..len)
        .map(|_| ALPHABET[rng.gen_index(0..ALPHABET.len())])
        .collect()
}

fn number(rng: &mut SmallRng) -> f64 {
    const EXTREMES: [f64; 8] = [
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        9_007_199_254_740_992.0,
        -1e300,
    ];
    match rng.gen_index(0..4) {
        0 => rng.gen_u64(0..1 << 53) as f64,
        1 => (rng.next_f64() - 0.5) * 1e6,
        // Any finite bit pattern: every exponent, every mantissa.
        2 => {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                x
            } else {
                1.5
            }
        }
        _ => EXTREMES[rng.gen_index(0..EXTREMES.len())],
    }
}

/// A random value nesting at most `depth` containers, about `budget`
/// nodes in all.
fn value(rng: &mut SmallRng, depth: usize, budget: &mut usize) -> Json {
    *budget = budget.saturating_sub(1);
    let leaf = depth == 0 || *budget == 0;
    match rng.gen_index(0..if leaf { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 | 3 => Json::Num(number(rng)),
        4 => Json::Str(string(rng)),
        5 => Json::Arr(
            (0..rng.gen_index(0..5))
                .map(|_| value(rng, depth - 1, budget))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_index(0..5))
                .map(|_| (string(rng), value(rng, depth - 1, budget)))
                .collect(),
        ),
    }
}

/// `leaf` wrapped in `depth` containers, alternating arrays and
/// objects.
fn chain(depth: usize, leaf: Json) -> Json {
    (0..depth).fold(leaf, |inner, level| {
        if level % 2 == 0 {
            Json::Arr(vec![inner])
        } else {
            Json::obj().with("k", inner)
        }
    })
}

/// The checks every generated document goes through; returns how many
/// parses it made.
fn exercise(rng: &mut SmallRng, doc: &Json) -> u64 {
    let mut parses = 0;
    for text in [doc.to_string(), doc.to_string_pretty()] {
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e} in {text:?}"));
        assert_eq!(&back, doc, "round trip changed {text:?}");
        parses += 1;
        for _ in 0..3 {
            let mut bytes = text.clone().into_bytes();
            let at = rng.gen_index(0..bytes.len());
            match rng.gen_index(0..3) {
                0 => bytes.truncate(at),
                1 => bytes[at] = rng.next_u64() as u8,
                _ => {
                    let bomb: &[u8] = if rng.next_u64() & 1 == 1 {
                        b"["
                    } else {
                        b"{\"k\":"
                    };
                    let run = bomb.repeat(rng.gen_index(1..2 * MAX_DEPTH));
                    bytes.splice(at..at, run);
                }
            }
            // The parser takes `&str`: damage that broke the UTF-8
            // reaches it as replacement characters.
            let damaged = String::from_utf8_lossy(&bytes);
            if let Ok(accepted) = Json::parse(&damaged) {
                let rewritten = accepted.to_string();
                assert_eq!(
                    Json::parse(&rewritten).as_ref(),
                    Ok(&accepted),
                    "{damaged:?} was accepted but does not survive a rewrite"
                );
            }
            parses += 1;
        }
    }
    parses
}

#[test]
fn generated_documents_round_trip_and_damaged_ones_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x4a53_4f4e);
    let mut parses = 0;
    for case in 0..1500 {
        let doc = if case % 50 == 0 {
            // Exactly at the bound: one more level is an error.
            chain(MAX_DEPTH, Json::Str(string(&mut rng)))
        } else {
            let depth = rng.gen_index(0..8);
            value(&mut rng, depth, &mut 40)
        };
        parses += exercise(&mut rng, &doc);
    }
    assert!(parses >= 10_000, "only {parses} cases ran");
    let too_deep = chain(MAX_DEPTH + 1, Json::Null).to_string();
    assert!(Json::parse(&too_deep).is_err());
}

/// The text a script with `ensure_ascii` (Python's default) writes:
/// every character as `\uXXXX`, surrogate pairs beyond the BMP.
fn ascii_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        write!(out, "\\u{unit:04x}").unwrap();
    }
    out.push('"');
    out
}

#[test]
fn fully_escaped_strings_decode_to_the_same_characters() {
    let mut rng = SmallRng::seed_from_u64(0x5552_5347);
    for _ in 0..2000 {
        let s = string(&mut rng);
        let text = ascii_escaped(&s);
        assert_eq!(
            Json::parse(&text).unwrap_or_else(|e| panic!("{e} in {text}")),
            Json::Str(s)
        );
        // Half a pair is never a character, wherever the cut falls.
        if let Some(cut) = text.find("\\ud8").or_else(|| text.find("\\udb")) {
            let lone = format!("{}\"", &text[..cut + 6]);
            assert!(Json::parse(&lone).is_err(), "{lone} was accepted");
        }
    }
}

#[test]
fn parse_time_is_linear_in_the_document() {
    // One 5 MB string (ASCII, multi-byte runs and escapes) inside 3 MB
    // of record-like members. A reader that re-scans the rest of the
    // input per character does 10^13 byte visits here — minutes even
    // optimised; a single pass takes well under a second unoptimised.
    let mut long = String::with_capacity(5 << 20);
    while long.len() < 5 << 20 {
        long.push_str("range-compressed pulse λ€😀 \"quoted\"\t\\ ");
    }
    let mut rng = SmallRng::seed_from_u64(0x4c49_4e45);
    let mut rows = Vec::new();
    let mut bytes = 0;
    while bytes < 3 << 20 {
        let row = Json::obj()
            .with("key", format!("ffbp_spmd|e64|ffbp|small|{}|v4", rows.len()))
            .with("cycles", rng.gen_u64(0..1 << 40))
            .with("time_ms", rng.next_f64() * 1e3)
            .with("phases", Json::Arr(vec![Json::Num(number(&mut rng)); 8]));
        bytes += row.to_string().len();
        rows.push(row);
    }
    let doc = Json::obj()
        .with("cells", Json::Arr(rows))
        .with("long", long);
    let text = doc.to_string();
    assert!(text.len() >= 8 << 20, "document is {} bytes", text.len());

    const CEILING: Duration = Duration::from_secs(10);
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let back = Json::parse(&text).expect("the writer's output parses");
        best = best.min(t0.elapsed());
        assert_eq!(back, doc);
        if best < CEILING {
            break;
        }
    }
    assert!(
        best < CEILING,
        "parsing {} bytes took {best:?} at best (ceiling {CEILING:?})",
        text.len()
    );
}
