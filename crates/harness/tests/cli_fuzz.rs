//! Self-seeded fuzz of `BenchHarness::parse`, the one check every
//! binary's command line goes through before the binary does any work.
//! The argument vectors are drawn from `desim::rng` with a fixed seed,
//! so a failure reproduces: declared flags, misspelt and undeclared
//! names, `--name=value` forms, operands that are missing, `--`-prefixed,
//! empty, not a number or past `u64::MAX`, repeated flags and stray
//! words. `parse` must return a runner or a coded refusal — never a
//! panic, and never a hang — and an accepted line must read back what
//! it says.

use std::time::{Duration, Instant};

use desim::SmallRng;
use sim_harness::{BenchHarness, Flag};

/// The declared switches: the binary's and the document's.
const SWITCHES: [&str; 5] = ["small", "list", "json", "no-write", "force"];

/// The declared flags that take any operand.
const OPERANDS: [&str; 2] = ["mapping", "out"];

/// The declared flag whose operand is an unsigned integer.
const UINT: &str = "seed";

/// Every kind of flag, the document's four among them.
fn flags() -> Vec<Flag> {
    let own = [
        Flag::SMALL,
        Flag::switch("list", "list"),
        Flag::operand("mapping", "M", "mapping"),
        Flag::uint(UINT, "N", "seed"),
    ];
    [&own[..], &Flag::DOCUMENT].concat()
}

/// Words that may stand where an operand belongs.
const OPERAND_WORDS: [&str; 13] = [
    "7",
    "0",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+3",
    " 5",
    "",
    "banana",
    "x.json",
    "--",
    "--small",
    "--bogus",
];

fn pick<'a>(rng: &mut SmallRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_index(0..from.len())]
}

/// A declared flag name of any kind.
fn declared(rng: &mut SmallRng) -> &'static str {
    let all: Vec<&str> = SWITCHES
        .iter()
        .chain(&OPERANDS)
        .chain([&UINT])
        .copied()
        .collect();
    pick(rng, &all)
}

/// `name` with one byte dropped, doubled or changed.
fn misspelt(name: &str, rng: &mut SmallRng) -> String {
    let mut bytes = name.as_bytes().to_vec();
    let at = rng.gen_index(0..bytes.len());
    match rng.gen_index(0..3) {
        0 => {
            bytes.remove(at);
        }
        1 => bytes.insert(at, bytes[at]),
        _ => bytes[at] = b'a' + rng.gen_index(0..26) as u8,
    }
    String::from_utf8(bytes).expect("ASCII in, ASCII out")
}

/// One drawn argument vector.
fn arguments(rng: &mut SmallRng) -> Vec<String> {
    let mut args = Vec::new();
    for _ in 0..rng.gen_index(0..8) {
        match rng.gen_index(0..20) {
            0..=15 => {
                let name = declared(rng);
                args.push(format!("--{name}"));
                if !SWITCHES.contains(&name) && rng.gen_index(0..4) > 0 {
                    args.push(pick(rng, &OPERAND_WORDS).to_string());
                }
            }
            16 => args.push(format!("--{}", misspelt(declared(rng), rng))),
            17 => args
                .push(pick(rng, &["--help-me", "-small", "--SMALL", "--", "---json"]).to_string()),
            18 => {
                let name = declared(rng);
                args.push(format!("--{name}={}", pick(rng, &OPERAND_WORDS)));
            }
            _ => args.push(pick(rng, &["ffbp_spmd", "x.json", "7", ""]).to_string()),
        }
    }
    args
}

/// The word after the first `--name` in `args`, as the readers see it.
fn first_operand<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| *a == format!("--{name}"))?;
    Some(args[at + 1].as_str())
}

#[test]
fn drawn_command_lines_parse_or_are_refused_with_a_code() {
    let mut rng = SmallRng::seed_from_u64(0x434c_4930);
    let flags = flags();
    let mut seen = [0u32; 4];
    for round in 0..20_000 {
        let args = arguments(&mut rng);
        let started = Instant::now();
        let parsed = BenchHarness::parse("fuzz", args.clone(), &flags);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "round {round}: {:?} to parse {args:?}",
            started.elapsed()
        );
        match parsed {
            Ok(h) => {
                seen[0] += 1;
                for name in SWITCHES {
                    assert_eq!(
                        h.flag(name),
                        args.contains(&format!("--{name}")),
                        "{args:?}"
                    );
                }
                for name in OPERANDS.iter().chain([&UINT]) {
                    assert_eq!(h.operand(name), first_operand(&args, name), "{args:?}");
                }
                let seed = first_operand(&args, UINT).map(|t| t.parse().expect("checked"));
                assert_eq!(h.uint(UINT), seed, "{args:?}");
            }
            Err(d) => {
                let kind = ["CLI008", "CLI002", "CLI004"]
                    .iter()
                    .position(|c| *c == d.code);
                let kind = kind.unwrap_or_else(|| panic!("{args:?}: {d}"));
                seen[kind + 1] += 1;
                assert!(
                    !d.subject.is_empty() && !d.message.is_empty(),
                    "{args:?}: {d:?}"
                );
                let named = |n: &&str| d.subject == format!("--{n}");
                let with_operand = OPERANDS.iter().chain([&UINT]).any(named);
                match d.code {
                    "CLI008" => {
                        let shown =
                            |a: &String| *a == d.subject || a.is_empty() && d.subject == "\"\"";
                        assert!(
                            args.iter().any(shown) && !with_operand && !SWITCHES.iter().any(named),
                            "{args:?}: {d}"
                        );
                    }
                    "CLI002" => assert!(with_operand && args.contains(&d.subject), "{d}"),
                    _ => assert!(d.subject.starts_with(&format!("--{UINT} ")), "{d}"),
                }
            }
        }
    }
    // Every outcome occurs: the draw is neither always fatal nor always
    // harmless.
    assert!(
        seen.iter().all(|&n| n > 500),
        "ok, CLI008, CLI002, CLI004: {seen:?}"
    );
}
