//! The byte gate for the placement search: the FNV-1a 64 hash of the
//! `Tuning::to_json` text of every tunable pair × strategy at small
//! scale, and of the two paper-scale searches `sarbench`'s
//! `static_pricing` workload runs (seed 1, greedy only and anneal
//! only). Recorded before the evaluator stopped rebuilding a program
//! model per candidate; the search, the probe, the model wiring, the
//! `SL005` legality rule and the cost model all feed these bytes. The
//! test prints fresh lines under `-- --nocapture`.

use autotune::{tune, Strategy, TuneConfig};

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(case, config)` for every pinned search.
fn cases() -> Vec<(String, TuneConfig)> {
    let mut out = Vec::new();
    let strategies = [Strategy::Greedy, Strategy::Anneal];
    for pair in [
        "autofocus_mpmd:epiphany",
        "autofocus_net:epiphany",
        "autofocus_mpmd:e64",
    ] {
        for strategy in strategies {
            let mut cfg = TuneConfig::new(pair);
            cfg.small = true;
            cfg.strategy = strategy;
            out.push((format!("{pair} {} (small)", strategy.label()), cfg));
        }
    }
    for strategy in strategies {
        let mut cfg = TuneConfig::new("autofocus_mpmd:epiphany");
        cfg.seed = 1;
        cfg.strategy = strategy;
        out.push((
            format!(
                "autofocus_mpmd:epiphany {} seed 1 (paper)",
                strategy.label()
            ),
            cfg,
        ));
    }
    out
}

const PINS: [(&str, u64); 8] = [
    ("autofocus_mpmd:epiphany greedy (small)", 0xc1315541250ccf27),
    ("autofocus_mpmd:epiphany anneal (small)", 0x0086fabdefd9dde2),
    ("autofocus_net:epiphany greedy (small)", 0x8809d0664f423d31),
    ("autofocus_net:epiphany anneal (small)", 0x11223f548acae74a),
    ("autofocus_mpmd:e64 greedy (small)", 0x0fba63c91c3e9c84),
    ("autofocus_mpmd:e64 anneal (small)", 0xebb835e1a1cdc04c),
    (
        "autofocus_mpmd:epiphany greedy seed 1 (paper)",
        0x82da74c78a8e4236,
    ),
    (
        "autofocus_mpmd:epiphany anneal seed 1 (paper)",
        0xcf3b5bd88465830a,
    ),
];

#[test]
fn tune_reports_match_the_pinned_hashes() {
    let fresh: Vec<(String, u64)> = cases()
        .into_iter()
        .map(|(case, cfg)| {
            let text = tune(&cfg).expect("pair is tunable").to_json().to_string();
            (case, fnv1a64(&text))
        })
        .collect();
    for (case, hash) in &fresh {
        println!("    (\"{case}\", 0x{hash:016x}),");
    }
    let pinned: Vec<(String, u64)> = PINS.iter().map(|&(c, h)| (c.to_string(), h)).collect();
    assert_eq!(fresh, pinned);
}
