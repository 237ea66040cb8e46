//! Placement JSON round-trip property: any structurally valid
//! placement survives serialise → parse bit-for-bit, and the parser
//! rejects assignments that reuse a core. Randomness comes from the
//! deterministic `desim` RNG, so a failure replays exactly.

use desim::rng::SmallRng;
use sim_harness::Placement;

/// A random 13-distinct-core placement on the canonical 4x6 id range
/// (some ids deliberately off the 4x4 mesh — the JSON schema does not
/// care which mesh a placement later targets).
fn random_placement(rng: &mut SmallRng) -> Placement {
    let mut sites: Vec<usize> = (0..24).collect();
    // Fisher-Yates with the deterministic stream.
    for i in (1..sites.len()).rev() {
        sites.swap(i, rng.gen_index(0..i + 1));
    }
    Placement {
        range: [
            [sites[0], sites[1], sites[2]],
            [sites[3], sites[4], sites[5]],
        ],
        beam: [
            [sites[6], sites[7], sites[8]],
            [sites[9], sites[10], sites[11]],
        ],
        corr: sites[12],
    }
}

#[test]
fn every_random_placement_round_trips_identically() {
    let mut rng = SmallRng::seed_from_u64(0x91ACE);
    for trial in 0..200 {
        let p = random_placement(&mut rng);
        let text = p.to_json().to_string_pretty();
        let back = Placement::parse(&text)
            .unwrap_or_else(|e| panic!("trial {trial}: rejected own serialisation: {e}"));
        assert_eq!(back, p, "trial {trial} did not round-trip");
    }
}

#[test]
fn duplicate_cores_are_rejected_wherever_they_hide() {
    let mut rng = SmallRng::seed_from_u64(7);
    for trial in 0..50 {
        let p = random_placement(&mut rng);
        // Collapse one random pair of roles onto the same core.
        let mut doc = p;
        doc.corr = doc.range[trial % 2][trial % 3];
        let text = doc.to_json().to_string_pretty();
        let err = Placement::parse(&text).expect_err("duplicate must be rejected");
        assert!(err.contains("13 distinct"), "trial {trial}: {err}");
    }
}

#[test]
fn hand_placements_round_trip_and_remap_consistently() {
    for p in [Placement::neighbor(), Placement::scattered()] {
        let back = Placement::parse(&p.to_json().to_string_pretty()).unwrap();
        assert_eq!(back, p);
        // remap is a pure id substitution, so it commutes with the
        // JSON round-trip.
        let remapped = p.remap(p.corr, 20);
        let back = Placement::parse(&remapped.to_json().to_string_pretty()).unwrap();
        assert_eq!(back, remapped);
    }
}
