//! The search space: which stage-to-core assignments are reachable.
//!
//! A [`PlacementSpace`] knows the mesh and the legal canonical sites on
//! it. Placement ids are canonical
//! (4-column row-major, see [`sim_harness::placement::CANONICAL_COLS`]),
//! so on meshes wider than four columns the space is restricted to the
//! western four columns — the canonical id scheme cannot express
//! `x >= 4`, and the hand mappings live there anyway.
//!
//! Moves are the classic pair for assignment problems: swap the cores
//! of two stages, or relocate one stage onto an unused site. Both
//! preserve the one-distinct-core-per-stage invariant by construction,
//! so every reachable placement stays structurally valid; *semantic*
//! legality (on-mesh, within the `SL005` hop budget) is the evaluator's
//! job. Stages are enumerated in role order ([`Stage::ALL`]).

use desim::rng::SmallRng;
use sim_harness::placement::{Stage, CANONICAL_COLS};
use sim_harness::Placement;

/// One candidate step through the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Exchange the cores of two stages.
    Swap(Stage, Stage),
    /// Move one stage onto a currently unused site.
    Relocate(Stage, usize),
}

/// Legal core assignments for one Mapping × Platform pair.
#[derive(Debug, Clone)]
pub struct PlacementSpace {
    /// Canonical site ids on this mesh, ascending.
    sites: Vec<usize>,
}

impl PlacementSpace {
    /// The space over a `(cols, rows)` mesh. Sites are the canonical
    /// ids whose coordinates lie on the mesh; columns beyond the
    /// canonical four are unreachable by construction.
    pub fn for_mesh(mesh: (u16, u16)) -> PlacementSpace {
        let cols = usize::from(mesh.0).min(CANONICAL_COLS);
        let rows = usize::from(mesh.1);
        let sites = (0..rows)
            .flat_map(|y| (0..cols).map(move |x| y * CANONICAL_COLS + x))
            .collect();
        PlacementSpace { sites }
    }

    /// The legal canonical sites, ascending.
    pub fn sites(&self) -> &[usize] {
        &self.sites
    }

    /// Sites no stage occupies in `place`, ascending.
    pub fn unused_sites(&self, place: &Placement) -> Vec<usize> {
        let used = place.cores();
        self.sites
            .iter()
            .copied()
            .filter(|s| !used.contains(s))
            .collect()
    }

    /// Every legal move from `place`, in a fixed deterministic order:
    /// all stage swaps (ascending role pairs), then all relocations
    /// (role-major, site-minor).
    pub fn moves(&self, place: &Placement) -> Vec<Move> {
        let free = self.unused_sites(place);
        (0..move_count(&free)).map(|k| move_at(&free, k)).collect()
    }

    /// One move drawn uniformly from [`PlacementSpace::moves`] with
    /// `rng`; only the drawn move is built.
    pub fn random_move(&self, place: &Placement, rng: &mut SmallRng) -> Move {
        let free = self.unused_sites(place);
        move_at(&free, rng.gen_index(0..move_count(&free)))
    }

    /// `place` after `mv`.
    #[must_use]
    pub fn apply(place: &Placement, mv: Move) -> Placement {
        let mut p = *place;
        match mv {
            Move::Swap(a, b) => {
                *p.core_mut(a) = place.core(b);
                *p.core_mut(b) = place.core(a);
            }
            Move::Relocate(stage, site) => *p.core_mut(stage) = site,
        }
        p
    }
}

const STAGES: usize = Stage::ALL.len();

/// Stage swaps: one per unordered pair of stages.
const SWAPS: usize = STAGES * (STAGES - 1) / 2;

/// How many moves [`PlacementSpace::moves`] lists with `free` unused
/// sites.
fn move_count(free: &[usize]) -> usize {
    SWAPS + STAGES * free.len()
}

/// Move `k` of [`PlacementSpace::moves`] with `free` unused sites.
fn move_at(free: &[usize], k: usize) -> Move {
    if let Some(k) = k.checked_sub(SWAPS) {
        return Move::Relocate(Stage::ALL[k / free.len()], free[k % free.len()]);
    }
    // Stage `i` leads a run of `STAGES - 1 - i` swaps.
    let (mut i, mut k) = (0, k);
    while k >= STAGES - 1 - i {
        k -= STAGES - 1 - i;
        i += 1;
    }
    Move::Swap(Stage::ALL[i], Stage::ALL[i + 1 + k])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_space_has_sixteen_sites() {
        let s = PlacementSpace::for_mesh((4, 4));
        assert_eq!(
            s.sites(),
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
        );
        // Wider meshes only add rows' worth of canonical sites.
        let wide = PlacementSpace::for_mesh((8, 8));
        assert_eq!(wide.sites().len(), 32);
        assert!(wide.sites().iter().all(|s| s % CANONICAL_COLS < 4));
    }

    #[test]
    fn every_move_preserves_thirteen_distinct_cores() {
        let s = PlacementSpace::for_mesh((4, 4));
        let p = Placement::neighbor();
        let moves = s.moves(&p);
        // 13 choose 2 swaps + 13 stages x 3 free sites.
        assert_eq!(moves.len(), 78 + 13 * 3);
        for mv in moves {
            let q = PlacementSpace::apply(&p, mv);
            assert_eq!(q.cores().len(), 13, "{mv:?} lost a core");
            assert!(q.fits(4, 4), "{mv:?} left the mesh");
        }
    }

    #[test]
    fn a_drawn_move_is_the_listed_move_at_the_drawn_index() {
        for mesh in [(4, 4), (8, 8), (4, 5)] {
            let s = PlacementSpace::for_mesh(mesh);
            let mut rng = SmallRng::seed_from_u64(0x5eed);
            let mut place = Placement::neighbor();
            for _ in 0..500 {
                let moves = s.moves(&place);
                let mut listed = rng.clone();
                let mv = s.random_move(&place, &mut rng);
                assert_eq!(mv, moves[listed.gen_index(0..moves.len())], "{place:?}");
                assert_eq!(rng.next_u64(), listed.next_u64(), "one draw each");
                place = PlacementSpace::apply(&place, mv);
            }
        }
    }

    #[test]
    fn random_moves_are_deterministic_per_seed() {
        let s = PlacementSpace::for_mesh((4, 4));
        let p = Placement::neighbor();
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..10)
                .map(|_| s.random_move(&p, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
