//! The search space: which 13-role core assignments are reachable.
//!
//! A [`PlacementSpace`] knows the mesh, the legal canonical sites on
//! it, and which roles are pinned. Placement ids are canonical
//! (4-column row-major, see [`sim_harness::placement::CANONICAL_COLS`]),
//! so on meshes wider than four columns the space is restricted to the
//! western four columns — the canonical id scheme cannot express
//! `x >= 4`, and the hand mappings live there anyway.
//!
//! Moves are the classic pair for assignment problems: swap the cores
//! of two roles, or relocate one role onto an unused site. Both
//! preserve the 13-distinct-cores invariant by construction, so every
//! reachable placement stays structurally valid; *semantic* legality
//! (on-mesh, within the `SL005` hop budget) is the evaluator's job.

use desim::rng::SmallRng;
use sim_harness::placement::CANONICAL_COLS;
use sim_harness::Placement;

/// Roles in the 13-core autofocus pipeline: 0–5 range (`block * 3 +
/// window`), 6–11 beam (`block * 3 + instance`), 12 the correlator.
pub const NUM_ROLES: usize = 13;

/// Role index of the correlation/summation core.
pub const ROLE_CORR: usize = 12;

/// One candidate step through the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Exchange the cores of two roles.
    Swap(usize, usize),
    /// Move one role onto a currently unused site.
    Relocate(usize, usize),
}

/// Legal core assignments for one Mapping × Platform pair.
#[derive(Debug, Clone)]
pub struct PlacementSpace {
    /// Canonical site ids on this mesh, ascending.
    sites: Vec<usize>,
    /// Roles the search must not move (eLink-adjacent readers, ...).
    pinned: [bool; NUM_ROLES],
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
        PlacementSpace {
            sites,
            pinned: [false; NUM_ROLES],
        }
    }

    /// Pin `role`: no generated move will touch its core.
    pub fn pin(&mut self, role: usize) {
        self.pinned[role] = true;
    }

    /// The legal canonical sites, ascending.
    pub fn sites(&self) -> &[usize] {
        &self.sites
    }

    /// The core a role occupies in `place`.
    pub fn role_core(place: &Placement, role: usize) -> usize {
        match role {
            0..=5 => place.range[role / 3][role % 3],
            6..=11 => place.beam[(role - 6) / 3][(role - 6) % 3],
            ROLE_CORR => place.corr,
            _ => panic!("role {role} out of range"),
        }
    }

    /// `place` with `role` moved to `core`.
    #[must_use]
    pub fn with_role(place: &Placement, role: usize, core: usize) -> Placement {
        let mut p = *place;
        match role {
            0..=5 => p.range[role / 3][role % 3] = core,
            6..=11 => p.beam[(role - 6) / 3][(role - 6) % 3] = core,
            ROLE_CORR => p.corr = core,
            _ => panic!("role {role} out of range"),
        }
        p
    }

    /// Sites no role occupies in `place`, ascending.
    pub fn unused_sites(&self, place: &Placement) -> Vec<usize> {
        let used = place.cores();
        self.sites
            .iter()
            .copied()
            .filter(|s| !used.contains(s))
            .collect()
    }

    /// Every legal move from `place`, in a fixed deterministic order:
    /// all role swaps (ascending pairs), then all relocations
    /// (role-major, site-minor).
    pub fn moves(&self, place: &Placement) -> Vec<Move> {
        let mut out = Vec::new();
        for a in 0..NUM_ROLES {
            if self.pinned[a] {
                continue;
            }
            for b in (a + 1)..NUM_ROLES {
                if !self.pinned[b] {
                    out.push(Move::Swap(a, b));
                }
            }
        }
        let free = self.unused_sites(place);
        for role in 0..NUM_ROLES {
            if self.pinned[role] {
                continue;
            }
            for &site in &free {
                out.push(Move::Relocate(role, site));
            }
        }
        out
    }

    /// One move drawn uniformly from [`PlacementSpace::moves`] with
    /// `rng`; `None` when every role is pinned.
    pub fn random_move(&self, place: &Placement, rng: &mut SmallRng) -> Option<Move> {
        let ms = self.moves(place);
        if ms.is_empty() {
            return None;
        }
        Some(ms[rng.gen_index(0..ms.len())])
    }

    /// `place` after `mv`.
    #[must_use]
    pub fn apply(place: &Placement, mv: Move) -> Placement {
        match mv {
            Move::Swap(a, b) => {
                let (ca, cb) = (
                    PlacementSpace::role_core(place, a),
                    PlacementSpace::role_core(place, b),
                );
                let p = PlacementSpace::with_role(place, a, cb);
                PlacementSpace::with_role(&p, b, ca)
            }
            Move::Relocate(role, site) => PlacementSpace::with_role(place, role, site),
        }
    }
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
    fn roles_round_trip_through_the_accessors() {
        let p = Placement::neighbor();
        for role in 0..NUM_ROLES {
            let core = PlacementSpace::role_core(&p, role);
            assert_eq!(PlacementSpace::with_role(&p, role, core), p);
        }
    }

    #[test]
    fn every_move_preserves_thirteen_distinct_cores() {
        let s = PlacementSpace::for_mesh((4, 4));
        let p = Placement::neighbor();
        let moves = s.moves(&p);
        // 13 choose 2 swaps + 13 roles x 3 free sites.
        assert_eq!(moves.len(), 78 + 13 * 3);
        for mv in moves {
            let q = PlacementSpace::apply(&p, mv);
            assert_eq!(q.cores().len(), 13, "{mv:?} lost a core");
            assert!(q.fits(4, 4), "{mv:?} left the mesh");
        }
    }

    #[test]
    fn pinned_roles_never_move() {
        let mut s = PlacementSpace::for_mesh((4, 4));
        s.pin(ROLE_CORR);
        let p = Placement::neighbor();
        for mv in s.moves(&p) {
            let q = PlacementSpace::apply(&p, mv);
            assert_eq!(q.corr, p.corr, "{mv:?} moved the pinned correlator");
        }
    }

    #[test]
    fn random_moves_are_deterministic_per_seed() {
        let s = PlacementSpace::for_mesh((4, 4));
        let p = Placement::neighbor();
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..10)
                .map(|_| s.random_move(&p, &mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
