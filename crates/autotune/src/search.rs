//! The two search strategies: greedy swap-descent and seeded simulated
//! annealing.
//!
//! Both are fully deterministic. Greedy enumerates
//! [`PlacementSpace::moves`] in its fixed order and takes the best
//! strictly-improving move each round; annealing draws moves and
//! acceptance coin-flips from two [`SmallRng::split`] child streams of
//! one seeded root, so the same `(start, seed, iters)` triple replays
//! the same trajectory bit for bit on any host.

use desim::rng::SmallRng;
use sim_harness::Placement;

use crate::space::{Move, PlacementSpace};

/// Relative improvement below which a move does not count — guards the
/// greedy descent against chasing float noise forever.
const EPS: f64 = 1e-9;

/// One sampled point of a search trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajPoint {
    /// Evaluations consumed when the point was recorded.
    pub eval: usize,
    /// Score of the current (just accepted or retained) placement.
    pub current: f64,
    /// Best score seen so far.
    pub best: f64,
}

/// What one strategy run produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// `"greedy"` or `"anneal"`.
    pub strategy: &'static str,
    /// Score of the start placement.
    pub start_score: f64,
    /// Best placement found (the start if nothing improved).
    pub best: Placement,
    /// Its score.
    pub best_score: f64,
    /// Candidate placements priced.
    pub evals: usize,
    /// Moves taken.
    pub accepted: usize,
    /// Moves priced but not taken (illegal candidates included).
    pub rejected: usize,
    /// Sampled score trajectory, ascending by `eval`.
    pub trajectory: Vec<TrajPoint>,
}

impl SearchOutcome {
    fn fresh(strategy: &'static str, start: Placement, start_score: f64) -> SearchOutcome {
        SearchOutcome {
            strategy,
            start_score,
            best: start,
            best_score: start_score,
            evals: 0,
            accepted: 0,
            rejected: 0,
            trajectory: Vec::new(),
        }
    }
}

/// Greedy swap-descent: each round prices every move from the current
/// placement and takes the best strictly-improving one; stops at a
/// local optimum or after `max_evals` pricings. `score` returns `None`
/// for illegal candidates.
pub fn greedy(
    space: &PlacementSpace,
    score: &dyn Fn(&Placement) -> Option<f64>,
    start: Placement,
    start_score: f64,
    max_evals: usize,
) -> SearchOutcome {
    let mut out = SearchOutcome::fresh("greedy", start, start_score);
    let mut cur = start;
    let mut cur_score = start_score;
    'rounds: loop {
        let mut best_mv: Option<(Move, f64)> = None;
        for mv in space.moves(&cur) {
            if out.evals >= max_evals {
                break 'rounds;
            }
            out.evals += 1;
            let cand = PlacementSpace::apply(&cur, mv);
            if let Some(s) = score(&cand) {
                if s < cur_score * (1.0 - EPS) && best_mv.is_none_or(|(_, b)| s < b) {
                    best_mv = Some((mv, s));
                }
            }
        }
        let Some((mv, s)) = best_mv else { break };
        cur = PlacementSpace::apply(&cur, mv);
        cur_score = s;
        out.accepted += 1;
        out.best = cur;
        out.best_score = s;
        out.trajectory.push(TrajPoint {
            eval: out.evals,
            current: s,
            best: s,
        });
    }
    out.rejected = out.evals - out.accepted;
    out
}

/// Seeded simulated annealing: `iters` single-move steps under a
/// geometrically cooling temperature scaled to the start score
/// (relative `T` from 5e-2 down to 1e-4). Downhill moves always
/// accept; uphill moves accept with probability `exp(-delta / T)`.
pub fn anneal(
    space: &PlacementSpace,
    score: &dyn Fn(&Placement) -> Option<f64>,
    start: Placement,
    start_score: f64,
    seed: u64,
    iters: usize,
) -> SearchOutcome {
    let mut root = SmallRng::seed_from_u64(seed);
    let mut move_rng = root.split();
    let mut accept_rng = root.split();

    let mut out = SearchOutcome::fresh("anneal", start, start_score);
    let mut cur = start;
    let mut cur_score = start_score;
    let scale = start_score.abs().max(f64::MIN_POSITIVE);
    let (t_hot, t_cold) = (5e-2, 1e-4);
    // Sample the trajectory at ~64 points so long runs stay compact.
    let stride = (iters / 64).max(1);

    for i in 0..iters {
        let frac = i as f64 / iters.max(1) as f64;
        let t = scale * t_hot * (t_cold / t_hot).powf(frac);
        let mv = space.random_move(&cur, &mut move_rng);
        let cand = PlacementSpace::apply(&cur, mv);
        out.evals += 1;
        let took = match score(&cand) {
            None => false,
            Some(s) => {
                let delta = s - cur_score;
                if delta <= 0.0 || accept_rng.next_f64() < (-delta / t).exp() {
                    cur = cand;
                    cur_score = s;
                    if s < out.best_score {
                        out.best = cand;
                        out.best_score = s;
                    }
                    true
                } else {
                    false
                }
            }
        };
        if took {
            out.accepted += 1;
        } else {
            out.rejected += 1;
        }
        if i % stride == 0 || (took && cur_score <= out.best_score) {
            out.trajectory.push(TrajPoint {
                eval: out.evals,
                current: cur_score,
                best: out.best_score,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy objective with a known optimum: total squared distance of
    /// every core from canonical site 0. Legal everywhere on the mesh.
    fn toy_score(space: &PlacementSpace) -> impl Fn(&Placement) -> Option<f64> + '_ {
        move |p: &Placement| {
            if !p.fits(4, 4) {
                return None;
            }
            let _ = space;
            Some(
                p.cores()
                    .iter()
                    .map(|&c| {
                        let (x, y) = ((c % 4) as f64, (c / 4) as f64);
                        x * x + y * y
                    })
                    .sum(),
            )
        }
    }

    #[test]
    fn greedy_monotonically_improves_and_terminates() {
        let space = PlacementSpace::for_mesh((4, 4));
        let score = toy_score(&space);
        let start = Placement::scattered();
        let s0 = score(&start).unwrap();
        let out = greedy(&space, &score, start, s0, 10_000);
        assert!(out.best_score <= s0);
        assert_eq!(out.evals, out.accepted + out.rejected);
        // The toy optimum packs all 13 cores into the 13 cheapest
        // sites; greedy relocation reaches it exactly.
        let mut site_costs: Vec<f64> = (0..16)
            .map(|c| {
                let (x, y) = ((c % 4) as f64, (c / 4) as f64);
                x * x + y * y
            })
            .collect();
        site_costs.sort_by(f64::total_cmp);
        let optimum: f64 = site_costs.iter().take(13).sum();
        assert!(
            (out.best_score - optimum).abs() < 1e-9,
            "{} != {optimum}",
            out.best_score
        );
        // Trajectory is one point per accepted move, strictly improving.
        assert_eq!(out.trajectory.len(), out.accepted);
        for w in out.trajectory.windows(2) {
            assert!(w[1].best < w[0].best);
        }
    }

    #[test]
    fn anneal_is_deterministic_per_seed_and_respects_budget() {
        let space = PlacementSpace::for_mesh((4, 4));
        let score = toy_score(&space);
        let start = Placement::neighbor();
        let s0 = score(&start).unwrap();
        let a = anneal(&space, &score, start, s0, 42, 300);
        let b = anneal(&space, &score, start, s0, 42, 300);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.evals, 300);
        assert!(a.best_score <= s0);
        let c = anneal(&space, &score, start, s0, 43, 300);
        // A different seed walks a different path (scores may tie, the
        // move sequence should not).
        assert!(c.accepted != a.accepted || c.best != a.best || c.trajectory != a.trajectory);
    }
}
