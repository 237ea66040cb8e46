//! FIFO-arbitrated shared resources with a fixed service rate.
//!
//! Links, memory ports, DMA engines and DRAM channels are all modelled
//! as the same primitive: a server that processes `units` (bytes, words,
//! transactions) at a fixed rate, serving requests in arrival order.
//! A request made at time `t` for `n` units occupies the server from
//! `max(t, free_at)` until `start + service(n)`; the caller receives the
//! busy interval as a [`Reservation`] and layers any pipelined latency on
//! top itself.

use std::collections::VecDeque;

use crate::time::Cycle;

/// The interval a request occupies a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When service began (>= request time).
    pub start: Cycle,
    /// When the resource becomes free again (start + service time).
    pub end: Cycle,
}

impl Reservation {
    /// Queueing delay experienced by a request issued at `issued`.
    pub fn wait(&self, issued: Cycle) -> Cycle {
        self.start.saturating_sub(issued)
    }

    /// Cycles the resource was held.
    pub fn hold(&self) -> Cycle {
        self.end - self.start
    }
}

/// A single-server FIFO resource with service rate `den` units per `num`
/// cycles (i.e. one unit takes `num/den` cycles; requests are rounded up
/// to whole cycles).
///
/// # Example
///
/// An 8-byte-per-cycle mesh link:
///
/// ```
/// use desim::{Cycle, FifoResource};
/// let mut link = FifoResource::per_units(1, 8); // 1 cycle per 8 units
/// let r = link.request(Cycle(0), 64);           // 64 bytes -> 8 cycles
/// assert_eq!(r.start, Cycle(0));
/// assert_eq!(r.end, Cycle(8));
/// let r2 = link.request(Cycle(2), 8);           // queued behind first
/// assert_eq!(r2.start, Cycle(8));
/// assert_eq!(r2.end, Cycle(9));
/// ```
#[derive(Debug, Clone)]
pub struct FifoResource {
    /// Cycles per `units_per` units.
    cycles_per: u64,
    /// Units served in `cycles_per` cycles.
    units_per: u64,
    /// `log2(units_per)` when `cycles_per == 1` and `units_per` is a
    /// power of two (every mesh link and the eLink): service time is
    /// then a shift instead of a 128-free 64-bit division on the
    /// hottest simulator path.
    unit_shift: Option<u32>,
    /// Earliest time the server is idle.
    free_at: Cycle,
    /// Recently observed idle intervals `[start, end)` before
    /// `free_at`, oldest first. Machine models issue requests from
    /// per-core time cursors, so a request can carry a timestamp
    /// *earlier* than one already served; letting it backfill capacity
    /// that was genuinely idle at its time keeps the model from
    /// serialising on call order instead of virtual time.
    gaps: VecDeque<(Cycle, Cycle)>,
    /// Accumulated busy cycles (for utilisation reporting).
    busy: Cycle,
    /// Number of requests served.
    served: u64,
}

/// Idle gaps remembered per resource; older gaps are forgotten (their
/// capacity is conservatively lost).
const MAX_GAPS: usize = 128;

impl FifoResource {
    /// Resource serving `units_per` units every `cycles_per` cycles.
    ///
    /// # Panics
    /// If either parameter is zero.
    pub fn per_units(cycles_per: u64, units_per: u64) -> FifoResource {
        assert!(cycles_per > 0 && units_per > 0, "rate must be positive");
        FifoResource {
            cycles_per,
            units_per,
            unit_shift: (cycles_per == 1 && units_per.is_power_of_two())
                .then(|| units_per.trailing_zeros()),
            free_at: Cycle::ZERO,
            gaps: VecDeque::new(),
            busy: Cycle::ZERO,
            served: 0,
        }
    }

    /// Service time for `units`, rounded up to whole cycles; zero-unit
    /// requests still occupy one cycle (a transaction slot).
    #[inline]
    pub fn service_cycles(&self, units: u64) -> Cycle {
        let units = units.max(1);
        if let Some(s) = self.unit_shift {
            // ceil(units / 2^s); same value as the general path below.
            return Cycle((units + ((1u64 << s) - 1)) >> s);
        }
        // ceil(units * cycles_per / units_per)
        Cycle((units * self.cycles_per).div_ceil(self.units_per))
    }

    /// Reserve the resource for `units` at time `at`: behind earlier
    /// reservations, except that a request timestamped before the
    /// current frontier may backfill a remembered idle gap large
    /// enough to hold it (see the `gaps` field).
    pub fn request(&mut self, at: Cycle, units: u64) -> Reservation {
        let hold = self.service_cycles(units);
        let before = self.free_at;

        // Try to backfill an idle gap for requests behind the frontier.
        if at < self.free_at {
            // Gaps are disjoint idle intervals in time order, so their
            // end points are sorted: every gap ending before `at + hold`
            // is provably too early or too small — skipping them keeps
            // first-fit semantics while avoiding a linear scan of stale
            // gaps on the hot path.
            let first = self.gaps.partition_point(|&(_, ge)| ge < at + hold);
            for i in first..self.gaps.len() {
                let (gs, ge) = self.gaps[i];
                let start = gs.max(at);
                if start + hold <= ge {
                    let end = start + hold;
                    // Split the gap around the reservation.
                    let tail = (end, ge);
                    if start > gs {
                        self.gaps[i] = (gs, start);
                        if tail.0 < tail.1 {
                            self.gaps.insert(i + 1, tail);
                            if self.gaps.len() > MAX_GAPS {
                                self.gaps.pop_front();
                            }
                        }
                    } else if tail.0 < tail.1 {
                        self.gaps[i] = tail;
                    } else {
                        self.gaps.remove(i);
                    }
                    self.busy += hold;
                    self.served += 1;
                    // What replaced gap `i` sits at `i..i + 2`, one lower
                    // after an eviction.
                    self.audit(before, i.saturating_sub(1)..i + 2);
                    return Reservation { start, end };
                }
            }
        }

        let start = at.max(self.free_at);
        if start > self.free_at {
            // The interval [free_at, start) was idle; remember it.
            self.gaps.push_back((self.free_at, start));
            if self.gaps.len() > MAX_GAPS {
                self.gaps.pop_front();
            }
        }
        let end = start + hold;
        self.free_at = end;
        self.busy += hold;
        self.served += 1;
        self.audit(before, self.gaps.len().saturating_sub(1)..self.gaps.len());
        Reservation { start, end }
    }

    /// Debug builds: what every call must leave true, checked in O(1)
    /// over the gap entries it `touched` and their neighbours — `free_at`
    /// not below its value `before` the call; gaps non-empty, disjoint
    /// and in time order; the last ending at or before `free_at`.
    fn audit(&self, before: Cycle, touched: std::ops::Range<usize>) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(self.free_at >= before, "FifoResource: free_at went back");
        let gaps = &self.gaps;
        let around = touched.start.saturating_sub(1)..(touched.end + 1).min(gaps.len());
        for k in around.clone() {
            assert!(gaps[k].0 < gaps[k].1, "FifoResource: empty gap {k}");
            if k + 1 < around.end {
                assert!(
                    gaps[k].1 <= gaps[k + 1].0,
                    "FifoResource: gaps {k} and {} overlap or are out of order",
                    k + 1
                );
            }
        }
        if let Some(&(_, last)) = gaps.back() {
            assert!(
                last <= self.free_at,
                "FifoResource: a gap ends after free_at"
            );
        }
    }

    /// Absorb a span of `n` uncontended reservations in one call.
    ///
    /// `req(i)` returns the `i`-th reservation's `(start, hold)`; the
    /// caller has already proven the span is uncontended and ordered:
    ///
    /// * `req(0).0 >= self.free_at()` — the span begins at or after
    ///   the frontier, and
    /// * for `i >= 1`, `req(i).0` strictly exceeds the previous
    ///   reservation's end (`req(i-1).0 + req(i-1).1`).
    ///
    /// Under those preconditions every reservation starts exactly at
    /// its request time, so the final state — frontier, busy cycles,
    /// served count *and the bounded idle-gap ring* — is
    /// identical to calling [`FifoResource::request`] `n` times.
    /// Aggregates update in closed form; only the (at most
    /// `MAX_GAPS`) gap entries that survive the ring are materialised,
    /// so the cost is `O(min(n, MAX_GAPS))` rather than `O(n)`.
    ///
    /// `total_hold` is the sum of all `n` holds, supplied by the
    /// caller (for periodic holds it is a single multiply).
    ///
    /// # Panics
    /// Debug builds assert the ordering preconditions on every
    /// materialised entry.
    pub fn absorb_run(&mut self, n: u64, total_hold: Cycle, req: impl Fn(u64) -> (Cycle, Cycle)) {
        if n == 0 {
            return;
        }
        let before = self.free_at;
        let (first_start, _) = req(0);
        debug_assert!(
            first_start >= self.free_at,
            "absorb_run span starts before the frontier"
        );
        // Per `request`, a reservation opens a gap iff it leaves idle
        // time behind the frontier: the first entry only when it
        // starts strictly after `free_at`, later entries always
        // (strict separation is a precondition).
        let i0 = u64::from(first_start == self.free_at);
        let pushes = n - i0;
        // Ring semantics: after all pushes the deque holds the last
        // `MAX_GAPS` entries of (old ++ new). Evict the old entries
        // arithmetically, then materialise only the surviving news.
        let old_len = self.gaps.len() as u64;
        let drop_old = old_len.min((old_len + pushes).saturating_sub(MAX_GAPS as u64));
        self.gaps
            .drain(..usize::try_from(drop_old).expect("gap count fits usize"));
        let lo = i0 + pushes.saturating_sub(MAX_GAPS as u64);
        self.gaps
            .reserve(usize::try_from(n - lo).expect("span fits usize"));
        // The loop's own assertions hold the new entries apart; the audit
        // looks where they meet the kept ones.
        let kept = self.gaps.len();
        let mut prev_end = if lo == 0 {
            self.free_at
        } else {
            let (s, h) = req(lo - 1);
            s + h
        };
        for i in lo..n {
            let (s, h) = req(i);
            debug_assert!(
                if i == 0 { s >= prev_end } else { s > prev_end },
                "absorb_run reservations must be strictly separated"
            );
            if s > prev_end {
                self.gaps.push_back((prev_end, s));
            }
            prev_end = s + h;
        }
        self.free_at = prev_end;
        self.busy += total_hold;
        self.served += n;
        self.audit(before, kept..(kept + 1).min(self.gaps.len()));
    }

    /// Earliest instant the resource is idle.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Total busy cycles so far.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_requests_queue() {
        let mut r = FifoResource::per_units(1, 1);
        let a = r.request(Cycle(0), 5);
        assert_eq!((a.start, a.end), (Cycle(0), Cycle(5)));
        let b = r.request(Cycle(0), 3);
        assert_eq!((b.start, b.end), (Cycle(5), Cycle(8)));
        assert_eq!(b.wait(Cycle(0)), Cycle(5));
        assert_eq!(b.hold(), Cycle(3));
    }

    #[test]
    fn idle_gaps_are_not_busy() {
        let mut r = FifoResource::per_units(1, 1);
        r.request(Cycle(0), 2);
        r.request(Cycle(100), 2);
        assert_eq!(r.busy_cycles(), Cycle(4));
    }

    #[test]
    fn fractional_rates_round_up() {
        // 8 units per cycle.
        let r = FifoResource::per_units(1, 8);
        assert_eq!(r.service_cycles(1), Cycle(1));
        assert_eq!(r.service_cycles(8), Cycle(1));
        assert_eq!(r.service_cycles(9), Cycle(2));
        assert_eq!(r.service_cycles(64), Cycle(8));
        // 3 cycles per unit.
        let s = FifoResource::per_units(3, 1);
        assert_eq!(s.service_cycles(2), Cycle(6));
    }

    #[test]
    fn shift_fast_path_matches_the_general_division() {
        // (1, 8) takes the shift fast path; (2, 16) serves the same
        // rate through the general division: ceil(2u/16) == ceil(u/8).
        let fast = FifoResource::per_units(1, 8);
        let slow = FifoResource::per_units(2, 16);
        for units in [0u64, 1, 7, 8, 9, 63, 64, 65, 1 << 40] {
            assert_eq!(
                fast.service_cycles(units),
                slow.service_cycles(units),
                "units={units}"
            );
        }
    }

    #[test]
    fn backfill_skips_stale_gaps_but_keeps_first_fit() {
        let mut r = FifoResource::per_units(1, 1);
        // Build three idle gaps: [2,10), [20,30), [40,50).
        r.request(Cycle(0), 2);
        r.request(Cycle(10), 10);
        r.request(Cycle(30), 10);
        r.request(Cycle(50), 5);
        // A late-timestamped request that only fits from t=25 must land
        // in the second gap (first fit among gaps that can hold it).
        let a = r.request(Cycle(25), 5);
        assert_eq!((a.start, a.end), (Cycle(25), Cycle(30)));
        // An earlier request still backfills the first gap.
        let b = r.request(Cycle(3), 4);
        assert_eq!((b.start, b.end), (Cycle(3), Cycle(7)));
    }

    #[test]
    fn backfill_splits_and_ring_evictions_keep_the_gaps_sound() {
        // Every call of a debug build audits the entries it touched
        // (`FifoResource::audit`); this drives each way a call rewrites
        // the ring, with the ring full.
        let mut r = FifoResource::per_units(1, 1);
        // 200 spaced requests: idle gaps [10k + 2, 10k + 10), the oldest
        // 72 evicted from the frontier.
        for k in 0..200 {
            r.request(Cycle(10 * k), 2);
        }
        assert_eq!(r.gaps.len(), MAX_GAPS);
        for k in 100..200 {
            let g = 10 * k + 2;
            // A split inside gap [g, g + 8): the tail [g + 5, g + 8) is
            // inserted and the full ring evicts its oldest entry...
            assert_eq!(r.request(Cycle(g + 3), 2).start, Cycle(g + 3));
            // ...then the head [g, g + 3) shrinks from below and above.
            assert_eq!(r.request(Cycle(g), 1).start, Cycle(g));
            assert_eq!(r.request(Cycle(g + 2), 1).start, Cycle(g + 2));
        }
        assert_eq!(r.gaps.len(), MAX_GAPS);
        // Filling a gap exactly removes it.
        for k in 190..200 {
            assert_eq!(r.request(Cycle(10 * k + 3), 1).start, Cycle(10 * k + 3));
        }
        assert_eq!(r.gaps.len(), MAX_GAPS - 10);
        // A span longer than the ring evicts all of it.
        let base = r.free_at() + Cycle(3);
        r.absorb_run(300, Cycle(300), |i| (base + Cycle(5 * i), Cycle(1)));
        assert_eq!(r.gaps.len(), MAX_GAPS);
        assert_eq!(r.free_at(), base + Cycle(5 * 299 + 1));
        // A short one keeps the ring's newest entries and adds its own.
        let base = r.free_at();
        r.absorb_run(3, Cycle(6), |i| (base + Cycle(4 * i), Cycle(2)));
        assert_eq!(r.gaps.len(), MAX_GAPS);
        assert_eq!(r.served(), 200 + 3 * 100 + 10 + 300 + 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlap or are out of order")]
    fn the_audit_catches_overlapping_gaps() {
        let mut r = FifoResource::per_units(1, 1);
        r.request(Cycle(100), 1);
        r.gaps = VecDeque::from([(Cycle(0), Cycle(30)), (Cycle(20), Cycle(50))]);
        r.request(Cycle(25), 5);
    }

    #[test]
    fn zero_unit_request_takes_a_slot() {
        let mut r = FifoResource::per_units(1, 8);
        let a = r.request(Cycle(0), 0);
        assert_eq!(a.hold(), Cycle(1));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        let _ = FifoResource::per_units(0, 1);
    }

    #[test]
    fn absorb_run_is_byte_identical_to_request_loop() {
        // Spans of varying length (including > MAX_GAPS, so the ring
        // evicts), alternating holds, and both a flush start
        // (start == free_at) and a gapped start. After absorbing, the
        // two resources must agree on every aggregate AND behave
        // identically under later backfill probes — which exercises
        // the remembered idle-gap ring entry by entry.
        for &(n, first_gap) in &[(1u64, 0u64), (1, 5), (7, 3), (140, 2), (300, 0)] {
            let mut a = FifoResource::per_units(1, 8);
            let mut b = FifoResource::per_units(1, 8);
            // Shared history so frontier and ring start non-trivial.
            for r in [&mut a, &mut b] {
                r.request(Cycle(0), 64);
                r.request(Cycle(20), 8);
            }
            let base = a.free_at() + Cycle(first_gap);
            // Alternating 8- and 24-unit reservations, 40 cycles apart.
            let start = |i: u64| base + Cycle(i * 40);
            let hold = |i: u64| Cycle(if i.is_multiple_of(2) { 1 } else { 3 });
            let units = |i: u64| if i.is_multiple_of(2) { 8 } else { 24 };
            let total: u64 = (0..n).map(|i| hold(i).raw()).sum();
            for i in 0..n {
                let r = a.request(start(i), units(i));
                assert_eq!((r.start, r.end), (start(i), start(i) + hold(i)));
            }
            b.absorb_run(n, Cycle(total), |i| (start(i), hold(i)));
            assert_eq!(a.free_at(), b.free_at(), "n={n}");
            assert_eq!(a.busy_cycles(), b.busy_cycles(), "n={n}");
            assert_eq!(a.served(), b.served(), "n={n}");
            // Probe every remembered gap position: identical first-fit
            // backfill proves the rings match (probes mutate both
            // sides equally, so they stay in lockstep).
            for i in 0..n {
                let at = start(i) + hold(i);
                let (ra, rb) = (a.request(at, 8), b.request(at, 8));
                assert_eq!(ra, rb, "n={n} probe after entry {i}");
            }
            assert_eq!(a.free_at(), b.free_at(), "n={n} after probes");
        }
    }
}
