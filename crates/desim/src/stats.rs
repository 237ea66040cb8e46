//! Lightweight simulation statistics: counters, phase spans, histograms.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use crate::time::Cycle;

/// A named monotonically increasing counter set.
///
/// Keys are `Cow<'static, str>`: the literals machine models count
/// under are borrowed, names parsed back from a document are owned by
/// the set that holds them.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    map: BTreeMap<Cow<'static, str>, u64>,
}

impl Counters {
    /// Empty counter set.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Add `n` to counter `key`.
    #[inline]
    pub fn add(&mut self, key: impl Into<Cow<'static, str>>, n: u64) {
        *self.map.entry(key.into()).or_insert(0) += n;
    }

    /// Increment counter `key` by one.
    #[inline]
    pub fn bump(&mut self, key: impl Into<Cow<'static, str>>) {
        self.add(key, 1);
    }

    /// Current value of `key` (zero if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// Whether `key` was ever touched (distinguishes an absent counter
    /// from one that accumulated zero).
    pub fn contains(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Overwrite `key` with an absolute value (marking it touched).
    /// Counters are otherwise monotone accumulators; `set` exists for
    /// re-stamping identity fields (e.g. a derived record's fault
    /// seed), not for accounting.
    pub fn set(&mut self, key: impl Into<Cow<'static, str>>, value: u64) {
        self.map.insert(key.into(), value);
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.map.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Difference against an earlier snapshot of the same accumulator:
    /// every counter's growth since `snapshot`, omitting zero deltas.
    /// Counters are monotone, so each value must be `>=` the snapshot's.
    pub fn since(&self, snapshot: &Counters) -> Counters {
        let mut delta = Counters::new();
        for (k, &v) in &self.map {
            let before = snapshot.get(k);
            debug_assert!(v >= before, "counter {k} went backwards ({before} -> {v})");
            if v > before {
                delta.add(k.clone(), v - before);
            }
        }
        delta
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:>24}: {v}")?;
        }
        Ok(())
    }
}

/// One closed phase on a [`PhaseTimeline`]: a named interval of the
/// simulation with the machine's observation `S` at both ends. Every
/// figure of the phase is a difference of the two.
#[derive(Debug, Clone)]
pub struct PhaseSpan<S> {
    /// Phase family (e.g. `"merge"`).
    pub name: String,
    /// Occurrence number within the family (0, 1, 2, … per name).
    pub index: u32,
    /// Phase start on the simulation timeline.
    pub start: Cycle,
    /// Phase end on the simulation timeline.
    pub end: Cycle,
    /// What the machine had accumulated when the phase opened.
    pub opened: S,
    /// What it had accumulated when the phase closed.
    pub closed: S,
    /// Free-form gauges attached by the mapping (occupancy, queue
    /// depths, …).
    pub metrics: BTreeMap<String, f64>,
}

impl<S> PhaseSpan<S> {
    /// Phase length in cycles.
    pub fn cycles(&self) -> Cycle {
        self.end.saturating_sub(self.start)
    }
}

/// Phase-scoped statistics: machine models bracket interesting regions
/// (`begin` / `end`) with a snapshot `S` of everything they accumulate
/// and attach gauges; the run report turns the closed spans into
/// per-phase records.
///
/// The timeline is strictly sequential — phases cannot nest or overlap,
/// matching how the transaction-level machines execute (one mapping
/// drives the whole chip through one region at a time).
#[derive(Debug, Default, Clone)]
pub struct PhaseTimeline<S> {
    spans: Vec<PhaseSpan<S>>,
    /// The open phase; its `closed` is a placeholder until `end`.
    open: Option<PhaseSpan<S>>,
    occurrences: BTreeMap<String, u32>,
}

impl<S: Default> PhaseTimeline<S> {
    /// Empty timeline.
    pub fn new() -> PhaseTimeline<S> {
        PhaseTimeline::default()
    }

    /// Open a phase at `now`, where the machine has accumulated
    /// `seen`. Panics if a phase is already open.
    pub fn begin(&mut self, name: &str, now: Cycle, seen: S) {
        assert!(
            self.open.is_none(),
            "phase '{}' still open when beginning '{name}'",
            self.open.as_ref().unwrap().name
        );
        let index = self.occurrences.entry(name.to_string()).or_insert(0);
        self.open = Some(PhaseSpan {
            name: name.to_string(),
            index: *index,
            start: now,
            end: now,
            opened: seen,
            closed: S::default(),
            metrics: BTreeMap::new(),
        });
        *index += 1;
    }

    /// Attach (or overwrite) a gauge on the open phase.
    pub fn metric(&mut self, key: &str, value: f64) {
        let span = self
            .open
            .as_mut()
            .expect("no open phase to attach a metric to");
        span.metrics.insert(key.to_string(), value);
    }

    /// Close the open phase at `now`, where the machine has
    /// accumulated `seen`. Returns the closed span.
    pub fn end(&mut self, now: Cycle, seen: S) -> &PhaseSpan<S> {
        let mut span = self.open.take().expect("no open phase to end");
        debug_assert!(
            now >= span.start,
            "phase '{}' ended before it began",
            span.name
        );
        span.end = now;
        span.closed = seen;
        self.spans.push(span);
        self.spans.last().unwrap()
    }

    /// Whether a phase is currently open.
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }

    /// All closed phases in execution order.
    pub fn spans(&self) -> &[PhaseSpan<S>] {
        &self.spans
    }
}

/// A fixed-bucket histogram of `u64` samples (e.g. latencies in cycles).
///
/// Buckets are power-of-two exponential: bucket `i` holds samples in
/// `[2^i, 2^(i+1))`, with bucket 0 holding `{0, 1}`.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples in one update — exact: counts,
    /// sum, min/max and every bucket land where `n` calls to
    /// [`Histogram::record`] would put them. Fast-forward executors
    /// use this to account a span of constant-latency events in O(1).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[idx] += n;
        self.count += n;
        self.sum += v * n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (None if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (None if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile from the exponential buckets (`q` in 0..=1).
    ///
    /// Returns the *geometric midpoint* of the bucket containing
    /// quantile `q` — the unbiased point estimate for logarithmically
    /// spaced buckets — clamped to the observed `[min, max]` range so
    /// degenerate histograms (single sample, all samples equal) report
    /// exactly. `q >= 1` reports the exact maximum. (This used to
    /// return the bucket's upper bound, biasing p50/p95 high by up to
    /// 2x.)
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // Geometric midpoint of [2^i, 2^(i+1)) is 2^i * sqrt(2);
                // bucket 0 holds {0, 1}.
                let mid = if i == 0 {
                    1
                } else {
                    ((1u64 << i) as f64 * std::f64::consts::SQRT_2).round() as u64
                };
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut a = Counters::new();
        a.add("flop", 10);
        a.bump("flop");
        a.bump("load");
        assert_eq!(a.get("flop"), 11);
        assert_eq!(a.get("load"), 1);
        assert_eq!(a.get("absent"), 0);
        let listed: Vec<_> = a.iter().collect();
        assert_eq!(listed, [("flop", 11), ("load", 1)]);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(16));
        assert!((h.mean() - 6.2).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        // The 500th sample lands in bucket [256, 512) (cumulative count
        // reaches 512 there); the geometric midpoint is 256*sqrt(2).
        assert_eq!(p50, 362, "p50={p50}");
        // q >= 1 reports the exact observed maximum, not a bucket bound.
        assert_eq!(h.quantile(1.0), Some(999));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_empty_has_no_order_statistics() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
    }

    #[test]
    fn histogram_single_sample_pins_every_quantile() {
        let mut h = Histogram::new();
        h.record(100);
        assert_eq!(h.min(), Some(100));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 100.0).abs() < 1e-12);
        // With a single sample the observed [min, max] range collapses
        // to a point, so the clamped midpoint is exact at every q.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(100), "q={q}");
        }
    }

    #[test]
    fn histogram_all_equal_samples_collapse_to_one_bucket() {
        let mut h = Histogram::new();
        for _ in 0..1_000 {
            h.record(37);
        }
        assert_eq!(h.count(), 1_000);
        assert_eq!(h.min(), Some(37));
        assert_eq!(h.max(), Some(37));
        assert!((h.mean() - 37.0).abs() < 1e-12);
        // All mass in bucket [32, 64) and min == max == 37: the clamp
        // to the observed range makes p01 through p100 exact.
        let lo = h.quantile(0.01).unwrap();
        let hi = h.quantile(1.0).unwrap();
        assert_eq!(lo, hi);
        assert_eq!(lo, 37);
        // Out-of-range q is clamped, not a panic.
        assert_eq!(h.quantile(-1.0), Some(lo));
        assert_eq!(h.quantile(2.0), Some(hi));
    }

    #[test]
    fn histogram_zero_and_one_share_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.quantile(0.01), Some(1));
    }

    #[test]
    fn counters_set_overwrites_and_marks_touched() {
        let mut c = Counters::new();
        c.add("fault_seed", 7);
        c.set("fault_seed", 42);
        assert_eq!(c.get("fault_seed"), 42);
        c.set("zeroed", 0);
        assert!(c.contains("zeroed"), "set must mark the key touched");
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn histogram_record_n_equals_repeated_record() {
        for &(v, n) in &[(0u64, 3u64), (1, 1), (7, 200), (1 << 40, 5), (977, 0)] {
            let mut direct = Histogram::new();
            let mut bulk = Histogram::new();
            direct.record(3); // shared prior sample
            bulk.record(3);
            for _ in 0..n {
                direct.record(v);
            }
            bulk.record_n(v, n);
            assert_eq!(bulk.count(), direct.count(), "v={v} n={n}");
            assert_eq!(bulk.min(), direct.min());
            assert_eq!(bulk.max(), direct.max());
            assert!((bulk.mean() - direct.mean()).abs() < 1e-9);
            for q in [0.0, 0.5, 0.95, 1.0] {
                assert_eq!(bulk.quantile(q), direct.quantile(q), "v={v} n={n} q={q}");
            }
        }
    }

    #[test]
    fn counters_since_reports_growth_only() {
        let mut snap = Counters::new();
        snap.add("flop", 10);
        snap.add("load", 4);
        let mut now = snap.clone();
        now.add("flop", 5);
        now.add("store", 2);
        let delta = now.since(&snap);
        assert_eq!(delta.get("flop"), 5);
        assert_eq!(delta.get("store"), 2);
        assert_eq!(delta.get("load"), 0);
        assert_eq!(delta.iter().count(), 2, "zero deltas are omitted");
    }

    #[test]
    fn phase_timeline_tracks_sequential_phases() {
        let mut tl = PhaseTimeline::new();
        let mut c = Counters::new();

        tl.begin("merge", Cycle(0), c.clone());
        c.add("flop", 100);
        tl.metric("occupancy", 0.5);
        tl.metric("occupancy", 0.75); // overwrite wins
        tl.end(Cycle(40), c.clone());

        tl.begin("merge", Cycle(40), c.clone());
        c.add("flop", 50);
        c.add("dma_bytes", 8);
        tl.end(Cycle(100), c.clone());

        tl.begin("drain", Cycle(100), c.clone());
        assert!(tl.is_open());
        tl.end(Cycle(100), c.clone());
        assert!(!tl.is_open());

        let spans = tl.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name.as_str(), spans[0].index), ("merge", 0));
        assert_eq!((spans[1].name.as_str(), spans[1].index), ("merge", 1));
        assert_eq!((spans[2].name.as_str(), spans[2].index), ("drain", 0));
        // A phase's figures are the difference of its two snapshots.
        let grown = |i: usize| spans[i].closed.since(&spans[i].opened);
        assert_eq!(spans[0].cycles(), Cycle(40));
        assert_eq!(grown(0).get("flop"), 100);
        assert_eq!(spans[0].metrics["occupancy"], 0.75);
        assert_eq!(grown(1).get("flop"), 50);
        assert_eq!(grown(1).get("dma_bytes"), 8);
        assert_eq!(spans[2].cycles(), Cycle::ZERO);
        assert_eq!(grown(2).iter().count(), 0);
        // Both ends are kept whole: one phase closes on what the next
        // opens on, and the last one on everything counted.
        assert_eq!(spans[0].closed.get("flop"), spans[1].opened.get("flop"));
        assert_eq!(spans[2].closed.get("flop"), 150);
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn phase_timeline_rejects_nesting() {
        let mut tl = PhaseTimeline::new();
        tl.begin("a", Cycle(0), Counters::new());
        tl.begin("b", Cycle(1), Counters::new());
    }
}
