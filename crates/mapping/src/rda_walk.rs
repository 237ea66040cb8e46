//! The stage loop of the two RDA machine drivers ([`crate::rda_seq`],
//! [`crate::rda_spmd`]): `sar-core`'s work units ([`Stages`]) computed
//! on a second thread while the driver prices their ledgers.
//!
//! A machine prices a unit's `OpCounts`, never its samples, and a unit's
//! ledger is data-independent (the `sar_core::rda` tests pin that). So
//! [`walk`] builds the run's [`Stages`] on the driver — the thread that
//! owns the chip — and moves it into one helper thread, which walks every
//! unit in `rda()`'s order and sends each ledger down an unbounded
//! channel: at paper scale 3 026 ledgers of 64 bytes. The driver asks
//! for units in its own phase order ([`Units::unit`]), waiting only for
//! a unit the helper has not reached, and keeps every ledger it has
//! received, so a checkpoint redo prices them again and recomputes
//! nothing. Who computed a unit changes nothing a machine sees: every
//! chip call is made in the driver's order with the same ledger. No
//! window or work stealing is needed (unlike [`crate::merge_walk`]): a
//! unit hands the driver no samples, so the helper may run as far ahead
//! as it likes.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::mpsc::{self, Receiver};
use std::thread;

use desim::OpCounts;
use sar_core::image::ComplexImage;
use sar_core::rda::{MigrationTable, Stages};
use sim_harness::RdaWorkload;

/// The three kinds of work unit, in walk order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Range compression of pulse `k`.
    Range,
    /// Corner turn and azimuth FFT of range bin `i`.
    Doppler,
    /// RCMC and azimuth compression of range bin `i`.
    Azimuth,
}

/// The driver's end of a [`walk`]: the helper's ledgers, unit by unit.
pub(crate) struct Units {
    rx: Receiver<OpCounts>,
    /// Every ledger received so far, in walk order.
    received: Vec<OpCounts>,
    pulses: usize,
    bins: usize,
}

impl Units {
    /// Where `stage`'s units sit in the walk.
    fn span(&self, stage: Stage) -> Range<usize> {
        let (n, bins) = (self.pulses, self.bins);
        match stage {
            Stage::Range => 0..n,
            Stage::Doppler => n..n + bins,
            Stage::Azimuth => n + bins..n + 2 * bins,
        }
    }

    /// The ledger of unit `k` of `stage`, waiting for the helper if it
    /// has not sent it yet. Panics if the helper died first.
    pub fn unit(&mut self, stage: Stage, k: usize) -> OpCounts {
        let span = self.span(stage);
        let at = span.start + k;
        assert!(at < span.end, "{stage:?} has no unit {k}");
        while self.received.len() <= at {
            let ops = self.rx.recv().expect("the RDA helper panicked");
            self.received.push(ops);
        }
        self.received[at]
    }
}

/// An RDA machine run's stage loop: `price` gets the run's [`Units`]
/// while one helper thread computes them with the stages over `migration`
/// (the run's one table, which the driver reads for its RCMC gathers).
/// Returns the image. A panic in `price` stops the helper at its next
/// send and propagates; a panic in the helper surfaces as a panic of the
/// run.
pub(crate) fn walk(
    w: &RdaWorkload,
    migration: &MigrationTable,
    price: impl FnOnce(&mut Units),
) -> ComplexImage {
    let stages = Stages::new(&w.raw, &w.geom, &w.config, migration);
    let (pulses, bins) = (w.geom.num_pulses, w.geom.num_bins);
    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let helper = scope.spawn(move || stages.walk(|ops| tx.send(ops)).ok());
        let mut units = Units {
            rx,
            received: Vec::with_capacity(pulses + 2 * bins),
            pulses,
            bins,
        };
        price(&mut units);
        // `units` holds the receiver until the helper is done, so it
        // finishes its walk.
        let image = helper.join().unwrap_or_else(|panic| resume_unwind(panic));
        image.expect("the helper's receiver is alive")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_core::geometry::SarGeometry;
    use sar_core::rda::rda;
    use std::convert::Infallible;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    /// Every unit in walk order, labelled.
    fn labels(w: &RdaWorkload) -> Vec<(Stage, usize)> {
        let (n, bins) = (w.geom.num_pulses, w.geom.num_bins);
        let units = |stage, count| (0..count).map(move |k| (stage, k));
        units(Stage::Range, n)
            .chain(units(Stage::Doppler, bins))
            .chain(units(Stage::Azimuth, bins))
            .collect()
    }

    /// `(stage, unit, ledger)` of one priced unit.
    type Priced = (Stage, usize, OpCounts);

    #[test]
    fn either_pace_prices_the_plain_walks_ledgers() {
        let w = RdaWorkload::small();
        let migration = MigrationTable::new(&w.geom, w.config.rcmc);
        // The plain walk, on this thread.
        let mut ledgers = Vec::new();
        let Ok(plain_image) = Stages::new(&w.raw, &w.geom, &w.config, &migration).walk(|ops| {
            ledgers.push(ops);
            Ok::<(), Infallible>(())
        });
        let plain: Vec<Priced> = labels(&w)
            .into_iter()
            .zip(ledgers)
            .map(|((stage, k), ops)| (stage, k, ops))
            .collect();
        let reference = rda(&w.raw, &w.geom, &w.config).image;
        assert_eq!(plain_image.as_slice(), reference.as_slice());

        // A driver that first waits for the walk's last unit, so every
        // ledger it prices was sent long before, and one that prices at
        // once and waits on the channel.
        for patient in [true, false] {
            let mut seen: Vec<Priced> = Vec::new();
            let image = walk(&w, &migration, |units| {
                if patient {
                    units.unit(Stage::Azimuth, w.geom.num_bins - 1);
                }
                for (stage, k) in labels(&w) {
                    seen.push((stage, k, units.unit(stage, k)));
                }
                // A redo prices the received ledgers again.
                assert_eq!(units.unit(Stage::Range, 3), seen[3].2);
            });
            assert!(seen == plain, "patient {patient}: the priced units differ");
            assert_eq!(image.as_slice(), reference.as_slice(), "patient {patient}");
        }
    }

    /// Run `go` on a thread of its own, so a hang fails the test; its
    /// panic message, if it panicked.
    fn message_of(go: impl FnOnce() + Send + 'static) -> Option<String> {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let run = catch_unwind(AssertUnwindSafe(go));
            let message = run.err().map(|p| {
                p.downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            tx.send(message).expect("the test waits");
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the walk returns instead of hanging")
    }

    #[test]
    fn a_panic_while_pricing_propagates_and_stops_the_helper() {
        for patient in [true, false] {
            let message = message_of(move || {
                let w = RdaWorkload::small();
                let migration = MigrationTable::new(&w.geom, w.config.rcmc);
                walk(&w, &migration, |units| {
                    if patient {
                        units.unit(Stage::Azimuth, w.geom.num_bins - 1);
                    }
                    for k in 0..w.geom.num_bins {
                        units.unit(Stage::Doppler, k);
                        assert!(k != 40, "priced Doppler bin 40");
                    }
                });
            });
            assert_eq!(
                message.as_deref(),
                Some("priced Doppler bin 40"),
                "patient {patient}"
            );
        }
    }

    #[test]
    fn a_helper_that_dies_surfaces_as_a_panic_of_the_run() {
        let message = message_of(|| {
            let w = RdaWorkload::small();
            // A table of twice the pulses: the first azimuth unit's
            // gather is twice the reference's length, which its compress
            // asserts against.
            let wrong = SarGeometry {
                num_pulses: 2 * w.geom.num_pulses,
                ..w.geom
            };
            let migration = MigrationTable::new(&wrong, w.config.rcmc);
            walk(&w, &migration, |units| {
                for k in 0..w.geom.num_bins {
                    units.unit(Stage::Azimuth, k);
                }
            });
        });
        let message = message.expect("the run panics");
        assert!(message.starts_with("the RDA helper panicked"), "{message}");
    }
}
