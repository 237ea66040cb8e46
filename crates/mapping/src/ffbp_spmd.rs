//! FFBP on 16 Epiphany cores, SPMD (Table I row 3).
//!
//! The paper's mapping: the *output* image of every merge is divided
//! into independent slices (here: output beams, dealt round-robin so
//! the load balances); each core DMA-prefetches the contributing
//! subaperture data its slice maps to — one child beam per upper local
//! bank, the "two pulses, 16,016 bytes" of the paper — and computes
//! the slice from local memory. During the first merge iteration the
//! prefetched data covers everything; in later iterations the child
//! observation angles spread across range, so a growing fraction of
//! contributing elements misses the prefetched window and falls back
//! to blocking external reads, all sixteen cores contending for the
//! one eLink. Results are posted back to SDRAM with non-stalling
//! writes. This is exactly the behaviour the paper describes — and the
//! reason the 16-core speedup saturates at ~12x over one core.

use desim::{Cycle, OpCounts};
use epiphany::dma::DmaDirection;
use epiphany::{Chip, EpiphanyParams};
use sar_core::ffbp::interp::nearest_indices;
use sar_core::geometry::merge_geometry;
use sim_harness::{Bound, FfbpWorkload, ImageRun, ProgramModel, RunContext};

use crate::clock_label;
use crate::layout::{ExternalLayout, BANK_CHILD_A, BANK_CHILD_B};
use crate::merge_walk::{probe_sample, walk_one, Machine};
use crate::spmd::{self, checkpointed, chip_for, owned, owner};

/// The upper local banks the two child beams are prefetched into:
/// child `a`'s, then child `b`'s.
const CHILD_BANKS: [usize; 2] = [BANK_CHILD_A, BANK_CHILD_B];

/// Knobs for the ablation benches.
#[derive(Debug, Clone, Copy)]
pub struct SpmdOptions {
    /// Cores to use. `None` (the default) means every core the
    /// platform's mesh provides — 16 on the E16G3, 64 on the E64.
    /// `Some(n)` pins the count for ablations; when `n` is smaller
    /// than the chip, the work runs on a compact
    /// [`Chip::subgrid_on`] subgrid so hop counts match a dedicated
    /// `n`-core chip.
    pub cores: Option<usize>,
    /// DMA-prefetch the mapped child beams (ablation: off = every
    /// contributing element is a blocking external read).
    pub prefetch: bool,
}

impl Default for SpmdOptions {
    fn default() -> Self {
        SpmdOptions {
            cores: None,
            prefetch: true,
        }
    }
}

/// Execute the FFBP workload on the Epiphany model with `opts`,
/// emitting the chip's spans into `ctx.tracer` and running under
/// `ctx.faults`. The record carries one phase per merge iteration
/// (that iteration's time, energy, eLink utilisation and hit/miss
/// split) and the run totals as the `local_hits` / `external_misses`
/// metrics: contributing-element reads served from the prefetched
/// banks, and those that went to external memory.
///
/// The recovery story is checkpoint/restart at merge-iteration
/// granularity ([`checkpointed`]): every iteration's inputs live in
/// SDRAM (the previous stage's output), so a core that halts
/// mid-iteration is dropped and the whole iteration redone on the
/// survivors — the paper's 16-core mapping degrades to a 15-core one
/// instead of hanging, and the formed image is bit-identical to the
/// fault-free run.
pub fn run(
    w: &FfbpWorkload,
    params: EpiphanyParams,
    opts: SpmdOptions,
    ctx: &RunContext,
) -> ImageRun {
    walk_one(w, ctx, machine(params, opts))
}

/// [`run`]'s machine, which a walk may price beside others.
pub(crate) fn machine(params: EpiphanyParams, opts: SpmdOptions) -> Machine<'static> {
    Box::new(move |ctx, stages| {
        let geom = &stages.workload().geom;
        let (mut chip, mut active) = chip_for(params, opts.cores, ctx);
        let n_cores = active.len();

        let mut local_hits = 0u64;
        let mut external_misses = 0u64;
        let r_mid = geom.bin_range(geom.num_bins / 2);
        // Blocking miss fetches issue back to back with no other chip
        // calls between them — buffered per row so the chip can absorb
        // each span in closed form.
        let mut row_misses = Vec::new();

        stages.each(|stage| {
            let merge = |chip: &mut Chip, active: &[usize], last_write: &mut [Cycle]| {
                let (hits0, misses0) = (local_hits, external_misses);
                stage.laid_out_rows(|row| {
                    // Work units: one output beam each, dealt round-robin
                    // over the surviving cores.
                    let core = active[owner(row.out_beam as usize, active.len())];
                    let beam_bytes = row.layout.beam_bytes();

                    // Which child beams does this output beam map to at
                    // mid range? Prefetch those two (one per upper bank).
                    let mut prefetched = [None; 2];
                    if opts.prefetch {
                        let mut pf_counts = OpCounts::default();
                        let mid = merge_geometry(r_mid, row.theta, row.l, &mut pf_counts);
                        prefetched = [
                            nearest_indices(row.a, geom, mid.r1, mid.theta1),
                            nearest_indices(row.b, geom, mid.r2, mid.theta2),
                        ]
                        .map(|hit| hit.map(|(_, beam)| beam));
                        chip.compute(core, &pf_counts);
                        let mut done = Cycle::ZERO;
                        for (child, beam) in prefetched.into_iter().enumerate() {
                            if let Some(beam) = beam {
                                done = done.max(chip.dma_start(
                                    core,
                                    DmaDirection::ExternalToLocal,
                                    row.child_addr(child, (0, beam)),
                                    CHILD_BANKS[child],
                                    beam_bytes,
                                ));
                            }
                        }
                        chip.dma_wait(core, done);
                    }

                    row_misses.clear();
                    // Classify each contributing element: prefetched bank
                    // (local load, already in the op counts) or blocking
                    // external read.
                    for hits in row.hits() {
                        for (child, hit) in hits.into_iter().enumerate() {
                            let Some((bin, beam)) = hit else { continue };
                            if prefetched[child] == Some(beam) {
                                local_hits += 1;
                            } else {
                                external_misses += 1;
                                row_misses.push(row.child_addr(child, (bin, beam)));
                            }
                        }
                    }
                    chip.read_external_run(core, &row_misses, 8);
                    chip.compute(core, &row.ops);
                    let arrival = chip.write_external(core, row.out_addr(0), beam_bytes);
                    last_write[core] = last_write[core].max(arrival);
                });
                chip.phase_metric("local_hits", (local_hits - hits0) as f64);
                chip.phase_metric("external_misses", (external_misses - misses0) as f64);
            };
            // The next stage reads this one's output, hence the drain and
            // barrier that close the checkpointed phase.
            checkpointed(&mut chip, &ctx.faults, &mut active, "merge", merge);
        });

        let clock = clock_label(chip.params().clock);
        let label = format!("FFBP / Epiphany, {n_cores} cores @ {clock} (SPMD)");
        let mut record = chip.report(&label, n_cores);
        record.set_metric("local_hits", local_hits as f64);
        record.set_metric("external_misses", external_misses as f64);
        record
    })
}

/// The static description of [`run`] (§V-A) on a `mesh`-sized platform:
/// the cores and mesh [`run`] would size, the two prefetch banks, and
/// per merge iteration the rows the deal hands each core.
pub fn model(w: &FfbpWorkload, opts: &SpmdOptions, mesh: (u16, u16)) -> ProgramModel {
    let mut m = spmd::model(mesh, opts.cores, "merge_end");
    let layout = ExternalLayout::of(w);
    if opts.prefetch {
        let bytes = u32::try_from(layout.beam_bytes()).expect("beam fits u32");
        for c in m.cores.clone() {
            m.buffer(format!("child_a[{c}]"), c, CHILD_BANKS[0], 0, bytes);
            m.buffer(format!("child_b[{c}]"), c, CHILD_BANKS[1], 0, bytes);
        }
    }

    let n_active = m.cores.len();
    let bins = w.geom.num_bins as f64;
    let beam_bytes = layout.beam_bytes() as f64;
    let per_sample = probe_sample(w);
    // The per-row prefetch geometry lookup — also data-independent,
    // and like `run` skipped with prefetch off.
    let mut per_row = OpCounts::default();
    if opts.prefetch {
        merge_geometry(1.0, 0.0, 1.0, &mut per_row);
    }
    let iters = u64::from(w.geom.merge_iterations());
    spmd::phase(&mut m, "merge", iters, |pos, wd| {
        let rows = owned(w.geom.num_pulses, n_active, pos) as u64;
        let rows_f = rows as f64;
        let mut ops = per_sample.scaled(rows * w.geom.num_bins as u64);
        ops.add(&per_row.scaled(rows));
        wd.exact_ops(ops);
        wd.compute_calls = Bound::exact(if opts.prefetch { 2.0 * rows_f } else { rows_f });
        if opts.prefetch {
            // Zero to two child beams prefetched per row, depending on
            // which children the mid-range probe lands in.
            wd.dma_msgs = Bound::range(0.0, 2.0 * rows_f);
            wd.dma_bytes = Bound::range(0.0, 2.0 * rows_f * beam_bytes);
        }
        // Every contributing element the prefetch misses is a blocking
        // 8 B external read.
        wd.ext_read_msgs = Bound::range(0.0, 2.0 * rows_f * bins);
        wd.ext_read_bytes = Bound::range(0.0, 16.0 * rows_f * bins);
        wd.ext_write_msgs = Bound::exact(rows_f);
        wd.ext_write_bytes = Bound::exact(rows_f * beam_bytes);
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp_seq;
    use faultsim::FaultState;
    use sar_core::ffbp::ffbp;

    /// A fault-free, untraced run.
    fn run(w: &FfbpWorkload, params: EpiphanyParams, opts: SpmdOptions) -> ImageRun {
        super::run(w, params, opts, &RunContext::plain())
    }

    fn metric(r: &ImageRun, key: &str) -> u64 {
        r.record
            .metric(key)
            .expect("the driver stamps its hit/miss totals") as u64
    }

    #[test]
    fn image_matches_the_plain_algorithm() {
        let w = FfbpWorkload::small();
        let machine = run(&w, EpiphanyParams::default(), SpmdOptions::default());
        let plain = ffbp(&w.data, &w.geom, &w.config);
        assert_eq!(machine.image.as_slice(), plain.image.as_slice());
    }

    #[test]
    fn parallel_beats_sequential_substantially() {
        // Note the comparison is against the *naive* sequential port
        // (per-element blocking SDRAM reads, as in the paper), so the
        // ratio can exceed the core count when prefetch removes those
        // stalls entirely — on the small workload every access is
        // covered. The paper-scale run lands at ~12x (Table I: 11.7x)
        // because later iterations spill to external memory.
        let w = FfbpWorkload::small();
        let par = run(&w, EpiphanyParams::default(), SpmdOptions::default());
        let seq = ffbp_seq::run(&w, EpiphanyParams::default(), &RunContext::plain());
        let speedup = seq.record.elapsed.seconds() / par.record.elapsed.seconds();
        assert!(
            speedup > 4.0,
            "16-core SPMD should be far faster than 1 core, got {speedup:.2}x"
        );
        // Sanity ceiling: cores x worst-case blocking-read amplification.
        assert!(speedup < 100.0, "speedup {speedup:.2}x is absurd");
    }

    #[test]
    fn first_iteration_is_fully_local() {
        // Run a single-merge workload: 2 pulses -> 1 merge. All
        // contributing data is covered by the prefetched beams.
        let mut w = FfbpWorkload::small();
        let geom = sar_core::geometry::SarGeometry {
            num_pulses: 2,
            ..w.geom
        };
        let scene = sar_core::scene::Scene::single_target(geom);
        w.geom = geom;
        w.data = sar_core::scene::simulate_compressed_data(&scene, 0.0, 1);
        let r = run(&w, EpiphanyParams::default(), SpmdOptions::default());
        assert_eq!(
            metric(&r, "external_misses"),
            0,
            "single-pulse children have one beam: prefetch must cover everything"
        );
        assert!(metric(&r, "local_hits") > 0);
    }

    #[test]
    fn later_iterations_miss_the_prefetched_window() {
        // Spill outside the prefetched beams needs a deep aperture at
        // close range: the child observation angle then sweeps across
        // many child beams over the swath. (The small test geometry is
        // shallow enough that prefetch covers everything — precisely
        // the "first iterations are local" half of the paper's story.)
        let geom = sar_core::geometry::SarGeometry {
            num_pulses: 256,
            r0: 300.0,
            ..sar_core::geometry::SarGeometry::test_size()
        };
        let scene = sar_core::scene::Scene::single_target(geom);
        let w = FfbpWorkload {
            geom,
            data: sar_core::scene::simulate_compressed_data(&scene, 0.0, 3),
            config: Default::default(),
        };
        let r = run(&w, EpiphanyParams::default(), SpmdOptions::default());
        assert!(
            metric(&r, "external_misses") > 0,
            "deep merges must spill outside the two prefetched beams"
        );
        // But prefetch still covers the majority overall.
        let total = metric(&r, "local_hits") + metric(&r, "external_misses");
        assert!(
            metric(&r, "local_hits") * 2 > total,
            "prefetch should cover most accesses: {} of {}",
            metric(&r, "local_hits"),
            total
        );
    }

    #[test]
    fn disabling_prefetch_hurts() {
        let w = FfbpWorkload::small();
        let with = run(&w, EpiphanyParams::default(), SpmdOptions::default());
        let without = run(
            &w,
            EpiphanyParams::default(),
            SpmdOptions {
                prefetch: false,
                ..SpmdOptions::default()
            },
        );
        assert!(without.record.elapsed.seconds() > with.record.elapsed.seconds());
        assert_eq!(metric(&without, "local_hits"), 0);
    }

    #[test]
    fn core_halt_degrades_to_fifteen_cores_with_an_identical_image() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = FfbpWorkload::small();
        let clean = run(&w, EpiphanyParams::default(), SpmdOptions::default());
        let plan = FaultPlan::from_events(
            11,
            vec![FaultEvent::CoreHalt {
                core: 5,
                at: Cycle(1_000),
            }],
        );
        let faults = FaultState::from_plan(&plan);
        let r = super::run(
            &w,
            EpiphanyParams::default(),
            SpmdOptions::default(),
            &RunContext::plain().with_faults(faults.clone()),
        );
        assert_eq!(
            r.image.as_slice(),
            clean.image.as_slice(),
            "checkpoint/restart must reproduce the fault-free image bit-for-bit"
        );
        let totals = faults.totals();
        assert_eq!(totals.degraded_cores, 1);
        assert_eq!(totals.faults_injected, 1);
        assert!(
            totals.recovery_cycles > 0,
            "the redone iteration is paid for"
        );
        assert!(totals.recovery_energy_j > 0.0);
        assert_eq!(r.record.faults, totals, "report() stamps the fault totals");
        assert!(
            r.record.elapsed.cycles.raw() > clean.record.elapsed.cycles.raw(),
            "recovery cannot be free"
        );
    }

    #[test]
    fn core_halt_recovery_is_deterministic() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = FfbpWorkload::small();
        let plan = FaultPlan::from_events(
            7,
            vec![FaultEvent::CoreHalt {
                core: 3,
                at: Cycle(5_000),
            }],
        );
        let go = || {
            super::run(
                &w,
                EpiphanyParams::default(),
                SpmdOptions::default(),
                &RunContext::plain().with_faults(FaultState::from_plan(&plan)),
            )
        };
        let (a, b) = (go(), go());
        assert_eq!(a.record.elapsed.cycles, b.record.elapsed.cycles);
        assert_eq!(a.record.faults, b.record.faults);
        assert_eq!(a.image.as_slice(), b.image.as_slice());
    }

    #[test]
    fn e64_forms_the_same_image_and_runs_no_slower() {
        let w = FfbpWorkload::small();
        let e16 = run(&w, EpiphanyParams::default(), SpmdOptions::default());
        let e64 = run(&w, EpiphanyParams::e64(), SpmdOptions::default());
        assert!(
            e64.record.label.contains("64 cores"),
            "{}",
            e64.record.label
        );
        assert_eq!(
            e64.image.as_slice(),
            e16.image.as_slice(),
            "the formed image is independent of the mesh"
        );
        assert!(e64.record.elapsed.seconds() <= e16.record.elapsed.seconds());
    }

    #[test]
    fn a_16_core_subgrid_of_the_e64_matches_the_e16_image() {
        // The scale-out acceptance check at driver level: pinning the
        // paper's 16-core slice assignment onto the E64's 4x4 corner
        // subgrid reproduces the E16G3 image bit for bit.
        let w = FfbpWorkload::small();
        let e16 = run(&w, EpiphanyParams::default(), SpmdOptions::default());
        let sub = run(
            &w,
            EpiphanyParams::e64(),
            SpmdOptions {
                cores: Some(16),
                ..SpmdOptions::default()
            },
        );
        assert_eq!(sub.image.as_slice(), e16.image.as_slice());
        assert!(sub.record.label.contains("16 cores"));
    }

    #[test]
    fn fewer_cores_run_longer() {
        let w = FfbpWorkload::small();
        let four = run(
            &w,
            EpiphanyParams::default(),
            SpmdOptions {
                cores: Some(4),
                ..SpmdOptions::default()
            },
        );
        let sixteen = run(&w, EpiphanyParams::default(), SpmdOptions::default());
        assert!(four.record.elapsed.seconds() > sixteen.record.elapsed.seconds());
    }

    #[test]
    fn spmd_model_declares_the_paper_footprint() {
        let w = FfbpWorkload::paper();
        let m = model(&w, &SpmdOptions::default(), (4, 4));
        assert_eq!(m.mesh, (4, 4));
        assert_eq!(m.cores.len(), 16);
        // Two 8,008 B beams per core, one per upper bank (§V-A).
        assert_eq!(m.buffers.len(), 32);
        assert!(m.buffers.iter().all(|b| b.bytes == 8008));
        assert!(m
            .buffers
            .iter()
            .all(|b| b.bank == BANK_CHILD_A || b.bank == BANK_CHILD_B));
        assert_eq!(m.barriers.len(), 1);
        assert_eq!(m.barriers[0].participants.len(), 16);
    }

    #[test]
    fn spmd_model_without_prefetch_has_no_buffers() {
        let w = FfbpWorkload::small();
        let m = model(
            &w,
            &SpmdOptions {
                prefetch: false,
                ..SpmdOptions::default()
            },
            (4, 4),
        );
        assert!(m.buffers.is_empty());
    }

    #[test]
    fn spmd_model_scales_to_the_e64_mesh() {
        let w = FfbpWorkload::small();
        let m = model(&w, &SpmdOptions::default(), (8, 8));
        assert_eq!(m.mesh, (8, 8));
        assert_eq!(m.cores.len(), 64);
        assert_eq!(m.buffers.len(), 128);
        assert_eq!(m.barriers[0].participants.len(), 64);
        // A pinned 16-core ablation on the E64 occupies the 4x4
        // corner subgrid, exactly as the driver places it.
        let sub = model(
            &w,
            &SpmdOptions {
                cores: Some(16),
                ..SpmdOptions::default()
            },
            (8, 8),
        );
        assert_eq!(sub.mesh, (8, 8));
        assert_eq!(sub.cores, Chip::subgrid_on(8, 8, 16));
        // Over-subscription falls back to the minimal covering mesh.
        let big = model(
            &w,
            &SpmdOptions {
                cores: Some(32),
                ..SpmdOptions::default()
            },
            (4, 4),
        );
        assert_eq!(big.mesh, (8, 4));
        assert_eq!(big.cores.len(), 32);
    }
}
