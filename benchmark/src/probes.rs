//! Fixed-count microprobes: one small loop per layer primitive, each
//! calling only the layer's public functions. Address and traffic
//! streams come from `desim::rng` seeded by `--seed`.

use std::hint::black_box;
use std::time::Instant;

use desim::stats::Histogram;
use desim::{Cycle, FifoResource, Json, OpCounts, RunRecord, SmallRng, Tracer};
use emesh::network::EMeshParams;
use emesh::{EMesh, Mesh2D, NodeId};
use epiphany::dma::DmaDirection;
use epiphany::{Chip, EpiphanyParams};
use faultsim::FaultPlan;
use memsim::{GlobalAddr, HierarchyParams, MemoryHierarchy, Sdram, SdramParams};
use sar_core::c32;
use sar_core::ffbp::{merge_pair, stage0, InterpKind};
use sar_core::rda::{
    azimuth_compress, azimuth_reference, doppler_spectrum, range_compress_row, rcmc_correct,
};
use sar_core::scene::{simulate_compressed_data, simulate_raw_echoes, Scene};
use sar_core::signal::{fft_inplace, lfm_chirp, MatchedFilter};
use sar_core::ComplexImage;
use sar_epiphany::mapping_named;
use sim_harness::{platform_named, run, run_traced, EpiphanyPlatform, Workload};

use crate::workloads::{StaticPricing, Table1Paper, FAULTS_DEMO};

/// Named values, in emission order.
pub type Metrics = Vec<(String, f64)>;

/// Probe iteration counts: the stated count, or a hundredth of it under
/// `--quick`.
#[derive(Clone, Copy)]
pub struct Counts {
    pub quick: bool,
}

impl Counts {
    pub fn of(self, n: u64) -> u64 {
        if self.quick {
            (n / 100).max(1)
        } else {
            n
        }
    }

    /// Repetitions of a call long enough that a median over `n` of
    /// them is steady; `--quick` makes two.
    pub fn reps(self, n: u64) -> u64 {
        if self.quick {
            n.min(2)
        } else {
            n
        }
    }
}

pub fn seconds<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Nanoseconds per iteration of `n` calls to `f(i)`.
fn ns_per(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let (secs, ()) = seconds(|| {
        for i in 0..n {
            f(i);
        }
    });
    secs * 1e9 / n as f64
}

/// Median seconds of `reps` calls.
pub fn median_seconds<T>(reps: u64, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (secs, out) = seconds(&mut f);
            black_box(out);
            secs
        })
        .collect();
    crate::stats::median(&samples)
}

/// The plain `sar-core` kernels on a workload's inputs, in seconds:
/// what every Mapping x Platform run of that kernel pays before any
/// machine model is involved.
#[derive(Clone, Copy)]
pub struct Plain {
    pub ffbp: f64,
    pub rda: f64,
    pub autofocus: f64,
}

impl Plain {
    pub fn of_kernel(&self, kernel: &str) -> f64 {
        match kernel {
            "ffbp" => self.ffbp,
            "rda" => self.rda,
            _ => self.autofocus,
        }
    }

    pub fn measure(table: &Table1Paper, rda: &Workload, reps: u64, counts: Counts) -> Plain {
        let f = &table.ffbp;
        let r = rda.rda().expect("an RDA workload");
        let a = &table.autofocus;
        let af_reps = counts.of(2_000);
        Plain {
            ffbp: median_seconds(reps, || sar_core::ffbp::ffbp(&f.data, &f.geom, &f.config)),
            rda: median_seconds(reps, || sar_core::rda::rda(&r.raw, &r.geom, &r.config)),
            autofocus: seconds(|| {
                for _ in 0..af_reps {
                    black_box(sar_core::autofocus::search::sweep_criterion(
                        &a.f_minus,
                        &a.f_plus,
                        a.max_shift,
                        a.hypotheses,
                        &a.config,
                        &mut OpCounts::default(),
                    ));
                }
            })
            .0 / af_reps as f64,
        }
    }
}

fn random_signal(n: usize, rng: &mut SmallRng) -> Vec<c32> {
    (0..n)
        .map(|_| c32 {
            re: rng.gen_range(-1.0..1.0),
            im: rng.gen_range(-1.0..1.0),
        })
        .collect()
}

/// `sar-core`: FFT per point, merge per sample and interpolation kind,
/// the four RDA stages over the workload matrix, scene generation.
pub fn sar_core(table: &Table1Paper, rda: &Workload, seed: u64, counts: Counts) -> Metrics {
    let mut out = Metrics::new();
    let mut rng = SmallRng::seed_from_u64(seed);

    for n in [1024usize, 2048, 4096] {
        let signal = random_signal(n, &mut rng);
        let reps = counts.of(4_000_000 / n as u64);
        let mut buf = signal.clone();
        let ns = ns_per(reps, |_| {
            buf.copy_from_slice(&signal);
            fft_inplace(&mut buf);
            black_box(&buf);
        });
        out.push((format!("sar-core.fft_{n}_ns_per_pt"), ns / n as f64));
    }

    // Two 32-beam children (64 pulses merged five times), then the one
    // merge that is timed: 64 beams x num_bins output samples.
    let (f, geom) = (&table.ffbp, &table.ffbp.geom);
    let mut stage = stage0(&f.data, geom);
    stage.truncate(64);
    while stage.len() > 2 {
        stage = stage
            .chunks(2)
            .map(|c| {
                merge_pair(
                    &c[0],
                    &c[1],
                    geom,
                    InterpKind::Nearest,
                    true,
                    &mut OpCounts::default(),
                )
            })
            .collect();
    }
    for (name, kind) in [
        ("nn", InterpKind::Nearest),
        ("linear", InterpKind::Linear),
        ("cubic", InterpKind::Cubic),
    ] {
        let reps = counts.reps(40);
        let samples = (2 * stage[0].grid.n_beams * geom.num_bins) as f64;
        let ns = ns_per(reps, |_| {
            black_box(merge_pair(
                &stage[0],
                &stage[1],
                geom,
                kind,
                true,
                &mut OpCounts::default(),
            ));
        });
        out.push((format!("sar-core.merge_{name}_ns_per_sample"), ns / samples));
    }

    // The four stage functions, looped the way `sar_core::rda::rda`
    // loops them.
    let w = rda.rda().expect("an RDA workload");
    let (geom, n) = (&w.geom, w.geom.num_pulses);
    let mf = MatchedFilter::new(&lfm_chirp(w.config.chirp), w.raw.cols());
    let mut ops = OpCounts::default();
    let mut rc = ComplexImage::zeros(n, geom.num_bins);
    let (range_s, ()) = seconds(|| {
        for k in 0..n {
            let row = range_compress_row(&mf, w.raw.row(k), geom.num_bins, &mut ops);
            rc.row_mut(k).copy_from_slice(&row);
        }
    });
    let mut rd = ComplexImage::zeros(geom.num_bins, n);
    let (doppler_s, ()) = seconds(|| {
        let mut col = vec![c32::ZERO; n];
        for i in 0..geom.num_bins {
            for (k, c) in col.iter_mut().enumerate() {
                *c = rc.at(k, i);
            }
            rd.row_mut(i)
                .copy_from_slice(&doppler_spectrum(&col, &mut ops));
        }
    });
    let (rcmc_s, corrected) = seconds(|| {
        (0..geom.num_bins)
            .map(|i| rcmc_correct(&rd, geom, i, w.config.rcmc, &mut ops))
            .collect::<Vec<_>>()
    });
    let (azimuth_s, ()) = seconds(|| {
        for (i, line) in corrected.iter().enumerate() {
            let href = azimuth_reference(geom, i, &mut ops);
            black_box(azimuth_compress(line, &href, &mut ops));
        }
    });
    black_box(ops);
    out.push(("sar-core.rda_range_ms".into(), range_s * 1e3));
    out.push(("sar-core.rda_doppler_ms".into(), doppler_s * 1e3));
    out.push(("sar-core.rda_rcmc_ms".into(), rcmc_s * 1e3));
    out.push(("sar-core.rda_azimuth_ms".into(), azimuth_s * 1e3));

    let scene = Scene::six_targets(table.ffbp.geom);
    let (compressed_s, data) = seconds(|| simulate_compressed_data(&scene, 0.0, 7));
    let (raw_s, raw) = seconds(|| simulate_raw_echoes(&scene, w.config.chirp));
    black_box((data, raw));
    out.push(("sar-core.scene_compressed_ms".into(), compressed_s * 1e3));
    out.push(("sar-core.scene_raw_ms".into(), raw_s * 1e3));
    out
}

/// `desim`: the FIFO resource, the histogram, JSON both ways: one
/// machine record (about 30 KB of JSON) against `doc`, the cold sweep
/// document, and `document`, its text (about 800 KB).
pub fn desim(doc: &Json, document: &str, seed: u64, counts: Counts) -> Result<Metrics, String> {
    let record = run(
        mapping_named("ffbp_spmd").expect("registered").as_ref(),
        &Workload::named("ffbp", true).expect("registered"),
        &EpiphanyPlatform::default(),
    )
    .map_err(|e| e.to_string())?
    .record;
    let mut out = Metrics::new();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xd5);

    // Requests from sixteen time cursors, as the machine models issue
    // them: mostly at the frontier, sometimes behind it.
    let mut link = FifoResource::per_units(1, 8);
    let mut cursors = [0u64; 16];
    let n = counts.of(4_000_000);
    let stream: Vec<(usize, u64)> = (0..4096)
        .map(|_| (rng.gen_index(0..16), 8 + 8 * rng.gen_u64(0..16)))
        .collect();
    let ns = ns_per(n, |i| {
        let (c, units) = stream[(i % 4096) as usize];
        let r = link.request(Cycle(cursors[c]), units);
        cursors[c] = r.end.raw() + 4;
    });
    black_box(link.busy_cycles());
    out.push(("desim.fifo_request_ns".into(), ns));

    // Uncontended, strictly separated spans absorbed in closed form.
    let mut link = FifoResource::per_units(1, 8);
    let (span, hold, gap) = (1_000u64, Cycle(2), 7u64);
    let spans = counts.of(20_000);
    let ns = ns_per(spans, |_| {
        let t0 = link.free_at().raw() + gap;
        link.absorb_run(span, Cycle(hold.raw() * span), |i| {
            (Cycle(t0 + i * (hold.raw() + gap)), hold)
        });
    });
    black_box(link.served());
    out.push(("desim.fifo_absorb_ns_per_req".into(), ns / span as f64));

    let mut hist = Histogram::new();
    let values: Vec<u64> = (0..4096).map(|_| rng.gen_u64(1..5_000)).collect();
    let ns = ns_per(counts.of(20_000_000), |i| {
        hist.record(values[(i % 4096) as usize]);
    });
    black_box(hist.count());
    out.push(("desim.hist_record_ns".into(), ns));

    let mb = document.len() as f64 / 1e6;
    let write_s = median_seconds(counts.reps(50), || doc.to_string_pretty());
    out.push(("desim.json_write_mb_s".into(), mb / write_s));
    let us = ns_per(counts.of(2_000), |_| {
        black_box(record.to_json());
    }) / 1e3;
    out.push(("desim.record_to_json_us".into(), us));

    // One record against the whole document: a linear parser reads both
    // at the same rate.
    let json = record.to_json();
    let text = json.to_string_pretty();
    let parse_s = median_seconds(counts.reps(50), || Json::parse(&text));
    out.push((
        "desim.json_parse_30k_mb_s".into(),
        text.len() as f64 / 1e6 / parse_s,
    ));
    let (parse_s, parsed) = seconds(|| Json::parse(document));
    black_box(parsed.is_ok());
    out.push(("desim.json_parse_800k_mb_s".into(), mb / parse_s));
    let us = ns_per(counts.of(2_000), |_| {
        black_box(RunRecord::from_json(&json));
    }) / 1e3;
    out.push(("desim.record_from_json_us".into(), us));
    Ok(out)
}

/// `emesh` and `memsim`: transfers on an idle E16 fabric, SDRAM and the
/// reference CPU's cache hierarchy.
pub fn emesh_memsim(seed: u64, counts: Counts) -> Metrics {
    let mut out = Metrics::new();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xe3);

    // The `perf` binary's all-pairs pattern: per-source monotone cursors.
    let mut fabric = EMesh::new(Mesh2D::e16g3(), EMeshParams::default());
    let nodes = fabric.mesh().len() as u64;
    let mut cursors = vec![0u64; nodes as usize];
    let ns = ns_per(counts.of(4_000_000), |i| {
        let src = (i % nodes) as usize;
        let dst = ((i * 7 + 3) % nodes) as u16;
        let r = fabric.write_onchip(
            Cycle(cursors[src]),
            NodeId(src as u16),
            NodeId(dst),
            8 + (i % 4) * 32,
        );
        cursors[src] = cursors[src].max(r.arrival.raw() / 4);
    });
    black_box(fabric.total_byte_hops());
    out.push(("emesh.write_onchip_ns".into(), ns));

    // Blocking 8-byte off-chip reads, each core waiting for its reply.
    let mut fabric = EMesh::new(Mesh2D::e16g3(), EMeshParams::default());
    let mut cursors = vec![0u64; nodes as usize];
    let mem: Vec<u64> = (0..4096).map(|_| rng.gen_u64(20..60)).collect();
    let ns = ns_per(counts.of(1_000_000), |i| {
        let src = (i % nodes) as usize;
        let r = fabric.read_offchip(
            Cycle(cursors[src]),
            NodeId(src as u16),
            8,
            Cycle(mem[(i % 4096) as usize]),
        );
        cursors[src] = r.arrival.raw();
    });
    black_box(fabric.elink_busy_cycles());
    out.push(("emesh.read_offchip_ns".into(), ns));

    // The same reads from one core, absorbed a span at a time.
    let mut fabric = EMesh::new(Mesh2D::e16g3(), EMeshParams::default());
    let src = NodeId(5);
    let path = fabric.offchip_read_path(src, 8);
    let span = 1_000usize;
    let mut now = Cycle(0);
    let (mut t, mut m) = (Vec::with_capacity(span), Vec::with_capacity(span));
    let ns = ns_per(counts.of(10_000), |s| {
        t.clear();
        m.clear();
        for i in 0..span {
            let issue = now + Cycle(1);
            let memory = Cycle(mem[(s as usize + i) % 4096]);
            t.push(issue);
            m.push(memory);
            now = issue + path.latency(memory);
        }
        assert!(
            fabric.can_absorb_offchip_reads(src, t[0]),
            "an idle fabric absorbs read spans"
        );
        fabric.absorb_offchip_reads(src, 8, &t, &m);
    });
    black_box(fabric.elink_busy_cycles());
    out.push(("emesh.absorb_read_ns_per_read".into(), ns / span as f64));

    let mut sdram = Sdram::new(SdramParams::default());
    let addrs: Vec<u32> = (0..4096)
        .map(|_| rng.gen_u64(0..u64::from(memsim::address::EXTERNAL_SIZE)) as u32)
        .collect();
    let mut now = Cycle(0);
    let ns = ns_per(counts.of(10_000_000), |i| {
        now = sdram.access(now, addrs[(i % 4096) as usize], 8).done;
    });
    black_box(sdram.accesses());
    out.push(("memsim.sdram_access_ns".into(), ns));

    let mut hier = MemoryHierarchy::new(HierarchyParams::default());
    let ns = ns_per(counts.of(4_000_000), |i| {
        black_box(hier.access(i * 8, false));
    });
    out.push(("memsim.hier_seq_ns".into(), ns));

    // FFBP's merge reads: two children, 8-byte samples at indices that
    // wander a few bins and jump a row every so often.
    let mut hier = MemoryHierarchy::new(HierarchyParams::default());
    let row_bytes = 1001 * 8u64;
    let steps: Vec<(u64, u64)> = (0..4096)
        .map(|_| (rng.gen_u64(0..4), rng.gen_u64(0..64)))
        .collect();
    let mut pos = [0u64, 512 * row_bytes];
    let ns = ns_per(counts.of(4_000_000), |i| {
        let child = (i & 1) as usize;
        let (bins, row_jump) = steps[(i % 4096) as usize];
        pos[child] += bins * 8 + if row_jump == 0 { row_bytes } else { 0 };
        pos[child] %= 1024 * row_bytes;
        black_box(hier.access(pos[child], false));
    });
    out.push(("memsim.hier_gather_ns".into(), ns));
    out
}

/// `epiphany::Chip` primitives on a fresh E16, one core driving each.
pub fn epiphany(seed: u64, counts: Counts) -> Metrics {
    let mut out = Metrics::new();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xe9);
    let external: Vec<GlobalAddr> = (0..4096)
        .map(|_| GlobalAddr::external(8 * rng.gen_u64(0..1 << 20) as u32))
        .collect();
    let chip = || Chip::e16g3(EpiphanyParams::default());

    let mut c = chip();
    let ns = ns_per(counts.of(1_000_000), |i| {
        black_box(c.read_external((i % 16) as usize, external[(i % 4096) as usize], 8));
    });
    out.push(("epiphany.read_external_ns".into(), ns));

    let mut c = chip();
    let span = 1_000usize;
    let ns = ns_per(counts.of(10_000), |i| {
        let from = (i as usize * 7) % (4096 - span);
        c.read_external_run(5, &external[from..from + span], 8);
    });
    black_box(c.elapsed());
    out.push(("epiphany.read_run_ns_per_read".into(), ns / span as f64));

    let mut c = chip();
    let ns = ns_per(counts.of(4_000_000), |i| {
        let core = (i % 16) as usize;
        black_box(c.write_remote(core, (core * 7 + 3) % 16, 8 + (i % 4) * 32));
    });
    out.push(("epiphany.write_remote_ns".into(), ns));

    let mut c = chip();
    let ns = ns_per(counts.of(1_000_000), |i| {
        let core = (i % 16) as usize;
        let done = c.dma_start(
            core,
            DmaDirection::ExternalToLocal,
            external[(i % 4096) as usize],
            2 + (i % 2) as usize,
            2048,
        );
        c.dma_wait(core, done);
    });
    black_box(c.elapsed());
    out.push(("epiphany.dma_ns".into(), ns));

    let mut c = chip();
    let ops = OpCounts {
        flops: 24,
        fmas: 16,
        loads: 12,
        stores: 4,
        ialu: 9,
        ..OpCounts::default()
    };
    let ns = ns_per(counts.of(10_000_000), |i| {
        c.compute((i % 16) as usize, &ops);
    });
    out.push(("epiphany.compute_ns".into(), ns));

    // The chip above has counters on every core: price its report.
    let us = ns_per(counts.of(2_000), |_| {
        black_box(c.report("probe", 16));
    }) / 1e3;
    out.push(("epiphany.report_us".into(), us));
    out
}

/// `faultsim` spec expansion, tracing overhead in `sim-harness`, and
/// the declarative autofocus network against the hand-written one.
pub fn harness(table: &Table1Paper, seed: u64, counts: Counts) -> Metrics {
    let mut out = Metrics::new();
    let us = ns_per(counts.of(20_000), |i| {
        black_box(FaultPlan::parse(FAULTS_DEMO, seed + i).is_ok());
    }) / 1e3;
    out.push(("faultsim.plan_parse_us".into(), us));

    let mapping = mapping_named("ffbp_spmd").expect("registered");
    let platform = EpiphanyPlatform::default();
    let small = Workload::named("ffbp", true).expect("registered");
    let reps = counts.reps(50);
    let plain = median_seconds(reps, || run(mapping.as_ref(), &small, &platform).is_ok());
    let traced = median_seconds(reps, || {
        run_traced(mapping.as_ref(), &small, &platform, &Tracer::enabled()).is_ok()
    });
    out.push(("sim-harness.traced_slowdown".into(), traced / plain));

    let autofocus = Workload::Autofocus(table.autofocus.clone());
    let platform = platform_named("epiphany").expect("registered");
    let time_of = |name: &str| {
        let mapping = mapping_named(name).expect("registered");
        median_seconds(reps, || {
            run(mapping.as_ref(), &autofocus, platform.as_ref()).is_ok()
        })
    };
    out.push((
        "streams.net_vs_mpmd".into(),
        time_of("autofocus_net") / time_of("autofocus_mpmd"),
    ));
    out
}

/// Program-model builds and static prices per second.
pub fn pricing(pricing: &StaticPricing, counts: Counts) -> Metrics {
    let mut out = Metrics::new();
    let platform = EpiphanyPlatform::default();
    let mut last_model = None;
    for name in ["ffbp_spmd", "rda_spmd", "autofocus_mpmd"] {
        let mapping = mapping_named(name).expect("registered");
        let workload = pricing.workload_of(mapping.as_ref());
        let secs = median_seconds(counts.reps(5), || {
            last_model = mapping.program_model(workload, &platform);
        });
        out.push((format!("sar-epiphany.model_ms.{name}"), secs * 1e3));
    }
    let model = last_model.expect("autofocus_mpmd exports a program model");
    let params = EpiphanyParams::default();
    let n = counts.of(200_000);
    let (secs, ()) = seconds(|| {
        for _ in 0..n {
            black_box(sarlint::cost::epiphany_cost(&model, &params));
        }
    });
    out.push(("sarlint.prices_per_s".into(), n as f64 / secs));
    out
}
