//! Randomised property tests on the core data structures and numerical
//! invariants. Inputs are drawn from the in-repo deterministic PRNG
//! (`desim::rng::SmallRng`) — fixed seeds, many cases per property —
//! so failures reproduce exactly.

use sar_repro::desim::rng::SmallRng;
use sar_repro::desim::{Cycle, FifoResource, OpCounts};
use sar_repro::emesh::{route_xy, Coord, Mesh2D};
use sar_repro::memsim::Cache;
use sar_repro::sar_core::complex::c32;
use sar_repro::sar_core::ffbp::interp::neville4;
use sar_repro::sar_core::geometry::merge_geometry;
use sar_repro::sar_core::signal::{fft_inplace, ifft_inplace};

const CASES: usize = 64;

#[test]
fn fft_ifft_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x0f7f);
    for _ in 0..CASES {
        let original: Vec<c32> = (0..64)
            .map(|_| c32::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
            .collect();
        let mut buf = original.clone();
        fft_inplace(&mut buf);
        ifft_inplace(&mut buf);
        let peak = original.iter().map(|z| z.abs()).fold(1.0f32, f32::max);
        for (a, b) in buf.iter().zip(&original) {
            assert!((*a - *b).abs() < 1e-3 * peak, "{a} vs {b}");
        }
    }
}

#[test]
fn fft_preserves_energy() {
    let mut rng = SmallRng::seed_from_u64(0x0ffe);
    for _ in 0..CASES {
        let mut buf: Vec<c32> = (0..128)
            .map(|_| c32::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
            .collect();
        let time: f64 = buf.iter().map(|z| z.norm_sqr() as f64).sum();
        fft_inplace(&mut buf);
        let freq: f64 = buf.iter().map(|z| z.norm_sqr() as f64).sum::<f64>() / 128.0;
        assert!((time - freq).abs() <= 1e-3 * time.max(1.0));
    }
}

#[test]
fn neville_reproduces_cubics() {
    let mut rng = SmallRng::seed_from_u64(0x4e11);
    for _ in 0..CASES {
        let (c3, c2, c1, c0) = (
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
        );
        let t = rng.gen_range(-0.5..1.5);
        let f = |x: f32| c3 * x * x * x + c2 * x * x + c1 * x + c0;
        let p = [-1.0f32, 0.0, 1.0, 2.0].map(|x| c32::new(f(x), 0.0));
        let mut counts = OpCounts::default();
        let v = neville4(p, t, &mut counts);
        assert!((v.re - f(t)).abs() < 1e-3, "{} vs {}", v.re, f(t));
        assert!(v.im.abs() < 1e-4);
    }
}

#[test]
fn merge_geometry_matches_cartesian_truth() {
    let mut rng = SmallRng::seed_from_u64(0x9e03);
    for _ in 0..CASES {
        let r = rng.gen_range(200.0..5000.0);
        let dtheta = rng.gen_range(-0.3..0.3);
        let l = rng.gen_range(0.5..256.0);
        let theta = std::f32::consts::FRAC_PI_2 + dtheta;
        let mut counts = OpCounts::default();
        let g = merge_geometry(r, theta, l, &mut counts);
        let (x, y) = (r * theta.sin(), r * theta.cos());
        let r1 = (x * x + (y + l / 2.0) * (y + l / 2.0)).sqrt();
        let r2 = (x * x + (y - l / 2.0) * (y - l / 2.0)).sqrt();
        assert!((g.r1 - r1).abs() < 0.05 + 1e-4 * r, "r1 {} vs {}", g.r1, r1);
        assert!((g.r2 - r2).abs() < 0.05 + 1e-4 * r, "r2 {} vs {}", g.r2, r2);
        // Triangle inequality: a child can never be farther than r + l/2.
        assert!(g.r1 <= r + l / 2.0 + 0.05);
        assert!(g.r2 <= r + l / 2.0 + 0.05);
    }
}

#[test]
fn fifo_resource_never_overlaps_capacity() {
    // Whatever the request pattern (including out-of-order timestamps),
    // total busy time must equal the sum of holds, and every reservation
    // must start at or after its request.
    let mut rng = SmallRng::seed_from_u64(0xf1f0);
    for _ in 0..CASES {
        let n = rng.gen_index(1..100);
        let requests: Vec<(u64, u64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_index(0..10_000) as u64,
                    rng.gen_index(1..500) as u64,
                )
            })
            .collect();
        let mut res = FifoResource::per_units(1, 8);
        let mut total_hold = Cycle::ZERO;
        for &(at, units) in &requests {
            let r = res.request(Cycle(at), units);
            assert!(r.start >= Cycle(at));
            assert!(r.end > r.start);
            total_hold += r.hold();
        }
        assert_eq!(res.busy_cycles(), total_hold);
        assert_eq!(res.served(), requests.len() as u64);
    }
}

#[test]
fn xy_routes_are_minimal_and_connected() {
    let mesh = Mesh2D::e16g3();
    for sx in 0..4u16 {
        for sy in 0..4u16 {
            for dx in 0..4u16 {
                for dy in 0..4u16 {
                    let (src, dst) = (Coord { x: sx, y: sy }, Coord { x: dx, y: dy });
                    let hops = route_xy(&mesh, src, dst);
                    assert_eq!(hops.len() as u32, src.manhattan(dst));
                    // The route must stay inside the mesh.
                    for h in &hops {
                        assert!(mesh.contains(h.from));
                    }
                }
            }
        }
    }
}

#[test]
fn cache_hit_rate_is_one_for_resident_sets() {
    // Any working set that fits the cache hits 100% after warmup.
    for lines in 1..64usize {
        let mut cache = Cache::new(32 * 1024, 64, 8);
        for i in 0..lines as u64 {
            cache.access(i * 64, false);
        }
        let miss_before = cache.misses();
        for _ in 0..3 {
            for i in 0..lines as u64 {
                cache.access(i * 64, false);
            }
        }
        assert_eq!(cache.misses(), miss_before, "resident set must not miss");
    }
}

#[test]
fn opcounts_algebra() {
    let mut rng = SmallRng::seed_from_u64(0x0bc5);
    for _ in 0..CASES {
        let a = rng.gen_index(0..1000) as u64;
        let b = rng.gen_index(0..1000) as u64;
        let k = rng.gen_index(1..16) as u64;
        let unit = OpCounts {
            flops: a,
            fmas: b,
            ..OpCounts::default()
        };
        let mut acc = OpCounts::default();
        for _ in 0..k {
            acc.add(&unit);
        }
        assert_eq!(acc, unit.scaled(k));
        assert_eq!(acc.since(&unit), unit.scaled(k - 1));
        assert_eq!(acc.flop_work(), k * (a + 2 * b));
    }
}

#[test]
fn stream_pipelines_deliver_every_token_in_order() {
    // A linear actor pipeline of arbitrary depth must deliver every
    // fed token, in order, each incremented `depth` times, on a
    // deterministic schedule.
    use sar_repro::streams::{Actor, FireCtx, Network};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Inc;
    impl Actor<u64> for Inc {
        fn fire(&mut self, inputs: Vec<u64>, ctx: &mut FireCtx<'_, u64>) {
            ctx.charge(&OpCounts {
                ialu: 1,
                ..OpCounts::default()
            });
            ctx.send(0, inputs[0] + 1, 8);
        }
    }
    struct Probe(Rc<RefCell<Vec<u64>>>);
    impl Actor<u64> for Probe {
        fn fire(&mut self, inputs: Vec<u64>, _ctx: &mut FireCtx<'_, u64>) {
            self.0.borrow_mut().push(inputs[0]);
        }
    }

    let mut rng = SmallRng::seed_from_u64(0x57ae);
    for _ in 0..16 {
        let n = rng.gen_index(1..40);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_index(0..1000) as u64).collect();
        let depth = rng.gen_index(1..5);

        let run = || {
            let chip =
                sar_repro::epiphany::Chip::e16g3(sar_repro::epiphany::EpiphanyParams::default());
            let out = Rc::new(RefCell::new(Vec::new()));
            let mut net: Network<u64> = Network::new(chip);
            let first = net.add_actor("stage0", 0, Box::new(Inc));
            let mut prev = first;
            for d in 1..depth {
                let next = net.add_actor(&format!("stage{d}"), d % 16, Box::new(Inc));
                net.connect(prev, next);
                prev = next;
            }
            let sink = net.add_actor("sink", 15, Box::new(Probe(out.clone())));
            net.connect(prev, sink);
            for &v in &values {
                net.feed(first, v);
            }
            net.run();
            let elapsed = net.chip().elapsed();
            let collected = out.borrow().clone();
            drop(net); // the network holds an Rc into `out`
            (collected, elapsed)
        };
        let (got, t1) = run();
        let want: Vec<u64> = values.iter().map(|v| v + depth as u64).collect();
        assert_eq!(got, want);
        // Determinism: an identical network produces identical timing.
        let (_, t2) = run();
        assert_eq!(t1, t2);
    }
}

#[test]
fn complex_field_axioms() {
    let mut rng = SmallRng::seed_from_u64(0xc32a);
    for _ in 0..256 {
        let a = c32::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3));
        let b = c32::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3));
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!(((a + b) - (b + a)).abs() < 1e-3 * scale);
        assert!(((a * b) - (b * a)).abs() < 1e-2 * scale * scale);
        // |ab| = |a||b| within float tolerance.
        assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-2 * scale * scale);
    }
}
