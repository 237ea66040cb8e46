//! In-place radix-2 decimation-in-time FFT.
//!
//! Written in-house (the workspace has no FFT dependency): iterative
//! Cooley–Tukey with a bit-reversal permutation and per-stage twiddles
//! from a recurrence. Everything that depends on the length alone --
//! the permutation's swap list and every stage's twiddles -- is
//! planned once per length ([`Plan`]) and looked up by every later
//! call, so a butterfly is `t = b·w; a + t; a − t` over contiguous
//! slices with nothing carried from one butterfly to the next.
//!
//! The recurrence that fills the table is carried in f64 and rounded
//! to f32 once per step: an f32 recurrence drifts by ~len·ε over a
//! stage, which at the n ≥ 4096 lengths the RDA azimuth pass uses is
//! no longer a harmless ~1e-5. It restarts at (1, 0) per stage, so a
//! table entry is bit for bit the twiddle a transform advancing the
//! recurrence inside its butterfly loop would see there -- the test
//! module keeps that per-call form as the oracle, and RDA image bits
//! are pinned on it (`tests/rda_image_bits.rs`).
//!
//! A length holds two twiddle tables, one per direction. The inverse
//! table is *not* the conjugate of the forward one: both recurrences
//! start at `+0.0` in the imaginary part, a conjugate would start at
//! `−0.0`, and a signed zero in a twiddle moves signed zeros in the
//! output.

use std::f64::consts::PI as PI64;
use std::sync::OnceLock;

use crate::complex::c32;

/// Smallest power of two >= `n` (and >= 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// What a transform of one length needs besides the data.
struct Plan {
    /// The bit-reversal permutation as its `(i, j)`, `i < j`
    /// transpositions (disjoint, so their order is immaterial).
    swaps: Vec<(u32, u32)>,
    /// Forward (`e^{-iθ}`) twiddles of every stage: the `len/2`
    /// twiddles of stage `len` sit at `[len/2 − 1, len − 1)`.
    forward: Vec<c32>,
    /// Inverse (`e^{+iθ}`) twiddles, same layout.
    inverse: Vec<c32>,
}

impl Plan {
    fn new(n: usize) -> Plan {
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 0..n {
            if i < j {
                swaps.push((i as u32, j as u32));
            }
            let mut m = n >> 1;
            while m >= 1 && j & m != 0 {
                j ^= m;
                m >>= 1;
            }
            j |= m;
        }
        Plan {
            swaps,
            forward: twiddles(n, -1.0),
            inverse: twiddles(n, 1.0),
        }
    }
}

/// Every stage's twiddles for a length-`n` transform in the direction
/// `sign` (−1 forward, +1 inverse), in [`Plan`]'s layout.
fn twiddles(n: usize, sign: f64) -> Vec<c32> {
    let mut table = Vec::with_capacity(n - 1);
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI64 / len as f64;
        let (wlen_im, wlen_re) = ang.sin_cos();
        // The recurrence lives in f64; each butterfly sees the current
        // twiddle rounded to f32 once.
        let (mut wr, mut wi) = (1.0f64, 0.0f64);
        for _ in 0..len / 2 {
            table.push(c32::new(wr as f32, wi as f32));
            (wr, wi) = (wr * wlen_re - wi * wlen_im, wr * wlen_im + wi * wlen_re);
        }
        len <<= 1;
    }
    table
}

/// The plan for length `n` (a power of two >= 2), computed by the
/// first caller to need it. One write-once slot per `log2 n`: a plan is
/// a pure function of its index, so threads racing for a slot compute
/// identical bytes and it does not matter whose are kept.
fn plan(n: usize) -> &'static Plan {
    // 32 slots: every index of a planned length fits `Plan::swaps`' u32.
    static PLANS: [OnceLock<Plan>; 32] = [const { OnceLock::new() }; 32];
    PLANS
        .get(n.trailing_zeros() as usize)
        .expect("FFT length beyond the plan table (2^31)")
        .get_or_init(|| Plan::new(n))
}

/// The transform of `data` in place, forward or inverse, without the
/// inverse's `1/N` normalisation.
pub(super) fn fft_core(data: &mut [c32], inverse: bool) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    let plan = plan(n);
    for &(i, j) in &plan.swaps {
        data.swap(i as usize, j as usize);
    }
    let table = if inverse {
        &plan.inverse
    } else {
        &plan.forward
    };
    let mut half = 1;
    while half < n {
        let stage = &table[half - 1..2 * half - 1];
        for block in data.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            // The first stage's multiply by (1, 0) stays: it turns a
            // `−0` into the `+0` the subtraction `(−0) − (−0)` gives.
            for ((a, b), w) in lo.iter_mut().zip(hi).zip(stage) {
                let t = *b * *w;
                (*a, *b) = (*a + t, *a - t);
            }
        }
        half <<= 1;
    }
}

/// Forward FFT in place. Length must be a power of two.
pub fn fft_inplace(data: &mut [c32]) {
    fft_core(data, false);
}

/// Inverse FFT in place (including the `1/N` normalisation). `N` is a
/// power of two, so `1/N` is exact and `x·(1/N)` rounds the same real
/// number `x/N` does: a multiply, bit for bit the division.
pub fn ifft_inplace(data: &mut [c32]) {
    fft_core(data, true);
    let inv = 1.0 / data.len() as f32;
    for z in data.iter_mut() {
        *z = z.scale(inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::rng::SmallRng;
    use std::f32::consts::PI;
    use std::sync::Barrier;

    fn assert_close(a: &[c32], b: &[c32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "{x} vs {y}");
        }
    }

    /// O(n^2) reference DFT.
    fn dft(input: &[c32]) -> Vec<c32> {
        let n = input.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| input[t] * c32::cis(-2.0 * PI * (k * t) as f32 / n as f32))
                    .sum()
            })
            .collect()
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![c32::ZERO; 8];
        x[0] = c32::ONE;
        fft_inplace(&mut x);
        for z in &x {
            assert!((*z - c32::ONE).abs() < 1e-6);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let mut x: Vec<c32> = (0..n)
            .map(|t| c32::cis(2.0 * PI * (k0 * t) as f32 / n as f32))
            .collect();
        fft_inplace(&mut x);
        for (k, z) in x.iter().enumerate() {
            if k == k0 {
                assert!((z.abs() - n as f32).abs() < 1e-3);
            } else {
                assert!(z.abs() < 1e-3, "leak at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_reference_dft() {
        let n = 32;
        let x: Vec<c32> = (0..n)
            .map(|i| c32::new((i as f32 * 0.7).sin(), (i as f32 * 1.3).cos()))
            .collect();
        let expect = dft(&x);
        let mut got = x.clone();
        fft_inplace(&mut got);
        assert_close(&got, &expect, 1e-3);
    }

    /// O(n^2) reference DFT in f64 with modular phase reduction, so
    /// the reference itself stays accurate at n = 4096 (the f32
    /// helper above loses phase precision once k·t grows large).
    fn dft64(input: &[c32]) -> Vec<(f64, f64)> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = (0.0f64, 0.0f64);
                for (t, z) in input.iter().enumerate() {
                    let ang = -2.0 * PI64 * ((k * t) % n) as f64 / n as f64;
                    let (s, c) = ang.sin_cos();
                    let (re, im) = (f64::from(z.re), f64::from(z.im));
                    acc.0 += re * c - im * s;
                    acc.1 += re * s + im * c;
                }
                acc
            })
            .collect()
    }

    /// The twiddle-drift regression (RDA azimuth FFTs run at n >= 4096):
    /// the longest recurrence chain must stay near f32 round-off. The
    /// pre-fix f32 recurrence misses this bound by over an order of
    /// magnitude.
    #[test]
    fn long_fft_matches_reference_dft_at_n4096() {
        let n = 4096;
        let x: Vec<c32> = (0..n)
            .map(|i| {
                let t = i as f32;
                c32::new(
                    (t * 0.137).sin() + 0.25 * (t * 0.011).cos(),
                    (t * 0.093).cos(),
                )
            })
            .collect();
        let expect = dft64(&x);
        let mut got = x;
        fft_inplace(&mut got);
        let scale: f64 = expect
            .iter()
            .map(|&(re, im)| re.hypot(im))
            .fold(0.0, f64::max);
        let worst: f64 = got
            .iter()
            .zip(&expect)
            .map(|(g, &(re, im))| (f64::from(g.re) - re).hypot(f64::from(g.im) - im))
            .fold(0.0, f64::max);
        let rel = worst / scale;
        assert!(
            rel < 2e-6,
            "n=4096 FFT drifted to {rel:.3e} relative error vs the reference DFT"
        );
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 256;
        let x: Vec<c32> = (0..n)
            .map(|i| c32::new((i as f32).sin(), (i as f32 * 0.1).cos()))
            .collect();
        let mut y = x.clone();
        fft_inplace(&mut y);
        ifft_inplace(&mut y);
        assert_close(&y, &x, 1e-4);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let x: Vec<c32> = (0..n)
            .map(|i| c32::new(i as f32 % 7.0 - 3.0, 0.5))
            .collect();
        let time_energy: f32 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x;
        fft_inplace(&mut y);
        let freq_energy: f32 = y.iter().map(|z| z.norm_sqr()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-5);
    }

    #[test]
    fn linearity() {
        let n = 16;
        let a: Vec<c32> = (0..n).map(|i| c32::new(i as f32, 0.0)).collect();
        let b: Vec<c32> = (0..n)
            .map(|i| c32::new(0.0, (i * i) as f32 % 5.0))
            .collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft_inplace(&mut fa);
        fft_inplace(&mut fb);
        let mut fab: Vec<c32> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft_inplace(&mut fab);
        let sum: Vec<c32> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert_close(&fab, &sum, 1e-3);
    }

    /// The per-call implementation this module had before the plan
    /// table (PR 21), kept verbatim as the bit-identity oracle: the
    /// in-place bit-reversal walk, then per stage and per block an f64
    /// twiddle recurrence restarted at (1, 0), rounded to f32 once per
    /// butterfly.
    fn reference_fft(data: &mut [c32], inverse: bool) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        let mut j = 0usize;
        for i in 0..n {
            if i < j {
                data.swap(i, j);
            }
            let mut m = n >> 1;
            while m >= 1 && j & m != 0 {
                j ^= m;
                m >>= 1;
            }
            j |= m;
        }
        let sign: f64 = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * PI64 / len as f64;
            let (wlen_im, wlen_re) = ang.sin_cos();
            for start in (0..n).step_by(len) {
                let (mut wr, mut wi) = (1.0f64, 0.0f64);
                for k in 0..len / 2 {
                    let w = c32::new(wr as f32, wi as f32);
                    let a = data[start + k];
                    let b = data[start + k + len / 2] * w;
                    data[start + k] = a + b;
                    data[start + k + len / 2] = a - b;
                    (wr, wi) = (wr * wlen_re - wi * wlen_im, wr * wlen_im + wi * wlen_re);
                }
            }
            len <<= 1;
        }
        if inverse {
            let n = n as f32;
            for z in data.iter_mut() {
                *z = *z / n;
            }
        }
    }

    fn bits(z: &c32) -> (u32, u32) {
        (z.re.to_bits(), z.im.to_bits())
    }

    /// Both directions of `input` through the oracle and through the
    /// public entries, compared bit for bit.
    fn assert_bits_match_the_oracle(input: &[c32], what: &str) {
        for inverse in [false, true] {
            let mut expect = input.to_vec();
            reference_fft(&mut expect, inverse);
            assert!(
                expect.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
                "{what}: the oracle left the finite range (NaN order is not in the contract)"
            );
            let mut got = input.to_vec();
            if inverse {
                ifft_inplace(&mut got);
            } else {
                fft_inplace(&mut got);
            }
            for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    bits(g) == bits(e),
                    "{what}, inverse {inverse}, n {}, element {i}: {g:?} vs oracle {e:?}",
                    input.len()
                );
            }
        }
    }

    /// The values whose handling a reordered butterfly would change:
    /// signed zeros (`(-0) - (-0)` is `+0`), subnormals and magnitudes
    /// near 1e30 (the largest whose 16384-term sums stay finite).
    fn awkward(rng: &mut SmallRng) -> f32 {
        let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        sign * match rng.gen_index(0..5) {
            0 => 0.0,
            1 => f32::from_bits(1 + rng.gen_index(0..0x7f_ffff) as u32),
            2 => 1e30 * rng.gen_range(0.5..1.0),
            3 => f32::MIN_POSITIVE,
            _ => rng.gen_range(0.0..1.0),
        }
    }

    #[test]
    fn every_length_matches_the_per_call_recurrence_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0x00ff_7b17);
        for log2 in 0..=14 {
            let n = 1usize << log2;
            let uniform: Vec<c32> = (0..n)
                .map(|_| c32::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            assert_bits_match_the_oracle(&uniform, "uniform");
            let mixed: Vec<c32> = (0..n)
                .map(|_| c32::new(awkward(&mut rng), awkward(&mut rng)))
                .collect();
            assert_bits_match_the_oracle(&mixed, "awkward values");
            assert_bits_match_the_oracle(&vec![c32::new(0.0, 0.0); n], "+0 row");
            assert_bits_match_the_oracle(&vec![c32::new(-0.0, -0.0); n], "-0 row");
            // A sparse row: mostly signed zeros, so zero-sign handling
            // decides most output bits.
            let sparse: Vec<c32> = (0..n)
                .map(|i| match i % 7 {
                    0 => c32::new(awkward(&mut rng), -0.0),
                    3 => c32::new(-0.0, 0.0),
                    _ => c32::new(0.0, -0.0),
                })
                .collect();
            assert_bits_match_the_oracle(&sparse, "sparse row");
        }
    }

    /// Two threads released together make the first call for a length
    /// no other test touches: whichever fills the plan slot, both see
    /// the oracle's bits.
    #[test]
    fn racing_first_calls_for_one_length_both_get_the_oracle_bits() {
        let n = 1usize << 15;
        let mut rng = SmallRng::seed_from_u64(21);
        let input: Vec<c32> = (0..n)
            .map(|_| c32::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut expect = input.clone();
        reference_fft(&mut expect, false);
        let gate = Barrier::new(2);
        let outputs = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut x = input.clone();
                        gate.wait();
                        fft_inplace(&mut x);
                        x
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racer panicked"))
                .collect::<Vec<_>>()
        });
        for got in outputs {
            assert!(got.iter().map(bits).eq(expect.iter().map(bits)));
        }
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(next_pow2(1025), 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_length_rejected() {
        let mut x = vec![c32::ZERO; 12];
        fft_inplace(&mut x);
    }
}
