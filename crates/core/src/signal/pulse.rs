//! Matched-filter pulse compression.
//!
//! Raw echoes are correlated with the transmitted chirp (in the
//! frequency domain via our FFT) to collapse each target's extended
//! return into a sharp range response — the "pulse compressed radar
//! data" the back-projection stage consumes.

use crate::complex::c32;
use crate::signal::chirp::hamming_window;
use crate::signal::fft::{fft_core, fft_inplace, next_pow2};

/// A precomputed frequency-domain matched filter for one waveform.
pub struct MatchedFilter {
    /// Frequency-domain conjugate of the windowed reference, length
    /// `fft_len` — multiplying by it performs *correlation* with the
    /// waveform, so a target at delay `d` peaks at output sample `d`.
    reference: Vec<c32>,
    /// FFT length (power of two >= signal + reference - 1).
    fft_len: usize,
    /// Length of the time-domain reference.
    ref_len: usize,
}

impl MatchedFilter {
    /// Build a matched filter for `waveform`, sized to compress signals
    /// of up to `max_signal_len` samples, with a Hamming window for
    /// sidelobe suppression.
    pub fn new(waveform: &[c32], max_signal_len: usize) -> MatchedFilter {
        assert!(!waveform.is_empty(), "waveform must be non-empty");
        let ref_len = waveform.len();
        let fft_len = next_pow2(max_signal_len + ref_len - 1);
        let win = if ref_len > 1 {
            hamming_window(ref_len)
        } else {
            vec![1.0]
        };
        let mut reference = vec![c32::ZERO; fft_len];
        for (i, (w, z)) in win.iter().zip(waveform).enumerate() {
            reference[i] = z.scale(*w);
        }
        fft_inplace(&mut reference);
        // Conjugate in frequency: Y = S * conj(W) is the cross-
        // correlation of the signal with the waveform.
        for z in &mut reference {
            *z = z.conj();
        }
        MatchedFilter {
            reference,
            fft_len,
            ref_len,
        }
    }

    /// FFT length in use.
    pub fn fft_len(&self) -> usize {
        self.fft_len
    }

    /// Compress one echo line. Output has the same length as `signal`;
    /// the filter group delay is removed so a point target at sample
    /// `i` in the (ideal) echo appears compressed at sample `i`.
    pub fn compress(&self, signal: &[c32]) -> Vec<c32> {
        let mut buf = Vec::with_capacity(self.fft_len);
        buf.extend_from_slice(signal);
        buf.resize(self.fft_len, c32::ZERO);
        self.compress_inplace(&mut buf, signal.len());
        buf.truncate(signal.len());
        buf
    }

    /// [`compress`](Self::compress) in `buf`, which holds an echo of
    /// `signal_len` samples zero-padded to [`fft_len`](Self::fft_len):
    /// its first `signal_len` samples become the compressed line. Only
    /// those are normalised; the rest of `buf` is left unscaled.
    pub fn compress_inplace(&self, buf: &mut [c32], signal_len: usize) {
        assert!(
            signal_len + self.ref_len - 1 <= self.fft_len,
            "signal longer than the filter was sized for"
        );
        assert_eq!(buf.len(), self.fft_len, "buffer is not the FFT length");
        fft_inplace(buf);
        for (b, r) in buf.iter_mut().zip(&self.reference) {
            *b *= *r;
        }
        fft_core(buf, true);
        // `ifft_inplace`'s normalisation, on the samples kept.
        let inv = 1.0 / self.fft_len as f32;
        for z in &mut buf[..signal_len] {
            *z = z.scale(inv);
        }
    }
}

/// One-shot helper: compress `signal` against `waveform`.
pub fn compress_pulse(waveform: &[c32], signal: &[c32]) -> Vec<c32> {
    MatchedFilter::new(waveform, signal.len()).compress(signal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::chirp::{lfm_chirp, ChirpParams};

    fn chirp() -> Vec<c32> {
        lfm_chirp(ChirpParams {
            samples: 64,
            fractional_bandwidth: 0.8,
        })
    }

    /// An echo with a scaled copy of the waveform at `delay`.
    fn echo(waveform: &[c32], len: usize, delay: usize, amp: f32) -> Vec<c32> {
        let mut out = vec![c32::ZERO; len];
        for (i, w) in waveform.iter().enumerate() {
            if delay + i < len {
                out[delay + i] += w.scale(amp);
            }
        }
        out
    }

    #[test]
    fn point_target_compresses_to_its_delay() {
        let w = chirp();
        let sig = echo(&w, 512, 200, 1.0);
        let out = compress_pulse(&w, &sig);
        let peak = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap()
            .0;
        assert!(
            (peak as i64 - 200).unsigned_abs() <= 2,
            "peak at {peak}, expected ~200"
        );
    }

    #[test]
    fn compression_gain_concentrates_energy() {
        let w = chirp();
        let sig = echo(&w, 512, 100, 1.0);
        let out = compress_pulse(&w, &sig);
        let peak = out.iter().map(|z| z.abs()).fold(0.0f32, f32::max);
        // Mainlobe must stand far above the average response.
        let mean: f32 = out.iter().map(|z| z.abs()).sum::<f32>() / out.len() as f32;
        assert!(peak > 8.0 * mean, "peak {peak} vs mean {mean}");
    }

    #[test]
    fn two_targets_resolve() {
        let w = chirp();
        let mut sig = echo(&w, 1024, 300, 1.0);
        let sig2 = echo(&w, 1024, 500, 0.8);
        for (a, b) in sig.iter_mut().zip(&sig2) {
            *a += *b;
        }
        let out = compress_pulse(&w, &sig);
        let near = |i: usize, c: usize| (i as i64 - c as i64).unsigned_abs() <= 3;
        let p300 = out
            .iter()
            .enumerate()
            .filter(|(i, _)| near(*i, 300))
            .map(|(_, z)| z.abs())
            .fold(0.0f32, f32::max);
        let p500 = out
            .iter()
            .enumerate()
            .filter(|(i, _)| near(*i, 500))
            .map(|(_, z)| z.abs())
            .fold(0.0f32, f32::max);
        let floor = out
            .iter()
            .enumerate()
            .filter(|(i, _)| !near(*i, 300) && !near(*i, 500))
            .map(|(_, z)| z.abs())
            .fold(0.0f32, f32::max);
        assert!(p300 > 2.0 * floor);
        assert!(p500 > 1.5 * floor);
    }

    #[test]
    fn amplitude_scales_linearly() {
        let w = chirp();
        let a = compress_pulse(&w, &echo(&w, 256, 80, 1.0));
        let b = compress_pulse(&w, &echo(&w, 256, 80, 2.0));
        let pa = a.iter().map(|z| z.abs()).fold(0.0f32, f32::max);
        let pb = b.iter().map(|z| z.abs()).fold(0.0f32, f32::max);
        assert!((pb / pa - 2.0).abs() < 0.05);
    }

    #[test]
    fn reusable_filter_matches_oneshot() {
        let w = chirp();
        let sig = echo(&w, 300, 50, 1.0);
        let mf = MatchedFilter::new(&w, 300);
        assert!(mf.fft_len() >= 300 + 64 - 1);
        let a = mf.compress(&sig);
        let b = compress_pulse(&w, &sig);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-5);
        }
    }
}
