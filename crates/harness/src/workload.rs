//! Workload definitions shared by every mapping × platform pair, plus
//! the registry the unified runner resolves `--workload` names against.

use sar_core::autofocus::{AutofocusConfig, Block6};
use sar_core::ffbp::FfbpConfig;
use sar_core::geometry::SarGeometry;
use sar_core::image::ComplexImage;
use sar_core::rda::RdaConfig;
use sar_core::scene::{simulate_compressed_data, simulate_raw_echoes, Scene};
use sar_core::signal::ChirpParams;

/// The FFBP workload: pulse-compressed data plus algorithm settings.
#[derive(Clone)]
pub struct FfbpWorkload {
    /// Collection geometry.
    pub geom: SarGeometry,
    /// Pulse-compressed input (rows = pulses).
    pub data: ComplexImage,
    /// Algorithm configuration (the paper: NN interpolation, base 2).
    pub config: FfbpConfig,
}

impl FfbpWorkload {
    /// The six-target scene collected over `geom` (noise-free, seed 7),
    /// merge base 2, nearest-neighbour interpolation.
    pub fn of(geom: SarGeometry) -> FfbpWorkload {
        FfbpWorkload {
            geom,
            data: simulate_compressed_data(&Scene::six_targets(geom), 0.0, 7),
            config: FfbpConfig::default(),
        }
    }

    /// The paper's workload: 1024 pulses x 1001 bins.
    pub fn paper() -> FfbpWorkload {
        FfbpWorkload::of(SarGeometry::paper_size())
    }

    /// A small workload for tests (64 pulses x 129 bins).
    pub fn small() -> FfbpWorkload {
        FfbpWorkload::of(SarGeometry::test_size())
    }

    /// Pixels in the output image.
    pub fn pixels(&self) -> u64 {
        self.geom.num_pulses as u64 * self.geom.num_bins as u64
    }
}

/// The RDA workload: raw (uncompressed) echoes plus algorithm
/// settings. Rows of `raw` are pulses; each row carries `num_bins +
/// chirp.samples` fast-time samples.
#[derive(Clone)]
pub struct RdaWorkload {
    /// Collection geometry.
    pub geom: SarGeometry,
    /// Raw echo matrix (rows = pulses).
    pub raw: ComplexImage,
    /// Algorithm configuration (chirp, RCMC on/off).
    pub config: RdaConfig,
}

impl RdaWorkload {
    /// The six-target scene collected over `geom` as raw echoes of a
    /// `chirp_samples`-sample chirp (fractional bandwidth 0.9), RCMC on.
    pub fn of(geom: SarGeometry, chirp_samples: usize) -> RdaWorkload {
        let config = RdaConfig {
            chirp: ChirpParams {
                samples: chirp_samples,
                fractional_bandwidth: 0.9,
            },
            rcmc: true,
        };
        RdaWorkload {
            geom,
            raw: simulate_raw_echoes(&Scene::six_targets(geom), config.chirp),
            config,
        }
    }

    /// The paper-scale workload: the same six-target scene FFBP images,
    /// but as raw echoes (1024 pulses x 1129 fast-time samples).
    pub fn paper() -> RdaWorkload {
        RdaWorkload::of(SarGeometry::paper_size(), 128)
    }

    /// A small workload for tests (64 pulses x 193 fast-time samples).
    pub fn small() -> RdaWorkload {
        RdaWorkload::of(SarGeometry::test_size(), 64)
    }

    /// Pixels in the output image.
    pub fn pixels(&self) -> u64 {
        self.geom.num_pulses as u64 * self.geom.num_bins as u64
    }
}

/// The autofocus workload: two 6x6 blocks and the hypothesis sweep the
/// criterion is evaluated over.
#[derive(Clone)]
pub struct AutofocusWorkload {
    /// Block from the trailing contributing image.
    pub f_minus: Block6,
    /// Block from the leading contributing image.
    pub f_plus: Block6,
    /// Criterion parameters.
    pub config: AutofocusConfig,
    /// Number of candidate compensations tested per merge.
    pub hypotheses: usize,
    /// Largest tested shift (pixels).
    pub max_shift: f32,
    /// The path error baked into the block pair (for validation).
    pub true_shift: f32,
}

impl AutofocusWorkload {
    /// The paper-scale workload: a smooth target pair displaced by a
    /// known sub-pixel path error, 24 candidate compensations.
    pub fn paper() -> AutofocusWorkload {
        let truth = 0.4;
        AutofocusWorkload {
            f_minus: Block6::gaussian_blob(0.0, truth / 2.0),
            f_plus: Block6::gaussian_blob(0.0, -truth / 2.0),
            config: AutofocusConfig::default(),
            hypotheses: 24,
            max_shift: 1.0,
            true_shift: truth,
        }
    }

    /// A reduced sweep for tests.
    pub fn small() -> AutofocusWorkload {
        AutofocusWorkload {
            hypotheses: 5,
            ..AutofocusWorkload::paper()
        }
    }

    /// The tested compensation for hypothesis `h` of `self.hypotheses`:
    /// an even grid over `[-max_shift, max_shift]`. A one-point grid
    /// tests no compensation at all (shift 0).
    pub fn shift(&self, h: usize) -> f32 {
        if self.hypotheses == 1 {
            return 0.0;
        }
        -self.max_shift + 2.0 * self.max_shift * h as f32 / (self.hypotheses - 1) as f32
    }

    /// Pixels the criterion is computed on (the Table I throughput
    /// denominator: one 6x6 block pair = 36 output pixels).
    pub fn pixels(&self) -> u64 {
        36
    }
}

/// A kernel input a mapping can be handed: the sum over the two paper
/// kernels. Mappings match on the variant for their kernel and reject
/// the other via [`crate::HarnessError::KernelMismatch`].
// Both payloads are heavyweight and the enum only crosses APIs by
// reference, so boxing the large variant would add indirection for no
// saved copies.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum Workload {
    /// Image formation input (back-projection family).
    Ffbp(FfbpWorkload),
    /// Image formation input (range–Doppler family).
    Rda(RdaWorkload),
    /// Autofocus criterion input.
    Autofocus(AutofocusWorkload),
}

impl Workload {
    /// Kernel identity, as stamped into records.
    pub fn kernel(&self) -> &'static str {
        match self {
            Workload::Ffbp(_) => "ffbp",
            Workload::Rda(_) => "rda",
            Workload::Autofocus(_) => "autofocus",
        }
    }

    /// The FFBP input, if that is the variant.
    pub fn ffbp(&self) -> Option<&FfbpWorkload> {
        match self {
            Workload::Ffbp(w) => Some(w),
            _ => None,
        }
    }

    /// The RDA input, if that is the variant.
    pub fn rda(&self) -> Option<&RdaWorkload> {
        match self {
            Workload::Rda(w) => Some(w),
            _ => None,
        }
    }

    /// The autofocus input, if that is the variant.
    pub fn autofocus(&self) -> Option<&AutofocusWorkload> {
        match self {
            Workload::Autofocus(w) => Some(w),
            _ => None,
        }
    }

    /// Output pixels (the throughput denominator).
    pub fn pixels(&self) -> u64 {
        match self {
            Workload::Ffbp(w) => w.pixels(),
            Workload::Rda(w) => w.pixels(),
            Workload::Autofocus(w) => w.pixels(),
        }
    }

    /// Resolve a `--workload` name at either scale. Names are the
    /// kernel identities: `"ffbp"`, `"rda"` and `"autofocus"`.
    pub fn named(kernel: &str, small: bool) -> Option<Workload> {
        match (kernel, small) {
            ("ffbp", true) => Some(Workload::Ffbp(FfbpWorkload::small())),
            ("ffbp", false) => Some(Workload::Ffbp(FfbpWorkload::paper())),
            ("rda", true) => Some(Workload::Rda(RdaWorkload::small())),
            ("rda", false) => Some(Workload::Rda(RdaWorkload::paper())),
            ("autofocus", true) => Some(Workload::Autofocus(AutofocusWorkload::small())),
            ("autofocus", false) => Some(Workload::Autofocus(AutofocusWorkload::paper())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ffbp_matches_table_dimensions() {
        let w = FfbpWorkload::paper();
        assert_eq!(w.data.rows(), 1024);
        assert_eq!(w.data.cols(), 1001);
        assert_eq!(w.pixels(), 1024 * 1001);
    }

    #[test]
    fn autofocus_workload_is_consistent() {
        let w = AutofocusWorkload::paper();
        assert_eq!(w.pixels(), 36);
        assert!(w.hypotheses >= 2);
        assert!(w.true_shift.abs() <= w.max_shift);
        assert!(w.f_minus.energy() > 0.0);
        assert_eq!(w.shift(0), -w.max_shift);
        assert_eq!(w.shift(w.hypotheses - 1), w.max_shift);
        let one_point = AutofocusWorkload { hypotheses: 1, ..w };
        assert_eq!(one_point.shift(0), 0.0);
    }

    #[test]
    fn small_rda_raw_matrix_has_chirp_padding() {
        let w = RdaWorkload::small();
        assert_eq!(w.raw.rows(), w.geom.num_pulses);
        assert_eq!(w.raw.cols(), w.geom.num_bins + w.config.chirp.samples);
        assert!(w.raw.energy() > 0.0);
    }

    #[test]
    fn registry_resolves_every_kernel() {
        let w = Workload::named("ffbp", true).expect("ffbp resolves");
        assert_eq!(w.kernel(), "ffbp");
        assert!(w.ffbp().is_some() && w.autofocus().is_none() && w.rda().is_none());
        let w = Workload::named("rda", true).expect("rda resolves");
        assert_eq!(w.kernel(), "rda");
        assert!(w.rda().is_some() && w.ffbp().is_none());
        let w = Workload::named("autofocus", false).expect("autofocus resolves");
        assert_eq!(w.kernel(), "autofocus");
        assert!(w.autofocus().is_some());
        assert!(Workload::named("sift", true).is_none());
    }
}
