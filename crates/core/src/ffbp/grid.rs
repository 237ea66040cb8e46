//! Polar subaperture grids, and the FFBP stage their subapertures make up.

use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use crate::complex::c32;
use crate::geometry::SarGeometry;
use crate::image::{ComplexImage, ImageRows};

/// The angular sampling of one subaperture image. Range sampling is
/// shared with the raw data (`r0 + i * dr`, `num_bins` bins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolarGrid {
    /// Number of beams.
    pub n_beams: usize,
    /// Lower edge of the angular sector, radians.
    pub theta_min: f32,
    /// Beam width, radians.
    pub d_theta: f32,
}

impl PolarGrid {
    /// Grid with `n_beams` covering the geometry's full sector.
    pub fn spanning(geom: &SarGeometry, n_beams: usize) -> PolarGrid {
        assert!(n_beams > 0, "need at least one beam");
        PolarGrid {
            n_beams,
            theta_min: geom.theta_min(),
            d_theta: (geom.theta_max() - geom.theta_min()) / n_beams as f32,
        }
    }

    /// Centre angle of beam `j`.
    pub fn beam_theta(&self, j: usize) -> f32 {
        self.theta_min + (j as f32 + 0.5) * self.d_theta
    }

    /// Fractional beam index of angle `theta` (0.0 at the centre of
    /// beam 0; may be outside `[0, n_beams)`).
    #[inline]
    pub fn beam_index(&self, theta: f32) -> f32 {
        (theta - self.theta_min) / self.d_theta - 0.5
    }

    /// Grid with twice the beams (the output grid of one merge).
    pub fn refined(&self) -> PolarGrid {
        PolarGrid {
            n_beams: self.n_beams * 2,
            theta_min: self.theta_min,
            d_theta: self.d_theta / 2.0,
        }
    }

    /// Grid with `m` times the beams (merge base `m`).
    pub fn refined_by(&self, m: usize) -> PolarGrid {
        assert!(m >= 2, "merge base must be at least 2");
        PolarGrid {
            n_beams: self.n_beams * m,
            theta_min: self.theta_min,
            d_theta: self.d_theta / m as f32,
        }
    }
}

/// One subaperture of a [`Stage`]: its centre on the flight axis, its
/// along-track length, its angular grid, and its samples — rows `rows`
/// of the stage's buffer (rows = beams, cols = range bins).
#[derive(Debug, Clone)]
pub struct Subaperture<'a> {
    /// Along-track coordinate of the subaperture centre, metres.
    pub center_y: f32,
    /// Along-track length covered, metres.
    pub length: f32,
    /// Angular sampling.
    pub grid: PolarGrid,
    /// Its beams' rows in the stage's buffer: beam `j` is the stage's
    /// global beam `rows.start + j`.
    pub rows: Range<usize>,
    /// Samples.
    pub data: ImageRows<'a>,
}

/// One FFBP stage: equally long subapertures on one angular grid, in
/// along-track order, with every subaperture's beams back to back in
/// one beam-major buffer — subaperture `s` holds rows `s * n_beams ..
/// (s + 1) * n_beams` (the global-beam order of the modelled chip's
/// external buffers). The stages merged from one another ping-pong two
/// buffers, as the chip's do: a stage, dropped, leaves its buffer to
/// the run, and [`Stage::merged`] forms the stage after next in it.
#[derive(Debug)]
pub struct Stage {
    /// The angular grid every subaperture shares.
    pub grid: PolarGrid,
    /// Along-track length of each subaperture, metres.
    pub length: f32,
    /// Along-track centre of each subaperture, metres.
    pub centers: Vec<f32>,
    /// The samples.
    pub data: ComplexImage,
    /// The run's spare buffer, shared by the stages merged from one
    /// another: filled by a stage when it is dropped, taken by
    /// [`Stage::merged`].
    spare: Arc<Mutex<Option<ComplexImage>>>,
}

impl Stage {
    /// The stage-0 subapertures of `pulses`: one per pulse, a single
    /// beam covering the whole sector, data equal to that pulse's
    /// compressed range line.
    pub fn of_pulses(data: &ComplexImage, geom: &SarGeometry, pulses: Range<usize>) -> Stage {
        assert_eq!(
            data.rows(),
            geom.num_pulses,
            "data rows must equal pulse count"
        );
        assert_eq!(data.cols(), geom.num_bins, "data cols must equal bin count");
        let rows = data.rows_of(pulses.clone()).as_slice().to_vec();
        Stage {
            grid: PolarGrid::spanning(geom, 1),
            length: geom.pulse_spacing,
            data: ComplexImage::from_vec(pulses.len(), geom.num_bins, rows),
            centers: pulses.map(|k| geom.platform_y(k)).collect(),
            spare: Arc::default(),
        }
    }

    /// The stage that merging every `base` adjacent subapertures of
    /// `centers` (each `length` long, on `grid`) forms in `data`: each
    /// output centred at its children's mean, covering their lengths,
    /// on the grid refined `base` times. It leaves its buffer in
    /// `spare` when dropped.
    pub(crate) fn merging(
        grid: PolarGrid,
        length: f32,
        centers: &[f32],
        base: usize,
        data: ComplexImage,
        spare: Arc<Mutex<Option<ComplexImage>>>,
    ) -> Stage {
        assert!(
            centers.len().is_multiple_of(base),
            "stage of {} subapertures not divisible by base {base}",
            centers.len()
        );
        let grid = grid.refined_by(base);
        assert_eq!(data.rows(), centers.len() / base * grid.n_beams);
        Stage {
            grid,
            length: std::iter::repeat_n(length, base).sum(),
            centers: centers
                .chunks(base)
                .map(|group| merged_center(group.iter().copied()))
                .collect(),
            data,
            spare,
        }
    }

    /// The stage merging every `base` adjacent subapertures of this one
    /// forms, its samples not yet written: in the run's spare buffer
    /// (the stage before this one's, once dropped), in a fresh one if
    /// there is none. Every row must be written before it is read.
    pub fn merged(&self, base: usize) -> Stage {
        let spare = lock(&self.spare).take();
        let data = spare.unwrap_or_else(|| ComplexImage::zeros(self.data.rows(), self.data.cols()));
        let spare = Arc::clone(&self.spare);
        Stage::merging(self.grid, self.length, &self.centers, base, data, spare)
    }

    /// The samples, the stage given up: the image, for the last stage.
    pub fn into_data(mut self) -> ComplexImage {
        std::mem::take(&mut self.data)
    }

    /// Number of subapertures.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Whether the stage has no subaperture.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Subaperture `s`.
    pub fn sub(&self, s: usize) -> Subaperture<'_> {
        let n = self.grid.n_beams;
        let rows = s * n..(s + 1) * n;
        Subaperture {
            center_y: self.centers[s],
            length: self.length,
            grid: self.grid,
            data: self.data.rows_of(rows.clone()),
            rows,
        }
    }

    /// Every subaperture, in order.
    pub fn subs(&self) -> impl Iterator<Item = Subaperture<'_>> {
        (0..self.len()).map(|s| self.sub(s))
    }

    /// Subaperture `s`'s samples, its beams back to back, to modify in
    /// place.
    pub fn beams_mut(&mut self, s: usize) -> &mut [c32] {
        let n = self.grid.n_beams * self.data.cols();
        &mut self.data.as_mut_slice()[s * n..(s + 1) * n]
    }
}

impl Drop for Stage {
    /// Leave the buffer to the run, unless it holds one already.
    fn drop(&mut self) {
        let mut spare = lock(&self.spare);
        if spare.is_none() {
            *spare = Some(std::mem::take(&mut self.data));
        }
    }
}

/// Lock the run's spare buffer, which a panic cannot leave half-made.
fn lock(spare: &Mutex<Option<ComplexImage>>) -> std::sync::MutexGuard<'_, Option<ComplexImage>> {
    spare.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The centre of merging subapertures centred at `centers`: their mean.
pub(crate) fn merged_center(centers: impl ExactSizeIterator<Item = f32>) -> f32 {
    let n = centers.len();
    centers.sum::<f32>() / n as f32
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A copy of `sub` as a stage of its own.
    pub(crate) fn alone(sub: &Subaperture<'_>) -> Stage {
        let samples = sub.data.as_slice().to_vec();
        let cols = samples.len() / sub.rows.len();
        let data = ComplexImage::from_vec(sub.rows.len(), cols, samples);
        Stage {
            grid: sub.grid,
            length: sub.length,
            centers: vec![sub.center_y],
            data,
            spare: Arc::default(),
        }
    }

    #[test]
    fn spanning_grid_covers_sector() {
        let geom = SarGeometry::test_size();
        let g = PolarGrid::spanning(&geom, 8);
        assert_eq!(g.n_beams, 8);
        assert!((g.theta_min - geom.theta_min()).abs() < 1e-6);
        let top = g.theta_min + g.n_beams as f32 * g.d_theta;
        assert!((top - geom.theta_max()).abs() < 1e-5);
    }

    #[test]
    fn beam_index_inverts_beam_theta() {
        let geom = SarGeometry::test_size();
        let g = PolarGrid::spanning(&geom, 16);
        for j in 0..16 {
            let f = g.beam_index(g.beam_theta(j));
            assert!((f - j as f32).abs() < 1e-3, "beam {j} -> {f}");
        }
    }

    #[test]
    fn refinement_halves_beams() {
        let geom = SarGeometry::test_size();
        let g = PolarGrid::spanning(&geom, 4);
        let r = g.refined();
        assert_eq!(r.n_beams, 8);
        assert!((r.d_theta - g.d_theta / 2.0).abs() < 1e-9);
        assert_eq!(r.theta_min, g.theta_min);
        let r4 = g.refined_by(4);
        assert_eq!(r4.n_beams, 16);
    }

    #[test]
    fn a_stage_holds_its_subapertures_beams_back_to_back() {
        let geom = SarGeometry::test_size();
        let data = crate::scene::simulate_compressed_data(
            &crate::scene::Scene::single_target(geom),
            0.0,
            0,
        );
        let stage = Stage::of_pulses(&data, &geom, 0..geom.num_pulses);
        assert_eq!(stage.data.as_slice(), data.as_slice());
        let next = stage.merged(4);
        assert_eq!((next.len(), next.grid.n_beams), (geom.num_pulses / 4, 4));
        assert_eq!(next.data.rows(), geom.num_pulses);
        let sub = next.sub(3);
        assert_eq!(sub.rows, 12..16);
        assert_eq!(sub.data.as_slice(), next.data.rows_of(12..16).as_slice());
        let mean = stage.centers[12..16].iter().sum::<f32>() / 4.0;
        assert_eq!(sub.center_y.to_bits(), mean.to_bits());
        assert_eq!(sub.length, 4.0 * geom.pulse_spacing);
    }
}
