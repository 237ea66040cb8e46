//! Polar subaperture grids.

use crate::complex::c32;
use crate::geometry::SarGeometry;
use crate::image::ComplexImage;

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

/// One subaperture image: its centre position on the flight axis, its
/// along-track length, its angular grid, and the complex samples
/// (rows = beams, cols = range bins).
#[derive(Debug, Clone)]
pub struct Subaperture {
    /// Along-track coordinate of the subaperture centre, metres.
    pub center_y: f32,
    /// Along-track length covered, metres.
    pub length: f32,
    /// Angular sampling.
    pub grid: PolarGrid,
    /// Samples.
    pub data: ComplexImage,
}

impl Subaperture {
    /// Allocate a zeroed subaperture.
    pub fn zeros(center_y: f32, length: f32, grid: PolarGrid, num_bins: usize) -> Subaperture {
        Subaperture {
            center_y,
            length,
            grid,
            data: ComplexImage::zeros(grid.n_beams, num_bins),
        }
    }

    /// The zeroed output of merging the adjacent children `a` and `b`:
    /// centred midway between them, covering both lengths, on the
    /// refined grid.
    pub fn merged_shell(a: &Subaperture, b: &Subaperture, num_bins: usize) -> Subaperture {
        Subaperture::zeros(
            (a.center_y + b.center_y) / 2.0,
            a.length + b.length,
            a.grid.refined(),
            num_bins,
        )
    }

    /// Bytes occupied by the sample matrix (complex64 pixels).
    pub fn data_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<c32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn subaperture_size_matches_paper_two_pulse_figure() {
        // Two pulses of subaperture data = 2 x 1001 complex = 16,016
        // bytes — the number the paper prefetches into two local banks.
        let geom = SarGeometry::paper_size();
        let g = PolarGrid::spanning(&geom, 2);
        let s = Subaperture::zeros(0.0, 2.0, g, geom.num_bins);
        assert_eq!(s.data_bytes(), 16_016);
    }
}
