//! Complex images (pulse/beam-major storage) and export helpers.

use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;

use crate::complex::c32;

/// A dense complex image stored row-major. In raw radar data a row is a
/// pulse (slow time) and a column is a range bin (fast time); in a
/// formed image a row is a beam/azimuth line. The default is the empty
/// image, a placeholder for one moved out.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComplexImage {
    rows: usize,
    cols: usize,
    data: Vec<c32>,
}

impl ComplexImage {
    /// Zero-filled image.
    pub fn zeros(rows: usize, cols: usize) -> ComplexImage {
        assert!(rows > 0 && cols > 0, "image dimensions must be positive");
        ComplexImage {
            rows,
            cols,
            data: vec![c32::ZERO; rows * cols],
        }
    }

    /// Wrap existing data (length must be `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<c32>) -> ComplexImage {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        ComplexImage { rows, cols, data }
    }

    /// The same buffer as a `rows × cols` image (`rows * cols` must be
    /// [`len`](Self::len)), for a caller that overwrites every pixel:
    /// a matrix reused under another shape costs no allocation.
    pub fn reshaped(self, rows: usize, cols: usize) -> ComplexImage {
        ComplexImage::from_vec(rows, cols, self.data)
    }

    /// Number of rows (pulses / beams).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (range bins).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total pixels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the image has zero pixels (only the default one has).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pixel accessor.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> c32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Mutable pixel accessor.
    #[inline]
    pub fn at_mut(&mut self, row: usize, col: usize) -> &mut c32 {
        debug_assert!(row < self.rows && col < self.cols);
        &mut self.data[row * self.cols + col]
    }

    /// Bounds-checked read returning zero outside the image
    /// ([`ImageRows::at_or_zero`]).
    #[inline]
    pub fn at_or_zero(&self, row: isize, col: isize) -> c32 {
        self.whole().at_or_zero(row, col)
    }

    /// Rows `rows` as an image of their own, borrowed.
    #[inline]
    pub fn rows_of(&self, rows: Range<usize>) -> ImageRows<'_> {
        ImageRows {
            rows: rows.len(),
            cols: self.cols,
            data: &self.data[rows.start * self.cols..rows.end * self.cols],
        }
    }

    /// A full row as a slice.
    pub fn row(&self, row: usize) -> &[c32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// A full row as a mutable slice.
    pub fn row_mut(&mut self, row: usize) -> &mut [c32] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Flat view of all pixels.
    pub fn as_slice(&self) -> &[c32] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [c32] {
        &mut self.data
    }

    /// Peak magnitude and its `(row, col)` ([`ImageRows::peak`]).
    pub fn peak(&self) -> (f32, usize, usize) {
        self.whole().peak()
    }

    /// Every row, borrowed.
    #[inline]
    fn whole(&self) -> ImageRows<'_> {
        ImageRows {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// Sum of squared magnitudes (total image energy).
    pub fn energy(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr() as f64).sum()
    }

    /// Magnitude image in decibels relative to the peak, clamped to
    /// `floor_db` (e.g. -60.0).
    pub fn to_db(&self, floor_db: f32) -> Vec<f32> {
        let (peak, _, _) = self.peak();
        let p = peak.max(f32::MIN_POSITIVE);
        self.data
            .iter()
            .map(|z| (20.0 * (z.abs() / p).log10()).max(floor_db))
            .collect()
    }

    /// Write an 8-bit PGM of the dB-scaled magnitude (white = peak).
    pub fn write_pgm(&self, path: &Path, floor_db: f32) -> io::Result<()> {
        let db = self.to_db(floor_db);
        let mut out = Vec::with_capacity(self.len() + 64);
        write!(out, "P5\n{} {}\n255\n", self.cols, self.rows)?;
        for v in db {
            let t = (v - floor_db) / (-floor_db); // 0..1
            out.push((t * 255.0).round().clamp(0.0, 255.0) as u8);
        }
        std::fs::write(path, out)
    }
}

/// Whole rows of a [`ComplexImage`], borrowed: a block of a larger
/// buffer read as an image of its own.
#[derive(Debug, Clone, Copy)]
pub struct ImageRows<'a> {
    rows: usize,
    cols: usize,
    data: &'a [c32],
}

impl<'a> ImageRows<'a> {
    /// Bounds-checked read returning zero outside the rows (the
    /// paper's "skip the additions with zero when the indices are out
    /// of range" behaviour).
    #[inline]
    pub fn at_or_zero(&self, row: isize, col: isize) -> c32 {
        if row < 0 || col < 0 || row as usize >= self.rows || col as usize >= self.cols {
            c32::ZERO
        } else {
            self.data[row as usize * self.cols + col as usize]
        }
    }

    /// Flat view of all pixels.
    pub fn as_slice(&self) -> &'a [c32] {
        self.data
    }

    /// Peak magnitude and its `(row, col)`.
    pub fn peak(&self) -> (f32, usize, usize) {
        let mut best = (0.0f32, 0usize, 0usize);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let m = self.data[r * self.cols + c].norm_sqr();
                if m > best.0 {
                    best = (m, r, c);
                }
            }
        }
        (best.0.sqrt(), best.1, best.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut img = ComplexImage::zeros(4, 3);
        assert_eq!(img.rows(), 4);
        assert_eq!(img.cols(), 3);
        assert_eq!(img.len(), 12);
        *img.at_mut(2, 1) = c32::new(5.0, 0.0);
        assert_eq!(img.at(2, 1), c32::new(5.0, 0.0));
        assert_eq!(img.row(2)[1], c32::new(5.0, 0.0));
    }

    #[test]
    fn out_of_range_reads_are_zero() {
        let img = ComplexImage::zeros(2, 2);
        assert_eq!(img.at_or_zero(-1, 0), c32::ZERO);
        assert_eq!(img.at_or_zero(0, 5), c32::ZERO);
        assert_eq!(img.at_or_zero(2, 0), c32::ZERO);
    }

    #[test]
    fn peak_and_energy() {
        let mut img = ComplexImage::zeros(3, 3);
        *img.at_mut(1, 2) = c32::new(3.0, 4.0);
        *img.at_mut(0, 0) = c32::new(1.0, 0.0);
        let (p, r, c) = img.peak();
        assert_eq!((r, c), (1, 2));
        assert!((p - 5.0).abs() < 1e-6);
        assert!((img.energy() - 26.0).abs() < 1e-6);
    }

    #[test]
    fn db_scaling_peaks_at_zero() {
        let mut img = ComplexImage::zeros(1, 2);
        *img.at_mut(0, 0) = c32::new(10.0, 0.0);
        *img.at_mut(0, 1) = c32::new(1.0, 0.0);
        let db = img.to_db(-60.0);
        assert!((db[0] - 0.0).abs() < 1e-5);
        assert!((db[1] + 20.0).abs() < 1e-4);
    }

    #[test]
    fn pgm_roundtrip_header() {
        let mut img = ComplexImage::zeros(2, 3);
        *img.at_mut(0, 0) = c32::ONE;
        let dir = std::env::temp_dir().join("sar_core_test_pgm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pgm");
        img.write_pgm(&path, -40.0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P5\n3 2\n255\n"));
        assert_eq!(bytes.len(), "P5\n3 2\n255\n".len() + 6);
        // Peak pixel renders white.
        assert_eq!(bytes["P5\n3 2\n255\n".len()], 255);
    }

    #[test]
    fn from_vec_checks_length() {
        let v = vec![c32::ZERO; 6];
        let img = ComplexImage::from_vec(2, 3, v);
        assert_eq!(img.as_slice().len(), 6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_rejects_bad_length() {
        let _ = ComplexImage::from_vec(2, 3, vec![c32::ZERO; 5]);
    }
}
