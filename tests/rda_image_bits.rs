//! The RDA image, pinned to the bit.
//!
//! Every other RDA gate compares a machine's image with
//! `sar_core::rda::rda`, which the same FFT forms, and the golden
//! `.jsonl` files pin records, not pixels — so a host-side kernel edit
//! that moved a pixel on every machine at once would pass them all.
//! These constants are the FNV-1a 64 hash over `re.to_bits()`,
//! `im.to_bits()` of `rda()`'s image in row-major order, recorded at
//! the commit before the FFT plan table and the migration table landed
//! (PR 21; the paper-scale RCMC-off one later, see its test), and an edit that only changes *how fast* the host forms the
//! image must leave them equal.
//!
//! A deliberate bit-changing FFT edit (ROADMAP item 3 allows one, with
//! the reference-DFT error bound in `signal::fft`'s tests no worse)
//! regenerates them: run with `-- --nocapture` and copy the printed
//! hashes.

use sar_repro::sar_core::image::ComplexImage;
use sar_repro::sar_core::rda::{rda, RdaConfig};
use sar_repro::sim_harness::RdaWorkload;

fn image_hash(image: &ComplexImage) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for z in image.as_slice() {
        for byte in
            z.re.to_bits()
                .to_le_bytes()
                .into_iter()
                .chain(z.im.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check(name: &str, w: &RdaWorkload, rcmc: bool, expect: u64) {
    let config = RdaConfig { rcmc, ..w.config };
    let got = image_hash(&rda(&w.raw, &w.geom, &config).image);
    println!("{name}: {got:#018x}");
    assert_eq!(
        got, expect,
        "{name}: the RDA image moved ({got:#018x}, pinned {expect:#018x})"
    );
}

#[test]
fn small_image_bits_are_pinned_with_and_without_rcmc() {
    let w = RdaWorkload::small();
    check("small, RCMC on", &w, true, 0xb35e_f9ec_c5e3_e837);
    check("small, RCMC off", &w, false, 0x92fb_77ae_e6e7_3f3a);
}

#[test]
fn paper_image_bits_are_pinned() {
    check("paper", &RdaWorkload::paper(), true, 0xb7fa_67ba_e935_3a66);
}

/// Recorded at the commit before `rda()` spread its stages over the
/// host's threads (the three above are older).
#[test]
fn paper_image_bits_are_pinned_without_rcmc() {
    check(
        "paper, RCMC off",
        &RdaWorkload::paper(),
        false,
        0x74e6_179a_44ea_f8bd,
    );
}
