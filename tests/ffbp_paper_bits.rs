//! The paper-scale FFBP image, pinned to the bit.
//!
//! `crates/core/tests/golden/ffbp_pins.txt` pins every FFBP entry point
//! at small scale (64 pulses, six merges); the paper's run is 1 024 ×
//! 1 001 over ten merges, whose stage buffers are the ones the host
//! program reuses. The constant below is the FNV-1a 64 hash over
//! `re.to_bits()`, `im.to_bits()` of `sar_core::ffbp::ffbp`'s image
//! (nearest neighbour, phase correction on, merge base 2) in row-major
//! order, recorded at the commit before FFBP stages became one buffer
//! each. The one-machine walk every FFBP machine run goes through
//! (`ffbp_seq` on the Epiphany, resolved through the registry) must
//! form the same bits. A deliberate bit-changing edit regenerates the
//! hash: run with `-- --nocapture` and copy the printed value.

use sar_repro::desim::Json;
use sar_repro::sar_core::ffbp::{ffbp, FfbpConfig, InterpKind};
use sar_repro::sar_core::image::ComplexImage;
use sar_repro::sar_epiphany::configured;
use sar_repro::sim_harness::{run, FfbpWorkload, Workload};

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

const PAPER_IMAGE: u64 = 0x9f3a_450f_fff1_cb95;

#[test]
fn paper_image_bits_are_pinned_and_the_machine_walk_forms_them() {
    let w = FfbpWorkload::paper();
    let cfg = FfbpConfig {
        interp: InterpKind::Nearest,
        merge_base: 2,
        phase_correct: true,
    };
    assert_eq!((w.config.interp, w.config.merge_base), (cfg.interp, 2));
    assert!(w.config.phase_correct);
    let plain = ffbp(&w.data, &w.geom, &cfg);
    assert_eq!(plain.iterations, 10);
    let got = image_hash(&plain.image);
    println!("paper ffbp: {got:#018x}");
    assert_eq!(
        got, PAPER_IMAGE,
        "the paper-scale FFBP image moved ({got:#018x}, pinned {PAPER_IMAGE:#018x})"
    );

    let pair = configured("ffbp_seq", "epiphany", &Json::obj()).expect("a registered pair");
    let walked = run(
        pair.mapping.as_ref(),
        &Workload::Ffbp(w),
        pair.platform.as_ref(),
    )
    .expect("ffbp_seq runs on the epiphany")
    .image
    .expect("an FFBP run forms an image");
    assert!(
        walked.as_slice() == plain.image.as_slice(),
        "the machine walk formed other bits than ffbp()"
    );
}
