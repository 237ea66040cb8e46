//! Program loading model.
//!
//! Epiphany programs are "built independently and then loaded onto the
//! chip using a common loader" (paper §III): the host pushes each
//! core's executable image through the eLink into that core's local
//! store, then releases it from reset. For SPMD one image is
//! replicated to every core; MPMD ships a distinct image per core —
//! the loader cost model makes the difference visible (it is part of
//! the turnaround-time argument in the programmability discussion).

use desim::Cycle;

use crate::chip::{Chip, CoreId};
use memsim::GlobalAddr;

/// One per-core executable image.
#[derive(Debug, Clone)]
pub struct ProgramImage {
    /// Name (diagnostics).
    pub name: String,
    /// Code + initialised data size, bytes. Must fit the local store
    /// alongside the data banks (the paper keeps code in the lower two
    /// banks).
    pub bytes: u64,
}

impl ProgramImage {
    /// A named image of `bytes` bytes.
    pub fn new(name: &str, bytes: u64) -> ProgramImage {
        ProgramImage {
            name: name.to_string(),
            bytes,
        }
    }
}

/// Result of loading a set of programs.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Cycle at which every core is loaded and released.
    pub done: Cycle,
    /// Total bytes shipped through the eLink.
    pub bytes: u64,
    /// Number of cores loaded.
    pub cores: usize,
}

/// Load `programs` onto the chip: `programs[i]` goes to core
/// `targets[i]`. Loading streams each image from the host through the
/// eLink and across the mesh into the core's local store; cores are
/// released when their own image has landed (the returned report's
/// `done` is the last release — the earliest time the application can
/// start).
///
/// # Panics
/// If lengths mismatch or an image exceeds half the local store
/// (code must coexist with data banks).
pub fn load_programs(chip: &mut Chip, targets: &[CoreId], programs: &[ProgramImage]) -> LoadReport {
    assert_eq!(targets.len(), programs.len(), "one image per target core");
    let store_half = chip.params().sram.bank_bytes as u64 * 2;
    let mut done = Cycle::ZERO;
    let mut bytes = 0u64;
    for (&core, img) in targets.iter().zip(programs) {
        assert!(
            img.bytes <= store_half,
            "image '{}' of {} B exceeds the {} B code region",
            img.name,
            img.bytes,
            store_half
        );
        let finished = chip.host_load(core, GlobalAddr::external(0), img.bytes);
        // Gate the format!: names must not allocate on the disabled path.
        if chip.tracer().is_enabled() {
            chip.tracer().instant(
                desim::trace::Track::Host,
                format!("loaded {} -> core {core}", img.name),
                finished,
            );
        }
        done = done.max(finished);
        bytes += img.bytes;
    }
    LoadReport {
        done,
        bytes,
        cores: targets.len(),
    }
}

/// SPMD convenience: replicate one image to every listed core.
pub fn load_spmd(chip: &mut Chip, cores: &[CoreId], image: &ProgramImage) -> LoadReport {
    let programs = vec![image.clone(); cores.len()];
    load_programs(chip, cores, &programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EpiphanyParams;

    #[test]
    fn spmd_load_replicates_one_image() {
        // (image KB, bytes shipped, cycle the last core is released).
        // The 14 KB image is the SPMD FFBP of EXPERIMENTS.md A8: 32.3 us
        // at 1 GHz.
        for (kb, bytes, done) in [(12, 196_608, 27_666), (14, 229_376, 32_274)] {
            let mut chip = Chip::e16g3(EpiphanyParams::default());
            let cores: Vec<usize> = (0..16).collect();
            let img = ProgramImage::new("ffbp_spmd", kb * 1024);
            let r = load_spmd(&mut chip, &cores, &img);
            assert_eq!(r.cores, 16);
            assert_eq!(r.bytes, bytes);
            // Through an 8 B/cycle eLink: at least bytes / 8 cycles.
            assert!(r.done.raw() >= bytes / 8, "load too fast: {:?}", r.done);
            assert_eq!(r.done, Cycle(done), "{kb} KB");
        }
    }

    #[test]
    fn mpmd_load_ships_distinct_images() {
        let image = |name: &str, kb: u64| ProgramImage::new(name, kb * 1024);
        // The 13 images are the MPMD autofocus of EXPERIMENTS.md A8: six
        // range and six beam interpolators and the correlator, 15.4 us
        // at 1 GHz.
        let autofocus: Vec<ProgramImage> = (0..13)
            .map(|i| match i {
                0..=5 => image(&format!("range{i}"), 9),
                6..=11 => image(&format!("beam{i}"), 8),
                _ => image(&format!("corr{i}"), 6),
            })
            .collect();
        let three = vec![image("range", 6), image("beam", 7), image("corr", 4)];
        for (programs, bytes, done) in [(three, 17 * 1024, 3_591), (autofocus, 110_592, 15_378)] {
            let mut chip = Chip::e16g3(EpiphanyParams::default());
            let targets: Vec<usize> = (0..programs.len()).collect();
            let r = load_programs(&mut chip, &targets, &programs);
            assert_eq!(r.bytes, bytes);
            assert_eq!(r.done, Cycle(done), "{} images", programs.len());
        }
    }

    #[test]
    fn loading_more_cores_takes_longer() {
        let img = ProgramImage::new("k", 8 * 1024);
        let few = {
            let mut chip = Chip::e16g3(EpiphanyParams::default());
            load_spmd(&mut chip, &[0, 1], &img).done
        };
        let many = {
            let mut chip = Chip::e16g3(EpiphanyParams::default());
            let cores: Vec<usize> = (0..16).collect();
            load_spmd(&mut chip, &cores, &img).done
        };
        assert!(many > few, "eLink serialises the images: {few} vs {many}");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_image_rejected() {
        let mut chip = Chip::e16g3(EpiphanyParams::default());
        let img = ProgramImage::new("fat", 20 * 1024);
        let _ = load_spmd(&mut chip, &[0], &img);
    }
}
