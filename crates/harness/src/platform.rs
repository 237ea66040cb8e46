//! The machine side of the harness: every machine model the repo can
//! price a kernel on, behind one object-safe trait.

use epiphany::EpiphanyParams;
use refcpu::RefCpuParams;

/// Datasheet power of one i7-M620 core, watts (the paper's figure).
pub const INTEL_POWER_W: f64 = 17.5;
/// Datasheet power of the Epiphany E16G3 chip, watts.
pub const EPIPHANY_POWER_W: f64 = 2.0;

/// The machine families a mapping can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// The Epiphany chip model ([`epiphany::Chip`]).
    Epiphany,
    /// The reference uniprocessor model ([`refcpu::RefCpu`]).
    RefCpu,
    /// The host machine itself (wall-clock measured threads).
    Host,
}

/// One machine a kernel can run on. Object-safe: the harness moves
/// `&dyn Platform` around; mappings downcast via the `*_params`
/// accessors for the family they support. `Sync` like
/// [`Mapping`](crate::Mapping).
pub trait Platform: Sync {
    /// Which machine family this is.
    fn kind(&self) -> PlatformKind;
    /// Identity stamped into [`desim::RunRecord::platform`].
    fn label(&self) -> &'static str;
    /// Datasheet power attributed to the configuration, watts (the
    /// energy fallback when no activity model exists; 0 when unknown).
    fn datasheet_power_w(&self) -> f64;
    /// Chip parameters, when this is an Epiphany platform.
    fn epiphany_params(&self) -> Option<EpiphanyParams> {
        None
    }
    /// CPU parameters, when this is a reference-CPU platform.
    fn refcpu_params(&self) -> Option<RefCpuParams> {
        None
    }
    /// Worker threads, when this is a host platform.
    fn host_threads(&self) -> Option<usize> {
        None
    }
}

/// The Epiphany chip model. The default is the paper's 16-core E16G3;
/// [`EpiphanyPlatform::e64`] is the 64-core family member on an 8x8
/// mesh with the same per-core constants.
#[derive(Debug, Clone, Copy)]
pub struct EpiphanyPlatform {
    /// Microarchitecture constants for the run (including the mesh
    /// geometry — see `EpiphanyParams::mesh_cols`/`mesh_rows`).
    pub params: EpiphanyParams,
    /// Registry label ("epiphany" for the default E16G3, "e64" for
    /// the 64-core chip).
    pub label: &'static str,
}

impl Default for EpiphanyPlatform {
    fn default() -> EpiphanyPlatform {
        EpiphanyPlatform {
            params: EpiphanyParams::default(),
            label: "epiphany",
        }
    }
}

impl EpiphanyPlatform {
    /// The 64-core chip: 8x8 mesh, chip-level static power scaled with
    /// die area, identical per-core constants.
    pub fn e64() -> EpiphanyPlatform {
        EpiphanyPlatform {
            params: EpiphanyParams::e64(),
            label: "e64",
        }
    }
}

impl Platform for EpiphanyPlatform {
    fn kind(&self) -> PlatformKind {
        PlatformKind::Epiphany
    }

    fn label(&self) -> &'static str {
        self.label
    }

    fn datasheet_power_w(&self) -> f64 {
        // The 2 W datasheet figure is for the 16-core chip; larger
        // family members scale with core count (the E64's 65 nm
        // datasheet point is ~4x the E16G3's).
        EPIPHANY_POWER_W * self.params.cores() as f64 / EpiphanyParams::REFERENCE_CORES as f64
    }

    fn epiphany_params(&self) -> Option<EpiphanyParams> {
        Some(self.params)
    }
}

/// The reference-CPU model (one i7 core).
#[derive(Debug, Clone, Copy, Default)]
pub struct RefCpuPlatform {
    /// Pipeline and memory-hierarchy constants for the run.
    pub params: RefCpuParams,
}

impl Platform for RefCpuPlatform {
    fn kind(&self) -> PlatformKind {
        PlatformKind::RefCpu
    }

    fn label(&self) -> &'static str {
        "refcpu"
    }

    fn datasheet_power_w(&self) -> f64 {
        self.params.power_w
    }

    fn refcpu_params(&self) -> Option<RefCpuParams> {
        Some(self.params)
    }
}

/// The host machine: kernels run natively on `threads` std threads and
/// are wall-clock timed. No power model — records fall back to 0 J.
#[derive(Debug, Clone, Copy)]
pub struct HostPlatform {
    /// Worker threads to use.
    pub threads: usize,
}

impl Default for HostPlatform {
    fn default() -> HostPlatform {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        HostPlatform { threads }
    }
}

impl Platform for HostPlatform {
    fn kind(&self) -> PlatformKind {
        PlatformKind::Host
    }

    fn label(&self) -> &'static str {
        "host"
    }

    fn datasheet_power_w(&self) -> f64 {
        0.0
    }

    fn host_threads(&self) -> Option<usize> {
        Some(self.threads)
    }
}

/// Look a platform up by its record label (the `--platform` flag of the
/// unified runner).
pub fn platform_named(name: &str) -> Option<Box<dyn Platform>> {
    match name {
        // "e16" is an alias for the default 16-core chip; the record
        // label stays "epiphany" for continuity with existing results.
        "epiphany" | "e16" => Some(Box::new(EpiphanyPlatform::default())),
        "e64" => Some(Box::new(EpiphanyPlatform::e64())),
        "refcpu" => Some(Box::new(RefCpuPlatform::default())),
        "host" => Some(Box::new(HostPlatform::default())),
        _ => None,
    }
}

/// Every platform, for exhaustive cross-machine sweeps.
pub fn all_platforms() -> Vec<Box<dyn Platform>> {
    vec![
        Box::new(EpiphanyPlatform::default()),
        Box::new(EpiphanyPlatform::e64()),
        Box::new(RefCpuPlatform::default()),
        Box::new(HostPlatform::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_the_registry() {
        for p in all_platforms() {
            let named = platform_named(p.label()).expect("label must resolve");
            assert_eq!(named.kind(), p.kind());
        }
        assert!(platform_named("vax").is_none());
    }

    #[test]
    fn param_accessors_match_kinds() {
        assert!(EpiphanyPlatform::default().epiphany_params().is_some());
        assert!(EpiphanyPlatform::default().refcpu_params().is_none());
        assert!(RefCpuPlatform::default().refcpu_params().is_some());
        assert!(HostPlatform::default().host_threads().unwrap_or(0) >= 1);
    }

    #[test]
    fn datasheet_power_follows_the_paper() {
        assert_eq!(
            EpiphanyPlatform::default().datasheet_power_w(),
            EPIPHANY_POWER_W
        );
        assert_eq!(RefCpuPlatform::default().datasheet_power_w(), INTEL_POWER_W);
    }

    #[test]
    fn e64_registers_with_scaled_geometry_and_power() {
        let p = platform_named("e64").expect("e64 must resolve");
        assert_eq!(p.kind(), PlatformKind::Epiphany);
        assert_eq!(p.label(), "e64");
        let params = p.epiphany_params().expect("epiphany family");
        assert_eq!((params.mesh_cols, params.mesh_rows), (8, 8));
        assert_eq!(p.datasheet_power_w(), 4.0 * EPIPHANY_POWER_W);
        // "e16" aliases the default chip without forking the label.
        let e16 = platform_named("e16").expect("e16 alias");
        assert_eq!(e16.label(), "epiphany");
        assert_eq!(e16.epiphany_params().map(|p| p.cores()), Some(16));
    }
}
