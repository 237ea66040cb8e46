//! Core placement for the autofocus pipeline mappings.
//!
//! A [`Placement`] names which core runs which pipeline stage
//! ([`Placement::core`]; the stages are `sar_core`'s [`Stage::ALL`]). Ids are
//! written canonically for the 4-column E16G3 mesh (`id = y * 4 + x`);
//! [`Placement::rebased`] renumbers onto wider meshes while preserving
//! every core's `(x, y)` coordinate, so hop counts — and therefore the
//! mesh-energy profile — survive the move. The type lives in the
//! harness (not `sar-epiphany`) so the `autotune` search engine can
//! manipulate placements without depending on the drivers.
//!
//! Placements round-trip through JSON (`{"version": 1, "range": ...,
//! "beam": ..., "corr": ...}`): [`Placement::to_json`] /
//! [`Placement::parse`], and [`Placement::resolve`] turns a
//! `--placement` operand — a literal name or `@path/to/file.json` —
//! into a placement or a `CLI003`/`CLI007` diagnostic.

use desim::Json;
use emesh::{Coord, Mesh2D};
/// The stages a placement assigns, for crates that place them without
/// depending on `sar-core`.
pub use sar_core::autofocus::Stage;
use sar_core::autofocus::{BLOCKS, STAGES, WINDOWS};

use crate::diag::Diagnostic;

/// Columns of the canonical id space: placements are written row-major
/// for the 4-column E16G3 mesh and rebased onto wider meshes.
pub const CANONICAL_COLS: usize = 4;

/// Which core runs which pipeline stage. Indexing: `[block][window]`
/// with block 0 = `f-`, block 1 = `f+`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Range-interpolator cores.
    pub range: [[usize; WINDOWS]; BLOCKS],
    /// Beam-interpolator cores.
    pub beam: [[usize; WINDOWS]; BLOCKS],
    /// Correlation/summation core.
    pub corr: usize,
}

impl Placement {
    /// The paper-style neighbour mapping on the 4x4 mesh: each block's
    /// range column feeds an adjacent beam column, and both beam
    /// columns sit next to the correlator.
    pub const fn neighbor() -> Placement {
        // Node ids are row-major on the 4x4 mesh: id = y * 4 + x.
        Placement {
            range: [[0, 4, 8], [3, 7, 11]], // columns x=0 and x=3
            beam: [[1, 5, 9], [2, 6, 10]],  // columns x=1 and x=2
            corr: 13,                       // (x=1, y=3)
        }
    }

    /// A deliberately bad mapping (ablation): producers and consumers
    /// scattered to opposite corners.
    pub fn scattered() -> Placement {
        Placement {
            range: [[0, 10, 5], [15, 1, 12]],
            beam: [[14, 3, 8], [2, 13, 4]],
            corr: 7,
        }
    }

    /// Resolve a `--placement` name: `"neighbor"` or `"scattered"`.
    pub fn named(name: &str) -> Option<Placement> {
        match name {
            "neighbor" => Some(Placement::neighbor()),
            "scattered" => Some(Placement::scattered()),
            _ => None,
        }
    }

    /// Resolve a `--placement` operand: a literal name, or `@path` to
    /// load a placement JSON file. Unknown names are `CLI003`;
    /// unreadable, malformed or invalid files are `CLI007`.
    pub fn resolve(spec: &str) -> Result<Placement, Diagnostic> {
        if let Some(path) = spec.strip_prefix('@') {
            Placement::load(path).map(|(place, _)| place)
        } else {
            Placement::named(spec).ok_or_else(|| {
                Diagnostic::hard(
                    "CLI003",
                    format!("--placement {spec}"),
                    "unknown placement; expected 'neighbor', 'scattered' or '@path/to/placement.json'",
                )
            })
        }
    }

    /// The core `stage` runs on.
    pub fn core(&self, stage: Stage) -> usize {
        // One match over the stages: `core_mut`'s, on a copy.
        let mut copy = *self;
        *copy.core_mut(stage)
    }

    /// The core `stage` runs on, to move it.
    pub fn core_mut(&mut self, stage: Stage) -> &mut usize {
        match stage {
            Stage::Range { blk, win } => &mut self.range[blk][win],
            Stage::Beam { blk, win } => &mut self.beam[blk][win],
            Stage::Corr => &mut self.corr,
        }
    }

    /// The placement with every stage's core `c` replaced by `sub(c)`.
    fn map(&self, sub: impl Fn(usize) -> usize) -> Placement {
        let mut p = *self;
        for stage in Stage::ALL {
            *p.core_mut(stage) = sub(self.core(stage));
        }
        p
    }

    /// Read the placement file at `path` once: the placement and the
    /// text it was parsed from. An unreadable, malformed or invalid file
    /// is `CLI007`.
    pub fn load(path: &str) -> Result<(Placement, String), Diagnostic> {
        let subject = format!("--placement @{path}");
        let text = std::fs::read_to_string(path).map_err(|e| {
            Diagnostic::hard(
                "CLI007",
                subject.clone(),
                format!("cannot read placement file: {e}"),
            )
        })?;
        let place = Placement::parse(&text).map_err(|e| {
            Diagnostic::hard("CLI007", subject, format!("invalid placement file: {e}"))
        })?;
        Ok((place, text))
    }

    /// The placement with every occurrence of `dead` replaced by
    /// `spare` — the spare-core remap recovery move. The stage shape
    /// is untouched; only the node id changes.
    #[must_use]
    pub fn remap(&self, dead: usize, spare: usize) -> Placement {
        self.map(|c| if c == dead { spare } else { c })
    }

    /// `(x, y)` of a canonical placement id (4-column row-major).
    fn canonical_xy(c: usize) -> Coord {
        Coord {
            x: (c % CANONICAL_COLS) as u16,
            y: u16::try_from(c / CANONICAL_COLS)
                .expect("placement id fits the u16 coordinate space"),
        }
    }

    /// The placement re-expressed on a `(cols, rows)` mesh. Placement
    /// ids are canonically written row-major for the 4-column E16G3
    /// mesh; rebasing keeps every core's `(x, y)` coordinate — and
    /// therefore every producer-consumer hop count — while renumbering
    /// into the target mesh's row-major id space. Identity on a
    /// 4-column mesh.
    ///
    /// # Panics
    /// If a coordinate falls off the target mesh.
    #[must_use]
    pub fn rebased(&self, cols: u16, rows: u16) -> Placement {
        let mesh = Mesh2D::new(cols, rows);
        self.map(|c| {
            let xy = Placement::canonical_xy(c);
            assert!(
                mesh.contains(xy),
                "placement core {c} at ({},{}) falls off a {cols}x{rows} mesh",
                xy.x,
                xy.y
            );
            mesh.node(xy).raw()
        })
    }

    /// Whether every core's canonical coordinate lies on a
    /// `(cols, rows)` mesh, i.e. [`Placement::rebased`] would succeed.
    pub fn fits(&self, cols: u16, rows: u16) -> bool {
        if cols == 0 || rows == 0 {
            return false;
        }
        let mesh = Mesh2D::new(cols, rows);
        Stage::ALL
            .iter()
            .all(|&s| mesh.contains(Placement::canonical_xy(self.core(s))))
    }

    /// The distinct cores the stages run on, ascending: one per stage
    /// in a valid placement.
    pub fn cores(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(STAGES);
        self.cores_into(&mut v);
        v
    }

    /// [`cores`](Self::cores) into `v`, whose storage is reused.
    pub fn cores_into(&self, v: &mut Vec<usize>) {
        v.clear();
        v.extend(Stage::ALL.iter().map(|&s| self.core(s)));
        v.sort_unstable();
        v.dedup();
    }

    /// Serialise to the placement-file JSON shape (canonical ids).
    pub fn to_json(&self) -> Json {
        let col = |c: &[usize; WINDOWS]| Json::from(c.map(Json::from).to_vec());
        let pair = |p: &[[usize; WINDOWS]; BLOCKS]| Json::from(p.map(|c| col(&c)).to_vec());
        Json::obj()
            .with("version", 1u32)
            .with("range", pair(&self.range))
            .with("beam", pair(&self.beam))
            .with("corr", self.corr)
    }

    /// Parse the placement-file JSON shape produced by
    /// [`Placement::to_json`]. Rejects malformed documents, wrong
    /// shapes, and assignments that do not use one distinct core per
    /// stage.
    pub fn parse(text: &str) -> Result<Placement, String> {
        let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        Placement::from_json(&doc)
    }

    /// [`Placement::parse`] for an already-parsed document.
    pub fn from_json(doc: &Json) -> Result<Placement, String> {
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing integer field 'version'")?;
        if version != 1 {
            return Err(format!(
                "unsupported placement version {version} (expected 1)"
            ));
        }
        // Every id must have a canonical coordinate (`fits` and
        // `rebased` compute it): its row must fit a u16.
        let id = |v: &Json, what: &str| -> Result<usize, String> {
            let raw = v
                .as_u64()
                .ok_or_else(|| format!("{what} must be a non-negative integer"))?;
            usize::try_from(raw)
                .ok()
                .filter(|&c| c / CANONICAL_COLS <= usize::from(u16::MAX))
                .ok_or_else(|| format!("{what} is off the canonical coordinate space"))
        };
        let stage = |key: &str| -> Result<[[usize; WINDOWS]; BLOCKS], String> {
            let blocks = doc
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("missing array field '{key}'"))?;
            if blocks.len() != BLOCKS {
                return Err(format!(
                    "'{key}' must have {BLOCKS} blocks, got {}",
                    blocks.len()
                ));
            }
            let mut out = [[0usize; WINDOWS]; BLOCKS];
            for (bi, block) in blocks.iter().enumerate() {
                let cores = block
                    .as_array()
                    .ok_or_else(|| format!("'{key}[{bi}]' must be an array"))?;
                if cores.len() != WINDOWS {
                    return Err(format!(
                        "'{key}[{bi}]' must have {WINDOWS} cores, got {}",
                        cores.len()
                    ));
                }
                for (ci, core) in cores.iter().enumerate() {
                    out[bi][ci] = id(core, &format!("'{key}[{bi}][{ci}]'"))?;
                }
            }
            Ok(out)
        };
        let place = Placement {
            range: stage("range")?,
            beam: stage("beam")?,
            corr: id(doc.get("corr").unwrap_or(&Json::Null), "'corr'")?,
        };
        if place.cores().len() != STAGES {
            return Err(format!(
                "placement must use {STAGES} distinct cores, got {}",
                place.cores().len()
            ));
        }
        Ok(place)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_resolves_both_hand_placements() {
        assert_eq!(Placement::named("neighbor"), Some(Placement::neighbor()));
        assert_eq!(Placement::named("scattered"), Some(Placement::scattered()));
        assert_eq!(Placement::named("bogus"), None);
    }

    #[test]
    fn json_round_trips_the_hand_placements() {
        for p in [Placement::neighbor(), Placement::scattered()] {
            let text = p.to_json().to_string_pretty();
            assert_eq!(Placement::parse(&text), Ok(p));
        }
    }

    #[test]
    fn parse_rejects_duplicate_cores_and_bad_shapes() {
        let mut dup = Placement::neighbor();
        dup.corr = dup.range[0][0];
        let text = dup.to_json().to_string_pretty();
        assert!(Placement::parse(&text).unwrap_err().contains("13 distinct"));
        assert!(Placement::parse("not json").unwrap_err().contains("JSON"));
        assert!(Placement::parse("{\"version\": 2}")
            .unwrap_err()
            .contains("version"));
        assert!(Placement::parse(
            "{\"version\": 1, \"range\": [[0,1,2]], \"beam\": [[3,4,5],[6,7,8]], \"corr\": 9}"
        )
        .unwrap_err()
        .contains("2 blocks"));
        // Core 1000000 sits in row 250000: past the u16 coordinate space.
        assert!(Placement::parse(
            r#"{"version":1,"range":[[0,1,2],[3,4,5]],"beam":[[6,7,8],[9,10,11]],"corr":1000000}"#
        )
        .unwrap_err()
        .contains("'corr' is off the canonical coordinate space"));
    }

    #[test]
    fn stage_accessors_round_trip_every_stage() {
        for p in [Placement::neighbor(), Placement::scattered()] {
            for stage in Stage::ALL {
                let mut q = p;
                *q.core_mut(stage) = 99;
                assert_eq!(q.core(stage), 99, "{stage}");
                assert_eq!(q.cores().len(), 13, "{stage} moved alone");
                *q.core_mut(stage) = p.core(stage);
                assert_eq!(q, p, "{stage}");
            }
            // Every field entry is some stage's core.
            let mut fields: Vec<usize> = p.range.iter().chain(&p.beam).flatten().copied().collect();
            fields.push(p.corr);
            let mut by_stage: Vec<usize> = Stage::ALL.iter().map(|&s| p.core(s)).collect();
            fields.sort_unstable();
            by_stage.sort_unstable();
            assert_eq!(fields, by_stage);
        }
    }

    #[test]
    fn fits_tracks_the_canonical_coordinates() {
        assert!(Placement::neighbor().fits(4, 4));
        assert!(Placement::neighbor().fits(8, 8));
        // Core 15 sits at (3, 3): off a 4x3 mesh.
        assert!(!Placement::scattered().fits(4, 3));
    }

    #[test]
    fn resolve_distinguishes_unknown_names_from_bad_files() {
        assert_eq!(Placement::resolve("neighbor"), Ok(Placement::neighbor()));
        assert_eq!(Placement::resolve("bogus").unwrap_err().code, "CLI003");
        assert_eq!(
            Placement::resolve("@/nonexistent/placement.json")
                .unwrap_err()
                .code,
            "CLI007"
        );
    }
}
