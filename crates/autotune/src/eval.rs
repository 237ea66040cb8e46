//! The objective: price a candidate placement through the static cost
//! model without executing the simulation.
//!
//! An [`Evaluator`] holds one Mapping × Platform pair's
//! placement-independent [`PipelineProbe`] (the expensive part — it
//! runs the per-stage instruction probes once) and one model of it,
//! which it rewires onto each candidate ([`PipelineProbe::rewire`]:
//! core ids only) and prices with [`sarlint::cost::cost_model`].
//! Legality is the rule of the `SL005` placement lint the analyzer
//! runs ([`sarlint::placement::admits`]), so the autotuner and
//! `sarlint` can never disagree about which placements are admissible
//! — both sides share the `emesh` hop arithmetic.

use std::cell::RefCell;

use sar_epiphany::pipeline::PipelineProbe;
use sarlint::cost::{cost_model, CostReport};
use sim_harness::{platform_named, Placement, Platform, ProgramModel, Workload};

/// What the search minimises, all scored on bound midpoints (the
/// interval's best single-number estimate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Makespan cycles.
    Makespan,
    /// Total energy, joules.
    Energy,
    /// Mesh wire energy only, joules — the component placement moves
    /// most directly (the pipeline is compute-bound, so makespan is
    /// nearly placement-flat while byte×hop energy is not).
    MeshEnergy,
}

impl Objective {
    /// Parse a `--objective` operand.
    pub fn parse(name: &str) -> Option<Objective> {
        match name {
            "makespan" => Some(Objective::Makespan),
            "energy" => Some(Objective::Energy),
            "mesh" => Some(Objective::MeshEnergy),
            _ => None,
        }
    }

    /// The operand spelling.
    pub fn label(self) -> &'static str {
        match self {
            Objective::Makespan => "makespan",
            Objective::Energy => "energy",
            Objective::MeshEnergy => "mesh",
        }
    }

    /// The scalar the search minimises.
    pub fn score(self, cost: &CostReport) -> f64 {
        match self {
            Objective::Makespan => cost.cycles.mid(),
            Objective::Energy => cost.total_j.mid(),
            Objective::MeshEnergy => cost.mesh_j.mid(),
        }
    }
}

/// Prices candidate placements for one registered pair.
pub struct Evaluator {
    mapping: &'static str,
    platform: Box<dyn Platform>,
    probe: PipelineProbe,
    mesh: (u16, u16),
    /// The probe's model on the last candidate priced.
    model: RefCell<ProgramModel>,
}

impl Evaluator {
    /// Build the evaluator for a `mapping:platform` pair. Only the two
    /// placement-aware autofocus mappings on an Epiphany-kind platform
    /// are tunable; anything else is an error string for the CLI to
    /// wrap.
    pub fn for_pair(pair: &str, small: bool) -> Result<Evaluator, String> {
        let (mapping, platform_name) = pair
            .split_once(':')
            .ok_or("expected MAPPING:PLATFORM, e.g. autofocus_mpmd:epiphany")?;
        let w = Workload::named("autofocus", small).expect("autofocus workload is registered");
        let w = w.autofocus().expect("named autofocus resolves").clone();
        let (mapping, probe) = match mapping {
            "autofocus_mpmd" => ("autofocus_mpmd", PipelineProbe::mpmd(&w)),
            "autofocus_net" => ("autofocus_net", PipelineProbe::net(&w)),
            other => {
                return Err(format!(
                    "mapping '{other}' is not placement-aware; expected autofocus_mpmd or autofocus_net"
                ))
            }
        };
        let platform = platform_named(platform_name)
            .ok_or_else(|| format!("unknown platform '{platform_name}'"))?;
        let mesh = platform
            .epiphany_params()
            .map(|p| (p.mesh_cols, p.mesh_rows))
            .ok_or_else(|| {
                format!("platform '{platform_name}' has no mesh; placement search needs one")
            })?;
        let model = RefCell::new(probe.model(&Placement::neighbor(), mesh));
        Ok(Evaluator {
            mapping,
            platform,
            probe,
            mesh,
            model,
        })
    }

    /// The tunable mapping's registry name.
    pub fn mapping(&self) -> &'static str {
        self.mapping
    }

    /// The platform's registry label.
    pub fn platform_label(&self) -> String {
        self.platform.label().to_string()
    }

    /// The platform mesh the placements live on.
    pub fn mesh(&self) -> (u16, u16) {
        self.mesh
    }

    /// Price `place`, or `None` when it is illegal: off the mesh, or
    /// carrying a channel past the `SL005` hop budget. Using the lint
    /// as the legality oracle keeps search results simulatable — the
    /// `run --analyze` gate applies the identical check. Nothing is
    /// allocated but the report: the one model is rewired in place.
    pub fn evaluate(&self, place: &Placement) -> Option<CostReport> {
        if !place.fits(self.mesh.0, self.mesh.1) {
            return None;
        }
        let mut model = self.model.borrow_mut();
        self.probe.rewire(&mut model, place);
        sarlint::placement::admits(&model).then(|| cost_model(&model, self.platform.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_parsing_rejects_untunable_pairs() {
        assert!(Evaluator::for_pair("autofocus_mpmd:epiphany", true).is_ok());
        assert!(Evaluator::for_pair("autofocus_net:epiphany", true).is_ok());
        assert!(Evaluator::for_pair("autofocus_mpmd:e64", true).is_ok());
        assert!(Evaluator::for_pair("nonsense", true).is_err());
        assert!(Evaluator::for_pair("ffbp_spmd:epiphany", true).is_err());
        assert!(Evaluator::for_pair("autofocus_mpmd:refcpu", true).is_err());
        assert!(Evaluator::for_pair("autofocus_mpmd:bogus", true).is_err());
    }

    #[test]
    fn neighbor_prices_and_scattered_fails_the_hop_budget() {
        let e = Evaluator::for_pair("autofocus_mpmd:epiphany", true).unwrap();
        let neighbor = e
            .evaluate(&Placement::neighbor())
            .expect("neighbor is legal");
        assert!(neighbor.bounded);
        assert!(neighbor.mesh_j.mid() > 0.0);
        // The scattered ablation drags channels past the SL005 hop
        // budget, so the legality oracle excludes it — exactly like
        // the `run --analyze` gate would.
        assert!(e.evaluate(&Placement::scattered()).is_none());
    }

    #[test]
    fn off_mesh_and_over_budget_placements_are_illegal() {
        let e = Evaluator::for_pair("autofocus_mpmd:epiphany", true).unwrap();
        let mut off = Placement::neighbor();
        off.corr = 16; // y=4: off the 4x4 mesh
        assert!(e.evaluate(&off).is_none());
    }
}
