//! Check 3 — placement lint (`SL005`): pipeline channels must stay
//! within the neighbourhood the paper's §V-B mapping was designed
//! around. Every hop adds mesh latency and byte-hop energy, so the
//! analyzer flags any channel longer than [`HOP_BUDGET`] as a hard
//! diagnostic naming the offending hop, and any non-adjacent channel
//! (distance > 1) as a warning.

use sim_harness::{Diagnostic, ProgramModel, Report};

/// Longest acceptable producer→consumer Manhattan distance. The
/// paper's neighbour placement keeps every stage-to-stage link within
/// a column move plus the final fold into the correlator — at most 4
/// hops on the 4×4 mesh; anything longer means stages were scattered.
pub const HOP_BUDGET: u16 = 4;

/// What the lint finds on one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finding {
    /// An endpoint is off the mesh (hard).
    OffMesh,
    /// Longer than [`HOP_BUDGET`] hops (hard): stages are scattered.
    Scattered(u16),
    /// Within budget but more than one hop (warning).
    NotAdjacent(u16),
}

/// The rule, stated once: what a channel from core `from` to core `to`
/// on `model`'s mesh earns, `None` for direct neighbours.
pub fn rule(model: &ProgramModel, from: usize, to: usize) -> Option<Finding> {
    let nodes = usize::from(model.mesh.0) * usize::from(model.mesh.1);
    if from >= nodes || to >= nodes {
        return Some(Finding::OffMesh);
    }
    match model.manhattan(from, to) {
        d if d > HOP_BUDGET => Some(Finding::Scattered(d)),
        d if d > 1 => Some(Finding::NotAdjacent(d)),
        _ => None,
    }
}

/// Whether no channel of `model` earns a hard finding — [`check`]'s
/// verdict without its text.
pub fn admits(model: &ProgramModel) -> bool {
    !model.channels.iter().any(|ch| {
        matches!(
            rule(model, ch.from, ch.to),
            Some(Finding::OffMesh | Finding::Scattered(_))
        )
    })
}

/// Run the placement lint.
pub fn check(model: &ProgramModel, report: &mut Report) {
    for ch in &model.channels {
        // Spell the dimension-ordered route the eMesh will take: the
        // full x leg first, then the y leg (shared arithmetic with the
        // cost model via `emesh`).
        let route = |d: u16| {
            let (fx, fy) = model.node_xy(ch.from);
            let (tx, ty) = model.node_xy(ch.to);
            let (dx, dy) = model.xy_legs(ch.from, ch.to);
            format!(
                "core {} ({fx},{fy}) -> core {} ({tx},{ty}) is {d} hops \
                 (XY route: {dx} along x, then {dy} along y)",
                ch.from, ch.to
            )
        };
        report.push(match rule(model, ch.from, ch.to) {
            None => continue,
            Some(Finding::OffMesh) => {
                let (cols, rows) = model.mesh;
                let at = format!("{} -> {}", ch.from, ch.to);
                let message = format!("endpoint off the {cols}x{rows} mesh: {at}");
                Diagnostic::hard("SL005", ch.label.clone(), message)
            }
            Some(Finding::Scattered(d)) => {
                let message = format!(
                    "{} (> {HOP_BUDGET} hop budget): stages are scattered",
                    route(d)
                );
                Diagnostic::hard("SL005", ch.label.clone(), message)
            }
            Some(Finding::NotAdjacent(d)) => {
                let message = format!("{}: not a direct neighbour", route(d));
                Diagnostic::warning("SL005", ch.label.clone(), message)
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(m: &mut ProgramModel, from: usize, to: usize) {
        m.channel(format!("c{from}->{to}"), from, to);
    }

    #[test]
    fn neighbours_are_silent_and_short_hops_warn() {
        let mut m = ProgramModel::new(4, 4);
        chan(&mut m, 0, 1); // 1 hop
        chan(&mut m, 1, 2); // 1 hop
        chan(&mut m, 2, 13); // (2,0)->(1,3): 4 hops — budget edge
        let mut r = Report::new();
        check(&m, &mut r);
        assert!(r.is_clean());
        assert!(admits(&m));
        assert_eq!(rule(&m, 2, 13), Some(Finding::NotAdjacent(4)));
        // Exactly one warning: the 4-hop fold into the correlator.
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].severity, sim_harness::Severity::Warning);
    }

    #[test]
    fn scattered_hops_are_hard_sl005_naming_the_hop() {
        let mut m = ProgramModel::new(4, 4);
        chan(&mut m, 0, 14); // (0,0)->(2,3): 5 hops
        let mut r = Report::new();
        check(&m, &mut r);
        assert_eq!(r.hard_count(), 1);
        assert!(!admits(&m));
        let d = &r.diagnostics[0];
        assert_eq!(d.code, "SL005");
        assert!(d.message.contains("(0,0)") && d.message.contains("(2,3)"));
        assert!(d.message.contains("5 hops"));
        // The dimension-ordered legs the eMesh would route.
        assert!(
            d.message.contains("2 along x") && d.message.contains("3 along y"),
            "{}",
            d.message
        );
    }

    #[test]
    fn off_mesh_endpoints_are_hard() {
        let mut m = ProgramModel::new(2, 2);
        chan(&mut m, 0, 9);
        let mut r = Report::new();
        check(&m, &mut r);
        assert_eq!(r.hard_count(), 1);
        assert!(r.has_code("SL005"));
        assert!(!admits(&m));
        assert_eq!(rule(&m, 0, 9), Some(Finding::OffMesh));
    }
}
