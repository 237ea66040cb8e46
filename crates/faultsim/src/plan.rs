//! Fault schedules: the JSON spec, its parser, and the deterministic
//! expansion of seeded random groups into concrete [`FaultEvent`]s.
//!
//! A spec is a JSON document:
//!
//! ```json
//! {
//!   "version": 1,
//!   "faults": [
//!     {"kind": "flag_drop", "at": 2000},
//!     {"kind": "flag_delay", "at": 4000, "extra": 512},
//!     {"kind": "mesh_stall", "mesh": "cmesh", "at": 1000, "extra": 256},
//!     {"kind": "elink_degrade", "at": 8000, "extra": 128},
//!     {"kind": "sdram_bit_error", "at": 12000},
//!     {"kind": "core_halt", "core": 3, "at": 50000},
//!     {"kind": "flag_drop", "count": 4, "window": [0, 200000]}
//!   ]
//! }
//! ```
//!
//! An entry either pins one event to an explicit `"at"` cycle, or is a
//! *group*: `"count"` events with cycles drawn uniformly from
//! `"window": [lo, hi)`. Groups expand deterministically from the run
//! seed — each group gets its own [`SmallRng::split`] child stream in
//! entry order, so inserting a group never reshuffles the draws of the
//! groups after it beyond the one parent-stream step.

use std::fmt;

use desim::trace::MeshKind;
use desim::SmallRng;
use desim::{Cycle, Json};

/// Default extra cycles for perturbation kinds when the spec omits
/// `"extra"`.
pub const DEFAULT_EXTRA_CYCLES: u64 = 256;

/// One scheduled fault, pinned to a simulation cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The next transfer on `mesh` at or after `at` is held `extra`
    /// cycles at its destination (a congested or flaky router window).
    MeshStall {
        /// Which physical mesh stalls.
        mesh: MeshKind,
        /// Cycle the stall arms.
        at: Cycle,
        /// Extra cycles added to the transfer's arrival.
        extra: u64,
    },
    /// The next posted flag write at or after `at` is lost: the data
    /// lands but the consumer's flag never sets.
    FlagDrop {
        /// Cycle the drop arms.
        at: Cycle,
    },
    /// The next posted flag write at or after `at` arrives `extra`
    /// cycles late.
    FlagDelay {
        /// Cycle the delay arms.
        at: Cycle,
        /// Extra cycles added to the flag's delivery.
        extra: u64,
    },
    /// The next off-chip eLink operation at or after `at` runs
    /// degraded, adding `extra` cycles (link retraining window).
    ElinkDegrade {
        /// Cycle the degradation arms.
        at: Cycle,
        /// Extra cycles added to the eLink operation.
        extra: u64,
    },
    /// The next SDRAM access at or after `at` takes a transient bit
    /// error: the device re-reads the row (one extra full access
    /// latency), ECC corrects the data.
    SdramBitError {
        /// Cycle the error arms.
        at: Cycle,
    },
    /// `core` halts permanently at `at`: work it executes after that
    /// cycle is lost and the mapping must recover without it.
    CoreHalt {
        /// The halting core (row-major index).
        core: u32,
        /// Cycle of the halt.
        at: Cycle,
    },
}

impl FaultEvent {
    /// The cycle this event arms at.
    pub fn at(&self) -> Cycle {
        match *self {
            FaultEvent::MeshStall { at, .. }
            | FaultEvent::FlagDrop { at }
            | FaultEvent::FlagDelay { at, .. }
            | FaultEvent::ElinkDegrade { at, .. }
            | FaultEvent::SdramBitError { at }
            | FaultEvent::CoreHalt { at, .. } => at,
        }
    }

    /// Spec name of this event's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::MeshStall { .. } => "mesh_stall",
            FaultEvent::FlagDrop { .. } => "flag_drop",
            FaultEvent::FlagDelay { .. } => "flag_delay",
            FaultEvent::ElinkDegrade { .. } => "elink_degrade",
            FaultEvent::SdramBitError { .. } => "sdram_bit_error",
            FaultEvent::CoreHalt { .. } => "core_halt",
        }
    }
}

/// A malformed fault spec. The message names the offending entry so
/// the CLI can surface it verbatim (diagnostic `CLI005`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description of what was wrong.
    pub message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

/// Spec format version this parser accepts.
pub const FAULT_SPEC_VERSION: u64 = 1;

/// Most events one random group may expand to: the expansion allocates
/// and draws per event, so a spec from outside the program must not
/// name an unbounded count.
pub const MAX_GROUP_COUNT: u64 = 1 << 20;

/// A fully expanded, deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the random groups were expanded with.
    pub seed: u64,
    /// All scheduled events, sorted by arming cycle (stable on ties:
    /// spec order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults scheduled).
    pub fn empty(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Build a plan from explicit events (sorted by arming cycle).
    pub fn from_events(seed: u64, mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(FaultEvent::at);
        FaultPlan { seed, events }
    }

    /// Parse a JSON spec and expand its random groups with `seed`.
    /// Same text + same seed always yields the same plan.
    pub fn parse(text: &str, seed: u64) -> Result<FaultPlan, SpecError> {
        let doc = Json::parse(text)
            .map_err(|e| SpecError::new(format!("fault spec is not JSON: {e}")))?;
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| SpecError::new("fault spec is missing a numeric \"version\" field"))?;
        if version != FAULT_SPEC_VERSION {
            return Err(SpecError::new(format!(
                "fault spec version {version} is not supported (expected {FAULT_SPEC_VERSION})"
            )));
        }
        let entries = doc
            .get("faults")
            .and_then(Json::as_array)
            .ok_or_else(|| SpecError::new("fault spec is missing a \"faults\" array"))?;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            parse_entry(entry, i, &mut rng, &mut events)?;
        }
        Ok(FaultPlan::from_events(seed, events))
    }
}

/// Parse one spec entry — a pinned event or a random group — appending
/// the expanded events. `rng` is the parent stream; every group splits
/// one child from it whether or not the group is reached by a pinned
/// entry, keeping expansion order-stable.
fn parse_entry(
    entry: &Json,
    index: usize,
    rng: &mut SmallRng,
    events: &mut Vec<FaultEvent>,
) -> Result<(), SpecError> {
    let ctx = |what: &str| SpecError::new(format!("fault entry {index}: {what}"));
    let kind = entry
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ctx("missing \"kind\""))?
        .to_string();
    let extra = match entry.get("extra") {
        None => DEFAULT_EXTRA_CYCLES,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| ctx("\"extra\" must be a non-negative integer"))?,
    };
    let mesh = match entry.get("mesh").map(|m| m.as_str()) {
        None => MeshKind::CMesh,
        Some(Some("cmesh")) => MeshKind::CMesh,
        Some(Some("rmesh")) => MeshKind::RMesh,
        Some(Some("xmesh")) => MeshKind::XMesh,
        Some(_) => return Err(ctx("\"mesh\" must be \"cmesh\", \"rmesh\" or \"xmesh\"")),
    };
    let core = match entry.get("core") {
        None => None,
        Some(v) => Some(
            u32::try_from(
                v.as_u64()
                    .ok_or_else(|| ctx("\"core\" must be an integer"))?,
            )
            .map_err(|_| ctx("\"core\" is out of range"))?,
        ),
    };

    let build = |at: Cycle, core: u32| -> Result<FaultEvent, SpecError> {
        Ok(match kind.as_str() {
            "mesh_stall" => FaultEvent::MeshStall { mesh, at, extra },
            "flag_drop" => FaultEvent::FlagDrop { at },
            "flag_delay" => FaultEvent::FlagDelay { at, extra },
            "elink_degrade" => FaultEvent::ElinkDegrade { at, extra },
            "sdram_bit_error" => FaultEvent::SdramBitError { at },
            "core_halt" => FaultEvent::CoreHalt { core, at },
            other => return Err(ctx(&format!("unknown kind \"{other}\""))),
        })
    };

    match (entry.get("at"), entry.get("count")) {
        (Some(at), None) => {
            let at = Cycle(
                at.as_u64()
                    .ok_or_else(|| ctx("\"at\" must be a non-negative integer"))?,
            );
            let core = match kind.as_str() {
                "core_halt" => core.ok_or_else(|| ctx("core_halt needs a \"core\""))?,
                _ => core.unwrap_or(0),
            };
            events.push(build(at, core)?);
            Ok(())
        }
        (None, Some(count)) => {
            let count = count
                .as_u64()
                .filter(|&n| n <= MAX_GROUP_COUNT)
                .ok_or_else(|| ctx("\"count\" must be an integer from 0 to 1048576"))?;
            let window = entry
                .get("window")
                .and_then(Json::as_array)
                .ok_or_else(|| ctx("a group entry needs \"window\": [lo, hi]"))?;
            let [lo, hi] = window else {
                return Err(ctx("\"window\" must have exactly two elements"));
            };
            let (lo, hi) = (
                lo.as_u64()
                    .ok_or_else(|| ctx("window bounds must be integers"))?,
                hi.as_u64()
                    .ok_or_else(|| ctx("window bounds must be integers"))?,
            );
            if lo >= hi {
                return Err(ctx("\"window\" must satisfy lo < hi"));
            }
            // One child stream per group: a group's draws never depend
            // on how many events other groups expand to.
            let mut group = rng.split();
            for _ in 0..count {
                let at = Cycle(group.gen_u64(lo..hi));
                let core = match (kind.as_str(), core) {
                    ("core_halt", Some(c)) => c,
                    ("core_halt", None) => {
                        u32::try_from(group.gen_index(0..16)).expect("mesh core index fits u32")
                    }
                    (_, c) => c.unwrap_or(0),
                };
                events.push(build(at, core)?);
            }
            Ok(())
        }
        (Some(_), Some(_)) => Err(ctx("\"at\" and \"count\" are mutually exclusive")),
        (None, None) => Err(ctx("entry needs either \"at\" or \"count\" + \"window\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "version": 1,
        "faults": [
            {"kind": "flag_drop", "at": 2000},
            {"kind": "mesh_stall", "mesh": "rmesh", "at": 1000, "extra": 300},
            {"kind": "core_halt", "core": 3, "at": 50000},
            {"kind": "sdram_bit_error", "count": 3, "window": [100, 90000]}
        ]
    }"#;

    #[test]
    fn parses_and_sorts_by_cycle() {
        let plan = FaultPlan::parse(SPEC, 7).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 6);
        for w in plan.events.windows(2) {
            assert!(w[0].at() <= w[1].at(), "{:?}", plan.events);
        }
        assert!(plan.events.iter().any(|e| matches!(
            e,
            FaultEvent::MeshStall {
                mesh: MeshKind::RMesh,
                extra: 300,
                ..
            }
        )));
        assert!(plan.events.contains(&FaultEvent::CoreHalt {
            core: 3,
            at: Cycle(50_000)
        }));
    }

    #[test]
    fn expansion_is_deterministic_per_seed() {
        let a = FaultPlan::parse(SPEC, 7).unwrap();
        let b = FaultPlan::parse(SPEC, 7).unwrap();
        let c = FaultPlan::parse(SPEC, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "a different seed must move the group draws");
        // Pinned events are seed-independent.
        assert!(c.events.contains(&FaultEvent::FlagDrop { at: Cycle(2000) }));
    }

    #[test]
    fn group_draws_stay_in_window() {
        let plan = FaultPlan::parse(SPEC, 123).unwrap();
        for e in &plan.events {
            if let FaultEvent::SdramBitError { at } = e {
                assert!((100..90_000).contains(&at.raw()), "{at:?}");
            }
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        let cases = [
            ("not json", "not JSON"),
            (r#"{"faults": []}"#, "version"),
            (r#"{"version": 2, "faults": []}"#, "version 2"),
            (r#"{"version": 1}"#, "faults"),
            (r#"{"version": 1, "faults": [{"at": 5}]}"#, "kind"),
            (
                r#"{"version": 1, "faults": [{"kind": "bad", "at": 5}]}"#,
                "unknown kind",
            ),
            (
                r#"{"version": 1, "faults": [{"kind": "flag_drop"}]}"#,
                "either",
            ),
            (
                r#"{"version": 1, "faults": [{"kind": "core_halt", "at": 5}]}"#,
                "core",
            ),
            (
                r#"{"version": 1, "faults": [{"kind": "flag_drop", "count": 2, "window": [9, 3]}]}"#,
                "lo < hi",
            ),
            (
                r#"{"version": 1, "faults": [{"kind": "mesh_stall", "mesh": "zmesh", "at": 1}]}"#,
                "mesh",
            ),
            (
                r#"{"version": 1, "faults": [{"kind": "flag_drop", "count": 9007199254740992, "window": [0, 9]}]}"#,
                "count",
            ),
        ];
        for (text, needle) in cases {
            let err = FaultPlan::parse(text, 0).expect_err(text);
            assert!(
                err.message.contains(needle),
                "{text}: {} should mention {needle}",
                err.message
            );
        }
    }
}
