//! Run-time fault state: per-site event queues the machine models
//! query at each injection point, plus central recovery accounting.
//!
//! [`FaultState`] clones like [`desim::Tracer`]: a cheap shared handle
//! (`Rc<RefCell<..>>`) threaded through the mesh, the SDRAM model and
//! the chip, or `None` when faults are disabled. Every query method is
//! a single branch on the disabled path and never allocates — the
//! contract `tests/disabled_overhead.rs` guards.
//!
//! Injection semantics ("exactly once"): each fault site owns a queue
//! sorted by arming cycle. An operation at simulation time `now` pops
//! and fires the front event iff `now >= at` — so an armed event
//! perturbs precisely the first qualifying operation and no other, and
//! because the simulation itself is deterministic, the same plan hits
//! the same operation on every run.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use desim::trace::MeshKind;
use desim::{Cycle, FaultRecord};

use crate::plan::{FaultEvent, FaultPlan};

/// How a posted flag write is perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagFault {
    /// The flag never sets; the consumer must time out and request a
    /// re-send.
    Drop,
    /// The flag sets late by the given number of cycles.
    Delay(u64),
}

/// One pending core halt.
#[derive(Debug, Clone, Copy)]
struct Halt {
    core: u32,
    at: Cycle,
    /// Set once a recovery policy has observed the halt (counted as
    /// one injected fault at that moment).
    observed: bool,
}

#[derive(Debug, Default)]
struct Inner {
    seed: u64,
    /// Per-mesh stall queues, indexed by [`MeshKind::index`].
    mesh: [VecDeque<(Cycle, u64)>; 3],
    flags: VecDeque<(Cycle, FlagFault)>,
    elink: VecDeque<(Cycle, u64)>,
    sdram: VecDeque<Cycle>,
    halts: Vec<Halt>,
    totals: FaultRecord,
}

/// Pop the front of `queue` iff it has armed by `now`, bumping the
/// injection counter.
fn pop_armed<T: Copy>(
    queue: &mut VecDeque<(Cycle, T)>,
    now: Cycle,
    injected: &mut u64,
) -> Option<T> {
    match queue.front() {
        Some(&(at, payload)) if now >= at => {
            queue.pop_front();
            *injected += 1;
            Some(payload)
        }
        _ => None,
    }
}

/// Shared fault-injection handle. Clones are handles to the same
/// state; [`FaultState::disabled`] is a no-op handle.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl FaultState {
    /// A disabled handle: every query returns "no fault" after one
    /// branch, nothing is ever counted, nothing allocates.
    pub fn disabled() -> FaultState {
        FaultState { inner: None }
    }

    /// Build the run-time state for a plan: events are dealt to their
    /// site queues in arming order.
    pub fn from_plan(plan: &FaultPlan) -> FaultState {
        let mut inner = Inner {
            seed: plan.seed,
            ..Inner::default()
        };
        for &e in &plan.events {
            match e {
                FaultEvent::MeshStall { mesh, at, extra } => {
                    inner.mesh[mesh.index()].push_back((at, extra));
                }
                FaultEvent::FlagDrop { at } => inner.flags.push_back((at, FlagFault::Drop)),
                FaultEvent::FlagDelay { at, extra } => {
                    inner.flags.push_back((at, FlagFault::Delay(extra)));
                }
                FaultEvent::ElinkDegrade { at, extra } => inner.elink.push_back((at, extra)),
                FaultEvent::SdramBitError { at } => inner.sdram.push_back(at),
                FaultEvent::CoreHalt { core, at } => inner.halts.push(Halt {
                    core,
                    at,
                    observed: false,
                }),
            }
        }
        FaultState {
            inner: Some(Rc::new(RefCell::new(inner))),
        }
    }

    /// Whether this handle carries a fault plan.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The seed the plan was expanded with (None when disabled).
    pub fn seed(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.borrow().seed)
    }

    /// A transfer starts on `kind` at `now`: extra arrival cycles if a
    /// stall has armed.
    #[inline]
    pub fn mesh_stall(&self, kind: MeshKind, now: Cycle) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let mut i = inner.borrow_mut();
        let Inner { mesh, totals, .. } = &mut *i;
        pop_armed(&mut mesh[kind.index()], now, &mut totals.faults_injected)
    }

    /// A posted flag write issues at `now`: how it is perturbed, if an
    /// event has armed.
    #[inline]
    pub fn flag_fault(&self, now: Cycle) -> Option<FlagFault> {
        let inner = self.inner.as_ref()?;
        let mut i = inner.borrow_mut();
        let Inner { flags, totals, .. } = &mut *i;
        pop_armed(flags, now, &mut totals.faults_injected)
    }

    /// An eLink operation starts at `now`: extra cycles if a
    /// degradation window has armed.
    #[inline]
    pub fn elink_degrade(&self, now: Cycle) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let mut i = inner.borrow_mut();
        let Inner { elink, totals, .. } = &mut *i;
        pop_armed(elink, now, &mut totals.faults_injected)
    }

    /// An SDRAM access starts at `now`: true if a transient bit error
    /// has armed (the device re-reads the row; ECC corrects the data).
    #[inline]
    pub fn sdram_bit_error(&self, now: Cycle) -> bool {
        let Some(inner) = self.inner.as_ref() else {
            return false;
        };
        let mut i = inner.borrow_mut();
        let Inner { sdram, totals, .. } = &mut *i;
        match sdram.front() {
            Some(&at) if now >= at => {
                sdram.pop_front();
                totals.faults_injected += 1;
                true
            }
            _ => false,
        }
    }

    /// Halts that have armed by `now` and have not been observed yet.
    /// Each returned core is counted as one injected fault and will not
    /// be reported again — recovery policies call this once per
    /// checkpoint to learn which cores died since the last one.
    pub fn newly_halted(&self, now: Cycle) -> Vec<u32> {
        let Some(inner) = self.inner.as_ref() else {
            return Vec::new();
        };
        let mut i = inner.borrow_mut();
        let mut out = Vec::new();
        let Inner { halts, totals, .. } = &mut *i;
        for h in halts.iter_mut() {
            if !h.observed && now >= h.at {
                h.observed = true;
                totals.faults_injected += 1;
                out.push(h.core);
            }
        }
        out
    }

    /// Whether `core` has halted by `now` (pure query; does not count
    /// or consume anything).
    #[inline]
    pub fn halted(&self, core: u32, now: Cycle) -> bool {
        let Some(inner) = self.inner.as_ref() else {
            return false;
        };
        inner
            .borrow()
            .halts
            .iter()
            .any(|h| h.core == core && now >= h.at)
    }

    /// Record `n` protocol retries (message re-sends).
    #[inline]
    pub fn add_retries(&self, n: u64) {
        if let Some(inner) = self.inner.as_ref() {
            inner.borrow_mut().totals.retries += n;
        }
    }

    /// Record `n` cycles spent on fault detection and re-execution.
    #[inline]
    pub fn add_recovery_cycles(&self, n: u64) {
        if let Some(inner) = self.inner.as_ref() {
            inner.borrow_mut().totals.recovery_cycles += n;
        }
    }

    /// Record modelled energy attributable to recovery, joules.
    #[inline]
    pub fn add_recovery_energy(&self, joules: f64) {
        if let Some(inner) = self.inner.as_ref() {
            inner.borrow_mut().totals.recovery_energy_j += joules;
        }
    }

    /// Record `n` cores written off into degraded mode.
    #[inline]
    pub fn add_degraded_cores(&self, n: u64) {
        if let Some(inner) = self.inner.as_ref() {
            inner.borrow_mut().totals.degraded_cores += n;
        }
    }

    /// Snapshot of the accumulated accounting (all-zero when
    /// disabled) — this is what lands in `RunRecord::faults`.
    pub fn totals(&self) -> FaultRecord {
        self.inner
            .as_ref()
            .map_or_else(FaultRecord::default, |i| i.borrow().totals)
    }

    /// Scheduled events not yet fired (0 when disabled). A clean
    /// recovered run should usually have drained its plan.
    pub fn pending(&self) -> usize {
        let Some(inner) = self.inner.as_ref() else {
            return 0;
        };
        let i = inner.borrow();
        i.mesh.iter().map(VecDeque::len).sum::<usize>()
            + i.flags.len()
            + i.elink.len()
            + i.sdram.len()
            + i.halts.iter().filter(|h| !h.observed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(events: Vec<FaultEvent>) -> FaultState {
        FaultState::from_plan(&FaultPlan::from_events(1, events))
    }

    #[test]
    fn disabled_state_reports_nothing() {
        let f = FaultState::disabled();
        assert!(!f.is_enabled());
        assert_eq!(f.seed(), None);
        assert_eq!(f.mesh_stall(MeshKind::CMesh, Cycle(1_000_000)), None);
        assert_eq!(f.flag_fault(Cycle(1_000_000)), None);
        assert_eq!(f.elink_degrade(Cycle(1_000_000)), None);
        assert!(!f.sdram_bit_error(Cycle(1_000_000)));
        assert!(f.newly_halted(Cycle(1_000_000)).is_empty());
        assert!(!f.halted(0, Cycle(1_000_000)));
        f.add_retries(5);
        f.add_recovery_cycles(5);
        assert_eq!(f.totals(), FaultRecord::default());
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn events_fire_exactly_once_in_order() {
        let f = state(vec![
            FaultEvent::MeshStall {
                mesh: MeshKind::CMesh,
                at: Cycle(100),
                extra: 7,
            },
            FaultEvent::MeshStall {
                mesh: MeshKind::CMesh,
                at: Cycle(200),
                extra: 9,
            },
        ]);
        // Not armed yet.
        assert_eq!(f.mesh_stall(MeshKind::CMesh, Cycle(50)), None);
        // A different mesh never sees cmesh events.
        assert_eq!(f.mesh_stall(MeshKind::RMesh, Cycle(500)), None);
        // First qualifying op takes the first event; even at a time
        // past both arming cycles only one fires per op.
        assert_eq!(f.mesh_stall(MeshKind::CMesh, Cycle(500)), Some(7));
        assert_eq!(f.mesh_stall(MeshKind::CMesh, Cycle(500)), Some(9));
        assert_eq!(f.mesh_stall(MeshKind::CMesh, Cycle(500)), None);
        assert_eq!(f.totals().faults_injected, 2);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn flag_faults_pop_in_schedule_order() {
        let f = state(vec![
            FaultEvent::FlagDelay {
                at: Cycle(10),
                extra: 64,
            },
            FaultEvent::FlagDrop { at: Cycle(20) },
        ]);
        assert_eq!(f.flag_fault(Cycle(15)), Some(FlagFault::Delay(64)));
        assert_eq!(f.flag_fault(Cycle(15)), None, "drop not armed yet");
        assert_eq!(f.flag_fault(Cycle(25)), Some(FlagFault::Drop));
        assert_eq!(f.totals().faults_injected, 2);
    }

    #[test]
    fn halts_are_observed_once_but_queryable_forever() {
        let f = state(vec![
            FaultEvent::CoreHalt {
                core: 3,
                at: Cycle(1000),
            },
            FaultEvent::CoreHalt {
                core: 7,
                at: Cycle(5000),
            },
        ]);
        assert!(f.newly_halted(Cycle(500)).is_empty());
        assert!(!f.halted(3, Cycle(500)));
        assert_eq!(f.newly_halted(Cycle(2000)), vec![3]);
        assert!(f.newly_halted(Cycle(2000)).is_empty(), "observed once");
        assert!(f.halted(3, Cycle(2000)), "still halted");
        assert_eq!(f.newly_halted(Cycle(9000)), vec![7]);
        assert_eq!(f.totals().faults_injected, 2);
    }

    #[test]
    fn accounting_accumulates_through_clones() {
        let f = state(vec![FaultEvent::SdramBitError { at: Cycle(0) }]);
        let g = f.clone();
        assert!(g.sdram_bit_error(Cycle(5)));
        assert!(!g.sdram_bit_error(Cycle(5)));
        f.add_retries(2);
        g.add_retries(1);
        f.add_recovery_cycles(100);
        f.add_recovery_energy(1e-6);
        f.add_degraded_cores(1);
        let t = f.totals();
        assert_eq!(t.faults_injected, 1);
        assert_eq!(t.retries, 3);
        assert_eq!(t.recovery_cycles, 100);
        assert_eq!(t.degraded_cores, 1);
        assert!(t.recovery_energy_j > 0.0);
        assert_eq!(g.totals(), t, "clones share one accounting state");
    }
}
