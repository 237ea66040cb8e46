//! Per-core DMA engine state.
//!
//! Each Epiphany core has a DMA engine able to move a double word per
//! clock, operating concurrently with the core. We model one in-flight
//! descriptor per engine (matching how the FFBP mapping uses it:
//! prefetch the next block while computing on the current one); issuing
//! a new descriptor while one is active queues behind it.

use desim::Cycle;

/// Direction of a DMA transfer (for statistics and energy accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// External SDRAM into the local store.
    ExternalToLocal,
    /// Local store out to external SDRAM.
    LocalToExternal,
}

/// One core's DMA engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmaEngine {
    /// When the engine finishes its current descriptor.
    busy_until: Cycle,
    /// Descriptors completed.
    transfers: u64,
    /// Bytes moved.
    bytes: u64,
}

impl DmaEngine {
    /// New idle engine.
    pub fn new() -> DmaEngine {
        DmaEngine::default()
    }

    /// Earliest time a new descriptor can start moving data, given the
    /// engine may still be draining a previous one.
    pub fn earliest_start(&self, requested: Cycle) -> Cycle {
        requested.max(self.busy_until)
    }

    /// Commit a descriptor that the chip model has priced: the engine
    /// is busy until `done`.
    pub fn commit(&mut self, done: Cycle, bytes: u64) {
        debug_assert!(done >= self.busy_until);
        self.busy_until = done;
        self.transfers += 1;
        self.bytes += bytes;
    }

    /// Descriptors completed so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Bytes moved so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_serialise_on_one_engine() {
        let mut e = DmaEngine::new();
        assert_eq!(e.earliest_start(Cycle(5)), Cycle(5));
        e.commit(Cycle(100), 512);
        assert_eq!(e.earliest_start(Cycle(5)), Cycle(100));
        assert_eq!(e.earliest_start(Cycle(150)), Cycle(150));
        e.commit(Cycle(200), 256);
        assert_eq!(e.transfers(), 2);
        assert_eq!(e.bytes(), 768);
    }
}
