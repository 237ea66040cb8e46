//! `memsim::StreamPrefetcher` as it stood before the flat table, kept
//! verbatim as the model the fast one is tested against: a
//! `Vec<Option<Stream>>` with a timestamp per slot, one `Vec` of lines
//! returned per observe.

/// A detected access stream.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Next expected line index.
    next_line: u64,
    /// +1 or -1 line per access.
    dir: i64,
    /// Consecutive confirmations so far.
    hits: u32,
    /// Replacement age.
    last_used: u64,
}

/// Stream prefetcher over line indices (`addr / line_bytes` is done by
/// the caller's hierarchy so the prefetcher is line-size agnostic).
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    streams: Vec<Option<Stream>>,
    confirm_after: u32,
    depth: u32,
    tick: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// `table_size` concurrent streams, confirmed after `confirm_after`
    /// sequential accesses, prefetching `depth` lines ahead.
    pub fn new(table_size: usize, confirm_after: u32, depth: u32) -> StreamPrefetcher {
        assert!(table_size > 0, "need at least one stream slot");
        StreamPrefetcher {
            streams: vec![None; table_size],
            confirm_after,
            depth,
            tick: 0,
            issued: 0,
        }
    }

    /// Intel-like defaults: 16 streams, confirm on the 2nd access,
    /// run 4 lines ahead.
    pub fn intel_like() -> StreamPrefetcher {
        StreamPrefetcher::new(16, 2, 4)
    }

    /// Observe a demand access to `line`; returns the lines to prefetch
    /// (possibly empty).
    pub fn observe(&mut self, line: u64) -> Vec<u64> {
        self.tick += 1;
        // Match an existing stream expecting this line.
        for slot in self.streams.iter_mut().flatten() {
            if slot.next_line == line {
                slot.hits += 1;
                slot.last_used = self.tick;
                slot.next_line = line.wrapping_add_signed(slot.dir);
                if slot.hits >= self.confirm_after {
                    let out: Vec<u64> = (1..=self.depth as u64)
                        .map(|k| line.wrapping_add_signed(slot.dir * k as i64))
                        .collect();
                    self.issued += out.len() as u64;
                    return out;
                }
                return Vec::new();
            }
        }
        // New stream hypotheses in both directions: allocate ascending
        // (the common case); a descending access pattern will allocate
        // on its second miss via the `line-1` expectation below.
        self.allocate(line.wrapping_add(1), 1);
        if line > 0 {
            self.allocate(line - 1, -1);
        }
        Vec::new()
    }

    fn allocate(&mut self, next_line: u64, dir: i64) {
        let slot = self
            .streams
            .iter_mut()
            .min_by_key(|s| s.map_or(0, |s| s.last_used))
            .expect("table_size > 0");
        *slot = Some(Stream {
            next_line,
            dir,
            hits: 1,
            last_used: self.tick,
        });
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}
