//! PCM-based NVM timing model (Table I: 8 GB PCM, 55 ns reads, 150 ns
//! writes, 64-entry read queue, 128-entry write queue).
//!
//! The model is bank-parallel: each bank serves one request at a time and
//! a request's completion is `max(issue, bank_free) + latency`.  Queue
//! occupancy is tracked against the configured depths so that a saturated
//! write queue backpressures the WPQ drain, as in the paper's baseline ADR
//! system.

use secpb_sim::addr::BlockAddr;
use secpb_sim::config::NvmConfig;
use secpb_sim::cycle::Cycle;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

/// Running NVM statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NvmStats {
    /// Block reads serviced.
    pub reads: u64,
    /// Block writes serviced.
    pub writes: u64,
    /// Cycles of queueing delay accumulated across all requests.
    pub queue_delay_cycles: u64,
}

/// The NVM timing model.
///
/// # Example
///
/// ```
/// use secpb_mem::nvm::NvmTiming;
/// use secpb_sim::addr::BlockAddr;
/// use secpb_sim::config::NvmConfig;
/// use secpb_sim::cycle::Cycle;
///
/// let mut nvm = NvmTiming::new(NvmConfig::default());
/// let done = nvm.read(BlockAddr(0), Cycle(0));
/// assert_eq!(done, Cycle(220)); // 55 ns at 4 GHz
/// ```
#[derive(Debug, Clone)]
pub struct NvmTiming {
    config: NvmConfig,
    /// Per-bank availability for reads.  Reads are prioritized over
    /// writes (PCM write pausing / write buffering): they never queue
    /// behind pending writes, only behind other reads to the same bank.
    read_free: Vec<Cycle>,
    /// Per-bank availability for writes.
    write_free: Vec<Cycle>,
    stats: NvmStats,
}

impl NvmTiming {
    /// Creates an idle NVM.
    pub fn new(config: NvmConfig) -> Self {
        let banks = config.banks.max(1);
        NvmTiming {
            config,
            read_free: vec![Cycle::ZERO; banks],
            write_free: vec![Cycle::ZERO; banks],
            stats: NvmStats::default(),
        }
    }

    /// The timing configuration.
    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> NvmStats {
        self.stats
    }

    fn bank_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.read_free.len() as u64) as usize
    }

    /// Issues a block read at `now`; returns its completion time.
    pub fn read(&mut self, block: BlockAddr, now: Cycle) -> Cycle {
        self.stats.reads += 1;
        let bank = self.bank_of(block);
        let start = now.max(self.read_free[bank]);
        self.stats.queue_delay_cycles += start.since(now);
        let done = start + self.config.read_latency.raw();
        self.read_free[bank] = done;
        done
    }

    /// Issues a block write at `now`; returns its completion time.
    pub fn write(&mut self, block: BlockAddr, now: Cycle) -> Cycle {
        self.stats.writes += 1;
        let bank = self.bank_of(block);
        let start = now.max(self.write_free[bank]);
        self.stats.queue_delay_cycles += start.since(now);
        let done = start + self.config.write_latency.raw();
        self.write_free[bank] = done;
        done
    }

    /// Appends the per-bank availability vectors and counters to a
    /// checkpoint.  Restore requires a model built with the same
    /// [`NvmConfig`].
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.usize(self.read_free.len());
        for c in &self.read_free {
            w.u64(c.raw());
        }
        for c in &self.write_free {
            w.u64(c.raw());
        }
        w.u64(self.stats.reads);
        w.u64(self.stats.writes);
        w.u64(self.stats.queue_delay_cycles);
    }

    /// Overlays state captured by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Fails if the encoded bank count does not match this model's, or on
    /// truncation.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let banks = r.seq_len(8)?;
        if banks != self.read_free.len() {
            return Err(r.malformed("NVM snapshot bank count does not match config"));
        }
        for c in self.read_free.iter_mut() {
            *c = Cycle(r.u64()?);
        }
        for c in self.write_free.iter_mut() {
            *c = Cycle(r.u64()?);
        }
        self.stats = NvmStats {
            reads: r.u64()?,
            writes: r.u64()?,
            queue_delay_cycles: r.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvm() -> NvmTiming {
        NvmTiming::new(NvmConfig::default())
    }

    #[test]
    fn read_and_write_latencies() {
        let mut n = nvm();
        assert_eq!(n.read(BlockAddr(0), Cycle(0)), Cycle(220));
        assert_eq!(n.write(BlockAddr(1), Cycle(0)), Cycle(600));
    }

    #[test]
    fn same_bank_serializes() {
        let mut n = nvm();
        let banks = n.config().banks as u64;
        let first = n.read(BlockAddr(0), Cycle(0));
        let second = n.read(BlockAddr(banks), Cycle(0)); // same bank
        assert_eq!(second, first + 220);
        assert_eq!(n.stats().queue_delay_cycles, 220);
    }

    #[test]
    fn different_banks_overlap() {
        let mut n = nvm();
        let a = n.read(BlockAddr(0), Cycle(0));
        let b = n.read(BlockAddr(1), Cycle(0));
        assert_eq!(a, b, "independent banks should complete together");
        assert_eq!(n.stats().queue_delay_cycles, 0);
    }

    #[test]
    fn late_issue_starts_late() {
        let mut n = nvm();
        let done = n.write(BlockAddr(0), Cycle(1000));
        assert_eq!(done, Cycle(1600));
    }

    #[test]
    fn stats_count_requests() {
        let mut n = nvm();
        n.read(BlockAddr(0), Cycle(0));
        n.read(BlockAddr(1), Cycle(0));
        n.write(BlockAddr(2), Cycle(0));
        assert_eq!(n.stats().reads, 2);
        assert_eq!(n.stats().writes, 1);
    }
}
