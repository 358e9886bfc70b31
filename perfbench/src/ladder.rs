//! The layer ladder: sinks owned by the benchmark that add one public
//! core structure per rung to the decoded event stream, so the difference
//! between adjacent rungs is that structure's cost per event or access.
//!
//! | rung | adds                                                      |
//! |------|-----------------------------------------------------------|
//! | 0    | decode only ([`Noop`])                                    |
//! | 1    | `ScopeStack` enter/exit                                   |
//! | 2    | `BlockTable` probe and update per access                  |
//! | 3    | `TimeBits` distance (count + reinsert, insert when cold)  |
//! | 4    | carrier lookup + one `Histogram` per reference            |

use reuselens::core::{BlockTable, Histogram, ScopeStack, TimeBits};
use reuselens::ir::{AccessKind, RefId, ScopeId};
use reuselens::trace::{SoaBatch, TraceSink};
use std::hint::black_box;

/// Rung 0: consumes the decoded stream and does nothing with it.
#[derive(Debug, Default)]
pub struct Noop {
    pub accesses: u64,
    pub scopes: u64,
}

impl TraceSink for Noop {
    fn access(&mut self, _r: RefId, _addr: u64, _size: u32, _kind: AccessKind) {
        self.accesses += 1;
    }
    fn enter(&mut self, _scope: ScopeId) {
        self.scopes += 1;
    }
    fn exit(&mut self, _scope: ScopeId) {
        self.scopes += 1;
    }
    fn access_soa(&mut self, batch: &SoaBatch) {
        self.accesses += black_box(batch.len()) as u64;
    }
}

/// Rungs 1 to 4 (the const parameter), each a superset of the one below.
#[derive(Debug)]
pub struct Ladder<const RUNG: u8> {
    shift: u32,
    clock: u64,
    stack: ScopeStack,
    table: BlockTable,
    times: TimeBits,
    hist: Vec<Histogram>,
    carriers: u64,
}

impl<const RUNG: u8> Ladder<RUNG> {
    pub fn new(block_size: u64, nrefs: usize) -> Self {
        Ladder {
            shift: block_size.trailing_zeros(),
            clock: 0,
            stack: ScopeStack::new(),
            table: BlockTable::new(),
            times: TimeBits::new(),
            hist: (0..nrefs).map(|_| Histogram::new()).collect(),
            carriers: 0,
        }
    }

    /// A value that depends on every structure the rung maintains, so
    /// none of the work can be optimized away.
    pub fn checksum(&self) -> u64 {
        self.clock
            ^ self.table.distinct_blocks()
            ^ self.times.len() as u64
            ^ self.carriers
            ^ self.hist.iter().map(Histogram::total).sum::<u64>()
    }

    #[inline]
    fn step(&mut self, r: u32, addr: u64) {
        self.clock += 1;
        if RUNG < 2 {
            return;
        }
        let now = self.clock;
        let block = addr >> self.shift;
        let prev = self.table.get(block);
        self.table.set(block, now, r);
        if RUNG < 3 {
            return;
        }
        let distance = match prev {
            Some(p) => self.times.count_reinsert(p.time, now).1,
            None => {
                self.times.insert(now);
                return;
            }
        };
        if RUNG < 4 {
            return;
        }
        if let Some(p) = prev {
            self.carriers = self
                .carriers
                .wrapping_add(u64::from(self.stack.carrier(p.time).0));
            self.hist[r as usize].add(distance);
        }
    }
}

impl<const RUNG: u8> TraceSink for Ladder<RUNG> {
    fn access(&mut self, r: RefId, addr: u64, _size: u32, _kind: AccessKind) {
        self.step(r.0, addr);
    }
    fn enter(&mut self, scope: ScopeId) {
        self.stack.enter(scope, self.clock);
    }
    fn exit(&mut self, scope: ScopeId) {
        self.stack.exit(scope);
    }
    fn access_soa(&mut self, batch: &SoaBatch) {
        for (&r, &addr) in batch.refs.iter().zip(&batch.addrs) {
            self.step(r, addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens::core::ReuseAnalyzer;
    use reuselens::workloads::sweep3d::{build, SweepConfig};

    #[test]
    fn top_rung_sees_the_analyzer_s_distances() {
        let w = build(&SweepConfig::new(4));
        let (buf, _) = reuselens::core::capture_program(&w.program, vec![]).unwrap();
        let nrefs = w.program.references().len();
        let mut top = Ladder::<4>::new(128, nrefs);
        buf.replay(&mut top);
        let mut real = ReuseAnalyzer::new(&w.program, 128);
        buf.replay(&mut real);
        let profile = real.finish();
        assert_eq!(top.table.distinct_blocks(), profile.distinct_blocks);
        assert_eq!(top.clock, profile.total_accesses);
        let reuses: u64 = top.hist.iter().map(Histogram::total).sum();
        assert_eq!(reuses, profile.total_reuses());
        let mut noop = Noop::default();
        buf.replay(&mut noop);
        assert_eq!(noop.accesses, buf.accesses());
        assert_eq!(noop.accesses + noop.scopes, buf.events());
    }
}
