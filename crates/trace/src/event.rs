//! Trace events: bursts of faultable instructions.
//!
//! The QEMU traces of §5.1 record individual instruction indices; Figs. 5
//! and 7 show that faultable instructions cluster into bursts with uniform
//! small internal gaps, separated by gaps up to 10⁷ instructions. A
//! [`Burst`] captures exactly that structure, and is the unit the
//! event-based simulator consumes — dense crypto workloads stay O(bursts)
//! instead of O(instructions).

use suit_isa::Opcode;

/// One burst of faultable instructions within an instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Non-faultable instructions executed between the end of the previous
    /// burst (or stream start) and the first faultable instruction of this
    /// burst.
    pub gap_insts: u64,
    /// Number of faultable instructions in the burst (≥ 1).
    pub events: u32,
    /// Non-faultable instructions between consecutive faultable
    /// instructions inside the burst.
    pub within_gap_insts: u32,
    /// The dominant faultable opcode of the burst.
    pub opcode: Opcode,
}

impl Burst {
    /// Creates a burst, validating its invariants.
    ///
    /// # Panics
    ///
    /// Panics if `events` is zero or `opcode` is not faultable.
    pub fn new(gap_insts: u64, events: u32, within_gap_insts: u32, opcode: Opcode) -> Self {
        assert!(events >= 1, "a burst contains at least one event");
        assert!(opcode.is_faultable(), "burst opcode must be faultable");
        Burst {
            gap_insts,
            events,
            within_gap_insts,
            opcode,
        }
    }

    /// Instructions spanned from the first to the last faultable
    /// instruction of the burst (zero for a single event).
    pub fn span_insts(&self) -> u64 {
        u64::from(self.events - 1) * (u64::from(self.within_gap_insts) + 1)
    }

    /// Total instructions consumed by the burst including its leading gap:
    /// gap + events + internal gaps.
    pub fn total_insts(&self) -> u64 {
        self.gap_insts
            + u64::from(self.events)
            + u64::from(self.events - 1) * u64::from(self.within_gap_insts)
    }

    /// The virtual time at which the burst ends if it starts at `start`
    /// (`start + total_insts()`), or `None` if that does not fit in u64.
    pub fn checked_end(&self, start: u64) -> Option<u64> {
        // Events and internal gaps are u32: their part cannot overflow.
        let body =
            u64::from(self.events) + u64::from(self.events - 1) * u64::from(self.within_gap_insts);
        start.checked_add(self.gap_insts)?.checked_add(body)
    }

    /// Instruction offsets (relative to the burst's first event) of every
    /// faultable instruction in the burst.
    pub fn event_offsets(&self) -> impl Iterator<Item = u64> + '_ {
        let stride = u64::from(self.within_gap_insts) + 1;
        (0..u64::from(self.events)).map(move |i| i * stride)
    }
}

/// Summary statistics over a stream of bursts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceSummary {
    /// Number of bursts.
    pub bursts: u64,
    /// Total faultable instructions.
    pub events: u64,
    /// Total instructions (faultable + gaps).
    pub insts: u64,
    /// Largest leading gap observed.
    pub max_gap: u64,
    /// Smallest leading gap observed.
    pub min_gap: u64,
}

impl TraceSummary {
    /// Accumulates statistics over bursts.
    pub fn from_bursts<I: IntoIterator<Item = Burst>>(iter: I) -> Self {
        let mut s = TraceSummary {
            min_gap: u64::MAX,
            ..Default::default()
        };
        for b in iter {
            s.bursts += 1;
            s.events += u64::from(b.events);
            s.insts += b.total_insts();
            s.max_gap = s.max_gap.max(b.gap_insts);
            s.min_gap = s.min_gap.min(b.gap_insts);
        }
        if s.bursts == 0 {
            s.min_gap = 0;
        }
        s
    }

    /// Mean instructions per faultable instruction (the "one faultable
    /// instruction every N instructions" metric of §1).
    pub fn insts_per_event(&self) -> f64 {
        if self.events == 0 {
            f64::INFINITY
        } else {
            self.insts as f64 / self.events as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_accounting() {
        let b = Burst::new(1000, 5, 10, Opcode::Aesenc);
        assert_eq!(b.span_insts(), 4 * 11);
        assert_eq!(b.total_insts(), 1000 + 5 + 4 * 10);
        let offs: Vec<u64> = b.event_offsets().collect();
        assert_eq!(offs, vec![0, 11, 22, 33, 44]);
    }

    #[test]
    fn checked_end_refuses_only_overflow() {
        let b = Burst::new(1000, 5, 10, Opcode::Aesenc);
        assert_eq!(b.checked_end(7), Some(7 + b.total_insts()));
        assert_eq!(b.checked_end(u64::MAX - b.total_insts()), Some(u64::MAX));
        assert_eq!(b.checked_end(u64::MAX - b.total_insts() + 1), None);
        assert_eq!(Burst::new(u64::MAX, 1, 0, Opcode::Vor).checked_end(0), None);
    }

    #[test]
    fn single_event_burst() {
        let b = Burst::new(42, 1, 0, Opcode::Vor);
        assert_eq!(b.span_insts(), 0);
        assert_eq!(b.total_insts(), 43);
        assert_eq!(b.event_offsets().count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn rejects_empty_burst() {
        let _ = Burst::new(0, 0, 0, Opcode::Vor);
    }

    #[test]
    #[should_panic(expected = "must be faultable")]
    fn rejects_non_faultable_opcode() {
        let _ = Burst::new(0, 1, 0, Opcode::Alu);
    }

    #[test]
    fn summary_over_bursts() {
        let bursts = vec![
            Burst::new(100, 2, 5, Opcode::Vxor),
            Burst::new(900, 1, 0, Opcode::Aesenc),
        ];
        let s = TraceSummary::from_bursts(bursts);
        assert_eq!(s.bursts, 2);
        assert_eq!(s.events, 3);
        assert_eq!(s.insts, (100 + 2 + 5) + (900 + 1));
        assert_eq!(s.max_gap, 900);
        assert_eq!(s.min_gap, 100);
        assert!((s.insts_per_event() - 1008.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = TraceSummary::from_bursts(Vec::new());
        assert_eq!(s.bursts, 0);
        assert_eq!(s.min_gap, 0);
        assert!(s.insts_per_event().is_infinite());
    }
}
