//! Exhaustive per-SM cycle accounting: every SM cycle is attributed to
//! exactly one category from a fixed taxonomy, with a conservation
//! invariant (`Σ categories == ticks recorded`) that debug builds assert
//! and release tests check end-to-end.
//!
//! The recorder ([`CycleAccounting`]) is one of the [`crate::SmObservers`],
//! so a disabled run pays one branch per tick and allocates nothing.
//! Attribution is decided inside `Sm::tick` from SM-local state sampled
//! at tick start (the `icnt_stall_cycles` discipline), before the tick
//! changes any of it.
//!
//! Alongside the category totals, the recorder keeps integer-exact
//! per-warp occupancy tallies: resident warp-cycles, eligible (issuable)
//! warp-cycles, and issued cycles (the `Issued` category). Together these
//! yield achieved-vs-peak IPC and occupancy without any floating-point
//! state in the machine.

use std::fmt;

/// Number of categories in the taxonomy.
pub const NUM_CATEGORIES: usize = 7;

/// Where one SM cycle went. Exactly one category is recorded per SM per
/// cycle; precedence (when several conditions hold at tick start) is the
/// declaration order below, after `Issued` which always wins when the SM
/// issued this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum CycleCategory {
    /// The SM issued an instruction this cycle.
    Issued = 0,
    /// At least one resident warp is scoreboard-blocked on an
    /// outstanding load (`WaitMem`) and nothing issued.
    MemStall = 1,
    /// At least one resident warp is parked in (or waiting to enter) the
    /// RT unit and nothing issued.
    RtStall = 2,
    /// The bounded interconnect is refusing the SM's backlog; the issue
    /// stage is frozen for the whole cycle.
    IcntStall = 3,
    /// A resident warp is mid-divergence (split stack / pending
    /// reconvergence) with no issuable context and nothing issued.
    SimtSync = 4,
    /// Warps are resident but none is eligible, and no stall source
    /// above applies (occupancy gap, e.g. all warps in fixed-latency
    /// `OpUntil` shadows).
    NoEligibleWarp = 5,
    /// No warps resident: the SM has drained and idles until refill or
    /// end of run.
    Drained = 6,
}

impl CycleCategory {
    /// All categories, in stable code order.
    pub const ALL: [CycleCategory; NUM_CATEGORIES] = [
        CycleCategory::Issued,
        CycleCategory::MemStall,
        CycleCategory::RtStall,
        CycleCategory::IcntStall,
        CycleCategory::SimtSync,
        CycleCategory::NoEligibleWarp,
        CycleCategory::Drained,
    ];

    /// Stable wire/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            CycleCategory::Issued => "issued",
            CycleCategory::MemStall => "mem_stall",
            CycleCategory::RtStall => "rt_stall",
            CycleCategory::IcntStall => "icnt_stall",
            CycleCategory::SimtSync => "simt_sync",
            CycleCategory::NoEligibleWarp => "no_eligible_warp",
            CycleCategory::Drained => "drained",
        }
    }

    /// Stable numeric code (the `repr` value).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`CycleCategory::code`].
    pub fn from_code(code: u8) -> Option<CycleCategory> {
        CycleCategory::ALL.get(code as usize).copied()
    }
}

impl fmt::Display for CycleCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-SM cycle-accounting recorder. Pure integer state: category
/// totals plus occupancy tallies, all monotonic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleAccounting {
    categories: [u64; NUM_CATEGORIES],
    resident_warp_cycles: u64,
    eligible_warp_cycles: u64,
}

impl CycleAccounting {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes `n` cycles to `cat`, each with `resident` warps on the SM
    /// of which `eligible` could issue at tick start: one per tick, or a
    /// sleeping SM's skipped span at its wake.
    pub fn record_span(&mut self, cat: CycleCategory, resident: u64, eligible: u64, n: u64) {
        debug_assert!(
            eligible <= resident,
            "eligible {eligible} > resident {resident}"
        );
        self.categories[cat as usize] += n;
        self.resident_warp_cycles += resident * n;
        self.eligible_warp_cycles += eligible * n;
    }

    /// Cycles attributed to `cat`.
    pub fn get(&self, cat: CycleCategory) -> u64 {
        self.categories[cat as usize]
    }

    /// The raw category array, in code order.
    pub fn categories(&self) -> &[u64; NUM_CATEGORIES] {
        &self.categories
    }

    /// Total ticks recorded — by construction `Σ categories`. The
    /// conservation invariant is that this equals the cycles the SM was
    /// ticked for.
    pub fn total(&self) -> u64 {
        self.categories.iter().sum()
    }

    /// Resident warp-cycles accumulated.
    pub fn resident_warp_cycles(&self) -> u64 {
        self.resident_warp_cycles
    }

    /// Eligible (issuable-at-tick-start) warp-cycles accumulated.
    pub fn eligible_warp_cycles(&self) -> u64 {
        self.eligible_warp_cycles
    }

    /// Folds another recorder's tallies in (used to merge per-SM
    /// breakdowns into a machine-wide one).
    pub fn merge(&mut self, other: &CycleAccounting) {
        for (a, b) in self.categories.iter_mut().zip(other.categories.iter()) {
            *a += b;
        }
        self.resident_warp_cycles += other.resident_warp_cycles;
        self.eligible_warp_cycles += other.eligible_warp_cycles;
    }
}

vksim_snapshot::snap_struct!(CycleAccounting {
    categories,
    resident_warp_cycles,
    eligible_warp_cycles
});

/// The end-of-run profile: per-SM breakdowns plus the run-level context
/// needed to check conservation and derive rates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfReport {
    /// Cycles the machine ran (every cycle of every SM is attributed).
    pub cycles: u64,
    /// One recorder per SM, indexed by SM id.
    pub per_sm: Vec<CycleAccounting>,
    /// Instructions issued machine-wide (for achieved IPC).
    pub issued_insts: u64,
    /// Active lanes summed over issued instructions (for SIMT
    /// efficiency).
    pub issued_lanes: u64,
}

impl ProfReport {
    /// Number of SMs profiled.
    pub fn num_sms(&self) -> u32 {
        self.per_sm.len() as u32
    }

    /// All SMs' tallies merged.
    pub fn merged(&self) -> CycleAccounting {
        let mut m = CycleAccounting::new();
        for acc in &self.per_sm {
            m.merge(acc);
        }
        m
    }

    /// The conservation invariant: every cycle of every SM attributed to
    /// exactly one category. Holds on every healthy or paused run; a
    /// faulting tick may die before it attributes its cycle.
    pub fn conservation_holds(&self) -> bool {
        self.merged().total() == self.cycles * self.per_sm.len() as u64
    }

    /// The category with the most cycles among the stall categories
    /// (everything except `Issued`), ties broken by code order.
    pub fn top_stall(&self) -> CycleCategory {
        let merged = self.merged();
        let mut best = CycleCategory::MemStall;
        let mut best_cycles = 0u64;
        for cat in CycleCategory::ALL {
            if cat == CycleCategory::Issued {
                continue;
            }
            let c = merged.get(cat);
            if c > best_cycles {
                best = cat;
                best_cycles = c;
            }
        }
        best
    }

    /// The flat `name -> u64` map behind the `VKSIM_PROF` JSON: merged
    /// totals under `total.<category>`, per-SM totals under
    /// `sm<i>.<category>`, occupancy tallies, and the run context. All
    /// keys are always present (zeros included) so the schema is fixed
    /// and two breakdowns diff key-by-key.
    pub fn flat_map(&self) -> std::collections::BTreeMap<String, u64> {
        let mut map = std::collections::BTreeMap::new();
        map.insert("cycles".to_string(), self.cycles);
        map.insert("num_sms".to_string(), u64::from(self.num_sms()));
        map.insert("issued_insts".to_string(), self.issued_insts);
        map.insert("issued_lanes".to_string(), self.issued_lanes);
        let merged = self.merged();
        for cat in CycleCategory::ALL {
            map.insert(format!("total.{}", cat.name()), merged.get(cat));
        }
        map.insert(
            "total.resident_warp_cycles".to_string(),
            merged.resident_warp_cycles(),
        );
        map.insert(
            "total.eligible_warp_cycles".to_string(),
            merged.eligible_warp_cycles(),
        );
        for (i, acc) in self.per_sm.iter().enumerate() {
            for cat in CycleCategory::ALL {
                map.insert(format!("sm{i}.{}", cat.name()), acc.get(cat));
            }
            map.insert(
                format!("sm{i}.resident_warp_cycles"),
                acc.resident_warp_cycles(),
            );
            map.insert(
                format!("sm{i}.eligible_warp_cycles"),
                acc.eligible_warp_cycles(),
            );
        }
        map
    }

    /// Serializes [`ProfReport::flat_map`] as a pretty, stable JSON
    /// object (keys sorted, one per line, trailing newline) — the same
    /// shape as the golden-counter files, so the testkit flat-JSON
    /// reader parses it and byte comparison is meaningful.
    pub fn flat_json(&self) -> String {
        let map = self.flat_map();
        let mut out = String::from("{\n");
        let mut first = true;
        for (k, v) in &map {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  \"{k}\": {v}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders the human `--prof-summary` table: cycle breakdown with
    /// percentages, SIMT efficiency, occupancy, and achieved-vs-peak
    /// IPC (peak is one instruction per SM per cycle).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let merged = self.merged();
        let sm_cycles = self.cycles * u64::from(self.num_sms());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== cycle accounting: {} cycles x {} SMs = {} SM-cycles ===",
            self.cycles,
            self.num_sms(),
            sm_cycles
        );
        for cat in CycleCategory::ALL {
            let c = merged.get(cat);
            let pct = if sm_cycles == 0 {
                0.0
            } else {
                100.0 * c as f64 / sm_cycles as f64
            };
            let _ = writeln!(out, "  {:<18} {:>12}  {:>6.2}%", cat.name(), c, pct);
        }
        let _ = writeln!(out, "  top stall: {}", self.top_stall().name());
        let achieved_ipc = if self.cycles == 0 {
            0.0
        } else {
            self.issued_insts as f64 / self.cycles as f64
        };
        let peak_ipc = f64::from(self.num_sms());
        let simt_eff = if self.issued_insts == 0 {
            0.0
        } else {
            self.issued_lanes as f64 / (self.issued_insts as f64 * 32.0)
        };
        let occupancy = if sm_cycles == 0 {
            0.0
        } else {
            merged.resident_warp_cycles() as f64 / sm_cycles as f64
        };
        let eligibility = if merged.resident_warp_cycles() == 0 {
            0.0
        } else {
            merged.eligible_warp_cycles() as f64 / merged.resident_warp_cycles() as f64
        };
        let _ = writeln!(
            out,
            "  ipc: {achieved_ipc:.3} achieved / {peak_ipc:.0} peak ({:.2}% of peak)",
            if peak_ipc == 0.0 {
                0.0
            } else {
                100.0 * achieved_ipc / peak_ipc
            }
        );
        let _ = writeln!(out, "  simt efficiency: {:.2}%", 100.0 * simt_eff);
        let _ = writeln!(
            out,
            "  warps/SM resident: {occupancy:.2} avg, eligible fraction {:.2}%",
            100.0 * eligibility
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_snapshot::Snap;

    #[test]
    fn codes_round_trip_and_names_are_stable() {
        for cat in CycleCategory::ALL {
            assert_eq!(CycleCategory::from_code(cat.code()), Some(cat));
        }
        assert_eq!(CycleCategory::from_code(7), None);
        let names: Vec<&str> = CycleCategory::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "issued",
                "mem_stall",
                "rt_stall",
                "icnt_stall",
                "simt_sync",
                "no_eligible_warp",
                "drained"
            ]
        );
    }

    #[test]
    fn record_and_merge_conserve_totals() {
        let mut a = CycleAccounting::new();
        a.record_span(CycleCategory::Issued, 1, 1, 2);
        a.record_span(CycleCategory::MemStall, 2, 0, 1);
        let mut b = CycleAccounting::new();
        b.record_span(CycleCategory::Drained, 0, 0, 1);
        let mut m = CycleAccounting::new();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.total(), 4);
        assert_eq!(m.get(CycleCategory::Issued), 2);
        assert_eq!(m.get(CycleCategory::Drained), 1);
        assert_eq!(m.resident_warp_cycles(), 4);
        assert_eq!(m.eligible_warp_cycles(), 2);
    }

    #[test]
    fn snapshot_round_trip_is_byte_idempotent() {
        let mut a = CycleAccounting::new();
        a.record_span(CycleCategory::RtStall, 7, 3, 1);
        a.record_span(CycleCategory::IcntStall, 0, 0, 1);
        let mut e = vksim_snapshot::Enc::new();
        a.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let back = CycleAccounting::load(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, a);
        let mut e2 = vksim_snapshot::Enc::new();
        back.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    fn tiny_report() -> ProfReport {
        let mut sm0 = CycleAccounting::new();
        sm0.record_span(CycleCategory::Issued, 2, 1, 6);
        sm0.record_span(CycleCategory::MemStall, 2, 1, 4);
        let mut sm1 = CycleAccounting::new();
        sm1.record_span(CycleCategory::Drained, 0, 0, 10);
        ProfReport {
            cycles: 10,
            per_sm: vec![sm0, sm1],
            issued_insts: 6,
            issued_lanes: 96,
        }
    }

    #[test]
    fn conservation_and_top_stall() {
        let r = tiny_report();
        assert!(r.conservation_holds());
        assert_eq!(r.top_stall(), CycleCategory::Drained);
    }

    #[test]
    fn flat_json_parses_and_has_fixed_schema() {
        let r = tiny_report();
        let json = r.flat_json();
        // 4 run-context keys + 9 merged keys + 9 per SM.
        let map = r.flat_map();
        assert_eq!(map.len(), 4 + 9 + 9 * 2);
        assert_eq!(map["total.issued"], 6);
        assert_eq!(map["sm1.drained"], 10);
        assert_eq!(map["sm0.resident_warp_cycles"], 20);
        // Deterministic output.
        assert_eq!(json, r.flat_json());
        assert!(json.ends_with("\n}\n"));
    }

    #[test]
    fn summary_names_top_stall_and_ipc() {
        let s = tiny_report().summary();
        assert!(s.contains("cycle accounting"));
        assert!(s.contains("top stall: drained"));
        assert!(s.contains("ipc: 0.600 achieved / 2 peak"));
        assert!(s.contains("simt efficiency: 50.00%"));
    }
}
