//! Ray-traversal workload characterization (`VKSIM_RT_ANALYTICS`).
//!
//! Where cycle accounting ([`crate::CycleAccounting`]) answers *what the SMs
//! spent their cycles on*, this module answers *what the rays did to the
//! acceleration structure*: per-BVH-node visit/hit heatmaps keyed by node
//! id and tree depth, per-ray histograms (nodes visited, box tests,
//! triangle tests, traversal restarts), per-BVH-level memory reuse
//! (visits vs distinct 32 B lines touched), warp traversal-coherence
//! distributions (active-lane occupancy per RT step, integer-exact
//! warp·step integrals), and per-job RT-unit step/latency attribution.
//!
//! Three recorder types feed one [`RtReport`]:
//!
//! * [`TraversalAnalytics`] lives on the run's one functional runtime;
//!   per-node and per-ray facts are recorded at traversal time.
//! * [`WarpCoherence`] lives on each SM and tallies active-lane
//!   occupancy per traversal step at `TraceRay` issue.
//! * RT-unit job attribution (jobs retired, script steps consumed,
//!   summed traversal latency) is tallied inside `vksim-rtunit` and
//!   carried here as plain integers per SM ([`RtSmAnalytics`]).
//!
//! Everything is integer-exact, keys iterate in `BTreeMap` order, and
//! the flat JSON matches the golden-counter shape — so exports diff
//! byte-for-byte run-to-run and across checkpoint/resume.

use std::collections::{BTreeMap, BTreeSet};

/// Number of buckets in each per-ray histogram: bucket 0 holds zeros,
/// bucket `b >= 1` holds values in `[2^(b-1), 2^b)`, and the last bucket
/// saturates.
pub const RAY_HIST_BUCKETS: usize = 16;

/// Warp-occupancy tally width: one slot per possible active-lane count
/// (index 0 is unused — a traversal step exists only while some lane is
/// still walking).
pub const WARP_OCC_BUCKETS: usize = 33;

/// Number of per-window RT counter series exported to the Chrome trace:
/// trace warps launched, lane steps (warp·step integral), warp steps,
/// and RT-unit script steps consumed.
pub const NUM_RT_SERIES: usize = 4;

/// Power-of-two-bucketed histogram over one per-ray statistic, keeping
/// the exact count and sum alongside the buckets so conservation checks
/// stay integer-exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RayHistogram {
    buckets: [u64; RAY_HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for RayHistogram {
    fn default() -> Self {
        RayHistogram {
            buckets: [0; RAY_HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl RayHistogram {
    /// The bucket index a value lands in.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(RAY_HIST_BUCKETS - 1)
        }
    }

    /// Tallies one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Bucket tallies, index 0 first.
    pub fn buckets(&self) -> &[u64; RAY_HIST_BUCKETS] {
        &self.buckets
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

vksim_snapshot::snap_struct!(RayHistogram {
    buckets,
    count,
    sum
});

/// Heatmap key: BVH space (`false` = top-level, `true` = bottom-level),
/// tree depth within that space, node index within its arena.
pub type NodeKey = (bool, u32, u32);

/// Per-node heatmap cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCell {
    /// Times the node was fetched.
    pub visits: u64,
    /// Visits that contributed (child/instance/triangle/procedural hit).
    pub hits: u64,
}

/// Traversal-side analytics: per-node heatmap, per-level line reuse, and
/// per-ray histograms, recorded by the run's RT runtime (and saved in its
/// checkpoints).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraversalAnalytics {
    nodes: BTreeMap<NodeKey, NodeCell>,
    /// `(blas, depth)` → distinct 32 B lines fetched at that level.
    level_lines: BTreeMap<(bool, u32), BTreeSet<u64>>,
    rays: u64,
    ray_nodes: RayHistogram,
    ray_box: RayHistogram,
    ray_tri: RayHistogram,
    ray_restarts: RayHistogram,
}

impl TraversalAnalytics {
    /// Tallies one node visit.
    pub fn record_visit(&mut self, blas: bool, depth: u32, node: u32, addr: u64, hit: bool) {
        let cell = self.nodes.entry((blas, depth, node)).or_default();
        cell.visits += 1;
        cell.hits += u64::from(hit);
        self.level_lines
            .entry((blas, depth))
            .or_default()
            .insert(addr >> 5);
    }

    /// Tallies one completed ray.
    pub fn record_ray(&mut self, nodes: u64, box_tests: u64, tri_tests: u64, restarts: u64) {
        self.rays += 1;
        self.ray_nodes.record(nodes);
        self.ray_box.record(box_tests);
        self.ray_tri.record(tri_tests);
        self.ray_restarts.record(restarts);
    }

    /// Rays recorded.
    pub fn rays(&self) -> u64 {
        self.rays
    }

    /// The per-node heatmap.
    pub fn nodes(&self) -> &BTreeMap<NodeKey, NodeCell> {
        &self.nodes
    }

    /// Σ visits over every heatmap cell — one leg of the conservation
    /// invariant.
    pub fn visit_total(&self) -> u64 {
        self.nodes.values().map(|c| c.visits).sum()
    }

    /// Σ hits over every heatmap cell.
    pub fn hit_total(&self) -> u64 {
        self.nodes.values().map(|c| c.hits).sum()
    }

    /// The four per-ray histograms: nodes visited, box tests, triangle
    /// tests, traversal restarts.
    pub fn histograms(&self) -> [(&'static str, &RayHistogram); 4] {
        [
            ("nodes", &self.ray_nodes),
            ("box", &self.ray_box),
            ("tri", &self.ray_tri),
            ("restarts", &self.ray_restarts),
        ]
    }

    /// Per-level roll-up sorted by `(blas, depth)`: visits and distinct
    /// lines touched at each tree level.
    pub fn levels(&self) -> BTreeMap<(bool, u32), (u64, u64)> {
        let mut out: BTreeMap<(bool, u32), (u64, u64)> = BTreeMap::new();
        for (&(blas, depth, _), cell) in &self.nodes {
            out.entry((blas, depth)).or_default().0 += cell.visits;
        }
        for (&k, lines) in &self.level_lines {
            out.entry(k).or_default().1 = lines.len() as u64;
        }
        out
    }
}

vksim_snapshot::snap_struct!(NodeCell { visits, hits });
vksim_snapshot::snap_struct!(TraversalAnalytics {
    nodes,
    level_lines,
    rays,
    ray_nodes,
    ray_box,
    ray_tri,
    ray_restarts
});

/// Per-SM warp traversal-coherence recorder, fed at `TraceRay` issue
/// from the per-lane script lengths of each launched warp job.
///
/// For a warp whose lanes hold scripts of lengths `l_0..l_31`, the warp
/// front advances `max(l_i)` steps (`warp_steps`) while the integral of
/// active lanes over those steps is `Σ l_i` (`lane_steps`) — both exact
/// integers, so mean occupancy `lane_steps / warp_steps` carries no
/// float drift. The occupancy tally histograms the active-lane count of
/// every individual step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarpCoherence {
    trace_warps: u64,
    warp_steps: u64,
    lane_steps: u64,
    occ: [u64; WARP_OCC_BUCKETS],
}

impl Default for WarpCoherence {
    fn default() -> Self {
        WarpCoherence {
            trace_warps: 0,
            warp_steps: 0,
            lane_steps: 0,
            occ: [0; WARP_OCC_BUCKETS],
        }
    }
}

impl WarpCoherence {
    /// Fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tallies one warp job from its per-step active-lane counts.
    pub fn record_job<I: IntoIterator<Item = u32>>(&mut self, per_step_active: I) {
        self.trace_warps += 1;
        for lanes in per_step_active {
            self.warp_steps += 1;
            self.lane_steps += u64::from(lanes);
            self.occ[(lanes as usize).min(WARP_OCC_BUCKETS - 1)] += 1;
        }
    }

    /// Warps that launched a traversal job.
    pub fn trace_warps(&self) -> u64 {
        self.trace_warps
    }

    /// Steps the warp fronts advanced (Σ max lane-script length).
    pub fn warp_steps(&self) -> u64 {
        self.warp_steps
    }

    /// Integer warp·step integral (Σ active lanes over all steps).
    pub fn lane_steps(&self) -> u64 {
        self.lane_steps
    }

    /// Occupancy tally: `occ()[n]` counts steps with exactly `n` lanes
    /// active.
    pub fn occ(&self) -> &[u64; WARP_OCC_BUCKETS] {
        &self.occ
    }

    /// Folds another recorder in.
    pub fn merge(&mut self, other: &WarpCoherence) {
        self.trace_warps += other.trace_warps;
        self.warp_steps += other.warp_steps;
        self.lane_steps += other.lane_steps;
        for (a, b) in self.occ.iter_mut().zip(other.occ.iter()) {
            *a += b;
        }
    }
}

vksim_snapshot::snap_struct!(WarpCoherence {
    trace_warps,
    warp_steps,
    lane_steps,
    occ
});

/// One SM's slice of the analytics: its warp-coherence recorder plus the
/// RT-unit job attribution tallied inside `vksim-rtunit`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RtSmAnalytics {
    /// Warp traversal-coherence recorder.
    pub coherence: WarpCoherence,
    /// Traversal jobs the SM's RT unit retired.
    pub rtu_jobs: u64,
    /// Script steps the RT unit fully consumed.
    pub rtu_steps: u64,
    /// Σ enqueue→retire latency over retired jobs, in cycles.
    pub rtu_latency: u64,
}

/// The end-of-run ray-traversal analytics report: the runtime's
/// traversal-side tallies, one [`RtSmAnalytics`] per SM, and the RT-unit box-op counter
/// the conservation invariant ties against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RtReport {
    /// Traversal-side analytics, from the run's RT runtime.
    pub traversal: TraversalAnalytics,
    /// One per SM, indexed by SM id.
    pub per_sm: Vec<RtSmAnalytics>,
    /// Box-test operations the RT units executed (`ops.box_tests`).
    pub rt_box_ops: u64,
}

impl RtReport {
    /// Number of SMs reported.
    pub fn num_sms(&self) -> u32 {
        self.per_sm.len() as u32
    }

    /// All SMs' coherence recorders merged.
    pub fn merged_coherence(&self) -> WarpCoherence {
        let mut m = WarpCoherence::new();
        for sm in &self.per_sm {
            m.merge(&sm.coherence);
        }
        m
    }

    /// The conservation invariant, release-asserted on every golden
    /// workload:
    ///
    /// * Σ per-node heatmap visits == Σ per-ray visited-node counts
    ///   (both legs recorded independently from each traversal);
    /// * Σ per-ray box tests == RT-unit box-test operations (every
    ///   internal-node visit becomes exactly one box op in the RT unit);
    /// * every ray contributes to every histogram exactly once.
    pub fn conservation_holds(&self) -> bool {
        let t = &self.traversal;
        t.visit_total() == t.ray_nodes.sum()
            && t.ray_box.sum() == self.rt_box_ops
            && t.histograms().iter().all(|(_, h)| h.count() == t.rays())
    }

    /// The flat `name -> u64` map behind the `VKSIM_RT_ANALYTICS` JSON.
    /// Fixed-schema keys (totals, histogram buckets, occupancy tallies,
    /// per-SM roll-ups) are always present, zeros included; per-level
    /// keys follow the scene's tree shape, like the per-partition keys
    /// in the golden counters.
    pub fn flat_map(&self) -> BTreeMap<String, u64> {
        let t = &self.traversal;
        let mut map = BTreeMap::new();
        map.insert("num_sms".to_string(), u64::from(self.num_sms()));
        map.insert("rays".to_string(), t.rays());
        map.insert("nodes_visited".to_string(), t.ray_nodes.sum());
        map.insert("box_tests".to_string(), t.ray_box.sum());
        map.insert("triangle_tests".to_string(), t.ray_tri.sum());
        map.insert("restarts".to_string(), t.ray_restarts.sum());
        map.insert("heatmap.cells".to_string(), t.nodes.len() as u64);
        map.insert("heatmap.visits".to_string(), t.visit_total());
        map.insert("heatmap.hits".to_string(), t.hit_total());
        map.insert("rtu.box_ops".to_string(), self.rt_box_ops);
        for (name, hist) in t.histograms() {
            for (i, &b) in hist.buckets().iter().enumerate() {
                map.insert(format!("hist.{name}.b{i}"), b);
            }
        }
        for (&(blas, depth), &(visits, lines)) in &t.levels() {
            let space = if blas { "blas" } else { "tlas" };
            map.insert(format!("{space}.l{depth}.visits"), visits);
            map.insert(format!("{space}.l{depth}.lines"), lines);
        }
        let merged = self.merged_coherence();
        map.insert("warp.trace_warps".to_string(), merged.trace_warps);
        map.insert("warp.warp_steps".to_string(), merged.warp_steps);
        map.insert("warp.lane_steps".to_string(), merged.lane_steps);
        for n in 1..WARP_OCC_BUCKETS {
            map.insert(format!("warp.occ{n}"), merged.occ[n]);
        }
        let (mut jobs, mut steps, mut latency) = (0u64, 0u64, 0u64);
        for (i, sm) in self.per_sm.iter().enumerate() {
            map.insert(format!("sm{i}.trace_warps"), sm.coherence.trace_warps);
            map.insert(format!("sm{i}.warp_steps"), sm.coherence.warp_steps);
            map.insert(format!("sm{i}.lane_steps"), sm.coherence.lane_steps);
            map.insert(format!("sm{i}.rtu.jobs"), sm.rtu_jobs);
            map.insert(format!("sm{i}.rtu.steps"), sm.rtu_steps);
            map.insert(format!("sm{i}.rtu.latency"), sm.rtu_latency);
            jobs += sm.rtu_jobs;
            steps += sm.rtu_steps;
            latency += sm.rtu_latency;
        }
        map.insert("rtu.jobs".to_string(), jobs);
        map.insert("rtu.steps".to_string(), steps);
        map.insert("rtu.latency".to_string(), latency);
        map
    }

    /// Serializes [`RtReport::flat_map`] in the golden-counter JSON shape
    /// (keys sorted, one per line, trailing newline) so the testkit
    /// flat-JSON reader parses it and byte comparison is meaningful.
    pub fn flat_json(&self) -> String {
        crate::export::flat_json(&self.flat_map())
    }

    /// Renders the per-node heatmap as CSV (`VKSIM_RT_HEATMAP`), rows
    /// sorted by `(space, depth, node)`.
    pub fn heatmap_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("space,depth,node,visits,hits\n");
        for (&(blas, depth, node), cell) in &self.traversal.nodes {
            let space = if blas { "blas" } else { "tlas" };
            let _ = writeln!(out, "{space},{depth},{node},{},{}", cell.visits, cell.hits);
        }
        out
    }

    /// Renders the human `--rt-summary` table: totals, top-visited
    /// nodes, the depth profile, warp coherence, and RT-unit latency.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let t = &self.traversal;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== rt analytics: {} rays, {} node visits over {} nodes ===",
            t.rays(),
            t.visit_total(),
            t.nodes.len()
        );
        let mean = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        let _ = writeln!(
            out,
            "  per ray: {:.2} nodes, {:.2} box tests, {:.2} triangle tests, {:.3} restarts",
            mean(t.ray_nodes.sum(), t.rays()),
            mean(t.ray_box.sum(), t.rays()),
            mean(t.ray_tri.sum(), t.rays()),
            mean(t.ray_restarts.sum(), t.rays()),
        );
        let _ = writeln!(out, "  top visited nodes:");
        let mut cells: Vec<(&NodeKey, &NodeCell)> = t.nodes.iter().collect();
        cells.sort_by(|a, b| b.1.visits.cmp(&a.1.visits).then(a.0.cmp(b.0)));
        for (&(blas, depth, node), cell) in cells.into_iter().take(10) {
            let space = if blas { "blas" } else { "tlas" };
            let _ = writeln!(
                out,
                "    {space:<4} d{depth:<2} n{node:<6} {:>10} visits {:>10} hits",
                cell.visits, cell.hits
            );
        }
        let _ = writeln!(out, "  depth profile (visits / distinct lines):");
        for (&(blas, depth), &(visits, lines)) in &t.levels() {
            let space = if blas { "blas" } else { "tlas" };
            let _ = writeln!(out, "    {space:<4} l{depth:<2} {visits:>10} / {lines}");
        }
        let c = self.merged_coherence();
        let _ = writeln!(
            out,
            "  warp coherence: {} trace warps, mean {:.2} active rays per RT step",
            c.trace_warps(),
            mean(c.lane_steps(), c.warp_steps()),
        );
        let (jobs, latency): (u64, u64) = self
            .per_sm
            .iter()
            .fold((0, 0), |(j, l), sm| (j + sm.rtu_jobs, l + sm.rtu_latency));
        let _ = writeln!(
            out,
            "  rt unit: {} jobs retired, mean traversal latency {:.1} cycles",
            jobs,
            mean(latency, jobs),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_snapshot::Snap;
    use vksim_snapshot::{Dec, Enc};

    #[test]
    fn histogram_buckets_are_power_of_two_ranges() {
        assert_eq!(RayHistogram::bucket_of(0), 0);
        assert_eq!(RayHistogram::bucket_of(1), 1);
        assert_eq!(RayHistogram::bucket_of(2), 2);
        assert_eq!(RayHistogram::bucket_of(3), 2);
        assert_eq!(RayHistogram::bucket_of(4), 3);
        assert_eq!(RayHistogram::bucket_of(7), 3);
        assert_eq!(RayHistogram::bucket_of(u64::MAX), RAY_HIST_BUCKETS - 1);
        let mut h = RayHistogram::default();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
    }

    fn sample_traversal() -> TraversalAnalytics {
        let mut t = TraversalAnalytics::default();
        t.record_visit(false, 0, 0, 0x1000, true);
        t.record_visit(false, 0, 0, 0x1000, false);
        t.record_visit(true, 1, 3, 0x2040, true);
        t.record_ray(2, 6, 0, 0);
        t.record_ray(1, 6, 1, 1);
        t
    }

    #[test]
    fn record_visit_counts_a_line_once_per_level() {
        let mut t = sample_traversal();
        assert_eq!(t.levels()[&(false, 0)], (2, 1), "one line, two visits");
        // Another node in the same 32 B line adds a visit, not a line.
        t.record_visit(false, 0, 1, 0x101f, false);
        assert_eq!(t.levels()[&(false, 0)], (3, 1));
        // The next line does count, and so does the same line one level
        // down: lines are distinct per level.
        t.record_visit(false, 0, 2, 0x1020, false);
        t.record_visit(false, 1, 5, 0x1000, true);
        assert_eq!(t.levels()[&(false, 0)], (4, 2));
        assert_eq!(t.levels()[&(false, 1)], (1, 1));
        assert_eq!(t.levels()[&(true, 1)], (1, 1));
        assert_eq!(t.visit_total(), 6);
        assert_eq!(t.hit_total(), 3);
    }

    #[test]
    fn snapshot_round_trip_is_byte_idempotent() {
        let t = sample_traversal();
        let mut wc = WarpCoherence::new();
        wc.record_job([3, 3, 1]);

        let mut e = Enc::new();
        t.save(&mut e);
        wc.save(&mut e);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        let t2 = TraversalAnalytics::load(&mut d).unwrap();
        let wc2 = WarpCoherence::load(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(t2, t);
        assert_eq!(wc2, wc);

        let mut e2 = Enc::new();
        t2.save(&mut e2);
        wc2.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes, "re-save is byte-identical");
    }

    #[test]
    fn warp_coherence_integrals_are_exact() {
        let mut wc = WarpCoherence::new();
        // Lanes with script lengths [3, 2, 0, 1]: steps see 3, 2, 1 lanes.
        wc.record_job([3, 2, 1]);
        assert_eq!(wc.trace_warps(), 1);
        assert_eq!(wc.warp_steps(), 3);
        assert_eq!(wc.lane_steps(), 6);
        assert_eq!(wc.occ()[1], 1);
        assert_eq!(wc.occ()[2], 1);
        assert_eq!(wc.occ()[3], 1);
    }

    fn tiny_report() -> RtReport {
        let mut r = RtReport {
            traversal: sample_traversal(),
            per_sm: vec![RtSmAnalytics::default(), RtSmAnalytics::default()],
            rt_box_ops: 12,
        };
        r.per_sm[0].coherence.record_job([2, 1]);
        r.per_sm[0].rtu_jobs = 1;
        r.per_sm[0].rtu_steps = 3;
        r.per_sm[0].rtu_latency = 40;
        r.per_sm[1].rtu_jobs = 1;
        r.per_sm[1].rtu_steps = 2;
        r.per_sm[1].rtu_latency = 25;
        r
    }

    #[test]
    fn conservation_checks_all_three_legs() {
        let mut r = tiny_report();
        assert!(r.conservation_holds());
        r.rt_box_ops += 1;
        assert!(!r.conservation_holds(), "box-op mismatch must trip");
        r.rt_box_ops -= 1;
        r.traversal.record_visit(false, 0, 9, 0x5000, false);
        assert!(!r.conservation_holds(), "visit-count mismatch must trip");
    }

    #[test]
    fn flat_json_parses_and_has_fixed_schema() {
        let r = tiny_report();
        let json = r.flat_json();
        assert!(json.ends_with("\n}\n"));
        // 10 scalars + 3 rtu totals + 4×16 histogram buckets + 3 merged
        // warp counters + 32 occupancy tallies + 6 per-SM keys per SM +
        // 2 keys per populated level (tlas.l0, blas.l1 here).
        let keys = json.matches(':').count();
        assert_eq!(keys, 10 + 3 + 64 + 3 + 32 + 6 * 2 + 2 * 2);
        assert_eq!(r.flat_json(), json, "deterministic render");
        assert!(json.contains("\"heatmap.visits\": 3"));
        assert!(json.contains("\"warp.occ2\": 1"));
        assert!(json.contains("\"sm1.rtu.latency\": 25"));
        assert!(json.contains("\"tlas.l0.lines\": 1"));
    }

    #[test]
    fn heatmap_csv_and_summary_render() {
        let r = tiny_report();
        let csv = r.heatmap_csv();
        assert!(csv.starts_with("space,depth,node,visits,hits\n"));
        assert_eq!(csv.lines().count(), 1 + r.traversal.nodes().len());
        assert!(csv.contains("tlas,0,0,2,1"));
        let s = r.summary();
        assert!(s.contains("rt analytics: 2 rays"));
        assert!(s.contains("top visited nodes:"));
        assert!(s.contains("depth profile"));
        assert!(s.contains("warp coherence:"));
    }
}
