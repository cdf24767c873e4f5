//! BVH construction: binned-SAH binary build collapsed into a 6-wide BVH.
//!
//! Mesa's acceleration-structure build produces the 6-wide tree the paper's
//! traversal consumes. We reproduce the standard pipeline: a binary BVH
//! built top-down with a binned surface-area heuristic, then a collapse pass
//! that greedily merges binary nodes into nodes of up to [`BVH_WIDTH`]
//! children (the child with the largest surface area is expanded first).

use crate::node::{InstanceLeaf, InternalNode, Node, ProceduralLeaf, TriangleLeaf, WideBvh};
use crate::BVH_WIDTH;
use vksim_math::{Aabb, Vec3};

/// Build-time tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BuildOptions {
    /// Number of SAH bins per axis.
    pub sah_bins: usize,
    /// Below this many primitives a median split replaces SAH binning.
    pub min_sah_prims: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            sah_bins: 16,
            min_sah_prims: 4,
        }
    }
}

/// One input item to a build: a bounding box plus the leaf node that will
/// represent it.
#[derive(Clone, Debug)]
pub struct BuildItem {
    /// Item bounds.
    pub aabb: Aabb,
    /// Leaf payload (already fully formed).
    pub leaf: Node,
}

impl BuildItem {
    /// Convenience constructor for a triangle leaf item.
    pub fn triangle(leaf: TriangleLeaf) -> Self {
        BuildItem {
            aabb: leaf.triangle.aabb(),
            leaf: Node::Triangle(leaf),
        }
    }

    /// Convenience constructor for a procedural leaf item.
    pub fn procedural(leaf: ProceduralLeaf) -> Self {
        BuildItem {
            aabb: leaf.aabb,
            leaf: Node::Procedural(leaf),
        }
    }

    /// Convenience constructor for an instance leaf item.
    pub fn instance(aabb: Aabb, leaf: InstanceLeaf) -> Self {
        BuildItem {
            aabb,
            leaf: Node::Instance(leaf),
        }
    }
}

/// One node of the binary tree the build makes first, held in a flat
/// arena: a leaf names its input item, an internal node its bounds and the
/// arena indices of its two children.
#[derive(Clone, Copy)]
enum BinNode {
    Leaf(u32),
    Internal { aabb: Aabb, left: u32, right: u32 },
}

/// State of one build: per-item bounds and centroids extracted once, the
/// binary-node arena, and buffers every split reuses (`bins` holds the bin
/// of each item of the slice being split, `scratch` receives the scatter).
struct Builder {
    min_sah_prims: usize,
    aabbs: Vec<Aabb>,
    centers: Vec<Vec3>,
    arena: Vec<BinNode>,
    bins: Vec<u32>,
    scratch: Vec<u32>,
    bin_bounds: Vec<Aabb>,
    bin_counts: Vec<usize>,
    right_acc: Vec<(Aabb, usize)>,
}

/// Builds a linearized wide BVH from leaf items.
///
/// Returns an empty [`WideBvh`] for empty input. A single item produces a
/// root internal node with one leaf child, so traversal always starts at an
/// internal node (matching Algorithm 2's entry condition).
pub fn build_wide_bvh(items: Vec<BuildItem>, opts: &BuildOptions) -> WideBvh {
    if items.is_empty() {
        return WideBvh::default();
    }
    let n = items.len();
    let nbins = opts.sah_bins.max(2);
    let aabbs: Vec<Aabb> = items.iter().map(|i| i.aabb).collect();
    let mut b = Builder {
        min_sah_prims: opts.min_sah_prims,
        centers: aabbs.iter().map(Aabb::center).collect(),
        aabbs,
        arena: Vec::with_capacity(2 * n - 1),
        bins: vec![0; n],
        scratch: vec![0; n],
        bin_bounds: vec![Aabb::EMPTY; nbins],
        bin_counts: vec![0; nbins],
        right_acc: vec![(Aabb::EMPTY, 0); nbins],
    };
    let n32 = u32::try_from(n).expect("item indices fit in u32");
    let mut indices: Vec<u32> = (0..n32).collect();
    let root = b.build_binary(&mut indices);

    // Linearize so that siblings are consecutive in memory and internal
    // nodes need only a first-child pointer (paper §III-B1): each wide node
    // allocates its children as one block at the end of the array. Internal
    // children wait on a LIFO stack, pushed in child order, so the next
    // block laid out belongs to the most recently pushed (last) child: the
    // blocks follow a depth-first walk that takes children last to first.
    let (kids, count) = b.wide_children(root);
    let root_aabb = kids[..count]
        .iter()
        .fold(Aabb::EMPTY, |a, &k| a.union(&b.aabb(k)));
    let empty = InternalNode {
        child_bounds: [Aabb::EMPTY; BVH_WIDTH],
        children: [u32::MAX; BVH_WIDTH],
        child_count: 0,
    };
    let mut nodes = vec![Node::Internal(empty.clone())];
    let mut stack = vec![(root, 0usize, 1u32)]; // (binary node, slot, level)
    let mut depth = 1;
    while let Some((id, slot, level)) = stack.pop() {
        let (kids, count) = b.wide_children(id);
        let mut internal = empty.clone();
        internal.child_count = count as u8;
        depth = depth.max(level + 1);
        for (i, &kid) in kids[..count].iter().enumerate() {
            let idx = nodes.len();
            internal.child_bounds[i] = b.aabb(kid);
            internal.children[i] = idx as u32;
            match b.arena[kid as usize] {
                BinNode::Leaf(item) => nodes.push(items[item as usize].leaf.clone()),
                BinNode::Internal { .. } => {
                    nodes.push(Node::Internal(empty.clone()));
                    stack.push((kid, idx, level + 1));
                }
            }
        }
        nodes[slot] = Node::Internal(internal);
    }

    // Assign byte offsets in arena order (siblings were allocated
    // consecutively, so consecutive indices means consecutive bytes).
    let mut offsets = Vec::with_capacity(nodes.len());
    let mut cursor = 0u64;
    for n in &nodes {
        offsets.push(cursor);
        cursor += n.kind().size_bytes();
    }

    WideBvh {
        nodes,
        offsets,
        size_bytes: cursor,
        depth,
        aabb: root_aabb,
    }
}

impl Builder {
    fn aabb(&self, id: u32) -> Aabb {
        match self.arena[id as usize] {
            BinNode::Leaf(item) => self.aabbs[item as usize],
            BinNode::Internal { aabb, .. } => aabb,
        }
    }

    fn push(&mut self, node: BinNode) -> u32 {
        self.arena.push(node);
        self.arena.len() as u32 - 1
    }

    /// Builds the binary subtree over `indices` top-down and returns its
    /// arena index; reorders `indices` so each child owns a sub-slice.
    fn build_binary(&mut self, indices: &mut [u32]) -> u32 {
        if let [item] = *indices {
            return self.push(BinNode::Leaf(item));
        }
        let centroid_bounds = indices
            .iter()
            .fold(Aabb::EMPTY, |a, &i| a.union_point(self.centers[i as usize]));
        let axis = centroid_bounds.longest_axis();
        let extent = centroid_bounds.extent()[axis];

        let split = if extent <= 0.0 {
            // All centroids coincide: split in half by index.
            indices.len() / 2
        } else if indices.len() < self.min_sah_prims {
            self.median_split(indices, axis)
        } else {
            self.sah_split(indices, axis, &centroid_bounds)
                .unwrap_or_else(|| self.median_split(indices, axis))
        };
        let split = split.clamp(1, indices.len() - 1);
        let (left, right) = indices.split_at_mut(split);
        let left = self.build_binary(left);
        let right = self.build_binary(right);
        let aabb = self.aabb(left).union(&self.aabb(right));
        self.push(BinNode::Internal { aabb, left, right })
    }

    fn median_split(&self, indices: &mut [u32], axis: usize) -> usize {
        let key = |i: u32| self.centers[i as usize][axis];
        indices.sort_by(|&a, &b| {
            key(a)
                .partial_cmp(&key(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        indices.len() / 2
    }

    /// Binned SAH split. Reorders `indices` by bin so that `[0, split)` is
    /// the left child; returns `None`, order untouched, when no bin
    /// boundary leaves both sides non-empty.
    ///
    /// The reorder is a stable counting scatter: each item is binned once,
    /// bin counts become start offsets, and items are dropped at their
    /// bin's cursor in slice order. That is exactly the permutation a
    /// stable sort by bin yields, so the children see the same sequence.
    fn sah_split(&mut self, indices: &mut [u32], axis: usize, cb: &Aabb) -> Option<usize> {
        let (lo, extent, nbins) = (cb.min[axis], cb.extent()[axis], self.bin_bounds.len());
        let bins = &mut self.bins[..indices.len()];
        let (bin_bounds, bin_counts) = (&mut self.bin_bounds, &mut self.bin_counts);
        bin_bounds.fill(Aabb::EMPTY);
        bin_counts.fill(0);
        for (bin, &i) in bins.iter_mut().zip(indices.iter()) {
            let c = self.centers[i as usize][axis];
            let b = (((c - lo) / extent * nbins as f32) as usize).min(nbins - 1);
            *bin = b as u32;
            bin_bounds[b] = bin_bounds[b].union(&self.aabbs[i as usize]);
            bin_counts[b] += 1;
        }

        // Sweep to find the cheapest boundary: cost = A_l*n_l + A_r*n_r.
        let right_acc = &mut self.right_acc;
        let mut acc = Aabb::EMPTY;
        let mut cnt = 0;
        for b in (1..nbins).rev() {
            acc = acc.union(&bin_bounds[b]);
            cnt += bin_counts[b];
            right_acc[b] = (acc, cnt);
        }
        let mut best: Option<(usize, f32)> = None;
        let mut left_box = Aabb::EMPTY;
        let mut left_cnt = 0usize;
        for b in 1..nbins {
            left_box = left_box.union(&bin_bounds[b - 1]);
            left_cnt += bin_counts[b - 1];
            let (rbox, rcnt) = right_acc[b];
            if left_cnt == 0 || rcnt == 0 {
                continue;
            }
            let cost =
                left_box.surface_area() * left_cnt as f32 + rbox.surface_area() * rcnt as f32;
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((b, cost));
            }
        }
        let (boundary, _) = best?;

        let mut start = 0;
        for count in bin_counts.iter_mut() {
            (*count, start) = (start, start + *count);
        }
        let scratch = &mut self.scratch[..indices.len()];
        for (&i, &b) in indices.iter().zip(bins.iter()) {
            scratch[bin_counts[b as usize]] = i;
            bin_counts[b as usize] += 1;
        }
        indices.copy_from_slice(scratch);
        // Each cursor now sits at its bin's end.
        Some(bin_counts[boundary - 1])
    }

    /// The children of the wide node made from binary node `id`. A leaf
    /// (the single-item root) is its own only child. An internal node opens
    /// into its two children; then, until there are [`BVH_WIDTH`], the
    /// internal child with the largest surface area (the first on a tie) is
    /// replaced, as `Vec::swap_remove` would, by its own two, pushed last.
    fn wide_children(&self, id: u32) -> ([u32; BVH_WIDTH], usize) {
        let mut pool = [id; BVH_WIDTH];
        let BinNode::Internal { left, right, .. } = self.arena[id as usize] else {
            return (pool, 1);
        };
        (pool[0], pool[1]) = (left, right);
        let mut len = 2;
        while len < BVH_WIDTH {
            let mut best: Option<(usize, f32)> = None;
            for (i, &n) in pool[..len].iter().enumerate() {
                if let BinNode::Internal { aabb, .. } = self.arena[n as usize] {
                    let area = aabb.surface_area();
                    if best.is_none_or(|(_, a)| area > a) {
                        best = Some((i, area));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            let BinNode::Internal { left, right, .. } = self.arena[pool[i] as usize] else {
                unreachable!()
            };
            pool[i] = pool[len - 1];
            (pool[len - 1], pool[len]) = (left, right);
            len += 1;
        }
        (pool, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Triangle;
    use vksim_testkit::prop::{check, f32_in, u32_in, vec_of};
    use vksim_testkit::prop_assert;

    /// Raw item `(x, y, z, half_size)` for [`builder_properties`].
    type RawItem = (f32, f32, f32, f32);

    /// Items for [`builder_properties`], one procedural leaf per raw entry:
    /// free boxes (mode 0); the same boxes with centroids snapped to four
    /// points, so many coincide while the boxes differ (1); one box repeated
    /// (2); or only the first one to three free boxes, the median-split
    /// sizes (3).
    fn prop_items(mode: u32, raw: &[RawItem]) -> Vec<BuildItem> {
        let raw = match mode {
            3 => &raw[..raw.len().min(1 + raw.len() % 3)],
            _ => raw,
        };
        raw.iter()
            .enumerate()
            .map(|(i, &(x, y, z, h))| {
                let (c, h) = match mode {
                    1 => (Vec3::new(x.signum(), 0.0, z.signum()), h),
                    2 => (Vec3::ZERO, 1.0),
                    _ => (Vec3::new(x, y, z), h),
                };
                BuildItem::procedural(ProceduralLeaf {
                    primitive_index: i as u32,
                    geometry_index: 0,
                    shader_id: 0,
                    aabb: Aabb::new(c - Vec3::splat(h), c + Vec3::splat(h)),
                })
            })
            .collect()
    }

    /// `true` when `outer` contains `inner` (union is exact min/max).
    fn contains(outer: &Aabb, inner: &Aabb) -> bool {
        outer.union(inner) == *outer
    }

    /// Union of the item boxes under node `idx`, counting each leaf visit in
    /// `seen`; fails when a declared child box does not contain its subtree.
    fn subtree(b: &WideBvh, idx: u32, boxes: &[Aabb], seen: &mut [u32]) -> Result<Aabb, String> {
        match &b.nodes[idx as usize] {
            Node::Internal(int) => {
                let mut total = Aabb::EMPTY;
                for (c, declared) in int.iter_children() {
                    let actual = subtree(b, c, boxes, seen)?;
                    prop_assert!(
                        contains(declared, &actual),
                        "node {idx}: child {c} escapes its declared bounds"
                    );
                    total = total.union(&actual);
                }
                Ok(total)
            }
            Node::Procedural(p) => {
                seen[p.primitive_index as usize] += 1;
                Ok(boxes[p.primitive_index as usize])
            }
            other => Err(format!("node {idx}: unexpected {other:?}")),
        }
    }

    #[test]
    fn builder_properties() {
        let coord = || f32_in(-10.0, 10.0);
        let raw = vec_of((coord(), coord(), coord(), f32_in(0.0, 2.0)), 1, 96);
        check(&(u32_in(0, 4), raw), |(mode, raw)| {
            let items = prop_items(*mode, raw);
            let boxes: Vec<Aabb> = items.iter().map(|i| i.aabb).collect();
            for sah_bins in [1, 2, 3, 16, 64, 256] {
                for min_sah_prims in [0, 4, 1000] {
                    let opts = BuildOptions {
                        sah_bins,
                        min_sah_prims,
                    };
                    let b = build_wide_bvh(items.clone(), &opts);
                    b.check_invariants().map_err(|e| format!("{opts:?}: {e}"))?;
                    let mut seen = vec![0u32; items.len()];
                    let all =
                        subtree(&b, 0, &boxes, &mut seen).map_err(|e| format!("{opts:?}: {e}"))?;
                    prop_assert!(
                        seen.iter().all(|&s| s == 1),
                        "{opts:?}: leaf visit counts {seen:?}"
                    );
                    prop_assert!(contains(&b.aabb, &all), "{opts:?}: root box");
                }
            }
            Ok(())
        });
    }

    fn tri_grid(n: usize) -> Vec<BuildItem> {
        let mut v = Vec::new();
        for i in 0..n {
            let x = i as f32 * 2.0;
            let t = Triangle::new(
                Vec3::new(x, 0.0, 0.0),
                Vec3::new(x + 1.0, 0.0, 0.0),
                Vec3::new(x, 1.0, 0.0),
            );
            v.push(BuildItem::triangle(TriangleLeaf {
                primitive_index: i as u32,
                geometry_index: 0,
                triangle: t,
            }));
        }
        v
    }

    #[test]
    fn empty_input_builds_empty_bvh() {
        let b = build_wide_bvh(Vec::new(), &BuildOptions::default());
        assert!(b.is_empty());
    }

    #[test]
    fn single_item_gets_internal_root() {
        let b = build_wide_bvh(tri_grid(1), &BuildOptions::default());
        assert_eq!(b.node_count(), 2);
        assert!(matches!(b.nodes[0], Node::Internal(_)));
        assert!(matches!(b.nodes[1], Node::Triangle(_)));
        assert_eq!(b.depth, 2);
        b.check_invariants().unwrap();
    }

    #[test]
    fn all_leaves_present_exactly_once() {
        for n in [2usize, 3, 6, 7, 13, 64, 257] {
            let b = build_wide_bvh(tri_grid(n), &BuildOptions::default());
            let mut seen = vec![false; n];
            for node in &b.nodes {
                if let Node::Triangle(t) = node {
                    assert!(!seen[t.primitive_index as usize], "duplicate leaf");
                    seen[t.primitive_index as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "missing leaf for n={n}");
            b.check_invariants().unwrap();
        }
    }

    #[test]
    fn children_bounded_by_width() {
        let b = build_wide_bvh(tri_grid(100), &BuildOptions::default());
        for node in &b.nodes {
            if let Node::Internal(i) = node {
                assert!(i.child_count as usize <= BVH_WIDTH);
                assert!(i.child_count >= 1);
            }
        }
    }

    #[test]
    fn child_bounds_contain_descendants() {
        let b = build_wide_bvh(tri_grid(50), &BuildOptions::default());
        fn check(b: &WideBvh, idx: u32) -> Aabb {
            match &b.nodes[idx as usize] {
                Node::Internal(int) => {
                    let mut total = Aabb::EMPTY;
                    for (c, declared) in int.iter_children() {
                        let actual = check(b, c);
                        // Declared child bounds must contain actual bounds.
                        assert!(declared.min.x <= actual.min.x + 1e-5);
                        assert!(declared.max.x >= actual.max.x - 1e-5);
                        total = total.union(declared);
                    }
                    total
                }
                Node::Triangle(t) => t.triangle.aabb(),
                Node::Procedural(p) => p.aabb,
                Node::Instance(_) => Aabb::EMPTY,
            }
        }
        check(&b, 0);
    }

    #[test]
    fn depth_is_logarithmic_for_uniform_input() {
        let b = build_wide_bvh(tri_grid(1000), &BuildOptions::default());
        // 6-wide tree over 1000 leaves: depth should be well under 20.
        assert!(b.depth >= 4, "depth {} too shallow", b.depth);
        assert!(b.depth <= 20, "depth {} too deep", b.depth);
    }

    #[test]
    fn offsets_are_64_byte_aligned_for_primitives() {
        let b = build_wide_bvh(tri_grid(10), &BuildOptions::default());
        for (node, &off) in b.nodes.iter().zip(&b.offsets) {
            if node.kind() != crate::node::NodeKind::InstanceLeaf {
                assert_eq!(off % 64, 0);
            }
        }
        assert_eq!(b.size_bytes % 64, 0);
    }

    #[test]
    fn identical_centroids_still_split() {
        // All triangles identical: degenerate centroid extent.
        let items: Vec<BuildItem> = (0..8)
            .map(|i| {
                BuildItem::triangle(TriangleLeaf {
                    primitive_index: i,
                    geometry_index: 0,
                    triangle: Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y),
                })
            })
            .collect();
        let b = build_wide_bvh(items, &BuildOptions::default());
        assert_eq!(
            b.nodes
                .iter()
                .filter(|n| matches!(n, Node::Triangle(_)))
                .count(),
            8
        );
        b.check_invariants().unwrap();
    }
}
