//! Wide BVH node representation and memory layout.
//!
//! The *logical* node contents live in Rust structs; the *physical* layout
//! (node sizes and addresses) matches Fig. 7 of the paper so that traversal
//! generates byte-accurate memory transactions:
//!
//! | node                   | size  | contents                                            |
//! |------------------------|-------|-----------------------------------------------------|
//! | internal (TLAS & BLAS) | 64 B  | first-child pointer + per-child AABBs               |
//! | top-level (instance)   | 128 B | BLAS root pointer, O2W & W2O matrices, user indices |
//! | triangle leaf          | 64 B  | leaf descriptor, primitive index, vertices          |
//! | procedural leaf        | 64 B  | leaf descriptor, primitive index                    |
//!
//! Children of an internal node are stored consecutively, so the node only
//! needs the first child's pointer (paper §III-B1).

use crate::geometry::Triangle;
use crate::BVH_WIDTH;
use vksim_math::Aabb;

/// Byte size of an internal node (Fig. 7a).
pub const INTERNAL_NODE_SIZE: u64 = 64;
/// Byte size of a top-level (instance) leaf node (Fig. 7b).
pub const INSTANCE_LEAF_SIZE: u64 = 128;
/// Byte size of a triangle or procedural leaf (Fig. 7c).
pub const PRIMITIVE_LEAF_SIZE: u64 = 64;

/// Discriminates node types; physically part of the leaf descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Internal 6-wide node.
    Internal,
    /// Bottom-level triangle leaf.
    TriangleLeaf,
    /// Bottom-level procedural leaf.
    ProceduralLeaf,
    /// Top-level leaf referencing a BLAS instance.
    InstanceLeaf,
}

impl NodeKind {
    /// Physical size in bytes of a node of this kind.
    pub fn size_bytes(self) -> u64 {
        match self {
            NodeKind::Internal | NodeKind::TriangleLeaf | NodeKind::ProceduralLeaf => {
                INTERNAL_NODE_SIZE
            }
            NodeKind::InstanceLeaf => INSTANCE_LEAF_SIZE,
        }
    }
}

/// An internal node: up to [`BVH_WIDTH`] children with their bounding boxes.
#[derive(Clone, Debug, PartialEq)]
pub struct InternalNode {
    /// Bounding box of each child (unused slots are `Aabb::EMPTY`).
    pub child_bounds: [Aabb; BVH_WIDTH],
    /// Arena index of each child (unused slots are `u32::MAX`).
    pub children: [u32; BVH_WIDTH],
    /// Number of valid children.
    pub child_count: u8,
}

impl InternalNode {
    /// Iterates the valid `(child_index, child_bounds)` pairs.
    pub fn iter_children(&self) -> impl Iterator<Item = (u32, &Aabb)> + '_ {
        self.children[..self.child_count as usize]
            .iter()
            .copied()
            .zip(self.child_bounds[..self.child_count as usize].iter())
    }
}

/// A triangle leaf: one primitive with its vertices inlined (Fig. 7c).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TriangleLeaf {
    /// Index of the primitive within its geometry.
    pub primitive_index: u32,
    /// Geometry index within the BLAS build (Vulkan geometry order).
    pub geometry_index: u32,
    /// The triangle vertices.
    pub triangle: Triangle,
}

/// A procedural leaf: descriptor plus primitive index; the actual surface is
/// defined by an intersection shader.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProceduralLeaf {
    /// Index of the primitive within its geometry.
    pub primitive_index: u32,
    /// Geometry index within the BLAS build.
    pub geometry_index: u32,
    /// Intersection-shader index registered for this geometry.
    pub shader_id: u32,
    /// The conservative bounds registered at build time.
    pub aabb: Aabb,
}

/// A top-level leaf referencing one BLAS instance (Fig. 7b). The transforms
/// and user indices live in [`crate::Instance`]; this node stores the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstanceLeaf {
    /// Index into the TLAS instance table.
    pub instance_index: u32,
}

/// One node of a wide BVH.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Internal node.
    Internal(InternalNode),
    /// Triangle leaf.
    Triangle(TriangleLeaf),
    /// Procedural leaf.
    Procedural(ProceduralLeaf),
    /// Instance (top-level) leaf.
    Instance(InstanceLeaf),
}

impl Node {
    /// The node's kind.
    pub fn kind(&self) -> NodeKind {
        match self {
            Node::Internal(_) => NodeKind::Internal,
            Node::Triangle(_) => NodeKind::TriangleLeaf,
            Node::Procedural(_) => NodeKind::ProceduralLeaf,
            Node::Instance(_) => NodeKind::InstanceLeaf,
        }
    }
}

/// A linearized wide BVH: nodes in sibling-consecutive order with byte
/// offsets assigned, ready for address-accurate traversal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WideBvh {
    /// Node arena; index 0 is the root (when non-empty).
    pub nodes: Vec<Node>,
    /// Byte offset of each node from the structure's base address.
    pub offsets: Vec<u64>,
    /// Total footprint in bytes.
    pub size_bytes: u64,
    /// Tree depth in nodes (root-only tree has depth 1; empty tree 0).
    pub depth: u32,
    /// Bounding box of the whole structure.
    pub aabb: Aabb,
}

impl WideBvh {
    /// `true` when the BVH contains no nodes (empty geometry).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of internal nodes.
    pub fn internal_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Internal(_)))
            .count()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.len() - self.internal_count()
    }

    /// Byte offset of node `idx` from the structure base.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn offset_of(&self, idx: u32) -> u64 {
        self.offsets[idx as usize]
    }

    /// Validates structural invariants; used by tests and debug assertions.
    ///
    /// Checks that children of every internal node are stored consecutively
    /// in memory, that offsets are strictly increasing with index, and that
    /// every child index is in range.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.len() != self.offsets.len() {
            return Err("offsets and nodes length mismatch".into());
        }
        for w in self.offsets.windows(2) {
            if w[0] >= w[1] {
                return Err("offsets not strictly increasing".into());
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Internal(int) = node {
                let kids = &int.children[..int.child_count as usize];
                if let Some(k) = kids.iter().find(|&&k| k as usize >= self.nodes.len()) {
                    return Err(format!("node {i}: child {k} out of range"));
                }
                // Consecutive in memory: each child's offset is the previous
                // child's offset plus its size.
                for pair in kids.windows(2) {
                    let a = pair[0] as usize;
                    let b = pair[1] as usize;
                    let expected = self.offsets[a] + self.nodes[a].kind().size_bytes();
                    if self.offsets[b] != expected {
                        return Err(format!(
                            "node {i}: children {a},{b} not consecutive in memory"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_sizes_match_paper() {
        assert_eq!(NodeKind::Internal.size_bytes(), 64);
        assert_eq!(NodeKind::TriangleLeaf.size_bytes(), 64);
        assert_eq!(NodeKind::ProceduralLeaf.size_bytes(), 64);
        assert_eq!(NodeKind::InstanceLeaf.size_bytes(), 128);
    }

    #[test]
    fn empty_bvh_properties() {
        let b = WideBvh::default();
        assert!(b.is_empty());
        assert_eq!(b.node_count(), 0);
        assert_eq!(b.depth, 0);
        assert!(b.check_invariants().is_ok());
    }

    #[test]
    fn internal_node_iterates_only_valid_children() {
        let mut n = InternalNode {
            child_bounds: [Aabb::EMPTY; BVH_WIDTH],
            children: [u32::MAX; BVH_WIDTH],
            child_count: 2,
        };
        n.children[0] = 1;
        n.children[1] = 2;
        let kids: Vec<u32> = n.iter_children().map(|(c, _)| c).collect();
        assert_eq!(kids, vec![1, 2]);
    }
}
