//! Binary Merkle hash tree: incremental commitments and inclusion proofs.
//!
//! §3.4 of the paper: Nymix must guarantee that the read-only host OS
//! partition shared by every AnonVM/CommVM was never modified — a single
//! flipped block would make every subsequently created VM trackable. The
//! proposed (there unimplemented) mechanism checks "all disk blocks loaded
//! from the host OS partition ... against a well-known Merkle tree as they
//! are accessed, and safely shut\[s\] down ... if a modified block is
//! detected". `nymix-fs` wires [`MerkleAccumulator`] proofs into the
//! base-image read path; `nymix-store` keeps one accumulator per snapshot
//! chain as the NYMD delta commitment (§3.5), recommitting only dirty
//! records.
//!
//! Leaves are domain-separated hashes of caller-framed bytes
//! ([`leaf_hash_parts`]); interior levels — whose inputs are always
//! exactly two 32-byte child hashes — batch four parents at a time on
//! the interleaved multi-buffer kernel ([`sha256_x4`]). All levels live
//! in one flat node array instead of per-level allocations.

use crate::sha256::{sha256_x4, Sha256, DIGEST_LEN};

/// A 32-byte node hash.
pub type Hash = [u8; DIGEST_LEN];

/// Domain-separation prefixes so a leaf can never be confused with an
/// interior node (second-preimage hardening).
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// What an empty tree commits to (all-zero is avoided to keep roots
/// unambiguous).
fn empty_root() -> Hash {
    leaf_hash_parts(&[b"nymix:empty-merkle-tree"])
}

fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(&[NODE_TAG]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// Hashes one leaf supplied as scattered parts, without materializing
/// the concatenation: `leaf_hash_parts(&[a, b])` equals
/// `leaf_hash_parts(&[a ‖ b])`, so callers whose leaves are framed
/// records (length prefix + name + payload) can hash them with zero
/// copies, and a disk block is simply `leaf_hash_parts(&[block])`.
pub fn leaf_hash_parts(parts: &[&[u8]]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// An incrementally-maintained Merkle tree over pre-hashed leaves.
///
/// The accumulator keeps every interior node cached between calls, so
/// [`MerkleAccumulator::update_leaf`] recomputes only the changed
/// leaf's root path: O(log n) hashes per dirty leaf. That turns the
/// delta-snapshot commitment from O(archive) into O(dirty · log n),
/// and the restore-replay verify side reuses the same structure. A
/// from-scratch root is just a cold accumulator: push every leaf, then
/// query [`MerkleAccumulator::root`].
///
/// An odd node at any level is promoted unchanged (Bitcoin-style
/// duplication is avoided, which cannot introduce ambiguity because the
/// leaf count is part of every verification); the empty set commits to
/// a stable empty-tree root. `incremental_matches_scratch` in this
/// module and the crypto crate's proptests pin the incremental root
/// bit-for-bit against a per-level scalar reference fold.
///
/// Structural edits ([`MerkleAccumulator::push_leaf`],
/// [`MerkleAccumulator::truncate`]) change the tree shape, so they
/// mark the cached interior stale; the next [`MerkleAccumulator::root`]
/// or [`MerkleAccumulator::prove`] call rebuilds it in one batched
/// pass (reusing the node buffer — no steady-state allocation). The
/// warm path — `update_leaf` on an unchanged leaf count followed by
/// `root` — allocates nothing, which the store crate's no-alloc guard
/// pins.
///
/// # Examples
///
/// ```
/// use nymix_crypto::{leaf_hash_parts, MerkleAccumulator};
///
/// let blocks: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16]).collect();
/// let mut tree = MerkleAccumulator::new();
/// for block in &blocks {
///     tree.push_leaf(leaf_hash_parts(&[block]));
/// }
/// let proof = tree.prove(2).unwrap();
/// let leaf = leaf_hash_parts(&[&blocks[2]]);
/// assert!(MerkleAccumulator::verify(&tree.root(), 2, &leaf, &proof, 4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MerkleAccumulator {
    /// Leaves first (`nodes[..leaf_count]`), then — when
    /// `interior_valid` — every interior level bottom-up, root last.
    nodes: Vec<Hash>,
    /// Start index of each materialized level within `nodes`.
    level_starts: Vec<usize>,
    leaf_count: usize,
    /// False after a structural edit: `nodes` holds only the leaf
    /// level and `level_starts` is stale until the next rebuild.
    interior_valid: bool,
}

impl MerkleAccumulator {
    /// An empty accumulator (commits to the empty-tree root).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The cached hash of leaf `index`.
    pub fn leaf(&self, index: usize) -> Option<&Hash> {
        if index < self.leaf_count {
            self.nodes.get(index)
        } else {
            None
        }
    }

    /// Drops cached interior nodes after a structural edit, leaving
    /// only the leaf level. Buffer capacity is retained.
    fn invalidate_interior(&mut self) {
        if self.interior_valid {
            self.nodes.truncate(self.leaf_count);
            self.interior_valid = false;
        }
    }

    /// Removes every leaf. Buffer capacity is retained.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.level_starts.clear();
        self.leaf_count = 0;
        self.interior_valid = false;
    }

    /// Appends a leaf hash. Changes the tree shape, so the cached
    /// interior is invalidated and rebuilt lazily at the next
    /// [`MerkleAccumulator::root`].
    pub fn push_leaf(&mut self, leaf: Hash) {
        self.invalidate_interior();
        self.nodes.push(leaf);
        self.leaf_count += 1;
    }

    /// Shrinks the leaf level to `len` leaves (no-op when already at
    /// or below `len`). Like [`MerkleAccumulator::push_leaf`], a shape
    /// change: the interior rebuilds at the next root query.
    pub fn truncate(&mut self, len: usize) {
        if len < self.leaf_count {
            self.invalidate_interior();
            self.nodes.truncate(len);
            self.leaf_count = len;
        }
    }

    /// Replaces leaf `index` and recomputes only its root path.
    ///
    /// With a warm interior this is O(log n) hashing and allocation-
    /// free; after a structural edit it just stores the leaf (the
    /// whole interior is rebuilt at the next root query anyway).
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count` — the accumulator is a cache
    /// over state the caller owns, so an out-of-range update is a
    /// caller bug, not hostile input.
    pub fn update_leaf(&mut self, index: usize, leaf: Hash) {
        assert!(
            index < self.leaf_count,
            "update_leaf index {index} out of range ({} leaves)",
            self.leaf_count
        );
        if self.nodes[index] == leaf {
            return;
        }
        self.nodes[index] = leaf;
        if !self.interior_valid {
            return;
        }
        // Walk the root path: at each level rehash the touched pair
        // (or copy an odd promoted node) into the parent slot.
        let mut pos = index;
        let mut width = self.leaf_count;
        let mut level = 0usize;
        while width > 1 {
            let start = self.level_starts[level];
            let parent_start = self.level_starts[level + 1];
            let sibling = pos ^ 1;
            let parent = if sibling < width {
                let (l, r) = if pos.is_multiple_of(2) {
                    (pos, sibling)
                } else {
                    (sibling, pos)
                };
                node_hash(&self.nodes[start + l], &self.nodes[start + r])
            } else {
                // Odd node: promoted unchanged to the parent level.
                self.nodes[start + pos]
            };
            pos /= 2;
            self.nodes[parent_start + pos] = parent;
            width = width.div_ceil(2);
            level += 1;
        }
    }

    /// Rebuilds every interior level bottom-up in the flat node array,
    /// batching four parents per [`sha256_x4`] pass and reusing this
    /// accumulator's buffers.
    fn rebuild_interior(&mut self) {
        self.nodes.truncate(self.leaf_count);
        self.level_starts.clear();
        self.level_starts.push(0);
        let mut start = 0usize;
        let mut width = self.leaf_count;
        while width > 1 {
            let next_start = self.nodes.len();
            let pairs = width / 2;
            let mut p = 0usize;
            let mut stage = [[0u8; 2 * DIGEST_LEN]; 4];
            while p + 4 <= pairs {
                for (l, buf) in stage.iter_mut().enumerate() {
                    let child = start + 2 * (p + l);
                    buf[..DIGEST_LEN].copy_from_slice(&self.nodes[child]);
                    buf[DIGEST_LEN..].copy_from_slice(&self.nodes[child + 1]);
                }
                self.nodes.extend_from_slice(&sha256_x4(
                    &[NODE_TAG],
                    [&stage[0], &stage[1], &stage[2], &stage[3]],
                ));
                p += 4;
            }
            while p < pairs {
                let child = start + 2 * p;
                let h = node_hash(&self.nodes[child], &self.nodes[child + 1]);
                self.nodes.push(h);
                p += 1;
            }
            if width % 2 == 1 {
                // Promote the odd node unchanged.
                let last = self.nodes[start + width - 1];
                self.nodes.push(last);
            }
            self.level_starts.push(next_start);
            start = next_start;
            width = width.div_ceil(2);
        }
        self.interior_valid = true;
    }

    /// The root commitment over the current leaves. Rebuilds the
    /// interior only if a structural edit invalidated it; with a warm
    /// interior this is a cached read.
    pub fn root(&mut self) -> Hash {
        if !self.interior_valid {
            self.rebuild_interior();
        }
        match self.nodes.last() {
            Some(root) => *root,
            None => empty_root(),
        }
    }

    /// Produces the sibling path proving leaf `index`, rebuilding the
    /// interior first if a structural edit invalidated it. Each element
    /// is `(sibling_hash, sibling_is_left)`; `None` when `index` is out
    /// of range (including every index of an empty tree).
    pub fn prove(&mut self, index: usize) -> Option<Vec<(Hash, bool)>> {
        if index >= self.leaf_count {
            return None;
        }
        if !self.interior_valid {
            self.rebuild_interior();
        }
        let mut proof = Vec::new();
        let mut pos = index;
        let mut width = self.leaf_count;
        for &start in &self.level_starts {
            let sibling = pos ^ 1;
            if sibling < width {
                proof.push((self.nodes[start + sibling], sibling < pos));
            }
            pos /= 2;
            width = width.div_ceil(2);
        }
        Some(proof)
    }

    /// Verifies that `leaf` is the `index`-th of `leaf_count` leaves
    /// under `root`. Rejects an out-of-range index, a proof of the
    /// wrong length, and any sibling whose claimed orientation
    /// disagrees with `index`.
    pub fn verify(
        root: &Hash,
        index: usize,
        leaf: &Hash,
        proof: &[(Hash, bool)],
        leaf_count: usize,
    ) -> bool {
        if index >= leaf_count {
            return false;
        }
        let mut acc = *leaf;
        let mut pos = index;
        let mut width = leaf_count;
        let mut proof_iter = proof.iter();
        while width > 1 {
            if (pos ^ 1) < width {
                let Some((sibling, sibling_is_left)) = proof_iter.next() else {
                    return false;
                };
                // The proof's claimed orientation must match the index.
                if *sibling_is_left != (pos % 2 == 1) {
                    return false;
                }
                acc = if *sibling_is_left {
                    node_hash(sibling, &acc)
                } else {
                    node_hash(&acc, sibling)
                };
            }
            pos /= 2;
            width = width.div_ceil(2);
        }
        proof_iter.next().is_none() && crate::ct::eq(&acc, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_hash(block: &[u8]) -> Hash {
        leaf_hash_parts(&[block])
    }

    fn blocks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("block-{i}").into_bytes()).collect()
    }

    fn accumulate(leaves: &[Hash]) -> MerkleAccumulator {
        let mut acc = MerkleAccumulator::new();
        for leaf in leaves {
            acc.push_leaf(*leaf);
        }
        acc
    }

    fn build(n: usize) -> (MerkleAccumulator, Vec<Vec<u8>>) {
        let b = blocks(n);
        let leaves: Vec<Hash> = b.iter().map(|x| leaf_hash(x)).collect();
        (accumulate(&leaves), b)
    }

    /// Reference fold: scalar hashing, one fresh vector per level,
    /// sharing nothing with the accumulator's flat-array x4 rebuild.
    /// The accumulator must commit to the same root.
    fn reference_root(leaves: &[Hash]) -> Hash {
        let mut level = leaves.to_vec();
        if level.is_empty() {
            return leaf_hash(b"nymix:empty-merkle-tree");
        }
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 2 {
                        node_hash(&pair[0], &pair[1])
                    } else {
                        pair[0]
                    }
                })
                .collect();
        }
        level[0]
    }

    #[test]
    fn all_proofs_verify_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 31] {
            let (mut tree, data) = build(n);
            let root = tree.root();
            for (i, block) in data.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                assert!(
                    MerkleAccumulator::verify(&root, i, &leaf_hash(block), &proof, n),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn batched_build_matches_scalar_reference() {
        // Every leaf count up to 33 crosses the x4 interior batch and
        // its scalar tail at several levels; the rebuilt root must
        // agree with the per-level reference fold.
        for n in 0usize..=33 {
            let uniform: Vec<Hash> = (0..n).map(|i| leaf_hash(&[i as u8; 64])).collect();
            assert_eq!(
                accumulate(&uniform).root(),
                reference_root(&uniform),
                "uniform n={n}"
            );

            let ragged: Vec<Hash> = (0..n)
                .map(|i| leaf_hash(&vec![i as u8; 1 + (i % 7)]))
                .collect();
            assert_eq!(
                accumulate(&ragged).root(),
                reference_root(&ragged),
                "ragged n={n}"
            );
        }
    }

    #[test]
    fn incremental_matches_scratch() {
        // Every (size, dirty-index) pair: updating one leaf in a warm
        // accumulator must commit to the same root as a from-scratch
        // fold over the mutated leaf level.
        for n in 1usize..=33 {
            let mut leaves: Vec<Hash> = (0..n).map(|i| leaf_hash(&[i as u8; 9])).collect();
            let mut acc = accumulate(&leaves);
            assert_eq!(acc.root(), reference_root(&leaves));
            for dirty in 0..n {
                let new_leaf = leaf_hash(format!("dirty-{n}-{dirty}").as_bytes());
                leaves[dirty] = new_leaf;
                acc.update_leaf(dirty, new_leaf);
                assert_eq!(acc.root(), reference_root(&leaves), "n={n} dirty={dirty}");
            }
        }
    }

    #[test]
    fn accumulator_structural_edits_match_scratch() {
        // push/truncate change the tree shape; the rebuilt interior
        // must still agree with a from-scratch fold.
        let mut acc = MerkleAccumulator::new();
        let mut leaves: Vec<Hash> = Vec::new();
        assert_eq!(acc.root(), reference_root(&leaves));
        for i in 0..17u8 {
            let leaf = leaf_hash(&[i; 5]);
            acc.push_leaf(leaf);
            leaves.push(leaf);
            assert_eq!(acc.root(), reference_root(&leaves), "grow {i}");
        }
        for len in (0..17usize).rev() {
            acc.truncate(len);
            leaves.truncate(len);
            assert_eq!(acc.root(), reference_root(&leaves), "shrink {len}");
            assert_eq!(acc.leaf_count(), len);
        }
    }

    #[test]
    fn accumulator_mixed_ops_match_scratch() {
        // Interleave updates with shape changes so update paths run
        // against interiors that were rebuilt mid-stream.
        let mut acc = MerkleAccumulator::new();
        let mut leaves: Vec<Hash> = Vec::new();
        for step in 0..60u32 {
            match step % 4 {
                0 | 1 => {
                    let leaf = leaf_hash(&step.to_le_bytes());
                    acc.push_leaf(leaf);
                    leaves.push(leaf);
                }
                2 if !leaves.is_empty() => {
                    let i = (step as usize * 7) % leaves.len();
                    let leaf = leaf_hash(format!("upd-{step}").as_bytes());
                    // Alternate warm (root queried first) and cold updates.
                    if step % 8 == 2 {
                        acc.root();
                    }
                    acc.update_leaf(i, leaf);
                    leaves[i] = leaf;
                }
                3 if leaves.len() > 2 => {
                    let len = leaves.len() - 2;
                    acc.truncate(len);
                    leaves.truncate(len);
                }
                _ => {}
            }
            assert_eq!(acc.root(), reference_root(&leaves), "step {step}");
        }
    }

    #[test]
    fn leaf_hash_parts_matches_contiguous() {
        let whole = b"record-name\x00payload bytes";
        assert_eq!(
            leaf_hash_parts(&[b"record-name", b"\x00", b"payload bytes"]),
            leaf_hash(whole)
        );
        assert_eq!(leaf_hash_parts(&[]), leaf_hash(b""));
        // Moving a boundary must change the hash (framing matters to
        // callers, so parts are hashed exactly as concatenation).
        assert_ne!(
            leaf_hash_parts(&[b"ab", b"c"]),
            leaf_hash_parts(&[b"a", b"b!c"])
        );
    }

    #[test]
    fn modified_block_rejected() {
        let (mut tree, data) = build(8);
        let proof = tree.prove(3).unwrap();
        let mut tampered = data[3].clone();
        tampered[0] ^= 0x80;
        let leaf = leaf_hash(&tampered);
        let root = tree.root();
        assert!(!MerkleAccumulator::verify(&root, 3, &leaf, &proof, 8));
    }

    #[test]
    fn wrong_index_rejected() {
        let (mut tree, data) = build(8);
        let proof = tree.prove(3).unwrap();
        let leaf = leaf_hash(&data[3]);
        let root = tree.root();
        assert!(!MerkleAccumulator::verify(&root, 4, &leaf, &proof, 8));
    }

    #[test]
    fn truncated_proof_rejected() {
        let (mut tree, data) = build(8);
        let mut proof = tree.prove(3).unwrap();
        proof.pop();
        let leaf = leaf_hash(&data[3]);
        let root = tree.root();
        assert!(!MerkleAccumulator::verify(&root, 3, &leaf, &proof, 8));
    }

    #[test]
    fn extended_proof_rejected() {
        let (mut tree, data) = build(8);
        let mut proof = tree.prove(3).unwrap();
        proof.push(([0u8; 32], false));
        let leaf = leaf_hash(&data[3]);
        let root = tree.root();
        assert!(!MerkleAccumulator::verify(&root, 3, &leaf, &proof, 8));
    }

    #[test]
    fn leaf_cannot_impersonate_node() {
        // Hash of (left||right) as a *leaf* must not equal the parent node.
        let (mut tree, data) = build(2);
        let l = leaf_hash(&data[0]);
        let r = leaf_hash(&data[1]);
        let mut fake = Vec::new();
        fake.extend_from_slice(&l);
        fake.extend_from_slice(&r);
        assert_ne!(leaf_hash(&fake), tree.root());
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let (mut tree, _) = build(4);
        assert!(tree.prove(4).is_none());
        assert!(MerkleAccumulator::new().prove(0).is_none());
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let mut t1 = MerkleAccumulator::new();
        let mut t2 = MerkleAccumulator::new();
        assert_eq!(t1.root(), t2.root());
        assert_eq!(t1.root(), reference_root(&[]));
        assert_eq!(t1.leaf_count(), 0);
    }

    #[test]
    fn roots_differ_on_any_block_change() {
        let (mut t1, _) = build(5);
        let mut data = blocks(5);
        data[4][0] ^= 1;
        let leaves: Vec<Hash> = data.iter().map(|b| leaf_hash(b)).collect();
        assert_ne!(t1.root(), accumulate(&leaves).root());
    }
}
