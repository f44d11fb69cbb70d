//! Property-based tests for the crypto primitives.

use nymix_crypto::{
    leaf_hash_parts, open, open_in_place_detached, poly1305_tag, seal, seal_in_place_detached,
    ChaCha20, HmacKey, MerkleAccumulator, Poly1305, Sha256,
};
use proptest::prelude::*;

/// Per-level scalar Merkle fold over a leaf level, written from the
/// tree's definition (`0x01 ‖ left ‖ right` parents, odd nodes promoted,
/// a tagged constant for the empty tree) rather than through the
/// accumulator it checks.
fn reference_root(leaves: &[[u8; 32]]) -> [u8; 32] {
    if leaves.is_empty() {
        return leaf_hash_parts(&[b"nymix:empty-merkle-tree"]);
    }
    let mut level = leaves.to_vec();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [l, r] => {
                    let mut h = Sha256::new();
                    h.update(&[0x01]);
                    h.update(l);
                    h.update(r);
                    h.finalize()
                }
                [odd] => *odd,
                _ => unreachable!("chunks(2)"),
            })
            .collect();
    }
    level[0]
}

fn block_leaves(blocks: &[Vec<u8>]) -> Vec<[u8; 32]> {
    blocks.iter().map(|b| leaf_hash_parts(&[b])).collect()
}

fn block_tree(blocks: &[Vec<u8>]) -> MerkleAccumulator {
    let mut tree = MerkleAccumulator::new();
    for leaf in block_leaves(blocks) {
        tree.push_leaf(leaf);
    }
    tree
}

/// Literal RFC 2104: pad the key, run two full hashes from scratch. The
/// midstate-cached `HmacKey` must agree bit-for-bit on everything.
fn hmac_reference(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&nymix_crypto::sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    let mut outer = Sha256::new();
    inner.update(&key_block.map(|b| b ^ 0x36));
    inner.update(msg);
    outer.update(&key_block.map(|b| b ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}

proptest! {
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                         split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), nymix_crypto::sha256(&data));
    }

    #[test]
    fn chacha_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                        mut data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let orig = data.clone();
        ChaCha20::new(&key, &nonce, 1).apply(&mut data);
        ChaCha20::new(&key, &nonce, 1).apply(&mut data);
        prop_assert_eq!(data, orig);
    }

    #[test]
    fn chacha_chunking_irrelevant(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                  data in proptest::collection::vec(any::<u8>(), 1..512),
                                  cuts in proptest::collection::vec(1usize..64, 0..8)) {
        let mut whole = data.clone();
        ChaCha20::new(&key, &nonce, 0).apply(&mut whole);
        let mut chunked = data.clone();
        let mut c = ChaCha20::new(&key, &nonce, 0);
        let mut off = 0usize;
        for cut in cuts {
            if off >= chunked.len() { break; }
            let end = (off + cut).min(chunked.len());
            c.apply(&mut chunked[off..end]);
            off = end;
        }
        c.apply(&mut chunked[off..]);
        prop_assert_eq!(whole, chunked);
    }

    #[test]
    fn aead_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                      aad in proptest::collection::vec(any::<u8>(), 0..64),
                      msg in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let boxed = seal(&key, &nonce, &aad, &msg);
        prop_assert_eq!(boxed.len(), msg.len() + 16);
        prop_assert_eq!(open(&key, &nonce, &aad, &boxed).unwrap(), msg);
    }

    #[test]
    fn aead_any_bitflip_detected(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                 msg in proptest::collection::vec(any::<u8>(), 1..256),
                                 flip_byte in any::<usize>(), flip_bit in 0u8..8) {
        let mut boxed = seal(&key, &nonce, b"aad", &msg);
        let idx = flip_byte % boxed.len();
        boxed[idx] ^= 1 << flip_bit;
        prop_assert!(open(&key, &nonce, b"aad", &boxed).is_err());
    }

    #[test]
    fn merkle_proofs_verify(blocks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 1..40)) {
        let mut tree = block_tree(&blocks);
        let root = tree.root();
        prop_assert_eq!(root, reference_root(&block_leaves(&blocks)));
        let n = blocks.len();
        for (i, b) in blocks.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(MerkleAccumulator::verify(&root, i, &leaf_hash_parts(&[b]), &proof, n));
        }
    }

    #[test]
    fn merkle_cross_block_proofs_fail(blocks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..32), 2..20), i in any::<usize>(), j in any::<usize>()) {
        let n = blocks.len();
        let (i, j) = (i % n, j % n);
        prop_assume!(i != j && blocks[i] != blocks[j]);
        let mut tree = block_tree(&blocks);
        let proof = tree.prove(i).unwrap();
        let wrong = leaf_hash_parts(&[&blocks[j]]);
        prop_assert!(!MerkleAccumulator::verify(&tree.root(), i, &wrong, &proof, n));
    }

    #[test]
    fn merkle_proofs_verify_after_random_edits(
        initial in proptest::collection::vec(any::<u8>(), 0..40),
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..40)
    ) {
        // Proofs taken straight after arbitrary update/push/truncate
        // sequences (no root query in between, so `prove` itself must
        // rebuild a stale interior) verify against `root()` for every
        // leaf, and `root()` matches the reference fold.
        let mut acc = MerkleAccumulator::new();
        let mut model: Vec<[u8; 32]> = Vec::new();
        for b in &initial {
            let leaf = leaf_hash_parts(&[&[*b]]);
            acc.push_leaf(leaf);
            model.push(leaf);
        }
        for (step, (op, arg)) in ops.iter().enumerate() {
            match op % 3 {
                0 => {
                    let leaf = leaf_hash_parts(&[&arg.to_le_bytes(), &[step as u8]]);
                    acc.push_leaf(leaf);
                    model.push(leaf);
                }
                1 if !model.is_empty() => {
                    let idx = *arg as usize % model.len();
                    let leaf = leaf_hash_parts(&[&arg.to_be_bytes(), &(step as u32).to_le_bytes()]);
                    acc.update_leaf(idx, leaf);
                    model[idx] = leaf;
                }
                2 => {
                    let len = *arg as usize % (model.len() + 1);
                    acc.truncate(len);
                    model.truncate(len);
                }
                _ => {}
            }
            let n = model.len();
            let proofs: Vec<_> = (0..n).map(|i| acc.prove(i).unwrap()).collect();
            prop_assert!(acc.prove(n).is_none());
            let root = acc.root();
            prop_assert_eq!(root, reference_root(&model), "step {}", step);
            for (i, proof) in proofs.iter().enumerate() {
                prop_assert!(MerkleAccumulator::verify(&root, i, &model[i], proof, n),
                    "step {} leaf {}", step, i);
            }
        }
    }

    #[test]
    fn merkle_stale_proof_rejected_after_update(
        blocks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 2..33),
        i in any::<usize>(), j in any::<usize>(), fresh in any::<u64>()
    ) {
        // A proof of leaf i taken before leaf j (j != i) changes still
        // verifies against the old root, and must be rejected against
        // the new one: the changed leaf sits under one of i's siblings.
        let n = blocks.len();
        let (i, j) = (i % n, j % n);
        prop_assume!(i != j);
        let mut tree = block_tree(&blocks);
        let old_root = tree.root();
        let proof = tree.prove(i).unwrap();
        let leaf_i = leaf_hash_parts(&[&blocks[i]]);
        let new_leaf = leaf_hash_parts(&[b"fresh", &fresh.to_le_bytes()]);
        prop_assume!(new_leaf != leaf_hash_parts(&[&blocks[j]]));
        tree.update_leaf(j, new_leaf);
        prop_assert!(MerkleAccumulator::verify(&old_root, i, &leaf_i, &proof, n));
        prop_assert!(!MerkleAccumulator::verify(&tree.root(), i, &leaf_i, &proof, n));
        // Updating i itself: its old leaf no longer verifies either.
        tree.update_leaf(i, new_leaf);
        prop_assert!(!MerkleAccumulator::verify(&tree.root(), i, &leaf_i, &proof, n));
    }

    #[test]
    fn merkle_malformed_proofs_rejected(
        blocks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 2..33),
        i in any::<usize>(), flip in any::<usize>(), extra in 0usize..4
    ) {
        let n = blocks.len();
        let i = i % n;
        let mut tree = block_tree(&blocks);
        let root = tree.root();
        let leaf = leaf_hash_parts(&[&blocks[i]]);
        let proof = tree.prove(i).unwrap();
        prop_assert!(MerkleAccumulator::verify(&root, i, &leaf, &proof, n));
        // Any flipped orientation bit.
        let mut flipped = proof.clone();
        let k = flip % flipped.len();
        flipped[k].1 = !flipped[k].1;
        prop_assert!(!MerkleAccumulator::verify(&root, i, &leaf, &flipped, n));
        // An index at or past the leaf count, even with a valid proof.
        prop_assert!(!MerkleAccumulator::verify(&root, n + extra, &leaf, &proof, n));
        prop_assert!(tree.prove(n + extra).is_none());
        // An empty tree proves nothing and verifies nothing.
        let mut empty = MerkleAccumulator::new();
        prop_assert!(empty.prove(extra).is_none());
        prop_assert!(!MerkleAccumulator::verify(&empty.root(), 0, &leaf, &[], 0));
        prop_assert!(!MerkleAccumulator::verify(&empty.root(), 0, &empty.root(), &[], 0));
    }

    #[test]
    fn poly1305_streaming_equals_oneshot(key in any::<[u8; 32]>(),
                                         data in proptest::collection::vec(any::<u8>(), 0..1024),
                                         cuts in proptest::collection::vec(1usize..48, 0..12)) {
        // Feeding the message through `update` in arbitrary chunk splits
        // must equal the one-shot tag, regardless of where the 16-byte
        // block boundaries fall relative to the cuts.
        let mut mac = Poly1305::new(&key);
        let mut off = 0usize;
        for cut in cuts {
            if off >= data.len() { break; }
            let end = (off + cut).min(data.len());
            mac.update(&data[off..end]);
            off = end;
        }
        mac.update(&data[off..]);
        prop_assert_eq!(mac.finalize(), poly1305_tag(&key, &data));
    }

    #[test]
    fn aead_in_place_matches_boxed(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                   aad in proptest::collection::vec(any::<u8>(), 0..64),
                                   msg in proptest::collection::vec(any::<u8>(), 0..1024)) {
        // seal_in_place_detached must produce exactly the bytes of seal,
        // and open_in_place_detached must round-trip and agree with open.
        let boxed = seal(&key, &nonce, &aad, &msg);
        let mut buf = msg.clone();
        let tag = seal_in_place_detached(&key, &nonce, &aad, &mut buf);
        prop_assert_eq!(&boxed[..msg.len()], &buf[..]);
        prop_assert_eq!(&boxed[msg.len()..], &tag[..]);
        open_in_place_detached(&key, &nonce, &aad, &mut buf, &tag).unwrap();
        prop_assert_eq!(&buf, &msg);
        prop_assert_eq!(open(&key, &nonce, &aad, &boxed).unwrap(), msg);
    }

    #[test]
    fn chacha_xor_into_accumulates_pads(seeds in proptest::collection::vec(any::<[u8; 32]>(), 1..5),
                                        nonce in any::<[u8; 12]>(), len in 1usize..600) {
        // XOR-accumulating streams via xor_into (the DC-net pad path) must
        // equal materializing each stream and XORing byte-wise.
        let mut acc = vec![0u8; len];
        for seed in &seeds {
            ChaCha20::new(seed, &nonce, 0).xor_into(&mut acc);
        }
        let mut want = vec![0u8; len];
        for seed in &seeds {
            let mut stream = vec![0u8; len];
            ChaCha20::new(seed, &nonce, 0).apply(&mut stream);
            for (w, s) in want.iter_mut().zip(&stream) {
                *w ^= s;
            }
        }
        prop_assert_eq!(acc, want);
    }

    #[test]
    fn hmac_midstate_equals_naive(key in proptest::collection::vec(any::<u8>(), 0..150),
                                  msg in proptest::collection::vec(any::<u8>(), 0..512)) {
        let want = hmac_reference(&key, &msg);
        prop_assert_eq!(nymix_crypto::hmac_sha256(&key, &msg), want);
        let hk = HmacKey::new(&key);
        prop_assert_eq!(hk.mac(&msg), want);
        // Streaming over arbitrary splits agrees too.
        let mut h = hk.hasher();
        let split = msg.len() / 2;
        h.update(&msg[..split]);
        h.update(&msg[split..]);
        prop_assert_eq!(hk.finish(h), want);
    }

    #[test]
    fn hmac_mac32_equals_naive(key in proptest::collection::vec(any::<u8>(), 0..150),
                               msg in any::<[u8; 32]>()) {
        // The PBKDF2 iteration shape: the two-compression fast path must
        // match the from-scratch construction.
        prop_assert_eq!(HmacKey::new(&key).mac32(&msg), hmac_reference(&key, &msg));
    }

    #[test]
    fn sha256_x4_equals_scalar(prefix in proptest::collection::vec(any::<u8>(), 0..80),
                               len in 0usize..300,
                               seed in any::<u64>()) {
        let msgs: Vec<Vec<u8>> = (0..4).map(|l| {
            (0..len).map(|i| (seed as usize + l * 31 + i * 7) as u8).collect()
        }).collect();
        let got = nymix_crypto::sha256_x4(&prefix, [&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for l in 0..4 {
            let mut h = Sha256::new();
            h.update(&prefix);
            h.update(&msgs[l]);
            prop_assert_eq!(got[l], h.finalize());
        }
    }

    #[test]
    fn merkle_incremental_equals_scratch(
        initial in proptest::collection::vec(any::<u8>(), 0..40),
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..40)
    ) {
        // Model-based: drive a MerkleAccumulator through random dirty
        // sets *and* leaf-count changes (push/truncate), checking after
        // every op that its root is bit-identical to a from-scratch
        // fold over the model leaf vector.
        let mut acc = MerkleAccumulator::new();
        let mut model: Vec<[u8; 32]> = Vec::new();
        for b in &initial {
            let leaf = leaf_hash_parts(&[&[*b]]);
            acc.push_leaf(leaf);
            model.push(leaf);
        }
        prop_assert_eq!(acc.root(), reference_root(&model));
        for (step, (op, arg)) in ops.iter().enumerate() {
            match op % 4 {
                0 => {
                    let leaf = leaf_hash_parts(&[&arg.to_le_bytes(), &[step as u8]]);
                    acc.push_leaf(leaf);
                    model.push(leaf);
                }
                1 | 2 if !model.is_empty() => {
                    // Dirty an arbitrary leaf; alternate between warm
                    // interiors (root queried first, so the O(log n)
                    // path-update runs) and cold ones.
                    if op % 2 == 1 {
                        acc.root();
                    }
                    let idx = *arg as usize % model.len();
                    let leaf = leaf_hash_parts(&[&arg.to_be_bytes(), &(step as u32).to_le_bytes()]);
                    acc.update_leaf(idx, leaf);
                    model[idx] = leaf;
                }
                3 => {
                    let len = *arg as usize % (model.len() + 1);
                    acc.truncate(len);
                    model.truncate(len);
                }
                _ => {}
            }
            prop_assert_eq!(
                acc.root(),
                reference_root(&model),
                "step {}",
                step
            );
            prop_assert_eq!(acc.leaf_count(), model.len());
        }
    }

    #[test]
    fn sha256_backends_bit_identical(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                     split in 0usize..2048) {
        // Every dispatched kernel must agree with the strictly-serial
        // scalar floor over arbitrary lengths and split points, both
        // single-stream and through the four-lane batch entry point.
        // The four lanes carry distinct messages, each checked against
        // its own single-stream digest, so a lane mix-up cannot hide.
        use nymix_crypto::{set_sha_backend, sha256_backend, sha256_x4, ShaBackend};
        let prev = sha256_backend();
        let split = split.min(data.len());
        let lanes: Vec<Vec<u8>> = (0..4u8)
            .map(|l| data.iter().map(|b| b ^ l.wrapping_mul(0x3b)).collect())
            .collect();
        let lane_refs = [&lanes[0][..], &lanes[1][..], &lanes[2][..], &lanes[3][..]];
        set_sha_backend(ShaBackend::Scalar);
        let want = nymix_crypto::sha256(&data);
        let want_lanes: Vec<[u8; 32]> = lanes
            .iter()
            .map(|lane| {
                let mut h = Sha256::new();
                h.update(b"p:");
                h.update(lane);
                h.finalize()
            })
            .collect();
        if !data.is_empty() {
            for (i, a) in want_lanes.iter().enumerate() {
                for b in &want_lanes[i + 1..] {
                    prop_assert_ne!(a, b);
                }
            }
        }
        for requested in [ShaBackend::Scalar, ShaBackend::X4, ShaBackend::ShaNi] {
            let installed = set_sha_backend(requested);
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), want, "backend {}", installed.name());
            prop_assert_eq!(nymix_crypto::sha256(&data), want, "backend {}", installed.name());
            let got = sha256_x4(b"p:", lane_refs);
            for (l, want_lane) in want_lanes.iter().enumerate() {
                prop_assert_eq!(&got[l], want_lane, "backend {} lane {}", installed.name(), l);
            }
        }
        set_sha_backend(prev);
    }

    #[test]
    fn hkdf_deterministic(salt in proptest::collection::vec(any::<u8>(), 0..32),
                          ikm in proptest::collection::vec(any::<u8>(), 1..64),
                          info in proptest::collection::vec(any::<u8>(), 0..32),
                          len in 1usize..200) {
        let a = nymix_crypto::hkdf::derive(&salt, &ikm, &info, len);
        let b = nymix_crypto::hkdf::derive(&salt, &ikm, &info, len);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), len);
    }
}
