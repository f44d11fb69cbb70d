//! Golden Merkle roots, pinned across versions.
//!
//! The other Merkle tests compare one implementation against another
//! (incremental vs from-scratch, accumulator vs reference fold), so a
//! change that moved *every* implementation in lock-step would pass
//! them all while invalidating every stored NYMD delta and every
//! published base-image root. These hex values were computed once and
//! must never change: the archive commitment is part of the NYMD wire
//! format, and the image root is what a Nymix distribution pins.

use nymix_fs::{BlockImage, VerifiedImage, BLOCK_SIZE};
use nymix_store::{ArchiveCommitment, NymArchive};

const SIZES: [usize; 6] = [0, 1, 2, 3, 5, 33];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `n` records with distinct names and ragged payloads (record 0 is
/// empty).
fn archive(n: usize) -> NymArchive {
    let mut a = NymArchive::new();
    for i in 0..n {
        let data = (0..i * 29 % 97).map(|k| (i * 31 + k) as u8).collect();
        a.put(&format!("record.{i:02}"), data);
    }
    a
}

/// `n` full blocks, each a distinct byte ramp.
fn image(n: usize) -> BlockImage {
    let mut img = BlockImage::new(n);
    for i in 0..n {
        let mut block = [0u8; BLOCK_SIZE];
        for (k, b) in block.iter_mut().enumerate() {
            *b = (i * 7 + k) as u8;
        }
        img.write_block(i, &block).expect("index in range");
    }
    img
}

#[test]
fn archive_commitment_roots_are_pinned() {
    let golden = [
        "d1714f5edf7a72e20be82149b3a944f9450ff8542e7d0d1f48b47e3ef32ed420",
        "abaebcc741f7b283ff6cae474f76f662e9ec921ec2aa290488e73885f83187d7",
        "07182ca3516c7d87c3432d51cf243d0897e2809cb41c2f93178f5088f58c4f26",
        "700cdb87c23e2c5e5146f476b4cfbdd4383795b591cef353f6582de165fbf37c",
        "7bae03e7e920c28ae4a0bfc9c305e6d1fdda94017d93cf11d5d822ebf949d5db",
        "695299def95e4aa91b9d7aed12abc9787e395e11305f33a12bd048c3ddc2e33f",
    ];
    let got: Vec<String> = SIZES
        .iter()
        .map(|&n| hex(&ArchiveCommitment::build(&archive(n)).root()))
        .collect();
    assert_eq!(got, golden, "archive roots for sizes {SIZES:?}");
}

#[test]
fn verified_image_roots_are_pinned() {
    let golden = [
        "d1714f5edf7a72e20be82149b3a944f9450ff8542e7d0d1f48b47e3ef32ed420",
        "64281ca7d9afddb825d64d10475cb6f15a733bcbe79216281c315490f749a88b",
        "f1e38b28d15a78f99dd54fd5e6c66e4fc6ee914d15e7bd241ba48f98fef2e0cd",
        "1788ae6c4ceecb29c5042458541daa80ebfacdd5712cfaf986104eb097020a6d",
        "640c2f266513c36ed78464d2cc55813921ef3d7e05513291b95a3dac257e36a4",
        "c3d08f3bd4d9e2c51703707b7f8a7de81ffff51eb0e74339273899df1a5d3627",
    ];
    let got: Vec<String> = SIZES
        .iter()
        .map(|&n| hex(&VerifiedImage::seal(image(n)).root()))
        .collect();
    assert_eq!(got, golden, "image roots for sizes {SIZES:?}");
}
