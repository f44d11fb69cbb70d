//! Password-sealed archives.
//!
//! The store-nym workflow asks the user for "a name for the nym, a
//! password to encrypt it with" (§3.5). Sealing pipeline:
//!
//! ```text
//! archive bytes → LZSS compress → ChaCha20-Poly1305 under a key
//! derived with PBKDF2-HMAC-SHA256(password, salt=label||random)
//! ```
//!
//! The label (nym name / storage location) is bound as AEAD associated
//! data, so an adversary — or a confused user — cannot splice one nym's
//! ciphertext into another nym's slot undetected.
//!
//! The pipeline is single-pass and allocation-free on the hot path:
//! [`seal_into`] serializes the archive into a reusable arena
//! ([`SealScratch`]), LZSS-compresses from that arena directly into the
//! output blob (after the header), and encrypts the compressed body in
//! place with the detached-tag AEAD — no intermediate `Vec` is
//! materialized at any stage. [`unseal_raw_into`] is the symmetric
//! decrypt-and-decompress half. The convenience wrappers
//! [`seal_archive`] / [`open_sealed`] allocate fresh buffers per call.
//!
//! ## Keyed sealing for delta chains
//!
//! PBKDF2 dominates seal latency by design (~90%, password hardening),
//! which would erase the point of incremental snapshots: a delta
//! carrying 2 KiB of dirty records would still pay the full multi-ms
//! KDF. A [`SealKey`] therefore derives the key **once per chain
//! epoch** — the full-archive save draws a fresh salt, and every delta
//! sealed on that base reuses the same key with a fresh random nonce
//! (safe for ChaCha20-Poly1305: distinct nonces under one key). Each
//! blob in the chain binds its own storage label as associated data, so
//! a provider cannot splice delta *i* into slot *j* undetected, and
//! restore recovers the key with a single KDF from the base blob's salt
//! ([`blob_salt`]) before opening the whole chain.

use nymix_crypto::poly1305::TAG_LEN;
use nymix_crypto::{open_in_place_detached, pbkdf2_hmac_sha256_into, seal_in_place_detached};
use nymix_sim::Rng;

use crate::archive::NymArchive;
use crate::delta::DeltaArchive;
use crate::lzss;

/// PBKDF2 iteration count (modest: sealing happens on every save).
pub const KDF_ITERATIONS: u32 = 10_000;

const MAGIC: &[u8; 4] = b"NYS1";
const SALT_LEN: usize = 16;
const NONCE_LEN: usize = 12;

/// Errors from unsealing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealedError {
    /// Structural problem with the sealed blob.
    Malformed,
    /// Wrong password, wrong label, or tampered ciphertext.
    AuthFailed,
    /// Decompression failed after successful authentication (archive
    /// corrupted before sealing — should be impossible).
    Corrupt,
}

impl core::fmt::Display for SealedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SealedError::Malformed => write!(f, "malformed sealed nym"),
            SealedError::AuthFailed => write!(f, "authentication failed (wrong password/label?)"),
            SealedError::Corrupt => write!(f, "archive corrupt after decryption"),
        }
    }
}

impl std::error::Error for SealedError {}

fn derive_key(password: &str, label: &str, salt: &[u8]) -> [u8; 32] {
    // Salt = label ‖ 0 ‖ random, passed as parts — no concatenation buffer.
    let mut key = [0u8; 32];
    pbkdf2_hmac_sha256_into(
        password.as_bytes(),
        &[label.as_bytes(), &[0], salt],
        KDF_ITERATIONS,
        &mut key,
    );
    key
}

/// A password-derived sealing key bound to one chain epoch: the KDF
/// runs once, and every blob sealed with this key carries the same
/// salt (with a fresh nonce per seal). Restore re-derives the same key
/// from the base blob's salt with [`SealKey::from_salt`].
pub struct SealKey {
    salt: [u8; SALT_LEN],
    key: [u8; 32],
}

// Manual Debug: never print key material.
impl core::fmt::Debug for SealKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SealKey")
            .field("salt", &self.salt)
            .field("key", &"[redacted]")
            .finish()
    }
}

impl Drop for SealKey {
    fn drop(&mut self) {
        // The salt is public (it rides in every blob header); the derived
        // key is the password-equivalent secret.
        nymix_crypto::zeroize::wipe_bytes(&mut self.key);
    }
}

impl SealKey {
    /// Derives a fresh key for a new chain epoch: `rng` supplies the
    /// salt, the KDF binds `label` (the base archive's storage label).
    pub fn derive(password: &str, label: &str, rng: &mut Rng) -> Self {
        let mut salt = [0u8; SALT_LEN];
        rng.fill_bytes(&mut salt);
        Self {
            key: derive_key(password, label, &salt),
            salt,
        }
    }

    /// Re-derives the key of an existing chain from the base blob's
    /// salt (see [`blob_salt`]). One KDF opens the whole chain.
    pub fn from_salt(password: &str, label: &str, salt: &[u8; SALT_LEN]) -> Self {
        Self {
            key: derive_key(password, label, salt),
            salt: *salt,
        }
    }

    /// The salt this key was derived under.
    pub fn salt(&self) -> &[u8; SALT_LEN] {
        &self.salt
    }
}

/// The salt a sealed blob was keyed under, or `None` if the blob is
/// structurally not a sealed archive.
pub fn blob_salt(blob: &[u8]) -> Option<&[u8; SALT_LEN]> {
    if blob.len() < 4 + SALT_LEN + NONCE_LEN || &blob[..4] != MAGIC {
        return None;
    }
    blob[4..4 + SALT_LEN].try_into().ok()
}

/// Reusable working memory for [`seal_into`] / [`unseal_raw_into`]: the
/// serialized-archive arena and the LZSS match-finder state. Holding one
/// of these across saves makes repeated sealing allocation-free.
#[derive(Debug, Default, Clone)]
pub struct SealScratch {
    /// Serialized (or decompressed) archive bytes.
    plain: Vec<u8>,
    /// LZSS encoder arena.
    compressor: lzss::Compressor,
}

impl SealScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Seals `archive` under `password` bound to `label`, writing the blob
/// into `out` (cleared first). `rng` supplies the salt and nonce
/// (deterministic in simulations).
///
/// With warm `scratch` and `out` buffers the whole pipeline — serialize,
/// compress, encrypt, tag — performs zero heap allocations.
pub fn seal_into(
    archive: &NymArchive,
    password: &str,
    label: &str,
    rng: &mut Rng,
    scratch: &mut SealScratch,
    out: &mut Vec<u8>,
) {
    let key = SealKey::derive(password, label, rng);
    seal_keyed_into(archive, &key, label, rng, scratch, out);
}

/// [`seal_into`] with an already-derived [`SealKey`]: skips the KDF.
/// `label` is bound as AEAD associated data (and should be the blob's
/// storage label); the key's salt rides in the header so restore can
/// re-derive.
pub fn seal_keyed_into(
    archive: &NymArchive,
    key: &SealKey,
    label: &str,
    rng: &mut Rng,
    scratch: &mut SealScratch,
    out: &mut Vec<u8>,
) {
    scratch.plain.clear();
    archive.write_into(&mut scratch.plain);
    seal_plain(key, label, rng, scratch, out, true);
}

/// Seals a [`DeltaArchive`] through the identical zero-copy pipeline
/// (serialize into the arena → LZSS → in-place detached AEAD), under a
/// chain key. `label` must be the delta's own storage label (e.g.
/// `"nym:alice@local#e3.2"`) so chain positions cannot be spliced.
pub fn seal_delta_keyed_into(
    delta: &DeltaArchive,
    key: &SealKey,
    label: &str,
    rng: &mut Rng,
    scratch: &mut SealScratch,
    out: &mut Vec<u8>,
) {
    scratch.plain.clear();
    delta.write_into(&mut scratch.plain);
    seal_plain(key, label, rng, scratch, out, true);
}

/// Seals arbitrary plaintext bytes through the identical zero-copy
/// pipeline (stage into the arena → LZSS → in-place detached AEAD)
/// under a chain key. The chunk store seals each content-addressed
/// chunk this way, with the chunk's storage label — which embeds the
/// chunk ID — bound as AEAD associated data, so a chunk served under
/// another chunk's name (or another nym's) fails authentication.
pub fn seal_bytes_keyed_into(
    plain: &[u8],
    key: &SealKey,
    label: &str,
    rng: &mut Rng,
    scratch: &mut SealScratch,
    out: &mut Vec<u8>,
) {
    scratch.plain.clear();
    scratch.plain.extend_from_slice(plain);
    seal_plain(key, label, rng, scratch, out, true);
}

/// [`seal_bytes_keyed_into`] for payloads the caller knows are
/// incompressible: the body is emitted as an all-literal *stored* LZSS
/// stream ([`crate::lzss::store_into`]) — no match finder runs — and
/// unsealing is unchanged (the stored stream decompresses like any
/// other). The chunk store entropy-gates its per-chunk seals through
/// this path; see [`crate::cas`].
pub fn seal_bytes_keyed_stored_into(
    plain: &[u8],
    key: &SealKey,
    label: &str,
    rng: &mut Rng,
    scratch: &mut SealScratch,
    out: &mut Vec<u8>,
) {
    scratch.plain.clear();
    scratch.plain.extend_from_slice(plain);
    seal_plain(key, label, rng, scratch, out, false);
}

/// Compress-and-encrypt `scratch.plain` into `out` under `key`,
/// binding `label` as associated data. Shared tail of every seal path;
/// `compress` false emits the stored (all-literal) body instead of
/// running the match finder.
fn seal_plain(
    key: &SealKey,
    label: &str,
    rng: &mut Rng,
    scratch: &mut SealScratch,
    out: &mut Vec<u8>,
    compress: bool,
) {
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);

    out.clear();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&key.salt);
    out.extend_from_slice(&nonce);
    let body_start = out.len();

    if compress {
        scratch.compressor.compress_into(&scratch.plain, out);
    } else {
        lzss::store_into(&scratch.plain, out);
    }

    let tag = seal_in_place_detached(&key.key, &nonce, label.as_bytes(), &mut out[body_start..]);
    out.extend_from_slice(&tag);
}

/// Seals an archive under `password`, bound to `label`.
///
/// `rng` supplies the salt and nonce (deterministic in simulations).
///
/// # Examples
///
/// ```
/// use nymix_store::{seal_archive, open_sealed, NymArchive};
/// use nymix_sim::Rng;
///
/// let mut a = NymArchive::new();
/// a.put("meta", b"nym=alice".to_vec());
/// let blob = seal_archive(&a, "hunter2", "nym:alice", &mut Rng::seed_from(1));
/// let back = open_sealed(&blob, "hunter2", "nym:alice").unwrap();
/// assert_eq!(back.get("meta").unwrap(), b"nym=alice");
/// ```
pub fn seal_archive(archive: &NymArchive, password: &str, label: &str, rng: &mut Rng) -> Vec<u8> {
    let mut out = Vec::new();
    seal_into(
        archive,
        password,
        label,
        rng,
        &mut SealScratch::new(),
        &mut out,
    );
    out
}

/// Authenticates, decrypts and decompresses `blob`, leaving the
/// serialized archive bytes in `scratch.plain` and returning a view of
/// them. The ciphertext working copy lives in `work`; with warm buffers
/// the whole path performs zero heap allocations.
pub fn unseal_raw_into<'s>(
    blob: &[u8],
    password: &str,
    label: &str,
    work: &mut Vec<u8>,
    scratch: &'s mut SealScratch,
) -> Result<&'s [u8], SealedError> {
    let salt = blob_salt(blob).ok_or(SealedError::Malformed)?;
    let key = derive_key(password, label, salt);
    unseal_body(blob, &key, label, work, scratch)
}

/// [`unseal_raw_into`] with an already-derived chain key: no KDF. The
/// blob's salt must match the key's (a mismatched salt means the blob
/// belongs to a different chain epoch and could never authenticate).
pub fn unseal_keyed_raw_into<'s>(
    blob: &[u8],
    key: &SealKey,
    label: &str,
    work: &mut Vec<u8>,
    scratch: &'s mut SealScratch,
) -> Result<&'s [u8], SealedError> {
    let salt = blob_salt(blob).ok_or(SealedError::Malformed)?;
    if !nymix_crypto::ct::eq(salt, &key.salt) {
        return Err(SealedError::AuthFailed);
    }
    unseal_body(blob, &key.key, label, work, scratch)
}

/// Authenticate-decrypt-decompress tail shared by both unseal paths.
fn unseal_body<'s>(
    blob: &[u8],
    key: &[u8; 32],
    label: &str,
    work: &mut Vec<u8>,
    scratch: &'s mut SealScratch,
) -> Result<&'s [u8], SealedError> {
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&blob[4 + SALT_LEN..4 + SALT_LEN + NONCE_LEN]);
    let boxed = &blob[4 + SALT_LEN + NONCE_LEN..];
    if boxed.len() < TAG_LEN {
        // Matches the seed behavior: a body shorter than a tag fails
        // authentication rather than structural validation.
        return Err(SealedError::AuthFailed);
    }
    // Single working copy of the ciphertext, decrypted in place.
    let (ciphertext, tag) = boxed.split_at(boxed.len() - TAG_LEN);
    work.clear();
    work.extend_from_slice(ciphertext);
    open_in_place_detached(key, &nonce, label.as_bytes(), work, tag)
        .map_err(|_| SealedError::AuthFailed)?;
    lzss::decompress_into(work, &mut scratch.plain).map_err(|_| SealedError::Corrupt)?;
    Ok(&scratch.plain)
}

/// Opens a sealed blob.
pub fn open_sealed(blob: &[u8], password: &str, label: &str) -> Result<NymArchive, SealedError> {
    let mut work = Vec::new();
    let mut scratch = SealScratch::new();
    let bytes = unseal_raw_into(blob, password, label, &mut work, &mut scratch)?;
    NymArchive::from_bytes(bytes).map_err(|_| SealedError::Corrupt)
}

/// The sealed size an archive would produce (for storage accounting
/// without materializing the ciphertext twice).
pub fn sealed_size(archive: &NymArchive) -> usize {
    let mut compressed = Vec::new();
    lzss::Compressor::new().compress_into(&archive.to_bytes(), &mut compressed);
    compressed.len() + 4 + SALT_LEN + NONCE_LEN + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn archive() -> NymArchive {
        let mut a = NymArchive::new();
        a.put("meta", b"nym=bob;site=twitter".to_vec());
        a.put("anonvm.disk", b"<html>cache</html>".repeat(200).to_vec());
        a
    }

    #[test]
    fn roundtrip() {
        let a = archive();
        let blob = seal_archive(&a, "pw", "nym:bob", &mut Rng::seed_from(5));
        let b = open_sealed(&blob, "pw", "nym:bob").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_roundtrips_and_matches_fresh() {
        // The steady-state save path: one scratch + one blob buffer
        // across many seals must produce byte-identical blobs to the
        // allocating wrapper.
        let a = archive();
        let mut scratch = SealScratch::new();
        let mut out = Vec::new();
        let mut work = Vec::new();
        for seed in [1u64, 2, 3] {
            seal_into(
                &a,
                "pw",
                "l",
                &mut Rng::seed_from(seed),
                &mut scratch,
                &mut out,
            );
            assert_eq!(
                out,
                seal_archive(&a, "pw", "l", &mut Rng::seed_from(seed)),
                "seed {seed}"
            );
            let bytes = unseal_raw_into(&out, "pw", "l", &mut work, &mut scratch).unwrap();
            assert_eq!(NymArchive::from_bytes(bytes).unwrap(), a);
        }
    }

    #[test]
    fn keyed_seal_interoperates_with_password_unseal() {
        // A full archive sealed under a pre-derived key opens through
        // the ordinary password path (same wire format, salt in header).
        let a = archive();
        let mut rng = Rng::seed_from(11);
        let key = SealKey::derive("pw", "nym:bob", &mut rng);
        let mut scratch = SealScratch::new();
        let mut blob = Vec::new();
        seal_keyed_into(&a, &key, "nym:bob", &mut rng, &mut scratch, &mut blob);
        assert_eq!(open_sealed(&blob, "pw", "nym:bob").unwrap(), a);
        // And the other direction: password-sealed blob, keyed open.
        let blob2 = seal_archive(&a, "pw", "nym:bob", &mut Rng::seed_from(3));
        let salt = *blob_salt(&blob2).unwrap();
        let key2 = SealKey::from_salt("pw", "nym:bob", &salt);
        let mut work = Vec::new();
        let bytes =
            unseal_keyed_raw_into(&blob2, &key2, "nym:bob", &mut work, &mut scratch).unwrap();
        assert_eq!(NymArchive::from_bytes(bytes).unwrap(), a);
    }

    #[test]
    fn delta_seal_roundtrips_under_chain_key() {
        use crate::delta::{ArchiveCommitment, DeltaArchive};
        let prev = archive();
        let mut next = prev.clone();
        next.put("meta", b"nym=bob;site=twitter;v=2".to_vec());
        let delta = DeltaArchive::diff(&prev, &next, &mut ArchiveCommitment::build(&prev));

        let mut rng = Rng::seed_from(7);
        let key = SealKey::derive("pw", "nym:bob", &mut rng);
        let mut scratch = SealScratch::new();
        let mut blob = Vec::new();
        seal_delta_keyed_into(
            &delta,
            &key,
            "nym:bob#e1.1",
            &mut rng,
            &mut scratch,
            &mut blob,
        );

        let mut work = Vec::new();
        let bytes =
            unseal_keyed_raw_into(&blob, &key, "nym:bob#e1.1", &mut work, &mut scratch).unwrap();
        let opened = DeltaArchive::from_bytes(bytes).unwrap();
        assert_eq!(opened, delta);
        let mut replayed = prev.clone();
        let mut commitment = ArchiveCommitment::build(&replayed);
        opened.apply(&mut replayed, &mut commitment).unwrap();
        assert_eq!(replayed, next);
    }

    #[test]
    fn stored_body_seal_roundtrips_and_authenticates() {
        // The entropy-gated chunk path: an incompressible payload sealed
        // with the stored body opens through the ordinary keyed unseal,
        // and still authenticates its label binding.
        let mut rng = Rng::seed_from(13);
        let key = SealKey::derive("pw", "l", &mut rng);
        let mut noise = vec![0u8; 8192];
        nymix_crypto::ChaCha20::new(&[3u8; 32], &[0u8; 12], 0).xor_into(&mut noise);
        let mut scratch = SealScratch::new();
        let (mut blob, mut work) = (Vec::new(), Vec::new());
        seal_bytes_keyed_stored_into(&noise, &key, "l#e1/c/ab", &mut rng, &mut scratch, &mut blob);
        let plain =
            unseal_keyed_raw_into(&blob, &key, "l#e1/c/ab", &mut work, &mut scratch).unwrap();
        assert_eq!(plain, &noise[..]);
        assert_eq!(
            unseal_keyed_raw_into(&blob, &key, "l#e1/c/cd", &mut work, &mut scratch).unwrap_err(),
            SealedError::AuthFailed
        );
        // Size envelope matches what the matcher would have produced on
        // incompressible input (flag byte per 8 literals).
        let mut compressed = Vec::new();
        seal_bytes_keyed_into(
            &noise,
            &key,
            "l#e1/c/ab",
            &mut rng,
            &mut scratch,
            &mut compressed,
        );
        assert!(blob.len() <= compressed.len() + 16);
    }

    #[test]
    fn chain_position_cannot_be_spliced() {
        // Two deltas sealed under one chain key but different slot
        // labels: serving slot 1's blob in slot 2 must fail auth.
        use crate::delta::{ArchiveCommitment, DeltaArchive};
        let a = archive();
        let delta = DeltaArchive::diff(&a, &a, &mut ArchiveCommitment::build(&a));
        let mut rng = Rng::seed_from(9);
        let key = SealKey::derive("pw", "l", &mut rng);
        let mut scratch = SealScratch::new();
        let (mut b1, mut work) = (Vec::new(), Vec::new());
        seal_delta_keyed_into(&delta, &key, "l#e1.1", &mut rng, &mut scratch, &mut b1);
        assert_eq!(
            unseal_keyed_raw_into(&b1, &key, "l#e1.2", &mut work, &mut scratch).unwrap_err(),
            SealedError::AuthFailed
        );
        // A blob from a different chain epoch (different salt) is
        // rejected before any decryption happens.
        let other = SealKey::derive("pw", "l", &mut Rng::seed_from(99));
        assert_eq!(
            unseal_keyed_raw_into(&b1, &other, "l#e1.1", &mut work, &mut scratch).unwrap_err(),
            SealedError::AuthFailed
        );
    }

    #[test]
    fn blob_salt_extraction() {
        let blob = seal_archive(&archive(), "pw", "l", &mut Rng::seed_from(5));
        assert_eq!(blob_salt(&blob), Some(&blob[4..20].try_into().unwrap()));
        assert_eq!(blob_salt(b"junk"), None);
        assert_eq!(blob_salt(&blob[..10]), None);
    }

    #[test]
    fn wrong_password_fails() {
        let blob = seal_archive(&archive(), "pw", "nym:bob", &mut Rng::seed_from(5));
        assert_eq!(
            open_sealed(&blob, "wrong", "nym:bob"),
            Err(SealedError::AuthFailed)
        );
    }

    #[test]
    fn wrong_label_fails() {
        // Splicing bob's blob into alice's slot must not decrypt.
        let blob = seal_archive(&archive(), "pw", "nym:bob", &mut Rng::seed_from(5));
        assert_eq!(
            open_sealed(&blob, "pw", "nym:alice"),
            Err(SealedError::AuthFailed)
        );
    }

    #[test]
    fn tamper_fails() {
        let mut blob = seal_archive(&archive(), "pw", "nym:bob", &mut Rng::seed_from(5));
        let last = blob.len() - 1;
        blob[last] ^= 1;
        assert_eq!(
            open_sealed(&blob, "pw", "nym:bob"),
            Err(SealedError::AuthFailed)
        );
        assert_eq!(
            open_sealed(b"junk", "pw", "nym:bob"),
            Err(SealedError::Malformed)
        );
    }

    #[test]
    fn ciphertext_looks_random() {
        // The provider stores only high-entropy bytes: no plaintext
        // marker from the archive appears in the sealed blob.
        let blob = seal_archive(&archive(), "pw", "nym:bob", &mut Rng::seed_from(5));
        let needle = b"twitter";
        assert!(!blob.windows(needle.len()).any(|w| w == needle));
    }

    #[test]
    fn compression_helps_repetitive_state() {
        let a = archive();
        let sealed = seal_archive(&a, "pw", "l", &mut Rng::seed_from(1));
        assert!(sealed.len() < a.to_bytes().len() / 2);
        assert_eq!(sealed_size(&a), sealed.len());
    }

    #[test]
    fn salts_differ_across_seals() {
        let mut rng = Rng::seed_from(9);
        let a = seal_archive(&archive(), "pw", "l", &mut rng);
        let b = seal_archive(&archive(), "pw", "l", &mut rng);
        assert_ne!(a, b, "fresh salt/nonce per save");
        // Both still open.
        assert!(open_sealed(&a, "pw", "l").is_ok());
        assert!(open_sealed(&b, "pw", "l").is_ok());
    }
}
