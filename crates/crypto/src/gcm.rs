//! AES-128-GCM (NIST SP 800-38D).
//!
//! The paper requires a CCA-secure scheme for data-plane payload encryption
//! (§IV-A, citing GCM \[27\] and OCB \[36\]); APNA hosts seal every data
//! packet under the per-session key `k_EaEb` (§IV-D2).
//!
//! GHASH multiplies in GF(2¹²⁸) with BearSSL's constant-time `ctmul64`
//! construction: a 64×64 carry-less multiply built from ordinary integer
//! multiplies on operands masked to every fourth bit ("with holes", so
//! carries land in bits that are masked away), three Karatsuba products
//! for the low words and three more on the bit-reversed halves for the
//! high words, then a shift-and-xor reduction. H's halves, their XOR and
//! the bit-reversals of all three are computed once per key. There are no
//! lookup tables: H is secret, so a table of its multiples indexed by the
//! data (the Shoup 4-bit method) would leak through the cache; nor any
//! secret-dependent branch. The same portable code runs on both AES
//! backends. The SP 800-38D bit-serial multiply survives only as the test
//! oracle the fast one is checked against.

use crate::aes::{Aes128, Block, BlockCipher};
use crate::ct::ct_eq;
use crate::CryptoError;

/// GCM nonce length (the standard 96-bit fast path; other lengths are not
/// supported).
pub const NONCE_LEN: usize = 12;
/// GCM tag length.
pub const TAG_LEN: usize = 16;

/// Low 64 bits of the carry-less product of `x` and `y`. Each operand is
/// split into four masks of every fourth bit, so an integer product of
/// two masks adds at most 15 one-bits into any position below bit 60 (16
/// at bit 60, whose carry leaves the word): every sum fits in its
/// position and the three-bit hole above it, and the final masks clear
/// the holes.
fn bmul64(x: u64, y: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    const M1: u64 = M0 << 1;
    const M2: u64 = M0 << 2;
    const M3: u64 = M0 << 3;
    let (x0, x1, x2, x3) = (x & M0, x & M1, x & M2, x & M3);
    let (y0, y1, y2, y3) = (y & M0, y & M1, y & M2, y & M3);
    let m = u64::wrapping_mul;
    let z0 = m(x0, y0) ^ m(x1, y3) ^ m(x2, y2) ^ m(x3, y1);
    let z1 = m(x0, y1) ^ m(x1, y0) ^ m(x2, y3) ^ m(x3, y2);
    let z2 = m(x0, y2) ^ m(x1, y1) ^ m(x2, y0) ^ m(x3, y3);
    let z3 = m(x0, y3) ^ m(x1, y2) ^ m(x2, y1) ^ m(x3, y0);
    (z0 & M0) | (z1 & M1) | (z2 & M2) | (z3 & M3)
}

/// The GHASH key H = AES_K(0¹²⁸), pre-split for [`GhashKey::mul`]: its
/// low and high 64-bit halves, their XOR (the Karatsuba middle operand),
/// and the bit-reversals of all three.
#[derive(Clone)]
struct GhashKey {
    h0: u64,
    h1: u64,
    h2: u64,
    h0r: u64,
    h1r: u64,
    h2r: u64,
}

impl GhashKey {
    fn new(h: u128) -> Self {
        let (h0, h1) = (h as u64, (h >> 64) as u64);
        let (h0r, h1r) = (h0.reverse_bits(), h1.reverse_bits());
        GhashKey {
            h0,
            h1,
            h2: h0 ^ h1,
            h0r,
            h1r,
            h2r: h0r ^ h1r,
        }
    }

    /// `y · H` in GF(2¹²⁸) with the GCM polynomial, in the bit-reflected
    /// convention of SP 800-38D §6.3. Constant time.
    fn mul(&self, y: u128) -> u128 {
        let (y0, y1) = (y as u64, (y >> 64) as u64);
        let (y0r, y1r) = (y0.reverse_bits(), y1.reverse_bits());
        let (y2, y2r) = (y0 ^ y1, y0r ^ y1r);

        // Karatsuba: low halves of the three products directly, high
        // halves as the reversed low halves of the reversed operands.
        let z0 = bmul64(y0, self.h0);
        let z1 = bmul64(y1, self.h1);
        let z2 = bmul64(y2, self.h2) ^ z0 ^ z1;
        let z0h = bmul64(y0r, self.h0r);
        let z1h = bmul64(y1r, self.h1r);
        let z2h = bmul64(y2r, self.h2r) ^ z0h ^ z1h;
        let (z0h, z1h, z2h) = (
            z0h.reverse_bits() >> 1,
            z1h.reverse_bits() >> 1,
            z2h.reverse_bits() >> 1,
        );

        // The 256-bit reflected product is v3:v2:v1:v0, shifted left one
        // bit to undo the reflection's off-by-one.
        let (v0, v1, v2, v3) = (z0, z0h ^ z2, z1 ^ z2h, z1h);
        let (v0, v1, v2, v3) = (
            v0 << 1,
            (v1 << 1) | (v0 >> 63),
            (v2 << 1) | (v1 >> 63),
            (v3 << 1) | (v2 >> 63),
        );

        // Reduce modulo x¹²⁸ + x⁷ + x² + x + 1.
        let v2 = v2 ^ v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
        let v1 = v1 ^ (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
        let v3 = v3 ^ v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
        let v2 = v2 ^ (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
        (u128::from(v3) << 64) | u128::from(v2)
    }

    /// Folds `data` into the GHASH accumulator `acc`, zero-padding the
    /// final partial block.
    fn update(&self, mut acc: u128, data: &[u8]) -> u128 {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            acc = self.mul(acc ^ u128::from_be_bytes(block));
        }
        acc
    }
}

/// AES-128-GCM AEAD.
#[derive(Clone)]
pub struct AesGcm128 {
    cipher: Aes128,
    ghash_key: GhashKey,
}

impl AesGcm128 {
    /// Creates an AEAD instance from a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_cipher(Aes128::new(key))
    }

    /// [`AesGcm128::new`] pinned to the bitsliced software backend —
    /// for backend cross-check tests and benches, which must not reach
    /// for the process-global `APNA_SOFT_AES` switch (mutating the
    /// environment races with concurrent cipher constructions).
    #[must_use]
    pub fn new_software(key: &[u8; 16]) -> Self {
        Self::with_cipher(Aes128::new_software(key))
    }

    fn with_cipher(cipher: Aes128) -> Self {
        let mut h = [0u8; 16];
        cipher.encrypt_block(&mut h);
        AesGcm128 {
            cipher,
            ghash_key: GhashKey::new(u128::from_be_bytes(h)),
        }
    }

    /// J0 for a 96-bit nonce: nonce ‖ 0³¹ ‖ 1.
    fn j0(nonce: &[u8; NONCE_LEN]) -> u128 {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(nonce);
        block[15] = 1;
        u128::from_be_bytes(block)
    }

    /// CTR with 32-bit wrapping increment in the low word (GCM's inc32).
    /// Keystream blocks are independent, so they are produced
    /// [`PARALLEL_BLOCKS`]-wide through the batched cipher backend.
    fn ctr32(&self, mut counter: u128, data: &mut [u8]) {
        use crate::aes::PARALLEL_BLOCKS;
        for group in data.chunks_mut(16 * PARALLEL_BLOCKS) {
            let nblocks = group.len().div_ceil(16);
            let mut ks = [[0u8; 16]; PARALLEL_BLOCKS];
            for k in ks.iter_mut().take(nblocks) {
                let low = (counter as u32).wrapping_add(1);
                counter = (counter & !0xffff_ffffu128) | u128::from(low);
                *k = counter.to_be_bytes();
            }
            self.cipher.encrypt_blocks(&mut ks[..nblocks]);
            for (chunk, k) in group.chunks_mut(16).zip(ks.iter()) {
                for (d, kb) in chunk.iter_mut().zip(k.iter()) {
                    *d ^= kb;
                }
            }
        }
    }

    /// GHASH over `aad`, `ct` and their bit lengths, masked with E_K(J0).
    fn tag(&self, j0: u128, aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&((ct.len() as u64) * 8).to_be_bytes());
        let acc = self.ghash_key.update(0, aad);
        let acc = self.ghash_key.update(acc, ct);
        let mut tag: Block = self.ghash_key.update(acc, &lengths).to_be_bytes();
        let mut ekj0: Block = j0.to_be_bytes();
        self.cipher.encrypt_block(&mut ekj0);
        for (t, e) in tag.iter_mut().zip(ekj0.iter()) {
            *t ^= e;
        }
        tag
    }

    /// Encrypts `plaintext` with associated data `aad`; returns
    /// `ciphertext ‖ tag`.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// [`AesGcm128::seal`] appending `ciphertext ‖ tag` to `out`, so a
    /// caller framing the output (a sequence-number header, say) needs
    /// one buffer and no copy. Bytes already in `out` are left alone.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let j0 = Self::j0(nonce);
        let start = out.len();
        out.reserve(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let (_, ct) = out.split_at_mut(start);
        self.ctr32(j0, ct);
        let tag = self.tag(j0, aad, ct);
        out.extend_from_slice(&tag);
    }

    /// Decrypts `ciphertext ‖ tag`; returns the plaintext or
    /// [`CryptoError::VerificationFailed`] on any mismatch.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if ciphertext_and_tag.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength);
        }
        let (ct, tag) = ciphertext_and_tag.split_at(ciphertext_and_tag.len() - TAG_LEN);
        let j0 = Self::j0(nonce);
        let expected = self.tag(j0, aad, ct);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::VerificationFailed);
        }
        let mut out = ct.to_vec();
        self.ctr32(j0, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::{RngCore, SeedableRng};

    /// Multiplication in GF(2¹²⁸) straight from SP 800-38D §6.3, one bit
    /// of `x` per iteration: the oracle for [`GhashKey::mul`].
    fn gf_mul(x: u128, y: u128) -> u128 {
        const R: u128 = 0xe1 << 120;
        let mut z = 0u128;
        let mut v = y;
        for i in 0..128 {
            let xi = (x >> (127 - i)) & 1;
            z ^= v & 0u128.wrapping_sub(xi);
            let lsb = v & 1;
            v = (v >> 1) ^ (R & 0u128.wrapping_sub(lsb));
        }
        z
    }

    /// The production multiply, `x · y`.
    fn ct_mul(x: u128, y: u128) -> u128 {
        GhashKey::new(y).mul(x)
    }

    /// The tag SP 800-38D defines, computed with [`gf_mul`] and
    /// independent of [`GhashKey`].
    fn reference_tag(aead: &AesGcm128, nonce: &[u8; 12], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let mut h = [0u8; 16];
        aead.cipher.encrypt_block(&mut h);
        let h = u128::from_be_bytes(h);
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&((ct.len() as u64) * 8).to_be_bytes());
        let mut acc = 0u128;
        for data in [aad, ct, &lengths[..]] {
            for chunk in data.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                acc = gf_mul(acc ^ u128::from_be_bytes(block), h);
            }
        }
        let mut ekj0 = AesGcm128::j0(nonce).to_be_bytes();
        aead.cipher.encrypt_block(&mut ekj0);
        (acc ^ u128::from_be_bytes(ekj0)).to_be_bytes()
    }

    // NIST GCM reference test cases 1–4 (AES-128).
    #[test]
    fn nist_case1_empty() {
        let key = [0u8; 16];
        let nonce = [0u8; 12];
        let out = AesGcm128::new(&key).seal(&nonce, b"", b"");
        assert_eq!(hex::encode(&out), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn nist_case2_single_zero_block() {
        let key = [0u8; 16];
        let nonce = [0u8; 12];
        let out = AesGcm128::new(&key).seal(&nonce, b"", &[0u8; 16]);
        assert_eq!(
            hex::encode(&out),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        );
    }

    #[test]
    fn nist_case3_four_blocks() {
        let key = hex::decode_array::<16>("feffe9928665731c6d6a8f9467308308").unwrap();
        let nonce = hex::decode_array::<12>("cafebabefacedbaddecaf888").unwrap();
        let pt = hex::decode(
            "d9313225f88406e5a55909c5aff5269a\
             86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525\
             b16aedf5aa0de657ba637b391aafd255",
        )
        .unwrap();
        let out = AesGcm128::new(&key).seal(&nonce, b"", &pt);
        assert_eq!(
            hex::encode(&out),
            "42831ec2217774244b7221b784d0d49c\
             e3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa05\
             1ba30b396a0aac973d58e091473f5985\
             4d5c2af327cd64a62cf35abd2ba6fab4"
        );
    }

    #[test]
    fn nist_case4_with_aad_partial_block() {
        let key = hex::decode_array::<16>("feffe9928665731c6d6a8f9467308308").unwrap();
        let nonce = hex::decode_array::<12>("cafebabefacedbaddecaf888").unwrap();
        let pt = hex::decode(
            "d9313225f88406e5a55909c5aff5269a\
             86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525\
             b16aedf5aa0de657ba637b39",
        )
        .unwrap();
        let aad = hex::decode("feedfacedeadbeeffeedfacedeadbeefabaddad2").unwrap();
        let out = AesGcm128::new(&key).seal(&nonce, &aad, &pt);
        assert_eq!(
            hex::encode(&out),
            "42831ec2217774244b7221b784d0d49c\
             e3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa05\
             1ba30b396a0aac973d58e091\
             5bc94fbc3221a5db94fae95ae7121a47"
        );
    }

    #[test]
    fn roundtrip_with_aad() {
        let aead = AesGcm128::new(&[0x42; 16]);
        let nonce = [7u8; 12];
        let sealed = aead.seal(&nonce, b"header", b"the payload");
        let opened = aead.open(&nonce, b"header", &sealed).unwrap();
        assert_eq!(opened, b"the payload");
    }

    #[test]
    fn tamper_detection() {
        let aead = AesGcm128::new(&[0x42; 16]);
        let nonce = [7u8; 12];
        let sealed = aead.seal(&nonce, b"aad", b"payload");
        // Flip each byte in turn: ciphertext, tag — all must fail.
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert_eq!(
                aead.open(&nonce, b"aad", &bad),
                Err(CryptoError::VerificationFailed),
                "bit flip at byte {i} must be detected"
            );
        }
        // Wrong AAD and wrong nonce must fail too.
        assert!(aead.open(&nonce, b"wrong", &sealed).is_err());
        assert!(aead.open(&[8u8; 12], b"aad", &sealed).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let aead = AesGcm128::new(&[1; 16]);
        assert_eq!(
            aead.open(&[0; 12], b"", &[0u8; 15]),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let aead = AesGcm128::new(&[9; 16]);
        let sealed = aead.seal(&[1; 12], b"only aad", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(aead.open(&[1; 12], b"only aad", &sealed).unwrap(), b"");
    }

    #[test]
    fn gf_mul_identity_and_commutativity() {
        // x·1 in the reflected convention: 1 is 0x80000...0 (x^0 coefficient
        // in the MSB of the first byte).
        let one: u128 = 1 << 127;
        let a = 0x0123456789abcdef_0fedcba987654321u128;
        assert_eq!(ct_mul(a, one), a);
        assert_eq!(ct_mul(one, a), a);
        let b = 0xdeadbeefdeadbeef_cafebabecafebabeu128;
        assert_eq!(ct_mul(a, b), ct_mul(b, a));
        assert_eq!(ct_mul(a, 0), 0);
        assert_eq!(ct_mul(0, a), 0);
    }

    #[test]
    fn ctmul_matches_bit_serial_oracle_on_random_pairs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6c4a);
        let mut word = || u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        for _ in 0..100_000 {
            let (x, y) = (word(), word());
            assert_eq!(ct_mul(x, y), gf_mul(x, y), "x={x:032x} y={y:032x}");
        }
    }

    #[test]
    fn ctmul_matches_bit_serial_oracle_on_edge_inputs() {
        let one: u128 = 1 << 127;
        let specials = [
            0,
            one,
            1,
            u128::MAX,
            u128::from(u64::MAX),
            !u128::from(u64::MAX),
        ];
        let singles = (0..128).map(|i| 1u128 << i);
        let operands: Vec<u128> = specials.into_iter().chain(singles).collect();
        for &h in &operands {
            for &x in &operands {
                assert_eq!(ct_mul(x, h), gf_mul(x, h), "x={x:032x} h={h:032x}");
            }
        }
    }

    #[test]
    fn seal_and_open_match_reference_tag_on_every_short_length() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5ea1);
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        let aeads = [AesGcm128::new(&key), AesGcm128::new_software(&key)];
        let mut buf = vec![0u8; 48 + 1200];
        rng.fill_bytes(&mut buf);
        let (aad_src, pt_src) = buf.split_at(48);
        let nonce = [0x3c; 12];
        let lengths = (0..=48).flat_map(|a| (0..=80).map(move |p| (a, p)));
        for (aad_len, pt_len) in lengths.chain([(0, 1200), (48, 1200)]) {
            let (aad, pt) = (&aad_src[..aad_len], &pt_src[..pt_len]);
            let sealed = aeads[0].seal(&nonce, aad, pt);
            assert_eq!(sealed, aeads[1].seal(&nonce, aad, pt), "backends differ");
            let (ct, tag) = sealed.split_at(pt_len);
            assert_eq!(
                tag,
                reference_tag(&aeads[0], &nonce, aad, ct),
                "aad_len={aad_len} pt_len={pt_len}"
            );
            for aead in &aeads {
                assert_eq!(aead.open(&nonce, aad, &sealed).unwrap(), pt);
            }
        }
    }

    #[test]
    fn seal_into_appends_after_existing_bytes() {
        let aead = AesGcm128::new(&[0x42; 16]);
        let nonce = [7u8; 12];
        let mut out = b"header".to_vec();
        aead.seal_into(&nonce, b"aad", b"the payload", &mut out);
        assert_eq!(&out[..6], b"header");
        assert_eq!(out[6..], aead.seal(&nonce, b"aad", b"the payload"));
    }
}
