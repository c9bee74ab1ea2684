//! Scalar arithmetic modulo the Ed25519 group order
//! L = 2²⁵² + 27742317777372353535851937790883648493.
//!
//! Ed25519 signing needs three operations: reduce a 512-bit hash output
//! mod L, compute (a·b + c) mod L, and check that an encoded scalar is
//! canonical (< L). Signing runs the first two on secrets (the nonce
//! r = H(prefix‖M) and k·a + r with the private scalar a), so both are
//! constant time: a binary long division over fixed-size limb arrays
//! whose per-bit compare-and-subtract keeps or drops the difference by a
//! borrow mask, and a schoolbook multiply with fixed carry chains. The
//! division is a few microseconds per signature, small next to the point
//! multiplications.

/// L as four little-endian u64 limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// `a − b` over four limbs, and the final borrow (1 iff a < b).
fn sub_borrow(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *o = d2;
        borrow = (b1 as u64) | (b2 as u64);
    }
    (out, borrow)
}

/// Reduces a little-endian limb array mod L by scanning bits from the most
/// significant end (schoolbook long division, branch-free).
fn mod_l<const N: usize>(limbs: &[u64; N]) -> [u64; 4] {
    let mut r = [0u64; 4];
    for i in (0..N * 64).rev() {
        // r = 2r + bit_i. r < L < 2^253 so the shift cannot overflow 256 bits.
        let mut carry = (limbs[i / 64] >> (i % 64)) & 1;
        for limb in r.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        // Keep r − L unless it borrowed (r < L).
        let (diff, borrow) = sub_borrow(&r, &L);
        for (x, d) in r.iter_mut().zip(diff) {
            *x = crate::ct::ct_select_u64(borrow, *x, d);
        }
    }
    r
}

/// Little-endian u64 limbs of `bytes`; limbs past its end stay zero.
fn limbs_from_le_bytes<const N: usize>(bytes: &[u8]) -> [u64; N] {
    let mut out = [0u64; N];
    for (limb, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(c);
        *limb = u64::from_le_bytes(le);
    }
    out
}

fn limbs_to_le_bytes(limbs: &[u64; 4]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, limb) in out.chunks_exact_mut(8).zip(limbs) {
        chunk.copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// Reduces a 64-byte little-endian value (SHA-512 output) mod L.
pub(crate) fn reduce_512(bytes: &[u8; 64]) -> [u8; 32] {
    limbs_to_le_bytes(&mod_l(&limbs_from_le_bytes::<8>(bytes)))
}

/// Reduces a 32-byte little-endian value mod L. Exercised by the test
/// suite and kept for API completeness alongside [`reduce_512`].
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn reduce_256(bytes: &[u8; 32]) -> [u8; 32] {
    limbs_to_le_bytes(&mod_l(&limbs_from_le_bytes::<4>(bytes)))
}

/// Computes (a·b + c) mod L over 32-byte little-endian scalars.
pub(crate) fn mul_add(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let al = limbs_from_le_bytes::<4>(a);
    let bl = limbs_from_le_bytes::<4>(b);
    let cl = limbs_from_le_bytes::<8>(c);
    // Schoolbook 4×4 multiply into 8 limbs. Row i leaves its carry in
    // limb i + 4, which no earlier row has written; a·b + c < 2⁵¹² so
    // nothing carries out of the top limb.
    let mut wide = [0u64; 8];
    for (i, &x) in al.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in bl.iter().enumerate() {
            let acc = wide[i + j] as u128 + (x as u128) * (y as u128) + carry;
            wide[i + j] = acc as u64;
            carry = acc >> 64;
        }
        wide[i + 4] = carry as u64;
    }
    // wide += c, carrying through every limb.
    let mut carry = 0u128;
    for (w, &y) in wide.iter_mut().zip(&cl) {
        let acc = *w as u128 + y as u128 + carry;
        *w = acc as u64;
        carry = acc >> 64;
    }
    limbs_to_le_bytes(&mod_l(&wide))
}

/// `true` if `s` encodes a scalar strictly less than L (required of the `s`
/// component of a signature, RFC 8032 §5.1.7).
pub(crate) fn is_canonical(s: &[u8; 32]) -> bool {
    sub_borrow(&limbs_from_le_bytes::<4>(s), &L).1 == 1
}

#[cfg(test)]
mod oracle {
    //! The branchy long division this module used before, kept as the
    //! differential-test reference.

    use super::{limbs_to_le_bytes, L};

    fn ge(a: &[u64; 4], b: &[u64; 4]) -> bool {
        for i in (0..4).rev() {
            if a[i] > b[i] {
                return true;
            }
            if a[i] < b[i] {
                return false;
            }
        }
        true
    }

    fn sub_in_place(a: &mut [u64; 4], b: &[u64; 4]) {
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = a[i].overflowing_sub(b[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            a[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
    }

    fn mod_l(limbs: &[u64]) -> [u64; 4] {
        let mut r = [0u64; 4];
        for i in (0..limbs.len() * 64).rev() {
            let mut carry = (limbs[i / 64] >> (i % 64)) & 1;
            for limb in r.iter_mut() {
                let new_carry = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = new_carry;
            }
            if ge(&r, &L) {
                sub_in_place(&mut r, &L);
            }
        }
        r
    }

    fn limbs(bytes: &[u8]) -> Vec<u64> {
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    pub(super) fn reduce(bytes: &[u8]) -> [u8; 32] {
        limbs_to_le_bytes(&mod_l(&limbs(bytes)))
    }

    pub(super) fn mul_add(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
        let (al, bl, cl) = (limbs(a), limbs(b), limbs(c));
        let mut wide = [0u64; 9];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let acc = wide[i + j] as u128 + (al[i] as u128) * (bl[j] as u128) + carry;
                wide[i + j] = acc as u64;
                carry = acc >> 64;
            }
            let mut k = i + 4;
            while carry > 0 {
                let acc = wide[k] as u128 + carry;
                wide[k] = acc as u64;
                carry = acc >> 64;
                k += 1;
            }
        }
        let mut carry = 0u128;
        for i in 0..4 {
            let acc = wide[i] as u128 + cl[i] as u128 + carry;
            wide[i] = acc as u64;
            carry = acc >> 64;
        }
        let mut k = 4;
        while carry > 0 {
            let acc = wide[k] as u128 + carry;
            wide[k] = acc as u64;
            carry = acc >> 64;
            k += 1;
        }
        limbs_to_le_bytes(&mod_l(&wide))
    }

    pub(super) fn is_canonical(s: &[u8; 32]) -> bool {
        let l: Vec<u64> = limbs(s);
        !ge(&[l[0], l[1], l[2], l[3]], &L)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// 512-bit edge inputs: 0, L − 1, L, L + 1, 2L, 2⁵¹² − 1, 2²⁵⁶ − 1.
    fn wide_edges() -> Vec<[u8; 64]> {
        let mut out = Vec::new();
        let mut with_low = |low: [u8; 32]| {
            let mut w = [0u8; 64];
            w[..32].copy_from_slice(&low);
            out.push(w);
        };
        let mut l_minus_1 = L_BYTES;
        l_minus_1[0] -= 1;
        let mut l_plus_1 = L_BYTES;
        l_plus_1[0] += 1;
        let two_l = mul_add_ref_small(&L_BYTES, 2);
        with_low([0u8; 32]);
        with_low(l_minus_1);
        with_low(L_BYTES);
        with_low(l_plus_1);
        with_low(two_l);
        with_low([0xff; 32]);
        out.push([0xff; 64]);
        out
    }

    /// x·m for a small m, by repeated byte-wise addition (no reduction).
    fn mul_add_ref_small(x: &[u8; 32], m: u32) -> [u8; 32] {
        let mut out = [0u8; 32];
        for _ in 0..m {
            let mut carry = 0u16;
            for i in 0..32 {
                let v = out[i] as u16 + x[i] as u16 + carry;
                out[i] = v as u8;
                carry = v >> 8;
            }
        }
        out
    }

    #[test]
    fn reduce_512_matches_oracle_on_10k_inputs_and_edges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x512);
        let mut inputs = wide_edges();
        for _ in 0..10_000 {
            let mut w = [0u8; 64];
            rng.fill_bytes(&mut w);
            inputs.push(w);
        }
        for w in &inputs {
            assert_eq!(
                reduce_512(w),
                oracle::reduce(w),
                "{}",
                crate::hex::encode(w)
            );
        }
    }

    #[test]
    fn reduce_256_and_is_canonical_match_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x256);
        let mut inputs: Vec<[u8; 32]> = wide_edges()
            .iter()
            .map(|w| w[..32].try_into().unwrap())
            .collect();
        for _ in 0..10_000 {
            let mut s = [0u8; 32];
            rng.fill_bytes(&mut s);
            // Half the draws land just around L (top byte 0x10 or 0x0f).
            if rng.next_u32() & 1 == 0 {
                s[31] = 0x0f + (s[31] & 1);
            }
            inputs.push(s);
        }
        for s in &inputs {
            assert_eq!(reduce_256(s), oracle::reduce(s));
            assert_eq!(is_canonical(s), oracle::is_canonical(s));
        }
    }

    #[test]
    fn mul_add_matches_oracle_on_10k_inputs_and_edges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xadd);
        let edges: Vec<[u8; 32]> = wide_edges()
            .iter()
            .map(|w| w[..32].try_into().unwrap())
            .collect();
        for a in &edges {
            for b in &edges {
                for c in &edges {
                    assert_eq!(mul_add(a, b, c), oracle::mul_add(a, b, c));
                }
            }
        }
        for _ in 0..10_000 {
            let mut abc = [[0u8; 32]; 3];
            for x in &mut abc {
                rng.fill_bytes(x);
            }
            let [a, b, c] = abc;
            assert_eq!(mul_add(&a, &b, &c), oracle::mul_add(&a, &b, &c));
        }
    }

    fn scalar(n: u64) -> [u8; 32] {
        let mut b = [0u8; 32];
        b[..8].copy_from_slice(&n.to_le_bytes());
        b
    }

    const L_BYTES: [u8; 32] = [
        0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde,
        0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x10,
    ];

    #[test]
    fn l_reduces_to_zero() {
        assert_eq!(reduce_256(&L_BYTES), [0u8; 32]);
        let mut l_plus_5 = L_BYTES;
        l_plus_5[0] += 5;
        assert_eq!(reduce_256(&l_plus_5), scalar(5));
    }

    #[test]
    fn small_values_unchanged() {
        assert_eq!(reduce_256(&scalar(0)), scalar(0));
        assert_eq!(reduce_256(&scalar(1)), scalar(1));
        assert_eq!(reduce_256(&scalar(0xdeadbeef)), scalar(0xdeadbeef));
    }

    #[test]
    fn reduce_512_all_ones() {
        // 2^512 - 1 mod L must equal the iterated small reduction.
        let wide = [0xffu8; 64];
        let r = reduce_512(&wide);
        assert!(is_canonical(&r));
        assert_ne!(r, [0u8; 32]);
    }

    #[test]
    fn mul_add_small() {
        // 3 * 4 + 5 = 17.
        assert_eq!(mul_add(&scalar(3), &scalar(4), &scalar(5)), scalar(17));
        // a*0 + c = c.
        assert_eq!(mul_add(&scalar(77), &scalar(0), &scalar(9)), scalar(9));
        // 1 acts as multiplicative identity.
        let a = reduce_512(&[0xabu8; 64]);
        assert_eq!(mul_add(&a, &scalar(1), &scalar(0)), a);
    }

    #[test]
    fn mul_add_wraps_mod_l() {
        // (L-1) + 1 ≡ 0.
        let mut l_minus_1 = L_BYTES;
        l_minus_1[0] -= 1;
        assert_eq!(mul_add(&l_minus_1, &scalar(1), &scalar(1)), [0u8; 32]);
        // (L-1)·(L-1) ≡ 1 (since -1·-1 = 1).
        assert_eq!(mul_add(&l_minus_1, &l_minus_1, &scalar(0)), scalar(1));
    }

    #[test]
    fn canonicity() {
        assert!(is_canonical(&[0u8; 32]));
        assert!(is_canonical(&scalar(12345)));
        assert!(!is_canonical(&L_BYTES));
        assert!(!is_canonical(&[0xff; 32]));
        let mut l_minus_1 = L_BYTES;
        l_minus_1[0] -= 1;
        assert!(is_canonical(&l_minus_1));
    }

    #[test]
    fn reduction_is_idempotent() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..20 {
            let mut wide = [0u8; 64];
            rng.fill_bytes(&mut wide);
            let r = reduce_512(&wide);
            assert!(is_canonical(&r));
            assert_eq!(reduce_256(&r), r);
        }
    }

    #[test]
    fn distributivity_of_mul_add() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let mut buf = [0u8; 64];
        rng.fill_bytes(&mut buf);
        let a = reduce_512(&buf);
        rng.fill_bytes(&mut buf);
        let b = reduce_512(&buf);
        rng.fill_bytes(&mut buf);
        let c = reduce_512(&buf);
        // (a+c)·b = a·b + c·b  — computed via mul_add chains.
        let a_plus_c = mul_add(&a, &scalar(1), &c);
        let lhs = mul_add(&a_plus_c, &b, &scalar(0));
        let ab = mul_add(&a, &b, &scalar(0));
        let rhs = mul_add(&c, &b, &ab);
        assert_eq!(lhs, rhs);
    }
}
