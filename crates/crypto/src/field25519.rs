//! Field arithmetic modulo p = 2²⁵⁵ − 19 (the Curve25519 base field).
//!
//! Elements are held in five 51-bit limbs (radix 2⁵¹), the standard
//! representation for 64-bit targets: products of two 51-bit limbs fit a
//! u128 with room to accumulate, and reduction folds the overflow back with
//! a multiply by 19. Squaring has its own limb schedule (15 products
//! instead of 25).
//!
//! Inversion and the square-root power sit on every Ed25519 keygen, sign
//! and verify (point compression and decompression) and on every X25519
//! output, so both run ref10's fixed addition chain (`pow22501`): 254
//! squarings and 11 multiplies for a^(p−2), 251 and 11 for a^((p−5)/8),
//! against ~505 operations for a generic square-and-multiply over the
//! exponent's bits. The chain is fixed, so its timing is independent of
//! the input. √−1 is computed once and cached.

use crate::ct::ct_select_u64;
use std::sync::OnceLock;

/// Mask of the low 51 bits.
const LOW_51: u64 = (1 << 51) - 1;

/// An element of GF(2²⁵⁵ − 19). Limbs are kept reduced below ~2⁵² between
/// operations (loose bound; `to_bytes` performs the canonical reduction).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FieldElement(pub(crate) [u64; 5]);

impl FieldElement {
    pub(crate) const ZERO: FieldElement = FieldElement([0; 5]);
    pub(crate) const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// Small-integer constructor (used for curve constants like 121665).
    pub(crate) fn from_u64(x: u64) -> FieldElement {
        debug_assert!(x <= LOW_51);
        FieldElement([x, 0, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes; the top bit (bit 255) is ignored,
    /// matching RFC 7748/8032 field-element decoding.
    pub(crate) fn from_bytes(bytes: &[u8; 32]) -> FieldElement {
        let load8 = |b: &[u8]| -> u64 {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_le_bytes(a)
        };
        FieldElement([
            load8(&bytes[0..8]) & LOW_51,
            (load8(&bytes[6..14]) >> 3) & LOW_51,
            (load8(&bytes[12..20]) >> 6) & LOW_51,
            (load8(&bytes[19..27]) >> 1) & LOW_51,
            (load8(&bytes[24..32]) >> 12) & LOW_51,
        ])
    }

    /// Canonical little-endian encoding (fully reduced mod p, bit 255 = 0).
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        let mut l = self.reduce_weak().0;
        // Compute the quotient q = floor((h + 19) / 2^255): q is 1 iff
        // h >= p after weak reduction.
        let mut q = (l[0] + 19) >> 51;
        q = (l[1] + q) >> 51;
        q = (l[2] + q) >> 51;
        q = (l[3] + q) >> 51;
        q = (l[4] + q) >> 51;
        // h + 19q then discard bit 255 == h mod p.
        l[0] += 19 * q;
        l[1] += l[0] >> 51;
        l[0] &= LOW_51;
        l[2] += l[1] >> 51;
        l[1] &= LOW_51;
        l[3] += l[2] >> 51;
        l[2] &= LOW_51;
        l[4] += l[3] >> 51;
        l[3] &= LOW_51;
        l[4] &= LOW_51;

        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0;
        for (i, &limb) in l.iter().enumerate() {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = acc as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
            let _ = i;
        }
        if idx < 32 {
            out[idx] = acc as u8;
        }
        out
    }

    /// One pass of carry propagation, leaving limbs < 2⁵¹ + ε.
    fn reduce_weak(self) -> FieldElement {
        let mut l = self.0;
        let c0 = l[0] >> 51;
        l[0] &= LOW_51;
        let c1 = (l[1] + c0) >> 51;
        l[1] = (l[1] + c0) & LOW_51;
        let c2 = (l[2] + c1) >> 51;
        l[2] = (l[2] + c1) & LOW_51;
        let c3 = (l[3] + c2) >> 51;
        l[3] = (l[3] + c2) & LOW_51;
        let c4 = (l[4] + c3) >> 51;
        l[4] = (l[4] + c3) & LOW_51;
        l[0] += c4 * 19;
        FieldElement(l)
    }

    pub(crate) fn add(&self, rhs: &FieldElement) -> FieldElement {
        let a = &self.0;
        let b = &rhs.0;
        FieldElement([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
        .reduce_weak()
    }

    pub(crate) fn sub(&self, rhs: &FieldElement) -> FieldElement {
        // Add 16p before subtracting so limbs never underflow (inputs are
        // bounded well below 16p's limbs).
        const SIXTEEN_P0: u64 = 36028797018963664; // 16·(2⁵¹ − 19)
        const SIXTEEN_PI: u64 = 36028797018963952; // 16·(2⁵¹ − 1)
        let a = &self.0;
        let b = &rhs.0;
        FieldElement([
            a[0] + SIXTEEN_P0 - b[0],
            a[1] + SIXTEEN_PI - b[1],
            a[2] + SIXTEEN_PI - b[2],
            a[3] + SIXTEEN_PI - b[3],
            a[4] + SIXTEEN_PI - b[4],
        ])
        .reduce_weak()
    }

    pub(crate) fn neg(&self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    pub(crate) fn mul(&self, rhs: &FieldElement) -> FieldElement {
        let a = &self.0;
        let b = &rhs.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        // c_k = Σ_{i+j≡k (mod 5)} a_i·b_j, with wrapped terms scaled by 19.
        let c0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let c1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let c2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let c3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let c4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        Self::carry_wide([c0, c1, c2, c3, c4])
    }

    pub(crate) fn square(&self) -> FieldElement {
        let a = &self.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a1_38 = a[1] * 38;
        let a2_38 = a[2] * 38;
        let a3_38 = a[3] * 38;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;

        // The products of `mul` with a = b: each cross term a_i·a_j (i ≠ j)
        // appears twice, and wrapped terms carry the factor 19.
        let c0 = m(a[0], a[0]) + m(a1_38, a[4]) + m(a2_38, a[3]);
        let c1 = m(a0_2, a[1]) + m(a2_38, a[4]) + m(a3_19, a[3]);
        let c2 = m(a0_2, a[2]) + m(a[1], a[1]) + m(a3_38, a[4]);
        let c3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a4_19, a[4]);
        let c4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);

        Self::carry_wide([c0, c1, c2, c3, c4])
    }

    /// `n` successive squarings: self^(2ⁿ).
    fn square_n(&self, n: u32) -> FieldElement {
        let mut r = *self;
        for _ in 0..n {
            r = r.square();
        }
        r
    }

    /// Carries a wide-limb intermediate back to 51-bit limbs.
    fn carry_wide(mut c: [u128; 5]) -> FieldElement {
        let mut out = [0u64; 5];
        c[1] += c[0] >> 51;
        out[0] = (c[0] as u64) & LOW_51;
        c[2] += c[1] >> 51;
        out[1] = (c[1] as u64) & LOW_51;
        c[3] += c[2] >> 51;
        out[2] = (c[2] as u64) & LOW_51;
        c[4] += c[3] >> 51;
        out[3] = (c[3] as u64) & LOW_51;
        let carry = (c[4] >> 51) as u64;
        out[4] = (c[4] as u64) & LOW_51;
        out[0] += carry * 19;
        let c5 = out[0] >> 51;
        out[0] &= LOW_51;
        out[1] += c5;
        FieldElement(out)
    }

    /// ref10's `pow22501` chain: returns (a^(2²⁵⁰ − 1), a¹¹), the shared
    /// prefix of the inversion and square-root exponents.
    fn pow22501(&self) -> (FieldElement, FieldElement) {
        let t0 = self.square(); // 2
        let t1 = t0.square_n(2).mul(self); // 9
        let t0 = t0.mul(&t1); // 11
        let t1 = t1.mul(&t0.square()); // 31 = 2⁵ − 1
        let t1 = t1.square_n(5).mul(&t1); // 2¹⁰ − 1
        let t2 = t1.square_n(10).mul(&t1); // 2²⁰ − 1
        let t2 = t2.square_n(20).mul(&t2); // 2⁴⁰ − 1
        let t1 = t2.square_n(10).mul(&t1); // 2⁵⁰ − 1
        let t2 = t1.square_n(50).mul(&t1); // 2¹⁰⁰ − 1
        let t2 = t2.square_n(100).mul(&t2); // 2²⁰⁰ − 1
        let t1 = t2.square_n(50).mul(&t1); // 2²⁵⁰ − 1
        (t1, t0)
    }

    /// Multiplicative inverse via Fermat: a^(p−2). Returns zero for zero.
    pub(crate) fn invert(&self) -> FieldElement {
        // p − 2 = 2²⁵⁵ − 21 = (2²⁵⁰ − 1)·2⁵ + 11.
        let (t250, t11) = self.pow22501();
        t250.square_n(5).mul(&t11)
    }

    /// a^((p−5)/8) = a^(2²⁵² − 3), used by square-root extraction.
    pub(crate) fn pow_p58(&self) -> FieldElement {
        // 2²⁵² − 3 = (2²⁵⁰ − 1)·2² + 1.
        let (t250, _) = self.pow22501();
        t250.square_n(2).mul(self)
    }

    /// √−1 = 2^((p−1)/4), computed rather than transcribed, once.
    pub(crate) fn sqrt_m1() -> FieldElement {
        static SQRT_M1: OnceLock<FieldElement> = OnceLock::new();
        // 2 is a non-residue (p ≡ 5 mod 8), so 2^((p−1)/4) squares to
        // 2^((p−1)/2) = −1. (p − 1)/4 = 2²⁵³ − 5 = (2²⁵² − 3)·2 + 1.
        *SQRT_M1.get_or_init(|| {
            let two = FieldElement::from_u64(2);
            two.pow_p58().square().mul(&two)
        })
    }

    pub(crate) fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Bit 0 of the canonical encoding ("sign" bit in RFC 8032 terms).
    pub(crate) fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    pub(crate) fn ct_eq(&self, other: &FieldElement) -> bool {
        crate::ct::ct_eq(&self.to_bytes(), &other.to_bytes())
    }

    /// Constant-time select: `a` if `choice == 1`, else `b`.
    pub(crate) fn select(choice: u64, a: &FieldElement, b: &FieldElement) -> FieldElement {
        let mut out = [0u64; 5];
        for (o, (&x, &y)) in out.iter_mut().zip(a.0.iter().zip(b.0.iter())) {
            *o = ct_select_u64(choice, x, y);
        }
        FieldElement(out)
    }

    /// Constant-time conditional swap.
    pub(crate) fn cswap(choice: u64, a: &mut FieldElement, b: &mut FieldElement) {
        for i in 0..5 {
            crate::ct::ct_swap_u64(choice, &mut a.0[i], &mut b.0[i]);
        }
    }

    /// Computes √(u/v) if it exists (RFC 8032 decompression step).
    ///
    /// Returns `(was_square, root)`; on success the root r satisfies
    /// v·r² = u with r "non-negative" not enforced (caller adjusts sign).
    pub(crate) fn sqrt_ratio(u: &FieldElement, v: &FieldElement) -> (bool, FieldElement) {
        // Candidate root x = u·v³·(u·v⁷)^((p−5)/8).
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vx2 = v.mul(&x.square());
        if vx2.ct_eq(u) {
            (true, x)
        } else if vx2.ct_eq(&u.neg()) {
            x = x.mul(&FieldElement::sqrt_m1());
            (true, x)
        } else {
            (false, FieldElement::ZERO)
        }
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The generic square-and-multiply exponentiation the addition chains
    //! replaced, kept as the differential-test reference.

    use super::FieldElement;

    /// Raises to the power given as little-endian bytes (fixed ladder over
    /// every bit).
    pub(crate) fn pow(a: &FieldElement, exponent_le: &[u8]) -> FieldElement {
        let mut result = FieldElement::ONE;
        for byte in exponent_le.iter().rev() {
            for bit in (0..8).rev() {
                result = result.mul(&result);
                if (byte >> bit) & 1 == 1 {
                    result = result.mul(a);
                }
            }
        }
        result
    }

    /// a^(p−2) through [`pow`].
    pub(crate) fn invert(a: &FieldElement) -> FieldElement {
        // p − 2 = 2²⁵⁵ − 21, little-endian.
        let mut exp = [0xffu8; 32];
        exp[0] = 0xeb;
        exp[31] = 0x7f;
        pow(a, &exp)
    }

    /// a^(2²⁵² − 3) through [`pow`].
    pub(crate) fn pow_p58(a: &FieldElement) -> FieldElement {
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfd;
        exp[31] = 0x0f;
        pow(a, &exp)
    }

    /// 2^((p−1)/4) through [`pow`].
    pub(crate) fn sqrt_m1() -> FieldElement {
        // (p − 1) / 4 = 2²⁵³ − 5.
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfb;
        exp[31] = 0x1f;
        pow(&FieldElement::from_u64(2), &exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> FieldElement {
        FieldElement::from_u64(n)
    }

    /// Seeded elements covering canonical encodings, limbs at the loose
    /// bound (just under 2⁵²), and the edges 0, 1, p − 1, p.
    fn sample_elements(n: usize, seed: u64) -> Vec<FieldElement> {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut p_minus_1 = [0xffu8; 32];
        p_minus_1[0] = 0xec;
        p_minus_1[31] = 0x7f;
        let mut p = p_minus_1;
        p[0] = 0xed;
        let mut out = vec![
            FieldElement::ZERO,
            FieldElement::ONE,
            FieldElement::from_bytes(&p_minus_1),
            FieldElement::from_bytes(&p),
            FieldElement([(1 << 52) - 1; 5]),
        ];
        while out.len() < n {
            if rng.gen::<bool>() {
                let mut bytes = [0u8; 32];
                rng.fill_bytes(&mut bytes);
                out.push(FieldElement::from_bytes(&bytes));
            } else {
                let mut limbs = [0u64; 5];
                for l in &mut limbs {
                    *l = rng.next_u64() & ((1 << 52) - 1);
                }
                out.push(FieldElement(limbs));
            }
        }
        out
    }

    #[test]
    fn square_matches_mul_on_10k_elements() {
        for a in sample_elements(10_000, 0x5a5a) {
            assert_eq!(a.square().to_bytes(), a.mul(&a).to_bytes(), "{:?}", a.0);
        }
    }

    #[test]
    fn invert_matches_generic_pow_on_10k_elements() {
        for a in sample_elements(10_000, 0x1a1a) {
            assert_eq!(
                a.invert().to_bytes(),
                oracle::invert(&a).to_bytes(),
                "{:?}",
                a.0
            );
        }
    }

    #[test]
    fn pow_p58_matches_generic_pow_on_10k_elements() {
        for a in sample_elements(10_000, 0x5858) {
            assert_eq!(
                a.pow_p58().to_bytes(),
                oracle::pow_p58(&a).to_bytes(),
                "{:?}",
                a.0
            );
        }
    }

    #[test]
    fn sqrt_m1_matches_generic_pow() {
        assert_eq!(
            FieldElement::sqrt_m1().to_bytes(),
            oracle::sqrt_m1().to_bytes()
        );
    }

    #[test]
    fn bytes_roundtrip_small() {
        for n in [0u64, 1, 2, 19, 255, 1 << 40] {
            let e = fe(n);
            let b = e.to_bytes();
            assert_eq!(FieldElement::from_bytes(&b).to_bytes(), b);
            assert_eq!(u64::from_le_bytes(b[..8].try_into().unwrap()), n);
        }
    }

    #[test]
    fn p_encodes_as_zero() {
        // p = 2^255 - 19 must canonically reduce to 0.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let e = FieldElement::from_bytes(&p_bytes);
        // from_bytes masks bit 255 but p < 2^255 so it parses fully; add
        // zero to force reduction through arithmetic.
        assert_eq!(e.add(&FieldElement::ZERO).to_bytes(), [0u8; 32]);
    }

    #[test]
    fn nineteen_plus_p_minus_nineteen() {
        let a = fe(19);
        assert!(a.sub(&a).is_zero());
        assert_eq!(a.sub(&fe(20)).add(&FieldElement::ONE).to_bytes(), [0u8; 32]);
    }

    #[test]
    fn mul_matches_addition_chains() {
        let three = fe(3);
        let twelve = fe(12);
        assert!(three.mul(&fe(4)).ct_eq(&twelve));
        assert!(three.square().ct_eq(&fe(9)));
        // Distributivity: (a+b)·c = a·c + b·c.
        let (a, b, c) = (fe(12345), fe(67890), fe(31337));
        let lhs = a.add(&b).mul(&c);
        let rhs = a.mul(&c).add(&b.mul(&c));
        assert!(lhs.ct_eq(&rhs));
    }

    #[test]
    fn inverse_of_two() {
        let two = fe(2);
        let inv = two.invert();
        assert!(two.mul(&inv).ct_eq(&FieldElement::ONE));
        assert!(FieldElement::ZERO.invert().is_zero());
    }

    #[test]
    fn inverse_random_elements() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            bytes[31] &= 0x7f;
            let e = FieldElement::from_bytes(&bytes);
            if e.is_zero() {
                continue;
            }
            assert!(e.mul(&e.invert()).ct_eq(&FieldElement::ONE));
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = FieldElement::sqrt_m1();
        assert!(i.square().ct_eq(&FieldElement::ONE.neg()));
    }

    #[test]
    fn sqrt_ratio_perfect_square() {
        let (ok, r) = FieldElement::sqrt_ratio(&fe(4), &FieldElement::ONE);
        assert!(ok);
        assert!(r.square().ct_eq(&fe(4)));
    }

    #[test]
    fn sqrt_ratio_non_square() {
        // 2 is a non-residue mod p (p ≡ 5 mod 8), and 1/1 ratio keeps it so.
        let (ok, _) = FieldElement::sqrt_ratio(&fe(2), &FieldElement::ONE);
        assert!(!ok);
    }

    #[test]
    fn select_and_cswap() {
        let a = fe(5);
        let b = fe(7);
        assert!(FieldElement::select(1, &a, &b).ct_eq(&a));
        assert!(FieldElement::select(0, &a, &b).ct_eq(&b));
        let mut x = a;
        let mut y = b;
        FieldElement::cswap(1, &mut x, &mut y);
        assert!(x.ct_eq(&b) && y.ct_eq(&a));
        FieldElement::cswap(0, &mut x, &mut y);
        assert!(x.ct_eq(&b) && y.ct_eq(&a));
    }

    #[test]
    fn negation() {
        let a = fe(1234);
        assert!(a.add(&a.neg()).is_zero());
        assert!(a.neg().neg().ct_eq(&a));
    }

    #[test]
    fn high_bit_of_encoding_is_clear() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let e = FieldElement::from_bytes(&bytes);
            assert_eq!(e.to_bytes()[31] & 0x80, 0);
        }
    }
}
