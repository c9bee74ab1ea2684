//! Ed25519 signatures (RFC 8032).
//!
//! APNA uses signatures in three places: ASes sign EphID certificates and
//! bootstrap messages with their domain key (Fig. 2, Fig. 3), hosts sign
//! shutoff requests with the private key of the victim EphID (Fig. 5), and
//! the DNS substrate signs records (DNSSEC stand-in, §VII-A). The paper's
//! prototype used the ed25519 SUPERCOP REF10 implementation; this is a
//! from-scratch RFC 8032 implementation over the private field-arithmetic
//! module (`field25519`).
//!
//! Verification is cofactorless (`[s]B = R + [k]A`), matching REF10.
//!
//! Every point multiplication is constant time, with no secret-dependent
//! branch or table index:
//!
//! * fixed-base `[a]B` (keygen, the signing nonce, the `[s]B` half of
//!   verify, and the X25519 public key) is ref10's signed radix-16 comb
//!   (`ge_scalarmult_base`): 64 mixed additions of affine-Niels points
//!   from a 32×8 table of `[1..8]·256ʲ·B`, plus 4 doublings. The table
//!   (30 KiB) is computed once on first use with one batched inversion;
//! * variable-base `[k](−A)` in verify is a fixed signed 4-bit window
//!   over an 8-entry table of `[1..8](−A)`: 64 additions and 252
//!   doublings. Verify then compares `[s]B + [k](−A)` with R
//!   projectively, which accepts exactly when the encodings would match.
//!
//! Each addition picks its table entry by reading all 8 entries under a
//! mask and applies the digit's sign by a masked select.

use crate::ct::ct_is_zero_u64;
use crate::field25519::FieldElement;
use crate::scalar25519 as sc;
use crate::sha2::Sha512;
use crate::CryptoError;
use rand::{CryptoRng, RngCore};
use std::sync::OnceLock;

/// Length of an Ed25519 signature.
pub const SIGNATURE_LEN: usize = 64;
/// Length of an encoded public key.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a private-key seed.
pub const SEED_LEN: usize = 32;

// ---------------------------------------------------------------------------
// Curve constants (computed, not transcribed)
// ---------------------------------------------------------------------------

struct Constants {
    d: FieldElement,
    d2: FieldElement,
    basepoint: EdwardsPoint,
}

fn constants() -> &'static Constants {
    static C: OnceLock<Constants> = OnceLock::new();
    C.get_or_init(|| {
        // d = -121665/121666 mod p.
        let d = FieldElement::from_u64(121665)
            .neg()
            .mul(&FieldElement::from_u64(121666).invert());
        let d2 = d.add(&d);
        // Basepoint: y = 4/5, x recovered with even ("non-negative") sign.
        let y = FieldElement::from_u64(4).mul(&FieldElement::from_u64(5).invert());
        let mut enc = y.to_bytes();
        enc[31] &= 0x7f; // sign bit 0
                         // y = 4/5 is a valid curve point by construction, so the
                         // decompression cannot fail; the identity fallback (which would
                         // make every group operation degenerate, caught instantly by the
                         // RFC 8032 vectors) keeps this path panic-free.
        let basepoint =
            EdwardsPoint::decompress_with_d(&enc, &d).unwrap_or_else(EdwardsPoint::identity);
        Constants { d, d2, basepoint }
    })
}

/// The comb table: row j holds `[1..8]·256ʲ·B` in affine-Niels form.
type BaseTable = [[AffineNielsPoint; 8]; 32];

fn base_table() -> &'static BaseTable {
    static TABLE: OnceLock<BaseTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let c = constants();
        let mut rows = [[EdwardsPoint::identity(); 8]; 32];
        let mut row_base = c.basepoint;
        for row in rows.iter_mut() {
            let mut p = row_base;
            for entry in row.iter_mut() {
                *entry = p;
                p = p.add(&row_base);
            }
            row_base = row_base.double_n(8);
        }
        let mut z_inv: Vec<FieldElement> = rows.iter().flatten().map(|p| p.z).collect();
        batch_invert(&mut z_inv);
        let mut table = [[AffineNielsPoint::IDENTITY; 8]; 32];
        for ((out, p), zi) in table
            .iter_mut()
            .flatten()
            .zip(rows.iter().flatten())
            .zip(z_inv)
        {
            let x = p.x.mul(&zi);
            let y = p.y.mul(&zi);
            *out = AffineNielsPoint {
                y_plus_x: y.add(&x),
                y_minus_x: y.sub(&x),
                xy2d: x.mul(&y).mul(&c.d2),
            };
        }
        table
    })
}

/// Inverts every element in place with one field inversion (Montgomery's
/// trick). No element may be zero; the Z of a point never is.
fn batch_invert(elems: &mut [FieldElement]) {
    let mut prefix = Vec::with_capacity(elems.len());
    let mut acc = FieldElement::ONE;
    for e in elems.iter() {
        prefix.push(acc);
        acc = acc.mul(e);
    }
    // inv = (e_0 ⋯ e_i)⁻¹ on entry to step i (walking down).
    let mut inv = acc.invert();
    for (e, before) in elems.iter_mut().zip(prefix).rev() {
        let e_inv = inv.mul(&before);
        inv = inv.mul(e);
        *e = e_inv;
    }
}

/// Signed radix-16 digits of a scalar below 2²⁵⁵: `a = Σ eᵢ·16ⁱ` with
/// `eᵢ ∈ [−8, 8)` for i < 63 and `e₆₃ ∈ [−8, 8]` (ref10's recoding, by
/// arithmetic only).
fn radix16(scalar: &[u8; 32]) -> [i8; 64] {
    let mut e = [0i8; 64];
    for (pair, &byte) in e.chunks_exact_mut(2).zip(scalar) {
        pair[0] = (byte & 15) as i8;
        pair[1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in e.iter_mut().take(63) {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;
    e
}

// ---------------------------------------------------------------------------
// Edwards points (extended coordinates, a = -1 curve)
// ---------------------------------------------------------------------------

/// A point on the twisted Edwards curve −x² + y² = 1 + d·x²y², in extended
/// homogeneous coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.
#[derive(Clone, Copy)]
struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// An affine point as `(y + x, y − x, 2dxy)`: the comb table's form, whose
/// mixed addition costs 7 multiplies.
#[derive(Clone, Copy)]
struct AffineNielsPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

/// A point as `(Y + X, Y − X, Z, 2dT)`: the window table's form.
#[derive(Clone, Copy)]
struct ProjectiveNielsPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z: FieldElement,
    t2d: FieldElement,
}

/// Table entries picked by [`lookup`].
trait Lookup: Copy {
    const IDENTITY: Self;
    /// `a` if `choice == 1`, else `b`, by masks.
    fn select(choice: u64, a: &Self, b: &Self) -> Self;
    /// The negated point: Y + X and Y − X swap and the 2d term flips.
    fn neg(&self) -> Self;
}

impl Lookup for AffineNielsPoint {
    const IDENTITY: Self = AffineNielsPoint {
        y_plus_x: FieldElement::ONE,
        y_minus_x: FieldElement::ONE,
        xy2d: FieldElement::ZERO,
    };

    fn select(choice: u64, a: &Self, b: &Self) -> Self {
        AffineNielsPoint {
            y_plus_x: FieldElement::select(choice, &a.y_plus_x, &b.y_plus_x),
            y_minus_x: FieldElement::select(choice, &a.y_minus_x, &b.y_minus_x),
            xy2d: FieldElement::select(choice, &a.xy2d, &b.xy2d),
        }
    }

    fn neg(&self) -> Self {
        AffineNielsPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

impl Lookup for ProjectiveNielsPoint {
    const IDENTITY: Self = ProjectiveNielsPoint {
        y_plus_x: FieldElement::ONE,
        y_minus_x: FieldElement::ONE,
        z: FieldElement::ONE,
        t2d: FieldElement::ZERO,
    };

    fn select(choice: u64, a: &Self, b: &Self) -> Self {
        ProjectiveNielsPoint {
            y_plus_x: FieldElement::select(choice, &a.y_plus_x, &b.y_plus_x),
            y_minus_x: FieldElement::select(choice, &a.y_minus_x, &b.y_minus_x),
            z: FieldElement::select(choice, &a.z, &b.z),
            t2d: FieldElement::select(choice, &a.t2d, &b.t2d),
        }
    }

    fn neg(&self) -> Self {
        ProjectiveNielsPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

/// `[digit]P` from the row `[1P, …, 8P]`, for `digit ∈ [−8, 8]`: every
/// entry is read and masked in, then the sign is applied by a masked
/// select, so neither the memory accesses nor the control flow depend on
/// the digit.
fn lookup<P: Lookup>(row: &[P; 8], digit: i8) -> P {
    let d = i64::from(digit);
    let sign_mask = d >> 63;
    let abs = ((d ^ sign_mask) - sign_mask) as u64;
    let mut t = P::IDENTITY;
    for (j, entry) in (1u64..).zip(row) {
        t = P::select(ct_is_zero_u64(abs ^ j), entry, &t);
    }
    P::select((sign_mask & 1) as u64, &t.neg(), &t)
}

impl EdwardsPoint {
    fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The extended point from the completed sum (E, F, G, H):
    /// X = EF, Y = GH, Z = FG, T = EH.
    fn from_completed(
        e: &FieldElement,
        f: &FieldElement,
        g: &FieldElement,
        h: &FieldElement,
    ) -> EdwardsPoint {
        EdwardsPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    fn to_projective_niels(self) -> ProjectiveNielsPoint {
        ProjectiveNielsPoint {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&constants().d2),
        }
    }

    /// Unified addition (complete on this curve, so also valid for
    /// doubling and the identity).
    fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        self.add_projective_niels(&other.to_projective_niels())
    }

    /// `self + q` (ref10 `ge_add`).
    fn add_projective_niels(&self, q: &ProjectiveNielsPoint) -> EdwardsPoint {
        let pp = self.y.add(&self.x).mul(&q.y_plus_x);
        let mm = self.y.sub(&self.x).mul(&q.y_minus_x);
        let tt = self.t.mul(&q.t2d);
        let zz = self.z.mul(&q.z);
        let zz2 = zz.add(&zz);
        Self::from_completed(&pp.sub(&mm), &zz2.sub(&tt), &zz2.add(&tt), &pp.add(&mm))
    }

    /// `self + q` for an affine q (ref10 `ge_madd`): q's Z = 1 saves the
    /// Z multiply.
    fn add_affine_niels(&self, q: &AffineNielsPoint) -> EdwardsPoint {
        let pp = self.y.add(&self.x).mul(&q.y_plus_x);
        let mm = self.y.sub(&self.x).mul(&q.y_minus_x);
        let tt = self.t.mul(&q.xy2d);
        let zz2 = self.z.add(&self.z);
        Self::from_completed(&pp.sub(&mm), &zz2.sub(&tt), &zz2.add(&tt), &pp.add(&mm))
    }

    /// The completed doubling (E, F, G, H) of (X : Y : Z); T is not read.
    fn double_completed(&self) -> (FieldElement, FieldElement, FieldElement, FieldElement) {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(&zz);
        let h = a.add(&b);
        let xy = self.x.add(&self.y);
        let e = h.sub(&xy.square());
        let g = a.sub(&b);
        let f = c.add(&g);
        (e, f, g, h)
    }

    /// `[2ⁿ]P` for n ≥ 1. Doubling never reads T, so only the last of the
    /// n doublings computes it.
    fn double_n(&self, n: u32) -> EdwardsPoint {
        let mut p = *self;
        for _ in 1..n {
            let (e, f, g, h) = p.double_completed();
            p.x = e.mul(&f);
            p.y = g.mul(&h);
            p.z = f.mul(&g);
        }
        let (e, f, g, h) = p.double_completed();
        Self::from_completed(&e, &f, &g, &h)
    }

    fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// `[a]B` for a scalar below 2²⁵⁵ by the signed radix-16 comb: with
    /// `a = Σⱼ (e₂ⱼ + 16·e₂ⱼ₊₁)·256ʲ`, sum the odd digits' row entries,
    /// multiply by 16, then add the even digits' entries.
    fn mul_base(scalar: &[u8; 32]) -> EdwardsPoint {
        let digits = radix16(scalar);
        let table = base_table();
        let mut acc = EdwardsPoint::identity();
        for (row, pair) in table.iter().zip(digits.chunks_exact(2)) {
            acc = acc.add_affine_niels(&lookup(row, pair[1]));
        }
        acc = acc.double_n(4);
        for (row, pair) in table.iter().zip(digits.chunks_exact(2)) {
            acc = acc.add_affine_niels(&lookup(row, pair[0]));
        }
        acc
    }

    /// `[a]P` for a scalar below 2²⁵⁵ by a fixed signed 4-bit window over
    /// `[1..8]P`, most significant digit first.
    fn mul(&self, scalar: &[u8; 32]) -> EdwardsPoint {
        let mut row = [ProjectiveNielsPoint::IDENTITY; 8];
        let mut multiple = *self;
        for entry in row.iter_mut() {
            *entry = multiple.to_projective_niels();
            multiple = multiple.add(self);
        }
        let digits = radix16(scalar);
        let mut acc = EdwardsPoint::identity().add_projective_niels(&lookup(&row, digits[63]));
        for &digit in digits[..63].iter().rev() {
            acc = acc.double_n(4).add_projective_niels(&lookup(&row, digit));
        }
        acc
    }

    /// Projective equality: X₁Z₂ = X₂Z₁ and Y₁Z₂ = Y₂Z₁, without the two
    /// inversions of comparing encodings.
    fn ct_eq(&self, other: &EdwardsPoint) -> bool {
        let x_eq = self.x.mul(&other.z).ct_eq(&other.x.mul(&self.z));
        let y_eq = self.y.mul(&other.z).ct_eq(&other.y.mul(&self.z));
        x_eq & y_eq
    }

    fn compress(&self) -> [u8; 32] {
        let recip = self.z.invert();
        let x = self.x.mul(&recip);
        let y = self.y.mul(&recip);
        let mut bytes = y.to_bytes();
        bytes[31] ^= (x.is_negative() as u8) << 7;
        bytes
    }

    fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        Self::decompress_with_d(bytes, &constants().d)
    }

    /// Decompression parameterized over d, so the constants initializer can
    /// build the basepoint before the `Constants` struct exists.
    fn decompress_with_d(bytes: &[u8; 32], d: &FieldElement) -> Option<EdwardsPoint> {
        let sign = bytes[31] >> 7;
        let y = FieldElement::from_bytes(bytes); // masks bit 255
        let yy = y.square();
        let u = yy.sub(&FieldElement::ONE);
        let v = d.mul(&yy).add(&FieldElement::ONE);
        let (is_square, mut x) = FieldElement::sqrt_ratio(&u, &v);
        if !is_square {
            return None;
        }
        if x.is_zero() && sign == 1 {
            return None; // -0 is not a valid encoding
        }
        if x.is_negative() as u8 != sign {
            x = x.neg();
        }
        Some(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        })
    }
}

/// The X25519 public key of a clamped scalar, through the comb: the
/// birational map sends the Edwards point (x, y) to the Montgomery
/// u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y), and B to u = 9. Bit-identical
/// to the ladder `x25519(scalar, 9)`.
pub(crate) fn x25519_base(clamped: &[u8; 32]) -> [u8; 32] {
    let p = EdwardsPoint::mul_base(clamped);
    p.z.add(&p.y).mul(&p.z.sub(&p.y).invert()).to_bytes()
}

// ---------------------------------------------------------------------------
// Keys and signatures
// ---------------------------------------------------------------------------

/// An Ed25519 signature (`R ‖ s`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; SIGNATURE_LEN]);

impl Signature {
    /// Parses a signature from raw bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Signature, CryptoError> {
        let arr: [u8; SIGNATURE_LEN] = bytes.try_into().map_err(|_| CryptoError::InvalidLength)?;
        Ok(Signature(arr))
    }

    /// Raw signature bytes.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        self.0
    }
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Signature({}..)", crate::hex::encode(&self.0[..6]))
    }
}

/// An Ed25519 signing key (seed + cached expansion).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; SEED_LEN],
    /// Clamped scalar `a`.
    scalar: [u8; 32],
    /// Domain-separation prefix for nonce derivation.
    prefix: [u8; 32],
    /// Cached public key.
    public: VerifyingKey,
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed (RFC 8032 §5.1.5).
    #[must_use]
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> SigningKey {
        let h = Sha512::digest(seed);
        let mut scalar = [0u8; 32];
        scalar.copy_from_slice(&h[..32]);
        scalar[0] &= 248;
        scalar[31] &= 127;
        scalar[31] |= 64;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        let public_point = EdwardsPoint::mul_base(&scalar);
        SigningKey {
            seed: *seed,
            scalar,
            prefix,
            public: VerifyingKey(public_point.compress()),
        }
    }

    /// Generates a fresh key from `rng`.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> SigningKey {
        let mut seed = [0u8; SEED_LEN];
        rng.fill_bytes(&mut seed);
        SigningKey::from_seed(&seed)
    }

    /// The seed this key was derived from.
    #[must_use]
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        &self.seed
    }

    /// The corresponding verification key.
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `message` (RFC 8032 §5.1.6).
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = sc::reduce_512(&h.finalize());
        let big_r = EdwardsPoint::mul_base(&r).compress();

        let mut h = Sha512::new();
        h.update(&big_r);
        h.update(&self.public.0);
        h.update(message);
        let k = sc::reduce_512(&h.finalize());
        let s = sc::mul_add(&k, &self.scalar, &r);

        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&big_r);
        sig[32..].copy_from_slice(&s);
        Signature(sig)
    }
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SigningKey(..)") // never print secret material
    }
}

/// An Ed25519 public (verification) key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub [u8; PUBLIC_KEY_LEN]);

impl VerifyingKey {
    /// Parses and validates an encoded public key (must decompress onto the
    /// curve).
    pub fn from_bytes(bytes: &[u8]) -> Result<VerifyingKey, CryptoError> {
        let arr: [u8; PUBLIC_KEY_LEN] = bytes.try_into().map_err(|_| CryptoError::InvalidLength)?;
        EdwardsPoint::decompress(&arr).ok_or(CryptoError::InvalidEncoding)?;
        Ok(VerifyingKey(arr))
    }

    /// Raw key bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LEN] {
        &self.0
    }

    /// Verifies `signature` over `message` (RFC 8032 §5.1.7, cofactorless).
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let a = EdwardsPoint::decompress(&self.0).ok_or(CryptoError::InvalidEncoding)?;
        let mut r_bytes = [0u8; 32];
        let mut s_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&signature.0[..32]);
        s_bytes.copy_from_slice(&signature.0[32..]);
        if !sc::is_canonical(&s_bytes) {
            return Err(CryptoError::InvalidEncoding); // malleability guard
        }
        let r = EdwardsPoint::decompress(&r_bytes).ok_or(CryptoError::InvalidEncoding)?;

        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.0);
        h.update(message);
        let k = sc::reduce_512(&h.finalize());

        // [s]B == R + [k]A  ⇔  [s]B + [k](−A) == R.
        let sb = EdwardsPoint::mul_base(&s_bytes);
        let ka_neg = a.neg().mul(&k);
        if sb.add(&ka_neg).ct_eq(&r) {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }
}

impl core::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VerifyingKey({}..)", crate::hex::encode(&self.0[..6]))
    }
}

#[cfg(test)]
mod oracle {
    //! The double-and-always-add ladder and the verify built on it that the
    //! comb and the window replaced, with the group-law formulas they used,
    //! kept as the differential-test reference.

    use super::*;

    impl EdwardsPoint {
        fn add_oracle(&self, other: &EdwardsPoint) -> EdwardsPoint {
            let c = constants();
            let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
            let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
            let cc = self.t.mul(&c.d2).mul(&other.t);
            let dd = self.z.mul(&other.z);
            let dd = dd.add(&dd);
            let e = b.sub(&a);
            let f = dd.sub(&cc);
            let g = dd.add(&cc);
            let h = b.add(&a);
            EdwardsPoint {
                x: e.mul(&f),
                y: g.mul(&h),
                z: f.mul(&g),
                t: e.mul(&h),
            }
        }

        fn double_oracle(&self) -> EdwardsPoint {
            let a = self.x.square();
            let b = self.y.square();
            let zz = self.z.square();
            let c = zz.add(&zz);
            let h = a.add(&b);
            let xy = self.x.add(&self.y);
            let e = h.sub(&xy.square());
            let g = a.sub(&b);
            let f = c.add(&g);
            EdwardsPoint {
                x: e.mul(&f),
                y: g.mul(&h),
                z: f.mul(&g),
                t: e.mul(&h),
            }
        }

        fn select(choice: u64, a: &EdwardsPoint, b: &EdwardsPoint) -> EdwardsPoint {
            EdwardsPoint {
                x: FieldElement::select(choice, &a.x, &b.x),
                y: FieldElement::select(choice, &a.y, &b.y),
                z: FieldElement::select(choice, &a.z, &b.z),
                t: FieldElement::select(choice, &a.t, &b.t),
            }
        }

        /// Scalar multiplication over all 256 bits, most significant first.
        pub(super) fn mul_ladder(&self, scalar: &[u8; 32]) -> EdwardsPoint {
            let mut acc = EdwardsPoint::identity();
            for byte in scalar.iter().rev() {
                for bit in (0..8).rev() {
                    acc = acc.double_oracle();
                    let sum = acc.add_oracle(self);
                    let b = ((byte >> bit) & 1) as u64;
                    acc = EdwardsPoint::select(b, &sum, &acc);
                }
            }
            acc
        }
    }

    /// RFC 8032 §5.1.7 with both multiplications on the ladder and the
    /// check on encodings.
    pub(super) fn verify(
        vk: &VerifyingKey,
        message: &[u8],
        signature: &Signature,
    ) -> Result<(), CryptoError> {
        let a = EdwardsPoint::decompress(&vk.0).ok_or(CryptoError::InvalidEncoding)?;
        let r_bytes: [u8; 32] = signature.0[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = signature.0[32..].try_into().unwrap();
        if !sc::is_canonical(&s_bytes) {
            return Err(CryptoError::InvalidEncoding);
        }
        let r = EdwardsPoint::decompress(&r_bytes).ok_or(CryptoError::InvalidEncoding)?;
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&vk.0);
        h.update(message);
        let k = sc::reduce_512(&h.finalize());
        let sb = constants().basepoint.mul_ladder(&s_bytes);
        let check = sb.add_oracle(&a.neg().mul_ladder(&k)).compress();
        if check == r.compress() {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::SeedableRng;

    const L_BYTES: [u8; 32] = [
        0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde,
        0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x10,
    ];

    /// `n` scalars below 2²⁵⁵: edges (0, 1, L − 1, L, L + 1, 2²⁵⁵ − 1, and
    /// all-8 nibbles, which carry through every digit), then seeded draws,
    /// half of them clamped.
    fn sample_scalars(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<[u8; 32]> {
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut l_minus_1 = L_BYTES;
        l_minus_1[0] -= 1;
        let mut l_plus_1 = L_BYTES;
        l_plus_1[0] += 1;
        let mut top = [0xffu8; 32];
        top[31] = 0x7f;
        let mut eights = [0x88u8; 32];
        eights[31] = 0x78;
        let mut out = vec![[0u8; 32], one, l_minus_1, L_BYTES, l_plus_1, top, eights];
        while out.len() < n {
            let mut s = [0u8; 32];
            rng.fill_bytes(&mut s);
            s[31] &= 0x7f;
            if rng.next_u32() & 1 == 1 {
                s = crate::x25519::clamp_scalar(s);
            }
            out.push(s);
        }
        out
    }

    /// The eight points of the torsion subgroup, `[0..8]·T` for a point T
    /// of order 8 found as `[L]P` of a decompressed point P.
    fn torsion_points() -> Vec<EdwardsPoint> {
        let mut enc = [0u8; 32];
        loop {
            enc[0] = enc[0].wrapping_add(1);
            let Some(p) = EdwardsPoint::decompress(&enc) else {
                continue;
            };
            let t = p.mul_ladder(&L_BYTES);
            if !t.double_n(2).ct_eq(&EdwardsPoint::identity()) {
                let mut out = vec![EdwardsPoint::identity()];
                for _ in 1..8 {
                    let next = out[out.len() - 1].add(&t);
                    out.push(next);
                }
                return out;
            }
        }
    }

    // RFC 8032 §7.1 test vectors.
    #[test]
    fn rfc8032_test1_empty_message() {
        let seed = hex::decode_array::<32>(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(key.verifying_key().as_bytes()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = key.sign(b"");
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        key.verifying_key().verify(b"", &sig).unwrap();
    }

    #[test]
    fn rfc8032_test2_one_byte() {
        let seed = hex::decode_array::<32>(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(key.verifying_key().as_bytes()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = key.sign(&[0x72]);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        key.verifying_key().verify(&[0x72], &sig).unwrap();
    }

    #[test]
    fn rfc8032_test3_two_bytes() {
        let seed = hex::decode_array::<32>(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(key.verifying_key().as_bytes()),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let sig = key.sign(&[0xaf, 0x82]);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        key.verifying_key().verify(&[0xaf, 0x82], &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let sig = key.sign(b"genuine packet");
        assert_eq!(
            key.verifying_key().verify(b"forged packet", &sig),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = SigningKey::from_seed(&[8u8; 32]);
        let msg = b"data";
        let good = key.sign(msg);
        for i in 0..SIGNATURE_LEN {
            let mut bad = good.to_bytes();
            bad[i] ^= 0x01;
            let sig = Signature(bad);
            assert!(
                key.verifying_key().verify(msg, &sig).is_err(),
                "flip at byte {i} must invalidate"
            );
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = SigningKey::from_seed(&[1u8; 32]);
        let k2 = SigningKey::from_seed(&[2u8; 32]);
        let sig = k1.sign(b"msg");
        assert!(k2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn non_canonical_s_rejected() {
        // Take a valid signature and add L to s: same group element, but the
        // encoding must be rejected (signature malleability).
        let key = SigningKey::from_seed(&[3u8; 32]);
        let sig = key.sign(b"m");
        let mut bytes = sig.to_bytes();
        // s += L  (little-endian add; valid s is < L < 2^253 so no overflow)
        const L_BYTES: [u8; 32] = [
            0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
            0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x10,
        ];
        let mut carry = 0u16;
        for i in 0..32 {
            let v = bytes[32 + i] as u16 + L_BYTES[i] as u16 + carry;
            bytes[32 + i] = v as u8;
            carry = v >> 8;
        }
        let forged = Signature(bytes);
        assert_eq!(
            key.verifying_key().verify(b"m", &forged),
            Err(CryptoError::InvalidEncoding)
        );
    }

    #[test]
    fn invalid_public_key_rejected() {
        // y = 2 does not satisfy the curve equation for any x.
        let mut bad = [0u8; 32];
        bad[0] = 2;
        assert_eq!(
            VerifyingKey::from_bytes(&bad),
            Err(CryptoError::InvalidEncoding)
        );
    }

    #[test]
    fn signature_is_deterministic() {
        let key = SigningKey::from_seed(&[9u8; 32]);
        assert_eq!(key.sign(b"x").to_bytes(), key.sign(b"x").to_bytes());
        assert_ne!(key.sign(b"x").to_bytes(), key.sign(b"y").to_bytes());
    }

    #[test]
    fn generate_roundtrip() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let key = SigningKey::generate(&mut rng);
        let restored = SigningKey::from_seed(key.seed());
        assert_eq!(
            restored.verifying_key().as_bytes(),
            key.verifying_key().as_bytes()
        );
        let sig = key.sign(b"hello");
        VerifyingKey::from_bytes(key.verifying_key().as_bytes())
            .unwrap()
            .verify(b"hello", &sig)
            .unwrap();
    }

    #[test]
    fn basepoint_has_order_l() {
        // [L]B must be the identity: compress(identity).y == 1.
        let mut identity_enc = [0u8; 32];
        identity_enc[0] = 1;
        let b = constants().basepoint;
        assert_eq!(EdwardsPoint::mul_base(&L_BYTES).compress(), identity_enc);
        assert_eq!(b.mul(&L_BYTES).compress(), identity_enc);
        assert_eq!(b.mul_ladder(&L_BYTES).compress(), identity_enc);
    }

    #[test]
    fn base_table_rows_are_multiples_of_256_powers() {
        let table = base_table();
        let b = constants().basepoint;
        for (j, row) in table.iter().enumerate() {
            for (k, entry) in row.iter().enumerate() {
                let mut scalar = [0u8; 32];
                scalar[j] = k as u8 + 1;
                let want = b.mul_ladder(&scalar);
                let got = EdwardsPoint::identity().add_affine_niels(entry);
                assert!(got.ct_eq(&want), "row {j} entry {k}");
            }
        }
        assert_eq!(std::mem::size_of::<BaseTable>(), 30 * 1024);
    }

    #[test]
    fn radix16_digits_recompose_the_scalar() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for scalar in sample_scalars(&mut rng, 1_000) {
            let e = radix16(&scalar);
            assert!(e[..63].iter().all(|&d| (-8..8).contains(&d)));
            assert!((-8..=8).contains(&e[63]));
            // Σ eᵢ·16ⁱ, evaluated with signed byte carries.
            let mut acc = [0i32; 33];
            for (i, &d) in e.iter().enumerate() {
                acc[i / 2] += i32::from(d) << (4 * (i % 2));
            }
            let mut out = [0u8; 32];
            let mut carry = 0i32;
            for (o, a) in out.iter_mut().zip(acc) {
                let v = a + carry;
                *o = v.rem_euclid(256) as u8;
                carry = v.div_euclid(256);
            }
            assert_eq!(carry, 0);
            assert_eq!(out, scalar);
        }
    }

    #[test]
    fn comb_matches_ladder_on_10k_scalars() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0b);
        let b = constants().basepoint;
        for scalar in sample_scalars(&mut rng, 10_000) {
            assert_eq!(
                EdwardsPoint::mul_base(&scalar).compress(),
                b.mul_ladder(&scalar).compress(),
                "{}",
                hex::encode(&scalar)
            );
        }
    }

    #[test]
    fn window_matches_ladder_on_10k_scalars() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x3d);
        let mut points = torsion_points();
        while points.len() < 64 {
            let mut enc = [0u8; 32];
            rng.fill_bytes(&mut enc);
            if let Some(p) = EdwardsPoint::decompress(&enc) {
                points.push(p); // any order: mostly 8L
            }
        }
        for (i, scalar) in sample_scalars(&mut rng, 10_000).iter().enumerate() {
            let p = points[i % points.len()];
            assert_eq!(
                p.mul(scalar).compress(),
                p.mul_ladder(scalar).compress(),
                "{}",
                hex::encode(scalar)
            );
        }
    }

    #[test]
    fn x25519_base_matches_ladder_on_10k_scalars() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x25519);
        for _ in 0..10_000 {
            let mut raw = [0u8; 32];
            rng.fill_bytes(&mut raw);
            let clamped = crate::x25519::clamp_scalar(raw);
            assert_eq!(
                x25519_base(&clamped),
                crate::x25519::x25519(clamped, crate::x25519::X25519_BASEPOINT)
            );
        }
    }

    #[test]
    fn verify_agrees_with_ladder_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7e);
        let mut cases: Vec<(VerifyingKey, Vec<u8>, Signature)> = Vec::new();
        let torsion = torsion_points();
        let torsion_encs: Vec<[u8; 32]> = torsion.iter().map(|p| p.compress()).collect();
        for round in 0..40u8 {
            let key = SigningKey::generate(&mut rng);
            let vk = key.verifying_key();
            let msg = vec![round; round as usize];
            let sig = key.sign(&msg);
            cases.push((vk, msg.clone(), sig)); // valid
            cases.push((vk, [msg.as_slice(), b"x"].concat(), sig)); // tampered message
            let mut bad = sig.to_bytes();
            bad[usize::from(round) % SIGNATURE_LEN] ^= 1 << (round % 8);
            cases.push((vk, msg.clone(), Signature(bad))); // tampered signature
            let other = SigningKey::generate(&mut rng).verifying_key();
            cases.push((other, msg.clone(), sig)); // wrong key
            let mut high_s = sig.to_bytes();
            high_s[63] |= 0xe0;
            cases.push((vk, msg.clone(), Signature(high_s))); // non-canonical s
            let small = torsion_encs[usize::from(round) % torsion_encs.len()];
            let mut small_r = sig.to_bytes();
            small_r[..32].copy_from_slice(&small);
            cases.push((vk, msg.clone(), Signature(small_r))); // small-order R
            cases.push((VerifyingKey(small), msg.clone(), sig)); // small-order A
        }
        // Signatures that do verify under a small-order A: pick s and a
        // torsion point Q, set R = [s]B − Q, and keep the tries where
        // [k]A happens to equal Q (about one in eight).
        let mut accepted = 0;
        for (i, a) in torsion.iter().enumerate().cycle().take(400) {
            let mut wide = [0u8; 64];
            rng.fill_bytes(&mut wide);
            let s = sc::reduce_512(&wide);
            let q = torsion[(i * 3 + 1) % 8];
            let r = EdwardsPoint::mul_base(&s).add(&q.neg()).compress();
            let mut sig = [0u8; 64];
            sig[..32].copy_from_slice(&r);
            sig[32..].copy_from_slice(&s);
            let vk = VerifyingKey(a.compress());
            let result = vk.verify(b"small", &Signature(sig));
            accepted += usize::from(result.is_ok());
            cases.push((vk, b"small".to_vec(), Signature(sig)));
        }
        assert!(accepted > 0, "no small-order-A signature verified");
        // R sent as the non-canonical encoding y = p of the order-4 point
        // (x, 0): with s = 0 and a torsion A, the tries where [k](−A) = R
        // verify, since R is hashed as sent and compared as a point.
        let mut p_enc = [0xffu8; 32];
        p_enc[0] = 0xed;
        p_enc[31] = 0x7f;
        let mut non_canonical_r = 0;
        for (n, a) in torsion.iter().cycle().take(64).enumerate() {
            let mut sig = [0u8; 64];
            sig[..32].copy_from_slice(&p_enc);
            let vk = VerifyingKey(a.compress());
            let msg = [n as u8; 3];
            non_canonical_r += usize::from(vk.verify(&msg, &Signature(sig)).is_ok());
            cases.push((vk, msg.to_vec(), Signature(sig)));
        }
        assert!(non_canonical_r > 0, "no non-canonical-R signature verified");
        for case in &cases {
            let (vk, msg, sig) = case;
            assert_eq!(vk.verify(msg, sig), oracle::verify(vk, msg, sig));
        }
    }

    #[test]
    fn projective_equality_matches_encodings() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xe9);
        let b = constants().basepoint;
        for scalar in sample_scalars(&mut rng, 200) {
            let p = EdwardsPoint::mul_base(&scalar);
            let q = b.mul_ladder(&scalar);
            assert!(p.ct_eq(&q));
            assert!(!p.ct_eq(&q.add(&b)));
            assert!(!p.ct_eq(&p.neg()) || p.x.is_zero());
        }
    }
}
