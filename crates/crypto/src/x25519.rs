//! X25519 Diffie-Hellman (RFC 7748).
//!
//! APNA binds every EphID to an ephemeral Curve25519 key pair; two hosts
//! derive their session key `k_EaEb` by running ECDH over the public keys
//! certified in their EphID certificates (§IV-D1). The host↔AS key `k_HA`
//! also comes from a DH exchange during bootstrapping (Fig. 2).
//!
//! The Montgomery ladder runs over all 255 bits with constant-time
//! conditional swaps; scalars are clamped per RFC 7748 §5. A
//! [`StaticSecret`] derives its public key once, at construction, through
//! the Ed25519 fixed-base comb and the birational map to Curve25519
//! (bit-identical to the ladder on u = 9, at about a third of its cost).

use crate::field25519::FieldElement;
use rand::{CryptoRng, RngCore};

/// The canonical base point u = 9.
pub const X25519_BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Clamps a 32-byte scalar per RFC 7748 §5.
#[must_use]
pub fn clamp_scalar(mut scalar: [u8; 32]) -> [u8; 32] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// The X25519 function: scalar multiplication on the Montgomery curve.
///
/// `scalar` is clamped internally; `u` has its top bit masked, per RFC 7748.
#[must_use]
pub fn x25519(scalar: [u8; 32], u: [u8; 32]) -> [u8; 32] {
    let k = clamp_scalar(scalar);
    let x1 = FieldElement::from_bytes(&u); // from_bytes masks bit 255

    let mut x2 = FieldElement::ONE;
    let mut z2 = FieldElement::ZERO;
    let mut x3 = x1;
    let mut z3 = FieldElement::ONE;
    let a24 = FieldElement::from_u64(121665);

    let mut swap = 0u64;
    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        FieldElement::cswap(swap, &mut x2, &mut x3);
        FieldElement::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&a24.mul(&e)));
    }
    FieldElement::cswap(swap, &mut x2, &mut x3);
    FieldElement::cswap(swap, &mut z2, &mut z3);

    x2.mul(&z2.invert()).to_bytes()
}

/// A long-lived X25519 private key, with its public key cached.
#[derive(Clone)]
pub struct StaticSecret {
    scalar: [u8; 32],
    public: PublicKey,
}

impl StaticSecret {
    /// Generates a fresh secret from `rng`.
    pub fn random_from_rng<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let mut scalar = [0u8; 32];
        rng.fill_bytes(&mut scalar);
        StaticSecret::from_bytes(scalar)
    }

    /// Builds a secret from raw bytes (clamped internally).
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        let scalar = clamp_scalar(bytes);
        StaticSecret {
            scalar,
            public: PublicKey(crate::ed25519::x25519_base(&scalar)),
        }
    }

    /// The corresponding public key, `x25519(scalar, 9)`.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Runs the DH function against a peer public key.
    #[must_use]
    pub fn diffie_hellman(&self, peer: &PublicKey) -> SharedSecret {
        SharedSecret(x25519(self.scalar, peer.0))
    }

    /// Raw scalar bytes (already clamped).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 32] {
        self.scalar
    }
}

/// An X25519 public key (32 bytes, the u-coordinate).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub [u8; 32]);

impl PublicKey {
    /// Raw key bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl core::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PublicKey({})", crate::hex::encode(&self.0[..8]))
    }
}

/// The result of a DH exchange.
#[derive(Clone)]
pub struct SharedSecret(pub [u8; 32]);

impl SharedSecret {
    /// Raw shared-secret bytes. Feed through a KDF before use as a key.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// True if the secret is all-zero, which happens iff the peer supplied
    /// a low-order point. APNA rejects such exchanges.
    #[must_use]
    pub fn is_contributory(&self) -> bool {
        self.0 != [0u8; 32]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let k = hex::decode_array::<32>(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(k, u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let k = hex::decode_array::<32>(
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(k, u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    // RFC 7748 §6.1 Diffie-Hellman vectors.
    #[test]
    fn rfc7748_dh() {
        let alice_priv = hex::decode_array::<32>(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        )
        .unwrap();
        let bob_priv = hex::decode_array::<32>(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        )
        .unwrap();
        let alice_pub = x25519(alice_priv, X25519_BASEPOINT);
        let bob_pub = x25519(bob_priv, X25519_BASEPOINT);
        assert_eq!(
            hex::encode(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = x25519(alice_priv, bob_pub);
        let shared_b = x25519(bob_priv, alice_pub);
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex::encode(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn iterated_vector_1000() {
        // RFC 7748 §5.2: after 1 iteration and 1000 iterations.
        let mut k = X25519_BASEPOINT;
        k[0] = 9;
        let mut u = k;
        let mut k_cur = k;
        for i in 0..1000 {
            let out = x25519(k_cur, u);
            u = k_cur;
            k_cur = out;
            if i == 0 {
                assert_eq!(
                    hex::encode(&k_cur),
                    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
                );
            }
        }
        assert_eq!(
            hex::encode(&k_cur),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn clamping() {
        let c = clamp_scalar([0xff; 32]);
        assert_eq!(c[0] & 7, 0);
        assert_eq!(c[31] & 0x80, 0);
        assert_eq!(c[31] & 0x40, 0x40);
    }

    #[test]
    fn low_order_point_gives_zero_output() {
        // u = 0 is a low-order point; the ladder must return all-zero, and
        // SharedSecret::is_contributory must flag it.
        let out = x25519([0x42; 32], [0u8; 32]);
        assert_eq!(out, [0u8; 32]);
        assert!(!SharedSecret(out).is_contributory());
    }

    #[test]
    fn cached_public_key_matches_ladder() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9);
        for _ in 0..200 {
            let mut raw = [0u8; 32];
            rng.fill_bytes(&mut raw);
            let secret = StaticSecret::from_bytes(raw);
            assert_eq!(secret.public_key().0, x25519(raw, X25519_BASEPOINT));
            assert_eq!(secret.clone().public_key(), secret.public_key());
        }
        // random_from_rng and from_bytes agree on the same draw.
        let mut a = rand::rngs::StdRng::seed_from_u64(0x10);
        let mut b = rand::rngs::StdRng::seed_from_u64(0x10);
        for _ in 0..20 {
            let from_rng = StaticSecret::random_from_rng(&mut a);
            let mut raw = [0u8; 32];
            b.fill_bytes(&mut raw);
            let from_bytes = StaticSecret::from_bytes(raw);
            assert_eq!(from_rng.to_bytes(), from_bytes.to_bytes());
            assert_eq!(from_rng.public_key(), from_bytes.public_key());
            assert_eq!(
                from_rng.public_key().0,
                x25519(from_rng.to_bytes(), X25519_BASEPOINT)
            );
        }
    }

    #[test]
    fn rfc7748_dh_public_keys_through_static_secret() {
        let alice = StaticSecret::from_bytes(
            hex::decode_array::<32>(
                "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
            )
            .unwrap(),
        );
        assert_eq!(
            hex::encode(alice.public_key().as_bytes()),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
    }

    #[test]
    fn keypair_api_agreement() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let a = StaticSecret::random_from_rng(&mut rng);
        let b = StaticSecret::random_from_rng(&mut rng);
        let s1 = a.diffie_hellman(&b.public_key());
        let s2 = b.diffie_hellman(&a.public_key());
        assert_eq!(s1.as_bytes(), s2.as_bytes());
        assert!(s1.is_contributory());
        assert_ne!(a.public_key(), b.public_key());
    }
}
