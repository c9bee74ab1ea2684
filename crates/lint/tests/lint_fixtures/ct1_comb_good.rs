//! Known-good CT-1 twin: the same comb, but each digit's entry is picked
//! by reading all eight entries of the row under a mask (ref10's
//! `select`). The scalar only ever meets masks and arithmetic: no table
//! index and no branch depends on it.

/// An affine-Niels point `(y + x, y − x, 2dxy)`, one limb per coordinate.
#[derive(Clone, Copy)]
pub struct Niels {
    pub y_plus_x: u64,
    pub y_minus_x: u64,
    pub xy2d: u64,
}

/// Row i holds `[1..=8]·256ⁱ·B`; sums the low-nibble digit's entries.
pub fn comb_sum(table: &[[Niels; 8]; 32], scalar: &[u8; 32]) -> Niels {
    let mut acc = Niels { y_plus_x: 1, y_minus_x: 1, xy2d: 0 };
    for i in 0..32 {
        let nibble = i64::from(scalar[i] & 15) - 8;
        let sign = nibble >> 63;
        let digit = ((nibble ^ sign) - sign) as u64;
        let mut entry = Niels { y_plus_x: 1, y_minus_x: 1, xy2d: 0 };
        for (j, candidate) in (1u64..).zip(table[i].iter()) {
            let x = digit ^ j;
            let mask = ((x | x.wrapping_neg()) >> 63).wrapping_sub(1);
            entry.y_plus_x ^= mask & (entry.y_plus_x ^ candidate.y_plus_x);
            entry.y_minus_x ^= mask & (entry.y_minus_x ^ candidate.y_minus_x);
            entry.xy2d ^= mask & (entry.xy2d ^ candidate.xy2d);
        }
        let swap = (entry.y_plus_x ^ entry.y_minus_x) & (sign as u64);
        acc.y_plus_x = acc.y_plus_x.wrapping_mul(entry.y_plus_x ^ swap);
        acc.y_minus_x = acc.y_minus_x.wrapping_mul(entry.y_minus_x ^ swap);
        acc.xy2d = acc.xy2d.wrapping_add((entry.xy2d ^ sign as u64).wrapping_sub(sign as u64));
    }
    acc
}
