//! Known-bad CT-1 fixture: a fixed-base comb that loads each signed
//! radix-16 digit's multiple straight from the precomputed table,
//! `table[i][digit]`. Which of the row's entries is read — and so which
//! cache line is touched — depends on the secret scalar.

/// An affine-Niels point `(y + x, y − x, 2dxy)`, one limb per coordinate.
#[derive(Clone, Copy)]
pub struct Niels {
    pub y_plus_x: u64,
    pub y_minus_x: u64,
    pub xy2d: u64,
}

/// Row i holds `[0..=8]·256ⁱ·B`; sums the low-nibble digit's entries.
pub fn comb_sum(table: &[[Niels; 9]; 32], scalar: &[u8; 32]) -> Niels {
    let mut acc = Niels { y_plus_x: 1, y_minus_x: 1, xy2d: 0 };
    for i in 0..32 {
        let nibble = i64::from(scalar[i] & 15) - 8;
        let sign = nibble >> 63;
        let digit = ((nibble ^ sign) - sign) as usize;
        let entry = table[i][digit];
        // Conditional negation by mask: swap y ± x and flip 2dxy.
        let swap = (entry.y_plus_x ^ entry.y_minus_x) & (sign as u64);
        acc.y_plus_x = acc.y_plus_x.wrapping_mul(entry.y_plus_x ^ swap);
        acc.y_minus_x = acc.y_minus_x.wrapping_mul(entry.y_minus_x ^ swap);
        acc.xy2d = acc.xy2d.wrapping_add((entry.xy2d ^ sign as u64).wrapping_sub(sign as u64));
    }
    acc
}
