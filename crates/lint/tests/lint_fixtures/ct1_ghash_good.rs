//! Known-good CT-1 twin: GHASH's 64×64 carry-less multiply built from
//! integer multiplies "with holes" (BearSSL's `ctmul64`). The hash
//! subkey only ever meets masks, multiplies and shifts: no table index
//! and no branch depends on it.

pub fn bmul64(hash_subkey: u64, acc: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    const M1: u64 = M0 << 1;
    const M2: u64 = M0 << 2;
    const M3: u64 = M0 << 3;
    let (x0, x1, x2, x3) = (
        hash_subkey & M0,
        hash_subkey & M1,
        hash_subkey & M2,
        hash_subkey & M3,
    );
    let (y0, y1, y2, y3) = (acc & M0, acc & M1, acc & M2, acc & M3);
    let m = u64::wrapping_mul;
    let z0 = m(x0, y0) ^ m(x1, y3) ^ m(x2, y2) ^ m(x3, y1);
    let z1 = m(x0, y1) ^ m(x1, y0) ^ m(x2, y3) ^ m(x3, y2);
    let z2 = m(x0, y2) ^ m(x1, y1) ^ m(x2, y0) ^ m(x3, y3);
    let z3 = m(x0, y3) ^ m(x1, y2) ^ m(x2, y1) ^ m(x3, y0);
    (z0 & M0) | (z1 & M1) | (z2 & M2) | (z3 & M3)
}
