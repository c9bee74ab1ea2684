//! Known-bad CT-1 fixture: the tempting table-driven GHASH (Shoup's
//! 4-bit method). The table holds the sixteen multiples of the
//! accumulator and is indexed by successive nibbles of the hash subkey
//! H = AES_K(0) — so which table line is loaded, and therefore the cache
//! footprint, depends on the key.

const R4: u128 = 0xe1 << 120;

pub fn gmul_4bit(acc: u128, hash_subkey: u128) -> u128 {
    let mut table = [0u128; 16];
    let mut v = acc;
    for i in [8usize, 4, 2, 1] {
        table[i] = v;
        v = (v >> 1) ^ (R4 & 0u128.wrapping_sub(v & 1));
    }
    for i in [3usize, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15] {
        table[i] = table[i & (i - 1)] ^ table[i & i.wrapping_neg()];
    }
    let mut z = 0u128;
    for shift in (0..128).step_by(4) {
        let nibble = ((hash_subkey >> shift) & 0xf) as usize;
        z = shift4(z) ^ table[nibble];
    }
    z
}

fn shift4(z: u128) -> u128 {
    let mut z = z;
    for _ in 0..4 {
        z = (z >> 1) ^ (R4 & 0u128.wrapping_sub(z & 1));
    }
    z
}
