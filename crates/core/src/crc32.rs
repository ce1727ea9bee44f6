//! Dependency-free CRC-32 (IEEE 802.3, polynomial `0xEDB88320`).
//!
//! Used by the binary container ([`crate::io`]) to detect corruption of
//! persisted matrices: a pre-encoded CSR-DU/CSR-VI container is a
//! long-lived artifact that crosses trust boundaries (disk, network,
//! other tenants), and a single flipped value byte would otherwise load
//! silently and poison every subsequent SpMV.
//!
//! This is the ubiquitous reflected CRC-32 (zlib/gzip/PNG variant):
//! initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`. The same CRC
//! also keys the planner's cache ([`crate::io::fingerprint_csr`]), so it
//! runs over every byte of a matrix each time one is planned or
//! registered — 380 MB for a 30M-nnz matrix. Its speed therefore bounds
//! plan and registration time, not only container I/O. The update loop
//! uses *slicing-by-16*: sixteen derived tables (16 KiB) fold sixteen
//! input bytes per step with independent lookups, about five times the
//! throughput of a one-table, byte-at-a-time loop, in safe, portable
//! code. [`Crc32::combine`] appends a block by its CRC alone, so a caller
//! needing a block's CRC and a running CRC over it hashes the block once.
//! The implementation stays dependency-free per the workspace's offline
//! build constraint.

/// Slicing tables for the reflected polynomial `0xEDB88320`.
/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, so one step can fold sixteen
/// input bytes with sixteen independent lookups.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Folds the four bytes of `v` (little-endian) through tables
/// `base..base + 4`: the first byte needs the most zero-byte shifts.
#[inline(always)]
fn fold(v: u32, base: usize) -> u32 {
    let t = &TABLES;
    t[base + 3][v as u8 as usize]
        ^ t[base + 2][(v >> 8) as u8 as usize]
        ^ t[base + 1][(v >> 16) as u8 as usize]
        ^ t[base][(v >> 24) as usize]
}

/// Incremental CRC-32 state, for hashing data that arrives in chunks.
///
/// ```
/// use spmv_core::crc32::{crc32, Crc32};
///
/// let mut h = Crc32::new();
/// h.update(b"123");
/// h.update(b"456789");
/// assert_eq!(h.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(16);
        for w in &mut blocks {
            let word = |i: usize| u32::from_le_bytes([w[i], w[i + 1], w[i + 2], w[i + 3]]);
            crc = fold(crc ^ word(0), 12) ^ fold(word(4), 8) ^ fold(word(8), 4) ^ fold(word(12), 0);
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][(crc as u8 ^ b) as usize];
        }
        self.state = crc;
    }

    /// Feeds `len` bytes whose own CRC-32 is `crc`, with the same result
    /// as feeding the bytes themselves, in `O(log len)` time (zlib's
    /// `crc32_combine`). A caller that needs both a block's CRC and a
    /// running CRC over it hashes the block once and combines.
    ///
    /// ```
    /// use spmv_core::crc32::{crc32, Crc32};
    ///
    /// let mut h = Crc32::new();
    /// h.update(b"123");
    /// h.combine(crc32(b"456789"), 6);
    /// assert_eq!(h.finish(), crc32(b"123456789"));
    /// ```
    pub fn combine(&mut self, crc: u32, len: u64) {
        // Appending `len` bytes multiplies the finished CRC by x^(8·len)
        // modulo the polynomial and adds the CRC of the bytes alone.
        let mut shift = X0;
        let (mut n, mut k) = (len, 3); // x^(2^3) = x^8: one byte
        while n != 0 {
            if n & 1 != 0 {
                shift = mul_mod_p(X2N[k % 32], shift);
            }
            n >>= 1;
            k += 1;
        }
        self.state = (mul_mod_p(shift, self.finish()) ^ crc) ^ 0xFFFF_FFFF;
    }

    /// Returns the final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// The polynomial 1 (x^0) in the reflected bit order.
const X0: u32 = 1 << 31;

/// `X2N[k]` is x^(2^k) modulo the polynomial. x^(2^32) = x modulo this
/// polynomial, so the sequence has period 32 and indexing it `k % 32` is
/// exact for any length.
static X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = X0 >> 1; // x^1
    let mut k = 1;
    while k < 32 {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `a · b` modulo the CRC polynomial, both in the reflected bit order.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = X0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ 0xEDB8_8320 } else { b >> 1 };
    }
    p
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The CRC-32 "check" value and other standard vectors.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Bitwise reference: no tables, one bit at a time.
    fn crc_ref(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Deterministic non-periodic bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_matches_bitwise_reference_at_every_length_and_alignment() {
        let data = noise(300 + 8);
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc_ref(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn every_split_point_matches_oneshot() {
        let data = noise(300);
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 300] {
            let whole = crc_ref(&data[..len]);
            for split in 0..=len {
                let mut h = Crc32::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finish(), whole, "len {len} split {split}");
            }
        }
        // Byte-by-byte feeding exercises only the remainder loop.
        let mut h = Crc32::new();
        data.iter().for_each(|b| h.update(std::slice::from_ref(b)));
        assert_eq!(h.finish(), crc_ref(&data));
    }

    #[test]
    fn x2n_table_wraps_with_period_32() {
        assert_eq!(mul_mod_p(X2N[31], X2N[31]), X2N[0]);
    }

    #[test]
    fn combine_matches_feeding_the_bytes() {
        let data = noise(5000);
        for split in [0, 1, 2, 7, 16, 17, 255, 256, 1000, 4095, 4999, 5000] {
            let (a, b) = data.split_at(split);
            let mut h = Crc32::new();
            h.update(a);
            h.combine(crc_ref(b), b.len() as u64);
            assert_eq!(h.finish(), crc_ref(&data), "split {split}");
        }
        // Long zero runs reach the high bits of the length.
        let zeros = vec![0u8; (1 << 20) + 3];
        let mut h = Crc32::new();
        h.update(b"head");
        h.combine(crc32(&zeros), zeros.len() as u64);
        let mut direct = Crc32::new();
        direct.update(b"head");
        direct.update(&zeros);
        assert_eq!(h.finish(), direct.finish());
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0, 1, 13, 4096, 9999, 10_000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"container payload with values".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
