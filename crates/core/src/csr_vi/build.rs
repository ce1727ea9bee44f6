//! CSR → CSR-VI construction: hash-based value deduplication.

use super::{CsrVi, ValInd};
use crate::csr::Csr;
use crate::index::SpIndex;
use crate::scalar::Scalar;
use std::collections::HashMap;

/// Deduplicates a value array by *canonical* bit pattern, returning the
/// unique-value table (first-occurrence order) and the width-narrowed
/// per-element indices. Shared by CSR-VI and CSR-DU-VI construction.
///
/// Canonicalization rules:
///
/// * Distinct bit patterns are distinct values — in particular `-0.0` and
///   `+0.0` stay separate (conflating them would change results:
///   `1.0 / -0.0 == -inf`), exactly what a byte-level compressor would do.
/// * **Except** NaNs: every NaN, regardless of payload bits, maps to one
///   canonical NaN table slot. Arithmetic cannot distinguish NaN payloads
///   (any NaN operand yields NaN), but an adversarial or bit-rotted input
///   with per-element NaN payloads would otherwise explode the unique
///   table to `nnz` entries and destroy the format's entire premise.
///
/// Speed: the keyed `HashMap` (SipHash under a random key, so a hostile
/// value array cannot flood one bucket) costs tens of nanoseconds per
/// lookup, once per non-zero. The matrices CSR-VI suits repeat a few
/// values, so a 64-slot direct-mapped memo of recent `(bits, id)` pairs
/// sits in front of the map. It is indexed by a multiplicative hash of
/// the canonical bits and only caches what the map already holds, so the
/// ids are the map's ids and every miss takes the keyed path. The ids are
/// written at the narrowest width seen so far and widened when the table
/// outgrows it, so no `u32` staging array exists.
pub(crate) fn dedup_values<V: Scalar>(values: &[V]) -> (Vec<V>, ValInd) {
    // Ids are assigned in first-occurrence order. Matrices with more than
    // 2^32 distinct values are not supported (they could not profit from
    // CSR-VI anyway).
    let canonical_nan = V::from_f64(f64::NAN);
    let mut table: HashMap<V::Bits, u32> = HashMap::new();
    let mut memo: [Option<(V::Bits, u32)>; MEMO_SLOTS] = [None; MEMO_SLOTS];
    let mut vals_unique: Vec<V> = Vec::new();
    let mut ids = ValInd::U8(Vec::with_capacity(values.len()));
    for &v in values {
        let key = if v.to_f64().is_nan() { canonical_nan } else { v };
        let bits = key.to_bits();
        let slot = memo_slot(key.to_f64());
        let id = match memo[slot] {
            Some((b, id)) if b == bits => id,
            _ => {
                let next_id = u32::try_from(vals_unique.len())
                    .expect("more than 2^32 unique values cannot be indexed");
                let id = *table.entry(bits).or_insert_with(|| {
                    vals_unique.push(key);
                    next_id
                });
                memo[slot] = Some((bits, id));
                id
            }
        };
        push_id(&mut ids, id);
    }
    (vals_unique, ids)
}

/// Slots in [`dedup_values`]' memo: a power of two, small enough to stay
/// in L1 next to the value stream.
const MEMO_SLOTS: usize = 64;

/// Memo slot of a canonical value: the top bits of a Fibonacci hash of
/// its `f64` bit pattern (`f32` values widen losslessly, so equal slots
/// are only a hint and the memo still compares the exact bits).
fn memo_slot(f: f64) -> usize {
    (f.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// Appends `id`, first widening the array when `id` no longer fits its
/// width. Ids arrive in first-occurrence order, so the final width is the
/// one the unique-value count `uv` selects (§V): `uv <= 2^8` -> u8,
/// `<= 2^16` -> u16, else u32.
fn push_id(ids: &mut ValInd, id: u32) {
    match ids {
        ValInd::U8(v) if id < 1 << 8 => v.push(id as u8),
        ValInd::U16(v) if id < 1 << 16 => v.push(id as u16),
        ValInd::U32(v) => v.push(id),
        ValInd::U8(v) => {
            let mut wide = Vec::with_capacity(v.capacity());
            wide.extend(v.iter().map(|&i| u16::from(i)));
            *ids = ValInd::U16(wide);
            push_id(ids, id);
        }
        ValInd::U16(v) => {
            let mut wide = Vec::with_capacity(v.capacity());
            wide.extend(v.iter().map(|&i| u32::from(i)));
            *ids = ValInd::U32(wide);
            push_id(ids, id);
        }
    }
}

pub(super) fn build<I: SpIndex, V: Scalar>(csr: &Csr<I, V>) -> CsrVi<I, V> {
    let (vals_unique, val_ind) = dedup_values(csr.values());
    CsrVi {
        nrows: csr.nrows(),
        ncols: csr.ncols(),
        row_ptr: csr.row_ptr().to_vec(),
        col_ind: csr.col_ind().to_vec(),
        vals_unique,
        val_ind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dedup without a memo or in-place widening: one keyed-map
    /// lookup per element into `u32` ids, narrowed at the end.
    fn reference(values: &[f64]) -> (Vec<u64>, Vec<u32>) {
        let mut table: HashMap<u64, u32> = HashMap::new();
        let mut unique = Vec::new();
        let ids = values
            .iter()
            .map(|&v| {
                let v = if v.is_nan() { f64::NAN } else { v };
                let next = unique.len() as u32;
                *table.entry(v.to_bits()).or_insert_with(|| {
                    unique.push(v.to_bits());
                    next
                })
            })
            .collect();
        (unique, ids)
    }

    fn check(values: &[f64]) {
        let (table, ind) = dedup_values(values);
        let (want_table, want_ids) = reference(values);
        let bits: Vec<u64> = table.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want_table);
        let want_width = match want_table.len() {
            0..=256 => 1,
            257..=65_536 => 2,
            _ => 4,
        };
        assert_eq!(ind.width_bytes(), want_width);
        assert_eq!(ind.len(), values.len());
        assert!((0..values.len()).all(|j| ind.get(j) == want_ids[j] as usize));
    }

    #[test]
    fn values_sharing_a_memo_slot_alternate_correctly() {
        let a = 1.5f64;
        let b = (1..)
            .map(|i| a + i as f64 * 0.25)
            .find(|&b| memo_slot(b) == memo_slot(a))
            .expect("some value shares a's slot");
        let c = (1..)
            .map(|i| -(i as f64) * 0.125)
            .find(|&c| memo_slot(c) == memo_slot(a))
            .expect("a third value shares the slot");
        let values: Vec<f64> = (0..1000).map(|i| [a, b, a, c, b, 7.0][i % 6]).collect();
        check(&values);
        assert_eq!(dedup_values(&values).0, vec![a, b, c, 7.0]);
    }

    #[test]
    fn all_distinct_values_widen_to_u32() {
        let values: Vec<f64> = (0..1_000_000).map(|i| i as f64 * 0.5 - 1000.0).collect();
        check(&values);
        // The widening points themselves, around 2^8 and 2^16 ids.
        for n in [256, 257, 65_536, 65_537] {
            check(&values[..n]);
        }
    }

    #[test]
    fn nan_payloads_collapse_and_signed_zeros_do_not() {
        let values: Vec<f64> = (0..5000u64)
            .map(|i| match i % 4 {
                0 => f64::from_bits(0x7ff0_0000_0000_0001 + i * 0x1_0001),
                1 => f64::from_bits(0xfff8_0000_0000_0000 | i),
                2 => 0.0,
                _ => -0.0,
            })
            .collect();
        check(&values);
        let (table, _) = dedup_values(&values);
        assert_eq!(table.len(), 3);
        assert!(table[0].is_nan());
        assert_eq!((table[1].to_bits(), table[2].to_bits()), (0, 1 << 63));
    }
}
