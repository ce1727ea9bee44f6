//! Golden outputs of the CSR-DU, CSR-VI and CSR-DU-VI encoders.
//!
//! Every encoded byte is part of a contract: the plan cache keys on the
//! CSR payload, persisted containers store the ctl stream and the value
//! table as they were encoded, and the kernels' bit-identity gates assume
//! a fixed stream. Speeding up an encoder must therefore not move a
//! single output byte. This suite pins, for a fixed matgen corpus, the
//! ctl stream (length, CRC-32, unit count), the unique-value table and the
//! per-element value ids of all three encoders.
//!
//! The CRC here is a bitwise reference kept in this file, so the pins do
//! not depend on the library's own CRC implementation.

use spmv_core::csr_vi::ValInd;
use spmv_core::prelude::*;
use spmv_core::Coo;
use spmv_matgen::{gen, ValueModel};

/// Bitwise reflected CRC-32 (IEEE), the slowest correct form.
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

/// A ctl stream: `(length, CRC, units)`.
type CtlDigest = (usize, u32, usize);
/// A unique-value table: `(entries, CRC of the f64 bit patterns)`.
type TableDigest = (usize, u32);
/// Value ids: `(width in bytes, count, CRC of the little-endian bytes)`.
type IdsDigest = (usize, usize, u32);

fn ind_digest(ind: &ValInd) -> IdsDigest {
    let bytes: Vec<u8> = match ind {
        ValInd::U8(v) => v.clone(),
        ValInd::U16(v) => v.iter().flat_map(|i| i.to_le_bytes()).collect(),
        ValInd::U32(v) => v.iter().flat_map(|i| i.to_le_bytes()).collect(),
    };
    (ind.width_bytes(), ind.len(), crc_ref(&bytes))
}

fn table_digest(table: &[f64]) -> TableDigest {
    let bytes: Vec<u8> = table.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    (table.len(), crc_ref(&bytes))
}

/// Everything the three encoders emit for one matrix, reduced to
/// lengths and checksums.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    du: CtlDigest,
    vi: (TableDigest, IdsDigest),
    duvi: (CtlDigest, TableDigest, IdsDigest),
}

fn digest(csr: &Csr, opts: &DuOptions) -> Golden {
    let du = CsrDu::from_csr(csr, opts);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(du.values()), bits(csr.values()), "CSR-DU keeps the CSR values verbatim");
    let vi = CsrVi::from_csr(csr);
    let duvi = CsrDuVi::from_csr(csr, opts);
    Golden {
        du: (du.ctl().len(), crc_ref(du.ctl()), du.units()),
        vi: (table_digest(vi.vals_unique()), ind_digest(vi.val_ind())),
        duvi: (
            (duvi.ctl().len(), crc_ref(duvi.ctl()), duvi.units()),
            table_digest(duvi.vals_unique()),
            ind_digest(duvi.val_ind()),
        ),
    }
}

fn with_values(coo: &Coo<f64>, model: ValueModel, seed: u64) -> Csr {
    let mut csr: Csr = coo.to_csr();
    let vals = model.assign(csr.nnz(), seed);
    csr.values_mut().copy_from_slice(&vals);
    csr
}

/// A 7-point stencil with every seventh row and the last rows emptied,
/// so the stream needs row jumps, including a jump at the very start.
fn stencil_with_empty_rows() -> Csr {
    let full = gen::stencil_3d(12);
    let n = full.nrows();
    let mut coo = Coo::with_capacity(n, n, full.nnz());
    for &(r, c, v) in full.entries() {
        if r % 7 != 0 && r < n - 5 {
            coo.push(r, c, v).unwrap();
        }
    }
    with_values(&coo, ValueModel::Mixed { period: 8 }, 2)
}

/// Columns spread over a 2^22-wide matrix: most gaps need u32 deltas,
/// with short u8 runs in between to exercise widening and splitting.
fn wide_columns() -> Csr {
    let (nrows, ncols) = (600, 1usize << 22);
    let mut coo = Coo::new(nrows, ncols);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for r in 0..nrows {
        let mut c = (r * 977) % 5000;
        for _ in 0..(r % 23 + 1) {
            coo.push(r, c, 1.0).unwrap();
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let step = match state % 4 {
                0 => 1 + (state >> 8) as usize % 200,
                1 => 300 + (state >> 8) as usize % 60_000,
                _ => 70_000 + (state >> 8) as usize % 400_000,
            };
            c += step;
            if c >= ncols {
                break;
            }
        }
    }
    with_values(&coo, ValueModel::Quantized { levels: 300 }, 4)
}

/// NaNs with many payloads (which must share one table slot), both
/// zeros (which must not), infinities and subnormals.
fn special_values() -> Csr {
    let coo = gen::banded(700, 3, 1.0, 9);
    let mut csr: Csr = coo.to_csr();
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff8_0000_dead_beef),
        f64::from_bits(0x7ff4_0000_0000_1234),
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 4.0,
        1.0,
        -1.0,
    ];
    for (i, v) in csr.values_mut().iter_mut().enumerate() {
        *v = if i % 5 == 4 {
            // A fresh NaN payload for every fifth element.
            f64::from_bits(0x7ff8_0000_0000_0000 | (i as u64 * 0x9e37) & 0x0007_ffff_ffff_ffff)
        } else {
            specials[(i * 7) % specials.len()]
        };
    }
    csr
}

fn corpus() -> Vec<(&'static str, Csr, DuOptions)> {
    let paper = DuOptions::default();
    vec![
        (
            "banded",
            with_values(&gen::banded(2000, 8, 0.6, 11), ValueModel::Quantized { levels: 40 }, 1),
            paper.clone(),
        ),
        ("stencil-empty-rows", stencil_with_empty_rows(), paper.clone()),
        (
            "power-law",
            with_values(&gen::power_law(12_000, 8, 5), ValueModel::Random { lo: -1.0, hi: 1.0 }, 3),
            paper.clone(),
        ),
        ("wide-ncols", wide_columns(), paper.clone()),
        (
            "banded-seq",
            with_values(&gen::banded(1500, 12, 0.9, 13), ValueModel::Quantized { levels: 3 }, 5),
            DuOptions::with_seq(),
        ),
        (
            "full-band-seq",
            with_values(&gen::banded(800, 10, 1.0, 7), ValueModel::Constant(2.5), 6),
            DuOptions::with_seq(),
        ),
        ("nan-and-zeros", special_values(), paper),
    ]
}

/// Golden digests, recorded from the encoders before they were
/// rewritten for speed.
fn expected(name: &str) -> Golden {
    match name {
        "banded" => Golden {
            du: (27125, 0x0efd_92ad, 2000),
            vi: ((40, 0x50a9_be1b), (1, 21260, 0x74b6_add7)),
            duvi: ((27125, 0x0efd_92ad, 2000), (40, 0x50a9_be1b), (1, 21260, 0x74b6_add7)),
        },
        "stencil-empty-rows" => Golden {
            du: (14047, 0x8f2e_76ec, 1476),
            vi: ((1190, 0xf82d_c225), (2, 9603, 0xc799_c103)),
            duvi: ((14047, 0x8f2e_76ec, 1476), (1190, 0xf82d_c225), (2, 9603, 0xc799_c103)),
        },
        "power-law" => Golden {
            du: (182379, 0x6bb0_3b20, 12851),
            vi: ((95490, 0xf1ba_fe2d), (4, 95490, 0x735e_3daa)),
            duvi: ((182379, 0x6bb0_3b20, 12851), (95490, 0xf1ba_fe2d), (4, 95490, 0x735e_3daa)),
        },
        "wide-ncols" => Golden {
            du: (28097, 0xa1e9_d72e, 660),
            vi: ((300, 0x6e2d_5f7e), (2, 7163, 0x9010_fcbd)),
            duvi: ((28097, 0xa1e9_d72e, 660), (300, 0x6e2d_5f7e), (2, 7163, 0x9010_fcbd)),
        },
        "banded-seq" => Golden {
            du: (20015, 0xfac9_75ae, 3060),
            vi: ((3, 0x5ea4_a8d4), (1, 33761, 0xd690_a31e)),
            duvi: ((20015, 0xfac9_75ae, 3060), (3, 0x5ea4_a8d4), (1, 33761, 0xd690_a31e)),
        },
        "full-band-seq" => Golden {
            du: (3062, 0x44a2_00ce, 800),
            vi: ((1, 0x7792_5bfd), (1, 16690, 0x81a9_a231)),
            duvi: ((3062, 0x44a2_00ce, 800), (1, 0x7792_5bfd), (1, 16690, 0x81a9_a231)),
        },
        "nan-and-zeros" => Golden {
            du: (6857, 0xa0e9_121f, 700),
            vi: ((8, 0x6a5e_92cf), (1, 4888, 0x0ca6_06df)),
            duvi: ((6857, 0xa0e9_121f, 700), (8, 0x6a5e_92cf), (1, 4888, 0x0ca6_06df)),
        },
        _ => panic!("no golden entry for {name}"),
    }
}

#[test]
fn encoders_match_golden_outputs() {
    let got: Vec<_> =
        corpus().into_iter().map(|(name, csr, opts)| (name, digest(&csr, &opts))).collect();
    for (name, g) in &got {
        println!("{name:?} => {g:?},");
    }
    let moved: Vec<_> =
        got.iter().filter(|(name, g)| *g != expected(name)).map(|(name, _)| name).collect();
    assert!(moved.is_empty(), "encoder output moved for {moved:?}");
}

#[test]
fn corpus_covers_the_encoder_edge_cases() {
    let corpus = corpus();
    let find = |n: &str| corpus.iter().find(|(name, _, _)| *name == n).unwrap();

    // Empty rows, leading and trailing.
    let (_, st, _) = find("stencil-empty-rows");
    assert_eq!(st.row_ptr()[1], 0, "row 0 is empty");
    assert_eq!(st.row_ptr()[st.nrows()], st.row_ptr()[st.nrows() - 5], "last rows empty");

    // u32 deltas (unit type 2) in the wide matrix.
    let (_, wide, opts) = find("wide-ncols");
    let du = CsrDu::from_csr(wide, opts);
    assert!(du.stats().units_by_type[2] > 0, "{:?}", du.stats());

    // Sequential units under with_seq.
    let (_, seq, opts) = find("full-band-seq");
    assert!(CsrDu::from_csr(seq, opts).stats().units_by_type[4] > 0);

    // Every id width: u8 (banded), u16 (wide), u32 (power-law, ttu ~ 1).
    let width = |n: &str| CsrVi::from_csr(&find(n).1).val_ind().width_bytes();
    assert_eq!((width("banded"), width("wide-ncols"), width("power-law")), (1, 2, 4));

    // NaN payloads collapse; the two zeros do not.
    let vi = CsrVi::from_csr(&find("nan-and-zeros").1);
    let table = vi.vals_unique();
    assert_eq!(table.iter().filter(|v| v.is_nan()).count(), 1);
    assert!(table.iter().any(|v| v.to_bits() == 0.0f64.to_bits()));
    assert!(table.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
}
