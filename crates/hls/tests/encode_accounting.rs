//! Property tests pinning `EncodedPartition::encode` stream-byte accounting
//! to the *actual* lengths of the encoded `sparsemat` structures — for
//! every characterized format, including tiles with duplicate coordinates.
//! Every format merges duplicates during encoding (COO compresses its
//! tuple list exactly as CSR/CSC merge theirs), so the accounting always
//! describes the encoded structure, never the raw pre-merge triplet list.

use copernicus_hls::{EncodedPartition, HwConfig, Stream};
use proptest::prelude::*;
use sparsemat::{AnyMatrix, Coo, FormatKind, Matrix, Triplet};

const P: usize = 16;

/// A tile that may contain repeated coordinates (values accumulate).
fn dup_tile_strategy() -> impl Strategy<Value = Coo<f32>> {
    let cells = P * P;
    proptest::collection::vec((0..cells, prop_oneof![-9i32..0, 1i32..=9]), 1..=cells / 2).prop_map(
        |pairs| {
            let triplets = pairs
                .into_iter()
                .map(|(cell, v)| Triplet::new(cell / P, cell % P, v as f32))
                .collect();
            Coo::from_triplets(P, P, triplets).expect("in range")
        },
    )
}

fn stream_bytes(streams: &[Stream], name: &str) -> u64 {
    streams
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.bytes)
}

proptest! {
    #[test]
    fn stream_bytes_match_the_encoded_structures(tile in dup_tile_strategy()) {
        let cfg = HwConfig::with_partition_size(P);
        let vb = cfg.value_bytes as u64;
        let ib = cfg.index_bytes as u64;
        let p = P as u64;
        let raw_nnz = tile.nnz() as u64;

        for kind in FormatKind::CHARACTERIZED {
            let e = EncodedPartition::encode(&tile, kind, &cfg).unwrap();
            // Universal identities: the total is exactly the stream sum and
            // the useful payload is the encoded structure's entry count.
            prop_assert_eq!(
                e.total_bytes(),
                e.streams.iter().map(|s| s.bytes).sum::<u64>(),
                "{}", kind
            );
            prop_assert_eq!(e.useful_bytes, e.matrix.nnz() as u64 * vb, "{}", kind);

            match (&e.matrix, kind) {
                (AnyMatrix::Dense(_), FormatKind::Dense) => {
                    prop_assert_eq!(stream_bytes(&e.streams, "values"), p * p * vb);
                }
                (AnyMatrix::Csr(m), FormatKind::Csr) => {
                    let stored = m.nnz() as u64;
                    prop_assert!(stored <= raw_nnz, "CSR must merge duplicates");
                    prop_assert_eq!(stream_bytes(&e.streams, "offsets"), (p + 1) * ib);
                    prop_assert_eq!(stream_bytes(&e.streams, "colInx"), stored * ib);
                    prop_assert_eq!(stream_bytes(&e.streams, "values"), stored * vb);
                }
                (AnyMatrix::Csc(m), FormatKind::Csc) => {
                    let stored = m.nnz() as u64;
                    prop_assert!(stored <= raw_nnz, "CSC must merge duplicates");
                    prop_assert_eq!(stream_bytes(&e.streams, "offsets"), (p + 1) * ib);
                    prop_assert_eq!(stream_bytes(&e.streams, "rowInx"), stored * ib);
                    prop_assert_eq!(stream_bytes(&e.streams, "values"), stored * vb);
                }
                (AnyMatrix::Bcsr(m), FormatKind::Bcsr) => {
                    let b2 = (m.block_size() * m.block_size()) as u64;
                    prop_assert_eq!(
                        stream_bytes(&e.streams, "offsets"),
                        (m.block_rows() as u64 + 1) * ib
                    );
                    prop_assert_eq!(
                        stream_bytes(&e.streams, "colInx"),
                        m.num_blocks() as u64 * ib
                    );
                    prop_assert_eq!(
                        stream_bytes(&e.streams, "values"),
                        m.num_blocks() as u64 * b2 * vb
                    );
                }
                (AnyMatrix::Coo(m), FormatKind::Coo) => {
                    // COO merges duplicate coordinates during encoding,
                    // so the streamed tuple count is the *stored* count —
                    // the same count CSR arrives at.
                    let stored = m.nnz() as u64;
                    prop_assert!(stored <= raw_nnz, "COO must merge duplicates");
                    prop_assert_eq!(stream_bytes(&e.streams, "rowInx"), stored * ib);
                    prop_assert_eq!(stream_bytes(&e.streams, "colInx"), stored * ib);
                    prop_assert_eq!(stream_bytes(&e.streams, "values"), stored * vb);
                }
                (AnyMatrix::Lil(m), FormatKind::Lil) => {
                    let height = m.max_line_len() as u64 + 1;
                    prop_assert_eq!(stream_bytes(&e.streams, "Inx"), height * p * ib);
                    prop_assert_eq!(stream_bytes(&e.streams, "values"), height * p * vb);
                }
                (AnyMatrix::Ell(m), FormatKind::Ell) => {
                    let w = m.width() as u64;
                    prop_assert_eq!(stream_bytes(&e.streams, "colInx"), w * p * ib);
                    prop_assert_eq!(stream_bytes(&e.streams, "values"), w * p * vb);
                }
                (AnyMatrix::Dia(m), FormatKind::Dia) => {
                    prop_assert_eq!(
                        stream_bytes(&e.streams, "diags"),
                        m.num_diagonals() as u64 * (p + 1) * vb
                    );
                }
                (other, kind) => {
                    prop_assert!(
                        false,
                        "{} encoded into unexpected structure {:?}",
                        kind,
                        other.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn coo_accounts_duplicates_exactly_like_csr(tile in dup_tile_strategy()) {
        // The regression this pins: COO used to size their streams from
        // the raw pre-merge nnz while CSR/CSC sized from the merged stored
        // count, so the same tile was accounted inconsistently across
        // formats whenever it contained duplicate coordinates.
        let cfg = HwConfig::with_partition_size(P);
        let coo = EncodedPartition::encode(&tile, FormatKind::Coo, &cfg).unwrap();
        let csr = EncodedPartition::encode(&tile, FormatKind::Csr, &cfg).unwrap();
        prop_assert_eq!(coo.matrix.nnz(), csr.matrix.nnz());
        prop_assert_eq!(coo.useful_bytes, csr.useful_bytes);
        // Same stored entries -> same per-entry stream sizes: COO's value
        // stream equals CSR's, its index streams equal CSR's colInx.
        let vals = |e: &EncodedPartition| {
            e.streams.iter().find(|s| s.name == "values").map_or(0, |s| s.bytes)
        };
        prop_assert_eq!(vals(&coo), vals(&csr));
        prop_assert_eq!(stream_bytes(&coo.streams, "rowInx"), stream_bytes(&csr.streams, "colInx"));
    }

    #[test]
    fn pre_merging_is_a_no_op_for_every_format(tile in dup_tile_strategy()) {
        // Since every format now merges duplicates during encoding,
        // feeding it an already-merged tile must change nothing.
        let cfg = HwConfig::with_partition_size(P);
        let merged_coo = sparsemat::Csr::from(&tile).to_coo();

        let coo_raw = EncodedPartition::encode(&tile, FormatKind::Coo, &cfg).unwrap();
        let coo_merged = EncodedPartition::encode(&merged_coo, FormatKind::Coo, &cfg).unwrap();
        prop_assert_eq!(coo_raw.total_bytes(), coo_merged.total_bytes());
        prop_assert_eq!(coo_raw.useful_bytes, coo_merged.useful_bytes);

        let csr_raw = EncodedPartition::encode(&tile, FormatKind::Csr, &cfg).unwrap();
        let csr_merged = EncodedPartition::encode(&merged_coo, FormatKind::Csr, &cfg).unwrap();
        prop_assert_eq!(csr_raw.total_bytes(), csr_merged.total_bytes());
        prop_assert_eq!(csr_raw.useful_bytes, csr_merged.useful_bytes);
    }
}
