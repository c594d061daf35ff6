//! Property tests for the second-stage stream codecs: round-trip identity
//! on arbitrary byte streams, `transfer_len` agreeing exactly with the
//! encoder's store-raw length, and the per-stream byte-accounting invariant
//! (`coded_bytes <= bytes`, with equality under `CodecKind::None`) for
//! every codec × characterized format.

use copernicus_hls::{codec_for, CodecKind, EncodedPartition, HwConfig};
use proptest::prelude::*;
use sparsemat::{Coo, FormatKind, Triplet};

const P: usize = 16;

fn tile_strategy() -> impl Strategy<Value = Coo<f32>> {
    let cells = P * P;
    proptest::collection::vec((0..cells, prop_oneof![-9i32..0, 1i32..=9]), 0..=cells / 2).prop_map(
        |pairs| {
            let triplets = pairs
                .into_iter()
                .map(|(cell, v)| Triplet::new(cell / P, cell % P, v as f32))
                .collect();
            Coo::from_triplets(P, P, triplets).expect("in range")
        },
    )
}

/// Byte streams shaped like real transfer streams (runs, small-delta
/// words, skewed histograms) plus fully arbitrary bytes.
fn stream_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(0u8..=255, 0..512),
        // Run-heavy: a few distinct bytes repeated.
        proptest::collection::vec((0u8..4, 1usize..64), 0..16)
            .prop_map(|runs| { runs.into_iter().flat_map(|(b, n)| vec![b; n]).collect() }),
        // Sorted u32 index streams with small deltas.
        (0u32..1000, proptest::collection::vec(0u32..8, 0..100)).prop_map(|(start, deltas)| {
            let mut word = start;
            let mut out = Vec::new();
            for d in deltas {
                word = word.wrapping_add(d);
                out.extend_from_slice(&word.to_le_bytes());
            }
            out
        }),
    ]
}

/// Streams up to 4096 bytes whose lengths and histograms probe the priced
/// length: lengths around Huffman's 298-byte store-raw bound, one repeated
/// symbol, every byte value, and skewed histograms.
fn priced_stream_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        stream_strategy(),
        proptest::collection::vec(0u8..=255, 0..=4096),
        // 290–310 bytes over alphabets of 1 to 256 symbols.
        (1u16..=256, 290usize..=310)
            .prop_flat_map(|(k, n)| { proptest::collection::vec((0..k).prop_map(|s| s as u8), n) }),
        (0u8..=255, 0usize..=4096).prop_map(|(b, n)| vec![b; n]),
        // Every byte value, then more bytes cycling from a random start.
        (0usize..=3840, 0u8..=255).prop_map(|(extra, start)| {
            (0..256 + extra)
                .map(|i| (i as u8).wrapping_add(start))
                .collect()
        }),
        // Skewed: symbol `k` appears about twice as often as `k + 1`.
        (
            1u32..=16,
            proptest::collection::vec(0u32..=u32::MAX, 0..=4096)
        )
            .prop_map(|(bits, draws)| {
                draws
                    .into_iter()
                    .map(|d| (d % (1 << bits)).leading_zeros() as u8)
                    .collect()
            }),
    ]
}

const CODECS: [CodecKind; 3] = [CodecKind::Rle, CodecKind::DeltaVarint, CodecKind::Huffman];

proptest! {
    #[test]
    fn decode_of_encode_is_the_identity(src in stream_strategy()) {
        for kind in CODECS {
            let codec = codec_for(kind).expect("registered");
            let mut coded = Vec::new();
            codec.encode_bytes(&src, &mut coded).expect("encodable");
            let mut back = Vec::new();
            codec.decode_bytes(&coded, &mut back).expect("own output decodes");
            prop_assert_eq!(&back, &src, "{} round trip", kind);
        }
    }

    #[test]
    fn coded_bytes_never_exceed_structural_bytes(tile in tile_strategy()) {
        for codec in CodecKind::ALL {
            let cfg = HwConfig {
                stream_codec: codec,
                ..HwConfig::with_partition_size(P)
            };
            for kind in FormatKind::CHARACTERIZED {
                let e = EncodedPartition::encode(&tile, kind, &cfg).unwrap();
                for s in &e.streams {
                    prop_assert!(
                        s.coded_bytes <= s.bytes,
                        "{}/{}/{}: coded {} > structural {}",
                        codec, kind, s.name, s.coded_bytes, s.bytes
                    );
                    if codec == CodecKind::None {
                        prop_assert_eq!(s.coded_bytes, s.bytes);
                    }
                }
                prop_assert!(e.transfer_bytes() <= e.total_bytes(), "{}/{}", codec, kind);
                prop_assert!(
                    e.memory_cycles(&cfg) <= cfg.transfer_cycles(e.total_bytes()),
                    "{}/{}", codec, kind
                );
                if codec == CodecKind::None {
                    prop_assert_eq!(e.entropy_cycles(&cfg), 0);
                }
            }
        }
    }
}

proptest! {
    // Cheap per case, and the agreement is exact, so sample widely.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn transfer_len_is_the_store_raw_encoded_length(src in priced_stream_strategy()) {
        for kind in CODECS {
            let codec = codec_for(kind).expect("registered");
            let mut coded = Vec::new();
            codec.encode_bytes(&src, &mut coded).expect("encodable");
            let expect = src.len().min(coded.len()) as u64;
            let mut scratch = Vec::new();
            prop_assert_eq!(
                codec.transfer_len(&src, &mut scratch),
                expect,
                "{} on {} bytes", kind, src.len()
            );
        }
    }
}
