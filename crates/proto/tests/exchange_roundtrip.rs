//! Property tests for the exchange frame codec: arbitrary frames
//! round-trip bit-exact, and truncated buffers error without panicking.

use flowtune_proto::exchange::{
    decode_header, encode_header, encode_record, FrameError, FrameHeader, Record, RecordIter,
    FRAME_HEADER_BYTES,
};
use proptest::prelude::*;

fn arb_f64_bits() -> impl Strategy<Value = f64> {
    // Raw bit patterns: covers NaNs, infinities and subnormals — the
    // codec must round-trip every one of them bit-exact.
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (any::<u32>(), arb_f64_bits(), arb_f64_bits(), arb_f64_bits()).prop_map(
            |(link, load, dual, hessian)| Record::LinkState {
                link,
                load,
                dual,
                hessian,
            }
        ),
        (any::<u32>(), arb_f64_bits(), arb_f64_bits(), arb_f64_bits()).prop_map(
            |(link, load, dual, hessian)| Record::CatchUp {
                link,
                load,
                dual,
                hessian,
            }
        ),
        any::<u32>().prop_map(|link| Record::SubAdd { link }),
        any::<u32>().prop_map(|link| Record::SubRemove { link }),
    ]
}

fn arb_header() -> impl Strategy<Value = FrameHeader> {
    (
        any::<u16>(),
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(shard, round, n_links, active, has_hessians)| FrameHeader {
                shard,
                round,
                n_links,
                active,
                has_hessians,
            },
        )
}

/// Bit-exact record equality (`==` on f64 treats NaN != NaN and
/// -0.0 == 0.0, neither of which is what the wire must preserve).
fn same_bits(a: &Record, b: &Record) -> bool {
    fn state(r: &Record) -> Option<(bool, u32, u64, u64, u64)> {
        match *r {
            Record::LinkState {
                link,
                load,
                dual,
                hessian,
            } => Some((
                false,
                link,
                load.to_bits(),
                dual.to_bits(),
                hessian.to_bits(),
            )),
            Record::CatchUp {
                link,
                load,
                dual,
                hessian,
            } => Some((
                true,
                link,
                load.to_bits(),
                dual.to_bits(),
                hessian.to_bits(),
            )),
            _ => None,
        }
    }
    match (state(a), state(b)) {
        (Some(x), Some(y)) => x == y,
        (None, None) => a == b,
        _ => false,
    }
}

proptest! {
    #[test]
    fn frame_roundtrips_bit_exact(
        header in arb_header(),
        records in proptest::collection::vec(arb_record(), 0..24),
    ) {
        let mut buf = Vec::new();
        encode_header(&header, &mut buf);
        // Hessian words only travel when the header flags them; mirror
        // that in the expected record set.
        let expect: Vec<Record> = records
            .iter()
            .map(|r| match *r {
                Record::LinkState { link, load, dual, hessian } => Record::LinkState {
                    link,
                    load,
                    dual,
                    hessian: if header.has_hessians { hessian } else { 0.0 },
                },
                Record::CatchUp { link, load, dual, hessian } => Record::CatchUp {
                    link,
                    load,
                    dual,
                    hessian: if header.has_hessians { hessian } else { 0.0 },
                },
                other => other,
            })
            .collect();
        for r in &records {
            encode_record(r, header.has_hessians, &mut buf);
        }
        prop_assert_eq!(decode_header(&buf), Ok(header));
        let (h, iter) = RecordIter::new(&buf).unwrap();
        prop_assert_eq!(h, header);
        let mut n = 0usize;
        for (got, want) in iter.zip(&expect) {
            let got = got.unwrap();
            prop_assert!(same_bits(&got, want), "{:?} vs {:?}", got, want);
            n += 1;
        }
        prop_assert_eq!(n, expect.len());
    }

    #[test]
    fn truncated_frames_never_panic(
        header in arb_header(),
        records in proptest::collection::vec(arb_record(), 0..12),
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        encode_header(&header, &mut buf);
        for r in &records {
            encode_record(r, header.has_hessians, &mut buf);
        }
        let cut = cut.index(buf.len() + 1);
        let prefix = &buf[..cut];
        match RecordIter::new(prefix) {
            Err(FrameError::Truncated { offset }) => {
                prop_assert!(cut < FRAME_HEADER_BYTES);
                prop_assert!(offset <= cut);
            }
            Err(e) => prop_assert!(false, "unexpected header error: {}", e),
            Ok((h, iter)) => {
                prop_assert_eq!(h, header);
                for r in iter {
                    if let Err(e) = r {
                        prop_assert!(
                            matches!(e, FrameError::Truncated { .. }),
                            "unexpected record error: {}", e
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok((_, iter)) = RecordIter::new(&bytes) {
            for r in iter {
                let _ = r;
            }
        }
    }
}
