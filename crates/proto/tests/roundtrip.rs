//! Property tests: every message round-trips through `encode` and
//! `MessageIter`, and a stream split at an arbitrary byte decodes to the
//! same sequence when the tail behind `consumed()` is carried over.

use bytes::BytesMut;
use flowtune_proto::codec::{encode, Message, MessageIter};
use flowtune_proto::{Rate16, Token};
use proptest::prelude::*;

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            0u32..=Token::MAX,
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            any::<u16>(),
            any::<u8>()
        )
            .prop_map(|(t, src, dst, size_hint, weight_q8, spine)| {
                Message::FlowletStart {
                    token: Token::new(t),
                    src,
                    dst,
                    size_hint,
                    weight_q8,
                    spine,
                }
            }),
        (0u32..=Token::MAX).prop_map(|t| Message::FlowletEnd {
            token: Token::new(t)
        }),
        (0u32..=Token::MAX, 0.0f64..1e4).prop_map(|(t, r)| Message::RateUpdate {
            token: Token::new(t),
            rate: Rate16::encode(r),
        }),
    ]
}

/// The complete messages at the front of `buf` and the bytes they took.
fn decode_front(buf: &[u8]) -> (Vec<Message>, usize) {
    let mut iter = MessageIter::new(buf);
    let msgs = iter.by_ref().map(|r| r.unwrap()).collect();
    (msgs, iter.consumed())
}

proptest! {
    #[test]
    fn stream_roundtrip(messages in proptest::collection::vec(arb_message(), 0..32)) {
        let mut buf = BytesMut::new();
        for m in &messages {
            encode(m, &mut buf);
        }
        let (decoded, used) = decode_front(&buf);
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(decoded, messages);
    }

    #[test]
    fn split_stream_roundtrip(
        messages in proptest::collection::vec(arb_message(), 1..16),
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut buf = BytesMut::new();
        for m in &messages {
            encode(m, &mut buf);
        }
        let cut = cut.index(buf.len());
        // First chunk: decode what's complete.
        let (mut decoded, used) = decode_front(&buf[..cut]);
        // Remainder of the stream = undecoded tail + rest.
        let mut rest = buf[used..cut].to_vec();
        rest.extend_from_slice(&buf[cut..]);
        let (tail, used) = decode_front(&rest);
        decoded.extend(tail);
        prop_assert_eq!(used, rest.len());
        prop_assert_eq!(decoded, messages);
    }

    #[test]
    fn rate16_monotone(a in 0.0f64..1e4, b in 0.0f64..1e4) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Rate16::encode(lo).decode() <= Rate16::encode(hi).decode());
    }

    #[test]
    fn rate16_relative_error_bounded(r in 1e-3f64..1e4) {
        let d = Rate16::encode(r).decode();
        prop_assert!(((d - r).abs() / r) < 2.5e-4, "{r} → {d}");
    }
}
