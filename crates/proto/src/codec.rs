//! Message definitions and the byte codec.

use bytes::BufMut;

use crate::rate16::Rate16;
use crate::Token;

/// A control-plane message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message {
    /// Endpoint → allocator: a flowlet became backlogged. 16 bytes.
    FlowletStart {
        /// Flowlet handle chosen by the endpoint.
        token: Token,
        /// Source server index.
        src: u16,
        /// Destination server index.
        dst: u16,
        /// Size hint in bytes (0 = unknown/open-ended), saturating.
        size_hint: u32,
        /// Proportional-fairness weight in 1/256 units (256 = weight 1.0).
        weight_q8: u16,
        /// ECMP spine the flow hashes to, so the allocator can reconstruct
        /// the path (§7 path discovery).
        spine: u8,
    },
    /// Endpoint → allocator: the flowlet's queue drained. 4 bytes.
    FlowletEnd {
        /// Handle from the matching start.
        token: Token,
    },
    /// Allocator → endpoint: new paced rate for a flowlet. 6 bytes.
    RateUpdate {
        /// Handle from the matching start.
        token: Token,
        /// The allocated, normalized rate.
        rate: Rate16,
    },
}

const TAG_START: u8 = 1;
const TAG_END: u8 = 2;
const TAG_RATE: u8 = 3;

/// Paper-specified encoded sizes (§6.2), tag byte included.
pub const START_BYTES: usize = 16;
/// Size of a `FlowletEnd` message.
pub const END_BYTES: usize = 4;
/// Size of a `RateUpdate` message.
pub const RATE_BYTES: usize = 6;

impl Message {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::FlowletStart { .. } => START_BYTES,
            Message::FlowletEnd { .. } => END_BYTES,
            Message::RateUpdate { .. } => RATE_BYTES,
        }
    }
}

/// Appends `msg` to `buf`: the whole message is assembled as one
/// fixed-size array (fields big-endian, the token's 24 bits in three
/// bytes) and written with a single `put_slice`.
pub fn encode(msg: &Message, buf: &mut impl BufMut) {
    match *msg {
        Message::FlowletStart {
            token,
            src,
            dst,
            size_hint,
            weight_q8,
            spine,
        } => {
            let [_, t2, t1, t0] = token.get().to_be_bytes();
            let [s1, s0] = src.to_be_bytes();
            let [d1, d0] = dst.to_be_bytes();
            let [h3, h2, h1, h0] = size_hint.to_be_bytes();
            let [w1, w0] = weight_q8.to_be_bytes();
            // The trailing zero pads to 16 bytes.
            buf.put_slice(&[
                TAG_START, t2, t1, t0, s1, s0, d1, d0, h3, h2, h1, h0, w1, w0, spine, 0,
            ]);
        }
        Message::FlowletEnd { token } => {
            let [_, t2, t1, t0] = token.get().to_be_bytes();
            buf.put_slice(&[TAG_END, t2, t1, t0]);
        }
        Message::RateUpdate { token, rate } => {
            let [_, t2, t1, t0] = token.get().to_be_bytes();
            let [r1, r0] = rate.bits().to_be_bytes();
            buf.put_slice(&[TAG_RATE, t2, t1, t0, r1, r0]);
        }
    }
}

/// Decode error, carrying the absolute byte offset of the failure within
/// the slice [`MessageIter`] walks, so a corrupt stream from a real socket
/// is diagnosable. A partial tail is not an error: the iterator stops
/// before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown tag byte.
    BadTag {
        /// The tag byte found.
        tag: u8,
        /// Byte offset of the bad tag.
        offset: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let DecodeError::BadTag { tag, offset } = *self;
        write!(f, "unknown message tag {tag} at byte {offset}")
    }
}

impl std::error::Error for DecodeError {}

/// Allocation-free iterator over the complete messages at the front of a
/// byte slice. A stream segment may end mid-message; the iterator stops
/// there (a partial tail is not an error) and [`MessageIter::consumed`]
/// reports how many bytes were decoded so the caller can retain the
/// remainder for the next segment. A bad tag yields one `Err` (with its
/// absolute byte offset) and then the iterator fuses.
///
/// It is the crate's only message decoder. It never allocates, so a
/// simulator draining thousands of control segments per tick pays no
/// `Vec<Message>` per call.
#[derive(Debug)]
pub struct MessageIter<'a> {
    buf: &'a [u8],
    offset: usize,
    done: bool,
}

impl<'a> MessageIter<'a> {
    /// Iterate the messages at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        MessageIter {
            buf,
            offset: 0,
            done: false,
        }
    }

    /// Bytes decoded so far (the partial tail, if any, starts here).
    pub fn consumed(&self) -> usize {
        self.offset
    }
}

// The *_at helpers index without `.get()` on purpose: they are the
// zero-copy fast path, and their only caller (`MessageIter::next`)
// verifies `need` bytes are present before touching any of them.
fn u16_at(buf: &[u8], off: usize) -> u16 {
    // flowtune-lint: allow(panic, "bounded: caller checked `need` bytes remain")
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

fn u24_at(buf: &[u8], off: usize) -> u32 {
    // flowtune-lint: allow(panic, "bounded: caller checked `need` bytes remain")
    ((buf[off] as u32) << 16) | (u16_at(buf, off + 1) as u32)
}

fn u32_at(buf: &[u8], off: usize) -> u32 {
    // flowtune-lint: allow(panic, "bounded: caller checked `need` bytes remain")
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

impl Iterator for MessageIter<'_> {
    type Item = Result<Message, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.offset >= self.buf.len() {
            return None;
        }
        // flowtune-lint: allow(panic, "bounded: offset < len checked on entry")
        let tag = self.buf[self.offset];
        let need = match tag {
            TAG_START => START_BYTES,
            TAG_END => END_BYTES,
            TAG_RATE => RATE_BYTES,
            other => {
                self.done = true;
                return Some(Err(DecodeError::BadTag {
                    tag: other,
                    offset: self.offset,
                }));
            }
        };
        if self.buf.len() < self.offset + need {
            // Partial tail: stop without consuming it.
            self.done = true;
            return None;
        }
        let at = self.offset + 1;
        let msg = match tag {
            TAG_START => Message::FlowletStart {
                token: Token::new(u24_at(self.buf, at)),
                src: u16_at(self.buf, at + 3),
                dst: u16_at(self.buf, at + 5),
                size_hint: u32_at(self.buf, at + 7),
                weight_q8: u16_at(self.buf, at + 11),
                // flowtune-lint: allow(panic, "bounded: START_BYTES checked above; at+13 is the last header byte")
                spine: self.buf[at + 13],
            },
            TAG_END => Message::FlowletEnd {
                token: Token::new(u24_at(self.buf, at)),
            },
            _ => Message::RateUpdate {
                token: Token::new(u24_at(self.buf, at)),
                rate: Rate16::from_bits(u16_at(self.buf, at + 3)),
            },
        };
        self.offset += need;
        Some(Ok(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn start() -> Message {
        Message::FlowletStart {
            token: Token::new(0x00AB_CDEF),
            src: 17,
            dst: 143,
            size_hint: 1_000_000,
            weight_q8: 256,
            spine: 3,
        }
    }

    #[test]
    fn sizes_match_the_paper() {
        let mut buf = BytesMut::new();
        encode(&start(), &mut buf);
        assert_eq!(buf.len(), 16);
        buf.clear();
        encode(
            &Message::FlowletEnd {
                token: Token::new(1),
            },
            &mut buf,
        );
        assert_eq!(buf.len(), 4);
        buf.clear();
        encode(
            &Message::RateUpdate {
                token: Token::new(1),
                rate: Rate16::encode(10.0),
            },
            &mut buf,
        );
        assert_eq!(buf.len(), 6);
    }

    #[test]
    fn golden_bytes_of_each_kind() {
        // The wire image, byte for byte: big-endian fields behind the
        // tag, the start padded to 16.
        let mut buf = BytesMut::new();
        encode(&start(), &mut buf);
        assert_eq!(
            &buf[..],
            [1, 0xAB, 0xCD, 0xEF, 0, 17, 0, 143, 0x00, 0x0F, 0x42, 0x40, 1, 0, 3, 0]
        );
        buf.clear();
        let token = Token::new(0x0001_02FE);
        encode(&Message::FlowletEnd { token }, &mut buf);
        assert_eq!(&buf[..], [2, 0x01, 0x02, 0xFE]);
        buf.clear();
        let rate = Rate16::from_bits(0x9A5F);
        encode(&Message::RateUpdate { token, rate }, &mut buf);
        assert_eq!(&buf[..], [3, 0x01, 0x02, 0xFE, 0x9A, 0x5F]);
    }

    /// The complete messages at the front of `buf` and the bytes they
    /// took, as a stream reader sees them.
    fn decode_front(buf: &[u8]) -> (Vec<Message>, usize) {
        let mut iter = MessageIter::new(buf);
        let msgs = iter.by_ref().map(|r| r.unwrap()).collect();
        (msgs, iter.consumed())
    }

    #[test]
    fn roundtrip_each_kind() {
        for msg in [
            start(),
            Message::FlowletEnd {
                token: Token::new(Token::MAX),
            },
            Message::RateUpdate {
                token: Token::new(0),
                rate: Rate16::encode(3.5),
            },
        ] {
            let mut buf = BytesMut::new();
            encode(&msg, &mut buf);
            assert_eq!(
                decode_front(&buf),
                (vec![msg], buf.len()),
                "no leftover bytes"
            );
        }
    }

    #[test]
    fn stream_decoding_handles_partials() {
        let mut buf = BytesMut::new();
        encode(&start(), &mut buf);
        encode(
            &Message::FlowletEnd {
                token: Token::new(7),
            },
            &mut buf,
        );
        encode(
            &Message::RateUpdate {
                token: Token::new(9),
                rate: Rate16::encode(1.0),
            },
            &mut buf,
        );
        // Split mid-second-message: the start decodes, and `consumed`
        // stops before the 2-byte partial tail.
        let first = &buf[..18];
        let (msgs, used) = decode_front(first);
        assert_eq!(msgs, [start()]);
        assert_eq!(used, START_BYTES, "partial tail retained");
        // Feed the rest behind the retained tail.
        let mut rest = first[used..].to_vec();
        rest.extend_from_slice(&buf[18..]);
        let (msgs, used) = decode_front(&rest);
        assert_eq!(msgs.len(), 2);
        assert_eq!(used, rest.len());
        // Cut mid-third-message: the first two decode, the tail waits.
        let (msgs, used) = decode_front(&buf[..START_BYTES + END_BYTES + 2]);
        assert_eq!(msgs.len(), 2);
        assert_eq!(used, START_BYTES + END_BYTES);
    }

    #[test]
    fn bad_tag_is_an_error() {
        let mut iter = MessageIter::new(&[0xFF, 0, 0, 0]);
        assert_eq!(
            iter.next(),
            Some(Err(DecodeError::BadTag {
                tag: 0xFF,
                offset: 0
            }))
        );
        assert_eq!(iter.consumed(), 0);
    }

    #[test]
    fn truncated_is_reported_without_consuming() {
        let mut buf = BytesMut::new();
        encode(&start(), &mut buf);
        let mut iter = MessageIter::new(&buf[..10]);
        assert_eq!(iter.next(), None, "a partial message is not decoded");
        assert_eq!(iter.consumed(), 0, "nothing consumed");
    }

    #[test]
    fn message_iter_reports_bad_tag_offset_and_fuses() {
        let mut buf = BytesMut::new();
        encode(
            &Message::FlowletEnd {
                token: Token::new(3),
            },
            &mut buf,
        );
        buf.put_u8(0xEE);
        let mut iter = MessageIter::new(&buf[..]);
        let results: Vec<_> = iter.by_ref().collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1],
            Err(DecodeError::BadTag {
                tag: 0xEE,
                offset: END_BYTES
            })
        );
        assert_eq!(iter.next(), None, "fused after the error");
        assert_eq!(
            iter.consumed(),
            END_BYTES,
            "good prefix consumed, bad byte retained"
        );
    }
}
