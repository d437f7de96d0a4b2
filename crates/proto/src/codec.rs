//! Message definitions and the byte codec.

use bytes::{Buf, BufMut, Bytes, BytesMut};

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

fn get_u24(buf: &mut Bytes) -> u32 {
    let hi = buf.get_u8() as u32;
    let lo = buf.get_u16() as u32;
    (hi << 16) | lo
}

/// Appends `msg` to `buf`: the whole message is assembled as one
/// fixed-size array (fields big-endian, the token's 24 bits in three
/// bytes) and written with a single `put_slice`.
pub fn encode(msg: &Message, buf: &mut BytesMut) {
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

/// Decode error, carrying the byte offset of the failure so a corrupt
/// stream from a real socket is diagnosable. For [`decode`] the offset
/// is relative to the front of the buffer (always 0 for a bad tag); for
/// [`MessageIter`] it is the absolute offset within the iterated slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer holds a partial message (need more bytes).
    Truncated {
        /// Byte offset at which the incomplete message starts.
        offset: usize,
    },
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
        match *self {
            DecodeError::Truncated { offset } => {
                write!(f, "truncated message at byte {offset}")
            }
            DecodeError::BadTag { tag, offset } => {
                write!(f, "unknown message tag {tag} at byte {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes one message from the front of `buf`, consuming its bytes.
pub fn decode(buf: &mut Bytes) -> Result<Message, DecodeError> {
    if buf.is_empty() {
        return Err(DecodeError::Truncated { offset: 0 });
    }
    // flowtune-lint: allow(panic, "bounded: is_empty checked on the line above")
    let tag = buf[0];
    let need = match tag {
        TAG_START => START_BYTES,
        TAG_END => END_BYTES,
        TAG_RATE => RATE_BYTES,
        other => {
            return Err(DecodeError::BadTag {
                tag: other,
                offset: 0,
            })
        }
    };
    if buf.len() < need {
        return Err(DecodeError::Truncated { offset: 0 });
    }
    buf.advance(1);
    Ok(match tag {
        TAG_START => {
            let token = Token::new(get_u24(buf));
            let src = buf.get_u16();
            let dst = buf.get_u16();
            let size_hint = buf.get_u32();
            let weight_q8 = buf.get_u16();
            let spine = buf.get_u8();
            let _pad = buf.get_u8();
            Message::FlowletStart {
                token,
                src,
                dst,
                size_hint,
                weight_q8,
                spine,
            }
        }
        TAG_END => Message::FlowletEnd {
            token: Token::new(get_u24(buf)),
        },
        _ => Message::RateUpdate {
            token: Token::new(get_u24(buf)),
            rate: Rate16::from_bits(buf.get_u16()),
        },
    })
}

/// Allocation-free iterator over the complete messages at the front of a
/// byte slice. A stream segment may end mid-message; the iterator stops
/// there (a partial tail is not an error) and [`MessageIter::consumed`]
/// reports how many bytes were decoded so the caller can retain the
/// remainder for the next segment. A bad tag yields one `Err` (with its
/// absolute byte offset) and then the iterator fuses.
///
/// This is the hot-path variant of [`decode_stream`]: it never allocates,
/// so a simulator draining thousands of control segments per tick does
/// not pay a `Vec<Message>` per call.
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

/// Decodes every complete message in `buf` (a TCP stream segment may end
/// mid-message; the remainder stays in `buf` for the next call). On a bad
/// tag, the messages before it are consumed and the error's offset points
/// at the offending byte. Allocates the returned `Vec`; hot paths should
/// iterate [`MessageIter`] directly.
pub fn decode_stream(buf: &mut Bytes) -> Result<Vec<Message>, DecodeError> {
    // flowtune-lint: allow(panic, "full-range slice of Bytes cannot be out of bounds")
    let mut iter = MessageIter::new(&buf[..]);
    let mut out = Vec::new();
    let result = loop {
        match iter.next() {
            Some(Ok(m)) => out.push(m),
            Some(Err(e)) => break Err(e),
            None => break Ok(()),
        }
    };
    buf.advance(iter.consumed());
    result.map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut bytes = buf.freeze();
            assert_eq!(decode(&mut bytes).unwrap(), msg);
            assert!(bytes.is_empty(), "no leftover bytes");
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
        let all = buf.freeze();
        // Split mid-second-message.
        let mut first = all.slice(0..18);
        let msgs = decode_stream(&mut first).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(first.len(), 2, "partial tail retained");
        // Feed the rest.
        let mut rest = BytesMut::from(&first[..]);
        rest.extend_from_slice(&all[18..]);
        let mut rest = rest.freeze();
        let msgs2 = decode_stream(&mut rest).unwrap();
        assert_eq!(msgs2.len(), 2);
        assert!(rest.is_empty());
    }

    #[test]
    fn bad_tag_is_an_error() {
        let mut bytes = Bytes::from_static(&[0xFF, 0, 0, 0]);
        assert_eq!(
            decode(&mut bytes),
            Err(DecodeError::BadTag {
                tag: 0xFF,
                offset: 0
            })
        );
    }

    #[test]
    fn truncated_is_reported_without_consuming() {
        let mut buf = BytesMut::new();
        encode(&start(), &mut buf);
        let mut partial = buf.freeze().slice(0..10);
        assert_eq!(
            decode(&mut partial),
            Err(DecodeError::Truncated { offset: 0 })
        );
        assert_eq!(partial.len(), 10, "nothing consumed");
    }

    #[test]
    fn message_iter_matches_decode_stream() {
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
        // Cut mid-third-message: the iterator decodes the first two and
        // leaves the tail unconsumed, exactly like decode_stream.
        let cut = START_BYTES + END_BYTES + 2;
        let mut iter = MessageIter::new(&buf[..cut]);
        let msgs: Vec<_> = iter.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(msgs.len(), 2);
        assert_eq!(iter.consumed(), START_BYTES + END_BYTES);
        let mut bytes = buf.clone().freeze().slice(0..cut);
        assert_eq!(decode_stream(&mut bytes).unwrap(), msgs);
        assert_eq!(bytes.len(), 2);
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
        let results: Vec<_> = MessageIter::new(&buf[..]).collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1],
            Err(DecodeError::BadTag {
                tag: 0xEE,
                offset: END_BYTES
            })
        );
        // decode_stream consumes the good prefix and surfaces the error.
        let mut bytes = buf.freeze();
        assert_eq!(
            decode_stream(&mut bytes),
            Err(DecodeError::BadTag {
                tag: 0xEE,
                offset: END_BYTES
            })
        );
        assert_eq!(bytes.len(), 1, "good prefix consumed, bad byte retained");
    }
}
