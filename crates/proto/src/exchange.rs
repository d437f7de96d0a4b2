//! Versioned wire format for the inter-shard link-state exchange.
//!
//! Each exchange round every shard emits exactly one **frame**: a fixed
//! 17-byte big-endian header followed by a run of tagged records. Frames
//! are written into a single flat caller-owned buffer (no per-record
//! allocation), and a transport ships them with a 4-byte length prefix.
//!
//! ```text
//!  0       1       2       3         5                13            17
//!  +-------+-------+-------+---------+----------------+-------------+
//!  | ver   | kind  | flags | shard   | round          | n_links     |
//!  | u8    | u8    | u8    | u16 BE  | u64 BE         | u32 BE      |
//!  +-------+-------+-------+---------+----------------+-------------+
//!  | tagged records ...                                             |
//!  +----------------------------------------------------------------+
//! ```
//!
//! * `ver` — protocol version, always [`EXCHANGE_VERSION`]. A receiver
//!   rejects any other value ([`FrameError::BadVersion`]) rather than
//!   guessing at the layout; peers of different versions never exchange.
//! * `kind` — [`FrameKind::State`] for the per-round link-state delta,
//!   [`FrameKind::Epoch`] for a placement-epoch / flow-migration batch.
//! * `flags` — bit 0 ([`FLAG_ACTIVE`]): the sender exported a non-empty
//!   load vector this round; bit 1 ([`FLAG_HESSIANS`]): the sender's
//!   link-state records carry a Hessian-diagonal word.
//! * `shard` — the sender's shard id.
//! * `round` — the sender's tick counter when the frame was built; used
//!   to match frames to rounds and detect late arrivals.
//! * `n_links` — length of the sender's exported link vectors (0 when
//!   inactive), so a receiver can size its replica before decoding.
//!
//! Records are tagged with a single byte; link-state and catch-up
//! records are 21 bytes (29 with the Hessian word), `f64` fields travel
//! as `to_bits` so every value — including NaN — round-trips bit-exact.
//!
//! The *logical* exchange accounting (`ServiceStats::exchange_bytes`)
//! intentionally keeps the in-process entry size (4 bytes of link id +
//! 8 per vector, no tag): it models the aggregated hub protocol the
//! paper costs out. The on-wire byte count — frame header, record tags
//! and the transport's length prefix — is reported separately by the
//! transports (see [`framed_wire_bytes`]).

/// The only protocol version this build speaks.
pub const EXCHANGE_VERSION: u8 = 1;

/// Fixed frame header size in bytes.
pub const FRAME_HEADER_BYTES: usize = 17;

/// The longest frame any encoder emits, and so the largest length prefix
/// a transport accepts before buffering a frame: 2²⁸ bytes. A state
/// frame carries, per link, at most one subscription record (5 bytes) and
/// one link-state *or* catch-up record (29 bytes with the Hessian word),
/// over at most 2²² links (the exchange core's `MAX_UNCHECKED_LINKS`), so
/// 17 + 34 · 2²² ≈ 1.4 · 10⁸. An epoch frame carries one epoch record
/// (9 bytes) and a 14-byte migration record per flow, over at most 2²⁴
/// tokens, so 17 + 9 + 14 · 2²⁴ ≈ 2.3 · 10⁸. Both round up to 2²⁸.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// Length prefix a stream transport prepends to every frame.
pub const LENGTH_PREFIX_BYTES: usize = 4;

/// Header flag: the sender exported a non-empty load vector this round.
pub const FLAG_ACTIVE: u8 = 0b0000_0001;

/// Header flag: link-state / catch-up records carry a Hessian word.
pub const FLAG_HESSIANS: u8 = 0b0000_0010;

const TAG_LINK_STATE: u8 = 1;
const TAG_CATCH_UP: u8 = 2;
const TAG_SUB_ADD: u8 = 3;
const TAG_SUB_REMOVE: u8 = 4;
const TAG_EPOCH_BEGIN: u8 = 5;
const TAG_MIGRATION: u8 = 6;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Per-round link-state delta (link-state, catch-up, subscription
    /// records).
    State,
    /// Placement-epoch announcement with flow-migration records.
    Epoch,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::State => 1,
            FrameKind::Epoch => 2,
        }
    }

    fn from_u8(kind: u8) -> Result<Self, FrameError> {
        match kind {
            1 => Ok(FrameKind::State),
            2 => Ok(FrameKind::Epoch),
            _ => Err(FrameError::BadKind { kind }),
        }
    }
}

/// Decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sender's shard id.
    pub shard: u16,
    /// Sender's tick counter when the frame was built.
    pub round: u64,
    /// Length of the sender's exported link vectors (0 when inactive).
    pub n_links: u32,
    /// Sender exported a non-empty load vector this round.
    pub active: bool,
    /// Link-state / catch-up records carry a Hessian word.
    pub has_hessians: bool,
}

/// One record inside a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Record {
    /// A link whose exported state moved past the delta threshold this
    /// round. `hessian` is 0.0 when the frame's [`FLAG_HESSIANS`] is
    /// clear (and does not travel).
    LinkState {
        /// Global link index.
        link: u32,
        /// Exported load on the link (Gbps).
        load: f64,
        /// Exported dual price on the link.
        dual: f64,
        /// Exported Hessian diagonal (∂x/∂p sum) on the link.
        hessian: f64,
    },
    /// A re-shipped, unchanged entry: sent after a placement epoch so a
    /// peer whose replica may predate the sender's state is re-seeded.
    /// Same layout as [`Record::LinkState`] but does not count as fresh
    /// movement.
    CatchUp {
        /// Global link index.
        link: u32,
        /// Current exported load on the link (Gbps).
        load: f64,
        /// Current exported dual price on the link.
        dual: f64,
        /// Current exported Hessian diagonal on the link.
        hessian: f64,
    },
    /// The sender now carries load on `link` (informational subscription
    /// announcement).
    SubAdd {
        /// Global link index.
        link: u32,
    },
    /// The sender no longer carries load on `link`.
    SubRemove {
        /// Global link index.
        link: u32,
    },
    /// A placement epoch begins; migration records follow.
    EpochBegin {
        /// Monotonic epoch counter.
        epoch: u64,
    },
    /// One flow handed off between shards during a placement epoch.
    Migration {
        /// Flowlet token.
        token: u32,
        /// Source server.
        src: u16,
        /// Destination server.
        dst: u16,
        /// Q8.8 fixed-point flow weight.
        weight_q8: u16,
        /// Pinned ECMP spine.
        spine: u8,
        /// Shard that adopts the flow.
        dst_shard: u16,
    },
}

/// Why a frame failed to decode. Offsets are byte positions from the
/// start of the frame, so a corrupt frame off a real socket is
/// diagnosable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended mid-header or mid-record.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// The version byte is not [`EXCHANGE_VERSION`].
    BadVersion {
        /// The version byte found.
        version: u8,
    },
    /// The kind byte is not a known [`FrameKind`].
    BadKind {
        /// The kind byte found.
        kind: u8,
    },
    /// An unknown record tag.
    BadTag {
        /// The tag byte found.
        tag: u8,
        /// Byte offset of the tag within the frame.
        offset: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FrameError::Truncated { offset } => {
                write!(f, "exchange frame truncated at byte {offset}")
            }
            FrameError::BadVersion { version } => {
                write!(
                    f,
                    "exchange frame version {version} (this build speaks {EXCHANGE_VERSION})"
                )
            }
            FrameError::BadKind { kind } => write!(f, "unknown exchange frame kind {kind}"),
            FrameError::BadTag { tag, offset } => {
                write!(f, "unknown exchange record tag {tag} at byte {offset}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn rd_u16(buf: &[u8], off: usize) -> Option<u16> {
    Some(u16::from_be_bytes(buf.get(off..off + 2)?.try_into().ok()?))
}

fn rd_u32(buf: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_be_bytes(buf.get(off..off + 4)?.try_into().ok()?))
}

fn rd_u64(buf: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_be_bytes(buf.get(off..off + 8)?.try_into().ok()?))
}

/// Append `header` to `buf` (exactly [`FRAME_HEADER_BYTES`] bytes).
pub fn encode_header(header: &FrameHeader, buf: &mut Vec<u8>) {
    buf.push(EXCHANGE_VERSION);
    buf.push(header.kind.to_u8());
    let mut flags = 0u8;
    if header.active {
        flags |= FLAG_ACTIVE;
    }
    if header.has_hessians {
        flags |= FLAG_HESSIANS;
    }
    buf.push(flags);
    put_u16(buf, header.shard);
    put_u64(buf, header.round);
    put_u32(buf, header.n_links);
}

/// Decode the header at the start of `frame` without touching the
/// records.
pub fn decode_header(frame: &[u8]) -> Result<FrameHeader, FrameError> {
    let truncated = FrameError::Truncated {
        offset: frame.len(),
    };
    if frame.len() < FRAME_HEADER_BYTES {
        return Err(truncated);
    }
    let version = *frame.first().ok_or(truncated)?;
    if version != EXCHANGE_VERSION {
        return Err(FrameError::BadVersion { version });
    }
    let kind = FrameKind::from_u8(*frame.get(1).ok_or(truncated)?)?;
    let flags = *frame.get(2).ok_or(truncated)?;
    Ok(FrameHeader {
        kind,
        shard: rd_u16(frame, 3).ok_or(truncated)?,
        round: rd_u64(frame, 5).ok_or(truncated)?,
        n_links: rd_u32(frame, 13).ok_or(truncated)?,
        active: flags & FLAG_ACTIVE != 0,
        has_hessians: flags & FLAG_HESSIANS != 0,
    })
}

/// Append one record to `buf`. `has_hessians` must match the frame
/// header's [`FLAG_HESSIANS`] — it decides whether link-state and
/// catch-up records carry the Hessian word.
pub fn encode_record(record: &Record, has_hessians: bool, buf: &mut Vec<u8>) {
    match *record {
        Record::LinkState {
            link,
            load,
            dual,
            hessian,
        } => {
            buf.push(TAG_LINK_STATE);
            put_u32(buf, link);
            put_u64(buf, load.to_bits());
            put_u64(buf, dual.to_bits());
            if has_hessians {
                put_u64(buf, hessian.to_bits());
            }
        }
        Record::CatchUp {
            link,
            load,
            dual,
            hessian,
        } => {
            buf.push(TAG_CATCH_UP);
            put_u32(buf, link);
            put_u64(buf, load.to_bits());
            put_u64(buf, dual.to_bits());
            if has_hessians {
                put_u64(buf, hessian.to_bits());
            }
        }
        Record::SubAdd { link } => {
            buf.push(TAG_SUB_ADD);
            put_u32(buf, link);
        }
        Record::SubRemove { link } => {
            buf.push(TAG_SUB_REMOVE);
            put_u32(buf, link);
        }
        Record::EpochBegin { epoch } => {
            buf.push(TAG_EPOCH_BEGIN);
            put_u64(buf, epoch);
        }
        Record::Migration {
            token,
            src,
            dst,
            weight_q8,
            spine,
            dst_shard,
        } => {
            buf.push(TAG_MIGRATION);
            put_u32(buf, token);
            put_u16(buf, src);
            put_u16(buf, dst);
            put_u16(buf, weight_q8);
            buf.push(spine);
            put_u16(buf, dst_shard);
        }
    }
}

/// Iterator over the records of one frame. Yields `Err` once on the
/// first malformed record and then fuses.
#[derive(Debug)]
pub struct RecordIter<'a> {
    frame: &'a [u8],
    offset: usize,
    has_hessians: bool,
    done: bool,
}

impl<'a> RecordIter<'a> {
    /// Decode the header of `frame` and return it with an iterator over
    /// the records that follow.
    pub fn new(frame: &'a [u8]) -> Result<(FrameHeader, RecordIter<'a>), FrameError> {
        let header = decode_header(frame)?;
        Ok((
            header,
            RecordIter {
                frame,
                offset: FRAME_HEADER_BYTES,
                has_hessians: header.has_hessians,
                done: false,
            },
        ))
    }

    /// Byte offset of the next undecoded record within the frame.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The error every short read in this frame maps to.
    fn truncated(&self) -> FrameError {
        FrameError::Truncated {
            offset: self.frame.len(),
        }
    }

    fn state_record(&mut self, catch_up: bool) -> Result<Record, FrameError> {
        let off = self.offset + 1;
        let words = if self.has_hessians { 3 } else { 2 };
        let need = 1 + 4 + 8 * words;
        if self.frame.len() < self.offset + need {
            return Err(self.truncated());
        }
        let link = rd_u32(self.frame, off).ok_or(self.truncated())?;
        let load = f64::from_bits(rd_u64(self.frame, off + 4).ok_or(self.truncated())?);
        let dual = f64::from_bits(rd_u64(self.frame, off + 12).ok_or(self.truncated())?);
        let hessian = if self.has_hessians {
            f64::from_bits(rd_u64(self.frame, off + 20).ok_or(self.truncated())?)
        } else {
            0.0
        };
        self.offset += need;
        Ok(if catch_up {
            Record::CatchUp {
                link,
                load,
                dual,
                hessian,
            }
        } else {
            Record::LinkState {
                link,
                load,
                dual,
                hessian,
            }
        })
    }

    fn migration_record(&mut self) -> Result<Record, FrameError> {
        let off = self.offset + 1;
        if self.frame.len() < self.offset + 14 {
            return Err(self.truncated());
        }
        let record = Record::Migration {
            token: rd_u32(self.frame, off).ok_or(self.truncated())?,
            src: rd_u16(self.frame, off + 4).ok_or(self.truncated())?,
            dst: rd_u16(self.frame, off + 6).ok_or(self.truncated())?,
            weight_q8: rd_u16(self.frame, off + 8).ok_or(self.truncated())?,
            spine: *self.frame.get(off + 10).ok_or(self.truncated())?,
            dst_shard: rd_u16(self.frame, off + 11).ok_or(self.truncated())?,
        };
        self.offset += 14;
        Ok(record)
    }

    fn next_record(&mut self) -> Option<Result<Record, FrameError>> {
        let tag = *self.frame.get(self.offset)?;
        let result = match tag {
            TAG_LINK_STATE => self.state_record(false),
            TAG_CATCH_UP => self.state_record(true),
            TAG_SUB_ADD | TAG_SUB_REMOVE => match rd_u32(self.frame, self.offset + 1) {
                Some(link) => {
                    self.offset += 5;
                    if tag == TAG_SUB_ADD {
                        Ok(Record::SubAdd { link })
                    } else {
                        Ok(Record::SubRemove { link })
                    }
                }
                None => Err(FrameError::Truncated {
                    offset: self.frame.len(),
                }),
            },
            TAG_EPOCH_BEGIN => match rd_u64(self.frame, self.offset + 1) {
                Some(epoch) => {
                    self.offset += 9;
                    Ok(Record::EpochBegin { epoch })
                }
                None => Err(FrameError::Truncated {
                    offset: self.frame.len(),
                }),
            },
            TAG_MIGRATION => self.migration_record(),
            _ => Err(FrameError::BadTag {
                tag,
                offset: self.offset,
            }),
        };
        Some(result)
    }
}

impl Iterator for RecordIter<'_> {
    type Item = Result<Record, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.next_record();
        if matches!(item, Some(Err(_)) | None) {
            self.done = true;
        }
        item
    }
}

/// On-wire bytes for one frame shipped by a length-prefixed stream
/// transport: the 4-byte prefix plus the frame itself. (Ethernet-level
/// overheads are modeled separately by [`crate::wire`].)
pub fn framed_wire_bytes(frame_len: usize) -> u64 {
    (LENGTH_PREFIX_BYTES + frame_len) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(kind: FrameKind, has_hessians: bool) -> FrameHeader {
        FrameHeader {
            kind,
            shard: 3,
            round: 41,
            n_links: 48,
            active: true,
            has_hessians,
        }
    }

    #[test]
    fn header_roundtrips() {
        for has_h in [false, true] {
            for kind in [FrameKind::State, FrameKind::Epoch] {
                let h = header(kind, has_h);
                let mut buf = Vec::new();
                encode_header(&h, &mut buf);
                assert_eq!(buf.len(), FRAME_HEADER_BYTES);
                assert_eq!(decode_header(&buf).unwrap(), h);
            }
        }
    }

    #[test]
    fn records_roundtrip_with_and_without_hessians() {
        let records = [
            Record::LinkState {
                link: 7,
                load: 12.5,
                dual: -0.25,
                hessian: 3.75,
            },
            Record::CatchUp {
                link: 47,
                load: 0.0,
                dual: f64::NAN,
                hessian: 1e-300,
            },
            Record::SubAdd { link: 9 },
            Record::SubRemove { link: 10 },
            Record::EpochBegin { epoch: 5 },
            Record::Migration {
                token: 0xABCDEF,
                src: 1,
                dst: 15,
                weight_q8: 256,
                spine: 2,
                dst_shard: 1,
            },
        ];
        for has_h in [false, true] {
            let mut buf = Vec::new();
            encode_header(&header(FrameKind::State, has_h), &mut buf);
            for r in &records {
                encode_record(r, has_h, &mut buf);
            }
            let (h, iter) = RecordIter::new(&buf).unwrap();
            assert_eq!(h.has_hessians, has_h);
            let decoded: Vec<_> = iter.map(|r| r.unwrap()).collect();
            assert_eq!(decoded.len(), records.len());
            for (got, want) in decoded.iter().zip(&records) {
                match (got, want) {
                    (
                        Record::LinkState {
                            link: gl,
                            load: ga,
                            dual: gd,
                            hessian: gh,
                        },
                        Record::LinkState {
                            link: wl,
                            load: wa,
                            dual: wd,
                            hessian: wh,
                        },
                    )
                    | (
                        Record::CatchUp {
                            link: gl,
                            load: ga,
                            dual: gd,
                            hessian: gh,
                        },
                        Record::CatchUp {
                            link: wl,
                            load: wa,
                            dual: wd,
                            hessian: wh,
                        },
                    ) => {
                        assert_eq!(gl, wl);
                        assert_eq!(ga.to_bits(), wa.to_bits());
                        assert_eq!(gd.to_bits(), wd.to_bits());
                        let want_h = if has_h {
                            wh.to_bits()
                        } else {
                            0.0f64.to_bits()
                        };
                        assert_eq!(gh.to_bits(), want_h);
                    }
                    _ => assert_eq!(got, want),
                }
            }
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        encode_header(&header(FrameKind::State, false), &mut buf);
        buf[0] = 9;
        assert_eq!(
            decode_header(&buf),
            Err(FrameError::BadVersion { version: 9 })
        );
    }

    #[test]
    fn bad_tag_reports_its_offset() {
        let mut buf = Vec::new();
        encode_header(&header(FrameKind::State, false), &mut buf);
        encode_record(&Record::SubAdd { link: 1 }, false, &mut buf);
        let bad_at = buf.len();
        buf.push(0xEE);
        let (_, iter) = RecordIter::new(&buf).unwrap();
        let results: Vec<_> = iter.collect();
        assert_eq!(results[0], Ok(Record::SubAdd { link: 1 }));
        assert_eq!(
            results[1],
            Err(FrameError::BadTag {
                tag: 0xEE,
                offset: bad_at
            })
        );
        assert_eq!(results.len(), 2, "iterator must fuse after an error");
    }

    #[test]
    fn every_truncation_point_errors_without_panicking() {
        let mut buf = Vec::new();
        encode_header(&header(FrameKind::State, true), &mut buf);
        encode_record(
            &Record::LinkState {
                link: 3,
                load: 1.0,
                dual: 2.0,
                hessian: 3.0,
            },
            true,
            &mut buf,
        );
        encode_record(&Record::EpochBegin { epoch: 1 }, true, &mut buf);
        for cut in 0..buf.len() {
            let prefix = &buf[..cut];
            match RecordIter::new(prefix) {
                Err(FrameError::Truncated { offset }) => assert!(offset <= cut),
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
                Ok((_, iter)) => {
                    // Records may decode up to the cut; the tail must be
                    // a truncation error, never a panic.
                    for r in iter {
                        if let Err(e) = r {
                            assert!(matches!(e, FrameError::Truncated { .. }), "{e}");
                        }
                    }
                }
            }
        }
    }
}
