// Fixture: wire-protocol defects. The wire-exhaustive rule runs on
// every file, so any path will do.

pub const TAG_LINK: u8 = 1; // encoded and decoded: fine
pub const TAG_ORPHAN: u8 = 2; // line 5: encoded, never decoded — fires
pub const TAG_GHOST: u8 = 3; // line 6: decoded, never encoded — fires
pub const TAG_CLASH: u8 = 1; // line 7: reuses value 1 — fires

/// Declared header size disagrees with what encode_header appends.
pub const FRAME_HEADER_BYTES: usize = 5;

pub fn encode(out: &mut Vec<u8>) {
    out.push(TAG_LINK);
    out.push(TAG_ORPHAN);
}

pub fn encode_header(out: &mut Buf) {
    out.push(1); // 1 byte
    out.put_u16(7); // 2 bytes — totals 3, declared 5: fires at fn line
}

pub fn decode(tag: u8) -> bool {
    match tag {
        TAG_LINK => true,
        TAG_GHOST => true,
        _ => false,
    }
}
