// Fixture: panics reachable from a decode path. The marker puts
// `decode_u16` in panic scope wherever the file sits.

// flowtune-lint: untrusted-input
pub fn decode_u16(buf: &[u8], off: usize) -> u16 {
    let hi = buf[off]; // line 6: fires (unchecked index)
    let lo = *buf.get(off + 1).unwrap(); // line 7: fires (unwrap)
    if off > buf.len() {
        unreachable!("checked above"); // line 9: fires (panicking macro)
    }
    u16::from_be_bytes([hi, lo])
}
