// Fixture: a decode path that surfaces every failure as an error.

/// Decode error.
pub enum DecodeError {
    /// Frame ended early.
    Truncated,
}

// flowtune-lint: untrusted-input
pub fn decode_u16(buf: &[u8], off: usize) -> Result<u16, DecodeError> {
    let hi = *buf.get(off).ok_or(DecodeError::Truncated)?;
    let lo = *buf.get(off + 1).ok_or(DecodeError::Truncated)?;
    Ok(u16::from_be_bytes([hi, lo]))
}
