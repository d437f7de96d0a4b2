// Fixture: a justified suppression on a line no rule flags — what a
// moved function or a misplaced marker leaves behind.

// flowtune-lint: untrusted-input
pub fn header_byte(buf: &[u8]) -> u8 {
    // flowtune-lint: allow(panic, "caller guarantees a non-empty header")
    buf.first().copied().unwrap_or(0)
}
