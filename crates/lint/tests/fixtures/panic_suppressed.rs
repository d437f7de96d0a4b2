// Fixture: a justified unchecked index in panic scope.

// flowtune-lint: untrusted-input
pub fn header_byte(buf: &[u8]) -> u8 {
    debug_assert!(!buf.is_empty());
    // flowtune-lint: allow(panic, "caller guarantees a non-empty header")
    buf[0]
}
