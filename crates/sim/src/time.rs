//! Simulation time: integer picoseconds.
//!
//! Picoseconds keep serialization arithmetic exact (one bit at 40 Gbit/s
//! is 25 ps) while a `u64` still spans ~213 days — ample for sub-second
//! experiments.

/// One microsecond in picoseconds.
pub const US: u64 = 1_000_000;
/// One millisecond in picoseconds.
pub const MS: u64 = 1_000_000_000;
/// One second in picoseconds.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// Picoseconds to transmit `bytes` at `bps` bits/s (exact, 128-bit
/// intermediate).
#[inline]
pub fn tx_time_ps(bytes: u32, bps: u64) -> u64 {
    (u128::from(bytes) * 8 * u128::from(PS_PER_SEC) / u128::from(bps)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtu_at_10g_is_1200ns() {
        assert_eq!(tx_time_ps(1500, 10_000_000_000), 1_200_000);
    }

    #[test]
    fn ack_at_40g() {
        assert_eq!(tx_time_ps(64, 40_000_000_000), 12_800);
    }

    #[test]
    fn constants_consistent() {
        assert_eq!(1000 * US, MS);
        assert_eq!(1000 * MS, PS_PER_SEC);
    }
}
