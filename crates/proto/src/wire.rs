//! Wire-overhead accounting (§7 "More scalable rate update schemes").
//!
//! "Sending tiny rate updates of a few bytes has huge overhead: Ethernet
//! has 64-byte minimum frames and preamble and interframe gaps, which cost
//! 84-bytes, even if only one byte is sent. When sending an 8-byte rate
//! update there is a 10× overhead." These helpers compute the actual
//! on-the-wire cost of control messages, standalone or batched into MTUs
//! through an intermediary.

/// TCP + IPv4 headers without options.
pub const TCP_IP_HEADER: usize = 40;
/// Ethernet header + FCS.
pub const ETH_HEADER: usize = 18;
/// Preamble + start-frame delimiter + minimum interframe gap.
pub const ETH_PREAMBLE_IFG: usize = 20;
/// Minimum Ethernet frame (header + payload + FCS).
pub const ETH_MIN_FRAME: usize = 64;
/// Standard MTU (IP payload).
pub const MTU: usize = 1500;

/// Bytes a single TCP segment carrying `payload` bytes occupies on the
/// wire, including Ethernet minimum-frame padding, preamble and IFG.
pub fn segment_wire_bytes(payload: usize) -> usize {
    let frame = (payload + TCP_IP_HEADER + ETH_HEADER).max(ETH_MIN_FRAME);
    frame + ETH_PREAMBLE_IFG
}

/// Bytes on the wire for `total_payload` bytes of control messages packed
/// greedily into MTU-sized segments (the §7 intermediary scheme: "The
/// allocator sends an MTU to each intermediary with all updates to the
/// intermediary's endpoints").
pub fn batched_wire_bytes(total_payload: usize) -> usize {
    if total_payload == 0 {
        return 0;
    }
    let per_segment = MTU - TCP_IP_HEADER;
    let full = total_payload / per_segment;
    let rem = total_payload % per_segment;
    full * segment_wire_bytes(per_segment) + if rem > 0 { segment_wire_bytes(rem) } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_frame_dominates_tiny_payloads() {
        // 6-byte rate update: 6 + 40 + 18 = 64 = exactly min frame.
        assert_eq!(segment_wire_bytes(6), 64 + 20);
        // 1-byte payload still costs a full minimum frame.
        assert_eq!(segment_wire_bytes(1), 84);
    }

    #[test]
    fn paper_ten_x_claim_for_8_byte_updates() {
        // "When sending an 8-byte rate update there is a 10× overhead":
        // 84 bytes on the wire for 8 useful bytes ≈ 10.5×.
        let f = segment_wire_bytes(8) as f64 / 8.0;
        assert!((9.0..12.0).contains(&f), "{f}");
    }

    #[test]
    fn batching_amortizes_headers() {
        let n = 200; // 200 six-byte updates
        let standalone: usize = (0..n).map(|_| segment_wire_bytes(6)).sum();
        let batched = batched_wire_bytes(n * 6);
        assert!(batched * 5 < standalone, "{batched} vs {standalone}");
    }

    #[test]
    fn batched_zero_is_zero() {
        assert_eq!(batched_wire_bytes(0), 0);
    }

    #[test]
    fn batched_splits_at_mtu() {
        let per_segment = MTU - TCP_IP_HEADER;
        let one = batched_wire_bytes(per_segment);
        let two = batched_wire_bytes(per_segment + 1);
        assert!(two > one);
        assert_eq!(two, one + segment_wire_bytes(1));
    }
}
