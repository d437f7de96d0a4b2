//! Allocator-wide unique flowlet tokens.
//!
//! The wire format gives tokens 24 bits (`flowtune_proto::Token`). Each
//! endpoint owns a disjoint slice of that space — the high bits encode the
//! server index, the low bits a per-server wrapping counter — so endpoints
//! can mint tokens without coordination and the allocator can key its flow
//! table by token alone.

use flowtune_proto::Token;

/// Mints unique tokens for one endpoint.
#[derive(Debug, Clone)]
pub struct TokenAllocator {
    prefix: u32,
    counter_bits: u32,
    next: u32,
}

impl TokenAllocator {
    /// Creates the minting state for `server` in a cluster of
    /// `cluster_size` servers.
    ///
    /// # Panics
    /// Panics if the cluster needs more than 16 of the 24 token bits
    /// (i.e. more than 65 536 servers), or if `server` is out of range.
    pub fn new(server: u16, cluster_size: usize) -> Self {
        assert!(cluster_size > 0 && (server as usize) < cluster_size);
        let server_bits = usize::BITS - (cluster_size - 1).leading_zeros();
        let server_bits = server_bits.max(1);
        assert!(server_bits <= 16, "cluster too large for 24-bit tokens");
        let counter_bits = 24 - server_bits;
        Self {
            prefix: (server as u32) << counter_bits,
            counter_bits,
            next: 0,
        }
    }

    /// Mints the next token: the server prefix and the counter, which
    /// then advances and wraps after [`TokenAllocator::capacity`] mints.
    /// The allocator does not know which tokens are still in use, so
    /// after a wrap it returns the token of any flowlet that has outlived
    /// `capacity` later starts on this server — one long-lived flowlet is
    /// enough (2¹⁷ starts at 128 servers, 2⁸ at 65 536). The caller must
    /// mint again while the token it got is live, as
    /// [`EndpointAgent::on_backlog`](crate::EndpointAgent::on_backlog)
    /// does.
    pub fn mint(&mut self) -> Token {
        let t = self.prefix | (self.next & ((1 << self.counter_bits) - 1));
        self.next = self.next.wrapping_add(1);
        Token::new(t)
    }

    /// How many distinct tokens this endpoint has: the most flowlets it
    /// can have in flight at once.
    pub fn capacity(&self) -> u32 {
        1 << self.counter_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_unique_across_servers() {
        let mut a = TokenAllocator::new(0, 144);
        let mut b = TokenAllocator::new(143, 144);
        let ta: Vec<Token> = (0..100).map(|_| a.mint()).collect();
        let tb: Vec<Token> = (0..100).map(|_| b.mint()).collect();
        for x in &ta {
            assert!(!tb.contains(x));
        }
    }

    #[test]
    fn tokens_unique_within_server_until_wrap() {
        let mut a = TokenAllocator::new(7, 144);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(a.mint()));
        }
    }

    #[test]
    fn capacity_scales_inversely_with_cluster_size() {
        assert!(TokenAllocator::new(0, 144).capacity() > TokenAllocator::new(0, 2048).capacity());
        // 144 servers → 8 server bits → 65 536 concurrent flowlets each.
        assert_eq!(TokenAllocator::new(0, 144).capacity(), 1 << 16);
    }

    #[test]
    fn two_server_cluster_works() {
        let mut a = TokenAllocator::new(1, 2);
        let t = a.mint();
        assert_eq!(t.get() >> 23, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_server_rejected() {
        let _ = TokenAllocator::new(5, 4);
    }
}
