//! Endpoint ↔ allocator wire protocol.
//!
//! §6.2: "Notifications of flowlet start, end, and rate updates are
//! encoded in 16, 4, and 6 bytes plus the standard TCP/IP overheads." This
//! crate implements exactly those encodings (tag byte included):
//!
//! | message        | bytes | layout                                             |
//! |----------------|-------|----------------------------------------------------|
//! | `FlowletStart` | 16    | tag, token:u24, src:u16, dst:u16, size:u32, weight:u16, spine:u8, pad:u16 |
//! | `FlowletEnd`   | 4     | tag, token:u24                                     |
//! | `RateUpdate`   | 6     | tag, token:u24, rate:[`Rate16`]                    |
//!
//! Flowlets are addressed by a compact 24-bit [`Token`] assigned by the
//! sending endpoint (and unique allocator-wide in this implementation);
//! 16 M concurrent flowlets is ~300× the 49 K flows of the paper's largest
//! benchmark. Rates travel as [`Rate16`], a custom 16-bit floating-point
//! code with ≤0.025% relative error — far below the 1% default update
//! threshold (§6.4), so quantization never masks a real change.
//!
//! [`ThresholdFilter`] states the §6.4 update-suppression rule (the
//! allocator engines run it packed over their rate columns, pinned bit
//! for bit to [`ThresholdFilter::passes`]), and
//! [`wire`] the byte-accounting helpers (Ethernet minimum frame and
//! header overheads) used by the overhead figures. [`exchange`] is the
//! shard-to-shard side of the control plane: the versioned frame format
//! the distributed arbiter peers speak over a real transport.
//!
//! Every byte this crate decodes may come from a peer, so all of it is
//! in the panic rule's scope:
//! flowtune-lint: untrusted-input

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod exchange;
pub mod filter;
pub mod rate16;
pub mod wire;

pub use codec::{encode, Message, MessageIter};
pub use filter::ThresholdFilter;
pub use rate16::Rate16;

/// Compact flowlet handle: 24 bits on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(u32);

impl Token {
    /// Largest encodable token.
    pub const MAX: u32 = 0x00FF_FFFF;

    /// Creates a token.
    ///
    /// # Panics
    /// Panics if `v` exceeds 24 bits.
    pub fn new(v: u32) -> Self {
        assert!(v <= Self::MAX, "token {v} exceeds 24 bits");
        Token(v)
    }

    /// Raw value.
    pub fn get(self) -> u32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrip() {
        assert_eq!(Token::new(0).get(), 0);
        assert_eq!(Token::new(Token::MAX).get(), Token::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds 24 bits")]
    fn oversized_token_rejected() {
        let _ = Token::new(Token::MAX + 1);
    }
}
