//! `Rate16`: the 2-byte rate encoding carried by rate updates.
//!
//! Layout: 5-bit exponent `e` (biased by 16), 11-bit mantissa `m`;
//! value = `(1 + m/2048) · 2^(e−16)` Gbit/s, with 0 encoded as all-zero.
//! Covers ~15 µbit/s … ~64 Tbit/s with ≤ 2⁻¹² ≈ 0.024% relative error —
//! two orders of magnitude below the 1% update threshold, so quantization
//! is never the accuracy bottleneck.

/// A rate quantized to 16 bits (unit: Gbit/s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rate16(u16);

const MANTISSA_BITS: u32 = 11;
const MANTISSA_MASK: u64 = (1 << MANTISSA_BITS) - 1;
const BIAS: i32 = 16;
/// Largest exponent field [`Rate16::encode`] produces.
const MAX_EXPONENT: i32 = 30;
/// `f64`: an 11-bit exponent field biased by 1023 over a 52-bit mantissa.
const F64_MANTISSA_BITS: u32 = 52;
const F64_BIAS: i32 = 1023;
/// Mantissa bits an `f64` has and a `Rate16` has not.
const DROPPED_BITS: u32 = F64_MANTISSA_BITS - MANTISSA_BITS;

impl Rate16 {
    /// Encodes a non-negative rate in Gbit/s, rounding to the nearest
    /// representable value and saturating at the format's limits.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn encode(gbps: f64) -> Self {
        assert!(gbps >= 0.0 && gbps.is_finite(), "rate must be ≥ 0, finite");
        if gbps == 0.0 {
            return Rate16(0);
        }
        // The code is the f64's own exponent and top mantissa bits, read
        // straight from its representation. Round half up on the highest
        // dropped bit: a carry out of the mantissa lands in the exponent
        // field, which is the next power of two with mantissa 0 it means.
        let kept = (gbps.to_bits() + (1 << (DROPPED_BITS - 1))) >> DROPPED_BITS;
        let exponent = (kept >> MANTISSA_BITS) as i32 - F64_BIAS + BIAS;
        if exponent < 0 {
            // Below 2⁻¹⁶ (subnormals included): flush to zero.
            return Rate16(0);
        }
        if exponent > MAX_EXPONENT {
            // Saturate at max.
            return Rate16(((MAX_EXPONENT as u16) << MANTISSA_BITS) | MANTISSA_MASK as u16);
        }
        Rate16(((exponent as u16) << MANTISSA_BITS) | (kept & MANTISSA_MASK) as u16)
    }

    /// Decodes back to Gbit/s.
    pub fn decode(self) -> f64 {
        if self.0 == 0 {
            return 0.0;
        }
        // Every code is a normal f64: re-bias the exponent and left-align
        // the mantissa.
        let exponent = (self.0 >> MANTISSA_BITS) as i32 - BIAS + F64_BIAS;
        let mantissa = self.0 as u64 & MANTISSA_MASK;
        f64::from_bits((exponent as u64) << F64_MANTISSA_BITS | mantissa << DROPPED_BITS)
    }

    /// Raw wire representation.
    pub fn bits(self) -> u16 {
        self.0
    }

    /// From raw wire representation.
    pub fn from_bits(bits: u16) -> Self {
        Rate16(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_roundtrips() {
        assert_eq!(Rate16::encode(0.0).decode(), 0.0);
    }

    #[test]
    fn relative_error_is_small() {
        for &gbps in &[0.001, 0.01, 0.1, 1.0, 9.37, 10.0, 40.0, 100.0, 1234.5] {
            let got = Rate16::encode(gbps).decode();
            let rel = (got - gbps).abs() / gbps;
            assert!(rel < 2.5e-4, "{gbps} → {got} ({rel})");
        }
    }

    #[test]
    fn wire_bits_roundtrip() {
        let r = Rate16::encode(7.25);
        assert_eq!(Rate16::from_bits(r.bits()), r);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let max = Rate16::encode(1e12);
        assert!(max.decode() > 1e4, "saturated high: {}", max.decode());
        let tiny = Rate16::encode(1e-12);
        assert_eq!(tiny.decode(), 0.0, "underflow flushes to zero");
    }

    #[test]
    fn rounding_carry_into_next_exponent() {
        // A value a hair below a power of two must round up cleanly.
        let v = 2.0 - 1e-9;
        let got = Rate16::encode(v).decode();
        assert!((got - 2.0).abs() < 1e-9, "{got}");
    }

    #[test]
    fn monotone_on_samples() {
        let mut prev = -1.0;
        for i in 1..1000 {
            let v = i as f64 * 0.123;
            let d = Rate16::encode(v).decode();
            assert!(d >= prev, "non-monotone at {v}");
            prev = d;
        }
    }

    /// The encoder this module had before it read the bits directly —
    /// `log2`, `powi` and `round` per call — kept as the model the bit
    /// version is compared against.
    fn libm_encode(gbps: f64) -> u16 {
        const DIV: f64 = (1u32 << MANTISSA_BITS) as f64;
        if gbps == 0.0 {
            return 0;
        }
        let e = (gbps.log2().floor() as i32).clamp(-BIAS, MAX_EXPONENT - BIAS);
        let m = ((gbps / 2f64.powi(e) - 1.0) * DIV).round();
        // Rounding can carry into the next exponent.
        let (e, m) = if m >= DIV { (e + 1, 0.0) } else { (e, m) };
        if e + BIAS > MAX_EXPONENT {
            return ((MAX_EXPONENT as u16) << MANTISSA_BITS) | MANTISSA_MASK as u16;
        }
        (((e + BIAS) as u16) << MANTISSA_BITS) | m as u16
    }

    fn libm_decode(code: u16) -> f64 {
        if code == 0 {
            return 0.0;
        }
        let e = (code >> MANTISSA_BITS) as i32 - BIAS;
        let m = (code & MANTISSA_MASK as u16) as f64;
        (1.0 + m / (1u32 << MANTISSA_BITS) as f64) * 2f64.powi(e)
    }

    #[test]
    fn every_code_decodes_like_the_model_and_reencodes_to_itself() {
        let saturated = Rate16::encode(f64::MAX);
        assert_eq!(saturated.bits() >> MANTISSA_BITS, MAX_EXPONENT as u16);
        for code in 0..=u16::MAX {
            let value = Rate16::from_bits(code).decode();
            assert_eq!(
                value.to_bits(),
                libm_decode(code).to_bits(),
                "code {code:#06x}"
            );
            // Exponent field 31 is decodable but never produced: those
            // codes re-encode to the saturation code.
            let want = if code >> MANTISSA_BITS > MAX_EXPONENT as u16 {
                saturated
            } else {
                Rate16::from_bits(code)
            };
            assert_eq!(Rate16::encode(value), want, "code {code:#06x} = {value}");
        }
    }

    #[test]
    fn encode_matches_the_libm_model() {
        let check = |v: f64| {
            assert_eq!(
                Rate16::encode(v).bits(),
                libm_encode(v),
                "{v:e} ({:#018x})",
                v.to_bits()
            );
        };
        // The edges: every power of two the format spans and its two
        // neighbours, the flush-to-zero and saturation boundaries, every
        // rounding boundary's neighbourhood around 1.0, subnormals, and
        // both ends of the finite range.
        for e in -20..=18 {
            let p = 2f64.powi(e);
            for bits in [p.to_bits() - 1, p.to_bits(), p.to_bits() + 1] {
                check(f64::from_bits(bits));
            }
        }
        for code in [0x0001u16, 0x07FF, 0x0800, 0xF7FE, 0xF7FF] {
            let exact = Rate16::from_bits(code).decode().to_bits();
            let half_step = 1u64 << (DROPPED_BITS - 1);
            for bits in [
                exact - half_step - 1,
                exact - half_step,
                exact - 1,
                exact,
                exact + 1,
            ]
            .into_iter()
            .chain([
                exact + half_step - 1,
                exact + half_step,
                exact + half_step + 1,
            ]) {
                check(f64::from_bits(bits));
            }
        }
        for v in [
            f64::MIN_POSITIVE,
            5e-324,
            1e-310,
            -0.0,
            65535.9,
            65536.0,
            f64::MAX,
        ] {
            check(v);
        }
        // Seeded sweep (SplitMix64): uniform bit patterns over the
        // format's whole exponent range and a little beyond each end, so
        // mantissas land on and around every rounding boundary.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..1_200_000 {
            let r = next();
            let exponent = (F64_BIAS - 20) as u64 + r % 40;
            let mut mantissa = next() >> (64 - F64_MANTISSA_BITS);
            if r >> 60 == 0 {
                // One in sixteen sits within three ulps of a rounding tie.
                let tie = mantissa >> DROPPED_BITS << DROPPED_BITS | 1 << (DROPPED_BITS - 1);
                mantissa = tie + (r >> 32) % 7 - 3;
            }
            check(f64::from_bits(exponent << F64_MANTISSA_BITS | mantissa));
        }
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn non_finite_rejected() {
        let _ = Rate16::encode(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn negative_rejected() {
        let _ = Rate16::encode(-1.0);
    }
}
