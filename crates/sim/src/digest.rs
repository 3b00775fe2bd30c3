//! Tiny content-digest helper for golden-output drift detection.
//!
//! The benchmark and golden tests need a stable, dependency-free way to
//! fingerprint a report blob so that "output changed" is distinguishable
//! from "timing changed". FNV-1a over the raw bytes is plenty: it is
//! deterministic across platforms, trivially reimplementable from the
//! recorded constants, and collisions are irrelevant for drift detection.

/// 64-bit FNV-1a hash of `bytes`.
///
/// Uses the standard offset basis `0xcbf29ce484222325` and prime
/// `0x100000001b3`, so digests recorded in fixtures can be re-derived by
/// any FNV-1a implementation.
///
/// # Examples
///
/// ```
/// // Empty input hashes to the offset basis.
/// assert_eq!(tb_sim::digest::fnv1a64(b""), 0xcbf29ce484222325);
/// assert_eq!(tb_sim::digest::fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// [`fnv1a64`] rendered as the 16-char lowercase hex string used in the
/// committed golden fixtures.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_is_zero_padded() {
        assert_eq!(fnv1a64_hex(b"").len(), 16);
        assert_eq!(fnv1a64_hex(b""), "cbf29ce484222325");
    }
}
