//! The workspace's two non-cryptographic hash primitives.
//!
//! * [`splitmix64`] — the standard 64-bit finalizer (Steele et al.),
//!   behind seeded randomness, fault plans, rendezvous placement, the
//!   positional slot digest and the extent content hash.
//! * FNV-1a — one-shot [`fnv1a`] and the streaming [`Fnv1a`] — behind
//!   name-hash tags, buffer checksums and container trailers.
//!
//! Every caller depends on these producing the same bits forever: the
//! outputs are persisted (tags on PMem, container trailers) or pinned
//! by seeded replays.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// splitmix64 — the standard 64-bit finalizer.
///
/// # Examples
///
/// ```
/// assert_eq!(portus_sim::hash::splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// ```
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over `bytes` in one shot.
///
/// # Examples
///
/// ```
/// assert_eq!(portus_sim::hash::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Streaming FNV-1a: feeding a byte sequence in any chunking yields
/// the same value as [`fnv1a`] over the concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the offset basis (the hash of no bytes).
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Folds `bytes` into the hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers from the reference splitmix64 generator (seed 0
    /// advanced by the golden gamma; the first two outputs).
    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6e78_9e6a_a1b9_65f4);
    }

    /// Known answers from the FNV reference test vectors (64-bit
    /// FNV-1a), one-shot and streamed in uneven chunks.
    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::new();
        for part in [&b"fo"[..], b"", b"oba", b"r"] {
            h.update(part);
        }
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        assert_eq!(Fnv1a::default().finish(), fnv1a(b""));
    }
}
