//! Stable 64-bit FNV-1a hashing, shared by workload fingerprints and
//! the evaluation cache's keys.
//!
//! Unlike `std`'s default `RandomState`, this hash is fixed across
//! processes and runs, so values derived from it (cache keys, persisted
//! fingerprints) stay valid over time. One shared implementation keeps
//! the constants from drifting between call sites.

/// 64-bit FNV-1a streaming hasher.
///
/// ```
/// use std::hash::Hasher;
/// let mut h = omniboost_hw::Fnv1a::default();
/// h.write(b"alexnet");
/// assert_eq!(h.finish(), {
///     let mut again = omniboost_hw::Fnv1a::default();
///     again.write(b"alexnet");
///     again.finish()
/// });
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

/// FNV-64 offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-64 prime (2^40 + 2^8 + 0xb3).
const PRIME: u64 = 0x100_0000_01b3;

impl Default for Fnv1a {
    fn default() -> Self {
        Self(OFFSET)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let cases: [(&[u8], u64); 3] = [
            (b"", 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x85944171f73967e8),
        ];
        for (input, want) in cases {
            let mut h = Fnv1a::default();
            h.write(input);
            assert_eq!(h.finish(), want, "input {input:?}");
        }
    }

    #[test]
    fn chunked_writes_equal_one_write() {
        let mut a = Fnv1a::default();
        a.write(b"hello world");
        let mut b = Fnv1a::default();
        b.write(b"hello ");
        b.write(b"world");
        assert_eq!(a.finish(), b.finish());
    }
}
