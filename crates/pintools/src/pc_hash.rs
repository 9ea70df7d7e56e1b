//! A fast hasher for maps keyed by instruction addresses.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fixed multiplicative hasher for PCs: the 128-bit product with an
/// odd constant, folded to 64 bits, so both the low bits (table index)
/// and the high bits (control tag) depend on every address bit. Keys of
/// several words fold one word at a time. Maps hashed with it must
/// never be iterated where the order could reach a report.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PcHasher(u64);

impl Hasher for PcHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`PcHasher`].
pub(crate) type PcMap<K, V> = HashMap<K, V, BuildHasherDefault<PcHasher>>;
