//! A fast hasher for integer keys: typed ids and DBU coordinates.
//!
//! `std`'s default SipHash resists hash flooding, which costs several
//! times more per key than the lookups themselves in the placement and
//! extraction kernels. Their keys are the program's own dense ids and
//! on-grid coordinates, never attacker-chosen input, so they hash with
//! this multiply–rotate mixer instead (the scheme of the Fx hasher).
//!
//! Use it only for maps that are looked up and never iterated: a
//! `HashMap`'s iteration order depends on its hasher, so swapping the
//! hasher of an iterated map would reorder whatever consumes it.
//!
//! # Examples
//!
//! ```
//! use macro3d_geom::idhash::IdHashMap;
//!
//! let mut m: IdHashMap<(u16, i64, i64), usize> = IdHashMap::default();
//! m.insert((2, 5_000, -15_000), 7);
//! assert_eq!(m.get(&(2, 5_000, -15_000)), Some(&7));
//! assert_eq!(m.get(&(2, 5_000, 15_000)), None);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–rotate hasher over machine words (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// Odd 64-bit multiplier (from the Fx hasher).
const K: u64 = 0x517c_c1b7_2722_0a95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    /// The last multiply leaves its best-mixed bits at the top; the
    /// rotation moves them into the low bits a hash table indexes by.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
}

/// `BuildHasher` for [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;
/// A `HashMap` keyed by integer ids or coordinates (lookup only; see
/// the module docs).
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;
/// A `HashSet` of integer ids or coordinates (membership only).
pub type IdHashSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        IdBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(
            hash_of(&(3u16, 10i64, 20i64)),
            hash_of(&(3u16, 10i64, 20i64))
        );
        let mut seen = std::collections::BTreeSet::new();
        for x in -20i64..20 {
            for y in -20i64..20 {
                assert!(seen.insert(hash_of(&(1u16, x * 10_000, y * 10_000))));
            }
        }
    }
}
