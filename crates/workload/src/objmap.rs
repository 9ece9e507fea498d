//! A sparse, deterministic hash map keyed by [`ObjId`].
//!
//! The paper's experiments stop at `db_size = 10_000`, where dense
//! per-object vectors are fine. At `db_size = 10^8` a dense table costs
//! gigabytes while a run touches only the objects its transactions
//! actually access, so the lock manager and the optimistic validator key
//! their per-object state off this map instead.
//!
//! Design constraints, in order:
//!
//! * **Determinism.** No random hash state: the hash is a fixed Fibonacci
//!   multiply, so identical call sequences produce identical layouts and
//!   identical iteration order on every run. (Callers still must not let
//!   iteration order influence simulation behaviour; in this workspace it
//!   is only used for order-insensitive consistency checks and pruning.)
//! * **Compactness.** Open addressing with linear probing in two parallel
//!   arrays (keys, values) — no per-entry boxes, no chaining pointers.
//!   Keys are stored as 4-byte ids, so a lock-index slot (`u32` key, `u32`
//!   entry slot) costs 8 bytes.
//! * **No tombstones.** Removal backward-shifts the following probe
//!   cluster, so long-running simulations that acquire and release locks
//!   millions of times never degrade into tombstone scans.
//! * **Probe cost.** The hash shift is cached in a field (updated only on
//!   grow) rather than recomputed from the capacity on every probe, and
//!   [`ObjMap::prefetch`] lets callers that know the *next* key they will
//!   probe pull its home cache line in ahead of time. Both are invisible to
//!   behaviour: the hash function and probe order are unchanged, so layouts
//!   and iteration order stay byte-identical with or without prefetching.
//!
//! **Key domain.** A key is an object id below `u32::MAX` (2^32 − 1); the
//! value `u32::MAX` is reserved as the empty-slot sentinel.
//! `Params::validate` bounds `db_size` by 2^32 − 1, so every id a validated
//! run draws lies in the domain. [`ObjMap::insert`] panics on an id outside
//! it; the lookups ([`ObjMap::get`], [`ObjMap::get_mut`],
//! [`ObjMap::contains`], [`ObjMap::remove`]) report it absent, and
//! [`ObjMap::prefetch`] ignores it. The hash widens the stored key back to
//! 64 bits before the multiply, so home slots, probe order and iteration
//! order are those of a map keyed by the full `u64`.

use crate::types::ObjId;

/// The empty-slot sentinel, and the first id outside the key domain.
const EMPTY: u32 = u32::MAX;
/// 2^64 / φ, the usual Fibonacci-hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
const MIN_CAP: usize = 8;

/// Open-addressed `ObjId → V` map with backward-shift deletion.
///
/// `V` is constrained to `Copy + Default` so empty slots can hold a real
/// (ignored) value — every payload in this workspace is a small index or
/// timestamp, so the constraint costs nothing and keeps all slot accesses
/// safe code.
#[derive(Debug, Clone)]
pub struct ObjMap<V> {
    /// Slot keys as 4-byte ids; `EMPTY` marks a vacant slot. Length is a
    /// power of two.
    keys: Vec<u32>,
    /// Slot values, parallel to `keys` (default-filled where vacant).
    vals: Vec<V>,
    /// Number of occupied slots.
    len: usize,
    /// Cached hash shift: `64 - log2(capacity)`. Kept in sync with
    /// `keys.len()` by `with_capacity` and `grow` so `home()` needs no
    /// `trailing_zeros` on the hot probe path.
    shift: u32,
}

impl<V: Copy + Default> Default for ObjMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> ObjMap<V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty map pre-sized to hold `n` entries without rehashing.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let cap = Self::cap_for(n);
        ObjMap {
            keys: vec![EMPTY; cap],
            vals: vec![V::default(); cap],
            len: 0,
            shift: Self::shift_for(cap),
        }
    }

    /// Hash shift for a power-of-two capacity.
    fn shift_for(cap: usize) -> u32 {
        64 - cap.trailing_zeros()
    }

    /// Smallest power-of-two capacity that keeps `n` entries under the
    /// 3/4 load-factor ceiling.
    fn cap_for(n: usize) -> usize {
        let mut cap = MIN_CAP;
        while n * 4 >= cap * 3 {
            cap *= 2;
        }
        cap
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots currently allocated.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Home slot of `key`: the top bits of a Fibonacci multiply of the
    /// widened key, mapped onto the power-of-two table.
    #[inline]
    fn home(&self, key: u32) -> usize {
        debug_assert_eq!(self.shift, Self::shift_for(self.keys.len()));
        (u64::from(key).wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The stored form of `key`, or `None` if it lies outside the key
    /// domain (at or above the sentinel).
    #[inline]
    fn key_of(key: ObjId) -> Option<u32> {
        u32::try_from(key.0).ok().filter(|&k| k != EMPTY)
    }

    /// Hint the CPU to pull `key`'s home slot into cache ahead of an
    /// upcoming `get`/`insert`/`remove` for the same key.
    ///
    /// Purely a performance hint ([`ccsim_des::prefetch`], a no-op off
    /// x86_64): it writes nothing and has no effect on layout, probe order,
    /// or any observable behaviour. A key outside the key domain is
    /// ignored.
    #[inline]
    pub fn prefetch(&self, key: ObjId) {
        if let Some(key) = Self::key_of(key) {
            let i = self.home(key);
            ccsim_des::prefetch(&self.keys[i]);
            ccsim_des::prefetch(&self.vals[i]);
        }
    }

    /// Find the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: ObjId) -> Option<usize> {
        let key = Self::key_of(key)?;
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Look up `key`, copying out the value.
    #[inline]
    #[must_use]
    pub fn get(&self, key: ObjId) -> Option<V> {
        self.find(key).map(|i| self.vals[i])
    }

    /// Look up `key`, returning a mutable reference to the value.
    #[inline]
    pub fn get_mut(&mut self, key: ObjId) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.vals[i])
    }

    /// True if `key` is present.
    #[inline]
    #[must_use]
    pub fn contains(&self, key: ObjId) -> bool {
        self.find(key).is_some()
    }

    /// Insert or overwrite `key`, returning the previous value if any.
    ///
    /// # Panics
    /// Panics if `key` lies outside the key domain: ids at or above
    /// `u32::MAX`, the reserved sentinel.
    pub fn insert(&mut self, key: ObjId, val: V) -> Option<V> {
        let Some(key) = Self::key_of(key) else {
            panic!("{key} is outside the key domain: ids must lie below u32::MAX (reserved)");
        };
        if (self.len + 1) * 4 >= self.capacity() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(std::mem::replace(&mut self.vals[i], val));
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&mut self, key: ObjId) -> Option<V> {
        let i = self.find(key)?;
        let val = self.vals[i];
        self.shift_out(i);
        self.len -= 1;
        Some(val)
    }

    /// Vacate slot `i` by backward-shifting the probe cluster after it,
    /// so lookups never need tombstones.
    fn shift_out(&mut self, mut i: usize) {
        let mask = self.mask();
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let kj = self.keys[j];
            if kj == EMPTY {
                break;
            }
            // Element at `j` may fill the hole at `i` only if its probe
            // path passes through `i` (cyclic distance from its home slot
            // to `j` covers the distance from `i` to `j`).
            let from_home = j.wrapping_sub(self.home(kj)) & mask;
            let from_hole = j.wrapping_sub(i) & mask;
            if from_home >= from_hole {
                self.keys[i] = kj;
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
        self.keys[i] = EMPTY;
        self.vals[i] = V::default();
    }

    fn grow(&mut self) {
        let new_cap = (self.capacity() * 2).max(MIN_CAP);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_cap]);
        self.shift = Self::shift_for(new_cap);
        let mask = self.mask();
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == EMPTY {
                continue;
            }
            let mut i = self.home(k);
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }

    /// Iterate over `(key, value)` pairs in slot order.
    ///
    /// The order is deterministic (it depends only on the call history)
    /// but otherwise meaningless; use it only where order cannot matter.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, V)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (ObjId::from(k), v))
    }

    /// Keep only the entries for which `f` returns true.
    ///
    /// Implemented as collect-then-remove: a naive in-place slot scan can
    /// skip entries when a backward shift pulls an unvisited element into
    /// an already-visited slot across the array wrap.
    pub fn retain(&mut self, mut f: impl FnMut(ObjId, V) -> bool) {
        let doomed: Vec<ObjId> = self
            .iter()
            .filter(|&(k, v)| !f(k, v))
            .map(|(k, _)| k)
            .collect();
        for k in doomed {
            self.remove(k);
        }
    }

    /// Drop all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.vals.fill(V::default());
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: ObjMap<u32> = ObjMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(ObjId(42), 7), None);
        assert_eq!(m.insert(ObjId(42), 8), Some(7));
        assert_eq!(m.get(ObjId(42)), Some(8));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(ObjId(42)), Some(8));
        assert_eq!(m.remove(ObjId(42)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m: ObjMap<u64> = ObjMap::new();
        m.insert(ObjId(3), 10);
        *m.get_mut(ObjId(3)).unwrap() += 5;
        assert_eq!(m.get(ObjId(3)), Some(15));
        assert!(m.get_mut(ObjId(4)).is_none());
    }

    #[test]
    fn grows_past_load_factor() {
        let mut m: ObjMap<usize> = ObjMap::with_capacity(4);
        for i in 0..1000 {
            m.insert(ObjId(i * 1_000_003), i as usize);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.get(ObjId(i * 1_000_003)), Some(i as usize));
        }
    }

    #[test]
    fn sparse_huge_keys_stay_compact() {
        // Keys near the top of a 10^8-object database must not allocate
        // proportional to the key value.
        let mut m: ObjMap<u32> = ObjMap::new();
        for i in 0..100u64 {
            m.insert(ObjId(99_999_999 - i), i as u32);
        }
        assert_eq!(m.len(), 100);
        assert!(m.capacity() <= 256, "capacity {}", m.capacity());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_key_rejected() {
        let mut m: ObjMap<u32> = ObjMap::new();
        m.insert(ObjId(u64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "below u32::MAX")]
    fn insert_past_the_key_domain_panics_naming_the_bound() {
        let mut m: ObjMap<u32> = ObjMap::new();
        m.insert(ObjId(1 << 32), 0);
    }

    #[test]
    fn lookups_past_the_key_domain_find_nothing() {
        let mut m: ObjMap<u32> = ObjMap::new();
        // A truncating conversion would alias `1 << 32` with `ObjId(0)` and
        // `u64::MAX` with the sentinel; the highest legal key sits next to
        // the sentinel.
        m.insert(ObjId(0), 1);
        m.insert(ObjId(u64::from(u32::MAX) - 1), 2);
        for key in [ObjId(1 << 32), ObjId(u64::from(u32::MAX)), ObjId(u64::MAX)] {
            m.prefetch(key);
            assert_eq!(m.get(key), None, "{key}");
            assert!(m.get_mut(key).is_none(), "{key}");
            assert!(!m.contains(key), "{key}");
            assert_eq!(m.remove(key), None, "{key}");
        }
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(ObjId(0)), Some(1));
        assert_eq!(m.get(ObjId(u64::from(u32::MAX) - 1)), Some(2));
    }

    #[test]
    fn key_slots_are_4_bytes() {
        let m: ObjMap<u32> = ObjMap::with_capacity(100);
        assert_eq!(
            std::mem::size_of_val(m.keys.as_slice()),
            4 * m.capacity(),
            "a key slot is a 4-byte id"
        );
    }

    #[test]
    fn backward_shift_preserves_probe_clusters() {
        // Exercise removal inside long collision clusters: interleave
        // inserts and removes, then verify every survivor is findable.
        let mut m: ObjMap<u64> = ObjMap::with_capacity(16);
        let keys: Vec<u64> = (0..200).map(|i| i * 7 + 1).collect();
        for &k in &keys {
            m.insert(ObjId(k), k * 2);
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(m.remove(ObjId(k)), Some(k * 2));
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(m.get(ObjId(k)), None);
            } else {
                assert_eq!(m.get(ObjId(k)), Some(k * 2), "lost key {k}");
            }
        }
    }

    #[test]
    fn matches_std_hashmap_on_mixed_workload() {
        use std::collections::HashMap;
        // Deterministic pseudo-random workload cross-checked against the
        // standard library map.
        let mut m: ObjMap<u64> = ObjMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x12345u64;
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 512; // small key space forces collisions
            match step % 3 {
                0 | 1 => {
                    assert_eq!(m.insert(ObjId(key), step), reference.insert(key, step));
                }
                _ => {
                    assert_eq!(m.remove(ObjId(key)), reference.remove(&key));
                }
            }
        }
        assert_eq!(m.len(), reference.len());
        for (&k, &v) in &reference {
            assert_eq!(m.get(ObjId(k)), Some(v));
        }
        let mut seen: Vec<(u64, u64)> = m.iter().map(|(k, v)| (k.0, v)).collect();
        seen.sort_unstable();
        let mut expect: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn retain_is_exact_under_wraparound() {
        let mut m: ObjMap<u64> = ObjMap::with_capacity(8);
        for i in 0..64u64 {
            m.insert(ObjId(i), i);
        }
        m.retain(|_, v| v % 2 == 0);
        assert_eq!(m.len(), 32);
        for i in 0..64u64 {
            assert_eq!(m.get(ObjId(i)), (i % 2 == 0).then_some(i));
        }
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut m: ObjMap<u8> = ObjMap::new();
        for i in 0..100 {
            m.insert(ObjId(i), 1);
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        assert_eq!(m.get(ObjId(5)), None);
        m.insert(ObjId(5), 2);
        assert_eq!(m.get(ObjId(5)), Some(2));
    }

    #[test]
    fn cached_shift_tracks_capacity_across_growth() {
        let mut m: ObjMap<u64> = ObjMap::new();
        for i in 0..5_000u64 {
            // Prefetching before the probe must never change behaviour.
            m.prefetch(ObjId(i * 17));
            m.insert(ObjId(i * 17), i);
            assert_eq!(m.shift, ObjMap::<u64>::shift_for(m.capacity()));
        }
        for i in 0..5_000u64 {
            m.prefetch(ObjId(i * 17));
            assert_eq!(m.get(ObjId(i * 17)), Some(i));
        }
        // Prefetch of absent keys (and keys past any cluster) is a no-op.
        m.prefetch(ObjId(u64::MAX - 1));
        assert_eq!(m.get(ObjId(u64::MAX - 1)), None);
    }

    #[test]
    fn iteration_is_deterministic() {
        let build = || {
            let mut m: ObjMap<u64> = ObjMap::new();
            for i in 0..500u64 {
                m.insert(ObjId(i * 31), i);
            }
            for i in (0..500u64).step_by(4) {
                m.remove(ObjId(i * 31));
            }
            m.iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
