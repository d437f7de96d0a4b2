//! A hashed index that stores slots, not keys.
//!
//! The service's token index and an endpoint agent's flow-id index each
//! map a key to a slot of a slab whose row already holds that key (the
//! export key's token, the agent row's `flow`). A `HashMap<K, u32>`
//! stores the key a second time in every bucket — 9 and 17 bytes a
//! bucket for a `u32` and a `u64` key. [`SlotTable`] keeps std's
//! SwissTable layout (hashbrown's: power-of-two buckets, one control
//! byte a bucket holding EMPTY, DELETED or a 7-bit tag of the hash,
//! groups of [`GROUP`] control bytes probed as one `u64`, a 7/8 load
//! factor) but a bucket holds only the `u32` slot: 5 bytes a bucket.
//!
//! The caller owns the keys, so it owns the hashing too: every call
//! takes the key's hash (std's keyed `RandomState`, one SipHash an
//! operation) and an `is(slot)` closure that compares the key with the
//! row `slot` names; growth takes a `rehash(slot)` closure that hashes
//! the row's key again. The table is never iterated by its callers.
//!
//! A removal leaves EMPTY where no probe can have passed the bucket
//! (some EMPTY byte lies within a group of it on either side) and
//! DELETED otherwise, as hashbrown does. When the tombstones use up the
//! growth budget and fewer than half the capacity is live, the table
//! rehashes in place — the same buckets, no new allocation — so a plane
//! that swaps flowlets forever stops touching the heap once warm
//! (`crates/net/tests/zero_alloc.rs`).

use std::fmt;

/// Control bytes probed together, as one `u64`.
const GROUP: usize = 8;
/// A bucket that never held a slot since the last rehash: ends a probe.
const EMPTY: u8 = 0xFF;
/// A bucket whose slot was removed: a probe goes on past it.
const DELETED: u8 = 0x80;
/// The low and the high bit of every byte of a group. A full bucket's
/// control byte is its hash's tag, so its high bit is clear.
const LSB: u64 = 0x0101_0101_0101_0101;
const MSB: u64 = 0x8080_8080_8080_8080;

/// The bucket a probe for `hash` starts at, before masking.
#[inline]
fn h1(hash: u64) -> usize {
    hash as usize
}

/// The 7-bit tag a full bucket's control byte holds: the hash's top bits,
/// which [`h1`] uses only in tables of 2⁵⁷ buckets.
#[inline]
fn h2(hash: u64) -> u8 {
    (hash >> (64 - 7)) as u8
}

/// One bit (the high one) in every byte of `group` equal to `byte`. May
/// also flag a byte equal to `byte ^ 1` that follows a true hit: both
/// are tags, so the caller's `is` check sorts it out.
#[inline]
fn match_byte(group: u64, byte: u8) -> u64 {
    let cmp = group ^ (LSB * u64::from(byte));
    cmp.wrapping_sub(LSB) & !cmp & MSB
}

#[inline]
fn match_empty(group: u64) -> u64 {
    group & (group << 1) & MSB
}

#[inline]
fn match_empty_or_deleted(group: u64) -> u64 {
    group & MSB
}

/// The byte offset of a match mask's lowest hit.
#[inline]
fn lowest(mask: u64) -> usize {
    mask.trailing_zeros() as usize / GROUP
}

/// Buckets to hold `cap` slots at the 7/8 load factor: a power of two, at
/// least one group.
fn buckets_for(cap: usize) -> usize {
    if cap < GROUP {
        GROUP
    } else {
        (cap.checked_mul(8).expect("slot table capacity overflows") / 7).next_power_of_two()
    }
}

/// Slots a table of `buckets` may hold before it must grow or rehash.
fn capacity_of(buckets: usize) -> usize {
    if buckets <= GROUP {
        buckets.saturating_sub(1)
    } else {
        buckets / 8 * 7
    }
}

/// Key → slot, with the keys left in the caller's rows (module doc).
#[derive(Default)]
pub(crate) struct SlotTable {
    /// One control byte a bucket, then the first [`GROUP`] again, so a
    /// group load that starts in the last group reads on into the first
    /// without wrapping.
    ctrl: Vec<u8>,
    /// The slot each full bucket holds; the rest hold stale slots.
    slots: Vec<u32>,
    items: usize,
    /// Inserts into EMPTY buckets left before the table must grow or
    /// rehash: a tombstone keeps consuming the budget it took.
    growth_left: usize,
}

impl fmt::Debug for SlotTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotTable")
            .field("len", &self.items)
            .field("buckets", &self.slots.len())
            .finish()
    }
}

/// What [`SlotTable::entry`] found: the key's slot, or where it goes.
pub(crate) enum Entry<'a> {
    Occupied(u32),
    Vacant(VacantEntry<'a>),
}

/// A key [`SlotTable::entry`] did not find, with the bucket its probe
/// would insert it at.
pub(crate) struct VacantEntry<'a> {
    table: &'a mut SlotTable,
    hash: u64,
    /// The first EMPTY or DELETED bucket of the probe; unset in a table
    /// that has no buckets yet.
    bucket: Option<usize>,
}

impl SlotTable {
    /// Live slots.
    pub(crate) fn len(&self) -> usize {
        self.items
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    fn group(&self, at: usize) -> u64 {
        let bytes: [u8; GROUP] = self.ctrl[at..at + GROUP]
            .try_into()
            .expect("a group is GROUP control bytes");
        u64::from_le_bytes(bytes)
    }

    /// Writes bucket `i`'s control byte, and its copy past the end when
    /// `i` is in the first group.
    #[inline]
    fn set_ctrl(&mut self, i: usize, byte: u8) {
        let mirror = (i.wrapping_sub(GROUP) & self.mask()) + GROUP;
        self.ctrl[i] = byte;
        self.ctrl[mirror] = byte;
    }

    /// The slot of the key `hash` and `is` describe.
    // flowtune-lint: hot
    #[inline]
    pub(crate) fn get(&self, hash: u64, is: impl FnMut(u32) -> bool) -> Option<u32> {
        self.probe(hash, is).ok().map(|i| self.slots[i])
    }

    /// One probe that finds the key `hash` and `is` describe, or the
    /// bucket it would be inserted at — valid until the table changes,
    /// which the returned borrow prevents.
    // flowtune-lint: hot
    #[inline]
    pub(crate) fn entry(&mut self, hash: u64, is: impl FnMut(u32) -> bool) -> Entry<'_> {
        match self.probe(hash, is) {
            Ok(i) => Entry::Occupied(self.slots[i]),
            Err(bucket) => Entry::Vacant(VacantEntry {
                table: self,
                hash,
                bucket,
            }),
        }
    }

    /// Walks `hash`'s probe sequence to the key `is` accepts (`Ok`, its
    /// bucket) or to the first group with an EMPTY byte (`Err`, the
    /// first EMPTY or DELETED bucket on the way; `None` in a table with
    /// no buckets yet).
    // flowtune-lint: hot
    #[inline]
    fn probe(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Result<usize, Option<usize>> {
        if self.slots.is_empty() {
            return Err(None);
        }
        let mask = self.mask();
        let (mut pos, mut stride) = (h1(hash) & mask, 0);
        let mut bucket = None;
        loop {
            let group = self.group(pos);
            let mut hits = match_byte(group, h2(hash));
            while hits != 0 {
                let i = (pos + lowest(hits)) & mask;
                if is(self.slots[i]) {
                    return Ok(i);
                }
                hits &= hits - 1;
            }
            let free = match_empty_or_deleted(group);
            if bucket.is_none() && free != 0 {
                bucket = Some((pos + lowest(free)) & mask);
            }
            if match_empty(group) != 0 {
                return Err(bucket);
            }
            stride += GROUP;
            pos = (pos + stride) & mask;
        }
    }

    /// Removes the key `hash` and `is` describe; returns its slot.
    // flowtune-lint: hot
    #[inline]
    pub(crate) fn remove(&mut self, hash: u64, is: impl FnMut(u32) -> bool) -> Option<u32> {
        let i = self.probe(hash, is).ok()?;
        let mask = self.mask();
        let before = match_empty(self.group(i.wrapping_sub(GROUP) & mask));
        let after = match_empty(self.group(i));
        // Full or DELETED buckets on each side of `i`, up to a group: if
        // together they span a group, some probe may have read through
        // `i` without meeting an EMPTY, and must still go on past it.
        let run = before.leading_zeros() as usize / GROUP + after.trailing_zeros() as usize / GROUP;
        let byte = if run >= GROUP {
            DELETED
        } else {
            self.growth_left += 1;
            EMPTY
        };
        self.set_ctrl(i, byte);
        self.items -= 1;
        Some(self.slots[i])
    }

    /// The first EMPTY or DELETED bucket on `hash`'s probe sequence.
    fn insert_bucket(&self, hash: u64) -> usize {
        let mask = self.mask();
        let (mut pos, mut stride) = (h1(hash) & mask, 0);
        loop {
            let free = match_empty_or_deleted(self.group(pos));
            if free != 0 {
                return (pos + lowest(free)) & mask;
            }
            stride += GROUP;
            pos = (pos + stride) & mask;
        }
    }

    /// Makes room for one more slot: rehashes in place when fewer than
    /// half the capacity is live (the budget went to tombstones), else moves
    /// to buckets for at least one more slot than the capacity.
    #[cold]
    #[inline(never)]
    fn reserve_one(&mut self, mut rehash: impl FnMut(u32) -> u64) {
        let capacity = capacity_of(self.slots.len());
        if self.items < capacity / 2 {
            self.rehash_in_place(rehash);
            return;
        }
        let buckets = buckets_for(capacity + 1);
        let ctrl = std::mem::replace(&mut self.ctrl, vec![EMPTY; buckets + GROUP]);
        let slots = std::mem::replace(&mut self.slots, vec![0; buckets]);
        for (&byte, &slot) in ctrl.iter().zip(&slots) {
            if byte & 0x80 == 0 {
                let hash = rehash(slot);
                let i = self.insert_bucket(hash);
                self.set_ctrl(i, h2(hash));
                self.slots[i] = slot;
            }
        }
        self.growth_left = capacity_of(buckets) - self.items;
    }

    /// Clears every tombstone without leaving the buckets: full buckets
    /// are marked DELETED ("to place"), tombstones EMPTY, then each
    /// slot to place moves to the first free bucket of its own probe —
    /// or stays, if that bucket is in the same probe group as where it
    /// sits — swapping with a slot still to place where it lands on one.
    /// `rehash` may be a new hash function: every slot is placed again.
    pub(crate) fn rehash_in_place(&mut self, mut rehash: impl FnMut(u32) -> u64) {
        let (buckets, mask) = (self.slots.len(), self.mask());
        for at in (0..buckets).step_by(GROUP) {
            let full = !self.group(at) & MSB;
            let group = (!full).wrapping_add(full >> 7);
            self.ctrl[at..at + GROUP].copy_from_slice(&group.to_le_bytes());
        }
        self.ctrl.copy_within(0..GROUP, buckets);
        for i in 0..buckets {
            if self.ctrl[i] != DELETED {
                continue;
            }
            loop {
                let hash = rehash(self.slots[i]);
                let to = self.insert_bucket(hash);
                let start = h1(hash) & mask;
                let probe_group = |pos: usize| (pos.wrapping_sub(start) & mask) / GROUP;
                if probe_group(i) == probe_group(to) {
                    self.set_ctrl(i, h2(hash));
                    break;
                }
                let was = self.ctrl[to];
                self.set_ctrl(to, h2(hash));
                if was == EMPTY {
                    self.set_ctrl(i, EMPTY);
                    self.slots[to] = self.slots[i];
                    break;
                }
                // `to` held a slot still to place: it is `i`'s now.
                self.slots.swap(i, to);
            }
        }
        self.growth_left = capacity_of(buckets) - self.items;
    }
}

impl VacantEntry<'_> {
    /// Puts `slot` where the probe found room, first growing or clearing
    /// tombstones if the probe's bucket is EMPTY and the budget is spent;
    /// `rehash` hashes the key of any slot already in the table.
    // flowtune-lint: hot
    #[inline]
    pub(crate) fn insert(self, slot: u32, rehash: impl FnMut(u32) -> u64) {
        let Self {
            table,
            hash,
            bucket,
        } = self;
        let i = match bucket {
            Some(i) if table.growth_left > 0 || table.ctrl[i] == DELETED => i,
            _ => {
                table.reserve_one(rehash);
                table.insert_bucket(hash)
            }
        };
        if table.ctrl[i] == EMPTY {
            table.growth_left -= 1;
        }
        table.set_ctrl(i, h2(hash));
        table.slots[i] = slot;
        table.items += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::hash::BuildHasher;

    use proptest::prelude::*;

    use super::*;

    impl SlotTable {
        fn check(&self) {
            let buckets = self.slots.len();
            if buckets == 0 {
                assert_eq!((self.items, self.growth_left), (0, 0));
                return;
            }
            assert!(buckets.is_power_of_two() && buckets >= GROUP);
            assert_eq!(self.ctrl.len(), buckets + GROUP);
            assert_eq!(
                self.ctrl[..GROUP],
                self.ctrl[buckets..],
                "the mirrored group"
            );
            let full = self.ctrl[..buckets]
                .iter()
                .filter(|&&b| b & 0x80 == 0)
                .count();
            assert_eq!(full, self.items);
            assert_eq!(
                full + self.tombstones() + self.growth_left,
                capacity_of(buckets)
            );
            assert!(self.ctrl[..buckets].contains(&EMPTY), "a probe must end");
        }

        fn tombstones(&self) -> usize {
            let buckets = self.slots.len();
            self.ctrl[..buckets]
                .iter()
                .filter(|&&b| b == DELETED)
                .count()
        }
    }

    /// A slab of keys with the service's LIFO slot reuse, indexed by a
    /// [`SlotTable`] and mirrored by a `HashMap` model.
    struct Harness {
        table: SlotTable,
        rows: Vec<u64>,
        free: Vec<u32>,
        model: HashMap<u64, u32>,
        hash: fn(u64) -> u64,
    }

    impl Harness {
        fn new(hash: fn(u64) -> u64) -> Self {
            Harness {
                table: SlotTable::default(),
                rows: Vec::new(),
                free: Vec::new(),
                model: HashMap::new(),
                hash,
            }
        }

        fn get(&self, key: u64) -> Option<u32> {
            let rows = &self.rows;
            self.table
                .get((self.hash)(key), |s| rows[s as usize] == key)
        }

        fn insert(&mut self, key: u64) -> Option<u32> {
            let (rows, hash) = (&self.rows, self.hash);
            match self.table.entry(hash(key), |s| rows[s as usize] == key) {
                Entry::Occupied(slot) => Some(slot),
                Entry::Vacant(vacant) => {
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.rows[slot as usize] = key;
                            slot
                        }
                        None => {
                            self.rows.push(key);
                            (self.rows.len() - 1) as u32
                        }
                    };
                    let rows = &self.rows;
                    vacant.insert(slot, |s| hash(rows[s as usize]));
                    self.model.insert(key, slot);
                    None
                }
            }
        }

        fn remove(&mut self, key: u64) -> Option<u32> {
            let rows = &self.rows;
            let slot = self
                .table
                .remove((self.hash)(key), |s| rows[s as usize] == key);
            if let Some(slot) = slot {
                self.free.push(slot);
                self.model.remove(&key);
            }
            slot
        }

        /// One operation against the model, then the table's invariants.
        fn step(&mut self, op: u8, key: u64) {
            match op {
                0 => assert_eq!(self.get(key), self.model.get(&key).copied(), "get {key}"),
                1 => {
                    let had = self.model.get(&key).copied();
                    assert_eq!(self.insert(key), had, "insert {key}");
                }
                _ => {
                    let had = self.model.get(&key).copied();
                    assert_eq!(self.remove(key), had, "remove {key}");
                }
            }
            assert_eq!(self.table.len(), self.model.len());
            self.table.check();
        }

        fn agrees(&self) {
            for (&key, &slot) in &self.model {
                assert_eq!(self.get(key), Some(slot), "key {key}");
            }
        }
    }

    fn sip(key: u64) -> u64 {
        thread_local!(static STATE: std::collections::hash_map::RandomState = Default::default());
        STATE.with(|s| s.hash_one(key))
    }

    /// Every probe starts in the last group and reads on into the first;
    /// tags from the key's low bits.
    fn last_bucket(key: u64) -> u64 {
        (key << (64 - 7)) | (u64::MAX >> 7)
    }

    /// Consecutive keys in consecutive buckets, all with tag 0.
    fn identity(key: u64) -> u64 {
        key
    }

    /// One bucket and one tag for every key: `is` decides every probe.
    fn constant(_: u64) -> u64 {
        0x1234_5678
    }

    const HASHES: [fn(u64) -> u64; 4] = [sip, last_bucket, identity, constant];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Random get / insert / remove against the model over key ranges
        // from a handful (constant reuse, removals of absent keys) to
        // enough to grow from empty through several doublings.
        #[test]
        fn matches_a_hashmap_model(
            hash in 0usize..4,
            keys in prop_oneof![Just(3u64), Just(16), Just(300), Just(4000)],
            ops in proptest::collection::vec((0u8..3, any::<u64>()), 0..2000),
        ) {
            let mut h = Harness::new(HASHES[hash]);
            for (op, key) in ops {
                h.step(op, key % keys);
            }
            h.agrees();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Tombstone-heavy churn: a standing set, then many swaps of a
        // live key for a fresh one, with stray removals and lookups.
        #[test]
        fn survives_swap_churn(
            hash in 0usize..4,
            live in 1u64..200,
            swaps in 100u64..2000,
            seed in any::<u64>(),
        ) {
            let mut h = Harness::new(HASHES[hash]);
            let mut keys: Vec<u64> = (0..live).collect();
            for &key in &keys {
                h.step(1, key);
            }
            let mut rng = seed | 1;
            for next in live..live + swaps {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let at = (rng % live) as usize;
                let old = std::mem::replace(&mut keys[at], next);
                h.step(2, old);
                h.step(2, old);
                h.step(1, next);
                h.step(0, old);
            }
            h.agrees();
        }
    }

    #[test]
    fn swaps_rehash_tombstones_in_place() {
        let mut h = Harness::new(sip);
        for key in 0..40 {
            h.insert(key);
        }
        // Warm-up: 40 live of a 64-bucket table's 56 is more than half,
        // so the first tombstones to spend the budget grow it once, as
        // std's map does; from then on the table only rehashes in place.
        let swap = |h: &mut Harness, key: u64| {
            h.remove(key - 40);
            h.insert(key);
        };
        for key in 40..1_000 {
            swap(&mut h, key);
        }
        let (ctrl, slots) = (h.table.ctrl.as_ptr(), h.table.slots.as_ptr());
        let buckets = h.table.slots.len();
        let (mut most, mut cleared) = (0, 0);
        for key in 1_000..20_000 {
            swap(&mut h, key);
            let tombstones = h.table.tombstones();
            cleared += usize::from(tombstones < most);
            most = if tombstones < most { 0 } else { tombstones };
        }
        h.table.check();
        h.agrees();
        assert!(
            cleared > 1,
            "the churn must leave tombstones and clear them"
        );
        assert_eq!(
            h.table.slots.len(),
            buckets,
            "a warm table never grows on swaps"
        );
        assert_eq!(
            (h.table.ctrl.as_ptr(), h.table.slots.as_ptr()),
            (ctrl, slots)
        );
    }

    /// The key's low byte is its home bucket, the rest its tag.
    fn homed(key: u64) -> u64 {
        (key >> 8) << (64 - 7) | key & 0xFF
    }

    #[test]
    fn a_rehash_in_place_moves_slots_past_cleared_tombstones() {
        let mut h = Harness::new(homed);
        // Buckets 0..48 of 64 at their homes, and one more key homed at
        // 0 whose probe passes three full groups to the first free bucket.
        for home in 0..48 {
            h.insert(home);
        }
        let far = 1 << 8;
        h.insert(far);
        assert_eq!(h.table.slots.len(), 64);
        // Removals inside the run leave tombstones: probes read through.
        for home in 0..40 {
            h.remove(home);
        }
        assert_eq!(h.table.tombstones(), 40);
        // Fresh homes spend what is left of the budget; the last insert
        // finds none, and 16 live of 56 rehash in place. The tombstones
        // between `far` and its home become EMPTY, so `far` must move.
        for home in 56..64 {
            h.insert(home);
        }
        h.table.check();
        assert_eq!((h.table.slots.len(), h.table.tombstones()), (64, 0));
        h.agrees();
    }

    #[test]
    fn a_rehash_in_place_swaps_with_a_slot_still_to_place() {
        let mut h = Harness::new(homed);
        // A run at homes 8..48, and one across the wrap: homes 60..64 and
        // 0..4. One more key homed at 60 finds that group full and
        // lands in the next, at bucket 4.
        for home in (8..48).chain(60..64).chain(0..4) {
            h.insert(home);
        }
        let wrapped = 1 << 8 | 60;
        h.insert(wrapped);
        assert_eq!(h.table.slots.len(), 64);
        for home in 8..44 {
            h.remove(home);
        }
        // The rehash reaches bucket 4 before 60: `wrapped`'s first free
        // bucket is 60, whose own slot is still to place, so the two
        // trade buckets and the displaced one is placed next.
        for home in 50..58 {
            h.insert(home);
        }
        h.table.check();
        assert_eq!((h.table.slots.len(), h.table.tombstones()), (64, 0));
        h.agrees();
    }

    #[test]
    fn buckets_cost_five_bytes() {
        let mut h = Harness::new(sip);
        for key in 0..100_000 {
            h.insert(key);
        }
        let buckets = h.table.slots.len();
        assert_eq!(buckets, 131_072);
        assert_eq!(
            h.table.ctrl.capacity() + 4 * h.table.slots.capacity(),
            5 * buckets + GROUP
        );
    }
}
