//! How a per-flowlet table grows: once it holds [`CHUNK`] entries, by a
//! quarter of its length (at least `CHUNK` slots) instead of `Vec`'s
//! doubling.
//!
//! A table that doubles holds up to twice the flows it has: 8192 slots
//! for the ≈ 6 250 flows of one `quiet100k` FlowBlock. Grown by a
//! quarter, a table of `n` entries never holds more than
//! `⌈5n/4⌉ + CHUNK` slots, and a push still costs amortized O(1) — a
//! copy of every entry once every `n/4` pushes. Every `Vec` that holds
//! one entry per flowlet (the FlowBlock columns, the engine's dense
//! index, the service's flow table and passers, the endpoint agent's
//! slab and token index) grows through [`reserve`].
//!
//! Below [`CHUNK`] entries a table still doubles, from `Vec`'s own
//! minimum: its slack is then under `CHUNK` slots anyway, and a plane
//! has many small tables — one per endpoint agent, one per FlowBlock —
//! that a `CHUNK`-slot first step would each inflate to `CHUNK` slots.

/// The table length from which growth is by a quarter, and the least a
/// step then adds: the copy stays amortized for tables not yet large.
pub const CHUNK: usize = 64;

/// Makes room for `additional` more entries in `table`: when they do not
/// fit its capacity, it grows by `max(additional, len / 4, CHUNK)`, or
/// as `Vec` grows while it holds fewer than [`CHUNK`].
// flowtune-lint: hot
#[inline]
pub fn reserve<T>(table: &mut Vec<T>, additional: usize) {
    if table.capacity() - table.len() < additional {
        grow(table, additional);
    }
}

/// The growth itself, out of line: the common case is the capacity check.
#[cold]
#[inline(never)]
fn grow<T>(table: &mut Vec<T>, additional: usize) {
    if table.len() < CHUNK {
        table.reserve(additional);
    } else {
        table.reserve_exact(additional.max(table.len() / 4).max(CHUNK));
    }
}

/// The capacity bound [`reserve`] keeps for a table grown one entry at a
/// time to `n` entries: `⌈5n/4⌉ + CHUNK`.
pub fn bound(n: usize) -> usize {
    (5 * n).div_ceil(4) + CHUNK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_push_at_a_time_stays_within_a_quarter_and_a_chunk() {
        let mut table: Vec<u64> = Vec::new();
        let mut grown = 0;
        for n in 1..=100_000 {
            let before = table.capacity();
            reserve(&mut table, 1);
            table.push(n as u64);
            grown += usize::from(table.capacity() != before);
            assert!(
                table.capacity() <= bound(n),
                "{} slots for {n}",
                table.capacity()
            );
        }
        // Amortized: about log(n / CHUNK) / log(5/4) growths, not n.
        assert!(grown < 40, "{grown} growths");
    }

    #[test]
    fn a_small_table_doubles_as_a_vec_does() {
        let (mut table, mut plain) = (Vec::<u32>::new(), Vec::<u32>::new());
        for n in 0..CHUNK as u32 {
            reserve(&mut table, 1);
            table.push(n);
            plain.push(n);
            assert_eq!(table.capacity(), plain.capacity(), "at {n}");
        }
    }

    #[test]
    fn a_batch_larger_than_the_step_gets_exactly_its_room() {
        let mut table: Vec<u8> = Vec::new();
        reserve(&mut table, 1000);
        assert_eq!(table.capacity(), 1000);
        table.resize(1000, 0);
        reserve(&mut table, 1);
        assert_eq!(table.capacity(), 1250, "a quarter of 1000");
    }
}
