//! The Figure-3 aggregation schedule, and the one place the two
//! LinkBlock directions differ.
//!
//! Workers form a B×B grid (worker `(i, j)` owns FlowBlock src-block `i` →
//! dst-block `j`). Upward LinkBlock `i` is aggregated *along row i* onto
//! the main-diagonal worker `(i, i)`; downward LinkBlock `j` is aggregated
//! *along column j* onto the secondary-diagonal worker `(B−1−j, j)`. Both
//! use a binomial tree over the worker's *virtual index* `k` — its distance
//! from the diagonal along the row/column — so the whole grid finishes in
//! `log₂ B` steps: "n² processors require only log₂ n steps rather than
//! log₂ n²" (§5).
//!
//! That row-or-column, which-diagonal choice is all that tells the
//! directions apart, and [`member`] / [`position`] are where it is made.
//! Everything per direction elsewhere is a two-element array indexed by a
//! [`Dir`], and every LinkBlock phase is one loop over [`DIRS`].
//!
//! Figure 3 also runs the tree in reverse to distribute fresh prices
//! back to every worker. On shared memory the workers read the one copy
//! the price update wrote instead, so there is no distribution schedule.

/// A LinkBlock direction, as the index of its half in every
/// per-direction pair: [`UP`] or [`DOWN`].
pub(crate) type Dir = usize;

/// The upward LinkBlocks: block `i`'s links are summed along grid row `i`.
pub(crate) const UP: Dir = 0;

/// The downward LinkBlocks: block `j`'s links are summed along column `j`.
pub(crate) const DOWN: Dir = 1;

/// Both directions, in the order every LinkBlock phase walks them.
pub(crate) const DIRS: [Dir; 2] = [UP, DOWN];

/// What a worker does for one LinkBlock in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Absorb the partial state of worker `from`.
    Recv {
        /// Flat index (`i·B + j`) of the peer.
        from: usize,
    },
    /// This worker's buffer is consumed by `to`; it does nothing.
    Peer {
        /// Flat index of the peer that acts on this worker's buffer.
        to: usize,
    },
    /// Not involved in this step.
    Idle,
}

/// Number of tree steps for a B×B grid (`log₂ B`); B must be a power of
/// two.
pub(crate) fn steps(blocks: usize) -> usize {
    debug_assert!(blocks.is_power_of_two());
    blocks.trailing_zeros() as usize
}

/// Flat index of the worker at virtual index `k` of LinkBlock `(d, blk)`:
/// up-LinkBlock `blk` is row `blk` counted from the main diagonal,
/// down-LinkBlock `blk` is column `blk` counted from the secondary one.
/// B is a power of two, so "mod B" is a mask.
pub(crate) fn member(d: Dir, blk: usize, k: usize, b: usize) -> usize {
    if d == UP {
        blk * b + ((blk + k) & (b - 1))
    } else {
        ((b - 1 - blk + k) & (b - 1)) * b + blk
    }
}

/// The LinkBlock `(d, blk)`'s members, in virtual-index order.
#[cfg(test)]
pub(crate) fn members(d: Dir, blk: usize, b: usize) -> impl Iterator<Item = usize> {
    (0..b).map(move |k| member(d, blk, k, b))
}

/// The worker that ends up owning LinkBlock `(d, blk)`: its member at
/// virtual index 0, on the main (up) or secondary (down) diagonal.
pub(crate) fn root(d: Dir, blk: usize, b: usize) -> usize {
    member(d, blk, 0, b)
}

/// Which direction-`d` LinkBlock worker `w` reads, and its virtual index
/// in it — the inverse of [`member`].
pub(crate) fn position(d: Dir, w: usize, b: usize) -> (usize, usize) {
    let (i, j) = (w / b, w % b);
    if d == UP {
        (i, (j + b - i) & (b - 1))
    } else {
        (j, (i + j + 1) & (b - 1))
    }
}

/// Binomial-tree role of virtual index `k` at aggregation step `s`.
fn tree_role(k: usize, s: usize) -> TreeRole {
    let span = 1usize << (s + 1);
    let half = 1usize << s;
    if k.is_multiple_of(span) {
        TreeRole::Root
    } else if k % span == half {
        TreeRole::Leaf
    } else {
        TreeRole::Out
    }
}

enum TreeRole {
    Root,
    Leaf,
    Out,
}

/// Aggregation role of worker `w` for its direction-`d` LinkBlock at step
/// `s`.
pub(crate) fn aggregate(d: Dir, w: usize, b: usize, s: usize) -> Role {
    let (blk, k) = position(d, w, b);
    match tree_role(k, s) {
        TreeRole::Root => Role::Recv {
            from: member(d, blk, k + (1 << s), b),
        },
        TreeRole::Leaf => Role::Peer {
            to: member(d, blk, k - (1 << s), b),
        },
        TreeRole::Out => Role::Idle,
    }
}

/// Reduces `partials[k]` (indexed by virtual index) with the exact
/// pairwise order of the parallel tree; the result lands in
/// `partials[0]`. Used by the serial engine so serial and parallel sums
/// are bit-for-bit identical. `absorb(receiver, sender)` may take the
/// sender's contents: a sender is not read after its step.
pub(crate) fn binomial_reduce_in_order<T, F: FnMut(&mut T, &mut T)>(
    partials: &mut [T],
    mut absorb: F,
) {
    let b = partials.len();
    debug_assert!(b.is_power_of_two());
    for s in 0..steps(b) {
        let half = 1usize << s;
        let span = half * 2;
        for k in (0..b).step_by(span) {
            // Split so we can borrow receiver and sender disjointly.
            let (head, tail) = partials.split_at_mut(k + half);
            absorb(&mut head[k], &mut tail[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flat indices of LinkBlock `(d, block)`'s workers, in grid order:
    /// row `block` up, column `block` down.
    fn grid_members(d: Dir, block: usize, b: usize) -> Vec<usize> {
        if d == UP {
            (0..b).map(|j| block * b + j).collect()
        } else {
            (0..b).map(|i| i * b + block).collect()
        }
    }

    /// Simulate the aggregation for one LinkBlock kind and check every
    /// partial reaches the right diagonal exactly once.
    fn check_aggregation(b: usize, d: Dir) {
        // Each worker starts holding the multiset {flat index} for each
        // LinkBlock it contributes to.
        let mut holdings: Vec<Vec<usize>> = (0..b * b).map(|w| vec![w]).collect();
        for s in 0..steps(b) {
            let mut moves = Vec::new();
            for w in 0..b * b {
                if let Role::Recv { from } = aggregate(d, w, b, s) {
                    moves.push((from, w));
                }
            }
            for (from, to) in moves {
                let taken = std::mem::take(&mut holdings[from]);
                holdings[to].extend(taken);
            }
        }
        for block in 0..b {
            let mut got = holdings[root(d, block, b)].clone();
            got.sort_unstable();
            assert_eq!(got, grid_members(d, block, b), "b={b} d={d} block={block}");
        }
    }

    #[test]
    fn aggregation_reaches_diagonals() {
        for b in [1, 2, 4, 8] {
            for d in DIRS {
                check_aggregation(b, d);
            }
        }
    }

    #[test]
    fn roots_are_on_the_diagonals() {
        let b = 4;
        for i in 0..b {
            assert_eq!(root(UP, i, b), i * b + i);
            let dr = root(DOWN, i, b);
            let (r, c) = (dr / b, dr % b);
            assert_eq!((r + c, c), (b - 1, i), "secondary diagonal");
        }
    }

    #[test]
    fn member_and_position_are_inverse() {
        for b in [1, 2, 4, 8] {
            for d in DIRS {
                for blk in 0..b {
                    let mut got: Vec<usize> = members(d, blk, b).collect();
                    for (k, &w) in got.iter().enumerate() {
                        assert_eq!(position(d, w, b), (blk, k), "b={b} d={d}");
                    }
                    got.sort_unstable();
                    assert_eq!(got, grid_members(d, blk, b));
                }
            }
        }
    }

    #[test]
    fn roles_are_mutually_consistent() {
        // If w receives from v, then v must be a peer pointing at w.
        let b = 8;
        for s in 0..steps(b) {
            for d in DIRS {
                for w in 0..b * b {
                    if let Role::Recv { from } = aggregate(d, w, b, s) {
                        assert_eq!(aggregate(d, from, b, s), Role::Peer { to: w });
                    }
                }
            }
        }
    }

    #[test]
    fn binomial_reduce_matches_tree_order() {
        let mut partials: Vec<Vec<f64>> = vec![
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ];
        binomial_reduce_in_order(&mut partials, |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        });
        assert_eq!(partials[0], vec![10.0, 100.0]);
    }

    #[test]
    fn single_block_grid_is_trivial() {
        assert_eq!(steps(1), 0);
        assert_eq!(root(UP, 0, 1), 0);
        assert_eq!(root(DOWN, 0, 1), 0);
    }
}
