//! FlowBlock worker state, the three per-iteration compute kernels (the
//! price update in two rules, [`PriceRule`]) and the per-drain report
//! kernel.
//!
//! All arithmetic lives here, shared verbatim by the serial and parallel
//! engines so their results are bit-for-bit identical.
//!
//! A FlowBlock is stored column-wise ([`FlowBlock`]) and every path has
//! the same arity — two upward and two downward offsets — so the flow
//! kernels have no data-dependent branch. Each is one loop over *pairs*
//! of flows: the per-link values of both are gathered through the
//! offsets, the `max` and the divisions run packed over the pair, and
//! [`rate_pass`] then adds the `[x, dx]` of flow *i* and of flow *i + 1*
//! to their links in that order, so every link's sums still see their
//! addends in slot order. Nothing is staged through a buffer: the
//! divider works under the neighbouring pairs' loads and stores (the
//! loops are bound by instruction issue, not by the divider or the load
//! and store ports — see ARCHITECTURE). A path shorter than two hops is
//! padded with its LinkBlock's **sentinel slot**: one extra entry past
//! the real links in every per-link array of [`PriceView`] and
//! [`Accums`]. The kernels take a worker's two LinkBlocks' arrays as an
//! `[up, down]` pair of slices, whoever holds them.
//!
//! **No instruction in those loops guards an index.** The per-link
//! arrays are [`padded_len`] long — the links, the sentinel, zeros up to
//! a power of two — and the kernels index them at `offset & (len - 1)`,
//! which the compiler can see is in bounds; the range check proper sits
//! where offsets enter, in [`FlowBlock::push`], so the mask is the
//! identity on every offset that exists. `scripts/kernel_asm.sh` fails
//! if a bounds check reappears in either kernel.
//!
//! The fourth kernel, [`report_pass`], runs once per drain rather than
//! per iteration: the §6.4 update-threshold rule (`must_report`) over
//! the `normalized` column against the `reported` column — what was
//! last lent for each flow — compacting the flows that pass into the
//! sink's hands. It needs no gather: both of its inputs are columns.
//!
//! **"Branch-free" is a claim about the binary, not the source.** Under
//! churn two flows in three pass, so a jump on the pass flag mispredicts
//! every third flow (7 ns a flow where a converged block costs 1.9). The
//! source never had an `if` on the flag with a side effect, yet
//! `*last = if flag { rate } else { *last }` was compiled to a
//! conditional store behind `test; jne`: a select between a loaded value
//! and a new one is fair game for that. `report_pass` therefore keeps
//! the flag as a 64-bit lane mask and writes the blend as `&`/`|` on
//! `to_bits()` (which packs), and its compaction loop only stores and
//! adds. Checked with `objdump -d` on the default build and under
//! `-C target-cpu=x86-64-v3`: between the flags loop's compares and the
//! `sink` call the only conditional jumps are loop back-edges and the
//! lent-slot bounds check. Re-read the disassembly when touching it
//! (`scripts/kernel_asm.sh` prints each kernel's jump count).
//!
//! Sentinel invariant: the sentinel's price and utilization ratio are
//! `0.0` forever — the price updates and the engines' install steps write
//! the real links only — and its accumulator, which collects the padded
//! flows' rates, is never aggregated or read. Padding therefore changes
//! no bit: it adds `+0.0` to a path price and takes `max(·, 0.0)` of a
//! worst ratio that is already ≥ 0. The entries past the sentinel are
//! `+0.0` forever for the same reason: no offset reaches them, and
//! nothing else writes them.

use flowtune_num::solver::decay_idle_price;
use flowtune_topo::FlowId;

use crate::{grow, GAMMA};

/// Flows [`report_pass`] flags, selects and compacts at a time: its stage
/// buffers stay on the stack and in L1.
const CHUNK: usize = 64;

/// One FlowBlock's flows, a column per field; slot `i` of every column
/// is the same flow — 52 bytes a flow. Paths are offsets into the source
/// block's upward LinkBlock and the destination block's downward
/// LinkBlock (1 real offset each for intra-rack flows, 2 each for
/// spine-crossing flows), padded to two with the sentinel.
#[derive(Debug, Clone)]
pub struct FlowBlock {
    /// External flow identities, narrowed to the 32 bits the engine's
    /// dense index admits; widened to [`FlowId`] where they leave the
    /// block ([`report_pass`]'s lent runs, [`FlowBlock::flow_rate`]).
    pub ids: Vec<u32>,
    /// Offsets into the upward LinkBlock, each `≤ sentinel`: private so
    /// that [`FlowBlock::push`] is the one place an offset enters, and
    /// the kernels' index masks are the identity on all of them.
    up: Vec<[u16; 2]>,
    /// Offsets into the downward LinkBlock, likewise.
    down: Vec<[u16; 2]>,
    /// Proportional-fairness weights (log utility `w log x`). The hot
    /// path is specialized to log utility — the objective the paper's
    /// allocator runs; other utilities are available in the serial
    /// `flowtune-num` solvers.
    pub weight: Vec<f64>,
    /// Price floors `w / x_max` at the bottleneck line rate `x_max`: the
    /// kink that caps a flow's demand at line rate.
    pub floor: Vec<f64>,
    /// Raw optimizer rates (Gbit/s), written by [`rate_pass`].
    pub rates: Vec<f64>,
    /// Rates after F-NORM (a copy of `rates` when normalization is off),
    /// written by [`normalize_pass`].
    pub normalized: Vec<f64>,
    /// The normalized rate [`report_pass`] last lent for the flow — the
    /// §6.4 filter memory — or [`UNREPORTED`].
    pub reported: Vec<f64>,
    /// The padding offset: the index one past the real links.
    sentinel: u16,
}

/// The sentinel offset of LinkBlocks of `links_per_lb` real links: the
/// index one past them, which every offset column must be able to hold.
///
/// # Panics
/// Panics if it does not fit a `u16` offset (more than 65 535 links in
/// one LinkBlock).
pub(crate) fn sentinel(links_per_lb: usize) -> u16 {
    u16::try_from(links_per_lb).unwrap_or_else(|_| {
        panic!("a LinkBlock of {links_per_lb} links: its sentinel does not fit a u16 offset")
    })
}

impl FlowBlock {
    /// An empty block whose LinkBlocks hold `links_per_lb` real links.
    ///
    /// # Panics
    /// Panics if their sentinel offset, `links_per_lb`, does not fit a
    /// `u16`.
    pub fn new(links_per_lb: usize) -> Self {
        Self {
            ids: Vec::new(),
            up: Vec::new(),
            down: Vec::new(),
            weight: Vec::new(),
            floor: Vec::new(),
            rates: Vec::new(),
            normalized: Vec::new(),
            reported: Vec::new(),
            sentinel: sentinel(links_per_lb),
        }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block holds no flow.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends flow `id` (≤ 2 offsets each way, each a real link's or the
    /// sentinel's) at rate zero and never reported; `x_max` is its
    /// bottleneck line rate in Gbit/s.
    // flowtune-lint: hot
    pub fn push(&mut self, id: u32, weight: f64, up: &[u16], down: &[u16], x_max: f64) {
        assert!(up.len() <= 2 && down.len() <= 2, "2-tier paths only");
        let pad = |offsets: &[u16]| {
            assert!(
                offsets.iter().all(|&o| o <= self.sentinel),
                "offset past the LinkBlock's {} links",
                self.sentinel
            );
            let mut padded = [self.sentinel; 2];
            padded[..offsets.len()].copy_from_slice(offsets);
            padded
        };
        let (up, down) = (pad(up), pad(down));
        // Every column has the same length, so each grows alike: by a
        // quarter, not double (`grow`).
        grow::reserve(&mut self.up, 1);
        grow::reserve(&mut self.down, 1);
        grow::reserve(&mut self.ids, 1);
        grow::reserve(&mut self.weight, 1);
        grow::reserve(&mut self.floor, 1);
        grow::reserve(&mut self.rates, 1);
        grow::reserve(&mut self.normalized, 1);
        grow::reserve(&mut self.reported, 1);
        self.up.push(up);
        self.down.push(down);
        self.ids.push(id);
        self.weight.push(weight);
        self.floor.push(weight / x_max);
        self.rates.push(0.0);
        self.normalized.push(0.0);
        self.reported.push(UNREPORTED);
    }

    /// Removes the flow in `slot` by moving the last flow into it (every
    /// column alike), and returns the id of the flow that now occupies
    /// `slot`, if any.
    // flowtune-lint: hot
    pub fn swap_remove(&mut self, slot: usize) -> Option<u32> {
        self.ids.swap_remove(slot);
        self.up.swap_remove(slot);
        self.down.swap_remove(slot);
        self.weight.swap_remove(slot);
        self.floor.swap_remove(slot);
        self.rates.swap_remove(slot);
        self.normalized.swap_remove(slot);
        self.reported.swap_remove(slot);
        self.ids.get(slot).copied()
    }

    /// The real (unpadded) upward and downward offsets of the flow in
    /// `slot`.
    pub fn path(&self, slot: usize) -> (&[u16], &[u16]) {
        (self.real(&self.up[slot]), self.real(&self.down[slot]))
    }

    fn real<'a>(&self, offsets: &'a [u16; 2]) -> &'a [u16] {
        let hops = offsets.iter().take_while(|&&o| o != self.sentinel).count();
        &offsets[..hops]
    }

    /// The allocation of the flow in `slot`.
    pub fn flow_rate(&self, slot: usize) -> FlowRate {
        FlowRate {
            id: FlowId(u64::from(self.ids[slot])),
            rate: self.rates[slot],
            normalized: self.normalized[slot],
        }
    }
}

/// Entries in every per-link array the flow kernels index through a
/// flow's offsets ([`PriceView`]'s two, [`Accums`]' two) for LinkBlocks
/// of `links_per_lb` real links: the links, the sentinel, and zero
/// padding up to a power of two, so that `offset & (len - 1)` is an
/// in-bounds index with no check (see `slot` in this module).
pub fn padded_len(links_per_lb: usize) -> usize {
    (links_per_lb + 1).next_power_of_two()
}

/// A flow's allocation after an iteration, in Gbit/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRate {
    /// External flow identity.
    pub id: FlowId,
    /// Raw optimizer rate.
    pub rate: f64,
    /// Rate after F-NORM (equals `rate` when normalization is off).
    pub normalized: f64,
}

/// Per-worker private accumulators for its two LinkBlock copies: one
/// `[load, hessian]` pair per link — the sum of flow rates and the sum
/// of demand derivatives (Hessian diagonal) — so a flow's contribution
/// to a link lands with one 16-byte add. Entry `n` of each array is the
/// sentinel's; the arrays are [`padded_len`] long.
#[derive(Debug, Clone)]
pub struct Accums {
    /// The upward and the downward LinkBlock's pairs, in that order.
    pub pairs: [Vec<[f64; 2]>; 2],
}

impl Accums {
    /// Zero-filled accumulators for LinkBlocks of `n` real links.
    pub fn new(n: usize) -> Self {
        Self {
            pairs: [(); 2].map(|_| vec![[0.0; 2]; padded_len(n)]),
        }
    }

    /// Resets both arrays to zero up to and including the sentinel of
    /// LinkBlocks of `links_per_lb` real links: no offset reaches past
    /// it, so the padding is still the zero it was built with.
    // flowtune-lint: hot
    pub fn clear(&mut self, links_per_lb: usize) {
        for pairs in &mut self.pairs {
            pairs[..=links_per_lb].fill([0.0; 2]);
        }
    }
}

/// `a[l] += b[l]` on both halves of every pair — the unit of
/// "communication" in the aggregation tree.
// flowtune-lint: hot, float-kernel
pub fn absorb(a: &mut [[f64; 2]], b: &[[f64; 2]]) {
    for (x, y) in a.iter_mut().zip(b) {
        add_pair(x, y);
    }
}

// flowtune-lint: hot, float-kernel
#[inline]
fn add_pair(link: &mut [f64; 2], pair: &[f64; 2]) {
    *link = [link[0] + pair[0], link[1] + pair[1]];
}

/// One LinkBlock's prices and utilization ratios: the one copy the
/// price update writes and every FlowBlock worker of the LinkBlock's
/// row or column reads. Entry `n` of each array is the sentinel's `0.0`;
/// the arrays are [`padded_len`] long, `0.0` from the sentinel on.
#[derive(Debug, Clone, Default)]
pub struct PriceView {
    /// The links' prices (duals).
    pub prices: Vec<f64>,
    /// The links' utilization ratios `r_ℓ` (for F-NORM).
    pub ratios: Vec<f64>,
}

impl PriceView {
    /// Initial view over `n` real links: all prices 1 (§3), ratios 0.
    pub fn new(n: usize) -> Self {
        let mut prices = vec![0.0; padded_len(n)];
        prices[..n].fill(1.0);
        Self {
            prices,
            ratios: vec![0.0; padded_len(n)],
        }
    }
}

/// Kernel 1 — Algorithm 1's rate update over one FlowBlock, reading its
/// upward and downward LinkBlock's `prices`, writing `flows.rates` and
/// accumulating link loads and the exact Hessian diagonal into the
/// worker's private accumulators.
// flowtune-lint: hot, float-kernel
pub fn rate_pass(flows: &mut FlowBlock, prices: [&[f64]; 2], acc: &mut Accums) {
    let n = flows.len();
    let (up, down) = (&flows.up[..n], &flows.down[..n]);
    let (weight, floor) = (&flows.weight[..n], &flows.floor[..n]);
    let rates = &mut flows.rates[..n];
    let [up_prices, down_prices] = prices;
    let [acc_up, acc_down] = acc.pairs.each_mut().map(|v| &mut v[..]);
    check_padded(
        flows.sentinel,
        [
            up_prices.len(),
            down_prices.len(),
            acc_up.len(),
            acc_down.len(),
        ],
    );
    let mut i = 0;
    while i + 1 < n {
        let j = i + 1;
        let (ui, di) = (offsets(&up[i]), offsets(&down[i]));
        let (uj, dj) = (offsets(&up[j]), offsets(&down[j]));
        // The price floor at the line-rate kink keeps the demand finite
        // and the diagonal strictly negative (see flowtune-num docs).
        let l = [
            path_sum(up_prices, down_prices, ui, di).max(floor[i]),
            path_sum(up_prices, down_prices, uj, dj).max(floor[j]),
        ];
        let x = [weight[i] / l[0], weight[j] / l[1]];
        // dx = -w/λ²
        let dx = [-x[0] / l[0], -x[1] / l[1]];
        // Flows in slot order: a link's sums accumulate in the order a
        // per-flow loop would add them.
        path_add(acc_up, acc_down, ui, di, [x[0], dx[0]]);
        path_add(acc_up, acc_down, uj, dj, [x[1], dx[1]]);
        // Stored last: the gathered indices then stay in registers for
        // the adds above (measured, 3.4 → 3.05 ns a flow).
        rates[i] = x[0];
        rates[j] = x[1];
        i += 2;
    }
    if i < n {
        let (u, d) = (offsets(&up[i]), offsets(&down[i]));
        let l = path_sum(up_prices, down_prices, u, d).max(floor[i]);
        let x = weight[i] / l;
        rates[i] = x;
        path_add(acc_up, acc_down, u, d, [x, -x / l]);
    }
}

/// The kernels' one check on the per-link arrays they index through a
/// flow's offsets: all one length, a power of two, past the sentinel.
/// [`slot`] is then in bounds for any offset, and the identity on every
/// offset `flows` holds ([`FlowBlock::push`] admitted none above the
/// sentinel). Inlined, because the kernel's loop must see these facts.
#[inline(always)]
fn check_padded<const N: usize>(sentinel: u16, lens: [usize; N]) {
    let len = lens[0];
    assert!(
        len.is_power_of_two() && usize::from(sentinel) < len && lens.iter().all(|&l| l == len),
        "per-link arrays are padded to one power-of-two length past the sentinel"
    );
}

/// A path's price: its four links', summed in path order. (A sum seeded
/// with 0.0 differs only when every price is -0.0, and the floor the
/// caller applies is positive.)
// flowtune-lint: hot, float-kernel
#[inline(always)]
fn path_sum(up: &[f64], down: &[f64], u: [u16; 2], d: [u16; 2]) -> f64 {
    up[slot(up.len(), u[0])]
        + up[slot(up.len(), u[1])]
        + down[slot(down.len(), d[0])]
        + down[slot(down.len(), d[1])]
}

/// Adds a flow's `[x, dx]` to its four links' sums, in path order.
// flowtune-lint: hot, float-kernel
#[inline(always)]
fn path_add(up: &mut [[f64; 2]], down: &mut [[f64; 2]], u: [u16; 2], d: [u16; 2], pair: [f64; 2]) {
    add_pair(&mut up[slot(up.len(), u[0])], &pair);
    add_pair(&mut up[slot(up.len(), u[1])], &pair);
    add_pair(&mut down[slot(down.len(), d[0])], &pair);
    add_pair(&mut down[slot(down.len(), d[1])], &pair);
}

/// `offset`, zero-extended, as an index into a per-link array of `len`
/// entries. Masked against the array's own length so that
/// `slot(a.len(), o) < a.len()` folds to `a.len() != 0`, which
/// [`check_padded`] established: the index carries no bounds check and
/// no panic edge. (A mask shared between arrays, or narrowed to 32 bits,
/// is not recognized.)
#[inline(always)]
fn slot(len: usize, offset: u16) -> usize {
    usize::from(offset) & (len - 1)
}

/// A flow's two offsets one way, read as two `u16` loads. Copied as one
/// `[u16; 2]`, the pair is loaded as a 32-bit word whose low half costs
/// a zero-extension after [`slot`]'s mask (`scripts/kernel_asm.sh`:
/// eight instructions more in `normalize_pass`'s pair loop), and taken
/// by reference into the path helpers it is read again after
/// `rate_pass`'s first scatter.
#[inline(always)]
fn offsets(pair: &[u16; 2]) -> [u16; 2] {
    [pair[0], pair[1]]
}

/// Kernel 2 — NED price update (Algorithm 1, eq. 4) plus utilization
/// ratios, over one LinkBlock's authoritative (aggregated) `[load,
/// hessian]` pairs, into its `view`. `capacity` has one entry per real
/// link and bounds the walk, so the view's sentinel entry is never
/// touched.
///
/// `background` is the exogenous per-link load of flows *outside* this
/// engine (a partitioned allocator's other shards, offsets matching
/// `capacity`): it joins the over-allocation term `G` and the utilization
/// ratios. `background_h` is those flows' Hessian-diagonal contribution,
/// folded into `H` so the Newton step divides the *global* gradient by
/// the *global* sensitivity — without it the step is scaled by the shard
/// count, which pushes the effective γ out of its stable range. `None`
/// for either means no exogenous term, and takes exactly the
/// pre-exchange arithmetic path (bit-for-bit).
///
/// `anchor` is, per link, the price the link's own flows last read (an
/// incremental grid's dirty-test snapshot). A loaded link then steps on
/// the load those flows would carry at the current price, to first
/// order: `G = (total − c) + H_own·(p − anchor)`, so a price whose
/// crossers have not re-run yet does not repeat the move it already
/// made. Unsharded that is `p_newton − γ·(p − anchor)`; with a background
/// Hessian the term is scaled by `H_own / H_total`. Where `p == anchor`
/// the term is `H·0` and adds nothing, so an exact grid (whose prices
/// always equal their snapshots here) takes the same bits as `None`,
/// which is the unanchored arithmetic.
// flowtune-lint: hot, float-kernel
pub fn price_update(
    acc: &[[f64; 2]],
    background: Option<&[f64]>,
    background_h: Option<&[f64]>,
    anchor: Option<&[f64]>,
    capacity: &[f64],
    gamma: f64,
    view: &mut PriceView,
) {
    let PriceView { prices, ratios } = view;
    for l in 0..capacity.len() {
        let [load, h] = acc[l];
        let total = load + background.map_or(0.0, |b| b[l]);
        ratios[l] = total / capacity[l];
        if h < 0.0 {
            let p = prices[l];
            let g = total - capacity[l];
            let g = anchor.map_or(g, |a| g + h * (p - a[l]));
            let h = h + background_h.map_or(0.0, |b| b[l]);
            prices[l] = (p - gamma * g / h).max(0.0);
        } else {
            // No *own* flow crosses this link, so its price carries no
            // information for this engine: decay the stale value (the
            // serial NED's rule in flowtune-num, snap to zero included).
            prices[l] = decay_idle_price(prices[l]);
        }
    }
}

/// Kernel 2′ — gradient projection's price update (Low & Lapsley; §3's
/// baseline), `p ← max(0, p + γ_G·G)`, plus the same utilization ratios
/// as [`price_update`]. It reads the pairs' loads only: a first-order
/// step has no sensitivity to divide by, so it takes no background
/// Hessian either. A link none of the engine's own flows load decays as
/// under NED. Step for step `flowtune_num::Gradient`'s price update.
// flowtune-lint: hot, float-kernel
pub fn gradient_price_update(
    acc: &[[f64; 2]],
    background: Option<&[f64]>,
    capacity: &[f64],
    step: f64,
    prices: &mut [f64],
    ratios: &mut [f64],
) {
    for l in 0..capacity.len() {
        let load = acc[l][0];
        let total = load + background.map_or(0.0, |b| b[l]);
        ratios[l] = total / capacity[l];
        prices[l] = if load > 0.0 {
            (prices[l] + step * (total - capacity[l])).max(0.0)
        } else {
            decay_idle_price(prices[l])
        };
    }
}

/// The price step a grid takes (§3): NED and gradient projection compute
/// the same rates, link sums and ratios, and differ only in how a link's
/// excess demand `G` moves its price. Chosen once per grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriceRule {
    /// NED: [`price_update`] at step [`GAMMA`], `G` divided by the
    /// Hessian diagonal.
    Ned,
    /// Gradient projection: [`gradient_price_update`] at this absolute
    /// step γ_G.
    Gradient(f64),
}

impl PriceRule {
    /// Runs this rule's kernel over one LinkBlock's totals. Only NED's
    /// step reads `anchor` ([`price_update`]); a gradient step is
    /// `γ_G·G` whatever the flows last read.
    // flowtune-lint: hot, float-kernel
    #[inline]
    pub fn update(
        self,
        acc: &[[f64; 2]],
        background: Option<&[f64]>,
        background_h: Option<&[f64]>,
        anchor: Option<&[f64]>,
        capacity: &[f64],
        view: &mut PriceView,
    ) {
        match self {
            PriceRule::Ned => {
                price_update(acc, background, background_h, anchor, capacity, GAMMA, view);
            }
            PriceRule::Gradient(step) => {
                let PriceView { prices, ratios } = view;
                gradient_price_update(acc, background, capacity, step, prices, ratios);
            }
        }
    }
}

/// Kernel 3 — F-NORM (§4.2) over one FlowBlock: divide each flow's rate by
/// the worst utilization ratio on its own path — its upward and
/// downward LinkBlock's `ratios` — into `flows.normalized`. A path with
/// no loaded link divides by one instead, which is the identity (and
/// `0 / d` is the zero a rate of zero normalizes to).
// flowtune-lint: hot, float-kernel
pub fn normalize_pass(flows: &mut FlowBlock, ratios: [&[f64]; 2]) {
    let n = flows.len();
    let (up, down) = (&flows.up[..n], &flows.down[..n]);
    let rates = &flows.rates[..n];
    let normalized = &mut flows.normalized[..n];
    let [up_ratio, down_ratio] = ratios;
    check_padded(flows.sentinel, [up_ratio.len(), down_ratio.len()]);
    let divisor = |w: f64| if w > 0.0 { w } else { 1.0 };
    let mut i = 0;
    while i + 1 < n {
        let j = i + 1;
        let w = [
            path_max(up_ratio, down_ratio, offsets(&up[i]), offsets(&down[i])),
            path_max(up_ratio, down_ratio, offsets(&up[j]), offsets(&down[j])),
        ];
        // Built as arrays so the select and the division pack: as two
        // scalar statements they compile to a jump on `w > 0` each.
        let d = [divisor(w[0]), divisor(w[1])];
        let out = [rates[i] / d[0], rates[j] / d[1]];
        normalized[i] = out[0];
        normalized[j] = out[1];
        i += 2;
    }
    if i < n {
        let worst = path_max(up_ratio, down_ratio, offsets(&up[i]), offsets(&down[i]));
        normalized[i] = rates[i] / divisor(worst);
    }
}

/// The worst utilization ratio on a path, or `0.0` for one with no
/// loaded link.
// flowtune-lint: hot, float-kernel
#[inline(always)]
fn path_max(up: &[f64], down: &[f64], u: [u16; 2], d: [u16; 2]) -> f64 {
    0.0f64
        .max(up[slot(up.len(), u[0])])
        .max(up[slot(up.len(), u[1])])
        .max(down[slot(down.len(), d[0])])
        .max(down[slot(down.len(), d[1])])
}

/// "None yet" in a flow's `reported` word: nothing was ever lent for it,
/// so whatever rate it has must be. (`NaN` is free to mean this because
/// no kernel produces a `NaN` rate.)
pub const UNREPORTED: f64 = f64::NAN;

/// The §6.4 rule: must `rate` be reported for a flow whose last reported
/// rate was `reported` ([`UNREPORTED`] always must)? Only a change beyond
/// `threshold` relative to `reported` passes; leaving a zero rate is
/// always a change, staying at zero never is. Bit for bit
/// `flowtune_proto::ThresholdFilter::passes` (the differential test in
/// this module pins it), written without a branch so [`report_pass`]
/// packs it: every lane pays the one division, the zero and never cases
/// are selected afterwards.
// flowtune-lint: hot, float-kernel
#[inline]
pub(crate) fn must_report(threshold: f64, reported: f64, rate: f64) -> bool {
    debug_assert!(!rate.is_nan(), "the kernels keep rates finite");
    let from_zero = reported == 0.0;
    let moved = (rate - reported).abs() / reported > threshold;
    reported.is_nan() | (from_zero & (rate != 0.0)) | (!from_zero & moved)
}

/// Kernel 4 — the §6.4 report rule over one FlowBlock, once per drain:
/// lends `sink` the ids and normalized rates of exactly the flows whose
/// rate moved beyond `threshold` relative to `flows.reported` (or that
/// were never reported), and records each as reported — bit for bit
/// `flowtune_proto::ThresholdFilter::passes` per flow. Per chunk: the
/// pass flags over the two columns, as lane masks; then — only in a
/// chunk that has a passer, which a converged block's chunks do not — a
/// mask-select of `reported`, a compaction into two stack columns that
/// stores every flow and advances by the flag, and one `sink` call. No
/// jump depends on a flag (see the module docs for what that means and
/// how it is checked).
// flowtune-lint: hot, float-kernel
pub fn report_pass(flows: &mut FlowBlock, threshold: f64, sink: &mut dyn FnMut(&[FlowId], &[f64])) {
    let n = flows.len();
    let (ids, normalized) = (&flows.ids[..n], &flows.normalized[..n]);
    let reported = &mut flows.reported[..n];
    // A flow's pass flag as a lane mask: all ones for a passer, else zero.
    let mut pass = [0u64; CHUNK];
    let mut lent_ids = [FlowId(0); CHUNK];
    let mut lent_rates = [0.0f64; CHUNK];
    for start in (0..n).step_by(CHUNK) {
        let end = (start + CHUNK).min(n);
        let (rates, reported) = (&normalized[start..end], &mut reported[start..end]);
        let mut any = 0;
        for ((mask, &rate), &last) in pass.iter_mut().zip(rates).zip(reported.iter()) {
            *mask = u64::from(must_report(threshold, last, rate)).wrapping_neg();
            any |= *mask;
        }
        if any == 0 {
            continue;
        }
        // A passer's rate is remembered: a mask-select on the bits, which
        // packs, where `if flag { rate } else { *last }` came out of the
        // compiler as a conditional store behind a jump on the flag.
        for ((last, &rate), &mask) in reported.iter_mut().zip(rates).zip(&pass) {
            *last = f64::from_bits((rate.to_bits() & mask) | (last.to_bits() & !mask));
        }
        // Every flow is stored to the next free lent slot and only a
        // passer advances it (and so keeps its slot): stores and an add,
        // nothing selected. The id is widened here, where it is lent.
        let mut lent = 0;
        for ((&id, &rate), &mask) in ids[start..end].iter().zip(rates).zip(&pass) {
            lent_ids[lent] = FlowId(u64::from(id));
            lent_rates[lent] = rate;
            lent += (mask & 1) as usize;
        }
        sink(&lent_ids[..lent], &lent_rates[..lent]);
    }
}

/// The array-of-structs kernels the columnar ones replaced, kept as the
/// oracle the differential tests compare against: one `BlockFlow` per
/// flow with variable-length paths, four separate accumulator arrays, a
/// scalar loop with a branch per flow.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::reduce::{DOWN, UP};

    #[derive(Debug, Clone)]
    pub struct BlockFlow {
        pub weight: f64,
        pub up: Vec<u16>,
        pub down: Vec<u16>,
        pub x_max: f64,
    }

    #[derive(Debug, Clone, PartialEq)]
    pub struct Accums {
        pub up_load: Vec<f64>,
        pub up_h: Vec<f64>,
        pub down_load: Vec<f64>,
        pub down_h: Vec<f64>,
    }

    impl Accums {
        pub fn new(n: usize) -> Self {
            Self {
                up_load: vec![0.0; n],
                up_h: vec![0.0; n],
                down_load: vec![0.0; n],
                down_h: vec![0.0; n],
            }
        }
    }

    pub fn rate_pass(
        flows: &[BlockFlow],
        prices: [&[f64]; 2],
        acc: &mut Accums,
        rates: &mut [f64],
    ) {
        for (flow, rate) in flows.iter().zip(rates.iter_mut()) {
            let mut lambda = 0.0;
            for &o in &flow.up {
                lambda += prices[UP][o as usize];
            }
            for &o in &flow.down {
                lambda += prices[DOWN][o as usize];
            }
            let lambda = lambda.max(flow.weight / flow.x_max);
            let x = flow.weight / lambda;
            let dx = -x / lambda;
            *rate = x;
            for &o in &flow.up {
                acc.up_load[o as usize] += x;
                acc.up_h[o as usize] += dx;
            }
            for &o in &flow.down {
                acc.down_load[o as usize] += x;
                acc.down_h[o as usize] += dx;
            }
        }
    }

    pub fn normalize_pass(
        flows: &[BlockFlow],
        ratios: [&[f64]; 2],
        rates: &[f64],
        normalized: &mut [f64],
    ) {
        for (i, flow) in flows.iter().enumerate() {
            if rates[i] == 0.0 {
                normalized[i] = 0.0;
                continue;
            }
            let mut worst = 0.0f64;
            for &o in &flow.up {
                worst = worst.max(ratios[UP][o as usize]);
            }
            for &o in &flow.down {
                worst = worst.max(ratios[DOWN][o as usize]);
            }
            normalized[i] = if worst > 0.0 {
                rates[i] / worst
            } else {
                rates[i]
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{DOWN, UP};
    use flowtune_proto::ThresholdFilter;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    const LINKS: usize = 6;

    /// A worker's two LinkBlock views, `[up, down]`, as built.
    fn views() -> [PriceView; 2] {
        [(); 2].map(|_| PriceView::new(LINKS))
    }

    fn prices(views: &[PriceView; 2]) -> [&[f64]; 2] {
        views.each_ref().map(|v| &v.prices[..])
    }

    fn ratios(views: &[PriceView; 2]) -> [&[f64]; 2] {
        views.each_ref().map(|v| &v.ratios[..])
    }

    fn block(flows: &[(f64, &[u16], &[u16], f64)]) -> FlowBlock {
        let mut b = FlowBlock::new(LINKS);
        for (i, &(weight, up, down, x_max)) in flows.iter().enumerate() {
            b.push(i as u32, weight, up, down, x_max);
        }
        b
    }

    #[test]
    fn rate_pass_matches_hand_computation() {
        let mut flows = block(&[(1.0, &[0], &[1], 10.0)]);
        let mut views = views();
        views[UP].prices[..2].copy_from_slice(&[0.3, 0.0]);
        views[DOWN].prices[..2].copy_from_slice(&[0.0, 0.2]);
        let mut acc = Accums::new(LINKS);
        rate_pass(&mut flows, prices(&views), &mut acc);
        assert!((flows.rates[0] - 2.0).abs() < 1e-12); // 1/(0.3+0.2)
        let [up, down] = &acc.pairs;
        assert!((up[0][0] - 2.0).abs() < 1e-12);
        assert!((down[1][0] - 2.0).abs() < 1e-12);
        assert!((up[0][1] - (-4.0)).abs() < 1e-12); // -1/0.25
        assert_eq!(up[1], [0.0, 0.0]);
    }

    #[test]
    fn rate_pass_honours_line_rate_cap() {
        let mut flows = block(&[(1.0, &[0], &[0], 10.0)]);
        let mut views = views();
        views.iter_mut().for_each(|v| v.prices.fill(0.0));
        rate_pass(&mut flows, prices(&views), &mut Accums::new(LINKS));
        assert_eq!(flows.rates[0], 10.0);
    }

    /// A view over `prices`, its ratios zero.
    fn view_of(prices: &[f64]) -> PriceView {
        PriceView {
            prices: prices.to_vec(),
            ratios: vec![0.0; prices.len()],
        }
    }

    #[test]
    fn price_update_moves_toward_balance() {
        let mut view = view_of(&[0.1]);
        // Overloaded link: 15 on capacity 10, h = -100.
        price_update(&[[15.0, -100.0]], None, None, None, &[10.0], 1.0, &mut view);
        assert!((view.prices[0] - 0.15).abs() < 1e-12); // 0.1 - 1·5/(-100)
        assert!((view.ratios[0] - 1.5).abs() < 1e-12);
        // Unused link decays.
        let mut idle = view_of(&[0.8]);
        price_update(&[[0.0, 0.0]], None, None, None, &[10.0], 1.0, &mut idle);
        assert_eq!(idle.prices[0], 0.4);
    }

    #[test]
    fn price_update_counts_background_load() {
        // Own load 5 + background 10 on capacity 10: over-subscribed by 5
        // even though the own flows alone fit.
        let own = [[5.0, -100.0]];
        let mut view = view_of(&[0.1]);
        price_update(&own, Some(&[10.0]), None, None, &[10.0], 1.0, &mut view);
        assert!((view.prices[0] - 0.15).abs() < 1e-12); // 0.1 - 1·5/(-100)

        // The background's Hessian contribution widens |H|, shrinking the
        // Newton step: same g, twice the sensitivity, half the move.
        let mut view = view_of(&[0.1]);
        price_update(
            &own,
            Some(&[10.0]),
            Some(&[-100.0]),
            None,
            &[10.0],
            1.0,
            &mut view,
        );
        assert!((view.prices[0] - 0.125).abs() < 1e-12); // 0.1 - 1·5/(-200)
        assert!((view.ratios[0] - 1.5).abs() < 1e-12);
        // A link only the *other* shards use still decays: the price is
        // meaningless to an engine none of whose flows cross it.
        let mut idle = view_of(&[0.8]);
        price_update(
            &[[0.0, 0.0]],
            Some(&[25.0]),
            Some(&[-1.0]),
            None,
            &[10.0],
            1.0,
            &mut idle,
        );
        assert_eq!(idle.prices[0], 0.4);
        assert!(
            (idle.ratios[0] - 2.5).abs() < 1e-12,
            "ratio sees background"
        );
    }

    #[test]
    fn an_anchored_step_discounts_the_move_its_flows_have_not_answered() {
        // Loaded link: own load 15 + background 2 on capacity 10 (G = 7),
        // own H = -100, background H = -300 (H_total = -400), p = 0.5,
        // anchor 0.3. The Newton step alone: 0.5 - 0.4·7/(-400) = 0.507.
        // Anchored: minus γ·(H_own/H_total)·(p - anchor) = 0.4·0.25·0.2.
        let acc = [[15.0, -100.0], [8.0, -1.0], [0.0, 0.0]];
        let bg = Some(&[2.0, 0.0, 0.0][..]);
        let bg_h = Some(&[-300.0, 0.0, 0.0][..]);
        let (cap, anchor) = ([10.0; 3], [0.3, 0.0, 0.3]);
        let mut plain = view_of(&[0.5, 1.0, 0.8]);
        let mut view = plain.clone();
        price_update(&acc, bg, bg_h, None, &cap, GAMMA, &mut plain);
        price_update(&acc, bg, bg_h, Some(&anchor), &cap, GAMMA, &mut view);
        assert!((plain.prices[0] - 0.507).abs() < 1e-12);
        assert!((view.prices[0] - (0.507 - 0.4 * 0.25 * 0.2)).abs() < 1e-12);
        // Far above its anchor, the anchored step clamps at zero where
        // the Newton step alone lands at 1 - 0.4·2 = 0.2.
        assert!((plain.prices[1] - 0.2).abs() < 1e-12);
        assert_eq!(view.prices[1], 0.0);
        // An idle link decays whatever its anchor says.
        assert_eq!(view.prices[2], 0.4);
        assert_eq!(view.ratios, plain.ratios);
        // Unsharded the term is γ·(p - anchor) itself.
        let mut view = view_of(&[0.5]);
        price_update(&acc, None, None, Some(&anchor), &[10.0], GAMMA, &mut view);
        let newton = 0.5 - GAMMA * 5.0 / -100.0;
        assert!((view.prices[0] - (newton - GAMMA * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn gradient_price_update_steps_by_the_excess_alone() {
        // Own 5 + background 10 on capacity 10: G = 5 whatever H says.
        let (mut prices, mut ratios) = (vec![0.1, 0.8, 0.7], vec![0.0; 3]);
        gradient_price_update(
            &[[5.0, -100.0], [0.0, 0.0], [123.0, -456.0]],
            Some(&[10.0, 25.0]),
            &[10.0, 10.0],
            0.01,
            &mut prices,
            &mut ratios,
        );
        assert!((prices[0] - 0.15).abs() < 1e-12); // 0.1 + 0.01·5
        assert_eq!(ratios[..2], [1.5, 2.5]);
        // No own load: the price decays, background or not.
        assert_eq!(prices[1], 0.4);
        // The sentinel is past `capacity`: untouched.
        assert_eq!((prices[2], ratios[2]), (0.7, 0.0));
        // A step that would go negative stops at zero.
        let mut p = vec![0.01];
        gradient_price_update(&[[1.0, -1.0]], None, &[10.0], 0.01, &mut p, &mut ratios);
        assert_eq!(p[0], 0.0);
    }

    #[test]
    fn price_update_leaves_the_sentinel_alone() {
        // Arrays one longer than `capacity`, as the engines pass them:
        // the sentinel's garbage accumulator must not reach its price.
        let mut view = view_of(&[0.1, 0.0]);
        let acc = [[15.0, -100.0], [123.0, -456.0]];
        price_update(&acc, None, None, None, &[10.0], 1.0, &mut view);
        assert_eq!((view.prices[1], view.ratios[1]), (0.0, 0.0));
    }

    #[test]
    fn normalize_pass_divides_by_worst_path_ratio() {
        let mut flows = block(&[(1.0, &[0], &[0], 10.0), (1.0, &[1], &[1], 10.0)]);
        let mut views = views();
        views[UP].ratios[..2].copy_from_slice(&[2.0, 0.5]);
        views[DOWN].ratios[..2].copy_from_slice(&[1.0, 0.25]);
        flows.rates.copy_from_slice(&[6.0, 6.0]);
        normalize_pass(&mut flows, ratios(&views));
        assert_eq!(flows.normalized[0], 3.0); // divided by 2.0
        assert_eq!(flows.normalized[1], 12.0); // scaled up by 1/0.5 — still capacity-safe
    }

    #[test]
    fn absorb_is_a_pairwise_sum_and_clear_zeroes() {
        let mut a = Accums::new(2);
        a.pairs[UP][..2].copy_from_slice(&[[1.0, -1.0], [2.0, 0.0]]);
        absorb(&mut a.pairs[UP][..2], &[[0.5, -1.0], [0.25, 0.0]]);
        // Two links, the sentinel, and padding up to a power of two.
        assert_eq!(padded_len(2), 4);
        assert_eq!(
            a.pairs[UP],
            vec![[1.5, -2.0], [2.25, 0.0], [0.0; 2], [0.0; 2]]
        );
        a.clear(2);
        assert_eq!(a.pairs[UP], vec![[0.0, 0.0]; 4]);
    }

    #[test]
    fn swap_remove_moves_every_column_together() {
        let mut b = block(&[
            (1.0, &[0], &[1], 10.0),
            (2.0, &[2, 3], &[4, 5], 20.0),
            (3.0, &[1], &[0, 2], 30.0),
        ]);
        b.rates.copy_from_slice(&[1.5, 2.5, 3.5]);
        b.normalized.copy_from_slice(&[1.25, 2.25, 3.25]);
        assert_eq!(b.swap_remove(0), Some(2));
        assert_eq!(b.len(), 2);
        assert_eq!(b.path(0), (&[1u16][..], &[0u16, 2][..]));
        assert_eq!((b.weight[0], b.floor[0]), (3.0, 0.1));
        let moved = b.flow_rate(0);
        assert_eq!(
            (moved.id, moved.rate, moved.normalized),
            (FlowId(2), 3.5, 3.25)
        );
        assert_eq!(b.path(1), (&[2u16, 3][..], &[4u16, 5][..]));
        assert_eq!(b.swap_remove(1), None, "the last flow moves nothing");
        assert_eq!(b.swap_remove(0), None);
        assert!(b.is_empty() && b.up.is_empty() && b.normalized.is_empty());
        assert!(b.reported.is_empty());
    }

    // The kernels mask offsets instead of checking them, so the check
    // is here: one above the sentinel is refused in each position.
    #[test]
    #[should_panic(expected = "offset past the LinkBlock's 6 links")]
    fn push_refuses_a_first_up_offset_past_the_sentinel() {
        block(&[(1.0, &[7, 0], &[0, 1], 10.0)]);
    }

    #[test]
    #[should_panic(expected = "offset past the LinkBlock's 6 links")]
    fn push_refuses_a_second_up_offset_past_the_sentinel() {
        block(&[(1.0, &[0, 7], &[0, 1], 10.0)]);
    }

    #[test]
    #[should_panic(expected = "offset past the LinkBlock's 6 links")]
    fn push_refuses_a_first_down_offset_past_the_sentinel() {
        block(&[(1.0, &[0, 1], &[u16::MAX, 0], 10.0)]);
    }

    #[test]
    #[should_panic(expected = "offset past the LinkBlock's 6 links")]
    fn push_refuses_a_second_down_offset_past_the_sentinel() {
        block(&[(1.0, &[0, 1], &[0, 7], 10.0)]);
    }

    #[test]
    fn the_widest_linkblock_a_u16_offset_holds_is_admitted() {
        let mut b = FlowBlock::new(u16::MAX as usize);
        b.push(0, 1.0, &[u16::MAX - 1], &[u16::MAX], 10.0);
        assert_eq!(b.path(0), (&[u16::MAX - 1][..], &[][..]));
    }

    #[test]
    #[should_panic(expected = "a LinkBlock of 65536 links: its sentinel does not fit a u16 offset")]
    fn new_refuses_a_linkblock_whose_sentinel_does_not_fit_u16() {
        FlowBlock::new(1 << 16);
    }

    #[test]
    #[should_panic(expected = "padded to one power-of-two length")]
    fn kernels_refuse_per_link_arrays_that_are_not_padded() {
        let mut flows = block(&[(1.0, &[0], &[1], 10.0)]);
        let mut views = views();
        views[DOWN].prices.truncate(LINKS + 1);
        rate_pass(&mut flows, prices(&views), &mut Accums::new(LINKS));
    }

    /// One drain: what `report_pass` lends, as `(id, rate bits)`, after
    /// checking every run is one chunk's worth at most.
    fn drain(flows: &mut FlowBlock, threshold: f64) -> Vec<(FlowId, u64)> {
        let (mut lent, mut runs) = (Vec::new(), 0);
        report_pass(flows, threshold, &mut |ids, rates| {
            assert_eq!(ids.len(), rates.len());
            assert!((1..=CHUNK).contains(&ids.len()), "run of {}", ids.len());
            runs += 1;
            lent.extend(ids.iter().zip(rates).map(|(&id, r)| (id, r.to_bits())));
        });
        assert!(runs <= flows.len().div_ceil(CHUNK), "one run a chunk");
        lent
    }

    #[test]
    fn every_column_grows_by_a_quarter_not_double() {
        let mut b = FlowBlock::new(LINKS);
        for n in 1..=20_000 {
            b.push(n as u32, 1.0, &[0], &[1], 10.0);
            let caps = [
                b.ids.capacity(),
                b.up.capacity(),
                b.down.capacity(),
                b.weight.capacity(),
                b.floor.capacity(),
                b.rates.capacity(),
                b.normalized.capacity(),
                b.reported.capacity(),
            ];
            assert!(
                caps.iter().all(|&cap| cap <= grow::bound(n)),
                "{caps:?} slots for {n} flows"
            );
        }
    }

    #[test]
    fn swap_remove_carries_the_report_memory_with_the_flow() {
        let mut b = block(&[
            (1.0, &[0], &[1], 10.0),
            (1.0, &[2], &[3], 10.0),
            (1.0, &[4], &[5], 10.0),
        ]);
        b.normalized.copy_from_slice(&[1.0, 2.0, 3.0]);
        let first = drain(&mut b, 0.01);
        assert_eq!(first.len(), 3, "never-reported flows always are");
        assert_eq!(drain(&mut b, 0.01), vec![], "nothing moved");
        // Flow 2 moves into slot 0 with what was reported for it; the
        // newcomer pushed behind it has no memory, whatever the slot's
        // earlier tenants were told.
        assert_eq!(b.swap_remove(0), Some(2));
        b.push(9, 1.0, &[0], &[1], 10.0);
        assert_eq!(bits(&b.reported[..2]), bits(&[3.0, 2.0]));
        assert!(b.reported[2].is_nan());
        b.normalized[2] = 3.0;
        assert_eq!(drain(&mut b, 0.01), vec![(FlowId(9), 3.0f64.to_bits())]);
        // A move of 0.5 % stays silent, 2 % does not, and the memory is
        // the last *reported* rate, not the last seen.
        b.normalized[0] = 3.015;
        assert_eq!(drain(&mut b, 0.01), vec![]);
        b.normalized[0] = 3.045;
        assert_eq!(drain(&mut b, 0.01), vec![(FlowId(2), 3.045f64.to_bits())]);
    }

    /// Where the pair loop's seams fall: which flows of a pair are
    /// same-rack (one real hop each way, one padded) and which share
    /// links.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        /// 1-hop and 2-hop paths mixed freely.
        Mixed,
        /// The first flow of every pair is padded, the second is not.
        PaddedFirst,
        /// The second flow of every pair is padded, the first is not.
        PaddedLast,
        /// Only the last flow is padded: alone in the scalar tail when
        /// the count is odd.
        PaddedTail,
        /// Both flows of a pair run over the same four links, so the
        /// second's adds land on what the first's just stored.
        Twins,
    }

    const SHAPES: [Shape; 5] = [
        Shape::Mixed,
        Shape::PaddedFirst,
        Shape::PaddedLast,
        Shape::PaddedTail,
        Shape::Twins,
    ];

    /// A random FlowBlock in both layouts with a random view: weights
    /// 1–4, some prices and ratios zero, paths as `shape` says. Link 0 is
    /// free and idle both ways and every seventh flow runs over it alone,
    /// whatever the shape: pinned at its `x_max` floor, with no ratio to
    /// divide by.
    fn random_case(
        n: usize,
        shape: Shape,
        seed: u64,
    ) -> (FlowBlock, Vec<oracle::BlockFlow>, [PriceView; 2]) {
        let mut rng = TestRng::deterministic(&format!("flowblock-{seed}"));
        let mut views = views();
        for l in 0..LINKS {
            let mut draw = || match rng.below(4) {
                0 => 0.0,
                _ => rng.unit_f64() * 3.0,
            };
            views[UP].prices[l] = draw();
            views[DOWN].prices[l] = draw();
            views[UP].ratios[l] = draw();
            views[DOWN].ratios[l] = draw();
        }
        for view in &mut views {
            view.prices[0] = 0.0;
            view.ratios[0] = 0.0;
        }
        let mut columnar = FlowBlock::new(LINKS);
        let mut aos: Vec<oracle::BlockFlow> = Vec::new();
        for i in 0..n {
            let path = |rng: &mut TestRng, hops: usize| -> Vec<u16> {
                (0..hops).map(|_| rng.below(LINKS) as u16).collect()
            };
            let padded = match shape {
                Shape::Mixed => None,
                Shape::PaddedFirst => Some(i % 2 == 0),
                Shape::PaddedLast => Some(i % 2 == 1),
                Shape::PaddedTail => Some(i + 1 == n),
                Shape::Twins => Some(false),
            };
            let (up, down) = match (i % 7, padded) {
                (0, _) => (vec![0], vec![0]),
                _ if shape == Shape::Twins && i % 2 == 1 => {
                    (aos[i - 1].up.clone(), aos[i - 1].down.clone())
                }
                (_, Some(true)) => (path(&mut rng, 1), path(&mut rng, 1)),
                (_, Some(false)) => (path(&mut rng, 2), path(&mut rng, 2)),
                (_, None) => {
                    let (ups, downs) = (1 + rng.below(2), 1 + rng.below(2));
                    (path(&mut rng, ups), path(&mut rng, downs))
                }
            };
            let weight = 1.0 + rng.below(4) as f64;
            let x_max = [10.0, 39.6, 40.0][rng.below(3)];
            columnar.push(i as u32, weight, &up, &down, x_max);
            aos.push(oracle::BlockFlow {
                weight,
                up,
                down,
                x_max,
            });
        }
        (columnar, aos, views)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn column(pairs: &[[f64; 2]], half: usize) -> Vec<u64> {
        pairs[..LINKS].iter().map(|p| p[half].to_bits()).collect()
    }

    /// Both flow kernels against the oracle on one random case: rates,
    /// all four accumulator columns and normalized rates, by bits.
    fn check_kernels_against_oracle(n: usize, shape: Shape, zero_rates: bool, seed: u64) {
        let case = format!("n {n}, {shape:?}, zero_rates {zero_rates}, seed {seed}");
        let (mut flows, aos, views) = random_case(n, shape, seed);
        let mut acc = Accums::new(LINKS);
        let mut want_acc = oracle::Accums::new(LINKS);
        let mut want_rates = vec![0.0; n];
        rate_pass(&mut flows, prices(&views), &mut acc);
        oracle::rate_pass(&aos, prices(&views), &mut want_acc, &mut want_rates);
        assert_eq!(bits(&flows.rates), bits(&want_rates), "{case}");
        let [up, down] = &acc.pairs;
        assert_eq!(column(up, 0), bits(&want_acc.up_load), "{case}");
        assert_eq!(column(up, 1), bits(&want_acc.up_h), "{case}");
        assert_eq!(column(down, 0), bits(&want_acc.down_load), "{case}");
        assert_eq!(column(down, 1), bits(&want_acc.down_h), "{case}");
        let padding = up[LINKS + 1..].iter().chain(&down[LINKS + 1..]);
        assert!(
            padding.flatten().all(|x| x.to_bits() == 0),
            "no offset reaches past the sentinel: {case}"
        );
        let pinned = aos
            .iter()
            .zip(&flows.rates)
            .filter(|(f, &r)| r == f.x_max)
            .count();
        assert!(
            pinned >= n.div_ceil(7),
            "every seventh flow sits at its x_max floor: {case}"
        );
        if zero_rates {
            // Flows added since the last rate pass: F-NORM must map
            // their zero rate to zero whatever their path's ratios.
            for r in flows.rates.iter_mut().step_by(3) {
                *r = 0.0;
            }
            want_rates.clone_from(&flows.rates);
        }
        let mut want_normalized = vec![f64::NAN; n];
        normalize_pass(&mut flows, ratios(&views));
        oracle::normalize_pass(&aos, ratios(&views), &want_rates, &mut want_normalized);
        assert_eq!(bits(&flows.normalized), bits(&want_normalized), "{case}");
    }

    /// The sizes and shapes the pair loop makes interesting, each one
    /// every run: nothing, the tail alone, one pair, a pair and a tail,
    /// and the seams of the 64-flow stages the loop replaced.
    #[test]
    fn kernels_match_the_aos_oracle_at_every_seam() {
        for n in [0, 1, 2, 3, 63, 64, 65, 129] {
            for shape in SHAPES {
                for zero_rates in [false, true] {
                    check_kernels_against_oracle(n, shape, zero_rates, n as u64);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn kernels_match_the_aos_oracle_bit_for_bit(
            n in prop_oneof![Just(1000usize), 0usize..300],
            shape in 0..SHAPES.len(),
            zero_rates in any::<bool>(),
            seed in any::<u64>(),
        ) {
            check_kernels_against_oracle(n, SHAPES[shape], zero_rates, seed);
        }

        // An anchor at the price adds `H·0`: the anchored step is the
        // unanchored one bit for bit, which keeps an exact incremental
        // grid on the full sweep's trajectory.
        #[test]
        fn an_anchor_at_the_price_changes_no_bit(
            n in 0usize..40,
            background in any::<bool>(),
            background_h in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::deterministic(&format!("anchor-{seed}"));
            let capacity: Vec<f64> = (0..n).map(|_| 1.0 + rng.unit_f64() * 40.0).collect();
            // Idle, balanced and free links beside random loads and prices.
            let acc: Vec<[f64; 2]> = capacity
                .iter()
                .map(|&c| match rng.below(4) {
                    0 => [0.0, 0.0],
                    1 => [c, -rng.unit_f64() * 50.0],
                    _ => [rng.unit_f64() * 2.0 * c, -rng.unit_f64() * 50.0],
                })
                .collect();
            let prices: Vec<f64> = (0..n)
                .map(|_| if rng.below(4) == 0 { 0.0 } else { rng.unit_f64() * 3.0 })
                .collect();
            let bg: Vec<f64> = (0..n).map(|_| rng.unit_f64() * 10.0).collect();
            let bg_h: Vec<f64> = (0..n).map(|_| -rng.unit_f64() * 50.0).collect();
            let bg = background.then_some(&bg[..]);
            let bg_h = background_h.then_some(&bg_h[..]);
            let mut plain = view_of(&prices);
            let mut anchored = view_of(&prices);
            price_update(&acc, bg, bg_h, None, &capacity, GAMMA, &mut plain);
            price_update(&acc, bg, bg_h, Some(&prices), &capacity, GAMMA, &mut anchored);
            prop_assert_eq!(bits(&plain.prices), bits(&anchored.prices));
            prop_assert_eq!(bits(&plain.ratios), bits(&anchored.ratios));
        }

        // `report_pass` against the rule it packs: the scalar
        // `ThresholdFilter::passes` over a `Vec` of what each flow was
        // last sent, through several drains with churn in between.
        #[test]
        fn report_pass_matches_the_scalar_rule_bit_for_bit(
            n in prop_oneof![
                Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(129), 0usize..300
            ],
            threshold in prop_oneof![Just(0.0f64), Just(0.01), Just(0.5), Just(0.25)],
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::deterministic(&format!("report-{seed}"));
            let mut flows = FlowBlock::new(LINKS);
            let mut sent: Vec<Option<f64>> = Vec::new();
            let mut next_id = 0u32;
            let mut push = |flows: &mut FlowBlock, sent: &mut Vec<Option<f64>>| {
                flows.push(next_id, 1.0, &[0], &[0], 10.0);
                sent.push(None);
                next_id += 1;
            };
            for _ in 0..n {
                push(&mut flows, &mut sent);
            }
            for round in 0..5 {
                // Whole-block shapes first: everything new, nothing moved,
                // only the first and last flow of every chunk moved; then
                // a free mix.
                let shape = if round < 3 { round } else { 3 + rng.below(2) };
                let len = flows.len();
                for (i, rate) in flows.normalized.iter_mut().enumerate() {
                    let last = sent[i].unwrap_or(1.0);
                    let edge = i % CHUNK == 0 || i % CHUNK == CHUNK - 1 || i + 1 == len;
                    *rate = match (shape, edge) {
                        (0, _) | (2, true) => rng.unit_f64() * 40.0,
                        (1, _) | (2, false) => sent[i].unwrap_or(*rate),
                        _ => match rng.below(8) {
                            0 => 0.0,
                            1 => last,
                            // On the boundary as nearly as floats allow,
                            // from both sides (exactly on it for the
                            // dyadic thresholds).
                            2 => last * (1.0 + threshold),
                            3 => last * (1.0 - threshold),
                            4 => last * (1.0 + threshold) * (1.0 + f64::EPSILON),
                            5 => last * (1.0 + rng.unit_f64() * 2.0 * threshold),
                            6 => f64::MIN_POSITIVE * rng.unit_f64(),
                            _ => rng.unit_f64() * 40.0,
                        },
                    };
                }
                let mut want = Vec::new();
                for ((&id, &rate), last) in flows.ids.iter().zip(&flows.normalized).zip(&mut sent) {
                    if ThresholdFilter::passes(threshold, *last, rate) {
                        *last = Some(rate);
                        want.push((FlowId(u64::from(id)), rate.to_bits()));
                    }
                }
                prop_assert_eq!(drain(&mut flows, threshold), want, "round {}", round);
                let memory: Vec<Option<u64>> = flows
                    .reported
                    .iter()
                    .map(|r| (!r.is_nan()).then_some(r.to_bits()))
                    .collect();
                let want_memory: Vec<Option<u64>> =
                    sent.iter().map(|s| s.map(f64::to_bits)).collect();
                prop_assert_eq!(memory, want_memory, "round {}", round);
                // Churn: a few flows leave (their successors in the slot
                // keep their own memory), a few never-reported ones join.
                for _ in 0..rng.below(4).min(flows.len()) {
                    let slot = rng.below(flows.len());
                    flows.swap_remove(slot);
                    sent.swap_remove(slot);
                }
                for _ in 0..rng.below(4) {
                    push(&mut flows, &mut sent);
                }
            }
        }
    }
}
