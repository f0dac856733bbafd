//! Fragment→processor-group assignment (the paper's two-level hierarchy).
//!
//! LS3DF §III divides the machine into `M` processor groups, each solving
//! its own set of fragments between the global Gen_dens/GENPOT steps. The
//! balance of that division decides the weak-scaling slope, and the paper
//! balances on a *per-fragment cost model*, not a fragment count.
//!
//! The assignment here follows the JAIST domain-decomposition recipe:
//!
//! 1. order fragments along a **space-filling curve** (Morton order of
//!    the fragment corner indices), so each group owns a spatially
//!    compact run of fragments rather than a scatter;
//! 2. weight each fragment with an **integer cost model**
//!    `n_pieces · (1 + atoms in region)` — the solve cost grows with the
//!    fragment volume and with the nonlocal-projector count, both of
//!    which the atom count proxies. Integer costs keep the plan
//!    platform-deterministic (no float comparisons);
//! 3. **greedy bin-packing over the curve**: walk the curve once,
//!    filling group `g` until it reaches the running target
//!    `ceil(remaining cost / groups left)`, with a feasibility guard
//!    that leaves at least one fragment for every later group.
//!
//! The calculation plans translation classes rather than fragments
//! ([`plan_class_groups`]): a class walks the curve as one unit at its
//! representative's place and cost, so it never spans groups, and a
//! system without shared classes plans exactly as [`plan_groups`].
//!
//! The adaptive target makes the imbalance provably small: targets are
//! non-increasing along the walk, so every group's cost is below
//! `ceil(total/M) + max single fragment cost` — i.e. the max/mean
//! imbalance is bounded by the heaviest single fragment over the mean
//! (the bound the proptest in `tests/group_balance.rs` checks exactly).
//!
//! The plan is a pure function of geometry and group count. It never
//! feeds the density patching path, so group count cannot perturb
//! physics — bit-identity across group counts is enforced separately
//! by the cross-process digest gate.

use crate::fragment::FragmentGrid;
use ls3df_atoms::Structure;

/// A fragment→group assignment for `n_groups` processor groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupPlan {
    /// Number of processor groups (world size; group 0 is the global
    /// layer's own group).
    pub n_groups: usize,
    /// `owner[f]` is the group that solves fragment `f` (canonical
    /// fragment-grid index).
    pub owner: Vec<usize>,
    /// Fragment indices per group, ascending. Groups may be empty when
    /// there are fewer fragments than groups.
    pub groups: Vec<Vec<usize>>,
    /// Modeled cost per group (sum of member fragment costs).
    pub costs: Vec<u64>,
}

/// Spreads the low 21 bits of `x` so consecutive bits land 3 apart
/// (the standard 3-D Morton dilation).
fn spread_bits(x: u64) -> u64 {
    let mut v = x & 0x1f_ffff; // 21 bits per axis fills 63 bits
    v = (v | (v << 32)) & 0x001f_0000_0000_ffff;
    v = (v | (v << 16)) & 0x001f_0000_ff00_00ff;
    v = (v | (v << 8)) & 0x100f_00f0_0f00_f00f;
    v = (v | (v << 4)) & 0x10c3_0c30_c30c_30c3;
    v = (v | (v << 2)) & 0x1249_2492_4924_9249;
    v
}

/// Morton (Z-order) key of a fragment corner: spatially close corners
/// get numerically close keys, so contiguous curve runs are compact
/// spatial blocks.
fn morton_key(corner: [usize; 3]) -> u64 {
    spread_bits(corner[0] as u64)
        | (spread_bits(corner[1] as u64) << 1)
        | (spread_bits(corner[2] as u64) << 2)
}

/// Number of atoms whose wrapped position falls inside the fragment's
/// region `[lo, hi)` (periodic per axis).
fn atoms_in_region(structure: &Structure, lo: [f64; 3], hi: [f64; 3]) -> u64 {
    let lengths = structure.lengths;
    structure
        .atoms
        .iter()
        .filter(|a| {
            (0..3).all(|d| {
                let span = hi[d] - lo[d];
                let rel = (a.pos[d] - lo[d]).rem_euclid(lengths[d]);
                rel < span
            })
        })
        .count() as u64
}

/// The integer cost model: fragment volume (piece count) scaled by one
/// plus the atoms inside its region. Every fragment costs at least 1.
fn fragment_cost(fg: &FragmentGrid, structure: &Structure, f: &crate::fragment::Fragment) -> u64 {
    let (lo, hi) = fg.region_bounds(f);
    f.n_pieces() as u64 * (1 + atoms_in_region(structure, lo, hi))
}

/// Modeled per-fragment solve costs in canonical fragment order — the
/// bin-packing inputs of [`plan_groups`], exposed so balance tests and
/// benchmarks can state the imbalance bound exactly.
pub fn fragment_costs(fg: &FragmentGrid, structure: &Structure) -> Vec<u64> {
    fg.fragments()
        .iter()
        .map(|f| fragment_cost(fg, structure, f))
        .collect()
}

/// Assigns fragments to `n_groups` processor groups, each fragment a
/// class of its own ([`plan_class_groups`] with no sharing).
///
/// Deterministic for a fixed geometry and group count: the curve order,
/// the integer cost model, and the greedy walk contain no floating-point
/// comparisons, hashing, or iteration-order dependence. Fragments are
/// indexed in the fragment grid's canonical order.
pub fn plan_groups(fg: &FragmentGrid, structure: &Structure, n_groups: usize) -> GroupPlan {
    let singletons: Vec<usize> = (0..fg.n_fragments()).collect();
    plan_class_groups(fg, structure, &singletons, n_groups)
}

/// Assigns translation classes to `n_groups` processor groups;
/// `rep_of[f]` is fragment `f`'s representative, the lowest index of its
/// class (`Ls3df::representatives`).
///
/// The walk moves whole classes: a class sits at its representative's
/// place on the curve, costs what its representative costs (its members
/// take that one solution), and its members follow it into the same
/// group. With every fragment its own representative this is the plan of
/// [`plan_groups`].
pub fn plan_class_groups(
    fg: &FragmentGrid,
    structure: &Structure,
    rep_of: &[usize],
    n_groups: usize,
) -> GroupPlan {
    let n = fg.n_fragments();
    let g = n_groups.max(1);
    let fragments = fg.fragments();

    // Space-filling-curve order of the representatives; ties (fragments
    // of different sizes sharing a corner) break on the canonical index.
    let mut curve: Vec<usize> = (0..n).filter(|&i| rep_of[i] == i).collect();
    curve.sort_by_key(|&i| (morton_key(fragments[i].corner), i));
    let units = curve.len();

    let cost: Vec<u64> = fragments
        .iter()
        .map(|f| fragment_cost(fg, structure, f))
        .collect();
    let mut remaining_cost: u64 = curve.iter().map(|&r| cost[r]).sum();

    let mut class_owner = vec![0usize; n];
    let mut costs = vec![0u64; g];
    let mut pos = 0usize;
    for gi in 0..g {
        let groups_left = g - gi;
        // Adaptive target: the mean of what is still unassigned. Taking
        // at least the target each round makes later targets no larger,
        // which is what bounds the final imbalance.
        let target = remaining_cost.div_ceil(groups_left as u64);
        let mut acc = 0u64;
        while pos < units && acc < target && (units - pos) > (groups_left - 1) {
            let r = curve[pos];
            class_owner[r] = gi;
            acc += cost[r];
            pos += 1;
        }
        remaining_cost -= acc;
        costs[gi] = acc;
    }
    debug_assert_eq!(pos, units, "every class assigned");
    // Members follow their representative.
    let owner: Vec<usize> = rep_of.iter().map(|&r| class_owner[r]).collect();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); g];
    for (f, &gi) in owner.iter().enumerate() {
        groups[gi].push(f);
    }
    GroupPlan {
        n_groups: g,
        owner,
        groups,
        costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_grid::Grid3;

    #[test]
    fn one_group_owns_every_fragment_at_the_full_cost() {
        let s = Structure::new([8.0; 3], Vec::new());
        let global = Grid3::new([8, 8, 8], s.lengths);
        let fg = FragmentGrid::new([2, 2, 2], &global, [1, 1, 1]).expect("valid decomposition");
        let plan = plan_groups(&fg, &s, 1);
        let all: Vec<usize> = (0..fg.n_fragments()).collect();
        assert_eq!((plan.n_groups, &plan.groups), (1, &vec![all]));
        assert!(plan.owner.iter().all(|&g| g == 0));
        assert_eq!(plan.costs, [fragment_costs(&fg, &s).iter().sum::<u64>()]);
    }

    #[test]
    fn spread_bits_interleaves_cleanly() {
        // 0b111 spread 3 apart: bits 0, 3, 6.
        assert_eq!(spread_bits(0b111), 0b1001001);
        // Keys of distinct corners are distinct.
        let a = morton_key([1, 0, 0]);
        let b = morton_key([0, 1, 0]);
        let c = morton_key([0, 0, 1]);
        assert!(a != b && b != c && a != c);
        // Axis 0 is the least-significant interleave slot.
        assert_eq!(morton_key([1, 0, 0]), 1);
        assert_eq!(morton_key([0, 1, 0]), 2);
        assert_eq!(morton_key([0, 0, 1]), 4);
    }
}
