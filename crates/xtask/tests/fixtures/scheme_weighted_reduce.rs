//! lint-path: crates/core/src/fragment.rs
//!
//! α-weighted accumulations: an α-weighted parallel reduction is
//! exactly the schedule-shaped float sum the determinism contract bans
//! (weights of mixed sign make the combine order visible in the last
//! bits). The ordered-collect house pattern and audited sites are
//! silent.

fn bad_weighted_sum(fragments: &[Fragment], densities: &[f64]) -> f64 {
    fragments
        .par_iter()
        .zip(densities.par_iter())
        .map(|(f, rho)| f.alpha() * rho)
        .sum::<f64>() //~ ERROR float-reduce
}

fn bad_weight_accumulate(fragments: &[Fragment], total: &mut f64) {
    fragments.par_iter().for_each(|f| {
        *total += f.alpha(); //~ ERROR float-reduce
    });
}

fn ordered_weighted_sum(fragments: &[Fragment], densities: &[f64]) -> f64 {
    // House pattern: materialize per-fragment parts in index order, then
    // reduce sequentially — the α signs cancel in a fixed order.
    let parts: Vec<f64> = fragments
        .par_iter()
        .zip(densities.par_iter())
        .map(|(f, rho)| f.alpha() * rho)
        .collect();
    parts.iter().sum()
}

fn audited_solve_count(fragments: &[Fragment]) -> u64 {
    // reduce-audit: integer fragment count — order-free, no floats.
    fragments.par_iter().map(|f| f.n_pieces() as u64).sum::<u64>()
}

fn sequential_weighted(fragments: &[Fragment]) -> f64 {
    fragments.iter().map(|f| f.alpha()).sum::<f64>()
}
