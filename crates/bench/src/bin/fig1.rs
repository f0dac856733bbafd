//! Renders paper **Figure 1** (the 2-D fragment schematic) as text, from
//! the actual `FragmentGrid` machinery: the division of space, the four
//! fragment types per corner with their `α` signs, and the net coverage
//! proof (partition of unity) evaluated on a real grid.
//!
//! Run: `cargo run -p ls3df-bench --bin fig1 --release`

use ls3df_core::{Fragment, FragmentGrid};
use ls3df_grid::Grid3;

fn main() {
    println!("Figure 1 — division of space and fragment pieces from corner (i,j)");
    println!("(2-D cross-section of the 3-D scheme; z size fixed at 2 so the");
    println!(" x-y signs match the paper's 2-D figure)\n");

    // The four 2-D fragment types from one corner, as x-y slices of the
    // 3-D fragments with s_z = 2.
    for (s1, s2) in [(1usize, 1usize), (1, 2), (2, 1), (2, 2)] {
        let f = Fragment::new([0, 0, 0], [s1, s2, 2]);
        let alpha = f.alpha();
        println!("fragment {}x{} (x-y), α = {:+}", s1, s2, alpha as i64);
        for row in (0..2).rev() {
            let mut line = String::from("   ");
            for col in 0..2 {
                if col < s1 && row < s2 {
                    line.push_str(if alpha > 0.0 { "[++]" } else { "[--]" });
                } else {
                    line.push_str(" .. ");
                }
            }
            println!("{line}");
        }
        println!();
    }

    // Net coverage per piece from one corner: 8 − 3·4 + 3·2 − 1 = 1.
    let per_corner: f64 = [
        (2, 2, 2, 1.0),
        (1, 2, 2, -1.0),
        (2, 1, 2, -1.0),
        (2, 2, 1, -1.0),
        (1, 1, 2, 1.0),
        (1, 2, 1, 1.0),
        (2, 1, 1, 1.0),
        (1, 1, 1, -1.0),
    ]
    .iter()
    .map(|&(a, b, c, sign): &(usize, usize, usize, f64)| sign * (a * b * c) as f64)
    .sum();
    println!("signed volume per corner: 8 − 3·4 + 3·2 − 1 = {per_corner} piece\n");

    // And the real partition-of-unity check on a 4×4×4 decomposition.
    let m = [4usize, 4, 4];
    let grid = Grid3::new([8, 8, 8], [4.0, 4.0, 4.0]);
    let fg = FragmentGrid::new(m, &grid, [1, 1, 1]).expect("valid decomposition");
    println!(
        "partition of unity on a {}x{}x{} decomposition ({} fragments): max deviation = {:e}",
        m[0],
        m[1],
        m[2],
        fg.n_fragments(),
        fg.partition_of_unity(&grid)
    );
    println!("\nevery point of the supercell is covered with net weight exactly 1, while");
    println!("every artificial fragment surface appears once with +1 and once with −1 —");
    println!("the cancellation that makes LS3DF agree with direct DFT.");
}
