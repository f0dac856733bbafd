//! Bit-identity tests for the batched strided line-transform API.
//!
//! The zero-allocation hot path routes the 3-D y/z passes through
//! `Fft1d::forward_strided`/`inverse_strided` — mixed-radix plans run
//! their butterflies on the strided rows with the line index innermost,
//! the in-place kernels gather lines in blocks through a workspace — and
//! the x pass through a blocked transpose of contiguous lines. These
//! tests pin down the contract that every batched path is
//! **bit-identical** (exact `==` on both f64 components, not a
//! tolerance) to transforming each line one at a time with the classic
//! per-line API, across mixed-radix (powers of two included), Bluestein
//! (a prime factor above 13), and length-1 (trivial) plans — and that
//! columns beyond `n_lines` are left untouched.

use ls3df_fft::{Fft1d, Fft3};
use ls3df_math::c64;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn lcg_field(len: usize, seed: u64) -> Vec<c64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
    };
    (0..len).map(|_| c64::new(next(), next())).collect()
}

fn bits_equal(a: &[c64], b: &[c64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Reference: transform line `l` of the strided layout by copying it out,
/// running the unbatched per-line API, and copying it back.
fn line_by_line(plan: &Fft1d, data: &mut [c64], n_lines: usize, stride: usize, fwd: bool) {
    let n = plan.len();
    let mut line = vec![c64::ZERO; n];
    let mut ws = plan.workspace();
    for l in 0..n_lines {
        for (i, v) in line.iter_mut().enumerate() {
            *v = data[i * stride + l];
        }
        if fwd {
            plan.forward_with(&mut line, &mut ws);
        } else {
            plan.inverse_with(&mut line, &mut ws);
        }
        for (i, &v) in line.iter().enumerate() {
            data[i * stride + l] = v;
        }
    }
}

fn check_strided(n: usize, n_lines: usize, stride: usize, seed: u64) -> Result<(), TestCaseError> {
    let plan = Fft1d::new(n);
    let mut ws = plan.workspace();
    let data = lcg_field(n * stride, seed);

    for fwd in [true, false] {
        let mut batched = data.clone();
        if fwd {
            plan.forward_strided(&mut batched, n_lines, stride, &mut ws);
        } else {
            plan.inverse_strided(&mut batched, n_lines, stride, &mut ws);
        }
        let mut reference = data.clone();
        line_by_line(&plan, &mut reference, n_lines, stride, fwd);
        prop_assert!(
            bits_equal(&batched, &reference),
            "strided != line-by-line (n={n}, n_lines={n_lines}, stride={stride}, fwd={fwd})"
        );
        // Columns l >= n_lines must be untouched by the batched call.
        for i in 0..n {
            for l in n_lines..stride {
                let idx = i * stride + l;
                prop_assert!(
                    bits_equal(&batched[idx..=idx], &data[idx..=idx]),
                    "tail column {l} modified (n={n}, fwd={fwd})"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    /// Batched == line-by-line across mixed-radix (powers of two
    /// included), Bluestein (17, 19, 23, 34, 38) and trivial plans, for every
    /// (n_lines, stride) shape including partial blocks — the
    /// mixed-radix kernel works 16 lines at a time, so strides up to 40
    /// cover zero, one and two full blocks plus a ragged tail —
    /// n_lines == 0, and n_lines < stride tails.
    #[test]
    fn strided_matches_line_by_line(
        n in 1usize..41,
        stride in 1usize..41,
        frac in 0usize..=20,
        seed in 0u64..1_000,
    ) {
        let n_lines = (stride * frac) / 20; // 0..=stride
        check_strided(n, n_lines, stride, seed)?;
    }

    /// Full 3-D transform through workspaces == the same passes done
    /// line-by-line with the unbatched 1-D API, bit for bit.
    #[test]
    fn fft3_workspace_matches_line_by_line_passes(
        n1 in 1usize..7,
        n2 in 1usize..7,
        n3 in 1usize..7,
        seed in 0u64..1_000,
    ) {
        check_fft3(n1, n2, n3, seed)?;
    }
}

/// Full 3-D transform through workspaces vs the same three passes done
/// one line at a time with the unbatched 1-D API.
fn check_fft3(n1: usize, n2: usize, n3: usize, seed: u64) -> Result<(), TestCaseError> {
    let plan = Fft3::new(n1, n2, n3);
    let mut ws = plan.workspace();
    let data = lcg_field(n1 * n2 * n3, seed);

    for fwd in [true, false] {
        let mut got = data.clone();
        if fwd {
            plan.forward_with(&mut got, &mut ws);
        } else {
            plan.inverse_with(&mut got, &mut ws);
        }

        // Reference: x pass on contiguous lines, then y and z passes
        // line-by-line via the classic API.
        let mut expect = data.clone();
        let (px, py, pz) = (Fft1d::new(n1), Fft1d::new(n2), Fft1d::new(n3));
        let mut wx = px.workspace();
        for line in expect.chunks_mut(n1) {
            if fwd {
                px.forward_with(line, &mut wx)
            } else {
                px.inverse_with(line, &mut wx)
            }
        }
        for plane in expect.chunks_mut(n1 * n2) {
            line_by_line(&py, plane, n1, n1, fwd);
        }
        line_by_line(&pz, &mut expect, n1 * n2, n1 * n2, fwd);

        prop_assert!(
            bits_equal(&got, &expect),
            "Fft3 workspace path != reference ({n1},{n2},{n3}, fwd={fwd})"
        );
    }
    Ok(())
}

/// The fragment boxes of the committed workloads (and one with a
/// Bluestein axis): the blocked x pass and the row-wise y/z passes of
/// the mixed-radix kernel against per-line transforms, bit for bit.
#[test]
fn fft3_fragment_boxes_match_line_by_line_passes() {
    for (n1, n2, n3) in [(12, 18, 18), (14, 14, 22), (22, 14, 6), (18, 17, 12)] {
        check_fft3(n1, n2, n3, (n1 * n2 * n3) as u64).unwrap();
    }
}

/// Deterministic anchors for the shapes the SCF loop actually uses.
#[test]
fn fixed_shapes_batched_equivalence() {
    // (n, n_lines, stride): mixed-radix (incl. powers of two, the
    // fragment box edges and the paper's 40), Bluestein, and dimension-1
    // cases.
    for &(n, n_lines, stride) in &[
        (8usize, 8usize, 8usize), // mixed 4·2, full block multiple
        (8, 5, 8),                // mixed 4·2, partial final block
        (12, 10, 10),             // mixed 4·3, n_lines == stride < one block
        (14, 196, 196),           // mixed 7·2: the 14³ z pass
        (18, 37, 40),             // mixed 3·3·2 (three stages), ragged tail
        (22, 33, 33),             // mixed 11·2, two blocks + one line
        (26, 17, 17),             // mixed 13·2, one block + one line
        (9, 3, 7),                // mixed 3·3, tail columns untouched
        (7, 5, 9),                // single-stage plan (copy-back path)
        (34, 9, 12),              // Bluestein (17·2)
        (1, 5, 8),                // trivial plan: identity
        (40, 40, 40),             // the paper's per-cell grid edge
        (40, 1, 1),               // single line through the batch path
    ] {
        check_strided(n, n_lines, stride, 42 + n as u64).unwrap();
    }
}

/// The allocating `forward`/`inverse` wrappers and the workspace path
/// agree bit-for-bit on the paper's 40³ grid.
#[test]
fn fft3_wrapper_matches_workspace_on_40_cubed() {
    let plan = Fft3::new(40, 40, 40);
    let mut ws = plan.workspace();
    let data = lcg_field(40 * 40 * 40, 7);

    let mut a = data.clone();
    plan.forward(&mut a);
    let mut b = data.clone();
    plan.forward_with(&mut b, &mut ws);
    assert!(bits_equal(&a, &b), "forward wrapper != workspace path");

    plan.inverse(&mut a);
    plan.inverse_with(&mut b, &mut ws); // reused (dirty) workspace
    assert!(bits_equal(&a, &b), "inverse wrapper != workspace path");
}
