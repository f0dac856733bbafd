//! The evidence for the block products' two run-time choices, measured on
//! `Matrix<f64>` — the Γ-point packed blocks every production SCF product
//! runs on.
//!
//! - **GEMM tiers** (`gemm_tiers`): the packed rotation product `Uᵀ·Ψ`
//!   on every instantiation of the packed kernel this CPU runs
//!   ([`Tier::supported`]: baseline, AVX2 + FMA, AVX-512), at 16/32/64/130
//!   bands × the planewave counts of the ZnTeO fragment boxes
//!   (751/1157/1715/2553), on the wide `f64` register tile
//!   [`GemmScratch`] picks for 8-byte scalars. Gflop/s per tier (2 flops
//!   per real multiply-add); every tier's output is compared bit for bit
//!   with the baseline's before timing.
//! - **block-size crossover** (`gemm_crossover`): one `cg_step` subspace
//!   projection plus one Rayleigh–Ritz rotation, as the `dotc`/`axpy`
//!   row loops the scalar kernels keep and as [`gemm_packed_into`]
//!   products on every tier, down a ladder of shapes on both sides of
//!   `m·k·n = 2¹⁸` — the measurement behind the one constant that sends
//!   a product to the packed kernel. Each shape is cross-checked before
//!   timing: tiers bit-identical, row loops within 1e-11 of packed.
//!
//! Results land in `BENCH_fft_kernels.json` (schema in EXPERIMENTS.md).
//!
//! Run: `cargo run -p ls3df-bench --bin fft_kernels --release -- [reps]`

use ls3df_bench::arg;
use ls3df_math::vec_ops::{axpy, dotc};
use ls3df_math::{gemm_packed_into, GemmScratch, KernelPolicy, Matrix, Op, Tier};
use ls3df_obs::{Json, Report};
use std::path::Path;
use std::time::Instant;

/// A deterministic `(rows × cols)` block with entries in `[-½, ½)` (no RNG
/// dependency, same block every run).
fn lcg_block(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn max_diff(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn bit_identical(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The subspace projection `D −= (D·Ψᵀ)·Ψ` as row loops: `n_b²` `dotc`,
/// then `n_b²` `axpy`.
fn project_rows(psi: &Matrix<f64>, d: &mut Matrix<f64>, o: &mut Matrix<f64>) {
    let nb = psi.rows();
    for b in 0..nb {
        for j in 0..nb {
            o[(b, j)] = dotc(psi.row(j), d.row(b));
        }
    }
    for b in 0..nb {
        for j in 0..nb {
            axpy(-o[(b, j)], psi.row(j), d.row_mut(b));
        }
    }
}

/// The Rayleigh–Ritz rotation `out = Uᵀ·X` as `n_b²` row `axpy`s.
fn rotate_rows(u: &Matrix<f64>, x: &Matrix<f64>, out: &mut Matrix<f64>) {
    let nb = x.rows();
    out.as_mut_slice().fill(0.0);
    for i in 0..nb {
        for j in 0..nb {
            axpy(u[(j, i)], x.row(j), out.row_mut(i));
        }
    }
}

/// The same projection and rotation on the packed kernel: `O = Ψ·Dᵀ`,
/// `D −= Oᵀ·Ψ`, `out = Uᵀ·Ψ`.
fn packed_ops(
    scratch: &mut GemmScratch<f64>,
    (psi, u): (&Matrix<f64>, &Matrix<f64>),
    d: &mut Matrix<f64>,
    o: &mut Matrix<f64>,
    out: &mut Matrix<f64>,
) {
    gemm_packed_into(scratch, 1.0, psi, Op::None, d, Op::Trans, 0.0, o);
    gemm_packed_into(scratch, -1.0, o, Op::Trans, psi, Op::None, 1.0, d);
    gemm_packed_into(scratch, 1.0, u, Op::Trans, psi, Op::None, 0.0, out);
}

/// `{tier name: value}` for every supported tier.
fn per_tier(tiers: &[Tier], values: &[f64]) -> Json {
    Json::obj(
        tiers
            .iter()
            .map(|t| t.name())
            .zip(values.iter().map(|&v| Json::num(v)))
            .collect(),
    )
}

fn main() {
    let t_main = Instant::now();
    let reps: usize = arg(1, 20);
    let host = Tier::host();
    let tiers = Tier::supported();
    let names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
    println!(
        "fft_kernels: f64 block products, {reps} reps per kernel, tiers {}, dispatched {}\n",
        names.join("/"),
        host.name()
    );

    // Seconds per call of `f`: one warm-up call (pack buffers, page
    // faults), one timed call that sizes a batch of ≈ 20 ms, then `reps`
    // timed batches — every kernel gets about the same wall time, so the
    // baseline tier's libm `fma` calls do not dominate the run.
    let bench = |label: &str, f: &mut dyn FnMut()| -> f64 {
        f();
        let t = Instant::now();
        f();
        let batch = (0.02 / t.elapsed().as_secs_f64()).ceil().max(1.0) as usize;
        let t = Instant::now();
        for _ in 0..reps * batch {
            f();
        }
        let per = t.elapsed().as_secs_f64() / (reps * batch) as f64;
        println!("  {label:<52} {:9.4} ms/call", per * 1e3);
        per
    };
    let scratch = |tier| GemmScratch::<f64>::with(KernelPolicy::Fast, tier);

    // --- packed GEMM on every tier ------------------------------------------
    // The rotation product Uᵀ·Ψ at the ZnTeO workload's 1-, 2-, 4- and
    // 8-piece fragment shapes, forced onto the packed kernel so the
    // 16-band shape (below the block-size crossover) is measured too.
    println!("packed GEMM Uᵀ·Ψ on every tier:");
    let mut tier_rows: Vec<Json> = Vec::new();
    for (nb, npw) in [(16usize, 751usize), (32, 1157), (64, 1715), (130, 2553)] {
        let psi = lcg_block(nb, npw, 0x7e ^ nb as u64);
        let u = lcg_block(nb, nb, 0x7f ^ nb as u64);
        let madds = (nb * nb * npw) as f64;
        let mut out: Vec<Matrix<f64>> = tiers.iter().map(|_| Matrix::zeros(nb, npw)).collect();
        let mut scratches: Vec<_> = tiers.iter().map(|&t| scratch(t)).collect();
        for (s, c) in scratches.iter_mut().zip(&mut out) {
            gemm_packed_into(s, 1.0, &u, Op::Trans, &psi, Op::None, 0.0, c);
        }
        let identical = out.iter().all(|c| bit_identical(&out[0], c));
        assert!(identical, "{nb} × {npw}: tiers are not bit-identical");
        let gflops: Vec<f64> = tiers
            .iter()
            .zip(scratches.iter_mut().zip(&mut out))
            .map(|(tier, (s, c))| {
                let secs = bench(&format!("{nb} × {npw}, {} tier", tier.name()), &mut || {
                    gemm_packed_into(s, 1.0, &u, Op::Trans, &psi, Op::None, 0.0, c)
                });
                2.0 * madds / secs * 1e-9
            })
            .collect();
        let rates: Vec<String> = gflops.iter().map(|g| format!("{g:.2}")).collect();
        println!("  {} Gflop/s, bit-identical", rates.join(" / "));
        tier_rows.push(Json::obj(vec![
            ("bands", Json::num(nb as f64)),
            ("planewaves", Json::num(npw as f64)),
            ("gflops", per_tier(&tiers, &gflops)),
            ("bit_identical", Json::Bool(identical)),
        ]));
    }
    println!();

    // --- the block-size crossover ------------------------------------------
    // Row loops vs the packed kernel (forced on, every tier) for the same
    // two operations down a ladder of fragment-like shapes. BLOCK_MIN_WORK
    // (2¹⁸) must sit where the packed kernel is not behind on the tiers
    // hosts dispatch to; the crystal8 fragments (≤ 10 bands × ≈ 500
    // planewaves) stay on the row loops, the ZnTeO ones (18 × 751 the
    // smallest, 34 × 1157 the smallest 2-piece) straddle and clear it.
    println!("block-size crossover (projection + one rotation; m·k·n = bands²·planewaves):");
    let mut crossover_rows: Vec<Json> = Vec::new();
    for (nb, npw) in [
        (8usize, 256usize),
        (10, 500),
        (12, 600),
        (16, 320),
        (16, 1024),
        (18, 751),
        (24, 455),
        (34, 1157),
    ] {
        let psi = lcg_block(nb, npw, 0xc0 ^ nb as u64);
        let d0 = lcg_block(nb, npw, 0xc1 ^ nb as u64);
        let u = lcg_block(nb, nb, 0xc2 ^ nb as u64);
        let work = nb * nb * npw;

        let (mut d, mut o, mut out) = (d0.clone(), Matrix::zeros(nb, nb), Matrix::zeros(nb, npw));
        project_rows(&psi, &mut d, &mut o);
        rotate_rows(&u, &psi, &mut out);
        let mut scratches: Vec<_> = tiers.iter().map(|&t| scratch(t)).collect();
        let mut packed = Vec::new();
        for s in &mut scratches {
            let (mut dp, mut op, mut outp) = (d0.clone(), o.clone(), out.clone());
            packed_ops(s, (&psi, &u), &mut dp, &mut op, &mut outp);
            let diff = max_diff(&d, &dp).max(max_diff(&out, &outp));
            assert!(diff < 1e-11, "{nb} × {npw}: row loops vs packed: {diff:e}");
            packed.push((dp, outp));
        }
        assert!(
            packed
                .iter()
                .all(|(dp, outp)| bit_identical(&packed[0].0, dp)
                    && bit_identical(&packed[0].1, outp)),
            "{nb} × {npw}: tiers are not bit-identical"
        );

        let rows_s = bench(
            &format!("{nb} × {npw} (m·k·n = {work}), row loops"),
            &mut || {
                d.as_mut_slice().copy_from_slice(d0.as_slice());
                project_rows(&psi, &mut d, &mut o);
                rotate_rows(&u, &psi, &mut out);
            },
        );
        let packed_ms: Vec<f64> = tiers
            .iter()
            .zip(&mut scratches)
            .map(|(tier, s)| {
                let label = format!("{nb} × {npw}, packed kernel, {} tier", tier.name());
                1e3 * bench(&label, &mut || {
                    d.as_mut_slice().copy_from_slice(d0.as_slice());
                    packed_ops(s, (&psi, &u), &mut d, &mut o, &mut out);
                })
            })
            .collect();
        let speedups: Vec<String> = tiers
            .iter()
            .zip(&packed_ms)
            .map(|(t, ms)| format!("{:.2}x ({})", rows_s * 1e3 / ms, t.name()))
            .collect();
        println!("  packed / row loops: {}", speedups.join(", "));
        crossover_rows.push(Json::obj(vec![
            ("bands", Json::num(nb as f64)),
            ("planewaves", Json::num(npw as f64)),
            ("work", Json::num(work as f64)),
            ("row_loops_ms", Json::num(rows_s * 1e3)),
            ("packed_ms", per_tier(&tiers, &packed_ms)),
        ]));
    }
    println!();

    // Machine-readable run report (`ls3df-run-report` schema; the two
    // tables ride in `extra`, documented in EXPERIMENTS.md).
    let mut report = Report::new("fft_kernels", t_main.elapsed().as_secs_f64());
    report.extra = vec![
        ("reps".to_string(), Json::num(reps as f64)),
        ("gemm_dispatched_tier".to_string(), Json::str(host.name())),
        ("gemm_tiers".to_string(), Json::Arr(tier_rows)),
        ("gemm_crossover".to_string(), Json::Arr(crossover_rows)),
    ];
    let path = Path::new("BENCH_fft_kernels.json");
    match report.write(path) {
        Ok(()) => println!("run report -> {}", path.display()),
        Err(e) => eprintln!("run report write failed: {e}"),
    }
}
