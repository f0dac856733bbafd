//! Property-based tests for the FFT substrate.

use ls3df_fft::{dft, Fft1d, Fft3, Fft3r, RealFft1d};
use ls3df_math::{c64, KernelPolicy};
use proptest::prelude::*;

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<c64>> {
    (1..=max_len).prop_flat_map(|n| {
        prop::collection::vec(
            (-5.0..5.0f64, -5.0..5.0f64).prop_map(|(re, im)| c64::new(re, im)),
            n,
        )
    })
}

/// A random 13-smooth length: up to four factors drawn from the
/// mixed-radix kernel's primes, 2 ≤ n ≤ 13⁴ capped at 2048 by dropping
/// factors from the end.
fn smooth_length() -> impl Strategy<Value = usize> {
    prop::collection::vec(0usize..6, 1..=4).prop_map(|picks| {
        let mut n = 1;
        for p in picks {
            let f = [2, 3, 5, 7, 11, 13][p];
            if n * f <= 2048 {
                n *= f;
            }
        }
        n
    })
}

fn lcg_signal(n: usize, seed: u64) -> Vec<c64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
    };
    (0..n).map(|_| c64::new(next(), next())).collect()
}

proptest! {
    /// Round trip, Parseval and linearity of the mixed-radix kernel over
    /// random 2·3·5·7·11·13-smooth lengths (explicitly `Fast`: the
    /// `Reference` plan for these lengths is Bluestein).
    #[test]
    fn smooth_lengths_roundtrip_parseval_linearity(
        n in smooth_length(),
        seed in 0u64..1000,
    ) {
        let plan = Fft1d::new_with(n, KernelPolicy::Fast);
        let mut ws = plan.workspace();
        let x = lcg_signal(n, seed);
        let y = lcg_signal(n, seed + 1000);
        let tol = 1e-13 * (n as f64) * (1.0 + (n as f64).log2());

        let mut fx = x.clone();
        plan.forward_with(&mut fx, &mut ws);
        let e_time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let e_freq: f64 = fx.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((e_time - e_freq).abs() <= tol * (1.0 + e_time), "parseval n={n}");

        let mut back = fx.clone();
        plan.inverse_with(&mut back, &mut ws);
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((*a - *b).abs() <= tol, "roundtrip n={n}");
        }

        let alpha = c64::new(0.75, -1.5);
        let mut fy = y.clone();
        plan.forward_with(&mut fy, &mut ws);
        let mut fsum: Vec<c64> = x.iter().zip(&y).map(|(a, b)| *a + alpha * *b).collect();
        plan.forward_with(&mut fsum, &mut ws);
        for ((s, a), b) in fsum.iter().zip(&fx).zip(&fy) {
            prop_assert!((*s - (*a + alpha * *b)).abs() <= tol * 4.0, "linearity n={n}");
        }
    }

    #[test]
    fn fft_matches_naive_dft_all_lengths(x in signal_strategy(48)) {
        let plan = Fft1d::new(x.len());
        let mut got = x.clone();
        plan.forward_with(&mut got, &mut plan.workspace());
        let expect = dft::dft_forward(&x);
        for (a, b) in got.iter().zip(&expect) {
            prop_assert!((*a - *b).abs() < 1e-8 * (1.0 + x.len() as f64));
        }
    }

    #[test]
    fn roundtrip_is_identity(x in signal_strategy(64)) {
        let plan = Fft1d::new(x.len());
        let mut ws = plan.workspace();
        let mut work = x.clone();
        plan.forward_with(&mut work, &mut ws);
        plan.inverse_with(&mut work, &mut ws);
        for (a, b) in work.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_holds(x in signal_strategy(64)) {
        let n = x.len() as f64;
        let e_time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut spec = x.clone();
        let plan = Fft1d::new(x.len());
        plan.forward_with(&mut spec, &mut plan.workspace());
        let e_freq: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n;
        prop_assert!((e_time - e_freq).abs() < 1e-8 * (1.0 + e_time));
    }

    #[test]
    fn real_fft_matches_complex_reference(
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        // The packed r2c forward must reproduce the kept half of the
        // complex transform for every length (even → packed N/2 trick,
        // odd → Hermitian-fold fallback), under both kernel policies.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let x: Vec<f64> = (0..n).map(|_| next()).collect();
        let full = dft::dft_forward(&x.iter().map(|&v| c64::new(v, 0.0)).collect::<Vec<_>>());
        for policy in [KernelPolicy::Fast, KernelPolicy::Reference] {
            let plan = RealFft1d::new_with(n, policy);
            let mut ws = plan.workspace();
            let mut packed = vec![c64::ZERO; plan.packed_len()];
            plan.forward(&x, &mut packed, &mut ws);
            for (k, (p, f)) in packed.iter().zip(&full).enumerate() {
                prop_assert!((*p - *f).abs() < 1e-9 * (1.0 + n as f64), "bin {k}");
            }
            // And c2r must invert it back to the signal.
            let mut back = vec![0.0_f64; n];
            plan.inverse(&packed, &mut back, &mut ws);
            for (a, b) in back.iter().zip(&x) {
                prop_assert!((a - b).abs() < 1e-9 * (1.0 + n as f64));
            }
        }
    }

    #[test]
    fn mixed_agrees_with_radix2_on_pow2(
        level in 1u32..8,
        seed in 0u64..1000,
    ) {
        // Power-of-two lengths route the fast policy through the
        // mixed-radix kernel ({4, 2} stages) and the reference policy
        // through radix-2; the spectra
        // must agree to rounding. (Every pow2 ≤ 1024 is swept exhaustively
        // by tests/kernel_tol.rs; this samples the same property under
        // random data.)
        let n = 1usize << level;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let x: Vec<c64> = (0..n).map(|_| c64::new(next(), next())).collect();
        let mut a = x.clone();
        let mut b = x.clone();
        let (fast, reference) = (
            Fft1d::new_with(n, KernelPolicy::Fast),
            Fft1d::new_with(n, KernelPolicy::Reference),
        );
        fast.forward_with(&mut a, &mut fast.workspace());
        reference.forward_with(&mut b, &mut reference.workspace());
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((*u - *v).abs() < 1e-10 * (1.0 + n as f64));
        }
    }

    #[test]
    fn packed_3d_matches_complex(
        n1 in 1usize..7,
        n2 in 1usize..7,
        n3 in 1usize..7,
        seed in 0u64..1000,
    ) {
        let len = n1 * n2 * n3;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let x: Vec<f64> = (0..len).map(|_| next()).collect();
        let rfft = Fft3r::new([n1, n2, n3]);
        let mut ws = rfft.workspace();
        let mut spec = vec![c64::ZERO; rfft.packed_len()];
        rfft.forward(&x, &mut spec, &mut ws);
        // Kept bins must match the complex 3-D transform…
        let cplan = Fft3::new(n1, n2, n3);
        let mut cws = cplan.workspace();
        let mut full: Vec<c64> = x.iter().map(|&v| c64::new(v, 0.0)).collect();
        cplan.forward_with(&mut full, &mut cws);
        let h1 = rfft.packed_nx();
        for iz in 0..n3 {
            for iy in 0..n2 {
                for ix in 0..h1 {
                    let p = spec[(iz * n2 + iy) * h1 + ix];
                    let f = full[(iz * n2 + iy) * n1 + ix];
                    prop_assert!(
                        (p - f).abs() < 1e-9 * (1.0 + len as f64),
                        "bin ({ix},{iy},{iz})"
                    );
                }
            }
        }
        // …and the c2r inverse must round-trip.
        let mut back = vec![0.0_f64; len];
        rfft.inverse(&mut spec, &mut back, &mut ws);
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + len as f64));
        }
    }

    #[test]
    fn fft3_linearity_and_roundtrip(
        n1 in 1usize..6,
        n2 in 1usize..6,
        n3 in 1usize..6,
        seed in 0u64..1000,
    ) {
        let len = n1 * n2 * n3;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let data: Vec<c64> = (0..len).map(|_| c64::new(next(), next())).collect();
        let plan = Fft3::new(n1, n2, n3);
        let mut work = data.clone();
        plan.forward(&mut work);
        plan.inverse(&mut work);
        for (a, b) in work.iter().zip(&data) {
            prop_assert!((*a - *b).abs() < 1e-10);
        }
    }
}
