//! Machine references measured in the same run: a fixed-work noise
//! probe, sustainable memory bandwidth (triad) and a dependent-free
//! multiply-add rate. Kernel rates are compared with these, never with a
//! paper machine.

use ls3df::fft::Fft3;
use ls3df::math::c64;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Round trips per second of a 22³ complex FFT (the largest crystal8
/// fragment box) sustained for `seconds` on the calling thread. Run
/// before and after a measured run, the two rates show whether the host
/// was disturbed in between.
pub fn fft_probe(seconds: f64) -> f64 {
    let fft = Fft3::new(22, 22, 22);
    let mut ws = fft.workspace();
    let mut data: Vec<c64> = (0..fft.len())
        .map(|i| c64::new((i % 17) as f64 - 8.0, (i % 5) as f64))
        .collect();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut trips = 0u64;
    while start.elapsed() < budget {
        fft.forward_with(&mut data, &mut ws);
        fft.inverse_with(&mut data, &mut ws);
        trips += 1;
    }
    black_box(&data);
    trips as f64 / start.elapsed().as_secs_f64()
}

/// Size in bytes of the largest cache `/sys` reports for cpu0, if any.
pub fn last_level_cache_bytes() -> Option<u64> {
    let mut best = None;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let bytes = if let Some(k) = text.strip_suffix('K') {
            k.parse::<u64>().ok().map(|v| v << 10)
        } else if let Some(m) = text.strip_suffix('M') {
            m.parse::<u64>().ok().map(|v| v << 20)
        } else {
            text.parse::<u64>().ok()
        };
        best = best.max(bytes);
    }
    best
}

/// Single-thread STREAM triad `a[i] = b[i] + s·c[i]` over three arrays of
/// `array_bytes` each; returns GB/s counting the 24 bytes per element the
/// kernel names (two loads and one store). Best of `passes` passes.
pub fn triad_gb_s(array_bytes: u64, passes: usize) -> f64 {
    let n = (array_bytes / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut best = 0.0f64;
    // The first pass also faults `a` in, so it never wins.
    for pass in 0..=passes {
        let s = 3.0 + pass as f64;
        let start = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(&a);
        if pass > 0 {
            best = best.max(24.0 * n as f64 / secs * 1e-9);
        }
    }
    best
}

/// Single-thread multiply-add rate in Gflop/s from 16 independent
/// accumulator chains (no chain waits for another), two flops per step.
/// Written as a separate multiply and add so it compiles to whatever the
/// build's target features give the program's own kernels (a fused
/// `mul_add` would call into libm on a target without FMA).
pub fn fma_gflops(seconds: f64) -> f64 {
    const LANES: usize = 16;
    const BLOCK: u64 = 1 << 16;
    let mut acc = [0.0f64; LANES];
    for (i, x) in acc.iter_mut().enumerate() {
        *x = 1.0 + i as f64 * 1e-3;
    }
    let (mul, add) = (black_box(0.999_999_9f64), black_box(1e-7f64));
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut steps = 0u64;
    while start.elapsed() < budget {
        for _ in 0..BLOCK {
            for x in acc.iter_mut() {
                *x = *x * mul + add;
            }
        }
        steps += BLOCK;
    }
    black_box(acc);
    2.0 * (steps * LANES as u64) as f64 / start.elapsed().as_secs_f64() * 1e-9
}

/// The lower of peak compute and bandwidth × intensity, in Gflop/s.
pub fn roofline_gflops(fma_gflops: f64, triad_gb_s: f64, flops_per_byte: f64) -> f64 {
    fma_gflops.min(triad_gb_s * flops_per_byte)
}
