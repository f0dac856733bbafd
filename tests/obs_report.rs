//! The `obs-report` CI gate: one small instrumented SCF run must emit a
//! schema-valid `ls3df-run-report` JSON document, and the same code
//! compiled *without* the `obs` feature must show the no-op contract
//! (zero-sized span guards, empty span/counter sections, reports still
//! schema-valid). The CI step runs this test file twice — once with
//! `--features obs` and once without — so both halves stay compiled and
//! exercised.

use ls3df::core::{Ls3df, Ls3dfOptions, Passivation, TraceObserver};
use ls3df::obs::Json;
#[cfg(feature = "obs")]
use ls3df::obs::MachineRef;
use ls3df::pseudo::PseudoTable;
use ls3df_atoms::model_crystal;
use std::sync::{Mutex, MutexGuard, OnceLock};

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: ls3df::alloc_count::CountingAllocator = ls3df::alloc_count::CountingAllocator;

/// Serializes tests that touch the process-global span/counter sinks
/// (harvest in one test must not steal the spans of another).
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn small_calc(max_scf: usize) -> Ls3df {
    let s = model_crystal([2, 2, 2], 6.5);
    let opts = Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [6, 6, 6],
        buffer_pts: [2, 2, 2],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 6,
        initial_cg_steps: 12,
        fragment_tol: 1e-9,
        max_scf,
        tol: 1e-12, // never converges early: fixed iteration count
        pseudo: PseudoTable::deep_well(2.0, 0.8),
        ..Default::default()
    };
    Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(opts)
        .build()
        .expect("valid test geometry")
}

#[cfg(feature = "obs")]
fn counter(report: &ls3df::obs::Report, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// With collection on: run a small SCF under a [`TraceObserver`], write
/// the report plus a chrome trace, and check schema validity, wall-time
/// attribution, counter plausibility and the trace file shape.
#[cfg(feature = "obs")]
#[test]
fn instrumented_run_emits_schema_valid_report() {
    let _guard = obs_lock();
    const { assert!(ls3df::obs::ENABLED, "obs feature must enable collection") };

    let dir = std::env::temp_dir().join(format!("ls3df_obs_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bench_path = dir.join("BENCH_obs_test.json");
    let trace_path = dir.join("TRACE_obs_test.json");

    let mut calc = small_calc(2);
    let n_frags = calc.n_fragments();
    let mut tracer = TraceObserver::new("obs_report_test")
        .with_machine(MachineRef {
            name: "testbox".to_string(),
            peak_gflops: 100.0,
        })
        .with_trace_file(&trace_path);
    let res = calc.scf_with(&mut tracer);
    assert_eq!(res.history.len(), 2);
    let report = tracer.finish();
    report.write(&bench_path).expect("report write");

    // Round-trip through the schema validator, from disk.
    let text = std::fs::read_to_string(&bench_path).expect("report readback");
    let doc = ls3df::obs::report::validate_report_str(&text).expect("schema-valid report");
    assert_eq!(doc.get("obs_enabled").and_then(Json::as_bool), Some(true));

    // ≥95% of the wall clock must be attributed to named spans (the
    // scf_iter roots cover the whole loop body; only setup glue between
    // TraceObserver::new and the first iteration falls outside).
    let attribution = report.attribution.as_ref().expect("attribution");
    assert!(
        attribution.fraction >= 0.95,
        "span attribution {:.3} below 0.95",
        attribution.fraction
    );

    // Flop accounting: the FFT counters ran, so the report rates itself.
    let flops = report.flops.as_ref().expect("flop report");
    assert!(flops.estimated_gflop > 0.0);
    assert!(flops.percent_of_peak.is_some());

    // Counter plausibility for 2 iterations × n_frags fragments: the 8
    // representatives of crystal8's translation classes solve, and the
    // 56 members take their solutions.
    assert_eq!(n_frags, 64);
    assert_eq!(counter(&report, "fragment_solves"), 2 * 8);
    assert_eq!(counter(&report, "fragment_shares"), 2 * 56);
    assert!(counter(&report, "cg_band_iterations") > 0);
    assert!(counter(&report, "hartree_solves") >= 2);
    assert_eq!(counter(&report, "mixer_applies"), 2);
    assert!(counter(&report, "fft_flops") > 0);

    // Span hierarchy: driver stages nest under scf_iter; fragment spans
    // exist for the 8 solved fragments, one per iteration each.
    assert!(report.spans.iter().any(|s| s.path == "scf_iter/petot_f"));
    assert_eq!(report.fragments.len(), 8);
    assert!(report.fragments.iter().all(|f| f.calls == 2));

    // The chrome trace is valid JSON: an array of trace events with at
    // least one "X" (complete) event per recorded span kind.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace readback");
    let trace = Json::parse(&trace_text).expect("trace parses");
    let events = trace.as_array().expect("trace event array");
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));

    std::fs::remove_dir_all(&dir).ok();
}

/// FFT accounting charges a paired transform once: `H·Ψ` on an n-band
/// packed real block adds exactly `⌈n/2⌉` transform pairs to
/// `fft_flops` (and two 3-D transforms per pair).
#[cfg(feature = "obs")]
#[test]
fn paired_h_apply_charges_one_transform_pair_per_two_bands() {
    use ls3df::grid::{Grid3, RealField};
    use ls3df::math::Matrix;
    use ls3df::obs::metrics::counter_value;
    use ls3df::obs::Counter;
    use ls3df::pw::{Hamiltonian, NonlocalPotential, PwBasis};

    let _guard = obs_lock();
    let grid = Grid3::cubic(14, 11.375);
    let basis = PwBasis::new(grid.clone(), 1.5);
    let nl = NonlocalPotential::none(&basis);
    let h = Hamiltonian::new(&basis, RealField::constant(grid, 0.1), &nl);
    let charged = |nb: usize| {
        let psi = Matrix::<f64>::zeros(nb, basis.len());
        let (flops, transforms) = (Counter::FftFlops, Counter::Fft3Transforms);
        let before = (counter_value(flops), counter_value(transforms));
        let _ = h.apply_block(&psi);
        (
            counter_value(flops) - before.0,
            counter_value(transforms) - before.1,
        )
    };
    let (pair_flops, pair_transforms) = charged(1);
    assert!(pair_flops > 0);
    assert_eq!(pair_transforms, 2);
    for nb in 1..=10_usize {
        let pairs = nb.div_ceil(2) as u64;
        assert_eq!(charged(nb), (pairs * pair_flops, 2 * pairs), "{nb} bands");
    }
}

/// Without the feature: spans are zero-sized no-ops, the registries stay
/// empty, and reports still validate (with `obs_enabled: false`).
#[cfg(not(feature = "obs"))]
#[test]
fn disabled_build_is_noop() {
    let _guard = obs_lock();
    const { assert!(!ls3df::obs::ENABLED) };
    // The overhead contract: a span guard occupies no memory (and has no
    // Drop), so `span!` sites compile to nothing.
    assert_eq!(size_of::<ls3df::obs::span::SpanGuard>(), 0);

    // Counter adds are invisible.
    ls3df::obs::counter_add(ls3df::obs::Counter::FftFlops, 123);
    let data = ls3df::obs::harvest();
    assert!(data.spans.is_empty());
    assert!(!data.counters.iter().any(|(n, _)| *n == "fft_flops"));

    // A real run still produces a schema-valid report, flagged disabled,
    // with stage timings (always-on Stopwatch plumbing) but no spans.
    let mut calc = small_calc(1);
    let mut tracer = TraceObserver::new("obs_off_test");
    let _res = calc.scf_with(&mut tracer);
    let report = tracer.finish();
    assert!(!report.obs_enabled);
    assert!(report.spans.is_empty());
    assert!(report.attribution.is_none() && report.flops.is_none());
    assert_eq!(report.stages.len(), 4);
    assert!(report.stages.iter().all(|s| s.calls == 1));
    let text = report.to_json().render();
    let doc = ls3df::obs::report::validate_report_str(&text).expect("schema-valid report");
    assert_eq!(doc.get("obs_enabled").and_then(Json::as_bool), Some(false));
}

/// The `alloc-count` allocator totals flow into the metrics registry via
/// the installable probe, so run reports can carry an `"allocations"`
/// counter next to the flop counters.
#[cfg(feature = "alloc-count")]
#[test]
fn alloc_probe_feeds_registry() {
    let _guard = obs_lock();
    ls3df::alloc_count::install_metrics_probe();
    let v: Vec<u64> = vec![1, 2, 3];
    assert_eq!(v.len(), 3);
    let data = ls3df::obs::harvest();
    let alloc = data.counters.iter().find(|(n, _)| *n == "allocations");
    assert!(
        alloc.is_some_and(|&(_, count)| count > 0),
        "allocations counter missing from snapshot: {:?}",
        data.counters
    );
}
