//! Fault-injection tests for the `ls3df_core::check` invariant layer:
//! deliberately corrupt the pipeline state and confirm the checks catch it
//! with the right SCF step name (debug/test builds compile the layer in;
//! see `ls3df_core::check::ENABLED`).

use ls3df::core::{Effort, Ls3df, Ls3dfOptions, Passivation};
use ls3df::grid::{Grid3, RealField};
use ls3df::pw::Mixer;
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;

fn small_opts(table: PseudoTable) -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [8, 8, 8],
        buffer_pts: [3, 3, 3],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 6,
        initial_cg_steps: 10,
        fragment_tol: 1e-9,
        mixer: Mixer::Kerker {
            alpha: 0.6,
            q0: 0.8,
        },
        max_scf: 2,
        tol: 1e-4,
        pseudo: table,
    }
}

/// The small test calculation, optionally started from `v_in`.
fn small_calc(v_in: Option<RealField>) -> Ls3df {
    let s = model_crystal([2, 2, 2], 6.5);
    let table = PseudoTable::deep_well(2.0, 0.8);
    let mut builder = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(small_opts(table));
    if let Some(v) = v_in {
        builder = builder.initial_potential(v);
    }
    builder.build().expect("valid test geometry")
}

/// A fragment whose density went wrong (here: its wavefunctions scaled by
/// 10, inflating its density 100×) must trip the Gen_dens charge check
/// *before* the renormalization silently absorbs the corruption. The patch
/// runs with no solve round: a solve would re-orthonormalize the scaled ψ.
#[test]
#[should_panic(expected = "LS3DF invariant violated at Gen_dens")]
fn corrupted_fragment_density_trips_charge_check() {
    let mut calc = small_calc(None);
    for i in 0..4 {
        calc.scale_fragment_psi(i, 10.0);
    }
    let _ = calc.respond(Effort::default());
}

/// A NaN injected into the global input potential must be reported by the
/// first step that consumes it — Gen_VF — not discovered (or worse,
/// averaged away) steps later.
#[test]
#[should_panic(expected = "LS3DF invariant violated at Gen_VF")]
fn injected_nan_is_reported_at_gen_vf() {
    let mut v = RealField::zeros(Grid3::cubic(16, 13.0));
    v.as_mut_slice()[17] = f64::NAN;
    let _ = small_calc(Some(v)).gen_vf();
}

/// The check layer must be compiled into test builds, otherwise the two
/// tests above would pass vacuously. (Indirection via a runtime value so
/// the assertion is not constant-folded.)
#[test]
fn check_layer_active_in_test_builds() {
    let enabled = [false, ls3df_core::check::ENABLED];
    assert!(
        enabled[1],
        "debug/test builds must compile the invariant layer in"
    );
}
