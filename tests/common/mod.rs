//! Helpers shared by the integration tests (`mod common;`).

use ls3df::ckpt::Fingerprint;
use ls3df::Ls3dfResult;

/// FNV-1a over everything a resumed run must reproduce. Not
/// [`Ls3dfResult::digest`]: the snapshot-resume tests also hash the final
/// mixed potential (state the next iteration would start from, which the
/// density does not determine) and each step's iteration number (a resumed
/// history must continue the count, not restart it).
pub fn resume_digest(res: &Ls3dfResult) -> u64 {
    let mut fp = Fingerprint::new();
    for &x in res.rho.as_slice().iter().chain(res.v_eff.as_slice()) {
        fp.push_f64(x);
    }
    for step in &res.history {
        fp.push_u64(step.iteration as u64)
            .push_f64(step.dv_integral)
            .push_f64(step.worst_residual);
    }
    fp.finish()
}
