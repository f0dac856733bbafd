//! SCF snapshot assembly: section codecs and the options fingerprint.
//!
//! The byte-level container (magic, versioning, per-section CRC32, atomic
//! placement, rotation) lives in `ls3df-ckpt`; this module owns *what*
//! goes into an LS3DF SCF snapshot and how each piece is encoded:
//!
//! | section    | contents |
//! |------------|----------|
//! | `FPRINT`   | FNV-1a fingerprint of the physical options (refuses resume under different physics) |
//! | `STATE`    | last completed outer iteration + converged flag |
//! | `SCFHIST`  | the [`Ls3dfStep`] convergence history |
//! | `VIN`      | global input potential (the mixed `V_in` for the next iteration) |
//! | `RHO`      | latest patched density |
//! | `MIXER`    | Pulay `(V_in, residual)` history |
//! | `PSI`      | every fragment's wavefunction block (warm-start state), packed real rows |
//!
//! `PSI` is what makes checkpoint+kill+resume **bit-identical** to an
//! uninterrupted run: fragments warm-start from their previous
//! wavefunctions, so resuming with anything but the exact blocks would
//! converge to the same physics along a different bit pattern. It stores
//! the packed `f64` rows the fragments keep, bit for bit: unpacking to
//! full-sphere coefficients and packing again on resume is not bit-exact.
//!
//! The fingerprint covers the physics (geometry, cutoff, decomposition,
//! solver schedule, mixer, pseudopotentials) but deliberately **not** the
//! run-control knobs `max_scf` and `tol` — resuming a run with a larger
//! iteration cap or tighter tolerance is the normal workflow.

use crate::passivate::Passivation;
use crate::scf::{Ls3dfOptions, Ls3dfStep, StepTimings};
use ls3df_atoms::{Species, Structure};
use ls3df_ckpt::{ByteReader, ByteWriter, CkptError, Fingerprint, SectionId};
use ls3df_math::Matrix;
use ls3df_pseudo::PseudoParams;
use ls3df_pw::Mixer;

/// Options-fingerprint section.
pub(crate) const SEC_FPRINT: SectionId = SectionId::new("FPRINT");
/// Iteration counter + converged flag section.
pub(crate) const SEC_STATE: SectionId = SectionId::new("STATE");
/// Convergence-history section.
pub(crate) const SEC_HIST: SectionId = SectionId::new("SCFHIST");
/// Global input potential section.
pub(crate) const SEC_VIN: SectionId = SectionId::new("VIN");
/// Patched density section.
pub(crate) const SEC_RHO: SectionId = SectionId::new("RHO");
/// Mixer history section.
pub(crate) const SEC_MIXER: SectionId = SectionId::new("MIXER");
/// Fragment wavefunction section.
pub(crate) const SEC_PSI: SectionId = SectionId::new("PSI");

/// Upper bound on counts read from snapshot length fields (fragments,
/// history entries, bands) — corruption guard, far above real sizes.
const MAX_COUNT: u64 = 1 << 32;

// ---------------------------------------------------------------------
// Fingerprint

fn push_pseudo(fp: &mut Fingerprint, p: &PseudoParams) {
    fp.push_f64(p.local.z)
        .push_f64(p.local.rc)
        .push_f64(p.local.a)
        .push_f64(p.local.w)
        .push_f64(p.kb.rb)
        .push_f64(p.kb.e_kb);
}

/// FNV-1a fingerprint of everything that defines the *physics* of a run.
/// Two calculations with equal fingerprints produce bit-identical SCF
/// trajectories; a snapshot only resumes into an equal fingerprint.
pub(crate) fn options_fingerprint(
    structure: &Structure,
    m: [usize; 3],
    opts: &Ls3dfOptions,
) -> u64 {
    let mut fp = Fingerprint::new();
    // Geometry.
    for d in 0..3 {
        fp.push_f64(structure.lengths[d]);
        fp.push_u64(m[d] as u64);
        fp.push_u64(opts.piece_pts[d] as u64);
        fp.push_u64(opts.buffer_pts[d] as u64);
    }
    fp.push_u64(structure.atoms.len() as u64);
    for a in &structure.atoms {
        fp.push_u64(match a.species {
            Species::Zn => 1,
            Species::Te => 2,
            Species::O => 3,
            Species::H => 4,
        });
        for d in 0..3 {
            fp.push_f64(a.pos[d]);
        }
    }
    // Discretization + fragment physics.
    fp.push_f64(opts.ecut);
    fp.push_u64(match opts.passivation {
        Passivation::PseudoH => 1,
        Passivation::WallOnly => 2,
    });
    fp.push_f64(opts.wall_height);
    fp.push_u64(opts.n_extra_bands as u64);
    // Solver schedule (part of the bit-exact trajectory).
    fp.push_u64(opts.cg_steps as u64);
    fp.push_u64(opts.initial_cg_steps as u64);
    fp.push_f64(opts.fragment_tol);
    // Eigensolver-family word of the fingerprint layout; 1 = all-band CG,
    // the only PEtot_F solver. It stays so that existing snapshots resume.
    fp.push_u64(1);
    // Mixer.
    match opts.mixer {
        Mixer::Linear { alpha } => {
            fp.push_str("linear").push_f64(alpha);
        }
        Mixer::Kerker { alpha, q0 } => {
            fp.push_str("kerker").push_f64(alpha).push_f64(q0);
        }
        Mixer::Pulay { alpha, depth } => {
            fp.push_str("pulay").push_f64(alpha).push_u64(depth as u64);
        }
    }
    // Pseudopotential database.
    for p in [
        &opts.pseudo.zn,
        &opts.pseudo.te,
        &opts.pseudo.o,
        &opts.pseudo.h,
    ] {
        push_pseudo(&mut fp, p);
    }
    fp.finish()
}

// ---------------------------------------------------------------------
// Section payload codecs

pub(crate) fn encode_fingerprint(fingerprint: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(8);
    w.put_u64(fingerprint);
    w.into_bytes()
}

pub(crate) fn decode_fingerprint(payload: &[u8]) -> Result<u64, CkptError> {
    ByteReader::new(payload).get_u64("options fingerprint")
}

pub(crate) fn encode_state(iteration: usize, converged: bool) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(12);
    w.put_u64(iteration as u64).put_u32(u32::from(converged));
    w.into_bytes()
}

pub(crate) fn decode_state(payload: &[u8]) -> Result<(usize, bool), CkptError> {
    let mut r = ByteReader::new(payload);
    let iteration = r.get_count(MAX_COUNT, "completed iteration")?;
    let converged = match r.get_u32("converged flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(CkptError::Malformed {
                section: SEC_STATE.name(),
                detail: format!("converged flag is {other}, expected 0 or 1"),
            })
        }
    };
    Ok((iteration, converged))
}

/// Writes one step record: iteration, `∫|ΔV|`, worst residual, `q/N_e`,
/// the minimum charge retention and the four stage timings — the layout
/// the `SCFHIST` section and the end-of-iteration broadcast share.
pub(crate) fn put_step(w: &mut ByteWriter, s: &Ls3dfStep) {
    w.put_u64(s.iteration as u64)
        .put_f64(s.dv_integral)
        .put_f64(s.worst_residual)
        .put_f64(s.charge_ratio)
        .put_f64(s.retention_min)
        .put_f64(s.timings.gen_vf)
        .put_f64(s.timings.petot_f)
        .put_f64(s.timings.gen_dens)
        .put_f64(s.timings.genpot);
}

/// Reads one step record (`what` names it in errors).
pub(crate) fn get_step(r: &mut ByteReader<'_>, what: &str) -> Result<Ls3dfStep, CkptError> {
    let iteration = r.get_count(MAX_COUNT, &format!("{what}.iteration"))?;
    let dv_integral = r.get_f64(&format!("{what}.dv_integral"))?;
    let worst_residual = r.get_f64(&format!("{what}.worst_residual"))?;
    let charge_ratio = r.get_f64(&format!("{what}.charge_ratio"))?;
    let retention_min = r.get_f64(&format!("{what}.retention_min"))?;
    let mut t = [0f64; 4];
    for (k, slot) in t.iter_mut().enumerate() {
        *slot = r.get_f64(&format!("{what}.timings[{k}]"))?;
    }
    Ok(Ls3dfStep {
        iteration,
        dv_integral,
        worst_residual,
        charge_ratio,
        retention_min,
        timings: StepTimings {
            gen_vf: t[0],
            petot_f: t[1],
            gen_dens: t[2],
            genpot: t[3],
        },
    })
}

pub(crate) fn encode_history(history: &[Ls3dfStep]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(8 + history.len() * 72);
    w.put_u64(history.len() as u64);
    for s in history {
        put_step(&mut w, s);
    }
    w.into_bytes()
}

pub(crate) fn decode_history(payload: &[u8]) -> Result<Vec<Ls3dfStep>, CkptError> {
    let mut r = ByteReader::new(payload);
    let n = r.get_count(MAX_COUNT, "history length")?;
    (0..n)
        .map(|i| get_step(&mut r, &format!("history[{i}]")))
        .collect()
}

/// Mixer memory: one `(V_in, residual)` pair per retained iteration.
pub(crate) type MixerHistory = Vec<(Vec<f64>, Vec<f64>)>;

pub(crate) fn encode_mixer_history(history: &[(Vec<f64>, Vec<f64>)]) -> Vec<u8> {
    let per: usize = history
        .iter()
        .map(|(a, b)| 16 + 8 * (a.len() + b.len()))
        .sum();
    let mut w = ByteWriter::with_capacity(8 + per);
    w.put_u64(history.len() as u64);
    for (v_in, resid) in history {
        w.put_u64(v_in.len() as u64);
        w.put_f64_slice(v_in);
        w.put_u64(resid.len() as u64);
        w.put_f64_slice(resid);
    }
    w.into_bytes()
}

pub(crate) fn decode_mixer_history(payload: &[u8]) -> Result<MixerHistory, CkptError> {
    let mut r = ByteReader::new(payload);
    let n = r.get_count(MAX_COUNT, "mixer history length")?;
    // Every entry holds at least its two 8-byte length words, so the
    // payload bounds how many can follow; a corrupt count must not size
    // the reservation.
    let mut out = Vec::with_capacity(n.min(r.remaining() / 16));
    for i in 0..n {
        let nv = r.get_count(MAX_COUNT, &format!("mixer entry {i} V_in length"))?;
        let v_in = r.get_f64_vec(nv, &format!("mixer entry {i} V_in"))?;
        let nr = r.get_count(MAX_COUNT, &format!("mixer entry {i} residual length"))?;
        let resid = r.get_f64_vec(nr, &format!("mixer entry {i} residual"))?;
        out.push((v_in, resid));
    }
    Ok(out)
}

/// Writes one packed wavefunction block: `rows`, `cols`, then every
/// packed coefficient's bits — the layout the `PSI` section and the
/// distributed snapshot gather share.
pub(crate) fn put_psi_block(w: &mut ByteWriter, m: &Matrix<f64>) {
    w.put_u64(m.rows() as u64).put_u64(m.cols() as u64);
    w.put_f64_slice(m.as_slice());
}

/// Reads fragment `i`'s block, which must have exactly the `nb × npw`
/// shape this calculation assembled for it (checked before anything is
/// allocated, so a corrupt shape field never sizes an allocation).
pub(crate) fn get_psi_block(
    r: &mut ByteReader<'_>,
    section: SectionId,
    i: usize,
    (nb, npw): (usize, usize),
) -> Result<Matrix<f64>, CkptError> {
    let rows = r.get_u64(&format!("fragment {i} band count"))?;
    let cols = r.get_u64(&format!("fragment {i} planewave count"))?;
    if (rows, cols) != (nb as u64, npw as u64) {
        return Err(CkptError::Malformed {
            section: section.name(),
            detail: format!(
                "fragment {i} block is {rows}×{cols}, this calculation needs {nb}×{npw}"
            ),
        });
    }
    let data = r.get_f64_vec(nb * npw, &format!("fragment {i} wavefunctions"))?;
    Ok(Matrix::from_vec(nb, npw, data))
}

pub(crate) fn encode_psi_blocks<'a>(
    blocks: impl ExactSizeIterator<Item = &'a Matrix<f64>>,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(blocks.len() as u64);
    for m in blocks {
        put_psi_block(&mut w, m);
    }
    w.into_bytes()
}

/// Decodes the `PSI` section, validating the fragment count and each
/// block's shape against the freshly assembled calculation.
pub(crate) fn decode_psi_blocks(
    payload: &[u8],
    expected_shapes: &[(usize, usize)],
) -> Result<Vec<Matrix<f64>>, CkptError> {
    let mut r = ByteReader::new(payload);
    let n = r.get_count(MAX_COUNT, "fragment count")?;
    if n != expected_shapes.len() {
        return Err(CkptError::Malformed {
            section: SEC_PSI.name(),
            detail: format!(
                "snapshot has {n} fragments, this decomposition has {}",
                expected_shapes.len()
            ),
        });
    }
    let mut out = Vec::with_capacity(n);
    for (i, &shape) in expected_shapes.iter().enumerate() {
        out.push(get_psi_block(&mut r, SEC_PSI, i, shape)?);
    }
    if r.remaining() != 0 {
        return Err(CkptError::Malformed {
            section: SEC_PSI.name(),
            detail: format!("{} trailing bytes after the last fragment", r.remaining()),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_and_history_roundtrip() {
        let (it, conv) = decode_state(&encode_state(17, true)).unwrap();
        assert_eq!((it, conv), (17, true));
        assert!(decode_state(&encode_state(0, false)).unwrap() == (0, false));
        let hist = vec![
            Ls3dfStep {
                iteration: 1,
                dv_integral: 0.5,
                worst_residual: 1e-3,
                charge_ratio: 0.96875,
                retention_min: 0.9375,
                timings: StepTimings {
                    gen_vf: 0.1,
                    petot_f: 2.0,
                    gen_dens: 0.2,
                    genpot: 0.3,
                },
            },
            Ls3dfStep {
                iteration: 2,
                dv_integral: 0.25,
                worst_residual: 5e-4,
                charge_ratio: 1.0,
                retention_min: f64::NAN,
                timings: StepTimings::default(),
            },
        ];
        let back = decode_history(&encode_history(&hist)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].iteration, 1);
        assert_eq!(back[0].dv_integral.to_bits(), 0.5f64.to_bits());
        assert_eq!(back[1].worst_residual.to_bits(), 5e-4f64.to_bits());
        assert_eq!(back[0].charge_ratio.to_bits(), 0.96875f64.to_bits());
        assert_eq!(back[0].retention_min.to_bits(), 0.9375f64.to_bits());
        assert!(back[1].retention_min.is_nan());
    }

    #[test]
    fn bad_converged_flag_is_malformed() {
        let mut w = ByteWriter::new();
        w.put_u64(3).put_u32(7);
        assert_eq!(
            decode_state(&w.into_bytes()).unwrap_err().kind(),
            ls3df_ckpt::CkptErrorKind::Malformed
        );
    }

    #[test]
    fn mixer_history_roundtrip_bit_exact() {
        let hist = vec![
            (vec![1.0, -2.5, 3.75], vec![0.1, 0.2, 0.3]),
            (vec![4.0, 5.0, 6.0], vec![-0.5, 0.25, 0.125]),
        ];
        let back = decode_mixer_history(&encode_mixer_history(&hist)).unwrap();
        assert_eq!(back, hist);
        assert!(decode_mixer_history(&encode_mixer_history(&[]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn psi_blocks_roundtrip_and_validate_shape() {
        let a = Matrix::from_fn(2, 3, |i, j| i as f64 - j as f64 * 0.5);
        let b = Matrix::from_fn(1, 4, |_, j| -(j as f64) / 3.0);
        let bytes = encode_psi_blocks([&a, &b].into_iter());
        let back = decode_psi_blocks(&bytes, &[(2, 3), (1, 4)]).unwrap();
        assert_eq!(back[0].as_slice(), a.as_slice());
        assert_eq!(back[1].as_slice(), b.as_slice());
        // Wrong fragment count and wrong shape are typed Malformed errors.
        assert_eq!(
            decode_psi_blocks(&bytes, &[(2, 3)]).unwrap_err().kind(),
            ls3df_ckpt::CkptErrorKind::Malformed
        );
        assert_eq!(
            decode_psi_blocks(&bytes, &[(2, 3), (4, 1)])
                .unwrap_err()
                .kind(),
            ls3df_ckpt::CkptErrorKind::Malformed
        );
    }

    #[test]
    fn fingerprint_tracks_physics_not_run_control() {
        let s = Structure::new([10.0, 10.0, 10.0], Vec::new());
        let base = Ls3dfOptions::default();
        let f0 = options_fingerprint(&s, [2, 2, 2], &base);
        // Same inputs → same fingerprint.
        assert_eq!(f0, options_fingerprint(&s, [2, 2, 2], &base));
        // max_scf / tol are run control, not physics.
        let relaxed = Ls3dfOptions {
            max_scf: 500,
            tol: 1e-9,
            ..base.clone()
        };
        assert_eq!(f0, options_fingerprint(&s, [2, 2, 2], &relaxed));
        // Cutoff, decomposition and mixer ARE physics.
        let hot = Ls3dfOptions {
            ecut: base.ecut * 2.0,
            ..base.clone()
        };
        assert_ne!(f0, options_fingerprint(&s, [2, 2, 2], &hot));
        assert_ne!(f0, options_fingerprint(&s, [2, 2, 4], &base));
        let remixed = Ls3dfOptions {
            mixer: Mixer::Pulay {
                alpha: 0.5,
                depth: 4,
            },
            ..base.clone()
        };
        assert_ne!(f0, options_fingerprint(&s, [2, 2, 2], &remixed));
    }

    /// The section decoders on bytes from a disk or a peer: arbitrary
    /// input is a typed error or a well-shaped value — never a panic, and
    /// never an allocation sized by an unchecked length field (the counts
    /// below reach `u64::MAX`; allocating off one would abort the test).
    mod fuzz {
        use super::*;
        use crate::distrib::{decode_psi_gather, encode_psi_gather};
        use ls3df_ckpt::Snapshot;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        const SHAPES: [(usize, usize); 3] = [(2, 3), (1, 4), (3, 2)];

        fn blocks() -> Vec<Matrix<f64>> {
            SHAPES
                .iter()
                .map(|&(nb, npw)| Matrix::from_fn(nb, npw, |i, j| i as f64 - 0.25 * j as f64))
                .collect()
        }

        /// A genuine encoding of each decoder's input: the `PSI` payload
        /// and the `DPSI` payload (fragments 2 and 0).
        fn genuine() -> [Vec<u8>; 2] {
            let b = blocks();
            let gather = encode_psi_gather(&[(2, &b[2]), (0, &b[0])]);
            [
                encode_psi_blocks(b.iter()),
                gather.require(crate::distrib::SEC_DPSI).unwrap().to_vec(),
            ]
        }

        /// Runs both decoders on `payload`; whatever they accept must have
        /// the shapes asked for.
        fn decode_both(payload: &[u8]) -> Result<(), TestCaseError> {
            if let Ok(out) = decode_psi_blocks(payload, &SHAPES) {
                prop_assert_eq!(out.len(), SHAPES.len());
                for (m, &shape) in out.iter().zip(&SHAPES) {
                    prop_assert_eq!(m.shape(), shape);
                }
            }
            let mut snap = Snapshot::new();
            snap.push(crate::distrib::SEC_DPSI, payload.to_vec());
            if let Ok(out) = decode_psi_gather(&snap, &SHAPES) {
                prop_assert!(out.len() <= SHAPES.len());
                for (index, m) in &out {
                    prop_assert_eq!(m.shape(), SHAPES[*index]);
                }
            }
            Ok(())
        }

        /// Genuine `STATE`, `SCFHIST`, `MIXER` and `FPRINT` payloads.
        fn genuine_sections() -> [Vec<u8>; 4] {
            let step = |iteration| Ls3dfStep {
                iteration,
                dv_integral: 0.5 / iteration as f64,
                worst_residual: 1e-3,
                charge_ratio: 0.97,
                retention_min: 0.5,
                timings: StepTimings::default(),
            };
            [
                encode_state(7, false),
                encode_history(&[step(1), step(2), step(3)]),
                encode_mixer_history(&[
                    (vec![1.0, -2.5, 3.75], vec![0.1, 0.2, 0.3]),
                    (vec![4.0, 5.0], vec![-0.5, 0.25]),
                ]),
                encode_fingerprint(0x0123_4567_89ab_cdef),
            ]
        }

        /// Runs the four section decoders on `payload`; whatever they
        /// accept must fit in the bytes it was read from.
        fn decode_sections(payload: &[u8]) -> Result<(), TestCaseError> {
            if decode_state(payload).is_ok() {
                prop_assert!(payload.len() >= 12);
            }
            if let Ok(history) = decode_history(payload) {
                prop_assert!(8 + 64 * history.len() <= payload.len());
            }
            if let Ok(history) = decode_mixer_history(payload) {
                let words: usize = history.iter().map(|(v, r)| 2 + v.len() + r.len()).sum();
                prop_assert!(8 + 8 * words <= payload.len());
            }
            if decode_fingerprint(payload).is_ok() {
                prop_assert!(payload.len() >= 8);
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u32..256, 0..400)) {
                let payload: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
                decode_both(&payload)?;
                decode_sections(&payload)?;
            }

            #[test]
            fn damaged_genuine_sections_never_panic(
                which in 0usize..4,
                at in 0usize..4096,
                word in 0u64..u64::MAX,
                cut in 0usize..4096,
            ) {
                let mut payload = genuine_sections()[which].clone();
                let at = at % payload.len().saturating_sub(7).max(1);
                let end = (at + 8).min(payload.len());
                payload[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                decode_sections(&payload)?;
                payload.truncate(cut % (payload.len() + 1));
                decode_sections(&payload)?;
            }

            #[test]
            fn damaged_genuine_payloads_never_panic(
                which in 0usize..2,
                at in 0usize..4096,
                word in 0u64..u64::MAX,
                cut in 0usize..4096,
            ) {
                // Overwrite one 8-byte word (a count, a shape, an index or
                // a coefficient) with anything, then maybe truncate.
                let mut payload = genuine()[which].clone();
                let at = at % payload.len().saturating_sub(7).max(1);
                let end = (at + 8).min(payload.len());
                payload[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                decode_both(&payload)?;
                payload.truncate(cut % (payload.len() + 1));
                decode_both(&payload)?;
            }
        }

        #[test]
        fn genuine_payloads_decode_bit_exact() {
            let [psi, gather] = genuine();
            let b = blocks();
            let out = decode_psi_blocks(&psi, &SHAPES).unwrap();
            for (m, want) in out.iter().zip(&b) {
                assert_eq!(m.as_slice(), want.as_slice());
            }
            let mut snap = Snapshot::new();
            snap.push(crate::distrib::SEC_DPSI, gather);
            let out = decode_psi_gather(&snap, &SHAPES).unwrap();
            assert_eq!(out[0].0, 2);
            assert_eq!(out[0].1.as_slice(), b[2].as_slice());
            let [state, history, mixer, fingerprint] = genuine_sections();
            assert_eq!(decode_state(&state).unwrap(), (7, false));
            assert_eq!(decode_history(&history).unwrap().len(), 3);
            assert_eq!(decode_mixer_history(&mixer).unwrap().len(), 2);
            assert_eq!(
                decode_fingerprint(&fingerprint).unwrap(),
                0x0123_4567_89ab_cdef
            );
            // Huge counts are typed errors, not allocations.
            let mut w = ByteWriter::new();
            w.put_u64(u64::MAX);
            assert!(decode_psi_blocks(&w.into_bytes(), &SHAPES).is_err());
        }

        /// Regression: a `MIXER` entry count at the cap (2³² entries) in
        /// an otherwise empty payload must not size a reservation before
        /// any entry is read.
        #[test]
        fn mixer_entry_count_at_the_cap_is_a_typed_error() {
            let mut w = ByteWriter::new();
            w.put_u64(MAX_COUNT);
            let err = decode_mixer_history(&w.into_bytes()).unwrap_err();
            assert_eq!(err.kind(), ls3df_ckpt::CkptErrorKind::Truncated);
        }
    }
}
