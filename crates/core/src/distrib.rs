//! The SCF pipeline's exchanges with the global layer (rank 0) and their
//! wire codecs, over the `ls3df-ckpt` section container.
//!
//! The driver in `crate::scf` runs one stage sequence on every rank; the
//! helpers here ([`gather_reports`], [`on_root`], [`share_vnext`],
//! [`gather_psi`]) and `ls3df_dist::collect_rank_telemetry` are the only
//! code that looks at the communicator's rank and size. In the `M = 1`
//! world they hand values through untouched: nothing is serialized.
//!
//! Three message shapes cross the communicator per outer iteration:
//!
//! * **PEtot report** (rank r → rank 0, tag = iteration): a group's
//!   supervised-solve outcome — worst residual, PEtot_F wall seconds,
//!   per-fragment quarantine flags, the fault/quarantine event lists,
//!   and the *bit-exact* region densities of its owned fragments
//!   (`ls3df_grid::encode_field`, raw little-endian f64 bits), which is
//!   what makes the patched density bit-identical at any group count. A
//!   class member holding its representative's ψ sends no region: rank 0
//!   patches the representative's at the member's origin (a class never
//!   spans groups, so the representative's part is in the same report).
//! * **Vnext broadcast** (rank 0 → all): the next input potential, the
//!   patched density, and the completed step record (+ convergence
//!   flag), so every rank finishes the iteration with identical state
//!   and identical history.
//! * **Psi gather** (rank r → rank 0, snapshot iterations only): the
//!   owned fragments' packed wavefunction blocks, bit for bit, so rank 0
//!   can cut a snapshot
//!   containing every fragment — snapshots stay group-count-independent
//!   and resumable at any group count.
//!
//! The decoders validate every fragment index and wavefunction block
//! shape against the receiving calculation, so the driver can index with
//! what they return. Typed errors, no physics.

use crate::ckpt::{get_psi_block, get_step, put_psi_block, put_step};
use crate::scf::{Ls3dfStep, Patch};
use crate::supervise::{FragmentFault, QuarantineRecord, RetryAction, ATTEMPT_LADDER};
use ls3df_ckpt::{ByteReader, ByteWriter, CkptError, SectionId, Snapshot};
use ls3df_dist::{CommError, Communicator};
use ls3df_grid::{decode_field, encode_field, RealField};
use ls3df_math::Matrix;

/// Worker solve summary (residual, seconds, flags, events).
pub(crate) const SEC_DSUMMARY: SectionId = SectionId::new("DSUMMARY");
/// Owned-fragment region densities (bit-exact fields).
pub(crate) const SEC_DREGIONS: SectionId = SectionId::new("DREGIONS");
/// Next-iteration input potential (broadcast).
pub(crate) const SEC_DVIN: SectionId = SectionId::new("DVIN");
/// Patched density (broadcast).
pub(crate) const SEC_DRHO: SectionId = SectionId::new("DRHO");
/// Completed step record + convergence flag (broadcast).
pub(crate) const SEC_DSTEP: SectionId = SectionId::new("DSTEP");
/// Owned-fragment wavefunction blocks (snapshot gather).
pub(crate) const SEC_DPSI: SectionId = SectionId::new("DPSI");

/// Guard on byte-length prefixes (fault detail strings, encoded regions).
const MAX_COUNT: u64 = 1 << 32;

/// Tag bit distinguishing the snapshot-iteration psi gather from the
/// per-iteration PEtot report (both are worker→rank-0 sends keyed by the
/// iteration number, and point-to-point matching is by `(from, tag)`).
const PSI_GATHER_TAG: u32 = 0x8000_0000;

/// Wire-format failures on communicator traffic are protocol errors.
fn proto_err(e: CkptError) -> CommError {
    CommError::Protocol {
        detail: e.to_string(),
    }
}

/// One group's PEtot_F outcome, as exchanged with the global layer —
/// or, once a rank has folded the reports it holds, all of theirs (the
/// fold consumes `petot_seconds` and `flags` per group and leaves them
/// empty).
#[derive(Default)]
pub(crate) struct PetotReport {
    /// Worst residual across the group's solved fragments.
    pub(crate) worst_residual: f64,
    /// PEtot_F wall seconds on this rank (per-group load report).
    pub(crate) petot_seconds: f64,
    /// `(fragment index, quarantined?)` for every owned fragment.
    pub(crate) flags: Vec<(usize, bool)>,
    /// Every failed attempt, fragment order.
    pub(crate) faults: Vec<FragmentFault>,
    /// Fragments whose whole ladder failed, fragment order.
    pub(crate) quarantined: Vec<QuarantineRecord>,
    /// `(fragment index, region density)` for every owned fragment but
    /// the class members holding their representative's ψ.
    pub(crate) regions: Vec<(usize, RealField)>,
}

fn put_fault(w: &mut ByteWriter, fault: &FragmentFault) {
    w.put_u64(fault.fragment as u64)
        .put_u64(fault.attempt as u64)
        .put_u32(action_code(fault.action))
        .put_u64(fault.detail.len() as u64)
        .put_bytes(fault.detail.as_bytes());
}

/// A fragment index, rejected unless it names one of the receiving
/// calculation's `n_fragments` fragments.
fn get_fragment(
    r: &mut ByteReader<'_>,
    section: SectionId,
    n_fragments: usize,
    what: &str,
) -> Result<usize, CkptError> {
    let index = r.get_u64(what)?;
    if index >= n_fragments as u64 {
        return Err(CkptError::Malformed {
            section: section.name(),
            detail: format!("{what} {index} is not one of the {n_fragments} fragments"),
        });
    }
    Ok(index as usize)
}

fn get_fault(r: &mut ByteReader<'_>, n_fragments: usize) -> Result<FragmentFault, CkptError> {
    let fragment = get_fragment(r, SEC_DSUMMARY, n_fragments, "fault fragment")?;
    let attempt = r.get_u64("fault attempt")? as usize;
    let action = decode_action(r.get_u32("fault action")?)?;
    let len = r.get_count(MAX_COUNT, "fault detail length")?;
    let detail = String::from_utf8_lossy(r.get_bytes(len, "fault detail")?).into_owned();
    Ok(FragmentFault {
        fragment,
        attempt,
        action,
        detail,
    })
}

/// A length-prefixed fault list.
fn put_faults(w: &mut ByteWriter, faults: &[FragmentFault]) {
    w.put_u64(faults.len() as u64);
    for fault in faults {
        put_fault(w, fault);
    }
}

fn get_faults(
    r: &mut ByteReader<'_>,
    max: u64,
    n_fragments: usize,
) -> Result<Vec<FragmentFault>, CkptError> {
    let n = r.get_count(max, "fault count")?;
    (0..n).map(|_| get_fault(r, n_fragments)).collect()
}

/// Stable wire code for a retry-ladder action.
fn action_code(action: RetryAction) -> u32 {
    match action {
        RetryAction::Primary => 0,
        RetryAction::FreshRandomStart => 1,
        RetryAction::BandByBand => 2,
        RetryAction::ReducedCg => 3,
    }
}

fn decode_action(code: u32) -> Result<RetryAction, CkptError> {
    match code {
        0 => Ok(RetryAction::Primary),
        1 => Ok(RetryAction::FreshRandomStart),
        2 => Ok(RetryAction::BandByBand),
        3 => Ok(RetryAction::ReducedCg),
        other => Err(CkptError::Malformed {
            section: SEC_DSUMMARY.name(),
            detail: format!("unknown retry action code {other}"),
        }),
    }
}

/// Serializes a worker's PEtot report into a section container.
pub(crate) fn encode_petot_report(report: &PetotReport) -> Snapshot {
    let mut summary = ByteWriter::with_capacity(256);
    summary
        .put_f64(report.worst_residual)
        .put_f64(report.petot_seconds)
        .put_u64(report.flags.len() as u64);
    for &(index, quarantined) in &report.flags {
        summary
            .put_u64(index as u64)
            .put_u32(u32::from(quarantined));
    }
    put_faults(&mut summary, &report.faults);
    summary.put_u64(report.quarantined.len() as u64);
    for record in &report.quarantined {
        summary.put_u64(record.fragment as u64);
        put_faults(&mut summary, &record.faults);
    }

    let mut regions = ByteWriter::new();
    regions.put_u64(report.regions.len() as u64);
    for (index, field) in &report.regions {
        let bytes = encode_field(field);
        regions
            .put_u64(*index as u64)
            .put_u64(bytes.len() as u64)
            .put_bytes(&bytes);
    }

    let mut snap = Snapshot::new();
    snap.push(SEC_DSUMMARY, summary.into_bytes());
    snap.push(SEC_DREGIONS, regions.into_bytes());
    snap
}

/// Parses a group's PEtot report for a calculation of `n_fragments`
/// fragments: every list is at most one entry per fragment (one per
/// ladder rung for faults) and every fragment index is in range.
pub(crate) fn decode_petot_report(
    snap: &Snapshot,
    n_fragments: usize,
) -> Result<PetotReport, CkptError> {
    let (per_fragment, ladder) = (n_fragments as u64, ATTEMPT_LADDER.len() as u64);
    let mut r = ByteReader::new(snap.require(SEC_DSUMMARY)?);
    let worst_residual = r.get_f64("worst residual")?;
    let petot_seconds = r.get_f64("petot seconds")?;
    let n_flags = r.get_count(per_fragment, "flag count")?;
    let mut flags = Vec::with_capacity(n_flags);
    for _ in 0..n_flags {
        let index = get_fragment(&mut r, SEC_DSUMMARY, n_fragments, "flag fragment")?;
        let quarantined = r.get_u32("flag value")? != 0;
        flags.push((index, quarantined));
    }
    let faults = get_faults(&mut r, per_fragment * ladder, n_fragments)?;
    let n_records = r.get_count(per_fragment, "quarantine count")?;
    let mut quarantined = Vec::with_capacity(n_records);
    for _ in 0..n_records {
        quarantined.push(QuarantineRecord {
            fragment: get_fragment(&mut r, SEC_DSUMMARY, n_fragments, "quarantine fragment")?,
            faults: get_faults(&mut r, ladder, n_fragments)?,
        });
    }

    let mut r = ByteReader::new(snap.require(SEC_DREGIONS)?);
    let n_regions = r.get_count(per_fragment, "region count")?;
    let mut regions = Vec::with_capacity(n_regions);
    for _ in 0..n_regions {
        let index = get_fragment(&mut r, SEC_DREGIONS, n_fragments, "region fragment")?;
        let len = r.get_count(MAX_COUNT, "region byte length")?;
        let field = decode_field(r.get_bytes(len, "region field")?)?;
        regions.push((index, field));
    }
    Ok(PetotReport {
        worst_residual,
        petot_seconds,
        flags,
        faults,
        quarantined,
        regions,
    })
}

/// What rank 0 broadcasts at the end of every iteration.
pub(crate) struct VnextMessage {
    pub(crate) v_in: RealField,
    pub(crate) rho: RealField,
    pub(crate) step: Ls3dfStep,
    pub(crate) converged: bool,
}

/// Serializes the end-of-iteration broadcast.
pub(crate) fn encode_vnext(msg: &VnextMessage) -> Snapshot {
    let mut step = ByteWriter::with_capacity(80);
    put_step(&mut step, &msg.step);
    step.put_u32(u32::from(msg.converged));
    let mut snap = Snapshot::new();
    snap.push(SEC_DVIN, encode_field(&msg.v_in));
    snap.push(SEC_DRHO, encode_field(&msg.rho));
    snap.push(SEC_DSTEP, step.into_bytes());
    snap
}

/// Parses the end-of-iteration broadcast.
pub(crate) fn decode_vnext(snap: &Snapshot) -> Result<VnextMessage, CkptError> {
    let mut r = ByteReader::new(snap.require(SEC_DSTEP)?);
    Ok(VnextMessage {
        v_in: decode_field(snap.require(SEC_DVIN)?)?,
        rho: decode_field(snap.require(SEC_DRHO)?)?,
        step: get_step(&mut r, "step")?,
        converged: r.get_u32("step converged flag")? != 0,
    })
}

/// Packed wavefunction blocks tagged with their fragment index.
pub(crate) type PsiBlocks = Vec<(usize, Matrix<f64>)>;

/// Serializes indexed wavefunction blocks (snapshot-iteration gather).
pub(crate) fn encode_psi_gather(blocks: &[(usize, &Matrix<f64>)]) -> Snapshot {
    let mut w = ByteWriter::new();
    w.put_u64(blocks.len() as u64);
    for (index, psi) in blocks {
        w.put_u64(*index as u64);
        put_psi_block(&mut w, psi);
    }
    let mut snap = Snapshot::new();
    snap.push(SEC_DPSI, w.into_bytes());
    snap
}

/// Parses indexed wavefunction blocks; `shapes[f]` is fragment `f`'s
/// `(bands, planewaves)`. A block naming no fragment, or of another
/// shape, is a typed error.
pub(crate) fn decode_psi_gather(
    snap: &Snapshot,
    shapes: &[(usize, usize)],
) -> Result<PsiBlocks, CkptError> {
    let mut r = ByteReader::new(snap.require(SEC_DPSI)?);
    let n = r.get_count(shapes.len() as u64, "psi block count")?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let index = get_fragment(&mut r, SEC_DPSI, shapes.len(), "psi block fragment")?;
        blocks.push((
            index,
            get_psi_block(&mut r, SEC_DPSI, index, shapes[index])?,
        ));
    }
    Ok(blocks)
}

/// Gather-to-root of the PEtot reports (tag = iteration): rank 0 ends
/// up holding every group's `(rank, report)`, its own first; any other
/// rank sends its report and keeps holding just that one.
pub(crate) fn gather_reports(
    comm: &dyn Communicator,
    iteration: usize,
    own: PetotReport,
    n_fragments: usize,
) -> Result<Vec<(usize, PetotReport)>, CommError> {
    if comm.rank() != 0 {
        comm.send_sections(0, iteration as u32, &encode_petot_report(&own))?;
        return Ok(vec![(comm.rank(), own)]);
    }
    let mut reports = vec![(0, own)];
    for r in 1..comm.size() {
        let snap = comm.recv_sections(r, iteration as u32)?;
        reports.push((
            r,
            decode_petot_report(&snap, n_fragments).map_err(proto_err)?,
        ));
    }
    Ok(reports)
}

/// Runs `global` on rank 0 only: `Some` of its value there, `None` on
/// every other rank (the global layer's work, e.g. the patch).
pub(crate) fn on_root<T>(comm: &dyn Communicator, global: impl FnOnce() -> T) -> Option<T> {
    (comm.rank() == 0).then(global)
}

/// Share-from-root of the end-of-iteration state: rank 0 holds the
/// iteration's [`Patch`] (see [`on_root`]) and runs `global_layer` on it,
/// and every rank returns the message formed there.
pub(crate) fn share_vnext(
    comm: &dyn Communicator,
    patch: Option<Patch>,
    global_layer: impl FnOnce(Patch) -> VnextMessage,
) -> Result<VnextMessage, CommError> {
    let Some(patch) = patch else {
        let bytes = comm.broadcast(Vec::new())?;
        return decode_vnext(&Snapshot::decode(&bytes).map_err(proto_err)?).map_err(proto_err);
    };
    let msg = global_layer(patch);
    if comm.size() > 1 {
        comm.broadcast(encode_vnext(&msg).encode().map_err(proto_err)?)?;
    }
    Ok(msg)
}

/// Snapshot-iteration wavefunction gather: rank 0 gets every other
/// rank's `own` blocks (checked against `shapes`, see
/// [`decode_psi_gather`]) so the snapshot it cuts covers every fragment
/// and resumes under any group count; any other rank sends its blocks
/// and gets `None`.
pub(crate) fn gather_psi(
    comm: &dyn Communicator,
    iteration: usize,
    own: &[(usize, &Matrix<f64>)],
    shapes: &[(usize, usize)],
) -> Result<Option<PsiBlocks>, CommError> {
    let tag = PSI_GATHER_TAG | iteration as u32;
    if comm.rank() != 0 {
        comm.send_sections(0, tag, &encode_psi_gather(own))?;
        return Ok(None);
    }
    let mut blocks = Vec::new();
    for r in 1..comm.size() {
        let snap = comm.recv_sections(r, tag)?;
        blocks.extend(decode_psi_gather(&snap, shapes).map_err(proto_err)?);
    }
    Ok(Some(blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::StepTimings;
    use ls3df_grid::Grid3;

    fn sample_field(seed: f64) -> RealField {
        let mut f = RealField::zeros(Grid3::cubic(3, 2.0));
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = seed + i as f64 * 0.125;
        }
        f
    }

    /// A report for 4 fragments with every list non-empty.
    fn sample_report() -> PetotReport {
        PetotReport {
            worst_residual: 3.25e-4,
            petot_seconds: 1.5,
            flags: vec![(0, false), (3, true)],
            faults: vec![FragmentFault {
                fragment: 3,
                attempt: 1,
                action: RetryAction::FreshRandomStart,
                detail: "injected".to_string(),
            }],
            quarantined: vec![QuarantineRecord {
                fragment: 3,
                faults: vec![FragmentFault {
                    fragment: 3,
                    attempt: 2,
                    action: RetryAction::BandByBand,
                    detail: "still bad".to_string(),
                }],
            }],
            regions: vec![(0, sample_field(0.5)), (3, sample_field(-1.0))],
        }
    }

    fn sample_vnext() -> VnextMessage {
        VnextMessage {
            v_in: sample_field(2.0),
            rho: sample_field(-3.0),
            step: Ls3dfStep {
                iteration: 7,
                dv_integral: 0.125,
                worst_residual: 1e-5,
                charge_ratio: 1.25,
                retention_min: 0.875,
                timings: StepTimings {
                    gen_vf: 0.1,
                    petot_f: 0.2,
                    gen_dens: 0.3,
                    genpot: 0.4,
                },
            },
            converged: true,
        }
    }

    #[test]
    fn petot_report_roundtrip_is_bit_exact() {
        let report = sample_report();
        let snap = encode_petot_report(&report);
        let bytes = snap.encode().unwrap();
        let back = decode_petot_report(&Snapshot::decode(&bytes).unwrap(), 4).unwrap();
        assert_eq!(
            back.worst_residual.to_bits(),
            report.worst_residual.to_bits()
        );
        assert_eq!(back.flags, report.flags);
        assert_eq!(back.faults.len(), 1);
        assert_eq!(back.faults[0].action, RetryAction::FreshRandomStart);
        assert_eq!(back.faults[0].detail, "injected");
        assert_eq!(back.quarantined.len(), 1);
        assert_eq!(back.quarantined[0].faults[0].detail, "still bad");
        assert_eq!(back.regions.len(), 2);
        assert_eq!(back.regions[1].0, 3);
        for (a, b) in back.regions[0]
            .1
            .as_slice()
            .iter()
            .zip(report.regions[0].1.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn vnext_roundtrip_preserves_step_and_fields() {
        let msg = sample_vnext();
        let bytes = encode_vnext(&msg).encode().unwrap();
        let back = decode_vnext(&Snapshot::decode(&bytes).unwrap()).unwrap();
        assert_eq!(back.step.iteration, 7);
        assert_eq!(
            back.step.dv_integral.to_bits(),
            msg.step.dv_integral.to_bits()
        );
        assert_eq!(back.step.charge_ratio.to_bits(), 1.25f64.to_bits());
        assert_eq!(back.step.retention_min.to_bits(), 0.875f64.to_bits());
        assert!(back.converged);
        for (a, b) in back.v_in.as_slice().iter().zip(msg.v_in.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn psi_gather_roundtrip_preserves_blocks() {
        let m = Matrix::from_fn(2, 3, |i, j| i as f64 - j as f64 * 0.5);
        let bytes = encode_psi_gather(&[(4, &m)]).encode().unwrap();
        let shapes = [(1, 1), (1, 1), (1, 1), (1, 1), (2, 3)];
        let back = decode_psi_gather(&Snapshot::decode(&bytes).unwrap(), &shapes).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, 4);
        assert_eq!(back[0].1.rows(), 2);
        for (a, b) in back[0].1.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Rank 0 indexes its fragments with what these decoders return: a
    /// peer naming a fragment this calculation does not have, or shipping
    /// a block of another shape, is a typed error.
    #[test]
    fn out_of_range_fragment_and_misshapen_block_are_typed_errors() {
        use ls3df_ckpt::CkptErrorKind::Malformed;
        let fault = FragmentFault {
            fragment: 3,
            attempt: 0,
            action: RetryAction::Primary,
            detail: String::new(),
        };
        let record = QuarantineRecord {
            fragment: 3,
            faults: Vec::new(),
        };
        // Fragment 3 named by one list at a time: fine among 4 fragments,
        // exactly one past the end among 3.
        for (list, report) in [
            PetotReport {
                flags: vec![(3, true)],
                ..Default::default()
            },
            PetotReport {
                faults: vec![fault],
                ..Default::default()
            },
            PetotReport {
                quarantined: vec![record],
                ..Default::default()
            },
            PetotReport {
                regions: vec![(3, sample_field(0.0))],
                ..Default::default()
            },
        ]
        .iter()
        .enumerate()
        {
            let snap = encode_petot_report(report);
            assert!(decode_petot_report(&snap, 4).is_ok(), "list {list}");
            let err = decode_petot_report(&snap, 3).err().expect("out of range");
            assert_eq!(err.kind(), Malformed, "list {list}");
        }

        let snap = encode_psi_gather(&[(1, &Matrix::<f64>::zeros(2, 3))]);
        assert!(decode_psi_gather(&snap, &[(9, 9), (2, 3)]).is_ok());
        for shapes in [&[(9, 9), (3, 2)][..], &[(9, 9), (2, 4)], &[(2, 3)]] {
            let err = decode_psi_gather(&snap, shapes).expect_err("bad block");
            assert_eq!(err.kind(), Malformed, "{shapes:?}");
        }
    }

    #[test]
    fn bad_action_code_is_rejected() {
        assert!(decode_action(9).is_err());
        for code in 0..4 {
            assert_eq!(action_code(decode_action(code).unwrap()), code);
        }
    }

    /// Arbitrary and damaged section payloads through the two decoders
    /// rank 0 and its peers run on every frame: a typed error or a value
    /// that keeps the decoder's promises, never a panic.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        const N_FRAGMENTS: usize = 4;

        /// Every section of a genuine PEtot report and of a genuine
        /// end-of-iteration broadcast.
        fn genuine() -> Vec<(SectionId, Vec<u8>)> {
            let report = encode_petot_report(&sample_report());
            let vnext = encode_vnext(&sample_vnext());
            let section = |snap: &Snapshot, id| (id, snap.require(id).unwrap().to_vec());
            vec![
                section(&report, SEC_DSUMMARY),
                section(&report, SEC_DREGIONS),
                section(&vnext, SEC_DVIN),
                section(&vnext, SEC_DRHO),
                section(&vnext, SEC_DSTEP),
            ]
        }

        fn field_is_whole(f: &RealField) -> bool {
            f.as_slice().len() == f.grid().len()
        }

        /// Rebuilds both messages from [`genuine`] sections, section
        /// `which` replaced by `payload`, and decodes them; whatever they
        /// accept must name only real fragments and whole fields.
        fn decode_both(which: usize, payload: &[u8]) -> Result<(), TestCaseError> {
            let mut report = Snapshot::new();
            let mut vnext = Snapshot::new();
            for (k, (id, bytes)) in genuine().into_iter().enumerate() {
                let bytes = if k == which { payload.to_vec() } else { bytes };
                let snap = if k < 2 { &mut report } else { &mut vnext };
                snap.push(id, bytes);
            }
            if let Ok(r) = decode_petot_report(&report, N_FRAGMENTS) {
                let faults = r
                    .faults
                    .iter()
                    .chain(r.quarantined.iter().flat_map(|q| &q.faults));
                prop_assert!(r.flags.iter().all(|&(f, _)| f < N_FRAGMENTS));
                prop_assert!(faults.map(|f| f.fragment).all(|f| f < N_FRAGMENTS));
                prop_assert!(r.quarantined.iter().all(|q| q.fragment < N_FRAGMENTS));
                prop_assert!(r
                    .regions
                    .iter()
                    .all(|(f, field)| *f < N_FRAGMENTS && field_is_whole(field)));
            }
            if let Ok(m) = decode_vnext(&vnext) {
                prop_assert!(field_is_whole(&m.v_in) && field_is_whole(&m.rho));
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic(
                which in 0usize..5,
                bytes in prop::collection::vec(0u32..256, 0..400),
            ) {
                let payload: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
                decode_both(which, &payload)?;
            }

            #[test]
            fn damaged_genuine_payloads_never_panic(
                which in 0usize..5,
                at in 0usize..4096,
                word in 0u64..u64::MAX,
                cut in 0usize..4096,
            ) {
                // Overwrite one 8-byte word (a count, an index, a length,
                // a grid dimension or a sample) with anything, then maybe
                // truncate.
                let mut payload = genuine()[which].1.clone();
                let at = at % payload.len().saturating_sub(7).max(1);
                let end = (at + 8).min(payload.len());
                payload[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                decode_both(which, &payload)?;
                payload.truncate(cut % (payload.len() + 1));
                decode_both(which, &payload)?;
            }
        }
    }
}
