//! The Kohn–Sham Hamiltonian `H = −½∇² + V_loc(r) + V_NL` applied to
//! planewave coefficient blocks.
//!
//! Wavefunction blocks are `(n_bands × n_pw)` matrices (one band per row).
//! The kinetic term is diagonal in G and the local potential is applied
//! via grid FFTs, one band at a time; the nonlocal Kleinman–Bylander term
//! of a block is then two GEMMs against the projector block
//! (`B = P·Ψᴴ`, scale by `E_p`, `HΨ += Bᴴ·P`) — exactly the BLAS-3
//! structure the paper's optimization #1 created ("a typical matrix size
//! for one of our fragments would be 3000 × 200"). Both products and the
//! Rayleigh–Ritz matrix `Ψ·(HΨ)ᴴ` run through [`gemm_into`] on scratch
//! owned by the [`HamWorkspace`], so a steady-state block application
//! allocates nothing. The single-band path ([`Hamiltonian::apply_vec_with`])
//! keeps one `dotc`/`axpy` pair per projector: it serves the band-by-band
//! solve, the unit tests' oracle and the fragment retry ladder's last rung.
//!
//! Every application is generic over the row representation
//! ([`Coeff`]): the Γ-point packed `f64` rows of [`PwBasis::pack`], or
//! `c64` full-sphere rows. For packed rows the Kleinman–Bylander term is
//! two *real* GEMMs against the packed projector block — the only one a
//! [`NonlocalPotential`] builds; a `c64` application unpacks a complex copy
//! the first time it needs one — and the kinetic term reads the packed
//! `|G|²` table. The local term differs in how many bands share a
//! transform: a `c64` row takes one complex sphere-pruned transform pair
//! per band, while a packed block — what the solver runs —
//! takes one pair per *two* bands: rows `2k` and `2k+1` are real
//! functions in `r`, so they ride as `ψ_a + i·ψ_b` and are split again in
//! G ([`PwBasis`] module docs, "Two real bands per complex transform").
//! An odd last band, the single-band path and the `c64` instantiation
//! keep one pair per band.

use crate::basis::HalfSphere;
use crate::{Coeff, PwAtom, PwBasis};
use ls3df_fft::Fft3Workspace;
use ls3df_grid::RealField;
use ls3df_math::gemm::{gemm_into, GemmScratch, Op};
use ls3df_math::vec_ops;
use ls3df_math::{c64, Matrix, Scalar};
use ls3df_obs::{counter_add, Counter};
use std::sync::{Arc, OnceLock};

/// Charges one block product `(m × k)·(k × n)` over `S` to
/// [`Counter::GemmFlops`]: `S::MADD_FLOPS` real flops per multiply-add
/// (8 complex, 2 real).
#[inline(always)]
pub(crate) fn count_block_product<S: Scalar>(m: usize, k: usize, n: usize) {
    counter_add(Counter::GemmFlops, S::MADD_FLOPS * (m * k * n) as u64);
}

/// Assembled Kleinman–Bylander nonlocal potential for a set of atoms on a
/// given basis: `V_NL = Σ_a E_a·|β_a⟩⟨β_a|` with `⟨G|β_a⟩` normalized over
/// the basis.
pub struct NonlocalPotential {
    /// Projector coefficients as Γ-point packed real rows
    /// ([`PwBasis::pack`]), `(n_proj × n_pw)`: what the `f64` applications
    /// multiply against.
    packed: Matrix<f64>,
    /// The basis' half-sphere index, to unpack `packed` with.
    half: Arc<HalfSphere>,
    /// The full-sphere `c64` projector block, unpacked from `packed` the
    /// first time a `c64` application asks for it (never, on the packed
    /// production path).
    complex: OnceLock<Matrix<c64>>,
    /// KB energy per projector (Hartree).
    energies: Vec<f64>,
}

impl NonlocalPotential {
    /// Builds projectors for atoms at `positions` with per-atom radial form
    /// factors `form(atom, q)` and strengths `e_kb[atom]`. Atoms with zero
    /// strength are skipped.
    pub fn new<F: Fn(usize, f64) -> f64>(
        basis: &PwBasis,
        positions: &[[f64; 3]],
        form: F,
        e_kb: &[f64],
    ) -> Self {
        Self::new_batched(
            basis,
            positions,
            |a, qs, out| {
                for (o, &q) in out.iter_mut().zip(qs) {
                    *o = form(a, q);
                }
            },
            e_kb,
        )
    }

    /// Gaussian projectors `exp(−q²·r_b²/2)` of strength `kb_energy` on
    /// every atom — a [`crate::DftSystem`]'s nonlocal part.
    pub fn of_atoms(basis: &PwBasis, atoms: &[PwAtom]) -> Self {
        let positions: Vec<[f64; 3]> = atoms.iter().map(|a| a.pos).collect();
        let e_kb: Vec<f64> = atoms.iter().map(|a| a.kb_energy).collect();
        let rb = |a: usize| atoms[a].kb_rb;
        Self::new(
            basis,
            &positions,
            |a, q| (-q * q * rb(a) * rb(a) / 2.0).exp(),
            &e_kb,
        )
    }

    /// [`NonlocalPotential::new`] with a *batched* radial form: the
    /// closure fills the form factor for a whole `|G|` list per atom
    /// (e.g. `KbProjector::fourier_batch`), letting the radial evaluation
    /// run as one tight vectorizable loop. The `|G|` magnitudes are
    /// hoisted out of the per-atom loop, so the npw square roots are paid
    /// once instead of once per atom.
    pub fn new_batched<F: Fn(usize, &[f64], &mut [f64])>(
        basis: &PwBasis,
        positions: &[[f64; 3]],
        form_batch: F,
        e_kb: &[f64],
    ) -> Self {
        assert_eq!(positions.len(), e_kb.len());
        let active: Vec<usize> = (0..positions.len()).filter(|&a| e_kb[a] != 0.0).collect();
        let npw = basis.len();
        let mut packed = Matrix::zeros(active.len(), npw);
        // alloc-audit: projector assembly — once per Hamiltonian geometry,
        // never inside the CG loop.
        let mut energies = Vec::with_capacity(active.len());
        let qs: Vec<f64> = basis.g2().iter().map(|g2| g2.sqrt()).collect();
        // alloc-audit: per-geometry staging for the batched radial form
        // factors — reused across atoms, freed before the CG loop starts.
        let mut radial = vec![0.0_f64; npw];
        // alloc-audit: per-geometry staging row of the full-sphere
        // projector, packed into `packed` row by row.
        let mut p = vec![c64::ZERO; npw];
        for (row, &a) in active.iter().enumerate() {
            let r_a = positions[a];
            form_batch(a, &qs, &mut radial);
            let mut norm2 = 0.0;
            for (i, g) in basis.g_vectors().iter().enumerate() {
                let phase = -(g[0] * r_a[0] + g[1] * r_a[1] + g[2] * r_a[2]);
                p[i] = c64::cis(phase).scale(radial[i]);
                norm2 += radial[i] * radial[i];
            }
            let inv = 1.0 / norm2.sqrt().max(1e-300);
            for v in p.iter_mut() {
                *v = v.scale(inv);
            }
            basis.pack(&p, packed.row_mut(row));
            energies.push(e_kb[a]);
        }
        NonlocalPotential {
            packed,
            half: Arc::clone(basis.half_sphere()),
            complex: OnceLock::new(),
            energies,
        }
    }

    /// An empty nonlocal potential (local-only Hamiltonian).
    pub fn none(basis: &PwBasis) -> Self {
        NonlocalPotential {
            packed: Matrix::zeros(0, basis.len()),
            half: Arc::clone(basis.half_sphere()),
            complex: OnceLock::new(),
            energies: Vec::new(),
        }
    }

    /// The full-sphere `c64` projector block, unpacked on first use.
    pub(crate) fn projectors(&self) -> &Matrix<c64> {
        self.complex
            .get_or_init(|| self.half.unpack_block(&self.packed))
    }

    pub(crate) fn packed_projectors(&self) -> &Matrix<f64> {
        &self.packed
    }

    /// Number of active projectors.
    pub fn len(&self) -> usize {
        self.energies.len()
    }

    /// True if no projectors are active.
    pub fn is_empty(&self) -> bool {
        self.energies.is_empty()
    }

    /// Heap bytes held: the packed projector block and the energies, plus
    /// the `c64` block if a `c64` application has built it.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(self.packed.as_slice())
            + size_of_val(self.energies.as_slice())
            + self.complex.get().map_or(0, |m| size_of_val(m.as_slice()))
    }

    /// `hpsi += V_NL·psi` for a whole block (two GEMMs). Allocating shim
    /// over the workspace path [`Hamiltonian::apply_block_with`] takes.
    pub fn accumulate_block<S: Coeff>(&self, psi: &Matrix<S>, hpsi: &mut Matrix<S>) {
        let mut coeffs = Matrix::zeros(0, 0);
        self.accumulate_block_with(psi, hpsi, &mut coeffs, &mut GemmScratch::new());
    }

    /// [`NonlocalPotential::accumulate_block`] through caller-owned
    /// scratch; `coeffs` is reshaped to `(n_proj × n_bands)` on first use.
    fn accumulate_block_with<S: Coeff>(
        &self,
        psi: &Matrix<S>,
        hpsi: &mut Matrix<S>,
        coeffs: &mut Matrix<S>,
        scratch: &mut GemmScratch<S>,
    ) {
        if self.is_empty() {
            return;
        }
        let (n_proj, n_bands) = (self.len(), psi.rows());
        if coeffs.shape() != (n_proj, n_bands) {
            // alloc-audit: first application of this block shape only.
            *coeffs = Matrix::zeros(n_proj, n_bands);
        }
        // coeffs[p][b] = Σ_G β_p·conj(ψ_b) = conj⟨β_p|ψ_b⟩. This orientation
        // (not Ψ·Pᴴ) makes the scalar kernels reproduce the per-band
        // `dotc(β_p, ψ_b)` / `axpy(.., β_p, Hψ_b)` sums bit for bit.
        let (one, zero) = (S::ONE, S::ZERO);
        let p = S::projectors(self);
        gemm_into(scratch, one, p, Op::None, psi, Op::ConjTrans, zero, coeffs);
        for (row, &e) in self.energies.iter().enumerate() {
            vec_ops::dscal(e, coeffs.row_mut(row));
        }
        // hpsi[b] += Σ_p E_p·⟨β_p|ψ_b⟩·β_p.
        gemm_into(scratch, one, coeffs, Op::ConjTrans, p, Op::None, one, hpsi);
        count_block_product::<S>(n_bands, psi.cols(), 2 * n_proj);
    }

    /// `hpsi += V_NL·psi` for a single band, allocation-free: one
    /// `dotc`/`axpy` pair per projector, no intermediate matrix.
    pub fn accumulate_vec<S: Coeff>(&self, psi: &[S], hpsi: &mut [S]) {
        let projectors = S::projectors(self);
        for (p, &e) in self.energies.iter().enumerate() {
            let beta = projectors.row(p);
            let coef = vec_ops::dotc(beta, psi).scale(e);
            vec_ops::axpy(coef, beta, hpsi);
        }
    }
}

/// Reusable scratch for [`Hamiltonian`] applications: the real-space
/// buffer for the `V(r)·ψ(r)` product, the FFT workspaces behind the pair
/// of grid transforms, and the block-product scratch of the
/// Kleinman–Bylander term. One per thread (or band block); never shared
/// concurrently. The grid buffer and FFT scratch are complex whatever the
/// row representation `S`.
pub struct HamWorkspace<S: Coeff = c64> {
    /// Real-space grid buffer (`ngrid` points).
    grid: Vec<c64>,
    /// Scratch for the forward/inverse 3-D transforms.
    fft: Fft3Workspace,
    /// Projector coefficients `(n_proj × n_bands)` of the block KB apply.
    kb_coeffs: Matrix<S>,
    /// Pack scratch of every block product on this workspace (the
    /// all-band solver's own products borrow it too).
    pub(crate) gemm: GemmScratch<S>,
}

/// The Kohn–Sham Hamiltonian for one (fragment or global) problem, at Γ.
pub struct Hamiltonian<'a> {
    basis: &'a PwBasis,
    nonlocal: &'a NonlocalPotential,
    /// The effective local potential over the grid size, `V(r)/N`: the
    /// one factor left of an H·ψ's normalizations (`1/N` inverse, `N/√Ω`
    /// synthesis, `V(r)`, `√Ω/N` analysis) once both sphere-pruned
    /// transforms run unnormalized.
    v_over_n: RealField,
}

impl<'a> Hamiltonian<'a> {
    /// Assembles the Hamiltonian from its parts. The local potential must
    /// live on the basis grid.
    pub fn new(basis: &'a PwBasis, v_local: RealField, nonlocal: &'a NonlocalPotential) -> Self {
        assert_eq!(
            v_local.grid(),
            basis.grid(),
            "Hamiltonian: potential grid mismatch"
        );
        let mut v_over_n = v_local;
        v_over_n.scale(1.0 / basis.grid().len() as f64);
        Hamiltonian {
            basis,
            nonlocal,
            v_over_n,
        }
    }

    /// The basis this Hamiltonian acts on.
    pub fn basis(&self) -> &PwBasis {
        self.basis
    }

    /// Builds the reusable scratch one `H·ψ` application needs (grid
    /// buffer + FFT workspaces). Build once per thread / band block and
    /// pass to the `*_with` application methods.
    pub fn workspace<S: Coeff>(&self) -> HamWorkspace<S> {
        HamWorkspace {
            // alloc-audit: one-time workspace setup, not a per-application
            // cost — every later apply_*_with call is heap-free.
            grid: vec![c64::ZERO; self.basis.grid().len()],
            fft: self.basis.fft().workspace(),
            kb_coeffs: Matrix::zeros(0, 0),
            gemm: GemmScratch::new(),
        }
    }

    /// Applies `H` to a block of bands.
    ///
    /// Convenience wrapper over [`Hamiltonian::apply_block_with`]. The
    /// transforms run band-sequentially: LS3DF parallelizes over
    /// fragments one level up, and a sequential inner loop keeps the
    /// steady state allocation-free (the shim's parallel iterators buffer
    /// their input).
    pub fn apply_block<S: Coeff>(&self, psi: &Matrix<S>) -> Matrix<S> {
        // alloc-audit: one-shot path; hot loops hold a HamWorkspace and
        // a preallocated output block.
        let mut hpsi = Matrix::zeros(psi.rows(), psi.cols());
        let mut ws = self.workspace();
        self.apply_block_with(psi, &mut hpsi, &mut ws);
        hpsi
    }

    /// Applies `H` to a block of bands into a caller-owned output block
    /// using caller-owned scratch: local + kinetic band by band (two bands
    /// per transform pair for a packed real block), then one block
    /// Kleinman–Bylander apply. Performs no heap allocation once the
    /// workspace has seen the block shape.
    pub fn apply_block_with<S: Coeff>(
        &self,
        psi: &Matrix<S>,
        hpsi: &mut Matrix<S>,
        ws: &mut HamWorkspace<S>,
    ) {
        assert_eq!(psi.rows(), hpsi.rows(), "apply_block: band count mismatch");
        assert_eq!(psi.cols(), hpsi.cols(), "apply_block: width mismatch");
        let nb = psi.rows();
        let (grid, fft) = (&mut ws.grid, &mut ws.fft);
        // Bands below `paired` went through a transform pair two at a time.
        let mut paired = 0;
        if let (Some(psi_r), Some(hpsi_r)) = (S::as_real(psi), S::as_real_mut(hpsi)) {
            paired = nb - nb % 2;
            for b in (0..paired).step_by(2) {
                let (ha, hb) = hpsi_r.rows_mut2(b, b + 1);
                self.apply_local_kinetic_pair([psi_r.row(b), psi_r.row(b + 1)], ha, hb, grid, fft);
            }
        }
        for b in paired..nb {
            self.apply_local_kinetic(psi.row(b), hpsi.row_mut(b), grid, fft);
        }
        self.nonlocal
            .accumulate_block_with(psi, hpsi, &mut ws.kb_coeffs, &mut ws.gemm);
    }

    /// Applies `H` to a single band (the band-by-band code path).
    ///
    /// Convenience wrapper over [`Hamiltonian::apply_vec_with`].
    pub fn apply_vec<S: Coeff>(&self, psi: &[S]) -> Vec<S> {
        // alloc-audit: one-shot path; hot loops hold a HamWorkspace and a
        // preallocated output vector.
        let mut hpsi = vec![S::ZERO; psi.len()];
        let mut ws = self.workspace();
        self.apply_vec_with(psi, &mut hpsi, &mut ws);
        hpsi
    }

    /// `hpsi = H·psi` for one band through caller-owned scratch,
    /// allocation-free. `hpsi` is fully overwritten.
    pub fn apply_vec_with<S: Coeff>(&self, psi: &[S], hpsi: &mut [S], ws: &mut HamWorkspace<S>) {
        self.apply_local_kinetic(psi, hpsi, &mut ws.grid, &mut ws.fft);
        self.nonlocal.accumulate_vec(psi, hpsi);
    }

    /// `hpsi = (−½∇² + V_loc)·psi` for one band; `hpsi` is fully
    /// overwritten.
    fn apply_local_kinetic<S: Coeff>(
        &self,
        psi: &[S],
        hpsi: &mut [S],
        grid: &mut [c64],
        fft: &mut Fft3Workspace,
    ) {
        assert_eq!(
            psi.len(),
            self.basis.len(),
            "apply_vec: basis size mismatch"
        );
        assert_eq!(hpsi.len(), psi.len(), "apply_vec: output size mismatch");
        // A packed real row lands on the grid as c_G / conj c_G and takes
        // the same complex transform pair as a full-sphere row.
        S::scatter(self.basis, psi, grid);
        self.local_round_trip(grid, fft);
        S::gather(self.basis, grid, hpsi);
        self.add_kinetic(psi, hpsi);
    }

    /// [`Hamiltonian::apply_local_kinetic`] for two packed real rows in one
    /// transform pair: `ψ_a + i·ψ_b` goes round the grid and the two
    /// results are split out of its spectrum.
    fn apply_local_kinetic_pair(
        &self,
        [a, b]: [&[f64]; 2],
        ha: &mut [f64],
        hb: &mut [f64],
        grid: &mut [c64],
        fft: &mut Fft3Workspace,
    ) {
        self.basis.scatter_packed_pair(a, b, grid);
        self.local_round_trip(grid, fft);
        self.basis.gather_packed_pair(grid, ha, hb);
        self.add_kinetic(a, ha);
        self.add_kinetic(b, hb);
    }

    /// The local potential on scattered coefficients, in place:
    /// `ψ(G) → ψ(r) → V(r)·ψ(r) → (Vψ)(G)`. Both transforms are raw and
    /// sphere-pruned; `V(r)/N` is the only scaling the round trip needs.
    fn local_round_trip(&self, grid: &mut [c64], fft: &mut Fft3Workspace) {
        let (plan, sphere) = (self.basis.fft(), self.basis.sphere());
        plan.inverse_from_sparse(grid, sphere, fft);
        for (b, &vv) in grid.iter_mut().zip(self.v_over_n.as_slice()) {
            *b = b.scale(vv);
        }
        plan.forward_to_sparse(grid, sphere, fft);
    }

    /// `hpsi += −½∇²·psi`, diagonal in G.
    fn add_kinetic<S: Coeff>(&self, psi: &[S], hpsi: &mut [S]) {
        for ((h, &p), &g2i) in hpsi.iter_mut().zip(psi).zip(S::g2(self.basis)) {
            *h += p.scale(0.5 * g2i);
        }
    }

    /// Kinetic energy `⟨ψ|−½∇²|ψ⟩` of one band.
    pub fn kinetic_expectation<S: Coeff>(&self, psi: &[S]) -> f64 {
        psi.iter()
            .zip(S::g2(self.basis))
            .map(|(c, &g2)| 0.5 * g2 * c.norm_sqr())
            .sum()
    }

    /// Subspace (Rayleigh–Ritz) matrix `M[i][j] = ⟨ψ_i|H|ψ_j⟩` given the
    /// precomputed `H·ψ` block. Allocating shim over the crate's
    /// in-place `subspace_matrix_into`.
    pub fn subspace_matrix<S: Coeff>(psi: &Matrix<S>, hpsi: &Matrix<S>) -> Matrix<S> {
        let n = psi.rows();
        let (mut raw, mut m) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
        Self::subspace_matrix_into(psi, hpsi, &mut raw, &mut m, &mut GemmScratch::new());
        m
    }

    /// [`Hamiltonian::subspace_matrix`] into caller-owned `(n_b × n_b)`
    /// matrices: `raw` receives the unsymmetrized product, `m` the result.
    pub(crate) fn subspace_matrix_into<S: Coeff>(
        psi: &Matrix<S>,
        hpsi: &Matrix<S>,
        raw: &mut Matrix<S>,
        m: &mut Matrix<S>,
        scratch: &mut GemmScratch<S>,
    ) {
        // (Ψ·(HΨ)ᴴ)[i][j] = Σ_G ψ_i·conj(Hψ_j) = ⟨ψ_j|H|ψ_i⟩, i.e. the
        // TRANSPOSE of M[i][j] = ⟨ψ_i|H|ψ_j⟩. Undo the transpose and
        // symmetrize against rounding in one pass.
        let (one, zero) = (S::ONE, S::ZERO);
        gemm_into(scratch, one, psi, Op::None, hpsi, Op::ConjTrans, zero, raw);
        let n = psi.rows();
        count_block_product::<S>(n, psi.cols(), n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = (raw[(j, i)] + raw[(i, j)].conj()).scale(0.5);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_grid::Grid3;
    use ls3df_math::vec_ops::dotc;

    fn setup() -> (PwBasis, RealField) {
        let grid = Grid3::cubic(10, 8.0);
        let basis = PwBasis::new(grid.clone(), 1.5);
        let v = RealField::from_fn(grid, |r| {
            0.3 * (2.0 * std::f64::consts::PI * r[0] / 8.0).cos()
                + 0.1 * (2.0 * std::f64::consts::PI * r[1] / 8.0).sin()
        });
        (basis, v)
    }

    fn rand_block(nb: usize, npw: usize, seed: u64) -> Matrix<c64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut m = Matrix::from_fn(nb, npw, |_, _| c64::new(next(), next()));
        ls3df_math::ortho::cholesky_orthonormalize(&mut m, 1.0).unwrap();
        m
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        let (basis, v) = setup();
        let nl = NonlocalPotential::new(
            &basis,
            &[[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]],
            |_, q| (-0.5 * q * q).exp(),
            &[1.3, -0.7],
        );
        let h = Hamiltonian::new(&basis, v, &nl);
        let psi = rand_block(4, basis.len(), 3);
        let hpsi = h.apply_block(&psi);
        // ⟨ψ_i|Hψ_j⟩ must be Hermitian for an orthonormal block.
        let m = ls3df_math::gemm::matmul_nh(&psi, &hpsi);
        assert!(
            m.hermiticity_error() < 1e-10,
            "err = {}",
            m.hermiticity_error()
        );
    }

    #[test]
    fn free_electron_kinetic_eigenvalues() {
        let (basis, _) = setup();
        let zero_v = RealField::zeros(basis.grid().clone());
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, zero_v, &nl);
        // Each planewave is an eigenstate with ε = |G|²/2.
        for &i in &[0usize, 1, 5, basis.len() - 1] {
            let mut psi = vec![c64::ZERO; basis.len()];
            psi[i] = c64::ONE;
            let hpsi = h.apply_vec(&psi);
            for (j, v) in hpsi.iter().enumerate() {
                let expect = if j == i { 0.5 * basis.g2()[i] } else { 0.0 };
                assert!(
                    (*v - c64::real(expect)).abs() < 1e-10,
                    "G-vector {i}: component {j} = {v:?}, want {expect}"
                );
            }
        }
    }

    #[test]
    fn constant_potential_shifts_spectrum() {
        let (basis, _) = setup();
        let v0 = 0.37;
        let v = RealField::constant(basis.grid().clone(), v0);
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        let psi = rand_block(1, basis.len(), 5);
        let e = dotc(psi.row(0), &h.apply_vec(psi.row(0))).re;
        let kin = h.kinetic_expectation(psi.row(0));
        assert!((e - kin - v0).abs() < 1e-10, "e = {e}, kinetic = {kin}");
    }

    #[test]
    fn nonlocal_projector_energy_positive_for_positive_ekb() {
        let (basis, _) = setup();
        let nl = NonlocalPotential::new(
            &basis,
            &[[0.0, 0.0, 0.0]],
            |_, q| (-q * q / 2.0).exp(),
            &[2.0],
        );
        // Σ_b f_b·⟨ψ_b|V_NL ψ_b⟩ over orthonormal packed rows lies in
        // [0, Σ_b f_b·Σ_p E_p].
        let occupations = [1.0, 1.0];
        let mut psi = basis.pack_block(&rand_block(occupations.len(), basis.len(), 8));
        ls3df_math::ortho::cholesky_orthonormalize(&mut psi, 1.0).unwrap();
        let mut vpsi = Matrix::zeros(psi.rows(), psi.cols());
        nl.accumulate_block(&psi, &mut vpsi);
        let e: f64 = occupations
            .iter()
            .enumerate()
            .map(|(b, f)| f * dotc(psi.row(b), vpsi.row(b)))
            .sum();
        assert!(e >= 0.0, "e = {e}");
        assert!(e <= 2.0 * 2.0 + 1e-12, "bounded by E_kb per band: e = {e}");
    }

    #[test]
    fn apply_vec_matches_block_row() {
        // The block path (one Kleinman–Bylander GEMM pair per block) against
        // the single-band path (one dotc/axpy pair per projector), on the
        // scalar kernels (3 bands × 8 projectors) and on the packed kernel
        // (48 bands × 24 projectors × ≈ 250 planewaves is block-sized).
        for (n, edge, ecut, n_bands, n_proj) in [(10, 8.0, 1.5, 3, 8), (16, 12.0, 2.0, 48, 24)] {
            let grid = Grid3::cubic(n, edge);
            let basis = PwBasis::new(grid.clone(), ecut);
            assert!(basis.len() > n_bands);
            let v = RealField::from_fn(grid, |r| {
                0.3 * (r[0] * 0.7).cos() + 0.1 * (r[1] * 0.5).sin()
            });
            let sites: Vec<[f64; 3]> = (0..n_proj)
                .map(|a| {
                    let t = a as f64 * edge / n_proj as f64;
                    [t, edge - t, (3.0 * t) % edge]
                })
                .collect();
            let e_kb: Vec<f64> = (0..n_proj).map(|a| 0.4 + 0.1 * a as f64).collect();
            let nl = NonlocalPotential::new(&basis, &sites, |_, q| (-0.8 * q * q).exp(), &e_kb);
            assert_eq!(nl.len(), n_proj);
            let h = Hamiltonian::new(&basis, v, &nl);
            let psi = rand_block(n_bands, basis.len(), 9);
            let hpsi = h.apply_block(&psi);
            for b in 0..n_bands {
                let single = h.apply_vec(psi.row(b));
                for (x, y) in single.iter().zip(hpsi.row(b)) {
                    assert!((*x - *y).abs() < 1e-11, "{n_bands} bands, band {b}");
                }
            }
        }
    }

    #[test]
    fn projector_normalized() {
        let (basis, _) = setup();
        let nl = NonlocalPotential::new(
            &basis,
            &[[1.0, 1.5, 2.0]],
            |_, q| (-q * q / 3.0).exp(),
            &[1.0],
        );
        let p = nl.projectors().row(0);
        assert!((dotc(p, p).re - 1.0).abs() < 1e-12);
        let packed = nl.packed_projectors().row(0);
        assert!((dotc(packed, packed) - 1.0).abs() < 1e-12);
    }
}
