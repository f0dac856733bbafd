//! Planewave basis within an energy cutoff.
//!
//! Conventions (used consistently across the direct solver and LS3DF):
//!
//! * orbital `ψ(r) = (1/√Ω)·Σ_G c_G·e^{iG·r}` with `Σ_G |c_G|² = 1`;
//! * the basis contains every reciprocal vector with kinetic energy
//!   `|G|²/2 ≤ E_cut` (Hartree units, Γ-point);
//! * grid transfers: [`PwBasis::wave_to_grid`] produces `ψ(rᵢ)` such that
//!   `Σᵢ |ψ(rᵢ)|²·dv = 1`, and [`PwBasis::grid_to_wave`] is its exact
//!   left inverse.
//!
//! The grid transfers are **sphere-aware**: the coefficients live inside
//! the cutoff sphere, a small part of the FFT box (radius ≈ 3 grid units
//! on a 14³ fragment box at `E_cut = 1.5`), so the synthesis transforms
//! only the x-lines and y-pencils the sphere touches before its full z
//! pass, and the analysis runs the mirror order and skips every line whose
//! outputs the basis never reads (`ls3df_fft::Occupancy`, built once per
//! basis). `tests/kernel_tol.rs` rebuilds the full-grid transfers from the
//! public plan as their oracle.
//!
//! ## Γ-point packed real rows
//!
//! At Γ in a real potential every orbital can be chosen real in `r`, i.e.
//! `c_{−G} = conj(c_G)`: half of a full-sphere coefficient row is
//! redundant. The basis therefore also carries a **half-sphere index**
//! (built in one pass over the G list): the self-conjugate vectors
//! (`−G ≡ G` on the grid: `G = 0` and any point whose every component is
//! `0` or the Nyquist index of an even axis), then each `[G, −G]` pair
//! once. [`PwBasis::pack`] maps a full-sphere `c64` row to an `f64` row of
//! the *same length*,
//!
//! ```text
//! (c_s …,  √2·Re c_G, √2·Im c_G, …)        s self-conjugate, one G per pair
//! ```
//!
//! and [`PwBasis::unpack`] maps it back. The `√2` makes the plain real dot
//! of two packed rows equal the complex inner product `⟨a|b⟩` of the rows
//! they came from, so every inner product, norm, overlap matrix and block
//! product of the eigensolver can run on `f64` data with a quarter of the
//! flops and half the bytes (see `crate::solver`). `pack` of a row that is
//! *not* conjugate-symmetric gives the coefficients of `Re ψ(r)`. Pairing
//! is by grid index negation, so Nyquist points need no special case.
//!
//! ## Two real bands per complex transform
//!
//! A packed row is a real function on the grid, so two of them fit in
//! one complex grid function `ψ_a(r) + i·ψ_b(r)`:
//! [`PwBasis::scatter_packed_pair`] puts `c_a + i·c_b` on the slot of `G`
//! and `conj c_a + i·conj c_b` on the slot of `−G`, and after a transform
//! round trip through a real potential [`PwBasis::gather_packed_pair`]
//! splits the spectrum `F` back into the two rows,
//!
//! ```text
//! A(G) = (F(G) + conj F(−G))/2,   B(G) = (F(G) − conj F(−G))/2i
//! ```
//!
//! (`Re F` / `Im F` on a self-conjugate slot). [`crate::Hamiltonian`] runs
//! its `f64` blocks this way, one transform pair per two bands, and
//! `compute_density` synthesizes two occupied packed rows per transform.
//! A `c64` block reaches the density through the same pairing only for
//! rows [`PwBasis::is_conjugate_symmetric`] accepts.

use ls3df_fft::{Fft3, Fft3Workspace, Occupancy};
use ls3df_grid::Grid3;
use ls3df_math::{c64, Matrix};
use std::sync::{Arc, Mutex};

/// Planewave basis bound to a periodic grid.
pub struct PwBasis {
    grid: Grid3,
    fft: Fft3,
    ecut: f64,
    /// Linear grid index of each basis G-vector.
    g_slot: Vec<usize>,
    /// |G|² for each basis vector.
    g2: Vec<f64>,
    /// Cartesian G for each basis vector.
    g_vec: Vec<[f64; 3]>,
    /// Γ-point half-sphere index behind the packed real rows; shared with
    /// the projector blocks built on this basis, which unpack through it.
    half: Arc<HalfSphere>,
    /// Grid lines the cutoff sphere touches: what the sphere-aware
    /// transforms skip the rest by.
    sphere: Occupancy,
    /// Pool of FFT workspaces backing the convenience (non-`_with`)
    /// transform methods: after warmup, checkout/return is push/pop on a
    /// preallocated Vec and the transforms stay heap-free.
    ws_pool: Mutex<Vec<Fft3Workspace>>,
}

/// The half-sphere index of a basis: which full-sphere coefficients a
/// packed real row (see the module docs) keeps, in packed order.
pub(crate) struct HalfSphere {
    /// Basis indices of the self-conjugate vectors (`−G ≡ G` on the grid);
    /// they fill packed slots `0..selfs.len()`.
    selfs: Vec<usize>,
    /// Basis indices `[G, −G]` of each conjugate pair, `G` the member that
    /// comes first in basis order; pair `p` fills packed slots
    /// `selfs.len() + 2p` (`√2·Re c_G`) and `+ 2p + 1` (`√2·Im c_G`).
    pairs: Vec<[usize; 2]>,
    /// `|G|²` per packed slot (both slots of a pair carry the pair's).
    g2: Vec<f64>,
}

impl HalfSphere {
    /// One pass over the basis' grid slots; each vector's partner is found
    /// by negating its grid index and looking it up in a slot → basis
    /// index table.
    fn new(grid: &Grid3, g_slot: &[usize], g2: &[f64]) -> Self {
        let [n1, n2, n3] = grid.dims;
        // alloc-audit: basis construction, once per geometry.
        let mut basis_index = vec![u32::MAX; grid.len()];
        for (i, &slot) in g_slot.iter().enumerate() {
            basis_index[slot] = i as u32;
        }
        let mut selfs = Vec::new();
        // alloc-audit: basis construction, once per geometry.
        let mut pairs = Vec::with_capacity(g_slot.len() / 2);
        for (i, &slot) in g_slot.iter().enumerate() {
            let (ix, iy, iz) = grid.coords(slot);
            let negated = grid.index((n1 - ix) % n1, (n2 - iy) % n2, (n3 - iz) % n3);
            if negated == slot {
                selfs.push(i);
            } else if negated > slot {
                let partner = basis_index[negated];
                assert!(
                    partner != u32::MAX,
                    "the cutoff sphere is symmetric under G -> -G"
                );
                pairs.push([i, partner as usize]);
            }
        }
        let packed_g2 = selfs
            .iter()
            .map(|&i| g2[i])
            .chain(pairs.iter().flat_map(|&[i, _]| [g2[i]; 2]))
            .collect();
        HalfSphere {
            selfs,
            pairs,
            g2: packed_g2,
        }
    }

    /// [`PwBasis::unpack`] on this index.
    pub(crate) fn unpack(&self, packed: &[f64], full: &mut [c64]) {
        assert_eq!(full.len(), packed.len(), "unpack: packed row length");
        let (selfs, pairs) = packed.split_at(self.selfs.len());
        for (&p, &i) in selfs.iter().zip(&self.selfs) {
            full[i] = c64::real(p);
        }
        for (p, &[i, j]) in pairs.chunks_exact(2).zip(&self.pairs) {
            // Divided, not multiplied by 1/√2: `x·√2/√2` is within one ulp
            // of `x`.
            let c = c64::new(
                p[0] / std::f64::consts::SQRT_2,
                p[1] / std::f64::consts::SQRT_2,
            );
            full[i] = c;
            full[j] = c.conj();
        }
    }

    /// [`PwBasis::unpack`] of every row of a packed block.
    pub(crate) fn unpack_block(&self, packed: &Matrix<f64>) -> Matrix<c64> {
        let (rows, cols) = packed.shape();
        // alloc-audit: one full-sphere block per call — the `c64` façades
        // and post-processing, never the SCF hot path.
        let mut full = Matrix::zeros(rows, cols);
        for b in 0..rows {
            self.unpack(packed.row(b), full.row_mut(b));
        }
        full
    }
}

impl PwBasis {
    /// Builds the basis for `grid` with cutoff `ecut` (Hartree).
    ///
    /// Panics if the grid is too coarse to hold the cutoff sphere (the
    /// highest representable frequency must reach `G_max = √(2·E_cut)`).
    pub fn new(grid: Grid3, ecut: f64) -> Self {
        assert!(ecut > 0.0, "PwBasis: cutoff must be positive");
        let g_max = (2.0 * ecut).sqrt();
        for ax in 0..3 {
            let n = grid.dims[ax];
            let nyquist = std::f64::consts::PI * n as f64 / grid.lengths[ax];
            assert!(
                nyquist >= g_max,
                "PwBasis: grid axis {ax} ({n} points over {:.3} Bohr) cannot represent \
                 G_max = {g_max:.3}; increase the grid or lower the cutoff",
                grid.lengths[ax]
            );
        }
        let mut g_slot = Vec::new();
        let mut g2s = Vec::new();
        let mut g_vec = Vec::new();
        for (ix, iy, iz) in grid.iter_points() {
            let g2 = grid.g2(ix, iy, iz);
            if 0.5 * g2 <= ecut {
                g_slot.push(grid.index(ix, iy, iz));
                g2s.push(g2);
                g_vec.push(grid.g_vector(ix, iy, iz));
            }
        }
        let fft = Fft3::new(grid.dims[0], grid.dims[1], grid.dims[2]);
        let sphere = fft.occupancy(&g_slot);
        let half = Arc::new(HalfSphere::new(&grid, &g_slot, &g2s));
        PwBasis {
            grid,
            fft,
            ecut,
            g_slot,
            g2: g2s,
            g_vec,
            half,
            sphere,
            ws_pool: Mutex::new(Vec::new()),
        }
    }

    /// Checks an FFT workspace out of the basis pool (building one on
    /// first use). Pair with [`PwBasis::return_fft_workspace`]; long-lived
    /// holders (per-thread solver state) may simply keep it.
    pub fn take_fft_workspace(&self) -> Fft3Workspace {
        let ws = self.ws_pool.lock().unwrap_or_else(|e| e.into_inner()).pop();
        // alloc-audit: pool warmup only — steady state pops a recycled
        // workspace without touching the heap.
        ws.unwrap_or_else(|| self.fft.workspace())
    }

    /// Returns a workspace taken with [`PwBasis::take_fft_workspace`] to
    /// the pool for reuse.
    pub fn return_fft_workspace(&self, ws: Fft3Workspace) {
        self.ws_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ws);
    }

    /// Number of planewaves in the basis.
    #[inline]
    pub fn len(&self) -> usize {
        self.g_slot.len()
    }

    /// True if the basis is empty (never for a valid cutoff).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.g_slot.is_empty()
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// Heap bytes of the per-G index tables (slots, `|G|²`, Cartesian `G`,
    /// the half-sphere index). The FFT plan and the pooled transform
    /// workspaces are not counted.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(self.g_slot.as_slice())
            + size_of_val(self.g2.as_slice())
            + size_of_val(self.g_vec.as_slice())
            + size_of_val(self.half.selfs.as_slice())
            + size_of_val(self.half.pairs.as_slice())
            + size_of_val(self.half.g2.as_slice())
    }

    /// The FFT plan for this grid.
    #[inline]
    pub fn fft(&self) -> &Fft3 {
        &self.fft
    }

    /// Energy cutoff (Hartree).
    #[inline]
    pub fn ecut(&self) -> f64 {
        self.ecut
    }

    /// `|G|²` per basis vector.
    #[inline]
    pub fn g2(&self) -> &[f64] {
        &self.g2
    }

    /// Cartesian `G` per basis vector.
    #[inline]
    pub fn g_vectors(&self) -> &[[f64; 3]] {
        &self.g_vec
    }

    /// Index of the `G = 0` planewave within the basis.
    #[expect(
        clippy::expect_used,
        reason = "G = 0 lies inside every ecut > 0 sphere by construction, so g0_index() always finds it"
    )]
    pub fn g0_index(&self) -> usize {
        self.g2
            .iter()
            .position(|&g2| g2 == 0.0)
            .expect("basis always contains G = 0")
    }

    /// `|G|²` per slot of a packed real row.
    #[inline]
    pub(crate) fn g2_packed(&self) -> &[f64] {
        &self.half.g2
    }

    /// Number of self-conjugate basis vectors (`−G ≡ G` on the grid): the
    /// leading slots of a packed real row, which hold `c_s` unscaled.
    /// `1` (just `G = 0`) unless the cutoff sphere reaches a Nyquist plane.
    pub fn n_self_conjugate(&self) -> usize {
        self.half.selfs.len()
    }

    /// Packs a full-sphere coefficient row into the Γ-point real row of
    /// the same length (layout in the module docs). For a
    /// conjugate-symmetric row this loses nothing; for a general row the
    /// result is the packed row of `Re ψ(r)`.
    pub fn pack(&self, full: &[c64], packed: &mut [f64]) {
        assert_eq!(full.len(), self.len(), "pack: coefficient count");
        assert_eq!(packed.len(), self.len(), "pack: packed row length");
        let (selfs, pairs) = packed.split_at_mut(self.half.selfs.len());
        for (p, &i) in selfs.iter_mut().zip(&self.half.selfs) {
            *p = full[i].re;
        }
        for (p, &[i, j]) in pairs.chunks_exact_mut(2).zip(&self.half.pairs) {
            // √2·(c_G + conj c_−G)/2.
            p[0] = (0.5 * (full[i].re + full[j].re)) * std::f64::consts::SQRT_2;
            p[1] = (0.5 * (full[i].im - full[j].im)) * std::f64::consts::SQRT_2;
        }
    }

    /// Expands a packed real row back to the full-sphere coefficients
    /// `c_s`, `c_G`, `c_−G = conj c_G` — the inverse of [`PwBasis::pack`]
    /// on conjugate-symmetric rows.
    pub fn unpack(&self, packed: &[f64], full: &mut [c64]) {
        assert_eq!(full.len(), self.len(), "unpack: coefficient count");
        self.half.unpack(packed, full);
    }

    /// [`PwBasis::pack`] of every row of a full-sphere block.
    pub fn pack_block(&self, full: &Matrix<c64>) -> Matrix<f64> {
        let (rows, cols) = full.shape();
        // alloc-audit: one packed block per call (the `c64` façades).
        let mut packed = Matrix::zeros(rows, cols);
        for b in 0..rows {
            self.pack(full.row(b), packed.row_mut(b));
        }
        packed
    }

    /// [`PwBasis::unpack`] of every row of a packed block: the full-sphere
    /// `c64` block a packed state stands for.
    pub fn unpack_block(&self, packed: &Matrix<f64>) -> Matrix<c64> {
        assert_eq!(packed.cols(), self.len(), "unpack: packed row length");
        self.half.unpack_block(packed)
    }

    /// The half-sphere index, shared with what unpacks rows of this basis
    /// later ([`crate::NonlocalPotential`]'s lazy `c64` block).
    pub(crate) fn half_sphere(&self) -> &Arc<HalfSphere> {
        &self.half
    }

    /// Fills a packed real row (a real orbital) with one `draw(|G|²)` per
    /// half-sphere vector: `Re` of it on each self-conjugate slot,
    /// `(√2·Re, √2·Im)` of it for each pair — bit for bit [`PwBasis::pack`]
    /// of the conjugate-symmetric row whose `c_G` is the draw.
    pub(crate) fn fill_packed(&self, packed: &mut [f64], mut draw: impl FnMut(f64) -> c64) {
        assert_eq!(packed.len(), self.len(), "fill_packed: packed row length");
        let (selfs, pairs) = packed.split_at_mut(self.half.selfs.len());
        for (p, &i) in selfs.iter_mut().zip(&self.half.selfs) {
            *p = draw(self.g2[i]).re;
        }
        for (p, &[i, _]) in pairs.chunks_exact_mut(2).zip(&self.half.pairs) {
            let c = draw(self.g2[i]);
            p[0] = c.re * std::f64::consts::SQRT_2;
            p[1] = c.im * std::f64::consts::SQRT_2;
        }
    }

    /// Whether a full-sphere row is exactly conjugate-symmetric (a real
    /// orbital): `c_−G = conj c_G` on every pair and `Im c_s = 0` on every
    /// self-conjugate vector, bit for bit. True for every row
    /// [`PwBasis::unpack`] wrote.
    pub fn is_conjugate_symmetric(&self, full: &[c64]) -> bool {
        assert_eq!(
            full.len(),
            self.len(),
            "is_conjugate_symmetric: coefficient count"
        );
        self.half.selfs.iter().all(|&i| full[i].im == 0.0)
            && (self.half.pairs.iter()).all(|&[i, j]| full[j] == full[i].conj())
    }

    /// Scatters planewave coefficients onto the grid and synthesizes
    /// `ψ(rᵢ) = (1/√Ω)·Σ_G c_G·e^{iG·rᵢ}` into `buf` (length = grid size).
    ///
    /// Convenience wrapper over [`PwBasis::wave_to_grid_with`] backed by
    /// the basis workspace pool.
    pub fn wave_to_grid(&self, coeffs: &[c64], buf: &mut [c64]) {
        let mut ws = self.take_fft_workspace();
        self.wave_to_grid_with(coeffs, buf, &mut ws);
        self.return_fft_workspace(ws);
    }

    /// [`PwBasis::wave_to_grid`] through caller-provided FFT scratch —
    /// the allocation-free hot-path entry point.
    pub fn wave_to_grid_with(&self, coeffs: &[c64], buf: &mut [c64], ws: &mut Fft3Workspace) {
        self.scatter(coeffs, buf);
        self.synthesize(buf, ws);
    }

    /// Zeroes `buf` and drops two conjugate-symmetric full-sphere rows on
    /// the grid as `c_a + i·c_b`: one synthesis then gives
    /// `ψ_a(rᵢ) + i·ψ_b(rᵢ)`, whose `Re`/`Im` are the two real orbitals.
    /// Rows that are not conjugate-symmetric mix, so callers check
    /// [`PwBasis::is_conjugate_symmetric`] first.
    pub(crate) fn scatter_pair(&self, a: &[c64], b: &[c64], buf: &mut [c64]) {
        assert_eq!(a.len(), self.len(), "wave_to_grid: coefficient count");
        assert_eq!(b.len(), self.len(), "wave_to_grid: coefficient count");
        assert_eq!(buf.len(), self.grid.len(), "wave_to_grid: buffer size");
        buf.fill(c64::ZERO);
        for ((&slot, &ca), &cb) in self.g_slot.iter().zip(a).zip(b) {
            buf[slot] = c64::new(ca.re - cb.im, ca.im + cb.re);
        }
    }

    /// The transform half of [`PwBasis::wave_to_grid_with`]: `buf` holds
    /// scattered coefficients on entry, `ψ(rᵢ)` on exit.
    pub(crate) fn synthesize(&self, buf: &mut [c64], ws: &mut Fft3Workspace) {
        // The sphere-aware inverse is the bare Σ_G c_G·e^{iG·r}.
        self.fft.inverse_from_sparse(buf, &self.sphere, ws);
        let scale = 1.0 / self.grid.volume().sqrt();
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }

    /// Analyzes a grid function back into planewave coefficients: the exact
    /// left inverse of [`PwBasis::wave_to_grid`] (and the adjoint up to the
    /// `dv` metric, used to project `V·ψ` onto the basis).
    ///
    /// Convenience wrapper over [`PwBasis::grid_to_wave_with`] backed by
    /// the basis workspace pool.
    pub fn grid_to_wave(&self, buf: &mut [c64], coeffs: &mut [c64]) {
        let mut ws = self.take_fft_workspace();
        self.grid_to_wave_with(buf, coeffs, &mut ws);
        self.return_fft_workspace(ws);
    }

    /// [`PwBasis::grid_to_wave`] through caller-provided FFT scratch —
    /// the allocation-free hot-path entry point. `buf` is consumed as
    /// scratch.
    pub fn grid_to_wave_with(&self, buf: &mut [c64], coeffs: &mut [c64], ws: &mut Fft3Workspace) {
        assert_eq!(buf.len(), self.grid.len(), "grid_to_wave: buffer size");
        self.fft.forward_to_sparse(buf, &self.sphere, ws);
        self.gather(buf, coeffs);
        // forward = Σ_j …; c_G = (√Ω/N)·forward.
        let scale = self.grid.volume().sqrt() / self.grid.len() as f64;
        for c in coeffs.iter_mut() {
            *c = c.scale(scale);
        }
    }

    /// The cutoff sphere's footprint on the grid — for callers that run
    /// the sparse transforms themselves to fold the normalizations into
    /// their own pass over the grid ([`crate::Hamiltonian`]).
    pub(crate) fn sphere(&self) -> &Occupancy {
        &self.sphere
    }

    /// Zeroes `buf` and drops the coefficients onto their grid slots.
    pub(crate) fn scatter(&self, coeffs: &[c64], buf: &mut [c64]) {
        assert_eq!(coeffs.len(), self.len(), "wave_to_grid: coefficient count");
        assert_eq!(buf.len(), self.grid.len(), "wave_to_grid: buffer size");
        buf.fill(c64::ZERO);
        for (slot, &c) in self.g_slot.iter().zip(coeffs) {
            buf[*slot] = c;
        }
    }

    /// Reads the coefficients back off their grid slots, unscaled.
    pub(crate) fn gather(&self, buf: &[c64], coeffs: &mut [c64]) {
        assert_eq!(coeffs.len(), self.len(), "grid_to_wave: coefficient count");
        assert_eq!(buf.len(), self.grid.len(), "grid_to_wave: buffer size");
        for (c, slot) in coeffs.iter_mut().zip(&self.g_slot) {
            *c = buf[*slot];
        }
    }

    /// [`PwBasis::scatter`] for a packed real row: `c_G` and `conj c_G` go
    /// to the grid slots of `G` and `−G`.
    pub(crate) fn scatter_packed(&self, packed: &[f64], buf: &mut [c64]) {
        assert_eq!(packed.len(), self.len(), "wave_to_grid: coefficient count");
        assert_eq!(buf.len(), self.grid.len(), "wave_to_grid: buffer size");
        buf.fill(c64::ZERO);
        let (selfs, pairs) = packed.split_at(self.half.selfs.len());
        for (&p, &i) in selfs.iter().zip(&self.half.selfs) {
            buf[self.g_slot[i]] = c64::real(p);
        }
        for (p, &[i, j]) in pairs.chunks_exact(2).zip(&self.half.pairs) {
            let c = c64::new(
                p[0] * std::f64::consts::FRAC_1_SQRT_2,
                p[1] * std::f64::consts::FRAC_1_SQRT_2,
            );
            buf[self.g_slot[i]] = c;
            buf[self.g_slot[j]] = c.conj();
        }
    }

    /// [`PwBasis::gather`] into a packed real row: reads the `+G` member
    /// of every pair (the spectrum of a real grid function is
    /// conjugate-symmetric, so the `−G` member carries nothing new).
    pub(crate) fn gather_packed(&self, buf: &[c64], packed: &mut [f64]) {
        assert_eq!(packed.len(), self.len(), "grid_to_wave: coefficient count");
        assert_eq!(buf.len(), self.grid.len(), "grid_to_wave: buffer size");
        let (selfs, pairs) = packed.split_at_mut(self.half.selfs.len());
        for (p, &i) in selfs.iter_mut().zip(&self.half.selfs) {
            *p = buf[self.g_slot[i]].re;
        }
        for (p, &[i, _]) in pairs.chunks_exact_mut(2).zip(&self.half.pairs) {
            let c = buf[self.g_slot[i]];
            p[0] = c.re * std::f64::consts::SQRT_2;
            p[1] = c.im * std::f64::consts::SQRT_2;
        }
    }

    /// [`PwBasis::scatter_packed`] for two packed rows at once: the grid
    /// receives the spectrum of `ψ_a(r) + i·ψ_b(r)` (module docs).
    pub(crate) fn scatter_packed_pair(&self, a: &[f64], b: &[f64], buf: &mut [c64]) {
        assert_eq!(a.len(), self.len(), "wave_to_grid: coefficient count");
        assert_eq!(b.len(), self.len(), "wave_to_grid: coefficient count");
        assert_eq!(buf.len(), self.grid.len(), "wave_to_grid: buffer size");
        buf.fill(c64::ZERO);
        let n_self = self.half.selfs.len();
        let ((a_self, a_pairs), (b_self, b_pairs)) = (a.split_at(n_self), b.split_at(n_self));
        for ((&pa, &pb), &i) in a_self.iter().zip(b_self).zip(&self.half.selfs) {
            buf[self.g_slot[i]] = c64::new(pa, pb);
        }
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let rows = a_pairs.chunks_exact(2).zip(b_pairs.chunks_exact(2));
        for ((pa, pb), &[i, j]) in rows.zip(&self.half.pairs) {
            // c_a + i·c_b at G, conj c_a + i·conj c_b at −G.
            buf[self.g_slot[i]] = c64::new((pa[0] - pb[1]) * s, (pa[1] + pb[0]) * s);
            buf[self.g_slot[j]] = c64::new((pa[0] + pb[1]) * s, (pb[0] - pa[1]) * s);
        }
    }

    /// Splits the spectrum `F` of `Vψ_a + i·Vψ_b` (`V` real) into the two
    /// packed rows: `A = (F(G) + conj F(−G))/2`, `B = (F(G) − conj
    /// F(−G))/2i` — `Re F` and `Im F` on a self-conjugate slot.
    pub(crate) fn gather_packed_pair(&self, buf: &[c64], a: &mut [f64], b: &mut [f64]) {
        assert_eq!(a.len(), self.len(), "grid_to_wave: coefficient count");
        assert_eq!(b.len(), self.len(), "grid_to_wave: coefficient count");
        assert_eq!(buf.len(), self.grid.len(), "grid_to_wave: buffer size");
        let n_self = self.half.selfs.len();
        let ((a_self, a_pairs), (b_self, b_pairs)) =
            (a.split_at_mut(n_self), b.split_at_mut(n_self));
        for ((pa, pb), &i) in a_self.iter_mut().zip(b_self).zip(&self.half.selfs) {
            let f = buf[self.g_slot[i]];
            *pa = f.re;
            *pb = f.im;
        }
        // √2 (packed) · ½ (the split).
        let k = std::f64::consts::FRAC_1_SQRT_2;
        let rows = a_pairs.chunks_exact_mut(2).zip(b_pairs.chunks_exact_mut(2));
        for ((pa, pb), &[i, j]) in rows.zip(&self.half.pairs) {
            let (f, m) = (buf[self.g_slot[i]], buf[self.g_slot[j]]);
            pa[0] = (f.re + m.re) * k;
            pa[1] = (f.im - m.im) * k;
            pb[0] = (f.im + m.im) * k;
            pb[1] = (m.re - f.re) * k;
        }
    }

    /// Structure-factor-weighted assembly of a periodic lattice function:
    /// given per-atom form factors `f_a(|G|)` (Hartree·Bohr³) and positions,
    /// fills `out_g` (grid-sized, reciprocal layout) with
    /// `F(G) = (1/Ω)·Σ_a f_a(|G|)·e^{−iG·R_a}` over **all** grid G-vectors
    /// (not just those inside the wavefunction cutoff, since potentials
    /// live on the denser grid).
    pub fn lattice_sum<F: Fn(usize, f64) -> f64>(
        &self,
        positions: &[[f64; 3]],
        form: F,
        out_g: &mut [c64],
    ) {
        assert_eq!(out_g.len(), self.grid.len());
        let inv_vol = 1.0 / self.grid.volume();
        for (idx, v) in out_g.iter_mut().enumerate() {
            let (ix, iy, iz) = self.grid.coords(idx);
            *v = self.lattice_sum_point(ix, iy, iz, positions, &form, inv_vol);
        }
    }

    /// Packed-half counterpart of [`PwBasis::lattice_sum`]: real form
    /// factors make `F(−G) = conj(F(G))`, so a real-field synthesis only
    /// needs the non-redundant x half. Fills `out_g` in the
    /// `ls3df_fft::Fft3r` packed layout (`ix` in `0..n1/2+1`, x fastest)
    /// — roughly half the structure-factor work of the full sweep.
    ///
    /// Nyquist caveat: for even `n2`/`n3`, a bin on a y/z Nyquist plane
    /// and its negation share the *same-sign* Nyquist frequency, so the
    /// true `F` there is not exactly `conj` of the kept bin (the phase
    /// `e^{−iG_Nyq·R}` does not conjugate). The two planewaves alias to
    /// conjugate exponentials on the grid, so storing the Hermitian
    /// average `(F(G) + conj(F(−G)))/2` reproduces the complex path's
    /// real-part projection exactly. Only those planes pay the second
    /// structure-factor evaluation.
    #[expect(
        clippy::expect_used,
        reason = "`out_g` has exactly one slot per visited bin (asserted on entry), so the slot iterator never runs dry"
    )]
    pub fn lattice_sum_packed<F: Fn(usize, f64) -> f64>(
        &self,
        positions: &[[f64; 3]],
        form: F,
        out_g: &mut [c64],
    ) {
        let [n1, n2, n3] = self.grid.dims;
        let h1 = n1 / 2 + 1;
        assert_eq!(out_g.len(), h1 * n2 * n3, "lattice_sum_packed: length");
        let inv_vol = 1.0 / self.grid.volume();
        // x-edge bins (ix = 0, and n1/2 for even n1) keep both members
        // of each ± pair in the packed array, so only interior ix bins
        // on a y/z Nyquist plane need the symmetrized average.
        let x_edge = |ix: usize| ix == 0 || (n1 % 2 == 0 && ix == n1 / 2);
        let mut v = out_g.iter_mut();
        for iz in 0..n3 {
            for iy in 0..n2 {
                let nyq_plane = (n2 % 2 == 0 && iy == n2 / 2) || (n3 % 2 == 0 && iz == n3 / 2);
                for ix in 0..h1 {
                    let mut val = self.lattice_sum_point(ix, iy, iz, positions, &form, inv_vol);
                    if nyq_plane && !x_edge(ix) {
                        let mirror = self.lattice_sum_point(
                            n1 - ix,
                            (n2 - iy) % n2,
                            (n3 - iz) % n3,
                            positions,
                            &form,
                            inv_vol,
                        );
                        val = (val + mirror.conj()).scale(0.5);
                    }
                    *v.next().expect("length asserted above") = val;
                }
            }
        }
    }

    /// One structure-factor-weighted reciprocal-space point (shared by the
    /// full and packed sweeps so both produce bit-identical values).
    #[inline]
    fn lattice_sum_point<F: Fn(usize, f64) -> f64>(
        &self,
        ix: usize,
        iy: usize,
        iz: usize,
        positions: &[[f64; 3]],
        form: &F,
        inv_vol: f64,
    ) -> c64 {
        let g = self.grid.g_vector(ix, iy, iz);
        let q = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
        let mut acc = c64::ZERO;
        for (a, r) in positions.iter().enumerate() {
            let phase = -(g[0] * r[0] + g[1] * r[1] + g[2] * r[2]);
            acc = acc.mul_add(c64::real(form(a, q)), c64::cis(phase));
        }
        acc.scale(inv_vol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis() -> PwBasis {
        PwBasis::new(Grid3::cubic(12, 10.0), 2.0)
    }

    #[test]
    fn g0_present_and_counted() {
        let b = basis();
        assert!(b.len() > 1);
        assert_eq!(b.g2()[b.g0_index()], 0.0);
        // All |G|²/2 within cutoff.
        for &g2 in b.g2() {
            assert!(0.5 * g2 <= b.ecut() + 1e-12);
        }
    }

    #[test]
    fn basis_size_close_to_sphere_volume_estimate() {
        // npw ≈ Ω·G_max³/(6π²)
        let b = PwBasis::new(Grid3::cubic(20, 12.0), 3.0);
        let gmax = (2.0_f64 * 3.0).sqrt();
        let estimate = b.grid().volume() * gmax.powi(3) / (6.0 * std::f64::consts::PI.powi(2));
        let ratio = b.len() as f64 / estimate;
        assert!(
            (0.8..1.2).contains(&ratio),
            "npw = {}, estimate = {estimate}",
            b.len()
        );
    }

    #[test]
    fn wave_grid_roundtrip_exact() {
        let b = basis();
        let mut coeffs: Vec<c64> = (0..b.len())
            .map(|i| c64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let norm: f64 = coeffs.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
        for c in &mut coeffs {
            *c = c.scale(1.0 / norm);
        }
        let mut buf = vec![c64::ZERO; b.grid().len()];
        b.wave_to_grid(&coeffs, &mut buf);
        // Normalization on the grid.
        let total: f64 = buf.iter().map(|v| v.norm_sqr()).sum::<f64>() * b.grid().dv();
        assert!((total - 1.0).abs() < 1e-10, "grid norm = {total}");
        // Roundtrip.
        let mut back = vec![c64::ZERO; b.len()];
        b.grid_to_wave(&mut buf, &mut back);
        for (a, c) in back.iter().zip(&coeffs) {
            assert!((*a - *c).abs() < 1e-10);
        }
    }

    #[test]
    fn g0_coefficient_is_average() {
        let b = basis();
        let mut coeffs = vec![c64::ZERO; b.len()];
        coeffs[b.g0_index()] = c64::ONE;
        let mut buf = vec![c64::ZERO; b.grid().len()];
        b.wave_to_grid(&coeffs, &mut buf);
        // G=0 planewave is the constant 1/√Ω.
        let expect = 1.0 / b.grid().volume().sqrt();
        for v in &buf {
            assert!((*v - c64::real(expect)).abs() < 1e-12);
        }
    }

    #[test]
    fn lattice_sum_single_atom_at_origin_is_real() {
        let b = basis();
        let mut out = vec![c64::ZERO; b.grid().len()];
        b.lattice_sum(&[[0.0, 0.0, 0.0]], |_, q| (-q * q).exp(), &mut out);
        for v in &out {
            assert!(v.im.abs() < 1e-12);
        }
        // G=0 term = f(0)/Ω.
        assert!((out[0].re - 1.0 / b.grid().volume()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot represent")]
    fn coarse_grid_rejected() {
        // 4 points over 10 Bohr: Nyquist = π·4/10 ≈ 1.26 < G_max = 2.
        let _ = PwBasis::new(Grid3::cubic(4, 10.0), 2.0);
    }
}
