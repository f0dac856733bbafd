//! Translation classes: fragments that pose the same eigenproblem.
//!
//! Two fragments are translation-equivalent when their boxes have the same
//! shape, they carry the same occupations, and their atoms — region atoms
//! and passivants, in the box frame — agree species for species and
//! position for position to [`POSITION_TOL`]. In an ideal crystal every
//! fragment of one size is equivalent to every other; in a relaxed alloy
//! usually none are. The lowest-index fragment of a class is its
//! *representative*: PEtot_F solves it, and a member whose potential
//! matches the representative's takes its solution (Ratcliff's
//! pseudo-fragment idea; see `crate::scf`).

use ls3df_pw::PwAtom;

/// Largest per-axis box-frame position difference (Bohr) at which two
/// atoms still count as the same site. Far below any physical
/// displacement, far above the rounding of the box-frame wrap.
pub(crate) const POSITION_TOL: f64 = 1e-9;

/// What makes a fragment's eigenproblem: box shape, occupations, and its
/// atoms as sorted `(pseudopotential bits, box-frame position)` pairs.
pub(crate) struct ClassKey {
    size: [usize; 3],
    occupations: Vec<u64>,
    atoms: Vec<([u64; 6], [f64; 3])>,
}

impl ClassKey {
    /// The key of a fragment of `size` pieces with these `occupations` and
    /// box-frame `atoms`.
    pub(crate) fn new(size: [usize; 3], occupations: &[f64], atoms: &[PwAtom]) -> Self {
        let mut atoms: Vec<([u64; 6], [f64; 3])> = atoms
            .iter()
            .map(|a| {
                let l = a.local;
                let species = [l.z, l.rc, l.a, l.w, a.kb_rb, a.kb_energy].map(f64::to_bits);
                (species, a.pos)
            })
            .collect();
        atoms.sort_by(|(sa, pa), (sb, pb)| {
            sa.cmp(sb).then_with(|| {
                (0..3)
                    .map(|d| pa[d].total_cmp(&pb[d]))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        ClassKey {
            size,
            occupations: occupations.iter().map(|o| o.to_bits()).collect(),
            atoms,
        }
    }

    /// Whether `self` and `other` pose the same eigenproblem. Two keys
    /// whose atoms sort differently (coordinates tied to within rounding
    /// along one axis) compare unequal: a missed share, never a wrong one.
    fn matches(&self, other: &ClassKey) -> bool {
        self.size == other.size
            && self.occupations == other.occupations
            && self.atoms.len() == other.atoms.len()
            && self
                .atoms
                .iter()
                .zip(&other.atoms)
                .all(|((sa, pa), (sb, pb))| {
                    sa == sb && (0..3).all(|d| (pa[d] - pb[d]).abs() <= POSITION_TOL)
                })
    }
}

/// Each fragment's representative: the lowest index whose key matches its
/// own (itself when none earlier does).
pub(crate) fn representatives(keys: &[ClassKey]) -> Vec<usize> {
    let mut rep_of: Vec<usize> = Vec::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        let rep = (0..i).find(|&r| rep_of[r] == r && keys[r].matches(key));
        rep_of.push(rep.unwrap_or(i));
    }
    rep_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_pseudo::PseudoTable;

    fn atom(pos: [f64; 3], species: ls3df_atoms::Species) -> PwAtom {
        PwAtom::new(pos, &PseudoTable::default().get(species))
    }

    #[test]
    fn keys_match_up_to_the_position_tolerance_and_atom_order() {
        use ls3df_atoms::Species::{Te, Zn};
        let occ = [2.0, 2.0, 0.0];
        let a = ClassKey::new(
            [1, 1, 1],
            &occ,
            &[atom([1.0, 2.0, 3.0], Zn), atom([1.0, 0.5, 3.0], Te)],
        );
        let shifted = ClassKey::new(
            [1, 1, 1],
            &occ,
            &[
                atom([1.0, 0.5 + 1e-12, 3.0], Te),
                atom([1.0, 2.0, 3.0 - 1e-12], Zn),
            ],
        );
        let moved = ClassKey::new(
            [1, 1, 1],
            &occ,
            &[atom([1.0, 2.0, 3.0 + 1e-7], Zn), atom([1.0, 0.5, 3.0], Te)],
        );
        let swapped = ClassKey::new(
            [1, 1, 1],
            &occ,
            &[atom([1.0, 2.0, 3.0], Te), atom([1.0, 0.5, 3.0], Zn)],
        );
        let taller = ClassKey::new(
            [1, 1, 2],
            &occ,
            &[atom([1.0, 2.0, 3.0], Zn), atom([1.0, 0.5, 3.0], Te)],
        );
        assert!(a.matches(&shifted));
        for other in [&moved, &swapped, &taller] {
            assert!(!a.matches(other));
        }
        assert_eq!(
            representatives(&[a, moved, shifted, swapped]),
            vec![0, 1, 0, 3]
        );
    }
}
