//! Chemical species and their model parameters.
//!
//! The paper's test systems are ZnTe₁₋ₓOₓ alloys (plus pseudo-hydrogen
//! passivants on fragment surfaces). Parameters here are *model* values in
//! atomic units chosen to reproduce the qualitative physics: Zn–O bonds are
//! much shorter and stiffer than Zn–Te bonds, and the oxygen site is more
//! attractive (deeper local potential), which is what pushes an O-induced
//! band into the ZnTe gap.

/// Chemical species appearing in the LS3DF test systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Species {
    /// Zinc (cation sublattice).
    Zn,
    /// Tellurium (anion sublattice).
    Te,
    /// Oxygen (substitutional on the Te sublattice).
    O,
    /// Passivant pseudo-hydrogen, placed on dangling bonds created by the
    /// fragment division (paper ref. [18]). The fractional valence charge
    /// depends on which bond it saturates; see [`Species::passivant_charge`].
    H,
}

impl Species {
    /// Number of valence electrons contributed in the model calculation.
    ///
    /// The paper excludes the Zn d-states, giving ~4 valence electrons per
    /// atom on average; we keep the same average with Zn→2, Te→6, O→6.
    pub fn valence(self) -> f64 {
        match self {
            Species::Zn => 2.0,
            Species::Te => 6.0,
            Species::O => 6.0,
            Species::H => 1.0,
        }
    }

    /// Covalent radius in Bohr (used for neighbor detection).
    pub fn covalent_radius(self) -> f64 {
        match self {
            Species::Zn => 2.31, // 1.22 Å
            Species::Te => 2.61, // 1.38 Å
            Species::O => 1.25,  // 0.66 Å
            Species::H => 0.59,  // 0.31 Å
        }
    }

    /// Fractional charge of the pseudo-hydrogen that passivates a dangling
    /// bond pointing *toward* this species. In zinc-blende II-VI
    /// semiconductors a cation dangling bond is saturated by a pseudo-H of
    /// charge 1.5 and an anion dangling bond by 0.5 (8 − valence)/4·... —
    /// we use the standard II-VI values.
    pub fn passivant_charge(self) -> f64 {
        match self {
            // Bond cut next to a Zn atom: the missing anion supplied 6/4
            // electrons per bond → pseudo-H charge 1.5.
            Species::Zn => 1.5,
            // Bond cut next to a Te/O atom: the missing cation supplied 2/4
            // electrons per bond → pseudo-H charge 0.5.
            Species::Te | Species::O => 0.5,
            Species::H => 1.0,
        }
    }

    /// Short symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Species::Zn => "Zn",
            Species::Te => "Te",
            Species::O => "O",
            Species::H => "H",
        }
    }
}

impl std::fmt::Display for Species {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Keating valence-force-field parameters for a bonded pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BondParams {
    /// Equilibrium bond length (Bohr).
    pub d0: f64,
    /// Bond-stretch constant α (Hartree/Bohr², model scale).
    pub alpha: f64,
    /// Angle-bend constant β (Hartree/Bohr², model scale).
    pub beta: f64,
}

/// Returns VFF parameters for a bonded species pair, or `None` if the pair
/// does not form bonds in these structures.
pub fn bond_params(a: Species, b: Species) -> Option<BondParams> {
    use Species::*;
    let key = if (a as u8) <= (b as u8) {
        (a, b)
    } else {
        (b, a)
    };
    match key {
        // Zn–Te: a₀(ZnTe) = 11.535 Bohr → d₀ = √3/4·a₀ (exact, so the ideal
        // crystal is the exact VFF minimum).
        (Zn, Te) => Some(BondParams {
            d0: 4.994801516,
            alpha: 0.060,
            beta: 0.009,
        }),
        // Zn–O: much shorter (ZnO wurtzite bond ≈ 1.98 Å ≈ 3.74 Bohr) and stiffer.
        (Zn, O) => Some(BondParams {
            d0: 3.742,
            alpha: 0.110,
            beta: 0.016,
        }),
        // Passivant bonds: fractions of the bulk bond length.
        (Zn, H) => Some(BondParams {
            d0: 2.95,
            alpha: 0.120,
            beta: 0.010,
        }),
        (Te, H) => Some(BondParams {
            d0: 3.10,
            alpha: 0.120,
            beta: 0.010,
        }),
        (O, H) => Some(BondParams {
            d0: 1.83,
            alpha: 0.160,
            beta: 0.014,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_valence_matches_paper() {
        // Paper §V: "in average, there are four valence electrons per atom"
        // for the Zn(Te,O) alloy with Zn d-states excluded.
        let avg = (Species::Zn.valence() + Species::Te.valence()) / 2.0;
        assert_eq!(avg, 4.0);
    }

    #[test]
    fn bond_params_symmetric() {
        assert_eq!(
            bond_params(Species::Zn, Species::Te),
            bond_params(Species::Te, Species::Zn)
        );
        assert_eq!(
            bond_params(Species::O, Species::Zn),
            bond_params(Species::Zn, Species::O)
        );
    }

    #[test]
    fn unbonded_pairs_rejected() {
        assert!(bond_params(Species::Te, Species::O).is_none());
        assert!(bond_params(Species::Zn, Species::Zn).is_none());
    }

    #[test]
    fn zno_shorter_and_stiffer_than_znte() {
        let znte = bond_params(Species::Zn, Species::Te).unwrap();
        let zno = bond_params(Species::Zn, Species::O).unwrap();
        assert!(zno.d0 < znte.d0);
        assert!(zno.alpha > znte.alpha);
    }

    #[test]
    fn passivant_charges_sum_to_bond_electrons() {
        // Cation-side + anion-side passivants replace one full bond pair
        // (2 electrons): 1.5 + 0.5 = 2.
        assert_eq!(
            Species::Zn.passivant_charge() + Species::Te.passivant_charge(),
            2.0
        );
    }
}
