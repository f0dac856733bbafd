//! The correctness gate: every check and every program operation is
//! counted as attempted, and as failed when it fails, so the result line
//! carries failures over attempts.

/// FNV-1a over the bit patterns of `values` (the digest `petot_scaling`
/// prints): one number that changes on any single-bit divergence.
pub fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in values {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Tally of attempted and failed operations with the reasons of failure.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Counts one named correctness check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(name.to_string());
        }
    }

    /// Counts `attempted` program operations of which `failed` failed.
    pub fn operations(&mut self, name: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{name}: {failed} of {attempted}"));
        }
    }

    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_of_the_bit_patterns() {
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
        // FNV-1a of eight zero bytes, computed by hand from the definition.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(digest(&[0.0]), h);
        // Sign of zero and the last mantissa bit both change the digest.
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
        assert_ne!(
            digest(&[1.0]),
            digest(&[f64::from_bits(1.0f64.to_bits() + 1)])
        );
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
    }

    #[test]
    fn gate_counts_failures_over_attempts() {
        let mut g = Gate::default();
        g.check("a", true);
        g.operations("solves", 64, 0);
        assert!(g.passed());
        g.check("b", false);
        g.operations("snapshots", 2, 1);
        assert_eq!((g.attempted, g.failed), (68, 2));
        assert_eq!(
            g.failures,
            vec!["b".to_string(), "snapshots: 1 of 2".to_string()]
        );
    }
}
