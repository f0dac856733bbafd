//! lint-path: crates/pw/src/scf.rs
//!
//! seeded-rng: every ambient-entropy entry point fires; explicitly
//! seeded construction stays silent. Policed in tests too.

fn ambient_thread_rng() -> f64 {
    let mut r = thread_rng(); //~ ERROR seeded-rng
    r.gen()
}

fn ambient_entropy() {
    let _r = SmallRng::from_entropy(); //~ ERROR seeded-rng
}

fn ambient_random() -> f64 {
    rand::random() //~ ERROR seeded-rng
}

fn seeded_is_fine() {
    let _r = StdRng::seed_from_u64(0x5eed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn even_tests_must_seed() {
        let _r = thread_rng(); //~ ERROR seeded-rng
    }
}
