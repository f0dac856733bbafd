//! lint-path: crates/fft/src/plan.rs
//!
//! The false-positive regression corpus: every needle below lives in a
//! string literal, raw string, or comment — exactly where the old
//! line-stripping lint fired and the token engine must not. The virtual
//! path is a hot-path, instrumented, physics-scope file, so every rule
//! that could fire is armed.
//! Expected violations: none.

fn strings_are_data() -> Vec<&'static str> {
    collect_prose(
        "vec![0.0; n] Vec::with_capacity(9) data.to_vec() x.clone()",
        "Instant::now() in a string is just prose",
        "xs.par_iter().map(f).sum::<f64>()",
    )
}

fn raw_strings_too() -> &'static str {
    r#"unsafe { transmute() } // still just bytes"#
}

// A line comment may say anything: unsafe {}
// vec![1; 2]; Instant::now(); xs.par_iter().sum::<f64>(); x.clone()
/// Doc comments as well: `vec![0; n]` and `Instant::now()`.
fn comments_are_prose() {}

/* Block comments: Vec::with_capacity(4) and
   /* nested: xs.into_par_iter().fold(0.0, add) */ unsafe impl Send */
fn block_comments_too() {}
