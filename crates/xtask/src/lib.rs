//! Library half of the `xtask` tool: the hand-rolled token [`lexer`] and
//! the token-aware [`lint`] engine. Split out of the binary so the
//! fixture corpus in `crates/xtask/tests/` can drive
//! [`lint::lint_source`] on in-memory snippets; the subcommand plumbing
//! (`ci`, `miri`, `schedules`) stays in the binary.
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod lexer;
pub mod lint;
