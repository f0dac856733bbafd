//! lint-path: crates/obs/src/launch.rs
//!
//! comm-audit in a non-surface crate: raw process spawning and raw
//! sockets outside `crates/dist`/`crates/xtask` fire; the escape
//! comment silences a justified site within its 3-line window;
//! near-miss identifiers and test code stay silent.

use std::os::unix::net::UnixStream; //~ ERROR comm-audit
use std::process::{Command, Stdio}; //~ ERROR comm-audit //~ ERROR comm-audit

fn side_channel(addr: &str) -> std::io::Result<UnixStream> { //~ ERROR comm-audit
    UnixStream::connect(addr) //~ ERROR comm-audit
}

fn audited(exe: &str) {
    // comm-audit: re-exec for an isolated measurement process; no data
    // flows outside the ls3df-dist communicator.
    let c = Command::new(exe);
    drop(c);
}

fn near_miss() {
    // Exact identifier matches only: a lookalike name or a string
    // literal mentioning "Command" never fires.
    let label = "Command";
    let tool = CommandLine::default();
    drop((label, tool));
}

#[derive(Default)]
struct CommandLine;

#[cfg(test)]
mod tests {
    // Test code is exempt: the SPMD subprocess tests re-exec the test
    // binary by design.
    fn spawn_child(exe: &str) {
        let c = std::process::Command::new(exe);
        drop(c);
    }
}
