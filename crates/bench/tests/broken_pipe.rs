//! A harness binary whose stdout reader has gone away (`table1 | head
//! -1` once `head` has its line) exits with status 0 and no panic.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_reader_ends_a_bin_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("table1 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
