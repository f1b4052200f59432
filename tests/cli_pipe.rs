//! `gstore` exits quietly when the reader of its stdout goes away early,
//! as under `gstore query … | head -1`.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_quiet_exit() {
    let dir = tempfile::tempdir().unwrap();
    let el = dir.path().join("g.el").to_str().unwrap().to_string();
    let db = dir.path().join("db").to_str().unwrap().to_string();
    let gstore = || Command::new(env!("CARGO_BIN_EXE_gstore"));
    let run = |args: &[&str]| {
        let done = gstore().args(args).output().unwrap();
        assert!(done.status.success(), "{args:?}: {done:?}");
    };
    run(&["generate", "kron:8:4", &el]);
    run(&["convert", &el, &db, "g", "--tile-bits", "4"]);

    // 8 000 answers of ~30 bytes: several times a pipe's buffer, so the
    // command is still writing when the reader goes away.
    let mut child = gstore()
        .args(["query", &db, "g"])
        .args(std::iter::repeat_n("degree:0", 8_000))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.contains("degree:0"), "{first:?}");
    // The reader (and with it the pipe's read end) is dropped here.
    let done = child.wait_with_output().unwrap();
    assert_eq!(done.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&done.stderr), "");
}
