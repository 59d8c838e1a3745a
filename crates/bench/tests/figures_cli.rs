//! The `figures` binary's command line: a section name it does not know
//! must fail loudly, so a stale CI step or a typo cannot pass silently.

use std::process::Command;

#[test]
fn unknown_section_exits_nonzero_and_lists_the_sections() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("nosuchsection")
        .output()
        .expect("run the figures binary");
    assert!(!out.status.success(), "an unknown section must fail");
    assert!(out.stdout.is_empty(), "no section may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("nosuchsection") && err.contains("regions") && err.contains("json"),
        "the error must name the bad section and the valid ones: {err}"
    );
}
