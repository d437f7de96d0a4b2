//! Runs the `flowtune-arbiterd --demo` launcher end-to-end: two real
//! shard processes exchanging over Unix-domain sockets must converge
//! to the unsharded optimum with real bytes on the wire. CI has no
//! separate step for this invocation; its `--demo 3` and TCP steps run
//! the launcher with other arguments.

use std::process::Command;

#[test]
fn two_process_uds_demo_converges() {
    let out = Command::new(env!("CARGO_BIN_EXE_flowtune-arbiterd"))
        .args(["--demo", "2", "--ticks", "400"])
        .output()
        .expect("launch flowtune-arbiterd");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "demo failed ({}):\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("demo: PASS"),
        "demo did not report PASS:\n{stdout}"
    );
}
