//! CLI failure modes that must end in a clean exit, never a panic: a
//! reader closing stdout early, and a task too large for the device.

use std::process::{Command, Stdio};

/// `elivagar-cli devices | head -2`: once the reader is gone the CLI
/// stops quietly with exit 0 instead of panicking on the broken pipe.
#[test]
fn closed_stdout_ends_the_cli_quietly() {
    for subcommand in ["devices", "benchmarks"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_elivagar-cli"))
            .arg(subcommand)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("CLI binary runs");
        // Close the read end before the CLI writes anything.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("CLI exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !stderr.contains("panicked"),
            "{subcommand} panicked:\n{stderr}"
        );
        assert!(
            output.status.success(),
            "{subcommand} exit {:?}:\n{stderr}",
            output.status
        );
    }
}

/// mnist-10 needs 10 qubits; ibm-lagos has 7. The search refuses with a
/// typed error before doing any work.
#[test]
fn task_larger_than_device_fails_with_a_message() {
    let output = Command::new(env!("CARGO_BIN_EXE_elivagar-cli"))
        .args(["search", "--benchmark", "mnist-10", "--device", "ibm-lagos"])
        .output()
        .expect("CLI binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "expected failure:\n{stderr}");
    assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");
    assert!(
        stderr.contains("task needs 10 qubits but the device has only 7"),
        "missing message:\n{stderr}"
    );
    assert!(output.stdout.is_empty(), "no QASM for a failed search");
}
