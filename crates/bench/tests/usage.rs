//! Usage errors of the `sim_throughput` binary: one `sim_throughput: …`
//! line on standard error and exit status 2, before any measurement.

use std::process::Command;

#[test]
fn out_of_range_values_are_usage_errors() {
    let cases: [&[&str]; 5] = [
        &["--reps", "0"],
        &["--pages", "0"],
        &["--population", "--pages", "0"],
        &["--smoke", "--tolerance", "nan"],
        &["--smoke", "--tolerance", "-0.5"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_sim_throughput"))
            .args(args)
            .output()
            .expect("sim_throughput starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} measured something");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("sim_throughput: "), "{args:?}: {stderr}");
    }
}
