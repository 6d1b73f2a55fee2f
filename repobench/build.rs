//! Records the build's host facts (rustc version, profile) so every
//! benchmark result can state what produced it. The git revision is read
//! when the benchmark runs (see `src/host.rs`).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=REPOBENCH_RUSTC={version}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=REPOBENCH_PROFILE={profile}");

    println!("cargo:rerun-if-changed=build.rs");
}
