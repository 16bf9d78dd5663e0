//! Records the toolchain and build settings so every benchmark result
//! can name the build it measured.

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
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    for (key, var) in [
        ("PERFBENCH_PROFILE", "PROFILE"),
        ("PERFBENCH_OPT_LEVEL", "OPT_LEVEL"),
        ("PERFBENCH_TARGET", "TARGET"),
    ] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".to_string());
        println!("cargo:rustc-env={key}={value}");
    }
    // `-C target-cpu=...` reaches the compiler through the encoded flags.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .collect::<Vec<_>>()
        .windows(2)
        .find_map(|w| match w {
            ["-C", v] => v.strip_prefix("target-cpu=").map(str::to_string),
            _ => None,
        })
        .or_else(|| {
            flags
                .split('\x1f')
                .find_map(|f| f.strip_prefix("-Ctarget-cpu=").map(str::to_string))
        })
        .unwrap_or_else(|| "default".to_string());
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
