//! The environment a number was measured in, recorded in every output.

use std::process::{Command, Stdio};

use crate::json::Value;

/// Where and on what a run was measured.
#[derive(Clone, Debug)]
pub struct Env {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    /// 1-minute load average when the run started.
    pub load1: f64,
    pub seed: u64,
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (out.status.success() && !line.is_empty()).then(|| line.to_string())
}

impl Env {
    /// Reads the environment now. Anything that cannot be read is
    /// `unknown`: the driver's checkout, for one, is not a git repository.
    pub fn capture(seed: u64) -> Env {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let load1 = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(-1.0);
        Env {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(unknown),
            git_rev: first_line_of("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(unknown),
            load1,
            seed,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("nproc", Value::Num(self.nproc as f64)),
            ("cpu_model", Value::str(&self.cpu_model)),
            ("rustc", Value::str(&self.rustc)),
            ("git_rev", Value::str(&self.git_rev)),
            ("load1", Value::Num(self.load1)),
            // A string: a 64-bit seed does not fit a JSON number.
            ("seed", Value::str(self.seed.to_string())),
        ])
    }
}
