//! `det` — the workspace determinism analyzer CLI.
//!
//! ```text
//! det [--check] [--fixtures] [--json] [--json-out FILE]
//!     [--root DIR] [--config FILE] [--list-rules] [--quiet]
//!
//! modes:
//!   --check       analyze the workspace under det.toml (the default)
//!   --fixtures    self-test: run every seeded fixture case and assert the
//!                 findings equal the `//~`/`#~` markers exactly, in both
//!                 directions (missed detection OR false positive fails)
//!   --list-rules  print the rule table and exit
//!
//! options:
//!   --root DIR    workspace root (default: the current directory; for
//!                 --fixtures: crates/det/tests/fixtures under it)
//!   --config FILE analyzer configuration (default: <root>/det.toml)
//!   --json        print the machine-readable report to stdout
//!   --json-out F  additionally write the JSON report to F (CI artifact)
//!   --quiet       suppress the scan summary and audited-allow listing
//!
//! exit codes (the workspace-wide convention, shared with
//! `repro profile --check` and `repro report --check`):
//!   0  clean — no violations
//!   1  violations found (or fixture self-test failures)
//!   2  usage error, unreadable root, or invalid det.toml
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use bgpscale_det::{analyze, fixtures, report, Config, Rule};
use bgpscale_det::{EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS};

struct Options {
    mode: Mode,
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    json: bool,
    json_out: Option<PathBuf>,
    quiet: bool,
}

#[derive(PartialEq, Eq)]
enum Mode {
    Check,
    Fixtures,
    ListRules,
}

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("det: {msg}");
    }
    eprintln!(
        "usage: det [--check|--fixtures|--list-rules] [--root DIR] [--config FILE] \
         [--json] [--json-out FILE] [--quiet]\n\
         exit codes: 0 = clean, 1 = violations, 2 = usage/config error"
    );
    ExitCode::from(EXIT_USAGE as u8)
}

/// `EXIT_OK` if `ok`, else `EXIT_VIOLATIONS`.
fn verdict(ok: bool) -> ExitCode {
    ExitCode::from(if ok { EXIT_OK } else { EXIT_VIOLATIONS } as u8)
}

/// The value of a path-taking flag, or `missing` as the usage error.
fn path_arg(args: &mut impl Iterator<Item = String>, missing: &str) -> Result<PathBuf, String> {
    args.next()
        .map(PathBuf::from)
        .ok_or_else(|| missing.to_string())
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        mode: Mode::Check,
        root: None,
        config: None,
        json: false,
        json_out: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.mode = Mode::Check,
            "--fixtures" => opts.mode = Mode::Fixtures,
            "--list-rules" => opts.mode = Mode::ListRules,
            "--json" => opts.json = true,
            "--quiet" => opts.quiet = true,
            "--root" => opts.root = Some(path_arg(&mut args, "--root needs a directory")?),
            "--config" => opts.config = Some(path_arg(&mut args, "--config needs a file")?),
            "--json-out" => opts.json_out = Some(path_arg(&mut args, "--json-out needs a file")?),
            "--help" | "-h" => {
                // Asking for help is not a usage *error*.
                usage("");
                std::process::exit(EXIT_OK);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => return usage(&msg),
    };
    match opts.mode {
        Mode::ListRules => {
            for rule in Rule::ALL {
                println!("{:22} {}", rule.id(), rule.explanation());
            }
            ExitCode::from(EXIT_OK as u8)
        }
        Mode::Fixtures => {
            let root = opts
                .root
                .unwrap_or_else(|| PathBuf::from("crates/det/tests/fixtures"));
            if !root.is_dir() {
                return usage(&format!(
                    "fixture root {} is not a directory",
                    root.display()
                ));
            }
            match fixtures::run(&root) {
                Ok(rep) => {
                    print!("{}", fixtures::render(&rep));
                    verdict(rep.ok())
                }
                Err(msg) => usage(&msg),
            }
        }
        Mode::Check => {
            let root = opts.root.unwrap_or_else(|| PathBuf::from("."));
            if !root.is_dir() {
                return usage(&format!("root {} is not a directory", root.display()));
            }
            let config_path = opts.config.unwrap_or_else(|| root.join("det.toml"));
            let analysis = match Config::load(&config_path).and_then(|cfg| analyze(&root, &cfg)) {
                Ok(a) => a,
                Err(msg) => return usage(&msg),
            };
            if let Some(path) = &opts.json_out {
                if let Err(e) = std::fs::write(path, report::render_json(&analysis)) {
                    return usage(&format!("writing {}: {e}", path.display()));
                }
            }
            if opts.json {
                print!("{}", report::render_json(&analysis));
            } else {
                print!("{}", report::render_human(&analysis, opts.quiet));
            }
            verdict(analysis.ok())
        }
    }
}
