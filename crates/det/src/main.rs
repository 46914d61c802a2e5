//! `det` — the workspace determinism analyzer CLI; [`HELP`] is its usage.

#![forbid(unsafe_code)]
// Graph indices and line numbers only: no float anywhere in the analyzer.
#![deny(clippy::float_arithmetic)]

use std::path::PathBuf;
use std::process::ExitCode;

use bgpscale_det::{analyze, fixtures, report, Config, Rule};
use bgpscale_det::{EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS};

struct Options {
    mode: Mode,
    root: Option<PathBuf>,
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

/// Printed by `--help` and after every usage error.
const HELP: &str = "\
usage: det [--check|--fixtures|--list-rules] [--root DIR]
           [--json] [--json-out FILE] [--quiet]

modes:
  --check       analyze the workspace under its tier map (the default)
  --fixtures    self-test: run every seeded fixture case and assert the
                findings equal the `//~` markers exactly, in both
                directions (missed detection OR false positive fails)
  --list-rules  print det's rules (the token-level bans are clippy's,
                in clippy.toml) and exit

options:
  --root DIR    workspace root (default: the current directory; for
                --fixtures: crates/det/tests/fixtures under it)
  --json        print the machine-readable report to stdout
  --json-out F  additionally write the JSON report to F (CI artifact)
  --quiet       suppress the scan summary and audited-allow listing

exit codes (shared with `repro profile --check` and `repro report --check`):
  0  clean: no violations
  1  violations found (or fixture self-test failures)
  2  usage error or unreadable root";

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("det: {msg}");
    }
    eprintln!("{HELP}");
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
    if opts.mode == Mode::ListRules {
        for rule in Rule::ALL {
            println!("{:22} {}", rule.id(), rule.explanation());
        }
        return ExitCode::from(EXIT_OK as u8);
    }
    let default_root = match opts.mode {
        Mode::Fixtures => "crates/det/tests/fixtures",
        _ => ".",
    };
    let root = opts.root.unwrap_or_else(|| PathBuf::from(default_root));
    if !root.is_dir() {
        return usage(&format!("root {} is not a directory", root.display()));
    }
    if opts.mode == Mode::Fixtures {
        return match fixtures::run(&root) {
            Ok(rep) => {
                print!("{}", fixtures::render(&rep));
                verdict(rep.ok())
            }
            Err(msg) => usage(&msg),
        };
    }
    let analysis = match analyze(&root, &Config::WORKSPACE) {
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
