//! `det.toml`: the one checked-in analyzer configuration, hand-parsed.
//!
//! Only the TOML subset the analyzer needs is supported — `[section]`
//! headers and `key = value` pairs where a value is a quoted string or a
//! (possibly multi-line) array of quoted strings. `#` comments are
//! allowed. Unknown sections or keys are **errors** (exit 2), so a typo
//! can never silently disable a rule.
//!
//! ```toml
//! [scan]
//! include = ["crates", "src", "examples", "tests"]
//! exclude = ["crates/vendor", "target"]
//!
//! [deterministic]
//! # The tier map, written once: the line rules fire in these paths and
//! # their `pub fn`s are the entry points of the det-closure pass.
//! paths = ["crates/simkernel/src", "crates/core/src"]
//!
//! [integer-only]
//! paths = ["crates/obs/src/metrics.rs"]
//!
//! [exempt]
//! # The sanctioned worker-pool module (single lines use an audited
//! # `// det::allow(rule, reason = "...")` comment instead).
//! thread-spawn = ["crates/simkernel/src/pool.rs"]
//!
//! [wall-side]
//! # Sanctioned wall-side modules: the deterministic closure must not
//! # reach these except through an audited crossing, and their files are
//! # the ones the `wall-clock` line rule waves through.
//! modules = ["simkernel::wallclock", "simkernel::rss"]
//!
//! [hot-paths]
//! # Roots of the panic-surface pass, matched by qualified-name suffix.
//! roots = ["core::cevent::run_c_event"]
//!
//! [artifact]
//! stamp = "SCHEMA_VERSION"
//! # Each entry is an alternation: one alternative must be mentioned in
//! # the closure of every artifact-writing binary's main.
//! exit-constants = ["EXIT_OK", "EXIT_VIOLATIONS|EXIT_FAIL", "EXIT_USAGE"]
//!
//! [resolve]
//! # Method names resolved to *no* workspace impl on purpose (too
//! # ambiguous to attribute); each entry should carry a comment saying
//! # why.
//! opaque-methods = []
//!
//! [clippy]
//! # Paths that must stay banned (appear quoted) in <root>/clippy.toml.
//! required = ["std::collections::HashMap"]
//! ```

use std::path::Path;

use crate::Rule;

/// Parsed `det.toml`.
#[derive(Clone, Debug)]
pub struct Config {
    /// Directories (relative to the root) to walk for `.rs` files.
    pub include: Vec<String>,
    /// Path prefixes to skip entirely.
    pub exclude: Vec<String>,
    /// Path prefixes holding deterministic-tier code.
    pub deterministic: Vec<String>,
    /// Files (or prefixes) whose counters must stay integral.
    pub integer_only: Vec<String>,
    /// Path prefixes of the sanctioned `thread-spawn` modules.
    pub thread_spawn_exempt: Vec<String>,
    /// Module paths (`crate::module`) of sanctioned wall-side code.
    pub wall_side: Vec<String>,
    /// Qualified-name suffixes of the panic-surface roots.
    pub hot_roots: Vec<String>,
    /// The identifier every artifact writer must flow through.
    pub stamp: String,
    /// Exit-convention constants; each entry is a `|`-separated
    /// alternation.
    pub exit_constants: Vec<String>,
    /// Method names deliberately left unresolved by the call graph.
    pub opaque_methods: Vec<String>,
    /// Paths that must appear (as quoted strings) in `clippy.toml`.
    pub clippy_required: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            include: vec![".".to_string()],
            exclude: Vec::new(),
            deterministic: Vec::new(),
            integer_only: Vec::new(),
            thread_spawn_exempt: Vec::new(),
            wall_side: Vec::new(),
            hot_roots: Vec::new(),
            stamp: "SCHEMA_VERSION".to_string(),
            exit_constants: Vec::new(),
            opaque_methods: Vec::new(),
            clippy_required: Vec::new(),
        }
    }
}

impl Config {
    /// Reads and parses a config file.
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses config text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_toml_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated section header"))?;
                section = name.trim().to_string();
                match section.as_str() {
                    "scan" | "deterministic" | "integer-only" | "exempt" | "wall-side"
                    | "hot-paths" | "artifact" | "resolve" | "clippy" => {}
                    other => return Err(format!("line {lineno}: unknown section [{other}]")),
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let (key, mut value) = (key.trim(), value.trim().to_string());
            // Multi-line arrays: keep consuming until the closing bracket.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_toml_comment(cont).trim();
                    value.push(' ');
                    value.push_str(cont);
                    if cont.ends_with(']') {
                        break;
                    }
                }
                if !value.ends_with(']') {
                    return Err(format!("line {lineno}: unterminated array for `{key}`"));
                }
            }
            cfg.apply(&section, key, &value)
                .map_err(|e| format!("line {lineno}: {e}"))?;
        }
        if cfg.include.is_empty() {
            return Err("`[scan] include` must not be empty".to_string());
        }
        if cfg.stamp.is_empty() {
            return Err("`[artifact] stamp` must not be empty".to_string());
        }
        Ok(cfg)
    }

    fn apply(&mut self, section: &str, key: &str, value: &str) -> Result<(), String> {
        let slot = match (section, key) {
            ("artifact", "stamp") => {
                self.stamp = parse_quoted(value)?;
                return Ok(());
            }
            ("scan", "include") => &mut self.include,
            ("scan", "exclude") => &mut self.exclude,
            ("deterministic", "paths") => &mut self.deterministic,
            ("integer-only", "paths") => &mut self.integer_only,
            ("exempt", "thread-spawn") => &mut self.thread_spawn_exempt,
            ("wall-side", "modules") => &mut self.wall_side,
            ("hot-paths", "roots") => &mut self.hot_roots,
            ("artifact", "exit-constants") => &mut self.exit_constants,
            ("resolve", "opaque-methods") => &mut self.opaque_methods,
            ("clippy", "required") => &mut self.clippy_required,
            ("", _) => return Err(format!("key `{key}` outside any section")),
            (s, k) => return Err(format!("unknown key `{k}` in section [{s}]")),
        };
        *slot = parse_string_array(value)?;
        Ok(())
    }

    /// True if `rel` (a `/`-separated path relative to the root) lies
    /// under any of the given prefixes, component-wise.
    pub fn path_matches(rel: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| {
            let p = p.trim_end_matches('/');
            rel.strip_prefix(p)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        })
    }

    /// True if the file is deterministic-tier.
    pub fn is_deterministic(&self, rel: &str) -> bool {
        Config::path_matches(rel, &self.deterministic)
    }

    /// True if the file must stay integer-only.
    pub fn is_integer_only(&self, rel: &str) -> bool {
        Config::path_matches(rel, &self.integer_only)
    }

    /// True if the path is excluded from scanning altogether.
    pub fn is_excluded(&self, rel: &str) -> bool {
        Config::path_matches(rel, &self.exclude)
    }

    /// True if the file is a sanctioned module for the line rule `rule`:
    /// the `[exempt] thread-spawn` files, and — derived, never listed —
    /// the files of the `[wall-side]` modules for `wall-clock`. Those
    /// modules are fenced by the det-closure pass instead.
    pub fn is_exempt(&self, rel: &str, rule: Rule) -> bool {
        match rule {
            Rule::ThreadSpawn => Config::path_matches(rel, &self.thread_spawn_exempt),
            Rule::WallClock => self.is_wall_side(&crate::items::path_to_module(rel)),
            _ => false,
        }
    }

    /// True if a function (or module) with this qualified name lives in a
    /// sanctioned wall-side module.
    pub fn is_wall_side(&self, qname: &str) -> bool {
        self.wall_side.iter().any(|m| {
            qname
                .strip_prefix(m.as_str())
                .is_some_and(|rest| rest.is_empty() || rest.starts_with("::"))
        })
    }

    /// True if this qualified name is a panic-surface root.
    pub fn is_hot_root(&self, qname: &str) -> bool {
        self.hot_roots
            .iter()
            .any(|r| qname == r || qname.ends_with(&format!("::{r}")))
    }

    /// Every exit-constant alternative, flattened (for mention tracking).
    pub fn exit_alternatives(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .exit_constants
            .iter()
            .flat_map(|g| g.split('|').map(|s| s.trim().to_string()))
            .filter(|s| !s.is_empty())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Drops a `#` comment that is not inside a quoted string.
pub fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a single `"quoted string"` value.
fn parse_quoted(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{value}`"))
}

/// Parses `["a", "b"]` (flattened to one line by the caller).
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array of strings, got `{value}`"))?;
    inner
        .split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(parse_quoted)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# tiers
[scan]
include = ["crates", "src"]
exclude = [
    "crates/vendor",   # offline stand-ins
    "target",
]

[deterministic]
paths = ["crates/core/src", "crates/simkernel/src"]

[integer-only]
paths = ["crates/obs/src/metrics.rs"]

[exempt]
thread-spawn = ["crates/simkernel/src/pool.rs"]

[wall-side]
modules = ["simkernel::wallclock"]

[hot-paths]
roots = ["core::cevent::run_c_event", "EventQueue::push"]

[artifact]
stamp = "SCHEMA_VERSION"
exit-constants = ["EXIT_OK", "EXIT_VIOLATIONS|EXIT_FAIL"]

[resolve]
opaque-methods = ["drop"]

[clippy]
required = ["std::collections::HashMap"]
"#;

    #[test]
    fn parses_all_sections() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.include, ["crates", "src"]);
        assert_eq!(cfg.exclude, ["crates/vendor", "target"]);
        assert!(cfg.is_deterministic("crates/core/src/sim.rs"));
        assert!(!cfg.is_deterministic("crates/core/tests/prop.rs"));
        assert!(cfg.is_integer_only("crates/obs/src/metrics.rs"));
        assert!(cfg.is_exempt("crates/simkernel/src/pool.rs", Rule::ThreadSpawn));
        assert!(!cfg.is_exempt("crates/simkernel/src/pool.rs", Rule::WallClock));
        assert!(cfg.is_wall_side("simkernel::wallclock::Stopwatch::start"));
        assert!(!cfg.is_wall_side("simkernel::wallclock_adjacent::f"));
        assert!(cfg.is_hot_root("core::cevent::run_c_event"));
        assert!(cfg.is_hot_root("simkernel::queue::EventQueue::push"));
        assert!(!cfg.is_hot_root("simkernel::queue::EventQueue::push_back"));
        assert_eq!(cfg.stamp, "SCHEMA_VERSION");
        assert_eq!(
            cfg.exit_alternatives(),
            ["EXIT_FAIL", "EXIT_OK", "EXIT_VIOLATIONS"]
        );
        assert_eq!(cfg.opaque_methods, ["drop"]);
        assert_eq!(cfg.clippy_required, ["std::collections::HashMap"]);
    }

    #[test]
    fn wall_clock_exemption_is_derived_from_wall_side_modules() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert!(cfg.is_exempt("crates/simkernel/src/wallclock.rs", Rule::WallClock));
        assert!(cfg.is_exempt("crates/simkernel/src/wallclock/unix.rs", Rule::WallClock));
        assert!(!cfg.is_exempt("crates/simkernel/src/wallclock2.rs", Rule::WallClock));
        assert!(!cfg.is_exempt("crates/simkernel/src/rss.rs", Rule::WallClock));
        // Only `wall-clock` is waved through there; the other rules stay armed.
        assert!(!cfg.is_exempt("crates/simkernel/src/wallclock.rs", Rule::EnvRead));
    }

    #[test]
    fn unknown_keys_and_sections_are_errors() {
        assert!(Config::parse("[scn]\ninclude = [\"x\"]").is_err());
        assert!(Config::parse("[scan]\nincl = [\"x\"]").is_err());
        assert!(Config::parse("[artifact]\nstamp = unquoted").is_err());
        assert!(Config::parse("include = [\"before any section\"]").is_err());
        // The retired sections and the retired per-rule exemption list.
        assert!(Config::parse("[rules]\nwall-clock = true").is_err());
        assert!(Config::parse("[coherence]\nclippy-config = \"clippy.toml\"").is_err());
        assert!(Config::parse("[exempt]\nwall-clock = [\"x\"]").is_err());
    }

    #[test]
    fn empty_stamp_is_rejected() {
        assert!(Config::parse("[scan]\ninclude = [\"x\"]\n[artifact]\nstamp = \"\"").is_err());
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let p = vec!["crates/core".to_string()];
        assert!(Config::path_matches("crates/core/src/sim.rs", &p));
        assert!(Config::path_matches("crates/core", &p));
        assert!(!Config::path_matches("crates/core2/src/sim.rs", &p));
    }
}
