//! The analyzer's configuration: which files it scans, which crates form
//! the deterministic tier, which modules are wall-side, where the hot
//! path starts, and the exit convention of artifact-writing binaries.
//!
//! It is code, not a file: [`Config::WORKSPACE`] is the tier map of the
//! bgpscale workspace, and the fixture cases of [`crate::fixtures`] carry
//! their own values. The compiler checks every field, so a misspelt tier
//! cannot silently disable a rule.

/// One tier map: what to scan and how to classify what is found.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Directories (relative to the root) to walk. Every file found is
    /// scanned for allows; item extraction and the call graph take the
    /// ones not under a `tests/`, `benches/` or `examples/` directory.
    pub include: &'static [&'static str],
    /// Path prefixes to skip entirely.
    pub exclude: &'static [&'static str],
    /// Path prefixes holding deterministic-tier code: everything that
    /// executes between a seed and an artifact. The det-closure pass
    /// follows their `pub fn`s through every call, whatever crate it
    /// lands in.
    pub deterministic: &'static [&'static str],
    /// Module paths (`crate::module`) of sanctioned wall-side code. The
    /// deterministic closure must not reach these (or external wall/env
    /// APIs) except through an audited
    /// `// det::allow(det-closure, reason = "...")` at the call site.
    pub wall_side: &'static [&'static str],
    /// Roots of the panic-surface pass, matched by exact qualified name
    /// or `::`-suffix.
    pub hot_roots: &'static [&'static str],
    /// The exit convention: every artifact-writing binary must mention
    /// one alternative of each group.
    pub exit_constants: &'static [&'static [&'static str]],
}

impl Config {
    /// The bgpscale workspace. Checked by `det --check` (a hard CI gate)
    /// and by the `workspace_is_clean` test. The token-level bans
    /// (unordered collections, host clocks, ad-hoc threads, env reads,
    /// float arithmetic in integer-only files) are clippy lints, listed
    /// in `clippy.toml`; det checks what needs the call graph.
    pub const WORKSPACE: Config = Config {
        include: &["crates", "src", "examples", "tests"],
        exclude: &[
            // Offline registry stand-ins, not ours to lint.
            "crates/vendor",
            // Intentionally seeded violations.
            "crates/det/tests/fixtures",
            "target",
        ],
        deterministic: &[
            "crates/simkernel/src",
            "crates/topology/src",
            "crates/bgp/src",
            "crates/core/src",
            "crates/stats/src",
            "crates/obs/src",
        ],
        wall_side: &[
            // THE wall-clock module: everything else builds on it.
            "simkernel::wallclock",
            // Resident-set sampling (host /proc reads).
            "simkernel::rss",
            // Allocation counters (global-allocator state).
            "simkernel::alloc",
            // Wall-clock span profiles; never enter deterministic artifacts.
            "obs::span",
        ],
        // The per-event simulator hot path. `BgpNode::receive` and
        // `::mrai_flush` are what every ProcDone and every valid
        // MraiExpire run: methods of the per-step view of one node's share
        // of the simulator's RouteSlab, so the route columns they read and
        // write (RouteSlab::touch, adj_rib_in, rib_in, set_rib_in,
        // loc/loc_mut) and the Stripe that cuts every per-session column
        // (Stripe::share/share_mut/entry/entry_mut, all through
        // Stripe::cut/cut_mut) are walked from them.
        hot_roots: &[
            "core::cevent::run_c_event",
            "bgp::node::BgpNode::receive",
            "bgp::node::BgpNode::mrai_flush",
            "simkernel::queue::EventQueue::schedule",
            "simkernel::queue::EventQueue::pop",
        ],
        exit_constants: &[&["EXIT_OK"], &["EXIT_VIOLATIONS", "EXIT_FAIL"], &["EXIT_USAGE"]],
    };

    /// True if `rel` (a `/`-separated path relative to the root) lies
    /// under any of the given prefixes, component-wise.
    pub fn path_matches(rel: &str, prefixes: &[&str]) -> bool {
        prefixes.iter().any(|p| {
            let p = p.trim_end_matches('/');
            rel.strip_prefix(p)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        })
    }

    /// True if the file is deterministic-tier.
    pub fn is_deterministic(&self, rel: &str) -> bool {
        Config::path_matches(rel, self.deterministic)
    }

    /// True if the path is excluded from scanning altogether.
    pub fn is_excluded(&self, rel: &str) -> bool {
        Config::path_matches(rel, self.exclude)
    }

    /// True if a function (or module) with this qualified name lives in a
    /// sanctioned wall-side module.
    pub fn is_wall_side(&self, qname: &str) -> bool {
        self.wall_side.iter().any(|m| {
            qname
                .strip_prefix(m)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with("::"))
        })
    }

    /// True if this qualified name is a panic-surface root.
    pub fn is_hot_root(&self, qname: &str) -> bool {
        self.hot_roots
            .iter()
            .any(|r| qname == *r || qname.ends_with(&format!("::{r}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching_is_component_wise() {
        let p = ["crates/core"];
        assert!(Config::path_matches("crates/core/src/sim.rs", &p));
        assert!(Config::path_matches("crates/core", &p));
        assert!(!Config::path_matches("crates/core2/src/sim.rs", &p));
    }

    #[test]
    fn workspace_tiers_classify_by_component_and_suffix() {
        let cfg = Config::WORKSPACE;
        assert!(cfg.is_deterministic("crates/core/src/sim.rs"));
        assert!(!cfg.is_deterministic("crates/core/tests/prop.rs"));
        assert!(cfg.is_excluded("crates/det/tests/fixtures/graph/det/hot.rs"));
        assert!(cfg.is_wall_side("simkernel::wallclock::Stopwatch::start"));
        assert!(!cfg.is_wall_side("simkernel::wallclock_adjacent::f"));
        assert!(cfg.is_hot_root("core::cevent::run_c_event"));
        assert!(cfg.is_hot_root("bgpscale::simkernel::queue::EventQueue::pop"));
        assert!(!cfg.is_hot_root("simkernel::queue::EventQueue::pop_front"));
    }
}
