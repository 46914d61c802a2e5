//! The rule set: identifiers and messages.
//!
//! Every rule is either a call-graph pass of [`crate::passes`] or the
//! allow hygiene of [`crate::source::Ledger`]. The token-level bans
//! (host clocks, ad-hoc threads, unordered collections, env reads, float
//! arithmetic in integer-only files) are clippy lints, listed in
//! `clippy.toml`; det checks only what needs the call graph.

/// One determinism rule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// The deterministic closure reached a wall-side module or API.
    DetClosure,
    /// A panic source is reachable from a hot-path root.
    PanicSurface,
    /// An artifact writer misses the schema stamp or exit convention.
    ArtifactContract,
    /// A `det::allow` comment that suppressed nothing.
    StaleAllow,
    /// A `det::allow` comment that does not parse (unknown rule or
    /// missing `reason = "..."`).
    BadAllow,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 5] = [
        Rule::DetClosure,
        Rule::PanicSurface,
        Rule::ArtifactContract,
        Rule::StaleAllow,
        Rule::BadAllow,
    ];

    /// The kebab-case identifier used in allow comments, fixture
    /// markers, and diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::DetClosure => "det-closure",
            Rule::PanicSurface => "panic-surface",
            Rule::ArtifactContract => "artifact-contract",
            Rule::StaleAllow => "stale-allow",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parses a rule identifier.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// What the rule demands: the message of every allow-hygiene finding,
    /// and the `--list-rules` table entry of the graph rules (whose
    /// findings carry a message built per site).
    pub fn explanation(self) -> &'static str {
        match self {
            Rule::DetClosure => {
                "no call path from a deterministic-tier pub fn may reach a wall-side \
                 module or external wall/env API"
            }
            Rule::PanicSurface => {
                "functions reachable from the hot-path roots must not unwrap/expect/\
                 panic!/slice-index without an audited invariant"
            }
            Rule::ArtifactContract => {
                "file writers must flow through the schema stamp; artifact-writing \
                 binaries must use the shared exit constants"
            }
            Rule::StaleAllow => {
                "this det::allow suppressed nothing; remove it or move it onto the line or \
                 declaration it audits"
            }
            Rule::BadAllow => "malformed det::allow; expected det::allow(<rule>, reason = \"...\")",
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("nope"), None);
        // The token-level bans are clippy's now: their old ids are unknown.
        assert_eq!(Rule::from_id("wall-clock"), None);
        assert_eq!(Rule::from_id("config-coherence"), None);
    }
}
