//! The graph passes.
//!
//! * **det-closure** — BFS from every deterministic-tier `pub fn`; an
//!   edge into a sanctioned wall-side module or an external wall/env
//!   API is a violation anchored at the crossing call site, with a
//!   witness path back to the entry point.
//! * **panic-surface** — BFS from the configured hot-path roots; every
//!   reachable function containing a panic source (`unwrap`/`expect`,
//!   `panic!`-family, slice indexing) is a violation anchored at the
//!   function declaration, listing its sites.
//! * **artifact-contract** — every function that opens or writes a file
//!   must have the schema stamp in its forward closure; every binary
//!   `main` whose closure contains a writer must mention each exit-code
//!   constant group in its closure.
//!
//! Suppression is per-site through the shared [`Ledger`]: a
//! `// det::allow(rule, reason = "...")` on the reported anchor line.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::Config;
use crate::graph::{EdgeTarget, Graph};
use crate::items::{PanicKind, PanicSite};
use crate::report::Finding;
use crate::source::Ledger;
use crate::Rule;

/// External path segments that are wall-side by definition.
fn external_is_wall(joined: &str) -> bool {
    let segs: Vec<&str> = joined.split("::").collect();
    if segs
        .iter()
        .any(|s| matches!(*s, "Instant" | "SystemTime" | "UNIX_EPOCH" | "getrandom"))
    {
        return true;
    }
    // `env::var` / `var_os` / `vars` with an `env` segment before it.
    matches!(segs.last(), Some(&"var" | &"var_os" | &"vars")) && segs.contains(&"env")
}

/// What the passes counted on the way (reported in the summary line).
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphStats {
    pub entry_points: usize,
    pub hot_roots: usize,
    pub writers: usize,
}

/// A breadth-first reach: visit order plus BFS parents for witnesses.
struct Reach {
    order: Vec<usize>,
    parent: Vec<Option<usize>>,
}

/// Walks the node edges from `starts`, entering only nodes `enter`
/// admits.
fn reach(graph: &Graph, starts: &[usize], enter: impl Fn(usize) -> bool) -> Reach {
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut seen: Vec<bool> = vec![false; graph.nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in starts {
        if !seen[s] {
            seen[s] = true;
            queue.push_back(s);
        }
    }
    let mut order = Vec::new();
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for edge in &graph.edges[u] {
            if let EdgeTarget::Node(v) = edge.target {
                if !seen[v] && enter(v) {
                    seen[v] = true;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
    }
    Reach { order, parent }
}

impl Reach {
    /// Renders the BFS parent chain of `u` root-first, capped.
    fn witness(&self, graph: &Graph, u: usize) -> Vec<String> {
        let mut chain = vec![u];
        let mut cur = u;
        while let Some(p) = self.parent[cur] {
            chain.push(p);
            cur = p;
            if chain.len() > 12 {
                break;
            }
        }
        chain.reverse();
        chain
            .into_iter()
            .map(|i| graph.nodes[i].item.qname.clone())
            .collect()
    }
}

/// Runs the three graph passes, pushing unsuppressed findings.
pub fn run_graph_passes(
    cfg: &Config,
    graph: &Graph,
    ledger: &mut Ledger,
    findings: &mut Vec<Finding>,
) -> GraphStats {
    let all = 0..graph.nodes.len();
    let wall_side = |i: usize| cfg.is_wall_side(&graph.nodes[i].item.qname);

    // ---- det-closure -------------------------------------------------
    let entries: Vec<usize> = all
        .clone()
        .filter(|&i| {
            let n = &graph.nodes[i];
            n.item.is_pub && cfg.is_deterministic(&n.file) && !wall_side(i)
        })
        .collect();
    let closure = reach(graph, &entries, |v| !wall_side(v));
    for &u in &closure.order {
        let n = &graph.nodes[u];
        for edge in &graph.edges[u] {
            let target = match &edge.target {
                EdgeTarget::Node(v) if wall_side(*v) => &graph.nodes[*v].item.qname,
                EdgeTarget::External(p) if external_is_wall(p) => p,
                _ => continue,
            };
            if ledger.covered(&n.file, edge.line, Rule::DetClosure) {
                continue;
            }
            findings.push(Finding {
                witness: closure.witness(graph, u),
                ..Finding::at(
                    Rule::DetClosure,
                    n.file.clone(),
                    edge.line,
                    format!(
                        "deterministic closure reaches wall-side `{target}` \
                         (route through simulated time/seeded rng, or audit the \
                         crossing with a det::allow)"
                    ),
                )
            });
        }
    }

    // ---- panic-surface -----------------------------------------------
    let roots: Vec<usize> = all
        .clone()
        .filter(|&i| cfg.is_hot_root(&graph.nodes[i].item.qname))
        .collect();
    let hot = reach(graph, &roots, |_| true);
    for &u in &hot.order {
        let n = &graph.nodes[u];
        if n.item.panics.is_empty() || ledger.covered(&n.file, n.item.line, Rule::PanicSurface) {
            continue;
        }
        findings.push(Finding {
            witness: hot.witness(graph, u),
            ..Finding::at(
                Rule::PanicSurface,
                n.file.clone(),
                n.item.line,
                format!(
                    "`{}` is reachable from a hot path and can panic: {} \
                     (restructure, or audit the invariant with a det::allow \
                     on the fn declaration)",
                    n.item.qname,
                    panic_summary(&n.item.panics),
                ),
            )
        });
    }

    // ---- artifact-contract -------------------------------------------
    let writers: BTreeSet<usize> = all
        .clone()
        .filter(|&i| !graph.nodes[i].item.writes.is_empty())
        .collect();
    let mut contract = |i: usize, message: String| {
        let n = &graph.nodes[i];
        if !ledger.covered(&n.file, n.item.line, Rule::ArtifactContract) {
            findings.push(Finding::at(
                Rule::ArtifactContract,
                n.file.clone(),
                n.item.line,
                message,
            ));
        }
    };
    for &w in &writers {
        let closure = reach(graph, &[w], |_| true).order;
        if !closure.iter().any(|&i| graph.nodes[i].item.mentions_stamp) {
            contract(
                w,
                format!(
                    "`{}` writes a file but nothing in its call closure mentions \
                     the schema stamp `{}` — artifacts must be versioned",
                    graph.nodes[w].item.qname,
                    crate::ARTIFACT_STAMP
                ),
            );
        }
    }
    for i in all.filter(|&i| graph.nodes[i].item.is_main) {
        let closure = reach(graph, &[i], |_| true).order;
        if !closure.iter().any(|c| writers.contains(c)) {
            continue;
        }
        let mentioned: BTreeSet<&str> = closure
            .iter()
            .flat_map(|&c| graph.nodes[c].item.mentions.iter().map(String::as_str))
            .collect();
        let missing: Vec<String> = cfg
            .exit_constants
            .iter()
            .filter(|group| !group.iter().any(|alt| mentioned.contains(alt)))
            .map(|group| group.join("|"))
            .collect();
        if !missing.is_empty() {
            contract(
                i,
                format!(
                    "binary `{}` writes artifacts but does not use the shared exit \
                     convention: missing {}",
                    graph.nodes[i].item.qname,
                    missing.join(", ")
                ),
            );
        }
    }

    GraphStats {
        entry_points: entries.len(),
        hot_roots: roots.len(),
        writers: writers.len(),
    }
}

/// Summarizes a function's panic sites for the diagnostic message.
fn panic_summary(panics: &[PanicSite]) -> String {
    let mut by_kind: BTreeMap<PanicKind, BTreeSet<usize>> = BTreeMap::new();
    for p in panics {
        by_kind.entry(p.kind).or_default().insert(p.line);
    }
    let parts: Vec<String> = by_kind
        .iter()
        .map(|(kind, lines)| {
            let shown: Vec<String> = lines.iter().take(6).map(usize::to_string).collect();
            let more = match lines.len().saturating_sub(6) {
                0 => String::new(),
                n => format!(" (+{n} more)"),
            };
            format!("{} at line {}{more}", kind.label(), shown.join("/"))
        })
        .collect();
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_wall_classification() {
        assert!(external_is_wall("std::time::Instant::now"));
        assert!(external_is_wall("Instant::now"));
        assert!(external_is_wall("std::env::var"));
        assert!(external_is_wall("env::vars"));
        assert!(external_is_wall("getrandom"));
        assert!(!external_is_wall("std::fs::write"));
        assert!(!external_is_wall("serde::var"));
        assert!(!external_is_wall("environment::var"));
    }

    #[test]
    fn panic_summary_groups_and_caps() {
        let sites: Vec<PanicSite> = (1..=8)
            .map(|l| PanicSite {
                kind: PanicKind::Unwrap,
                line: l,
            })
            .chain([PanicSite {
                kind: PanicKind::SliceIndex,
                line: 3,
            }])
            .collect();
        let s = panic_summary(&sites);
        assert!(s.contains("unwrap at line 1/2/3/4/5/6 (+2 more)"), "{s}");
        assert!(s.contains("slice-index at line 3"), "{s}");
    }
}
