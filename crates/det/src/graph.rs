//! The workspace call graph: node flattening and conservative edge
//! resolution.
//!
//! Resolution is a **deliberate over-approximation**. A call that could
//! target more than one workspace function gets an edge to every
//! candidate; a call that targets nothing in the workspace becomes an
//! [`EdgeTarget::External`] (qualified paths) or
//! [`EdgeTarget::Opaque`] (bare method names) edge rather than
//! vanishing. The passes err on the side of reporting: a spurious edge
//! costs an audited allow, a missing edge costs a missed hazard.
//!
//! The resolution order for a path call, normalized against the file's
//! imports and `crate`/`self`/`super` prefixes:
//!
//! 1. exact qualified-name match;
//! 2. same-module, then owner-type (`Self::helper`) match for bare
//!    names, then glob-import expansion;
//! 3. `Type::name` suffix match anywhere in the workspace (types are
//!    imported under bare names, so the path rarely carries the crate);
//! 4. same-crate name match for bare calls;
//! 5. crate-qualified name match when the head segment is a workspace
//!    crate.
//!
//! Method calls resolve by name across **all** scanned crates (the
//! receiver type is unknown); names listed in `[resolve]
//! opaque-methods` are exempted from this and stay opaque.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::items::{CallKind, FileItems, FnItem};

/// Where an edge points.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeTarget {
    /// A workspace function (index into [`Graph::nodes`]).
    Node(usize),
    /// A qualified path outside the workspace (normalized, joined).
    External(String),
    /// A method name that resolved to no workspace impl.
    Opaque(String),
}

/// One resolved call edge.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
    pub target: EdgeTarget,
}

/// One graph node: a workspace function plus provenance.
#[derive(Clone, Debug)]
pub struct Node {
    pub item: FnItem,
    /// File the function lives in, relative to the scan root.
    pub file: String,
    pub crate_id: String,
}

/// The resolved call graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Sorted by qualified name; indices are stable for one build.
    pub nodes: Vec<Node>,
    pub by_qname: BTreeMap<String, usize>,
    /// Outgoing edges per node, sorted and deduplicated.
    pub edges: Vec<Vec<Edge>>,
}

impl Graph {
    /// Builds the graph from parsed files.
    pub fn build(files: &[FileItems], cfg: &Config) -> Graph {
        let mut nodes: Vec<Node> = Vec::new();
        for f in files {
            for item in &f.fns {
                nodes.push(Node {
                    item: item.clone(),
                    file: f.rel.clone(),
                    crate_id: f.crate_id.clone(),
                });
            }
        }
        nodes.sort_by(|a, b| {
            (&a.item.qname, &a.file, a.item.line).cmp(&(&b.item.qname, &b.file, b.item.line))
        });

        let mut by_qname = BTreeMap::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_suffix: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut crate_ids: BTreeSet<&str> = BTreeSet::new();
        for (i, n) in nodes.iter().enumerate() {
            // First declaration wins on a qname collision; the duplicate
            // still resolves by name, so no edge is lost.
            by_qname.entry(n.item.qname.clone()).or_insert(i);
            by_name.entry(&n.item.name).or_default().push(i);
            if let Some(owner) = &n.item.owner {
                by_method.entry(&n.item.name).or_default().push(i);
                by_suffix
                    .entry(format!("{owner}::{}", n.item.name))
                    .or_default()
                    .push(i);
            }
            crate_ids.insert(&n.crate_id);
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        let opaque: BTreeSet<&str> = cfg.opaque_methods.iter().map(String::as_str).collect();
        for f in files {
            let uses: BTreeMap<&str, &[String]> = f
                .uses
                .iter()
                .map(|u| (u.alias.as_str(), u.path.as_slice()))
                .collect();
            for item in &f.fns {
                let Some(&ni) = by_qname.get(&item.qname) else {
                    continue;
                };
                // Collided qname: make sure we attach to *this* item's node.
                let ni = if nodes[ni].item.line == item.line && nodes[ni].file == f.rel {
                    ni
                } else {
                    match nodes
                        .iter()
                        .position(|n| n.file == f.rel && n.item.line == item.line)
                    {
                        Some(i) => i,
                        None => continue,
                    }
                };
                for call in &item.calls {
                    let mut targets: Vec<EdgeTarget> = Vec::new();
                    match &call.kind {
                        CallKind::Macro(_) => continue,
                        CallKind::Method(name) => {
                            if opaque.contains(name.as_str()) {
                                targets.push(EdgeTarget::Opaque(name.clone()));
                            } else {
                                match by_method.get(name.as_str()) {
                                    Some(cands) => {
                                        targets.extend(cands.iter().map(|&c| EdgeTarget::Node(c)))
                                    }
                                    None => targets.push(EdgeTarget::Opaque(name.clone())),
                                }
                            }
                        }
                        CallKind::Path(segs) => {
                            resolve_path(
                                segs,
                                f,
                                item,
                                &uses,
                                &by_qname,
                                &by_name,
                                &by_suffix,
                                &crate_ids,
                                &nodes,
                                &mut targets,
                            );
                        }
                    }
                    for t in targets {
                        edges[ni].push(Edge {
                            line: call.line,
                            target: t,
                        });
                    }
                }
            }
        }
        for e in &mut edges {
            e.sort();
            e.dedup();
        }
        Graph {
            nodes,
            by_qname,
            edges,
        }
    }

    /// Total edge count (for reporting).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Resolves one qualified or bare path call into edge targets.
#[allow(clippy::too_many_arguments)]
fn resolve_path(
    segs: &[String],
    f: &FileItems,
    item: &FnItem,
    uses: &BTreeMap<&str, &[String]>,
    by_qname: &BTreeMap<String, usize>,
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_suffix: &BTreeMap<String, Vec<usize>>,
    crate_ids: &BTreeSet<&str>,
    nodes: &[Node],
    out: &mut Vec<EdgeTarget>,
) {
    // Expand a leading import alias, then crate-relative prefixes.
    let mut path: Vec<String> = segs.to_vec();
    if let Some(&target) = uses.get(path[0].as_str()) {
        let mut p: Vec<String> = target.to_vec();
        p.extend(path.into_iter().skip(1));
        path = p;
    }
    if path[0] == "Self" {
        let mut p = vec![f.crate_id.clone()];
        p.extend(f.modules.iter().cloned());
        if let Some(owner) = &item.owner {
            p.push(owner.clone());
        }
        p.extend(path.into_iter().skip(1));
        path = p;
    }
    let path = crate::items::normalize_prefix(path, &f.crate_id, &f.modules);
    let joined = path.join("::");

    // 1. Exact qualified name.
    if let Some(&i) = by_qname.get(&joined) {
        out.push(EdgeTarget::Node(i));
        return;
    }

    let name = path.last().expect("nonempty path").clone();
    if path.len() == 1 {
        // 2. Bare name: same module, owner type, glob imports.
        let mut full = vec![f.crate_id.clone()];
        full.extend(f.modules.iter().cloned());
        full.push(name.clone());
        if let Some(&i) = by_qname.get(&full.join("::")) {
            out.push(EdgeTarget::Node(i));
            return;
        }
        if let Some(owner) = &item.owner {
            let mut full = vec![f.crate_id.clone()];
            full.extend(f.modules.iter().cloned());
            full.push(owner.clone());
            full.push(name.clone());
            if let Some(&i) = by_qname.get(&full.join("::")) {
                out.push(EdgeTarget::Node(i));
                return;
            }
        }
        for g in &f.globs {
            let mut full = g.clone();
            full.push(name.clone());
            if let Some(&i) = by_qname.get(&full.join("::")) {
                out.push(EdgeTarget::Node(i));
                return;
            }
        }
        // 4. Same-crate free function of that name, anywhere.
        if let Some(cands) = by_name.get(name.as_str()) {
            let same: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| nodes[c].crate_id == f.crate_id && nodes[c].item.owner.is_none())
                .collect();
            if !same.is_empty() {
                out.extend(same.into_iter().map(EdgeTarget::Node));
                return;
            }
        }
        out.push(EdgeTarget::External(joined));
        return;
    }

    // 3. `Type::name` suffix match (types travel under bare names).
    let suffix = format!("{}::{name}", path[path.len() - 2]);
    if let Some(cands) = by_suffix.get(&suffix) {
        out.extend(cands.iter().map(|&c| EdgeTarget::Node(c)));
        return;
    }

    // 5. Crate-qualified name match (`simkernel::hash64` where the fn
    // is re-exported from a submodule).
    if crate_ids.contains(path[0].as_str()) {
        if let Some(cands) = by_name.get(name.as_str()) {
            let same: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| nodes[c].crate_id == path[0])
                .collect();
            if !same.is_empty() {
                out.extend(same.into_iter().map(EdgeTarget::Node));
                return;
            }
        }
    }
    out.push(EdgeTarget::External(joined));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{extract, Needles};
    use crate::source::SourceFile;

    fn parse(rel: &str, src: &str) -> FileItems {
        extract(&SourceFile::lex(rel, src), &Needles::default())
    }

    fn build(files: &[(&str, &str)]) -> Graph {
        let parsed: Vec<FileItems> = files.iter().map(|(rel, src)| parse(rel, src)).collect();
        Graph::build(&parsed, &Config::default())
    }

    fn edge_qnames(g: &Graph, from: &str) -> Vec<String> {
        let &i = g.by_qname.get(from).expect("node exists");
        g.edges[i]
            .iter()
            .filter_map(|e| match e.target {
                EdgeTarget::Node(t) => Some(g.nodes[t].item.qname.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn exact_and_bare_calls_resolve() {
        let g = build(&[(
            "det/a.rs",
            "pub fn entry() { helper(); det::a::helper(); }\nfn helper() {}\n",
        )]);
        // Both spellings resolve to the same node; identical edges on one
        // line collapse to one.
        assert_eq!(edge_qnames(&g, "det::a::entry"), ["det::a::helper"]);
    }

    #[test]
    fn cross_crate_qualified_calls_resolve() {
        let g = build(&[
            (
                "det/entry.rs",
                "pub fn go() -> u64 { util::helper::ticks(1) }\n",
            ),
            ("util/helper.rs", "pub fn ticks(k: u64) -> u64 { k }\n"),
        ]);
        assert_eq!(edge_qnames(&g, "det::entry::go"), ["util::helper::ticks"]);
    }

    #[test]
    fn glob_reexports_resolve_through_name_match() {
        // `pub use inner::*` in crate `a`; crate `b` imports `a::f` and
        // calls it bare — resolution must land on `a::inner::f`.
        let g = build(&[
            (
                "a/lib.rs",
                "pub use inner::*;\npub mod inner { pub fn f() {} }\n",
            ),
            ("b/user.rs", "use a::f;\npub fn call() { f() }\n"),
        ]);
        assert_eq!(edge_qnames(&g, "b::user::call"), ["a::inner::f"]);
    }

    #[test]
    fn glob_imports_resolve_bare_names() {
        let g = build(&[
            ("a/util.rs", "pub fn shared() {}\n"),
            (
                "a/caller.rs",
                "use crate::util::*;\npub fn go() { shared() }\n",
            ),
        ]);
        assert_eq!(edge_qnames(&g, "a::caller::go"), ["a::util::shared"]);
    }

    #[test]
    fn method_calls_fan_out_to_all_impls_of_that_name() {
        let g = build(&[
            (
                "a/q.rs",
                "pub struct Q;\nimpl Q { pub fn push(&self) {} }\n",
            ),
            (
                "b/r.rs",
                "pub struct R;\nimpl R { pub fn push(&self) {} }\n",
            ),
            ("c/use.rs", "pub fn go(x: &[u64]) { x.push() }\n"),
        ]);
        let got = edge_qnames(&g, "c::use::go");
        assert_eq!(got, ["a::q::Q::push", "b::r::R::push"]);
    }

    #[test]
    fn method_vs_function_ambiguity_stays_separate() {
        // A bare `len(v)` call must resolve to the same-crate free
        // function, never to a method named `len`.
        let g = build(&[(
            "a/m.rs",
            "pub struct S;\nimpl S { pub fn len(&self) -> u64 { 0 } }\n\
             pub fn len(v: &[u64]) -> u64 { v.len() as u64 }\n\
             pub fn call(v: &[u64]) -> u64 { len(v) }\n",
        )]);
        assert_eq!(edge_qnames(&g, "a::m::call"), ["a::m::len"]);
        // The `.len()` method call inside the free fn fans out to the impl.
        assert_eq!(edge_qnames(&g, "a::m::len"), ["a::m::S::len"]);
    }

    #[test]
    fn type_qualified_calls_suffix_match_across_crates() {
        let g = build(&[
            (
                "crates/simkernel/src/queue.rs",
                "pub struct EventQueue;\nimpl EventQueue { pub fn push(&self) {} }\n",
            ),
            (
                "crates/core/src/sim.rs",
                "use bgpscale_simkernel::queue::EventQueue;\n\
                 pub fn go(q: &EventQueue) { EventQueue::push(q) }\n",
            ),
        ]);
        assert_eq!(
            edge_qnames(&g, "core::sim::go"),
            ["simkernel::queue::EventQueue::push"]
        );
    }

    #[test]
    fn unresolved_calls_stay_as_external_or_opaque_edges() {
        let g = build(&[(
            "a/x.rs",
            "pub fn go() { std::fs::read(\"p\").ok(); thing.frobnicate(); }\n",
        )]);
        let &i = g.by_qname.get("a::x::go").expect("node");
        let targets: Vec<&EdgeTarget> = g.edges[i].iter().map(|e| &e.target).collect();
        assert!(targets.contains(&&EdgeTarget::External("std::fs::read".to_string())));
        assert!(targets.contains(&&EdgeTarget::Opaque("frobnicate".to_string())));
    }

    #[test]
    fn opaque_methods_config_suppresses_fan_out() {
        let parsed = vec![
            parse(
                "a/q.rs",
                "pub struct Q;\nimpl Q { pub fn push(&self) {} }\n",
            ),
            parse("c/u.rs", "pub fn go(v: &mut Vec<u64>) { v.push(1) }\n"),
        ];
        let cfg = Config {
            opaque_methods: vec!["push".to_string()],
            ..Config::default()
        };
        let g = Graph::build(&parsed, &cfg);
        let &i = g.by_qname.get("c::u::go").expect("node");
        assert_eq!(
            g.edges[i],
            [Edge {
                line: 1,
                target: EdgeTarget::Opaque("push".to_string())
            }]
        );
    }

    #[test]
    fn every_node_edge_targets_an_existing_node() {
        // Property: resolution can never fabricate a dangling index.
        let g = build(&[
            ("a/x.rs", "pub fn f() { g(); h::i(); }\npub fn g() {}\n"),
            ("a/h.rs", "pub fn i() { crate::x::f() }\n"),
        ]);
        for edges in &g.edges {
            for e in edges {
                if let EdgeTarget::Node(t) = e.target {
                    assert!(t < g.nodes.len());
                }
            }
        }
    }
}
