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
//! receiver type is unknown).

use std::collections::{BTreeMap, BTreeSet};

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
    pub fn build(files: &[FileItems]) -> Graph {
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
        let ix = Index {
            nodes: &nodes,
            by_qname: &by_qname,
            by_name,
            by_suffix,
            crate_ids,
        };

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for f in files {
            let uses: BTreeMap<&str, &[String]> = f
                .uses
                .iter()
                .map(|u| (u.alias.as_str(), u.path.as_slice()))
                .collect();
            for item in &f.fns {
                // The node of *this* declaration, even on a qname collision.
                let key = (&item.qname, &f.rel, item.line);
                let Ok(ni) =
                    nodes.binary_search_by(|n| (&n.item.qname, &n.file, n.item.line).cmp(&key))
                else {
                    continue;
                };
                for call in &item.calls {
                    let mut targets: Vec<EdgeTarget> = Vec::new();
                    match &call.kind {
                        CallKind::Macro(_) => continue,
                        CallKind::Method(name) => match by_method.get(name.as_str()) {
                            Some(cands) => targets.extend(cands.iter().map(|&c| EdgeTarget::Node(c))),
                            _ => targets.push(EdgeTarget::Opaque(name.clone())),
                        },
                        CallKind::Path(segs) => ix.resolve_path(segs, f, item, &uses, &mut targets),
                    }
                    let line = call.line;
                    edges[ni].extend(targets.into_iter().map(|target| Edge { line, target }));
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

/// The name indexes call resolution looks up, over the sorted nodes.
struct Index<'a> {
    nodes: &'a [Node],
    by_qname: &'a BTreeMap<String, usize>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    by_suffix: BTreeMap<String, Vec<usize>>,
    crate_ids: BTreeSet<&'a str>,
}

impl Index<'_> {
    /// Resolves one qualified or bare path call into edge targets.
    fn resolve_path(
        &self,
        segs: &[String],
        f: &FileItems,
        item: &FnItem,
        uses: &BTreeMap<&str, &[String]>,
        out: &mut Vec<EdgeTarget>,
    ) {
        // Expand a leading import alias, then crate-relative prefixes.
        let module: Vec<String> = std::iter::once(&f.crate_id)
            .chain(&f.modules)
            .cloned()
            .collect();
        let mut path: Vec<String> = match uses.get(segs[0].as_str()) {
            Some(&target) => target.iter().chain(&segs[1..]).cloned().collect(),
            None => segs.to_vec(),
        };
        if path[0] == "Self" {
            path = module
                .iter()
                .chain(&item.owner)
                .chain(&path[1..])
                .cloned()
                .collect();
        }
        let path = crate::items::normalize_prefix(path, &f.crate_id, &f.modules);
        let joined = path.join("::");

        // 1. Exact qualified name.
        if let Some(&i) = self.by_qname.get(&joined) {
            out.push(EdgeTarget::Node(i));
            return;
        }

        let name = path.last().expect("nonempty path");
        let found = if path.len() == 1 {
            // 2. Bare name: same module, owner type, glob imports.
            let here = module.join("::");
            let scopes = std::iter::once(here.clone())
                .chain(item.owner.iter().map(|o| format!("{here}::{o}")))
                .chain(f.globs.iter().map(|g| g.join("::")));
            if let Some(i) = scopes
                .filter_map(|s| self.by_qname.get(&format!("{s}::{name}")))
                .next()
            {
                out.push(EdgeTarget::Node(*i));
                return;
            }
            // 4. Same-crate free function of that name, anywhere.
            self.named_in(name, &f.crate_id, true)
        } else if let Some(cands) = self
            .by_suffix
            .get(&format!("{}::{name}", path[path.len() - 2]))
        {
            // 3. `Type::name` suffix match (types travel under bare names).
            cands.clone()
        } else if self.crate_ids.contains(path[0].as_str()) {
            // 5. Crate-qualified name match (`simkernel::hash64` where the
            // fn is re-exported from a submodule).
            self.named_in(name, &path[0], false)
        } else {
            Vec::new()
        };
        if found.is_empty() {
            out.push(EdgeTarget::External(joined));
        } else {
            out.extend(found.into_iter().map(EdgeTarget::Node));
        }
    }

    /// The workspace fns called `name` in crate `krate`, only free ones
    /// if `free_only`.
    fn named_in(&self, name: &str, krate: &str, free_only: bool) -> Vec<usize> {
        let keep = |n: &Node| n.crate_id == krate && !(free_only && n.item.owner.is_some());
        let cands = self.by_name.get(name).into_iter().flatten();
        cands.copied().filter(|&c| keep(&self.nodes[c])).collect()
    }
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
        Graph::build(&parsed)
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
