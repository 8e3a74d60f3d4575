//! The SCoRe DAG.
//!
//! SCoRe is "a distributed data structure represented as a Directed
//! Acyclic Graph (DAG) of vertices" (§3.1). This module tracks the
//! topology: which vertices exist, who consumes whom (an input must be
//! registered before its consumer and edges are never edited, so the
//! graph is acyclic by construction), and the structural quantities the
//! Figure 7 experiments vary — vertex **degree** (fan-in) and **height**
//! (the maximum Hamming distance from any source to a sink, the `h` of
//! the `O(p·h)` propagation bound of §3.2.1).

use std::collections::{HashMap, HashSet};

/// Kind of a registered vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexKind {
    /// A source (fact) vertex.
    Fact,
    /// An inner/sink (insight) vertex.
    Insight,
}

/// Error registering a vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex with this name already exists.
    Duplicate(String),
    /// The edge set would create a cycle through this vertex.
    Cycle(String),
    /// An input topic refers to a vertex that is not registered.
    UnknownInput {
        /// The vertex being registered.
        vertex: String,
        /// The missing input.
        input: String,
    },
    /// No vertex with this name is registered.
    UnknownVertex(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Duplicate(v) => write!(f, "vertex {v:?} already registered"),
            GraphError::Cycle(v) => write!(f, "registering {v:?} would create a cycle"),
            GraphError::UnknownInput { vertex, input } => {
                write!(f, "vertex {vertex:?} consumes unregistered input {input:?}")
            }
            GraphError::UnknownVertex(v) => write!(f, "no vertex {v:?} is registered"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The DAG topology of a SCoRe deployment.
#[derive(Debug, Default)]
pub struct ScoreGraph {
    kinds: HashMap<String, VertexKind>,
    /// vertex -> inputs it consumes.
    inputs: HashMap<String, Vec<String>>,
}

impl ScoreGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a fact (source) vertex.
    pub fn add_fact(&mut self, name: &str) -> Result<(), GraphError> {
        if self.kinds.contains_key(name) {
            return Err(GraphError::Duplicate(name.to_string()));
        }
        self.kinds.insert(name.to_string(), VertexKind::Fact);
        self.inputs.insert(name.to_string(), Vec::new());
        Ok(())
    }

    /// Register an insight vertex consuming `inputs`. All inputs must be
    /// registered already, which is what keeps the graph acyclic.
    pub fn add_insight(&mut self, name: &str, inputs: &[String]) -> Result<(), GraphError> {
        if self.kinds.contains_key(name) {
            return Err(GraphError::Duplicate(name.to_string()));
        }
        for i in inputs {
            if i == name {
                return Err(GraphError::Cycle(name.to_string()));
            }
            if !self.kinds.contains_key(i) {
                return Err(GraphError::UnknownInput {
                    vertex: name.to_string(),
                    input: i.clone(),
                });
            }
        }
        self.kinds.insert(name.to_string(), VertexKind::Insight);
        self.inputs.insert(name.to_string(), inputs.to_vec());
        Ok(())
    }

    /// Remove a vertex (unregister at runtime, §3.1). Fails when `name` is
    /// not a registered vertex or another vertex still consumes it.
    pub fn remove(&mut self, name: &str) -> Result<(), GraphError> {
        if !self.kinds.contains_key(name) {
            return Err(GraphError::UnknownVertex(name.to_string()));
        }
        let consumers: Vec<&String> = self
            .inputs
            .iter()
            .filter(|(v, ins)| *v != name && ins.iter().any(|i| i == name))
            .map(|(v, _)| v)
            .collect();
        if let Some(c) = consumers.first() {
            return Err(GraphError::UnknownInput { vertex: (*c).clone(), input: name.to_string() });
        }
        self.kinds.remove(name);
        self.inputs.remove(name);
        Ok(())
    }

    /// Whether a vertex is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.kinds.contains_key(name)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when no vertices are registered.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Fan-in degree of a vertex.
    pub fn degree(&self, name: &str) -> usize {
        self.inputs.get(name).map(Vec::len).unwrap_or(0)
    }

    /// Hamming distance of a vertex from the farthest source below it
    /// (0 for facts).
    pub fn hamming_distance(&self, name: &str) -> usize {
        fn depth(g: &ScoreGraph, v: &str, memo: &mut HashMap<String, usize>) -> usize {
            if let Some(&d) = memo.get(v) {
                return d;
            }
            let d = g
                .inputs
                .get(v)
                .map(|ins| ins.iter().map(|i| depth(g, i, memo) + 1).max().unwrap_or(0))
                .unwrap_or(0);
            memo.insert(v.to_string(), d);
            d
        }
        depth(self, name, &mut HashMap::new())
    }

    /// Height `h` of the DAG: the maximum Hamming distance of any vertex.
    pub fn height(&self) -> usize {
        self.kinds.keys().map(|v| self.hamming_distance(v)).max().unwrap_or(0)
    }

    /// Upper bound on insight-propagation cost `O(p·h)` with `p ≤ V`
    /// (§3.2.1).
    pub fn propagation_bound(&self) -> usize {
        self.len() * self.height()
    }

    /// Vertices in a topological order (sources first). The DAG invariant
    /// makes this always succeed.
    pub fn topo_order(&self) -> Vec<String> {
        let mut order = Vec::with_capacity(self.len());
        let mut visited = HashSet::new();
        fn visit(g: &ScoreGraph, v: &str, visited: &mut HashSet<String>, order: &mut Vec<String>) {
            if visited.contains(v) {
                return;
            }
            visited.insert(v.to_string());
            if let Some(ins) = g.inputs.get(v) {
                for i in ins {
                    visit(g, i, visited, order);
                }
            }
            order.push(v.to_string());
        }
        let mut names: Vec<&String> = self.kinds.keys().collect();
        names.sort(); // deterministic order
        for v in names {
            visit(self, v, &mut visited, &mut order);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(layers: usize) -> ScoreGraph {
        // fact -> i1 -> i2 -> ... -> iN (the Figure 7b layered topology)
        let mut g = ScoreGraph::new();
        g.add_fact("fact").unwrap();
        let mut prev = "fact".to_string();
        for l in 1..=layers {
            let name = format!("i{l}");
            g.add_insight(&name, &[prev.clone()]).unwrap();
            prev = name;
        }
        g
    }

    #[test]
    fn register_and_degree() {
        let mut g = ScoreGraph::new();
        g.add_fact("a").unwrap();
        g.add_fact("b").unwrap();
        g.add_insight("sum", &["a".into(), "b".into()]).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.degree("sum"), 2);
        assert_eq!(g.degree("a"), 0);
        assert!(g.contains("sum"));
    }

    #[test]
    fn duplicate_rejected() {
        let mut g = ScoreGraph::new();
        g.add_fact("a").unwrap();
        assert_eq!(g.add_fact("a"), Err(GraphError::Duplicate("a".into())));
        assert!(matches!(g.add_insight("a", &[]), Err(GraphError::Duplicate(_))));
    }

    #[test]
    fn unknown_input_rejected() {
        let mut g = ScoreGraph::new();
        let err = g.add_insight("i", &["ghost".into()]).unwrap_err();
        assert!(matches!(err, GraphError::UnknownInput { .. }));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = ScoreGraph::new();
        let err = g.add_insight("i", &["i".into()]).unwrap_err();
        assert_eq!(err, GraphError::Cycle("i".into()));
    }

    #[test]
    fn hamming_distance_and_height() {
        let g = chain(32);
        assert_eq!(g.hamming_distance("fact"), 0);
        assert_eq!(g.hamming_distance("i1"), 1);
        assert_eq!(g.hamming_distance("i32"), 32);
        assert_eq!(g.height(), 32);
        assert_eq!(g.propagation_bound(), 33 * 32);
    }

    #[test]
    fn diamond_takes_longest_path() {
        let mut g = ScoreGraph::new();
        g.add_fact("f").unwrap();
        g.add_insight("l1", &["f".into()]).unwrap();
        g.add_insight("l2", &["l1".into()]).unwrap();
        g.add_insight("top", &["f".into(), "l2".into()]).unwrap();
        assert_eq!(g.hamming_distance("top"), 3);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = chain(5);
        let order = g.topo_order();
        let pos: HashMap<&String, usize> = order.iter().enumerate().map(|(i, v)| (v, i)).collect();
        assert!(pos[&"fact".to_string()] < pos[&"i1".to_string()]);
        assert!(pos[&"i4".to_string()] < pos[&"i5".to_string()]);
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn remove_leaf_ok_but_consumed_vertex_blocked() {
        let mut g = chain(2);
        let err = g.remove("i1").unwrap_err();
        assert!(matches!(err, GraphError::UnknownInput { .. }));
        g.remove("i2").unwrap();
        g.remove("i1").unwrap();
        g.remove("fact").unwrap();
        assert!(g.is_empty());
        assert_eq!(g.remove("fact"), Err(GraphError::UnknownVertex("fact".into())));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Randomly built layered graphs are always acyclic and their
        /// height is bounded by the number of layers.
        #[test]
        fn layered_graphs_valid(
            layer_sizes in proptest::collection::vec(1usize..5, 1..6),
        ) {
            let mut g = ScoreGraph::new();
            let mut prev_layer: Vec<String> = Vec::new();
            for (li, &n) in layer_sizes.iter().enumerate() {
                let mut layer = Vec::new();
                for vi in 0..n {
                    let name = format!("v{li}_{vi}");
                    if li == 0 {
                        g.add_fact(&name).unwrap();
                    } else {
                        g.add_insight(&name, &prev_layer).unwrap();
                    }
                    layer.push(name);
                }
                prev_layer = layer;
            }
            prop_assert!(g.height() < layer_sizes.len());
            let order = g.topo_order();
            prop_assert_eq!(order.len(), g.len());
        }
    }
}
