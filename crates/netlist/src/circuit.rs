//! A minimal combinational-netlist builder and evaluator.
//!
//! Nodes are appended in topological order by construction (every gate
//! references earlier nodes only), so evaluation is a single forward
//! pass. Gate counting reports NAND2 equivalents using the conventional
//! weights (INV = 0.5, AND2/OR2/NAND2/NOR2 = 1, XOR2 = 2.5).

use std::collections::HashMap;

/// Handle to a node in the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node(usize);

#[derive(Debug, Clone)]
enum Gate {
    Input(String),
    Const(bool),
    Not(Node),
    And(Node, Node),
    Or(Node, Node),
    Xor(Node, Node),
}

/// A combinational circuit.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    gates: Vec<Gate>,
    outputs: Vec<(String, Node)>,
    input_index: HashMap<String, Node>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Circuit::default()
    }

    fn push(&mut self, g: Gate) -> Node {
        self.gates.push(g);
        Node(self.gates.len() - 1)
    }

    /// Declares (or reuses) a named primary input.
    pub fn input(&mut self, name: &str) -> Node {
        if let Some(&n) = self.input_index.get(name) {
            return n;
        }
        let n = self.push(Gate::Input(name.to_string()));
        self.input_index.insert(name.to_string(), n);
        n
    }

    /// A constant signal.
    pub fn constant(&mut self, value: bool) -> Node {
        self.push(Gate::Const(value))
    }

    /// Inverter.
    pub fn not(&mut self, a: Node) -> Node {
        self.push(Gate::Not(a))
    }

    /// 2-input AND.
    pub fn and(&mut self, a: Node, b: Node) -> Node {
        self.push(Gate::And(a, b))
    }

    /// 2-input OR.
    pub fn or(&mut self, a: Node, b: Node) -> Node {
        self.push(Gate::Or(a, b))
    }

    /// 2-input XOR.
    pub fn xor(&mut self, a: Node, b: Node) -> Node {
        self.push(Gate::Xor(a, b))
    }

    /// Balanced n-ary AND (empty input = constant true).
    pub fn and_all(&mut self, mut nodes: Vec<Node>) -> Node {
        if nodes.is_empty() {
            return self.constant(true);
        }
        while nodes.len() > 1 {
            let mut next = Vec::with_capacity(nodes.len().div_ceil(2));
            for pair in nodes.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            nodes = next;
        }
        nodes[0]
    }

    /// Balanced n-ary OR (empty input = constant false).
    pub fn or_all(&mut self, mut nodes: Vec<Node>) -> Node {
        if nodes.is_empty() {
            return self.constant(false);
        }
        while nodes.len() > 1 {
            let mut next = Vec::with_capacity(nodes.len().div_ceil(2));
            for pair in nodes.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.or(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            nodes = next;
        }
        nodes[0]
    }

    /// Equality of two equal-width buses: `AND_i !(a_i ^ b_i)`.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width.
    pub fn bus_eq(&mut self, a: &[Node], b: &[Node]) -> Node {
        assert_eq!(a.len(), b.len(), "bus widths must match");
        let bits: Vec<Node> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = self.xor(x, y);
                self.not(d)
            })
            .collect();
        self.and_all(bits)
    }

    /// Registers a named output.
    pub fn output(&mut self, name: &str, node: Node) {
        self.outputs.push((name.to_string(), node));
    }

    /// Evaluates the circuit for the given input assignment; unlisted
    /// inputs default to false.
    pub fn evaluate(&self, assignment: &[(&str, bool)]) -> HashMap<String, bool> {
        let by_name: HashMap<&str, bool> = assignment.iter().copied().collect();
        let mut values = vec![false; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            values[i] = match gate {
                Gate::Input(name) => by_name.get(name.as_str()).copied().unwrap_or(false),
                Gate::Const(v) => *v,
                Gate::Not(a) => !values[a.0],
                Gate::And(a, b) => values[a.0] && values[b.0],
                Gate::Or(a, b) => values[a.0] || values[b.0],
                Gate::Xor(a, b) => values[a.0] ^ values[b.0],
            };
        }
        self.outputs
            .iter()
            .map(|(name, node)| (name.clone(), values[node.0]))
            .collect()
    }

    /// Total primitive gates (excluding inputs/constants).
    pub fn gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !matches!(g, Gate::Input(_) | Gate::Const(_)))
            .count()
    }

    /// NAND2-equivalent count with conventional weights: INV 0.5,
    /// AND2/OR2 1.0, XOR2 2.5.
    pub fn nand2_equivalents(&self) -> f64 {
        self.gates
            .iter()
            .map(|g| match g {
                Gate::Input(_) | Gate::Const(_) => 0.0,
                Gate::Not(_) => 0.5,
                Gate::And(..) | Gate::Or(..) => 1.0,
                Gate::Xor(..) => 2.5,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_basic_gates() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let and = c.and(a, b);
        let or = c.or(a, b);
        let xor = c.xor(a, b);
        let not = c.not(a);
        c.output("and", and);
        c.output("or", or);
        c.output("xor", xor);
        c.output("not", not);
        for (av, bv) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = c.evaluate(&[("a", av), ("b", bv)]);
            assert_eq!(out["and"], av && bv);
            assert_eq!(out["or"], av || bv);
            assert_eq!(out["xor"], av ^ bv);
            assert_eq!(out["not"], !av);
        }
    }

    #[test]
    fn bus_eq_detects_any_difference() {
        let mut c = Circuit::new();
        let a: Vec<Node> = (0..4).map(|i| c.input(&format!("a{i}"))).collect();
        let b: Vec<Node> = (0..4).map(|i| c.input(&format!("b{i}"))).collect();
        let eq = c.bus_eq(&a, &b);
        c.output("eq", eq);
        for v in 0..16u8 {
            for w in 0..16u8 {
                let mut assign = Vec::new();
                let names: Vec<String> = (0..4)
                    .flat_map(|i| [format!("a{i}"), format!("b{i}")])
                    .collect();
                for i in 0..4 {
                    assign.push((names[2 * i].as_str(), v >> i & 1 == 1));
                    assign.push((names[2 * i + 1].as_str(), w >> i & 1 == 1));
                }
                let out = c.evaluate(&assign);
                assert_eq!(out["eq"], v == w, "v={v} w={w}");
            }
        }
    }

    #[test]
    fn and_or_all_handle_degenerate_sizes() {
        let mut c = Circuit::new();
        let t = c.and_all(vec![]);
        let f = c.or_all(vec![]);
        let a = c.input("a");
        let single_and = c.and_all(vec![a]);
        let single_or = c.or_all(vec![a]);
        c.output("t", t);
        c.output("f", f);
        c.output("sa", single_and);
        c.output("so", single_or);
        let out = c.evaluate(&[("a", true)]);
        assert!(out["t"]);
        assert!(!out["f"]);
        assert!(out["sa"] && out["so"]);
    }

    #[test]
    fn gate_counting_uses_nand2_weights() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let x = c.xor(a, b); // 2.5
        let n = c.not(x); // 0.5
        let g = c.and(n, a); // 1.0
        c.output("g", g);
        assert_eq!(c.gate_count(), 3);
        assert!((c.nand2_equivalents() - 4.0).abs() < 1e-12);
        assert_eq!(c.input_index.len(), 2);
    }

    #[test]
    fn inputs_are_deduplicated() {
        let mut c = Circuit::new();
        let a1 = c.input("a");
        let a2 = c.input("a");
        assert_eq!(a1, a2);
        assert_eq!(c.input_index.len(), 1);
    }
}
