//! The fault tree structure and its validating builder.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::cutset::CutSet;
use crate::error::FaultTreeError;
use crate::event::{BasicEvent, EventId};
use crate::gate::{Gate, GateId, GateKind};
use crate::hash::{canonical_form, CanonicalForm};
use crate::probability::Probability;

/// A reference to a node of the fault tree: either a basic event or a gate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeId {
    /// A basic event.
    Event(EventId),
    /// A gate.
    Gate(GateId),
}

// Externally tagged newtype variants, like serde's derive: `{"event": 3}` /
// `{"gate": 1}` (tags lowercased for consistency with the gate kinds).
impl serde::Serialize for NodeId {
    fn to_value(&self) -> serde::Value {
        let (tag, id) = match self {
            NodeId::Event(event) => ("event", serde::Serialize::to_value(event)),
            NodeId::Gate(gate) => ("gate", serde::Serialize::to_value(gate)),
        };
        let mut tagged = serde::Map::new();
        tagged.insert(tag.to_string(), id);
        serde::Value::Object(tagged)
    }
}

impl serde::Deserialize for NodeId {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(event) = value.get("event") {
            Ok(NodeId::Event(serde::Deserialize::from_value(event)?))
        } else if let Some(gate) = value.get("gate") {
            Ok(NodeId::Gate(serde::Deserialize::from_value(gate)?))
        } else {
            Err(serde::Error::custom(format!(
                "invalid node id: expected an object tagged `event` or `gate`, found {}",
                value.kind()
            )))
        }
    }
}

impl From<EventId> for NodeId {
    fn from(id: EventId) -> Self {
        NodeId::Event(id)
    }
}

impl From<GateId> for NodeId {
    fn from(id: GateId) -> Self {
        NodeId::Gate(id)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Event(e) => write!(f, "{e}"),
            NodeId::Gate(g) => write!(f, "{g}"),
        }
    }
}

/// A static fault tree: a DAG of AND/OR/voting gates over basic events, with
/// a designated top event.
///
/// Construct trees with [`FaultTreeBuilder`] or one of the parsers in
/// [`parser`](crate::parser).
///
/// A built tree never changes, so what is derived from it is computed at
/// most once, on first use, and kept on the tree (a clone copies it): the
/// name index behind [`FaultTree::event_by_name`] and
/// [`FaultTree::gate_by_name`], and the [canonical form](FaultTree::canonical).
/// Neither `==` nor `Debug` looks at what is kept.
/// [`FaultTree::at_time`] is the one path that re-prices a copy, and it
/// resets the kept form; any future method that changes a tree in place must
/// reset what it invalidates the same way.
#[derive(Clone)]
pub struct FaultTree {
    name: String,
    events: Vec<BasicEvent>,
    gates: Vec<Gate>,
    top: NodeId,
    /// The name → identifier indices, filled on the first name lookup.
    names: OnceLock<NameIndex>,
    /// The canonical form, filled on the first [`FaultTree::canonical`].
    canonical: OnceLock<CanonicalForm>,
}

/// Name → identifier indices over a tree's events and gates. For duplicate
/// names (possible through [`FaultTree::from_parts`], never through the
/// builder or the parsers) the *first* occurrence wins, matching the linear
/// scan these indices replaced.
#[derive(Clone)]
struct NameIndex {
    events: HashMap<String, EventId>,
    gates: HashMap<String, GateId>,
}

impl NameIndex {
    fn of(tree: &FaultTree) -> Self {
        let mut events = HashMap::with_capacity(tree.events.len());
        for (index, event) in tree.events.iter().enumerate() {
            events
                .entry(event.name().to_string())
                .or_insert_with(|| EventId::from_index(index));
        }
        let mut gates = HashMap::with_capacity(tree.gates.len());
        for (index, gate) in tree.gates.iter().enumerate() {
            gates
                .entry(gate.name().to_string())
                .or_insert_with(|| GateId::from_index(index));
        }
        NameIndex { events, gates }
    }
}

// The name index and the canonical form are derived from the declared
// parts, so equality (and the serialised form below) is defined over those
// parts only.
impl PartialEq for FaultTree {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.events == other.events
            && self.gates == other.gates
            && self.top == other.top
    }
}

// `Debug` leaves the derived parts out too: whether they have been computed
// yet is not a property of the tree.
impl fmt::Debug for FaultTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultTree")
            .field("name", &self.name)
            .field("events", &self.events)
            .field("gates", &self.gates)
            .field("top", &self.top)
            .finish()
    }
}

// Manual serde implementations (the derive-style macro would persist the
// derived name index and the canonical form): the wire format stays
// `{name, events, gates, top}`, and deserialisation goes through
// [`FaultTree::from_parts`], which re-validates the structural invariants.
impl serde::Serialize for FaultTree {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("name".to_string(), serde::Serialize::to_value(&self.name));
        map.insert(
            "events".to_string(),
            serde::Serialize::to_value(&self.events),
        );
        map.insert("gates".to_string(), serde::Serialize::to_value(&self.gates));
        map.insert("top".to_string(), serde::Serialize::to_value(&self.top));
        serde::Value::Object(map)
    }
}

impl serde::Deserialize for FaultTree {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let name: String = serde::de::field(value, "name")?;
        let events: Vec<BasicEvent> = serde::de::field(value, "events")?;
        let gates: Vec<Gate> = serde::de::field(value, "gates")?;
        let top: NodeId = serde::de::field(value, "top")?;
        FaultTree::from_parts(name, events, gates, top)
            .map_err(|e| serde::Error::custom(format!("invalid fault tree: {e}")))
    }
}

impl FaultTree {
    /// The tree name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The basic events, indexed by [`EventId`].
    pub fn events(&self) -> &[BasicEvent] {
        &self.events
    }

    /// The gates, indexed by [`GateId`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The basic event with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this tree.
    pub fn event(&self, id: EventId) -> &BasicEvent {
        &self.events[id.index()]
    }

    /// The gate with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this tree.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The top node.
    pub fn top(&self) -> NodeId {
        self.top
    }

    /// Number of basic events.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Total number of nodes (events + gates).
    pub fn node_count(&self) -> usize {
        self.events.len() + self.gates.len()
    }

    /// Iterates over event identifiers.
    pub fn event_ids(&self) -> impl Iterator<Item = EventId> {
        (0..self.events.len()).map(EventId::from_index)
    }

    /// Iterates over gate identifiers.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.gates.len()).map(GateId::from_index)
    }

    /// Finds a basic event by name: an O(1) hash lookup in an index of every
    /// event and gate name, built on the first `event_by_name` or
    /// [`gate_by_name`](FaultTree::gate_by_name) call on this tree (or on
    /// the tree it was cloned from) and kept on the tree. For a name that
    /// several events share, the first of them.
    pub fn event_by_name(&self, name: &str) -> Option<EventId> {
        self.names().events.get(name).copied()
    }

    /// Finds a gate by name (O(1) hash lookup in the index of
    /// [`event_by_name`](FaultTree::event_by_name)). For a name that several
    /// gates share, the first of them.
    pub fn gate_by_name(&self, name: &str) -> Option<GateId> {
        self.names().gates.get(name).copied()
    }

    fn names(&self) -> &NameIndex {
        self.names.get_or_init(|| NameIndex::of(self))
    }

    /// The tree's canonical form — the content address the analysis cache
    /// keys on, plus the canonical event numbering (see [`CanonicalForm`]).
    ///
    /// Equal to [`canonical_form`]`(self)`, but computed on the first call
    /// only and kept on the tree, so every later call on this tree, or on a
    /// clone made after the first call, is free.
    pub fn canonical(&self) -> &CanonicalForm {
        self.canonical.get_or_init(|| canonical_form(self))
    }

    /// Human-readable name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        match node {
            NodeId::Event(e) => self.event(e).name(),
            NodeId::Gate(g) => self.gate(g).name(),
        }
    }

    /// Evaluates the structure function: does the top event occur when exactly
    /// the events flagged in `occurred` (indexed by [`EventId`]) occur?
    ///
    /// # Panics
    ///
    /// Panics if `occurred` does not cover all basic events.
    pub fn evaluate(&self, occurred: &[bool]) -> bool {
        assert!(
            occurred.len() >= self.events.len(),
            "occurrence vector must cover every basic event"
        );
        self.evaluate_node(self.top, occurred)
    }

    /// Evaluates the sub-function rooted at `node`.
    pub fn evaluate_node(&self, node: NodeId, occurred: &[bool]) -> bool {
        match node {
            NodeId::Event(e) => occurred[e.index()],
            NodeId::Gate(g) => {
                let gate = self.gate(g);
                gate.kind().evaluate(
                    gate.inputs()
                        .iter()
                        .map(|&input| self.evaluate_node(input, occurred)),
                )
            }
        }
    }

    /// Evaluates the structure function for a set of occurring events.
    pub fn evaluate_set(&self, occurring: &CutSet) -> bool {
        let mut occurred = vec![false; self.events.len()];
        for id in occurring.iter() {
            occurred[id.index()] = true;
        }
        self.evaluate(&occurred)
    }

    /// `true` if the given events jointly trigger the top event.
    pub fn is_cut_set(&self, cut: &CutSet) -> bool {
        self.evaluate_set(cut)
    }

    /// `true` if the given events form an inclusion-minimal cut set: they
    /// trigger the top event and no proper subset does.
    ///
    /// Because the structure function is monotone (no negations), it suffices
    /// to check the subsets obtained by removing a single event.
    pub fn is_minimal_cut_set(&self, cut: &CutSet) -> bool {
        if !self.is_cut_set(cut) {
            return false;
        }
        for event in cut.iter() {
            let mut reduced = cut.clone();
            reduced.remove(event);
            if self.is_cut_set(&reduced) {
                return false;
            }
        }
        true
    }

    /// The longest event-to-top path length, counting gates (a single event
    /// as top has depth 0).
    pub fn depth(&self) -> usize {
        fn node_depth(tree: &FaultTree, node: NodeId, memo: &mut HashMap<NodeId, usize>) -> usize {
            if let Some(&d) = memo.get(&node) {
                return d;
            }
            let depth = match node {
                NodeId::Event(_) => 0,
                NodeId::Gate(g) => {
                    1 + tree
                        .gate(g)
                        .inputs()
                        .iter()
                        .map(|&i| node_depth(tree, i, memo))
                        .max()
                        .unwrap_or(0)
                }
            };
            memo.insert(node, depth);
            depth
        }
        node_depth(self, self.top, &mut HashMap::new())
    }

    /// Validates the structural invariants of the tree: node references are in
    /// range, gates have inputs, voting thresholds are consistent, and the
    /// gate graph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), FaultTreeError> {
        let in_range = |node: NodeId| match node {
            NodeId::Event(e) => e.index() < self.events.len(),
            NodeId::Gate(g) => g.index() < self.gates.len(),
        };
        if !in_range(self.top) {
            return Err(FaultTreeError::MissingTop);
        }
        for gate in &self.gates {
            if gate.inputs().is_empty() {
                return Err(FaultTreeError::EmptyGate {
                    gate: gate.name().to_string(),
                });
            }
            if let GateKind::Vot { k } = gate.kind() {
                if k == 0 || k > gate.inputs().len() {
                    return Err(FaultTreeError::InvalidVotingThreshold {
                        gate: gate.name().to_string(),
                        k,
                        n: gate.inputs().len(),
                    });
                }
            }
            for &input in gate.inputs() {
                if !in_range(input) {
                    return Err(FaultTreeError::UnknownNode {
                        name: format!("{input}"),
                    });
                }
            }
        }
        // Cycle detection over the gate graph (events cannot have successors).
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        fn visit(
            tree: &FaultTree,
            gate: GateId,
            colours: &mut [Colour],
        ) -> Result<(), FaultTreeError> {
            match colours[gate.index()] {
                Colour::Black => return Ok(()),
                Colour::Grey => {
                    return Err(FaultTreeError::CyclicStructure {
                        node: tree.gate(gate).name().to_string(),
                    })
                }
                Colour::White => {}
            }
            colours[gate.index()] = Colour::Grey;
            for &input in tree.gate(gate).inputs() {
                if let NodeId::Gate(g) = input {
                    visit(tree, g, colours)?;
                }
            }
            colours[gate.index()] = Colour::Black;
            Ok(())
        }
        let mut colours = vec![Colour::White; self.gates.len()];
        for idx in 0..self.gates.len() {
            visit(self, GateId::from_index(idx), &mut colours)?;
        }
        Ok(())
    }

    /// `true` when any event carries a time-dependent
    /// [`FailureModel`](crate::event::FailureModel)
    /// (other than an explicitly pinned fixed probability), i.e. when
    /// [`FaultTree::at_time`] can produce different trees for different
    /// mission times.
    pub fn has_time_dependence(&self) -> bool {
        self.events.iter().any(|event| {
            matches!(
                event.model(),
                Some(crate::event::FailureModel::Exponential { .. })
                    | Some(crate::event::FailureModel::Repairable { .. })
            )
        })
    }

    /// The tree evaluated at mission time `t`: structurally identical (same
    /// events, gates, identifiers and models), with every event's probability
    /// replaced by [`BasicEvent::probability_at`]`(t)`. Time-invariant events
    /// keep their stored probability, so a model-free tree is returned
    /// unchanged at every `t`.
    ///
    /// This is the single definition of "the tree at time `t`" shared by the
    /// point queries and the incremental sweep paths, so sweep curves are
    /// bit-identical to per-point re-analyses.
    ///
    /// # Panics
    ///
    /// Panics when `t` is negative or not finite and an event has a model
    /// (see [`FailureModel`](crate::event::FailureModel)).
    pub fn at_time(&self, t: f64) -> FaultTree {
        let mut tree = self.clone();
        // New probabilities, new weighted digest: the clone must not keep
        // this tree's canonical form.
        tree.canonical = OnceLock::new();
        for event in &mut tree.events {
            let p = event.probability_at(t);
            event.set_probability(p);
        }
        tree
    }

    /// Creates a tree directly from parts, validating the result.
    ///
    /// This is the low-level constructor used by the parsers; prefer
    /// [`FaultTreeBuilder`] in application code.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural invariant.
    pub fn from_parts(
        name: impl Into<String>,
        events: Vec<BasicEvent>,
        gates: Vec<Gate>,
        top: NodeId,
    ) -> Result<Self, FaultTreeError> {
        let tree = FaultTree {
            name: name.into(),
            events,
            gates,
            top,
            names: OnceLock::new(),
            canonical: OnceLock::new(),
        };
        tree.validate()?;
        Ok(tree)
    }
}

/// An incremental, validating fault-tree builder.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Clone, Debug, Default)]
pub struct FaultTreeBuilder {
    name: String,
    events: Vec<BasicEvent>,
    gates: Vec<Gate>,
    names: HashMap<String, NodeId>,
}

impl FaultTreeBuilder {
    /// Starts building a tree with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        FaultTreeBuilder {
            name: name.into(),
            ..FaultTreeBuilder::default()
        }
    }

    /// Adds a basic event with the given occurrence probability.
    ///
    /// # Errors
    ///
    /// Fails if the probability is invalid or the name is already used.
    pub fn basic_event(
        &mut self,
        name: impl Into<String>,
        probability: f64,
    ) -> Result<EventId, FaultTreeError> {
        self.basic_event_with(name, Probability::new(probability)?)
    }

    /// Adds a basic event with an already-validated probability.
    ///
    /// # Errors
    ///
    /// Fails if the name is already used.
    pub fn basic_event_with(
        &mut self,
        name: impl Into<String>,
        probability: Probability,
    ) -> Result<EventId, FaultTreeError> {
        let name = name.into();
        self.check_fresh_name(&name)?;
        let id = EventId::from_index(self.events.len());
        self.names.insert(name.clone(), NodeId::Event(id));
        self.events.push(BasicEvent::new(name, probability));
        Ok(id)
    }

    /// Adds a basic event whose probability follows a time-dependent
    /// failure law; the stored base probability is the law evaluated at
    /// [`crate::DEFAULT_MISSION_TIME`].
    ///
    /// # Errors
    ///
    /// Fails if the name is already used.
    pub fn modelled_event(
        &mut self,
        name: impl Into<String>,
        model: crate::event::FailureModel,
    ) -> Result<EventId, FaultTreeError> {
        let name = name.into();
        self.check_fresh_name(&name)?;
        let id = EventId::from_index(self.events.len());
        self.names.insert(name.clone(), NodeId::Event(id));
        self.events.push(BasicEvent::with_model(name, model));
        Ok(id)
    }

    /// Adds a gate combining previously created nodes.
    ///
    /// # Errors
    ///
    /// Fails if the name is already used, the input list is empty, an input
    /// does not belong to this builder, or a voting threshold is inconsistent.
    pub fn gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<GateId, FaultTreeError> {
        let name = name.into();
        self.check_fresh_name(&name)?;
        let inputs: Vec<NodeId> = inputs.into_iter().collect();
        if inputs.is_empty() {
            return Err(FaultTreeError::EmptyGate { gate: name });
        }
        for &input in &inputs {
            let known = match input {
                NodeId::Event(e) => e.index() < self.events.len(),
                NodeId::Gate(g) => g.index() < self.gates.len(),
            };
            if !known {
                return Err(FaultTreeError::UnknownNode {
                    name: format!("{input}"),
                });
            }
        }
        if let GateKind::Vot { k } = kind {
            if k == 0 || k > inputs.len() {
                return Err(FaultTreeError::InvalidVotingThreshold {
                    gate: name,
                    k,
                    n: inputs.len(),
                });
            }
        }
        let id = GateId::from_index(self.gates.len());
        self.names.insert(name.clone(), NodeId::Gate(id));
        self.gates.push(Gate::new(name, kind, inputs));
        Ok(id)
    }

    /// Convenience: an AND gate.
    pub fn and_gate(
        &mut self,
        name: impl Into<String>,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<GateId, FaultTreeError> {
        self.gate(name, GateKind::And, inputs)
    }

    /// Convenience: an OR gate.
    pub fn or_gate(
        &mut self,
        name: impl Into<String>,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<GateId, FaultTreeError> {
        self.gate(name, GateKind::Or, inputs)
    }

    /// Convenience: a `k`-out-of-`n` voting gate.
    pub fn voting_gate(
        &mut self,
        name: impl Into<String>,
        k: usize,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<GateId, FaultTreeError> {
        self.gate(name, GateKind::Vot { k }, inputs)
    }

    /// Looks up a previously declared node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Number of events declared so far.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of gates declared so far.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Finalises the tree with the given top node.
    ///
    /// # Errors
    ///
    /// Fails if the top node is unknown or a structural invariant is violated.
    pub fn build(self, top: NodeId) -> Result<FaultTree, FaultTreeError> {
        FaultTree::from_parts(self.name, self.events, self.gates, top)
    }

    fn check_fresh_name(&self, name: &str) -> Result<(), FaultTreeError> {
        if self.names.contains_key(name) {
            Err(FaultTreeError::DuplicateName {
                name: name.to_string(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::fire_protection_system;

    fn simple_tree() -> FaultTree {
        let mut b = FaultTreeBuilder::new("simple");
        let a = b.basic_event("a", 0.1).unwrap();
        let c = b.basic_event("c", 0.2).unwrap();
        let d = b.basic_event("d", 0.3).unwrap();
        let g1 = b.and_gate("g1", [a.into(), c.into()]).unwrap();
        let top = b.or_gate("top", [g1.into(), d.into()]).unwrap();
        b.build(top.into()).unwrap()
    }

    #[test]
    fn builder_produces_a_valid_tree() {
        let tree = simple_tree();
        assert_eq!(tree.num_events(), 3);
        assert_eq!(tree.num_gates(), 2);
        assert_eq!(tree.node_count(), 5);
        assert_eq!(tree.depth(), 2);
        assert!(tree.validate().is_ok());
        assert_eq!(tree.name(), "simple");
        assert_eq!(tree.event_by_name("a"), Some(EventId::from_index(0)));
        assert_eq!(tree.gate_by_name("top"), Some(GateId::from_index(1)));
        assert_eq!(tree.node_name(tree.top()), "top");
    }

    #[test]
    fn structure_function_evaluation() {
        let tree = simple_tree();
        // d alone triggers the top (OR input).
        assert!(tree.evaluate(&[false, false, true]));
        // a alone does not (AND needs both).
        assert!(!tree.evaluate(&[true, false, false]));
        // a and c together do.
        assert!(tree.evaluate(&[true, true, false]));
        assert!(!tree.evaluate(&[false, false, false]));
    }

    #[test]
    fn cut_set_checks_on_the_paper_example() {
        let tree = fire_protection_system();
        let x1 = tree.event_by_name("x1").unwrap();
        let x2 = tree.event_by_name("x2").unwrap();
        let x3 = tree.event_by_name("x3").unwrap();
        let x5 = tree.event_by_name("x5").unwrap();
        let x6 = tree.event_by_name("x6").unwrap();

        assert!(tree.is_minimal_cut_set(&CutSet::from_iter([x1, x2])));
        assert!(tree.is_minimal_cut_set(&CutSet::from_iter([x3])));
        assert!(tree.is_minimal_cut_set(&CutSet::from_iter([x5, x6])));
        // {x1} is not a cut set; {x1, x2, x3} is a cut set but not minimal.
        assert!(!tree.is_cut_set(&CutSet::from_iter([x1])));
        assert!(tree.is_cut_set(&CutSet::from_iter([x1, x2, x3])));
        assert!(!tree.is_minimal_cut_set(&CutSet::from_iter([x1, x2, x3])));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = FaultTreeBuilder::new("dup");
        b.basic_event("x", 0.5).unwrap();
        assert!(matches!(
            b.basic_event("x", 0.1),
            Err(FaultTreeError::DuplicateName { .. })
        ));
        assert!(matches!(
            b.gate("x", GateKind::Or, [NodeId::Event(EventId::from_index(0))]),
            Err(FaultTreeError::DuplicateName { .. })
        ));
    }

    #[test]
    fn invalid_gates_are_rejected() {
        let mut b = FaultTreeBuilder::new("bad");
        let e = b.basic_event("e", 0.5).unwrap();
        assert!(matches!(
            b.gate("empty", GateKind::Or, Vec::<NodeId>::new()),
            Err(FaultTreeError::EmptyGate { .. })
        ));
        assert!(matches!(
            b.voting_gate("vot", 3, [e.into()]),
            Err(FaultTreeError::InvalidVotingThreshold { .. })
        ));
        assert!(matches!(
            b.gate(
                "dangling",
                GateKind::Or,
                [NodeId::Gate(GateId::from_index(7))]
            ),
            Err(FaultTreeError::UnknownNode { .. })
        ));
        assert!(matches!(
            b.basic_event("p", 2.0),
            Err(FaultTreeError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn cyclic_structures_are_detected_by_validate() {
        // Bypass the builder to construct a cyclic gate graph.
        let events = vec![BasicEvent::new("e", Probability::new(0.1).unwrap())];
        let gates = vec![
            Gate::new(
                "g0",
                GateKind::Or,
                vec![NodeId::Gate(GateId::from_index(1))],
            ),
            Gate::new(
                "g1",
                GateKind::Or,
                vec![NodeId::Gate(GateId::from_index(0))],
            ),
        ];
        let result =
            FaultTree::from_parts("cyclic", events, gates, NodeId::Gate(GateId::from_index(0)));
        assert!(matches!(
            result,
            Err(FaultTreeError::CyclicStructure { .. })
        ));
    }

    #[test]
    fn missing_top_is_detected() {
        let result = FaultTree::from_parts(
            "empty",
            vec![],
            vec![],
            NodeId::Event(EventId::from_index(0)),
        );
        assert!(matches!(result, Err(FaultTreeError::MissingTop)));
    }

    #[test]
    fn shared_events_make_a_dag_not_a_tree() {
        // The same event feeds two gates; depth and evaluation must still work.
        let mut b = FaultTreeBuilder::new("dag");
        let shared = b.basic_event("shared", 0.1).unwrap();
        let other = b.basic_event("other", 0.2).unwrap();
        let g1 = b.and_gate("g1", [shared.into(), other.into()]).unwrap();
        let g2 = b.or_gate("g2", [shared.into(), g1.into()]).unwrap();
        let tree = b.build(g2.into()).unwrap();
        assert_eq!(tree.depth(), 2);
        assert!(tree.evaluate(&[true, false]));
        assert!(!tree.evaluate(&[false, true]));
    }

    #[test]
    fn voting_gate_tree_evaluates_correctly() {
        let mut b = FaultTreeBuilder::new("vote");
        let e: Vec<EventId> = (0..4)
            .map(|i| b.basic_event(format!("e{i}"), 0.1).unwrap())
            .collect();
        let top = b
            .voting_gate("top", 3, e.iter().map(|&id| NodeId::from(id)))
            .unwrap();
        let tree = b.build(top.into()).unwrap();
        assert!(!tree.evaluate(&[true, true, false, false]));
        assert!(tree.evaluate(&[true, true, true, false]));
        assert!(tree.evaluate(&[true, true, true, true]));
    }

    #[test]
    fn name_lookups_keep_the_first_of_duplicate_names() {
        // `from_parts` does not forbid duplicate names (only the builder
        // does); the hash indices must then answer like the linear scan they
        // replaced: first declaration wins.
        let events = vec![
            BasicEvent::new("dup", Probability::new(0.1).unwrap()),
            BasicEvent::new("dup", Probability::new(0.2).unwrap()),
        ];
        let gates = vec![Gate::new(
            "top",
            GateKind::Or,
            vec![
                NodeId::Event(EventId::from_index(0)),
                NodeId::Event(EventId::from_index(1)),
            ],
        )];
        let tree =
            FaultTree::from_parts("dups", events, gates, NodeId::Gate(GateId::from_index(0)))
                .unwrap();
        // Copies made before the first lookup build their own index; copies
        // made after it keep the built one. Both answer alike.
        let unprimed = [tree.clone(), tree.at_time(3.0)];
        let debug = format!("{tree:?}");
        let check = |tree: &FaultTree| {
            assert_eq!(tree.event_by_name("dup"), Some(EventId::from_index(0)));
            assert_eq!(tree.event_by_name("missing"), None);
            assert_eq!(tree.event_by_name("top"), None);
            assert_eq!(tree.gate_by_name("top"), Some(GateId::from_index(0)));
            assert_eq!(tree.gate_by_name("dup"), None);
        };
        check(&tree);
        assert_eq!(format!("{tree:?}"), debug, "Debug omits the name index");
        for copy in unprimed.iter().chain([&tree.clone(), &tree.at_time(3.0)]) {
            check(copy);
        }
    }

    #[test]
    fn deserialisation_validates_the_tree() {
        // The manual serde impl routes through `from_parts`, so structurally
        // invalid documents are rejected instead of producing a broken tree.
        let cyclic = r#"{
            "name": "cyclic",
            "events": [],
            "gates": [
                { "name": "g0", "kind": "or", "inputs": [{ "gate": 1 }] },
                { "name": "g1", "kind": "or", "inputs": [{ "gate": 0 }] }
            ],
            "top": { "gate": 0 }
        }"#;
        assert!(serde_json::from_str::<FaultTree>(cyclic).is_err());
    }

    #[test]
    fn serde_round_trip_preserves_the_tree() {
        let tree = fire_protection_system();
        let json = serde_json::to_string(&tree).unwrap();
        let back: FaultTree = serde_json::from_str(&json).unwrap();
        assert_eq!(tree, back);
    }

    #[test]
    fn at_time_requantifies_modelled_events_only() {
        use crate::event::FailureModel;

        let mut events = vec![
            BasicEvent::with_model("pump", FailureModel::exponential(0.5).unwrap()),
            BasicEvent::new("valve", Probability::new(0.25).unwrap()),
        ];
        events[1].set_model(Some(FailureModel::Fixed(Probability::new(0.25).unwrap())));
        let gates = vec![Gate::new(
            "top",
            GateKind::Or,
            vec![
                NodeId::Event(EventId::from_index(0)),
                NodeId::Event(EventId::from_index(1)),
            ],
        )];
        let tree =
            FaultTree::from_parts("timed", events, gates, NodeId::Gate(GateId::from_index(0)))
                .unwrap();
        assert!(tree.has_time_dependence());

        let at2 = tree.at_time(2.0);
        assert_eq!(at2.num_events(), 2);
        assert_eq!(
            at2.event(EventId::from_index(0)).probability().value(),
            1.0 - (-1.0f64).exp()
        );
        // Fixed-model and model-free events are invariant.
        assert_eq!(
            at2.event(EventId::from_index(1)).probability().value(),
            0.25
        );
        // Models survive, so `at_time` composes.
        assert!(at2.has_time_dependence());
        assert_eq!(
            at2.at_time(0.0).event(EventId::from_index(0)).probability(),
            Probability::ZERO
        );

        let plain = simple_tree();
        assert!(!plain.has_time_dependence());
        assert_eq!(plain.at_time(7.0), plain);
    }

    fn assert_same_form(label: &str, kept: &CanonicalForm, fresh: &CanonicalForm) {
        assert_eq!(kept.hash, fresh.hash, "{label}: hash");
        assert_eq!(kept.event_order, fresh.event_order, "{label}: event order");
        assert_eq!(kept.event_rank, fresh.event_rank, "{label}: event rank");
    }

    #[test]
    fn the_kept_canonical_form_equals_a_fresh_one_on_every_example() {
        for (name, tree) in crate::examples::all_examples() {
            assert_same_form(name, tree.canonical(), &canonical_form(&tree));
        }
    }

    #[test]
    fn at_time_never_keeps_a_stale_canonical_form() {
        use crate::event::FailureModel;

        let mut b = FaultTreeBuilder::new("laws");
        let pump = b
            .modelled_event("pump", FailureModel::exponential(0.5).unwrap())
            .unwrap();
        let valve = b
            .modelled_event("valve", FailureModel::exponential(0.1).unwrap())
            .unwrap();
        let top = b.and_gate("top", [pump.into(), valve.into()]).unwrap();
        let tree = b.build(top.into()).unwrap();
        let primed = tree.canonical().hash;
        let later = tree.at_time(2.0);
        assert_same_form("t=2", later.canonical(), &canonical_form(&later));
        assert_ne!(
            later.canonical().hash.weighted,
            primed.weighted,
            "re-priced events must change the weighted digest"
        );
        assert_eq!(later.canonical().hash.structure, primed.structure);
    }

    #[test]
    fn the_canonical_form_is_computed_once_and_is_not_part_of_the_tree() {
        let tree = fire_protection_system();
        let unprimed = tree.clone();
        let json = crate::parser::json::to_json_string(&tree);
        let debug = format!("{tree:?}");
        let form = tree.canonical();
        assert!(std::ptr::eq(form, tree.canonical()), "one form per tree");
        assert_eq!(tree, unprimed);
        assert_eq!(crate::parser::json::to_json_string(&tree), json);
        assert_eq!(format!("{tree:?}"), debug);
        assert_same_form("clone", tree.clone().canonical(), form);
    }

    #[test]
    fn single_event_tree_is_valid() {
        let mut b = FaultTreeBuilder::new("single");
        let e = b.basic_event("only", 0.4).unwrap();
        let tree = b.build(e.into()).unwrap();
        assert_eq!(tree.depth(), 0);
        assert!(tree.evaluate(&[true]));
        assert!(!tree.evaluate(&[false]));
        assert!(tree.is_minimal_cut_set(&CutSet::from_iter([e])));
    }
}
