//! JSON fault-tree format, mirroring the input format of the original
//! MPMCS4FTA tool.
//!
//! ```json
//! {
//!   "name": "fire protection system",
//!   "top": "top",
//!   "events": [
//!     { "name": "x1", "probability": 0.2, "description": "sensor 1 fails" }
//!   ],
//!   "gates": [
//!     { "name": "detection", "kind": "and", "inputs": ["x1", "x2"] },
//!     { "name": "quorum", "kind": "vot", "k": 2, "inputs": ["a", "b", "c"] }
//!   ]
//! }
//! ```

use crate::error::FaultTreeError;
use crate::event::FailureModel;
use crate::gate::GateKind;
use crate::tree::{FaultTree, NodeId};

use super::galileo::{build_tree, RawEvent, RawNodes};

/// A JSON-serialisable fault-tree document.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultTreeDocument {
    /// Name of the fault tree.
    pub name: String,
    /// Name of the top node (gate or event).
    pub top: String,
    /// Basic event declarations.
    pub events: Vec<EventDocument>,
    /// Gate declarations.
    pub gates: Vec<GateDocument>,
}

serde::impl_serde_struct!(FaultTreeDocument {
    name,
    top,
    events,
    gates
});

/// A basic event declaration inside a [`FaultTreeDocument`].
///
/// An event is given either an explicit `probability`, a failure rate
/// `lambda` (exponential law, optionally with a repair rate `mu` for the
/// repairable unavailability law), or both — in which case the probability
/// is the stored base value and the rates define the mission-time law.
#[derive(Clone, Debug, PartialEq)]
pub struct EventDocument {
    /// Event name (must be unique across events and gates).
    pub name: String,
    /// Probability of occurrence in `[0, 1]`. When absent, derived from the
    /// failure law at the default mission time.
    pub probability: Option<f64>,
    /// Failure rate `λ ≥ 0` of the exponential law `p(t) = 1 − exp(−λt)`.
    pub lambda: Option<f64>,
    /// Repair rate `μ ≥ 0`; together with `lambda` selects the repairable
    /// unavailability law `λ/(λ+μ)·(1 − exp(−(λ+μ)t))`.
    pub mu: Option<f64>,
    /// Optional free-form description.
    pub description: Option<String>,
}

serde::impl_serde_struct!(EventDocument { name } optional { probability, lambda, mu, description });

/// A gate declaration inside a [`FaultTreeDocument`].
#[derive(Clone, Debug, PartialEq)]
pub struct GateDocument {
    /// Gate name (must be unique across events and gates).
    pub name: String,
    /// Gate kind: `"and"`, `"or"`, or `"vot"`.
    pub kind: String,
    /// Voting threshold, required when `kind == "vot"`.
    pub k: Option<usize>,
    /// Names of the input nodes.
    pub inputs: Vec<String>,
}

serde::impl_serde_struct!(GateDocument { name, kind, inputs } optional { k });

impl FaultTreeDocument {
    /// Converts the document into a validated [`FaultTree`].
    ///
    /// # Errors
    ///
    /// Returns structural errors (duplicate names, unknown nodes, invalid
    /// probabilities or thresholds, cycles) and [`FaultTreeError::Parse`] for
    /// unknown gate kinds.
    pub fn into_tree(self) -> Result<FaultTree, FaultTreeError> {
        let mut nodes = RawNodes::default();
        for event in &self.events {
            nodes.check_fresh(&event.name)?;
            let model = match (event.lambda, event.mu) {
                (Some(lambda), Some(mu)) => Some(FailureModel::repairable(lambda, mu)?),
                (Some(lambda), None) => Some(FailureModel::exponential(lambda)?),
                (None, Some(_)) => {
                    return Err(FaultTreeError::Parse {
                        line: 0,
                        message: format!(
                            "event {:?} declares a repair rate \"mu\" without a failure rate \"lambda\"",
                            event.name
                        ),
                    })
                }
                (None, None) => None,
            };
            if event.probability.is_none() && model.is_none() {
                return Err(FaultTreeError::Parse {
                    line: 0,
                    message: format!(
                        "event {:?} needs a \"probability\" or a failure rate \"lambda\"",
                        event.name
                    ),
                });
            }
            nodes.declare_event(RawEvent {
                name: &event.name,
                probability: event.probability,
                model,
                description: event.description.as_deref(),
            });
        }
        for gate in &self.gates {
            nodes.check_fresh(&gate.name)?;
            let kind = match gate.kind.to_ascii_lowercase().as_str() {
                "and" => GateKind::And,
                "or" => GateKind::Or,
                "vot" | "voting" | "kofn" => GateKind::Vot {
                    k: gate.k.ok_or_else(|| FaultTreeError::Parse {
                        line: 0,
                        message: format!("voting gate {:?} needs a \"k\" field", gate.name),
                    })?,
                },
                other => {
                    return Err(FaultTreeError::Parse {
                        line: 0,
                        message: format!("unknown gate kind {other:?}"),
                    })
                }
            };
            nodes.declare_gate(&gate.name, kind, gate.inputs.iter().map(String::as_str));
        }
        build_tree(&self.name, &self.top, &nodes)
    }

    /// Builds a document from a fault tree.
    pub fn from_tree(tree: &FaultTree) -> Self {
        FaultTreeDocument {
            name: tree.name().to_string(),
            top: tree.node_name(tree.top()).to_string(),
            events: tree
                .events()
                .iter()
                .map(|e| {
                    let (lambda, mu) = match e.model() {
                        Some(FailureModel::Exponential { lambda }) => (Some(*lambda), None),
                        Some(FailureModel::Repairable { lambda, mu }) => (Some(*lambda), Some(*mu)),
                        _ => (None, None),
                    };
                    EventDocument {
                        name: e.name().to_string(),
                        probability: Some(e.probability().value()),
                        lambda,
                        mu,
                        description: e.description().map(str::to_string),
                    }
                })
                .collect(),
            gates: tree
                .gates()
                .iter()
                .map(|g| GateDocument {
                    name: g.name().to_string(),
                    kind: g.kind().name().to_string(),
                    k: match g.kind() {
                        GateKind::Vot { k } => Some(k),
                        _ => None,
                    },
                    inputs: g
                        .inputs()
                        .iter()
                        .map(|&i: &NodeId| tree.node_name(i).to_string())
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Parses a fault tree from a JSON string.
///
/// # Errors
///
/// Returns [`FaultTreeError::Parse`] for malformed JSON and structural errors
/// for semantically invalid trees.
pub fn from_json_str(input: &str) -> Result<FaultTree, FaultTreeError> {
    let document: FaultTreeDocument =
        serde_json::from_str(input).map_err(|e| FaultTreeError::Parse {
            line: e.line(),
            message: e.to_string(),
        })?;
    document.into_tree()
}

/// Renders a fault tree as a pretty-printed JSON string.
pub fn to_json_string(tree: &FaultTree) -> String {
    serde_json::to_string_pretty(&FaultTreeDocument::from_tree(tree))
        .expect("fault tree documents always serialise")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{fire_protection_system, redundant_sensor_network};

    #[test]
    fn json_round_trip_preserves_structure_and_probabilities() {
        for tree in [fire_protection_system(), redundant_sensor_network()] {
            let json = to_json_string(&tree);
            let parsed = from_json_str(&json).expect("round trip");
            assert_eq!(parsed.num_events(), tree.num_events());
            assert_eq!(parsed.num_gates(), tree.num_gates());
            for id in tree.event_ids() {
                let name = tree.event(id).name();
                let other = parsed.event_by_name(name).expect("event preserved");
                assert_eq!(
                    parsed.event(other).probability().value(),
                    tree.event(id).probability().value()
                );
            }
            let n = tree.num_events();
            for mask in 0..(1u32 << n) {
                let occurred: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
                let mut remapped = vec![false; n];
                for id in tree.event_ids() {
                    let other = parsed.event_by_name(tree.event(id).name()).unwrap();
                    remapped[other.index()] = occurred[id.index()];
                }
                assert_eq!(parsed.evaluate(&remapped), tree.evaluate(&occurred));
            }
        }
    }

    #[test]
    fn parses_a_handwritten_document() {
        let json = r#"{
            "name": "demo",
            "top": "g",
            "events": [
                { "name": "a", "probability": 0.5 },
                { "name": "b", "probability": 0.25, "description": "backup fails" }
            ],
            "gates": [
                { "name": "g", "kind": "and", "inputs": ["a", "b"] }
            ]
        }"#;
        let tree = from_json_str(json).expect("valid document");
        assert_eq!(tree.num_events(), 2);
        assert_eq!(tree.num_gates(), 1);
        let b = tree.event_by_name("b").unwrap();
        assert_eq!(tree.event(b).description(), Some("backup fails"));
        assert!(tree.evaluate(&[true, true]));
        assert!(!tree.evaluate(&[true, false]));
    }

    #[test]
    fn parses_rate_parameterised_events() {
        let json = r#"{
            "name": "demo",
            "top": "g",
            "events": [
                { "name": "a", "lambda": 0.5 },
                { "name": "b", "lambda": 0.1, "mu": 0.9, "description": "repairable pump" }
            ],
            "gates": [
                { "name": "g", "kind": "or", "inputs": ["a", "b"] }
            ]
        }"#;
        let tree = from_json_str(json).expect("valid document");
        let a = tree.event_by_name("a").unwrap();
        let b = tree.event_by_name("b").unwrap();
        let exponential = crate::FailureModel::exponential(0.5).unwrap();
        let repairable = crate::FailureModel::repairable(0.1, 0.9).unwrap();
        assert_eq!(tree.event(a).model(), Some(&exponential));
        assert_eq!(tree.event(b).model(), Some(&repairable));
        assert_eq!(tree.event(b).description(), Some("repairable pump"));
        assert_eq!(
            tree.event(a).probability().value(),
            exponential.base_probability().value()
        );
        assert_eq!(
            tree.event(b).probability().value(),
            repairable.base_probability().value()
        );
        // The exported document carries both the base probability and the
        // rates, and re-importing reproduces the tree exactly.
        let reparsed = from_json_str(&to_json_string(&tree)).expect("round trip");
        assert_eq!(reparsed, tree);
    }

    #[test]
    fn rate_documents_are_validated() {
        let mu_without_lambda = r#"{
            "name": "demo", "top": "a",
            "events": [ { "name": "a", "mu": 0.5 } ],
            "gates": []
        }"#;
        assert!(matches!(
            from_json_str(mu_without_lambda),
            Err(FaultTreeError::Parse { .. })
        ));
        let no_probability_or_rate = r#"{
            "name": "demo", "top": "a",
            "events": [ { "name": "a" } ],
            "gates": []
        }"#;
        assert!(matches!(
            from_json_str(no_probability_or_rate),
            Err(FaultTreeError::Parse { .. })
        ));
        let negative_rate = r#"{
            "name": "demo", "top": "a",
            "events": [ { "name": "a", "lambda": -0.5 } ],
            "gates": []
        }"#;
        assert!(matches!(
            from_json_str(negative_rate),
            Err(FaultTreeError::InvalidRate { .. })
        ));
    }

    #[test]
    fn voting_gates_need_a_threshold() {
        let json = r#"{
            "name": "demo", "top": "g",
            "events": [ { "name": "a", "probability": 0.5 }, { "name": "b", "probability": 0.5 } ],
            "gates": [ { "name": "g", "kind": "vot", "inputs": ["a", "b"] } ]
        }"#;
        assert!(matches!(
            from_json_str(json),
            Err(FaultTreeError::Parse { .. })
        ));
    }

    #[test]
    fn unknown_gate_kinds_and_bad_json_are_rejected() {
        let json = r#"{
            "name": "demo", "top": "g",
            "events": [ { "name": "a", "probability": 0.5 } ],
            "gates": [ { "name": "g", "kind": "xor", "inputs": ["a"] } ]
        }"#;
        assert!(matches!(
            from_json_str(json),
            Err(FaultTreeError::Parse { .. })
        ));
        assert!(matches!(
            from_json_str("{ not json"),
            Err(FaultTreeError::Parse { .. })
        ));
    }

    #[test]
    fn duplicate_names_across_events_and_gates_are_rejected() {
        let json = r#"{
            "name": "demo", "top": "a",
            "events": [ { "name": "a", "probability": 0.5 } ],
            "gates": [ { "name": "a", "kind": "or", "inputs": ["a"] } ]
        }"#;
        assert!(matches!(
            from_json_str(json),
            Err(FaultTreeError::DuplicateName { .. })
        ));
    }
}
