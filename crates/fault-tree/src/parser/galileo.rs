//! The Galileo textual fault-tree format (static subset).
//!
//! Example:
//!
//! ```text
//! toplevel "System";
//! "System" or "Detection" "Suppression";
//! "Detection" and "x1" "x2";
//! "Quorum" 2of3 "a" "b" "c";
//! "x1" prob=0.2;
//! "x2" prob=0.1;
//! ```
//!
//! Lines end with `;`; names may be double-quoted or bare; `//` starts a
//! comment; keywords (`toplevel`, `and`, `or`, `kofn`, `prob=`, `lambda=`,
//! `mu=`) match ignoring ASCII case. Only the static subset (AND, OR,
//! `k of n`, `prob=`) is supported — dynamic gates (SPARE, FDEP, PAND) are
//! out of scope for this reproduction.
//!
//! Basic events may alternatively be rate-parameterised: `"x" lambda=0.1;`
//! declares an exponential failure law `p(t) = 1 − exp(−λt)` and `"x"
//! lambda=0.1 mu=0.9;` a repairable unavailability law (Fault Tree Handbook
//! semantics). The stored base probability of such events is the law at the
//! default mission time ([`crate::DEFAULT_MISSION_TIME`]); mission-time
//! sweeps re-evaluate it per timepoint.

use std::collections::HashMap;
use std::ops::Range;

use crate::error::FaultTreeError;
use crate::event::{BasicEvent, EventId, FailureModel};
use crate::gate::{Gate, GateId, GateKind};
use crate::probability::Probability;
use crate::tree::{FaultTree, NodeId};

/// The nodes a parser declared, in declaration order, with their names
/// borrowed from the parser's input (shared with the JSON parser).
///
/// Events and gates are numbered separately in declaration order, so a
/// declaration fixes its node's identifier at once, and one map resolves
/// every name, forward references included, once all nodes are declared.
#[derive(Default)]
pub(crate) struct RawNodes<'a> {
    ids: HashMap<&'a str, NodeId>,
    events: Vec<RawEvent<'a>>,
    gates: Vec<RawGate<'a>>,
    /// The input names of every gate, each gate's as one range.
    inputs: Vec<&'a str>,
}

/// A declared basic event. Its probability is checked when the tree is
/// built, once every declaration has been read.
pub(crate) struct RawEvent<'a> {
    /// The event name.
    pub(crate) name: &'a str,
    /// Explicit probability of occurrence, when given. When absent, the base
    /// probability is derived from the model.
    pub(crate) probability: Option<f64>,
    /// Time-dependent failure law, when given.
    pub(crate) model: Option<FailureModel>,
    /// Free-form description, when given.
    pub(crate) description: Option<&'a str>,
}

struct RawGate<'a> {
    name: &'a str,
    kind: GateKind,
    inputs: Range<usize>,
}

impl<'a> RawNodes<'a> {
    /// Fails with [`FaultTreeError::DuplicateName`] when `name` is declared.
    pub(crate) fn check_fresh(&self, name: &str) -> Result<(), FaultTreeError> {
        if self.ids.contains_key(name) {
            Err(FaultTreeError::DuplicateName {
                name: name.to_string(),
            })
        } else {
            Ok(())
        }
    }

    /// Declares a basic event under a name that [`RawNodes::check_fresh`]
    /// accepted.
    pub(crate) fn declare_event(&mut self, event: RawEvent<'a>) {
        let id = EventId::from_index(self.events.len());
        self.ids.insert(event.name, NodeId::Event(id));
        self.events.push(event);
    }

    /// Declares a gate under a name that [`RawNodes::check_fresh`] accepted.
    pub(crate) fn declare_gate(
        &mut self,
        name: &'a str,
        kind: GateKind,
        inputs: impl IntoIterator<Item = &'a str>,
    ) {
        let id = GateId::from_index(self.gates.len());
        self.ids.insert(name, NodeId::Gate(id));
        let start = self.inputs.len();
        self.inputs.extend(inputs);
        self.gates.push(RawGate {
            name,
            kind,
            inputs: start..self.inputs.len(),
        });
    }
}

fn parse_error(line: usize, message: impl Into<String>) -> FaultTreeError {
    FaultTreeError::Parse {
        line,
        message: message.into(),
    }
}

/// Splits a line into tokens borrowed from it: a double-quoted name runs to
/// the next quote (or to the end of the line), a bare token to the next
/// whitespace or quote.
fn tokenize<'a>(line: &'a str, tokens: &mut Vec<&'a str>) {
    tokens.clear();
    let mut rest = line.trim_start();
    while !rest.is_empty() {
        if let Some(quoted) = rest.strip_prefix('"') {
            match quoted.find('"') {
                Some(end) => {
                    tokens.push(&quoted[..end]);
                    rest = &quoted[end + 1..];
                }
                None => {
                    tokens.push(quoted);
                    rest = "";
                }
            }
        } else {
            let end = rest
                .find(|c: char| c.is_whitespace() || c == '"')
                .unwrap_or(rest.len());
            tokens.push(&rest[..end]);
            rest = &rest[end..];
        }
        rest = rest.trim_start();
    }
}

/// `token` without the ASCII `prefix`, matched ignoring ASCII case.
fn strip_keyword<'a>(token: &'a str, prefix: &str) -> Option<&'a str> {
    let head = token.get(..prefix.len())?;
    head.eq_ignore_ascii_case(prefix)
        .then(|| &token[prefix.len()..])
}

/// The byte offset of the first `of` in `token`, matched ignoring ASCII case.
fn find_of(token: &str) -> Option<usize> {
    token
        .as_bytes()
        .windows(2)
        .position(|pair| pair.eq_ignore_ascii_case(b"of"))
}

/// Parses a fault tree from Galileo text.
///
/// # Errors
///
/// Returns [`FaultTreeError::Parse`] for syntax errors and the usual
/// structural errors (unknown nodes, cycles, invalid thresholds) for
/// semantically invalid trees.
pub fn parse_galileo(input: &str) -> Result<FaultTree, FaultTreeError> {
    let mut toplevel: Option<&str> = None;
    let mut nodes = RawNodes::default();
    let mut tokens: Vec<&str> = Vec::new();

    for (lineno, raw_line) in input.lines().enumerate() {
        let line_number = lineno + 1;
        let line = match raw_line.find("//") {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let line = line
            .strip_suffix(';')
            .ok_or_else(|| parse_error(line_number, "expected line to end with ';'"))?
            .trim();
        tokenize(line, &mut tokens);
        if tokens.is_empty() {
            continue;
        }
        if tokens[0].eq_ignore_ascii_case("toplevel") {
            if tokens.len() != 2 {
                return Err(parse_error(
                    line_number,
                    "toplevel expects exactly one name",
                ));
            }
            toplevel = Some(tokens[1]);
            continue;
        }
        let name = tokens[0];
        if tokens.len() < 2 {
            return Err(parse_error(line_number, "missing node definition"));
        }
        nodes.check_fresh(name)?;
        // Keywords match ignoring ASCII case; messages quote the lower-case
        // spelling.
        let second = tokens[1];
        if let Some(prob_text) = strip_keyword(second, "prob=") {
            let probability: f64 = prob_text.parse().map_err(|_| {
                let prob_text = prob_text.to_ascii_lowercase();
                parse_error(line_number, format!("invalid probability {prob_text:?}"))
            })?;
            nodes.declare_event(RawEvent {
                name,
                probability: Some(probability),
                model: None,
                description: None,
            });
        } else if let Some(lambda_text) = strip_keyword(second, "lambda=") {
            let lambda: f64 = lambda_text.parse().map_err(|_| {
                let lambda_text = lambda_text.to_ascii_lowercase();
                parse_error(line_number, format!("invalid failure rate {lambda_text:?}"))
            })?;
            // An optional `mu=<rate>` after the failure rate selects the
            // repairable unavailability law.
            let mu = match tokens.get(2) {
                None => None,
                Some(third) => match strip_keyword(third, "mu=") {
                    Some(mu_text) => Some(mu_text.parse::<f64>().map_err(|_| {
                        let mu_text = mu_text.to_ascii_lowercase();
                        parse_error(line_number, format!("invalid repair rate {mu_text:?}"))
                    })?),
                    None => {
                        return Err(parse_error(
                            line_number,
                            format!("expected mu=<rate> after lambda, found {third:?}"),
                        ))
                    }
                },
            };
            let model = match mu {
                Some(mu) => FailureModel::repairable(lambda, mu),
                None => FailureModel::exponential(lambda),
            }
            .map_err(|e| parse_error(line_number, e.to_string()))?;
            nodes.declare_event(RawEvent {
                name,
                probability: None,
                model: Some(model),
                description: None,
            });
        } else if second.eq_ignore_ascii_case("and") {
            nodes.declare_gate(name, GateKind::And, tokens[2..].iter().copied());
        } else if second.eq_ignore_ascii_case("or") {
            nodes.declare_gate(name, GateKind::Or, tokens[2..].iter().copied());
        } else if let Some(of) = find_of(second) {
            let (k_text, n_text) = (&second[..of], &second[of + 2..]);
            let k: usize = k_text.parse().map_err(|_| {
                let second = second.to_ascii_lowercase();
                parse_error(line_number, format!("invalid voting threshold {second:?}"))
            })?;
            let declared_n: usize = n_text.parse().map_err(|_| {
                let second = second.to_ascii_lowercase();
                parse_error(line_number, format!("invalid voting arity {second:?}"))
            })?;
            let inputs = &tokens[2..];
            if inputs.len() != declared_n {
                return Err(parse_error(
                    line_number,
                    format!(
                        "voting gate {name:?} declares {declared_n} inputs but lists {}",
                        inputs.len()
                    ),
                ));
            }
            nodes.declare_gate(name, GateKind::Vot { k }, inputs.iter().copied());
        } else {
            return Err(parse_error(
                line_number,
                format!("unsupported gate type or attribute {second:?}"),
            ));
        }
    }

    let toplevel = toplevel.ok_or(FaultTreeError::MissingTop)?;
    build_tree("galileo import", toplevel, &nodes)
}

/// Builds a [`FaultTree`] from declared nodes (shared with the JSON parser):
/// checks the event probabilities in declaration order, then resolves the
/// gate inputs in gate order, then the top, then validates the structure.
pub(crate) fn build_tree(
    tree_name: &str,
    toplevel: &str,
    nodes: &RawNodes<'_>,
) -> Result<FaultTree, FaultTreeError> {
    let mut events = Vec::with_capacity(nodes.events.len());
    for raw in &nodes.events {
        let base = match (raw.probability, raw.model) {
            (Some(p), _) => Probability::new(p)?,
            (None, Some(model)) => model.base_probability(),
            (None, None) => {
                return Err(FaultTreeError::Parse {
                    line: 0,
                    message: format!("event {:?} needs a probability or a failure rate", raw.name),
                })
            }
        };
        let mut event = match raw.description {
            Some(description) => BasicEvent::with_description(raw.name, base, description),
            None => BasicEvent::new(raw.name, base),
        };
        event.set_model(raw.model);
        events.push(event);
    }
    let resolve = |name: &str| -> Result<NodeId, FaultTreeError> {
        nodes
            .ids
            .get(name)
            .copied()
            .ok_or_else(|| FaultTreeError::UnknownNode {
                name: name.to_string(),
            })
    };
    let mut gates = Vec::with_capacity(nodes.gates.len());
    for gate in &nodes.gates {
        let inputs = nodes.inputs[gate.inputs.clone()]
            .iter()
            .map(|input| resolve(input))
            .collect::<Result<Vec<NodeId>, FaultTreeError>>()?;
        gates.push(Gate::new(gate.name, gate.kind, inputs));
    }
    let top = resolve(toplevel)?;
    FaultTree::from_parts(tree_name, events, gates, top)
}

/// Renders a fault tree in Galileo syntax.
pub fn to_galileo_string(tree: &FaultTree) -> String {
    let mut out = String::new();
    out.push_str(&format!("toplevel \"{}\";\n", tree.node_name(tree.top())));
    for gate in tree.gates() {
        let kind = match gate.kind() {
            GateKind::And => "and".to_string(),
            GateKind::Or => "or".to_string(),
            GateKind::Vot { k } => format!("{k}of{}", gate.inputs().len()),
        };
        let inputs: Vec<String> = gate
            .inputs()
            .iter()
            .map(|&i| format!("\"{}\"", tree.node_name(i)))
            .collect();
        out.push_str(&format!(
            "\"{}\" {} {};\n",
            gate.name(),
            kind,
            inputs.join(" ")
        ));
    }
    for event in tree.events() {
        // Rate-parameterised events are written as their rates (the base
        // probability is re-derived on parse); everything else — including
        // explicitly pinned `Fixed` models, which Galileo cannot express —
        // is written as its probability.
        match event.model() {
            Some(FailureModel::Exponential { lambda }) => {
                out.push_str(&format!("\"{}\" lambda={lambda};\n", event.name()));
            }
            Some(FailureModel::Repairable { lambda, mu }) => {
                out.push_str(&format!("\"{}\" lambda={lambda} mu={mu};\n", event.name()));
            }
            _ => {
                out.push_str(&format!(
                    "\"{}\" prob={};\n",
                    event.name(),
                    event.probability().value()
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::fire_protection_system;

    const FPS_GALILEO: &str = r#"
// Fire protection system (paper Fig. 1)
toplevel "top";
"top" or "detection" "suppression";
"detection" and "x1" "x2";
"suppression" or "x3" "x4" "triggering";
"triggering" and "x5" "remote";
"remote" or "x6" "x7";
"x1" prob=0.2;
"x2" prob=0.1;
"x3" prob=0.001;
"x4" prob=0.002;
"x5" prob=0.05;
"x6" prob=0.1;
"x7" prob=0.05;
"#;

    #[test]
    fn parses_the_fire_protection_system() {
        let tree = parse_galileo(FPS_GALILEO).expect("valid Galileo input");
        assert_eq!(tree.num_events(), 7);
        assert_eq!(tree.num_gates(), 5);
        // Same structure function as the programmatic example.
        let reference = fire_protection_system();
        for mask in 0..(1u32 << 7) {
            let occurred: Vec<bool> = (0..7).map(|i| mask & (1 << i) != 0).collect();
            // Event order differs (declaration order), so remap by name.
            let mut remapped = vec![false; 7];
            for (i, value) in occurred.iter().enumerate() {
                let name = format!("x{}", i + 1);
                let id = tree.event_by_name(&name).unwrap();
                remapped[id.index()] = *value;
            }
            let mut reference_occurred = vec![false; 7];
            for (i, value) in occurred.iter().enumerate() {
                let name = format!("x{}", i + 1);
                let id = reference.event_by_name(&name).unwrap();
                reference_occurred[id.index()] = *value;
            }
            assert_eq!(
                tree.evaluate(&remapped),
                reference.evaluate(&reference_occurred),
                "mask {mask:b}"
            );
        }
    }

    #[test]
    fn parses_voting_gates_and_bare_names() {
        let text = "toplevel top;\ntop 2of3 a b c;\na prob=0.1;\nb prob=0.2;\nc prob=0.3;\n";
        let tree = parse_galileo(text).expect("valid Galileo input");
        assert_eq!(tree.num_events(), 3);
        assert_eq!(tree.gates()[0].kind(), GateKind::Vot { k: 2 });
        assert!(tree.evaluate(&[true, true, false]));
        assert!(!tree.evaluate(&[true, false, false]));
    }

    #[test]
    fn round_trips_through_the_writer() {
        let tree = fire_protection_system();
        let text = to_galileo_string(&tree);
        let parsed = parse_galileo(&text).expect("round trip");
        assert_eq!(parsed.num_events(), tree.num_events());
        assert_eq!(parsed.num_gates(), tree.num_gates());
        for mask in 0..(1u32 << 7) {
            let occurred: Vec<bool> = (0..7).map(|i| mask & (1 << i) != 0).collect();
            let mut remapped = vec![false; 7];
            for id in tree.event_ids() {
                let name = tree.event(id).name();
                let other = parsed.event_by_name(name).unwrap();
                remapped[other.index()] = occurred[id.index()];
            }
            assert_eq!(parsed.evaluate(&remapped), tree.evaluate(&occurred));
        }
    }

    #[test]
    fn parses_rate_parameterised_events() {
        let text = "toplevel top;\ntop or pump link;\npump lambda=0.5;\nlink lambda=0.1 mu=0.9;\n";
        let tree = parse_galileo(text).expect("valid Galileo input");
        let pump = tree.event(tree.event_by_name("pump").unwrap());
        assert_eq!(
            pump.model(),
            Some(&FailureModel::Exponential { lambda: 0.5 })
        );
        // The stored base probability is the law at the default mission time.
        assert_eq!(
            pump.probability().value(),
            1.0 - (-0.5f64 * crate::event::DEFAULT_MISSION_TIME).exp()
        );
        let link = tree.event(tree.event_by_name("link").unwrap());
        assert_eq!(
            link.model(),
            Some(&FailureModel::Repairable {
                lambda: 0.1,
                mu: 0.9
            })
        );

        // The writer emits the rates back, and the round trip is exact.
        let written = to_galileo_string(&tree);
        assert!(written.contains("lambda=0.5"), "{written}");
        assert!(written.contains("lambda=0.1 mu=0.9"), "{written}");
        let reparsed = parse_galileo(&written).expect("round trip");
        for id in tree.event_ids() {
            let original = tree.event(id);
            let back = reparsed.event(reparsed.event_by_name(original.name()).unwrap());
            assert_eq!(original.model(), back.model());
            assert_eq!(
                original.probability().value().to_bits(),
                back.probability().value().to_bits(),
                "bit-exact base probability for {}",
                original.name()
            );
        }
    }

    #[test]
    fn reports_helpful_errors() {
        assert!(matches!(
            parse_galileo("toplevel a\n"),
            Err(FaultTreeError::Parse { .. })
        ));
        assert!(matches!(
            parse_galileo("toplevel a;\na prob=oops;\n"),
            Err(FaultTreeError::Parse { .. })
        ));
        assert!(matches!(
            parse_galileo("toplevel a;\na spare b c;\nb prob=0.1;\nc prob=0.1;\n"),
            Err(FaultTreeError::Parse { .. })
        ));
        assert!(matches!(
            parse_galileo("toplevel a;\na and b;\n"),
            Err(FaultTreeError::UnknownNode { .. })
        ));
        assert!(matches!(
            parse_galileo("a and a;\na prob=0.1;\n"),
            Err(FaultTreeError::DuplicateName { .. }) | Err(FaultTreeError::MissingTop)
        ));
        assert!(matches!(
            parse_galileo("toplevel q;\nq 2of3 a b;\na prob=0.1;\nb prob=0.1;\n"),
            Err(FaultTreeError::Parse { .. })
        ));
        assert!(matches!(
            parse_galileo("toplevel a;\na lambda=oops;\n"),
            Err(FaultTreeError::Parse { .. })
        ));
        assert!(matches!(
            parse_galileo("toplevel a;\na lambda=-1;\n"),
            Err(FaultTreeError::Parse { .. })
        ));
        assert!(matches!(
            parse_galileo("toplevel a;\na lambda=0.1 mu=oops;\n"),
            Err(FaultTreeError::Parse { .. })
        ));
        assert!(matches!(
            parse_galileo("toplevel a;\na lambda=0.1 nu=0.2;\n"),
            Err(FaultTreeError::Parse { .. })
        ));
    }

    #[test]
    fn missing_toplevel_is_an_error() {
        assert!(matches!(
            parse_galileo("\"a\" prob=0.5;\n"),
            Err(FaultTreeError::MissingTop)
        ));
    }
}
