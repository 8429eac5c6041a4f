//! Pins of the Galileo parser's observable behaviour: the exact tree each
//! accepted input produces (identifiers, names, declaration order, laws) and
//! the exact error each rejected input produces (variant, line and message).

use fault_tree::parser::galileo::parse_galileo;
use fault_tree::{
    BasicEvent, EventId, FailureModel, FaultTree, FaultTreeError, Gate, GateId, GateKind, NodeId,
    Probability,
};

/// The name every Galileo import carries.
const IMPORTED: &str = "galileo import";

fn event(index: usize) -> NodeId {
    NodeId::Event(EventId::from_index(index))
}

fn gate(index: usize) -> NodeId {
    NodeId::Gate(GateId::from_index(index))
}

fn fixed(name: &str, p: f64) -> BasicEvent {
    BasicEvent::new(name, Probability::new(p).expect("valid probability"))
}

fn modelled(name: &str, model: FailureModel) -> BasicEvent {
    let mut event = BasicEvent::new(name, model.base_probability());
    event.set_model(Some(model));
    event
}

fn expected(events: Vec<BasicEvent>, gates: Vec<Gate>, top: NodeId) -> FaultTree {
    FaultTree::from_parts(IMPORTED, events, gates, top).expect("valid expected tree")
}

fn parse_error(line: usize, message: &str) -> FaultTreeError {
    FaultTreeError::Parse {
        line,
        message: message.to_string(),
    }
}

/// One tree written with lower-case keywords, used by the keyword pins.
const LOWER_CASE: &str = "toplevel \"top\";
\"top\" or \"both\" \"vote\" \"pump\";
\"both\" and \"a\" \"b\";
\"vote\" 2of3 \"a\" \"b\" \"c\";
\"a\" prob=0.1;
\"b\" prob=0.2;
\"c\" prob=1e-3;
\"pump\" lambda=0.5 mu=0.25;
";

#[test]
fn keywords_are_case_insensitive() {
    let reference = expected(
        vec![
            fixed("a", 0.1),
            fixed("b", 0.2),
            fixed("c", 1e-3),
            modelled("pump", FailureModel::repairable(0.5, 0.25).unwrap()),
        ],
        vec![
            Gate::new("top", GateKind::Or, vec![gate(1), gate(2), event(3)]),
            Gate::new("both", GateKind::And, vec![event(0), event(1)]),
            Gate::new(
                "vote",
                GateKind::Vot { k: 2 },
                vec![event(0), event(1), event(2)],
            ),
        ],
        gate(0),
    );
    assert_eq!(parse_galileo(LOWER_CASE).unwrap(), reference);
    let mixed = "TOPLEVEL \"top\";
\"top\" Or \"both\" \"vote\" \"pump\";
\"both\" AND \"a\" \"b\";
\"vote\" 2OF3 \"a\" \"b\" \"c\";
\"a\" PROB=0.1;
\"b\" Prob=0.2;
\"c\" prob=1E-3;
\"pump\" LAMBDA=0.5 MU=0.25;
";
    assert_eq!(parse_galileo(mixed).unwrap(), reference);
    let exponential = "ToPlEvEl x;\nx Lambda=0.5;\n";
    assert_eq!(
        parse_galileo(exponential).unwrap(),
        expected(
            vec![modelled("x", FailureModel::exponential(0.5).unwrap())],
            vec![],
            event(0),
        )
    );
}

#[test]
fn names_may_be_bare_quoted_spaced_empty_or_unterminated() {
    // The unterminated quote runs to the end of the line (after the `;`).
    let text = "toplevel top;
top or \"pump a\" \"\" bare \"tail;
\"pump a\" prob=0.1;
\"\" prob=0.2;
bare prob=0.3;
tail prob=0.4;
";
    assert_eq!(
        parse_galileo(text).unwrap(),
        expected(
            vec![
                fixed("pump a", 0.1),
                fixed("", 0.2),
                fixed("bare", 0.3),
                fixed("tail", 0.4),
            ],
            vec![Gate::new(
                "top",
                GateKind::Or,
                vec![event(0), event(1), event(2), event(3)],
            )],
            gate(0),
        )
    );
    // A quote ends a bare token, and a bare token may follow a quote
    // without whitespace.
    let glued = "toplevel top;\ntop and a\"b\"c;\na prob=0.1;\nb prob=0.2;\nc prob=0.3;\n";
    assert_eq!(
        parse_galileo(glued).unwrap(),
        expected(
            vec![fixed("a", 0.1), fixed("b", 0.2), fixed("c", 0.3)],
            vec![Gate::new(
                "top",
                GateKind::And,
                vec![event(0), event(1), event(2)]
            )],
            gate(0),
        )
    );
}

#[test]
fn comments_and_unicode_whitespace_separate_nothing_but_tokens() {
    let text = "// a whole-line comment
toplevel \"top\"; // a trailing comment
\u{3000}\"top\"\u{2003}and\u{a0}\"a\"\t\"b\" ;
   // an indented comment
\"a\" prob=0.1;\u{2003}
\"b\"\u{a0}prob=0.2;
;

";
    assert_eq!(
        parse_galileo(text).unwrap(),
        expected(
            vec![fixed("a", 0.1), fixed("b", 0.2)],
            vec![Gate::new("top", GateKind::And, vec![event(0), event(1)])],
            gate(0),
        )
    );
}

#[test]
fn forward_references_and_a_late_toplevel_resolve() {
    let text = "\"top\" and \"mid\" \"a\";
\"mid\" or \"low\" \"b\";
\"low\" 2of2 \"a\" \"b\";
toplevel \"top\";
\"a\" prob=0.1;
\"b\" prob=0.2;
";
    assert_eq!(
        parse_galileo(text).unwrap(),
        expected(
            vec![fixed("a", 0.1), fixed("b", 0.2)],
            vec![
                Gate::new("top", GateKind::And, vec![gate(1), event(0)]),
                Gate::new("mid", GateKind::Or, vec![gate(2), event(1)]),
                Gate::new("low", GateKind::Vot { k: 2 }, vec![event(0), event(1)]),
            ],
            gate(0),
        )
    );
    // Events and gates are numbered separately, each in declaration order,
    // and a second `toplevel` line replaces the first.
    let interleaved = "toplevel a;\nb prob=0.5;\ng or a b;\na prob=0.25;\ntoplevel g;\n";
    assert_eq!(
        parse_galileo(interleaved).unwrap(),
        expected(
            vec![fixed("b", 0.5), fixed("a", 0.25)],
            vec![Gate::new("g", GateKind::Or, vec![event(1), event(0)])],
            gate(0),
        )
    );
}

#[test]
fn syntax_errors_name_their_line() {
    let cases: [(&str, FaultTreeError); 14] = [
        (
            "toplevel a\n",
            parse_error(1, "expected line to end with ';'"),
        ),
        (
            "\ntoplevel a b;\n",
            parse_error(2, "toplevel expects exactly one name"),
        ),
        (
            "toplevel a;\na;\n",
            parse_error(2, "missing node definition"),
        ),
        (
            "toplevel a;\na prob=OOPS;\n",
            parse_error(2, "invalid probability \"oops\""),
        ),
        (
            "toplevel a;\na lambda=Oops;\n",
            parse_error(2, "invalid failure rate \"oops\""),
        ),
        (
            "toplevel a;\na lambda=0.1 MU=Oops;\n",
            parse_error(2, "invalid repair rate \"oops\""),
        ),
        (
            "toplevel a;\na lambda=0.1 Nu=0.2;\n",
            parse_error(2, "expected mu=<rate> after lambda, found \"Nu=0.2\""),
        ),
        (
            "toplevel a;\na lambda=-1;\n",
            parse_error(2, "rate -1 is not a finite non-negative number"),
        ),
        (
            "toplevel q;\nq XOF2 a b;\n",
            parse_error(2, "invalid voting threshold \"xof2\""),
        ),
        (
            "toplevel q;\nq 2OFX a b;\n",
            parse_error(2, "invalid voting arity \"2ofx\""),
        ),
        (
            "toplevel q;\nq 2of3 a b;\n",
            parse_error(2, "voting gate \"q\" declares 3 inputs but lists 2"),
        ),
        (
            "toplevel a;\na Spare b c;\n",
            parse_error(2, "unsupported gate type or attribute \"Spare\""),
        ),
        (
            "toplevel a;\n\"a\";\n",
            parse_error(2, "missing node definition"),
        ),
        (
            "toplevel a;\n\"a prob=0.1;\n",
            parse_error(2, "missing node definition"),
        ),
    ];
    for (text, error) in cases {
        assert_eq!(parse_galileo(text), Err(error), "{text:?}");
    }
}

#[test]
fn structural_errors_keep_their_variants() {
    let cases: [(&str, FaultTreeError); 9] = [
        ("\"a\" prob=0.5;\n", FaultTreeError::MissingTop),
        (
            "toplevel a;\na prob=0.1;\na prob=0.2;\n",
            FaultTreeError::DuplicateName {
                name: "a".to_string(),
            },
        ),
        (
            "toplevel g;\ng and a b;\na prob=0.1;\n",
            FaultTreeError::UnknownNode {
                name: "b".to_string(),
            },
        ),
        (
            "toplevel nowhere;\na prob=0.1;\n",
            FaultTreeError::UnknownNode {
                name: "nowhere".to_string(),
            },
        ),
        (
            "toplevel a;\na prob=1.5;\n",
            FaultTreeError::InvalidProbability { value: 1.5 },
        ),
        (
            "toplevel g;\ng and;\n",
            FaultTreeError::EmptyGate {
                gate: "g".to_string(),
            },
        ),
        (
            "toplevel g;\ng 0of2 a b;\na prob=0.1;\nb prob=0.1;\n",
            FaultTreeError::InvalidVotingThreshold {
                gate: "g".to_string(),
                k: 0,
                n: 2,
            },
        ),
        (
            "toplevel g;\ng or h a;\nh or g a;\na prob=0.1;\n",
            FaultTreeError::CyclicStructure {
                node: "g".to_string(),
            },
        ),
        (
            "toplevel g;\ng and a;\na and g;\n",
            FaultTreeError::CyclicStructure {
                node: "g".to_string(),
            },
        ),
    ];
    for (text, error) in cases {
        assert_eq!(parse_galileo(text), Err(error), "{text:?}");
    }
}

#[test]
fn errors_surface_in_the_order_they_are_checked() {
    // Line errors and duplicates are reported as lines are read, in order.
    assert_eq!(
        parse_galileo("toplevel a;\na prob=0.1;\na prob=0.2;\nb oops;\n"),
        Err(FaultTreeError::DuplicateName {
            name: "a".to_string()
        })
    );
    assert_eq!(
        parse_galileo("toplevel a;\nb oops;\na prob=0.1;\na prob=0.2;\n"),
        Err(parse_error(
            2,
            "unsupported gate type or attribute \"oops\""
        ))
    );
    // Probabilities, names and the top are checked only once every line
    // has been read, so a later syntax error comes first.
    assert_eq!(
        parse_galileo("toplevel a;\na prob=1.5;\nb oops;\n"),
        Err(parse_error(
            3,
            "unsupported gate type or attribute \"oops\""
        ))
    );
    assert_eq!(
        parse_galileo("a prob=0.1;\nb oops;\n"),
        Err(parse_error(
            2,
            "unsupported gate type or attribute \"oops\""
        ))
    );
    // Without a top, nothing else is resolved.
    assert_eq!(
        parse_galileo("g and x;\na prob=1.5;\n"),
        Err(FaultTreeError::MissingTop)
    );
    // Event probabilities are checked before gate inputs, gate inputs (in
    // gate order) before the top, and the top before the structure.
    assert_eq!(
        parse_galileo("toplevel t;\ng and x;\na prob=1.5;\n"),
        Err(FaultTreeError::InvalidProbability { value: 1.5 })
    );
    assert_eq!(
        parse_galileo("toplevel t;\ng and x;\nh and y;\n"),
        Err(FaultTreeError::UnknownNode {
            name: "x".to_string()
        })
    );
    assert_eq!(
        parse_galileo("toplevel t;\ng and;\n"),
        Err(FaultTreeError::UnknownNode {
            name: "t".to_string()
        })
    );
}
