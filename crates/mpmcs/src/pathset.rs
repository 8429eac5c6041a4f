//! The dual optimisation, pinned by tests: maximum-reliability minimal path
//! sets.
//!
//! The paper's MPMCS asks for the most probable minimal way the system
//! *fails*. The same pipeline, pointed at the success tree (paper Step 1),
//! answers the dual question: which inclusion-minimal set of components, if
//! they all keep working, most probably keeps the system up. The minimal cut
//! sets of [`success_tree`]`(tree)` are exactly the minimal path sets of
//! `tree`, its event probabilities are the component reliabilities `1 − pᵢ`,
//! and it keeps the original event indices — so
//! [`MpmcsSolver::solve`](crate::MpmcsSolver::solve) and
//! [`MpmcsSolver::enumerate`](crate::MpmcsSolver::enumerate) on it answer the
//! path-set queries with no further code.
//!
//! [`success_tree`]: fault_tree::transform::success_tree

#[cfg(test)]
mod tests {
    use crate::{EnumerationLimit, MpmcsSolver};
    use fault_tree::examples::{fire_protection_system, redundant_sensor_network};
    use fault_tree::transform::success_tree;

    #[test]
    fn fps_maximum_reliability_path_set_matches_the_hand_computation() {
        let tree = fire_protection_system();
        let solution = MpmcsSolver::new()
            .solve(&success_tree(&tree))
            .expect("the FPS tree has path sets");
        // Keeping x2, x3, x4 and x5 working blocks every cut set; its
        // reliability 0.9·0.999·0.998·0.95 beats the alternative with x1
        // (0.8·…) and the ones that keep x6 and x7 instead of x5.
        assert_eq!(solution.event_names(&tree), vec!["x2", "x3", "x4", "x5"]);
        let expected = 0.9 * 0.999 * 0.998 * 0.95;
        assert!((solution.probability - expected).abs() < 1e-9);
    }

    #[test]
    fn path_set_blocks_every_minimal_cut_set() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::new();
        let path = solver.solve(&success_tree(&tree)).expect("solvable");
        let cuts = solver
            .enumerate(&tree, EnumerationLimit::All)
            .expect("solvable");
        for cut in cuts {
            assert!(
                cut.cut_set.iter().any(|e| path.cut_set.contains(e)),
                "path set must intersect {}",
                cut.cut_set.display_names(&tree)
            );
        }
    }

    #[test]
    fn enumeration_returns_all_four_fps_path_sets_in_order() {
        let tree = fire_protection_system();
        let all = MpmcsSolver::new()
            .enumerate(&success_tree(&tree), EnumerationLimit::All)
            .expect("solvable");
        assert_eq!(all.len(), 4);
        for pair in all.windows(2) {
            assert!(pair[0].probability >= pair[1].probability - 1e-15);
        }
        let mut names: Vec<Vec<String>> = all.iter().map(|s| s.event_names(&tree)).collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                vec!["x1", "x3", "x4", "x5"],
                vec!["x1", "x3", "x4", "x6", "x7"],
                vec!["x2", "x3", "x4", "x5"],
                vec!["x2", "x3", "x4", "x6", "x7"],
            ]
            .into_iter()
            .map(|v: Vec<&str>| v.into_iter().map(String::from).collect::<Vec<String>>())
            .collect::<Vec<_>>()
        );
    }

    #[test]
    fn voting_gate_path_sets_keep_a_sensor_quorum() {
        let tree = redundant_sensor_network();
        let solution = MpmcsSolver::new()
            .solve(&success_tree(&tree))
            .expect("solvable");
        // Keeping two sensors plus the bus and the power supply is required;
        // the best choice keeps the two most reliable sensors (s1, s2).
        assert_eq!(solution.cut_set.len(), 4);
        let names = solution.event_names(&tree);
        assert!(names.contains(&"field bus fails".to_string()));
        assert!(names.contains(&"power supply fails".to_string()));
        assert!(names.contains(&"sensor 1 fails".to_string()));
        assert!(names.contains(&"sensor 2 fails".to_string()));
        let expected = 0.95 * 0.92 * 0.99 * 0.998;
        assert!((solution.probability - expected).abs() < 1e-9);
    }
}
