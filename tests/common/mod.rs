//! Helpers shared by the integration suites.

use std::fs;
use std::path::{Path, PathBuf};

use fault_tree::parser::{galileo, json};
use fault_tree::FaultTree;

/// Every bundled model under `examples/trees/`, parsed, with its file name,
/// in file-name order.
pub fn bundled_trees() -> Vec<(String, FaultTree)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/trees");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("examples/trees/ ships with the repository")
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "examples/trees/ must not be empty");
    paths
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("readable model file");
            let tree = if path.extension().and_then(|e| e.to_str()) == Some("json") {
                json::from_json_str(&text).expect("valid JSON model")
            } else {
                galileo::parse_galileo(&text).expect("valid Galileo model")
            };
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                tree,
            )
        })
        .collect()
}
