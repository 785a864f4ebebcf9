//! Every `results/…` path the top-level documents name must exist, so a
//! doc cannot keep pointing at a committed result that was deleted.

use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The `results/…` paths in `text` that do not exist under `root`. A path
/// runs from `results/` over path characters; a trailing `.` ends the
/// sentence, not the path.
fn missing_results_paths(text: &str, root: &Path) -> Vec<String> {
    text.match_indices("results/")
        .map(|(at, _)| {
            let path: String = text[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || "_-./".contains(*c))
                .collect();
            path.trim_end_matches('.').to_owned()
        })
        .filter(|path| !root.join(path).exists())
        .collect()
}

#[test]
fn every_results_path_in_the_docs_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        let missing = missing_results_paths(&text, root);
        assert!(missing.is_empty(), "{doc} names missing files: {missing:?}");
    }
}

#[test]
fn a_deleted_result_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = "See `results/fig5_smoke.csv` and results/retired.json.";
    assert_eq!(missing_results_paths(text, root), ["results/retired.json"]);
}
