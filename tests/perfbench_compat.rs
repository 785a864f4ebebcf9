//! The benchmark crate (`perfbench/`) still imports a few pre-`DatapathSystem`
//! names, so they stay defined as thin aliases until the benchmark itself
//! is ported. This guard keeps them from gaining in-tree users meanwhile:
//! outside their own definitions no Rust file in the workspace may mention
//! them. The benchmark change that ports `perfbench/` deletes the names and
//! this test with them.

use std::fs;
use std::path::{Path, PathBuf};

/// Each kept name with the files that define or re-export it.
const KEPT: &[(&str, &[&str])] = &[
    ("WorkSystem", CORE),
    ("ValueSystem", CORE),
    ("CombinedSystem", CORE),
    ("WorkAdapter", DATAPATH),
    ("ValueAdapter", DATAPATH),
    ("run_work", SIM),
    ("run_value", SIM),
    ("run_combined", SIM),
];
const CORE: &[&str] = &["crates/core/src/system.rs", "crates/core/src/lib.rs"];
const DATAPATH: &[&str] = &["crates/datapath/src/lib.rs"];
const SIM: &[&str] = &["crates/sim/src/lib.rs"];

/// The Rust sources of the workspace: every `.rs` file under these roots.
const ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn names_kept_for_perfbench_have_no_in_tree_users() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 100, "scanned only {} files", files.len());
    let this_file = root.join(file!());
    let mut users = Vec::new();
    for file in files.iter().filter(|f| **f != this_file) {
        let rel = file
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let src = fs::read_to_string(file).unwrap_or_else(|e| panic!("{rel}: {e}"));
        // Whole identifiers only: `run_work_point` is not `run_work`.
        let idents = src.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        for ident in idents {
            let kept = KEPT.iter().find(|(name, _)| *name == ident);
            if let Some((name, homes)) = kept {
                if !homes.contains(&rel.as_str()) {
                    users.push(format!("{rel}: {name}"));
                }
            }
        }
    }
    users.dedup();
    assert!(
        users.is_empty(),
        "use DatapathSystem, SlotMachine::new(system) and smbm_sim::run instead: {users:#?}"
    );
}
