//! `smbm-spsc` is the workspace's one `unsafe` crate: its ring is the only
//! code the compiler lets touch raw memory, and CI runs it under Miri. Every
//! other library root, the root package's included, must forbid `unsafe`
//! so a new `unsafe` block elsewhere fails to compile instead of slipping
//! past review.

use std::fs;
use std::path::{Path, PathBuf};

const FORBID: &str = "#![forbid(unsafe_code)]";
const UNSAFE_CRATE: &str = "spsc";

fn forbids_unsafe(lib: &Path) -> bool {
    let src = fs::read_to_string(lib).unwrap_or_else(|e| panic!("{}: {e}", lib.display()));
    src.lines().any(|line| line.trim() == FORBID)
}

#[test]
fn every_library_root_but_spsc_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ directory")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("src/lib.rs").is_file())
        .collect();
    crates.sort();
    let names: Vec<String> = crates
        .iter()
        .map(|dir| dir.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n == UNSAFE_CRATE),
        "crates/{UNSAFE_CRATE} is missing: {names:?}"
    );
    let mut libs = vec![root.join("src/lib.rs")];
    libs.extend(
        crates
            .iter()
            .zip(&names)
            .filter(|(_, name)| *name != UNSAFE_CRATE)
            .map(|(dir, _)| dir.join("src/lib.rs")),
    );
    let missing: Vec<_> = libs.iter().filter(|lib| !forbids_unsafe(lib)).collect();
    assert!(missing.is_empty(), "{FORBID} missing from {missing:?}");
}
