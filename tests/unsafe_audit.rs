//! The workspace is free of `unsafe` code, and the compiler enforces it:
//! every crate root carries `#![forbid(unsafe_code)]`. This test guards the
//! attribute itself, so deleting it from a crate root fails here even
//! though the crate still compiles.

use std::path::Path;

/// Every crate root in the workspace and its vendored stand-ins: each
/// `crates/*/src/lib.rs`, `third_party/*/src/lib.rs`, and the facade.
fn crate_roots(root: &Path) -> Vec<String> {
    let mut roots = vec!["src/lib.rs".to_string()];
    for dir in ["crates", "third_party"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            roots.push(format!("{dir}/{name}/src/lib.rs"));
        }
    }
    roots.sort();
    roots
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let roots = crate_roots(root);
    assert!(roots.len() > 10, "found only {roots:?}");
    let missing: Vec<&String> = roots
        .iter()
        .filter(|lib| {
            let source = std::fs::read_to_string(root.join(lib.as_str()))
                .unwrap_or_else(|e| panic!("{lib}: {e}"));
            !source
                .lines()
                .any(|line| line.trim() == "#![forbid(unsafe_code)]")
        })
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without #![forbid(unsafe_code)]: {missing:?}"
    );
}
