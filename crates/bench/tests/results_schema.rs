//! Every committed `results/` artifact that has a schema passes
//! `schema::check_file`, and a corrupted copy of each fails with an
//! error naming its path.

use std::path::{Path, PathBuf};
use symbfuzz_bench::schema::check_file;

fn committed_artifacts() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            matches!(
                name,
                "status.json" | "flight.jsonl" | "covreport_ibex_like.json" | "solverscope.json"
            ) || (name.starts_with("covmap_") || name.starts_with("BENCH_"))
                && name.ends_with(".json")
        })
        .collect();
    paths.sort();
    paths
}

#[test]
fn every_committed_artifact_checks_and_a_corrupted_copy_fails() {
    let paths = committed_artifacts();
    let names: Vec<_> = paths.iter().map(|p| p.file_name().unwrap()).collect();
    assert!(names.len() >= 11, "{names:?}");
    let dir = std::env::temp_dir().join(format!("symbfuzz-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for path in &paths {
        let ok = check_file(path).unwrap_or_else(|e| panic!("{e}"));
        assert!(ok.ends_with("schema OK"), "{ok}");

        // Cut the file mid-record: every format then fails to parse.
        let text = std::fs::read_to_string(path).unwrap();
        let mut cut = text.len() / 2;
        while !text.is_char_boundary(cut) || text[..cut].ends_with('\n') {
            cut -= 1;
        }
        let copy = dir.join(path.file_name().unwrap());
        std::fs::write(&copy, &text[..cut]).unwrap();
        let err = check_file(&copy).expect_err("a truncated artifact fails");
        assert!(err.starts_with(&copy.display().to_string()), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
