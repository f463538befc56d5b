//! Golden-fixture plumbing shared by the suites that pin serialized
//! artifacts byte for byte. Each suite regenerates its own fixtures after
//! an *intentional* behavior change with
//! `BPROM_BLESS=1 cargo test --test <suite>`.

use std::path::Path;

/// The re-bless command of the test suite this module is compiled into.
fn bless_command() -> String {
    format!(
        "BPROM_BLESS=1 cargo test --test {}",
        env!("CARGO_CRATE_NAME")
    )
}

/// Reads the committed fixture at `path`; a missing one panics with the
/// command that regenerates it.
pub fn read_fixture(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with {}",
            path.display(),
            bless_command()
        )
    })
}

/// Line-level diff of two serialized artifacts: `None` when identical,
/// otherwise a readable summary of every divergent line.
pub fn diff_lines(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    let mut out = String::new();
    for i in 0..want_lines.len().max(got_lines.len()) {
        let w = want_lines.get(i).copied().unwrap_or("<missing>");
        let g = got_lines.get(i).copied().unwrap_or("<missing>");
        if w != g {
            out.push_str(&format!("  line {}:\n    -{w}\n    +{g}\n", i + 1));
        }
    }
    Some(out)
}

/// Requires `got` to match the fixture at `path` byte for byte, failing
/// with a line-level diff on drift; under `BPROM_BLESS=1` rewrites the
/// fixture instead. `what` names the artifact in the failure message.
pub fn assert_golden(path: &Path, got: &str, what: &str) {
    if std::env::var("BPROM_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, got).unwrap();
        return;
    }
    let want = read_fixture(path);
    if let Some(diff) = diff_lines(&want, got) {
        panic!(
            "{what} drifted from {} (-fixture / +current):\n{diff}\
             If the change is intentional, re-bless with {}",
            path.display(),
            bless_command()
        );
    }
}
