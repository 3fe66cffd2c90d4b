//! The manifest runner: parser errors name their line, cells reproduce
//! `run_spec_many` report for report, a fit over an undefined cell fails
//! its asserts, a failing assert fails the `experiments` binary, and
//! every committed manifest parses.

use plurality_bench::manifest::Manifest;
use plurality_bench::{run_spec_many, theorem_bias};
use std::process::Command;

const SMOKE: &str = "\
table T smoke
spec {p}?n={n}&k={k}&alpha={bias:1.5}&max={cap}
master 0x5EED
reps 2
set k 4
vary n 1e4 1e5
cell p=urn cap=
cell p=3-majority cap=50
column rounds mean
column preserved wins
";

#[test]
fn parser_errors_name_their_line() {
    let cases = [
        (
            format!("{SMOKE}colour rounds mean\n"),
            "line 11: ",
            "`colour`",
        ),
        (
            SMOKE.replace("{k}", "{kk}"),
            "line 2: ",
            "`{kk}` has no value",
        ),
        (
            SMOKE.replace("column rounds", "column roundz"),
            "line 9: ",
            "metric `roundz`",
        ),
        // Registry::resolve rejects it: urn is mean-field.
        (
            SMOKE.replace("{cap}", "{cap}&topology=ring"),
            "line 2: ",
            "mean-field",
        ),
        (
            format!("{SMOKE}fit n log rounds\nfit n loglog rounds\n"),
            "line 12: ",
            "already has a `fit` line (line 11)",
        ),
    ];
    for (text, line, detail) in cases {
        let Err(e) = Manifest::parse(&text, false) else {
            panic!("parsed:\n{text}");
        };
        assert!(e.starts_with(line) && e.contains(detail), "{e}");
    }
}

#[test]
fn cells_fill_their_specs_and_reproduce_run_spec_many() {
    let manifest = Manifest::parse(SMOKE, false).expect("valid manifest");
    let table = &manifest.tables[0];
    let specs: Vec<&str> = table.cells.iter().map(|c| c.spec.as_str()).collect();
    let alpha = |n| theorem_bias(n, 4).max(1.5);
    let expected = [
        format!("urn?n=10000&k=4&alpha={}", alpha(10_000)),
        format!("3-majority?n=10000&k=4&alpha={}&max=50", alpha(10_000)),
        format!("urn?n=100000&k=4&alpha={}", alpha(100_000)),
        format!("3-majority?n=100000&k=4&alpha={}&max=50", alpha(100_000)),
    ];
    assert_eq!(specs, expected);
    for (cell, runs) in table.cells.iter().zip(table.run()) {
        assert_eq!(cell.master, 0x5EED);
        assert_eq!(runs, run_spec_many(&cell.spec, cell.master, 2));
    }
}

#[test]
fn fit_over_a_cell_without_a_mean_fails_its_asserts() {
    // `max=1` stops every repetition before ε-convergence, so that cell
    // has no `eps_time` mean; it must not enter the fit as 0.
    let text = "\
table T undefined cell
spec leader?n=2000&k=4&alpha=2&c1=9.3&max={max}
master 0x5EED
reps 2
vary max 1 100000 200000
column eps_time mean
fit max log eps_time
assert slope > 0
assert |slope| < 100
assert r2 >= 0
";
    let manifest = Manifest::parse(text, false).expect("valid manifest");
    let table = &manifest.tables[0];
    let (stdout, _, passed) = table.summarize(&table.run());
    assert!(!passed, "{stdout}");
    assert!(
        stdout.contains("fit eps_time mean vs ln max: -\n"),
        "{stdout}"
    );
    for subject in ["slope > 0", "|slope| < 100", "r2 >= 0"] {
        let verdict = format!("assert {subject}: FAILED (-)\n");
        assert!(stdout.contains(&verdict), "{stdout}");
    }
}

#[test]
fn failing_assert_makes_the_runner_exit_nonzero() {
    let dir = std::env::temp_dir().join(format!("plurality-manifest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |verdict: &str| {
        let path = dir.join("smoke.manifest");
        let text = format!("{SMOKE}assert n=1e5 p=urn preserved mean {verdict}\n");
        std::fs::write(&path, text).unwrap();
        let binary = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .arg(&path)
            .output();
        binary.expect("run the experiments binary")
    };
    let holds = run("== 1");
    let fails = run("== 0");
    std::fs::remove_dir_all(&dir).ok();

    assert!(holds.status.success(), "{holds:?}");
    let stdout = String::from_utf8(fails.stdout).unwrap();
    assert_eq!(fails.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("assert n=1e5 p=urn preserved mean == 0: FAILED (1.000)"),
        "{stdout}"
    );
}

#[test]
fn committed_manifests_parse_at_both_efforts() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments");
    let mut count = 0;
    for entry in std::fs::read_dir(dir).expect("experiments/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "manifest") {
            let text = std::fs::read_to_string(&path).unwrap();
            for full in [false, true] {
                if let Err(e) = Manifest::parse(&text, full) {
                    panic!("{} (full = {full}): {e}", path.display());
                }
            }
            assert!(
                path.with_extension("expected").exists(),
                "{}",
                path.display()
            );
            count += 1;
        }
    }
    assert_eq!(count, 16);
}
