//! Runs experiment manifests and prints their tables, fit lines and
//! assert verdicts.
//!
//! ```text
//! experiments [full] MANIFEST…
//! ```
//!
//! Stdout is deterministic for any `PLURALITY_THREADS`; each manifest's
//! quick-effort stdout is committed next to it as `<id>.expected`. CSVs
//! go to `PLURALITY_RESULTS` (default `results/`), and the `wrote …`
//! lines to stderr. Exits 1 if an assert fails and 2
//! on a missing, unreadable or malformed manifest.

use plurality_bench::manifest::Manifest;
use plurality_bench::{is_full, results_dir};
use std::process::ExitCode;

fn main() -> ExitCode {
    let full = is_full();
    let paths: Vec<String> = std::env::args().skip(1).filter(|a| a != "full").collect();
    if paths.is_empty() {
        eprintln!("usage: experiments [full] MANIFEST… (e.g. experiments/e19_robustness.manifest)");
        return ExitCode::from(2);
    }
    let mut passed = true;
    for path in paths {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        let manifest = match text.and_then(|text| Manifest::parse(&text, full)) {
            Ok(manifest) => manifest,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        for table in &manifest.tables {
            let (text, rendered, held) = table.summarize(&table.run());
            print!("{text}");
            if let Some(name) = &table.csv {
                let csv = results_dir().join(name);
                rendered.write_csv(&csv).expect("write csv");
                eprintln!("wrote {}", csv.display());
            }
            passed &= held;
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        eprintln!("an assert failed");
        ExitCode::FAILURE
    }
}
