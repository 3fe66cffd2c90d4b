//! Race the paper's synchronous protocol against the classic dynamics on
//! the same electorate.
//!
//! ```sh
//! cargo run --release --example baseline_race
//! ```

use plurality::baselines::{Dynamics, DynamicsConfig};
use plurality::core::sync::SyncConfig;
use plurality::core::InitialAssignment;
use plurality::stats::{fmt_f64, Table};

fn main() {
    let n = 30_000;
    let k = 16;
    let alpha = 1.5;
    let seed = 99;
    let assignment = InitialAssignment::with_bias(n, k, alpha).expect("valid parameters");
    println!("n = {n}, k = {k}, α₀ = {alpha}, one seeded run each\n");

    let mut table = Table::new(
        "baseline race (rounds to full consensus; cap 3000)",
        &["protocol", "rounds", "winner ok"],
    );

    let ours = SyncConfig::new(assignment.clone()).with_seed(seed).run();
    table.row(&[
        "generations (this paper)".into(),
        fmt_f64(ours.outcome.consensus_time.unwrap_or(f64::NAN)),
        ours.outcome.plurality_preserved().to_string(),
    ]);

    for dynamics in Dynamics::all() {
        let r = DynamicsConfig::new(dynamics, assignment.clone())
            .with_seed(seed)
            .with_max_rounds(3_000)
            .run();
        table.row(&[
            dynamics.name().into(),
            r.outcome
                .consensus_time
                .map(fmt_f64)
                .unwrap_or_else(|| format!("> {} (capped)", r.rounds)),
            r.outcome.plurality_preserved().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "expected: every short-memory dynamic finishes except pull voting, which needs Ω(n)\n\
         rounds and hits the cap. At this moderate k the simple dynamics are still\n\
         competitive — the generation protocol's advantage grows with k (run the\n\
         experiments/e12_baselines.manifest for the full sweep)."
    );
}
