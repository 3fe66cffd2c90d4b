//! # plurality-scenario
//!
//! Time-scripted adversaries and dynamic environments for the
//! `plurality` workspace.
//!
//! The paper's model is failure-free and static: the population, the
//! communication graph, the latency law, and every node's honesty are
//! fixed for the whole run. The related work the workspace measures
//! against probes exactly the opposite regime — adversarial corruptions
//! in *Fast Consensus via the Unconstrained Undecided State Dynamics*,
//! many-opinion stress under weak schedulers in *Asynchronous 3-Majority
//! Dynamics with Many Opinions* — so this crate provides the missing
//! axis: **arbitrary environments over time**, scripted on the
//! simulation clock and reproducible bit-for-bit from a seed.
//!
//! Three layers:
//!
//! * [`Scenario`] — the declarative script: a list of typed
//!   [`ScenarioEvent`]s (crash, recover, join churn, budgeted
//!   adversarial corruption, message-loss bursts, latency regime
//!   shifts, topology rewiring), plus two *run-long* actions that hold
//!   for the whole run and are read only by the asynchronous engines
//!   (persistent `signal-loss`, `stragglers` with slow clocks), built
//!   either through the fluent builder API or parsed from the compact
//!   scenario DSL (see [`Scenario::parse`] for the grammar);
//! * [`Environment`] — the runtime an engine polls: it owns a private
//!   RNG stream (derived via [`SCENARIO_STREAM`], so the engine's
//!   process stream is never perturbed), tracks which nodes are
//!   crashed, which loss bursts and latency regimes are active, and
//!   hands the engine [`Effect`]s to apply when the clock passes an
//!   event;
//! * the engine hooks — every engine config in the workspace carries a
//!   `with_scenario` setter and calls [`Scenario::for_run`] at run
//!   start. An empty scenario — or one holding only run-long actions —
//!   returns `None` and the engine takes its historical zero-cost path,
//!   consuming the **byte-identical RNG stream** it consumed before
//!   this crate existed.
//!
//! ## Quick start
//!
//! ```
//! use plurality_scenario::{Effect, Scenario};
//!
//! // Half the nodes crash at t = 2; a 25% message-loss burst spans
//! // t ∈ [4, 6).
//! let scenario = Scenario::parse("crash:0.5@2;burst-loss:0.25@4..6").unwrap();
//! let mut env = scenario.for_run(100, 2, 7).expect("non-empty");
//!
//! assert_eq!(env.alive_count(), 100);
//! assert_eq!(env.next_time(), 2.0);
//! let fired = env.poll(2.0);
//! assert!(matches!(fired[0], Effect::Crashed(_)));
//! assert_eq!(env.alive_count(), 50);
//!
//! assert_eq!(env.loss(), 0.0);
//! env.poll(4.5);
//! assert_eq!(env.loss(), 0.25);
//! env.poll(6.0);
//! assert_eq!(env.loss(), 0.0);
//! ```
//!
//! ## Determinism contract
//!
//! All scenario randomness — which nodes crash, which nodes the
//! adversary corrupts, fresh opinions of joiners, loss coin flips,
//! rewired graphs — flows through the environment's own
//! `Xoshiro256PlusPlus`, seeded with `derive_seed(run_seed,
//! SCENARIO_STREAM)`. Scenario-enabled runs are therefore pure
//! functions of `(config, seed)` exactly like plain runs, bitwise
//! reproducible across thread counts (asserted by
//! `tests/parallel_determinism.rs`), and an empty scenario leaves the
//! process RNG stream untouched.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
mod parse;
mod script;

pub use env::{Effect, Environment};
pub use parse::ScenarioParseError;
pub use script::{Action, AdversaryMode, Scenario, ScenarioEvent};

/// Seed-stream tag the engines use to derive the environment seed from a
/// run seed (`derive_seed(run_seed, SCENARIO_STREAM)`), so scenario
/// randomness never touches the process RNG stream — the same isolation
/// pattern as `plurality_topology::TOPOLOGY_STREAM`.
pub const SCENARIO_STREAM: u64 = 0x5343_454E;
