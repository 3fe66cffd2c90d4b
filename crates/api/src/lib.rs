//! # plurality-api
//!
//! The unified protocol facade of the `plurality` workspace: one entry
//! point for running *any* protocol — the paper's three engines, the
//! mean-field urn mode, the four gossip baselines, and the two
//! population protocols — from one configuration type, with one report
//! type back.
//!
//! The pieces:
//!
//! * [`Protocol`] — `fn run(&self, cfg: &RunConfig) -> Report`,
//!   implemented by a plain-data handle per engine ([`SyncEngine`],
//!   [`UrnEngine`], [`LeaderEngine`], [`ClusterEngine`],
//!   [`GossipEngine`], [`PopulationEngine`]) carrying only the
//!   genuinely protocol-specific knobs;
//! * [`RunConfig`] — the common axes (assignment, ε, seed, record
//!   level, topology, scenario, duration cap) every protocol shares;
//! * [`Report`] — the common [`plurality_core::RunOutcome`] plus a
//!   typed [`Telemetry`] enum preserving every engine-specific field,
//!   with flat accessors (`rounds()`, `steps_per_unit()`,
//!   `interactions()`, …) so experiment code stops pattern-matching on
//!   six result types;
//! * [`RunSpec`] — the string grammar
//!   `protocol?key=value&key=value…` (e.g.
//!   `leader?n=4096&k=8&topology=er:0.01&scenario=crash:0.2@5`) with an
//!   exact parse ↔ `Display` round-trip, resolved against the
//!   [`Registry`] of all protocols with teaching errors.
//!
//! ## The bitwise-compatibility contract
//!
//! A facade-driven run consumes the **byte-identical RNG stream** of
//! the direct engine-builder call it stands for: unset knobs delegate
//! to the engine defaults, and set knobs reach the engine through the
//! same `with_*` setters. The per-engine
//! `facade_run_is_bitwise_identical_to_direct_builder` tests assert
//! this for every engine, with and without a scenario attached.
//!
//! ## Quick start
//!
//! ```
//! use plurality_api::{run_spec, Protocol, RunConfig, SyncEngine};
//!
//! // One spec string pins down a whole reproducible run…
//! let report = run_spec("sync?n=2000&k=4&alpha=2.0&seed=1").unwrap();
//! assert!(report.outcome.plurality_preserved());
//!
//! // …and the typed path gives the same result.
//! let cfg = RunConfig::with_bias(2_000, 4, 2.0).unwrap().with_seed(1);
//! assert_eq!(SyncEngine::default().run(&cfg), report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cost;
mod protocol;
mod report;
mod spec;
mod wire;

pub use config::RunConfig;
pub use cost::Cost;
pub use protocol::{
    ClusterEngine, GossipEngine, LeaderEngine, PopulationEngine, Protocol, SyncEngine, UrnEngine,
};
pub use report::{
    ClusterTelemetry, GossipTelemetry, LeaderTelemetry, PopulationTelemetry, Report, SyncTelemetry,
    Telemetry, UrnTelemetry,
};
pub use spec::{run_spec, ProtocolEntry, Registry, Resolved, RunSpec, SpecError, COMMON_KEYS};
pub use wire::{to_wire, WIRE_HEADER};
