//! # plurality-core
//!
//! Reproduction of the consensus protocols from *Positive Aging Admits Fast
//! Asynchronous Plurality Consensus* (Bankhamer, Elsässer, Kaaser, Krnc;
//! PODC 2020 / arXiv 1806.02596):
//!
//! * [`sync`] — the synchronous generation protocol (Algorithm 1,
//!   Theorem 1).
//! * [`leader`] — the asynchronous single-leader protocol in the Poisson
//!   clock model with edge latencies (Algorithms 2 and 3, Theorem 13).
//! * [`cluster`] — the fully decentralized multi-leader protocol:
//!   clustering (Theorem 27), constant-time leader broadcast (Theorem 28),
//!   and the clustered consensus phase (Algorithms 4 and 5, Theorem 26).
//! * [`round`] — the round kernel the synchronous protocol shares with
//!   the gossip and population-protocol baselines.
//!
//! Shared vocabulary lives at the crate root: [`Opinion`],
//! [`OpinionCounts`], [`InitialAssignment`], [`GenerationTable`],
//! [`RunOutcome`], [`ConvergenceTracker`].
//!
//! ## Quick start
//!
//! ```
//! use plurality_core::sync::SyncConfig;
//! use plurality_core::InitialAssignment;
//!
//! // 2000 nodes, 4 opinions, initial bias 2.0 towards opinion 0.
//! let assignment = InitialAssignment::with_bias(2_000, 4, 2.0).unwrap();
//! let result = SyncConfig::new(assignment).with_seed(1).run();
//! assert!(result.outcome.plurality_preserved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod arrivals;
pub mod cluster;
mod genstate;
mod kernel;
pub mod leader;
mod opinion;
mod outcome;
pub mod round;
pub mod signalflow;
pub mod sync;

pub use genstate::GenerationTable;
pub use opinion::{InitialAssignment, Opinion, OpinionCounts};
pub use outcome::{ConvergenceTracker, GenerationBirth, RecordLevel, RunOutcome};
