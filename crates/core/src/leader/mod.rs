//! The asynchronous single-leader protocol (Section 3, Algorithms 2 + 3).
//!
//! Nodes carry unit-rate Poisson clocks; opening a channel costs a random
//! edge latency. A designated leader stores only the highest allowed
//! generation and a propagation bit, and advances them by counting incoming
//! signals. Theorem 13: for `k ≪ √n` and bias
//! `α > 1 + (k log n/√n)·log k`, all but a `1/polylog n` fraction of nodes
//! hold the plurality opinion after `O(log log_α k · log k + log log n)`
//! time whp., and all nodes after an additional `O(log n)` time.

mod engine;
mod node;
mod state;

pub use engine::{GenerationPhase, LeaderConfig, LeaderResult, MIN_NODES};
pub use node::{apply, decide, NodeDecision, NodeState, NodeView, SampleView};
pub use state::{LeaderParams, LeaderState, LeaderTransition, Signal};
