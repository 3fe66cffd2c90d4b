//! The decentralized multi-leader protocol (Section 4).
//!
//! Instead of one designated leader, the system first partitions almost all
//! nodes into clusters of a configurable participation size (the paper's
//! `log^{c−1} n`, Theorem 27), with one leader per cluster. Cluster leaders
//! then jointly emulate the single-leader Algorithm 3: each runs the
//! `(generation, phase)` state machine of Algorithm 5 over its own members'
//! signals, with an extra *sleeping* phase absorbing inter-cluster
//! de-synchronization (Proposition 31, Figure 2), while a constant-time
//! broadcast keeps all leaders within `O(1)` time units of each other
//! (Theorem 28). Theorem 26: the same convergence bounds as the
//! single-leader case, without any central component.

mod engine;
mod leader;
mod node;

pub use engine::{phase_spread, ClusterConfig, ClusterResult, PhaseLogEntry, MIN_NODES};
pub use leader::{ClusterLeaderParams, ClusterLeaderState, ClusterPhase, ClusterTransition};
pub use node::{
    decide_member, finished_exchange, FinishedExchange, MemberDecision, MemberSample, MemberView,
};
