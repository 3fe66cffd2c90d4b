//! # plurality-sim
//!
//! Deterministic discrete-event simulation substrate for the `plurality`
//! workspace.
//!
//! The asynchronous protocols of the paper (single-leader Algorithm 2/3 and
//! the clustered multi-leader Algorithm 4/5) are executed against this
//! engine: a [`CalendarQueue`] orders ticks, channel completions and signal
//! arrivals on a continuous time axis; [`PoissonClock`] produces the
//! unit-rate tick processes the model postulates; [`Series`] and
//! [`EventLog`] capture the observables the experiment harness turns into
//! the paper's figures.
//!
//! Determinism is a design requirement: a simulation run is a pure function
//! of its `u64` seed (see `plurality_dist::rng`), and the queue breaks
//! timestamp ties by insertion order.
//!
//! The [`CalendarQueue`] (O(1) amortized bucketed calendar queue) keeps
//! its entries in one slab of 32-byte keys plus a parallel payload array,
//! with each bucket an intrusive linked list through the keys, so its
//! steady state allocates nothing and its scans read no payloads. It pops
//! in the bit-identical order of a binary heap keyed on `(time, seq)`; that
//! heap lives in `tests/queue_properties.rs` as the reference oracle of the
//! equivalence property tests.
//!
//! ## Example
//!
//! ```
//! use plurality_sim::{CalendarQueue, PoissonClock};
//! use plurality_dist::rng::Xoshiro256PlusPlus;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(usize) }
//!
//! let mut rng = Xoshiro256PlusPlus::from_u64(7);
//! let clock = PoissonClock::unit_rate();
//! let mut queue = CalendarQueue::new();
//! queue.schedule(clock.next_tick(0.0, &mut rng), Ev::Tick(0));
//! let (t, Ev::Tick(node)) = queue.pop().unwrap();
//! assert_eq!(node, 0);
//! assert!(t > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod queue;

pub use clock::PoissonClock;
pub use metrics::{EventLog, Series};
pub use queue::{CalendarQueue, QueueProfile, ResizeRecord};
