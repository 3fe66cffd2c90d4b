//! The leader's state machine (Algorithm 3).
//!
//! The leader holds two public values: `gen`, the highest generation
//! currently allowed in the system (initially 1), and `prop`, whether nodes
//! may propagate into generation `gen` (initially false, i.e. two-choices
//! only). It never acts on a clock — it only reacts to incoming signals:
//!
//! * a **0-signal** (sent by every node at every tick) increments a counter
//!   `t`; when `t` reaches `C3·n` the two-choices window closes and
//!   propagation opens (`prop ← true`);
//! * a **gen-signal** `i` (sent by a node that promoted itself to
//!   generation `i`) increments `gen_size` when `i` equals the current
//!   highest generation; once `gen_size ≥ ⌈n/2⌉` (and the generation cap is
//!   not yet reached) the leader births the next generation: `gen += 1`,
//!   `t ← 0`, `prop ← false`.

/// A signal sent by a node to the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Sent at every tick of every node; drives the leader's tick counting.
    Zero,
    /// Sent by a node that just promoted itself to the given generation.
    Generation(u32),
}

/// Observable state changes of the leader, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeaderTransition {
    /// The two-choices window for the current generation closed
    /// (`prop ← true`).
    PropagationEnabled {
        /// The generation whose propagation phase opened.
        generation: u32,
    },
    /// A new generation was allowed (`gen ← generation`,
    /// `prop ← false`).
    GenerationAllowed {
        /// The new highest allowed generation.
        generation: u32,
    },
}

/// Fixed thresholds of the leader (derived from `n`, `C1` and the bias; see
/// [`crate::leader::LeaderConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderParams {
    /// Number of 0-signals after a generation birth before `prop ← true`
    /// (the paper's `C3·n` with `C3 = C1(2 + log n/√n)`, Proposition 16).
    pub zero_signal_threshold: u64,
    /// Number of gen-signals for the current generation before the next one
    /// is allowed (the paper's `⌈n/2⌉`).
    pub gen_size_threshold: u64,
    /// Maximum generation ever allowed (the paper's `⌈log log_α n⌉`).
    pub generation_cap: u32,
}

/// The leader of Algorithm 3.
///
/// # Examples
///
/// ```
/// use plurality_core::leader::{LeaderParams, LeaderState, Signal};
/// let mut leader = LeaderState::new(LeaderParams {
///     zero_signal_threshold: 3,
///     gen_size_threshold: 2,
///     generation_cap: 5,
/// });
/// assert_eq!(leader.generation(), 1);
/// assert!(!leader.propagation());
/// for _ in 0..3 {
///     leader.on_signal(Signal::Zero);
/// }
/// assert!(leader.propagation()); // two-choices window closed
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderState {
    generation: u32,
    propagation: bool,
    zero_count: u64,
    gen_size: u64,
    params: LeaderParams,
}

impl LeaderState {
    /// Creates a leader in its initial state (`gen = 1`, `prop = false`).
    ///
    /// # Panics
    ///
    /// Panics if any threshold is zero.
    pub fn new(params: LeaderParams) -> Self {
        assert!(
            params.zero_signal_threshold > 0,
            "zero_signal_threshold must be positive"
        );
        assert!(
            params.gen_size_threshold > 0,
            "gen_size_threshold must be positive"
        );
        assert!(params.generation_cap >= 1, "generation_cap must be ≥ 1");
        Self {
            generation: 1,
            propagation: false,
            zero_count: 0,
            gen_size: 0,
            params,
        }
    }

    /// The highest generation currently allowed.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Whether propagation into the highest generation is allowed.
    pub fn propagation(&self) -> bool {
        self.propagation
    }

    /// The number of 0-signals counted since the last generation birth.
    pub fn zero_count(&self) -> u64 {
        self.zero_count
    }

    /// The number of promotions into the current generation seen so far.
    pub fn gen_size(&self) -> u64 {
        self.gen_size
    }

    /// The configured thresholds.
    pub fn params(&self) -> LeaderParams {
        self.params
    }

    /// Whether the leader can never transition again: the generation cap
    /// is reached *and* propagation for it is open. From here a 0-signal
    /// only bumps a counter that is never read again (it is reset before
    /// the next threshold comparison could matter, and no birth can reset
    /// it), and a gen-signal cannot advance past the cap — so signals sent
    /// to a terminal leader are unobservable, and the engine stops
    /// scheduling them.
    pub fn is_terminal(&self) -> bool {
        self.generation >= self.params.generation_cap && self.propagation
    }

    /// Handles one incoming signal; returns the transition it caused, if
    /// any.
    ///
    /// # Panics
    ///
    /// Panics if a gen-signal exceeds the currently allowed generation
    /// (impossible in a correct execution: nodes can never outrun the
    /// leader).
    pub fn on_signal(&mut self, signal: Signal) -> Option<LeaderTransition> {
        match signal {
            Signal::Zero => self.on_zero_batch(1),
            Signal::Generation(i) => self.on_generation_batch(i, 1),
        }
    }

    /// Equivalent to `count` successive `on_signal(Signal::Zero)` calls,
    /// in O(1): at most one transition (the propagation opening) can fire
    /// per generation window, so batching loses nothing. The engine
    /// counts each whole window of 0-signals at once at its crossing (a
    /// jump chain's or an arrival counter's), landing exactly on the
    /// threshold.
    pub fn on_zero_batch(&mut self, count: u64) -> Option<LeaderTransition> {
        self.zero_count += count;
        if !self.propagation && self.zero_count >= self.params.zero_signal_threshold {
            self.propagation = true;
            return Some(LeaderTransition::PropagationEnabled {
                generation: self.generation,
            });
        }
        None
    }

    /// Equivalent to `count` successive `on_signal(Signal::Generation(i))`
    /// calls, in O(1). At most one transition can result: if the batch
    /// crosses the gen-size threshold the generation is born immediately
    /// and the remaining signals of the batch — now addressed to the
    /// *previous* generation — are stale and ignored, exactly as they
    /// would be one at a time. The aggregate (`-mf`) leader engine counts
    /// whole pools of promotions per step through this path.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the currently allowed generation.
    pub fn on_generation_batch(&mut self, i: u32, count: u64) -> Option<LeaderTransition> {
        assert!(
            i <= self.generation,
            "gen-signal {i} exceeds allowed generation {}",
            self.generation
        );
        if i != self.generation || count == 0 {
            return None;
        }
        self.gen_size += count;
        if self.gen_size >= self.params.gen_size_threshold
            && self.generation < self.params.generation_cap
        {
            self.generation += 1;
            self.zero_count = 0;
            self.gen_size = 0;
            self.propagation = false;
            return Some(LeaderTransition::GenerationAllowed {
                generation: self.generation,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LeaderParams {
        LeaderParams {
            zero_signal_threshold: 5,
            gen_size_threshold: 3,
            generation_cap: 3,
        }
    }

    #[test]
    fn initial_state() {
        let leader = LeaderState::new(params());
        assert_eq!(leader.generation(), 1);
        assert!(!leader.propagation());
        assert_eq!(leader.zero_count(), 0);
        assert_eq!(leader.gen_size(), 0);
    }

    #[test]
    fn zero_signals_open_propagation_once() {
        let mut leader = LeaderState::new(params());
        for i in 0..4 {
            assert_eq!(leader.on_signal(Signal::Zero), None, "at signal {i}");
        }
        assert_eq!(
            leader.on_signal(Signal::Zero),
            Some(LeaderTransition::PropagationEnabled { generation: 1 })
        );
        // Further zero signals do nothing.
        assert_eq!(leader.on_signal(Signal::Zero), None);
        assert!(leader.propagation());
    }

    #[test]
    fn gen_signals_birth_next_generation() {
        let mut leader = LeaderState::new(params());
        assert_eq!(leader.on_signal(Signal::Generation(1)), None);
        assert_eq!(leader.on_signal(Signal::Generation(1)), None);
        let t = leader.on_signal(Signal::Generation(1));
        assert_eq!(
            t,
            Some(LeaderTransition::GenerationAllowed { generation: 2 })
        );
        assert_eq!(leader.generation(), 2);
        assert!(!leader.propagation());
        assert_eq!(leader.zero_count(), 0);
        assert_eq!(leader.gen_size(), 0);
    }

    #[test]
    fn stale_gen_signals_are_ignored() {
        let mut leader = LeaderState::new(params());
        for _ in 0..3 {
            leader.on_signal(Signal::Generation(1));
        }
        assert_eq!(leader.generation(), 2);
        // Signals for the old generation no longer count.
        for _ in 0..10 {
            assert_eq!(leader.on_signal(Signal::Generation(1)), None);
        }
        assert_eq!(leader.generation(), 2);
        assert_eq!(leader.gen_size(), 0);
    }

    #[test]
    fn generation_cap_is_respected() {
        let mut leader = LeaderState::new(params());
        for gen in 1..3u32 {
            for _ in 0..3 {
                leader.on_signal(Signal::Generation(gen));
            }
        }
        assert_eq!(leader.generation(), 3); // cap reached
        for _ in 0..10 {
            leader.on_signal(Signal::Generation(3));
        }
        assert_eq!(leader.generation(), 3, "cap exceeded");
    }

    #[test]
    fn generation_birth_resets_zero_counter() {
        let mut leader = LeaderState::new(params());
        for _ in 0..5 {
            leader.on_signal(Signal::Zero);
        }
        assert!(leader.propagation());
        for _ in 0..3 {
            leader.on_signal(Signal::Generation(1));
        }
        assert!(!leader.propagation(), "prop must reset on birth");
        assert_eq!(leader.zero_count(), 0);
        // Needs the full window again.
        for _ in 0..4 {
            leader.on_signal(Signal::Zero);
        }
        assert!(!leader.propagation());
        leader.on_signal(Signal::Zero);
        assert!(leader.propagation());
    }

    #[test]
    fn terminal_state_is_absorbing() {
        let mut leader = LeaderState::new(params());
        assert!(!leader.is_terminal());
        // Advance to the cap.
        for gen in 1..3u32 {
            for _ in 0..3 {
                leader.on_signal(Signal::Generation(gen));
            }
        }
        assert_eq!(leader.generation(), 3);
        assert!(!leader.is_terminal(), "propagation still closed");
        for _ in 0..5 {
            leader.on_signal(Signal::Zero);
        }
        assert!(leader.is_terminal());
        // No signal can cause a transition any more.
        for _ in 0..20 {
            assert_eq!(leader.on_signal(Signal::Zero), None);
            assert_eq!(leader.on_signal(Signal::Generation(3)), None);
        }
        assert!(leader.is_terminal());
    }

    #[test]
    fn zero_batch_matches_iterated_signals() {
        let mut batched = LeaderState::new(params());
        let mut iterated = LeaderState::new(params());
        for count in [2u64, 2, 3, 10] {
            let b = batched.on_zero_batch(count);
            let mut i = None;
            for _ in 0..count {
                i = iterated.on_signal(Signal::Zero).or(i);
            }
            assert_eq!(b, i);
            assert_eq!(batched, iterated);
        }
        // A birth resets the window for both.
        for _ in 0..3 {
            batched.on_signal(Signal::Generation(1));
            iterated.on_signal(Signal::Generation(1));
        }
        assert_eq!(
            batched.on_zero_batch(5),
            Some(LeaderTransition::PropagationEnabled { generation: 2 })
        );
        assert_eq!(batched.zero_count(), 5);
    }

    #[test]
    fn generation_batch_matches_iterated_signals() {
        let mut batched = LeaderState::new(params());
        let mut iterated = LeaderState::new(params());
        // Crossing the threshold mid-batch births the generation and
        // silently drops the now-stale tail of the batch.
        let b = batched.on_generation_batch(1, 7);
        let mut i = None;
        for _ in 0..7 {
            // Iterated signals beyond the birth address the old
            // generation and are ignored.
            i = iterated.on_signal(Signal::Generation(1)).or(i);
        }
        assert_eq!(b, i);
        assert_eq!(batched, iterated);
        assert_eq!(batched.generation(), 2);
        assert_eq!(batched.gen_size(), 0);
        // Stale batches are no-ops.
        assert_eq!(batched.on_generation_batch(1, 100), None);
        assert_eq!(batched.gen_size(), 0);
        // Sub-threshold batches accumulate.
        assert_eq!(batched.on_generation_batch(2, 2), None);
        assert_eq!(batched.gen_size(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds allowed generation")]
    fn future_generation_batch_panics() {
        let mut leader = LeaderState::new(params());
        leader.on_generation_batch(3, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds allowed generation")]
    fn future_gen_signal_panics() {
        let mut leader = LeaderState::new(params());
        leader.on_signal(Signal::Generation(2));
    }
}
