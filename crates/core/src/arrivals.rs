//! Exact per-scope counting of 0-signal arrivals.
//!
//! A leader only counts its 0-signals against a threshold (see
//! [`crate::signalflow`]), so of all the arrivals in a counting window
//! only the one that reaches the threshold changes any state. For
//! exponential travel the kernel draws that arrival's time from a jump
//! chain; for any other travel law it can still find it exactly without
//! queueing every 0-signal. Each scope (the single leader, or one cluster)
//! keeps the arrival keys of its 0-signals in flight, and reports only the
//! key of the armed window's κ-th arrival — its *crossing* — which the
//! kernel races against the event queue and the tick chains.
//!
//! An [`Arrival`] key orders exactly as the event queue orders its
//! entries: by time, then by the queue's insertion sequence number, which
//! a counted 0-signal takes at send time just as a queued one did. So
//! arrivals that share a time (deterministic latency, or float rounding)
//! count in send order, and an arrival at the crossing time sent after the
//! κ-th one counts toward the next window.
//!
//! A counter is in one of three states:
//!
//! * **disarmed** — arrivals are kept, because a later window may count
//!   them, and pruned once they lie behind the kernel's position;
//! * **counting** — fewer than κ arrivals have been sent since the window
//!   armed: each send is one `Vec` push, and nothing is ordered;
//! * **closing** — all κ are in flight or arrived: the ones still in
//!   flight sit in a max-heap whose top is the crossing. A later send
//!   that arrives before the top displaces it, and the displaced arrival
//!   counts toward the next window.
//!
//! Pruning keeps at most about twice the arrivals in flight, so a send
//! costs amortized O(1) while counting, and O(log m) heap work only in the
//! last travel time before a crossing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Below this many kept arrivals a counter never prunes.
const PRUNE_FLOOR: usize = 64;

/// A `(time, seq)` event key: a 0-signal's arrival, or the kernel's
/// position — every key below it has already happened.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub time: f64,
    pub seq: u64,
}

impl Arrival {
    /// The key after every other: no crossing.
    pub const NEVER: Self = Self {
        time: f64::INFINITY,
        seq: u64::MAX,
    };
}

impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Arrival {}

/// The 0-signal arrivals of one scope, counted against its armed window.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArrivalCounter {
    /// Kept arrivals outside `closing`: all of them while disarmed or
    /// counting, the ones beyond the crossing while closing.
    flight: Vec<Arrival>,
    /// Closing: the window's arrivals still in flight; the top is the
    /// crossing.
    closing: BinaryHeap<Arrival>,
    /// Counting: sends still needed before the window's κ-th arrival is
    /// in flight (0 otherwise).
    need: u64,
    armed: bool,
    /// `flight` length at which the next send prunes.
    prune_at: usize,
}

impl ArrivalCounter {
    /// The armed window's crossing, once its κ-th arrival is in flight.
    #[inline]
    pub fn crossing(&self) -> Option<Arrival> {
        self.closing.peek().copied()
    }

    /// Records an arrival sent at position `at` (so `arrival ≥ at`).
    /// Returns the crossing when this arrival made it known or moved it
    /// earlier.
    #[inline]
    pub fn push(&mut self, arrival: Arrival, at: Arrival) -> Option<Arrival> {
        if let Some(&top) = self.closing.peek() {
            if arrival >= top {
                self.flight.push(arrival);
                return None;
            }
            // Displace the top; it counts toward the next window.
            *self.closing.peek_mut().expect("closing") = arrival;
            self.flight.push(top);
            return self.crossing();
        }
        self.flight.push(arrival);
        if self.armed {
            self.need -= 1;
            if self.need == 0 {
                // The window's κ arrivals are all sent: the ones already
                // arrived are counted, the rest close the window.
                self.prune(at);
                self.closing.extend(self.flight.drain(..));
                return self.crossing();
            }
        }
        if self.flight.len() >= self.prune_at {
            self.prune(at);
        }
        None
    }

    /// Arms a fresh window at position `at`: its crossing is the κ-th
    /// arrival after `at`, counting those already in flight.
    pub fn arm(&mut self, at: Arrival, kappa: u64) {
        debug_assert!(kappa > 0, "crossings are handled before re-arming");
        self.disarm();
        self.prune(at);
        self.armed = true;
        let in_flight = self.flight.len() as u64;
        if in_flight < kappa {
            self.need = kappa - in_flight;
            return;
        }
        let kappa = kappa as usize;
        if self.flight.len() > kappa {
            self.flight.select_nth_unstable(kappa - 1);
        }
        self.closing.extend(self.flight.drain(..kappa));
    }

    /// Disarms the window: arrivals are kept but none are counted.
    pub fn disarm(&mut self) {
        self.armed = false;
        self.need = 0;
        self.flight.extend(self.closing.drain());
    }

    /// Drops the kept arrivals that lie behind position `at`.
    fn prune(&mut self, at: Arrival) {
        self.flight.retain(|a| *a >= at);
        self.prune_at = (2 * self.flight.len()).max(PRUNE_FLOOR);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_dist::rng::Xoshiro256PlusPlus;
    use rand::Rng;

    fn key(time: f64, seq: u64) -> Arrival {
        Arrival { time, seq }
    }

    /// The position just after the event with key `k`.
    fn after(k: Arrival) -> Arrival {
        key(k.time, k.seq + 1)
    }

    #[test]
    fn deterministic_ties_count_in_send_order() {
        // Deterministic latency 1: sends at times 0, 0.5 and 1 (three per
        // instant, in seq order) arrive three each at 1, 1.5 and 2. A
        // window of κ = 4 armed at 0 crosses at the first arrival at 1.5,
        // and the two later arrivals at 1.5 count toward the next window.
        let mut c = ArrivalCounter::default();
        c.arm(key(0.0, 0), 4);
        let mut seq = 0;
        for t in [0.0, 0.5, 1.0] {
            for _ in 0..3 {
                c.push(key(t + 1.0, seq), key(t, seq));
                seq += 1;
            }
        }
        let first = c.crossing().expect("κ arrivals sent");
        assert_eq!(first, key(1.5, 3));
        // The next window, armed at the crossing, counts the 1.5 arrivals
        // sent after it: κ = 3 crosses at the first arrival at 2.
        c.arm(after(first), 3);
        assert_eq!(c.crossing(), Some(key(2.0, 6)));
        // A window armed between two same-time arrivals counts only the
        // later one.
        c.arm(key(1.5, 5), 2);
        assert_eq!(c.crossing(), Some(key(2.0, 6)));
        // A disarmed counter keeps its arrivals for a later window.
        c.disarm();
        assert_eq!(c.crossing(), None);
        c.arm(key(1.5, 5), 4);
        assert_eq!(c.crossing(), Some(key(2.0, 8)));
        c.arm(key(1.5, 5), 5);
        assert_eq!(c.crossing(), None, "only four arrivals are left");
    }

    #[test]
    fn an_earlier_arrival_displaces_the_crossing() {
        let mut c = ArrivalCounter::default();
        c.arm(key(0.0, 0), 2);
        assert_eq!(c.push(key(5.0, 0), key(0.0, 0)), None);
        assert_eq!(c.push(key(9.0, 1), key(0.0, 1)), Some(key(9.0, 1)));
        // Arrives at 7, before the crossing: it is now the 2nd arrival.
        assert_eq!(c.push(key(7.0, 2), key(1.0, 2)), Some(key(7.0, 2)));
        // Arrives after the crossing: no change.
        assert_eq!(c.push(key(8.0, 3), key(2.0, 3)), None);
        // The displaced arrival at 9 counts toward the next window.
        c.arm(after(key(7.0, 2)), 2);
        assert_eq!(c.crossing(), Some(key(9.0, 1)));
    }

    /// Brute force: the κ-th smallest arrival key at or after `at`.
    fn brute(sent: &[Arrival], at: Arrival, kappa: u64) -> Option<Arrival> {
        let mut later: Vec<Arrival> = sent.iter().copied().filter(|a| *a >= at).collect();
        later.sort();
        later.get(kappa as usize - 1).copied()
    }

    #[test]
    fn crossings_match_brute_force_under_ties_and_rearming() {
        // Sends on a coarse time grid with latencies from a small set, so
        // equal arrival times are common; windows re-arm at crossings and
        // at arbitrary positions, as births and leader syncs re-arm them.
        for seed in 0..40 {
            let mut rng = Xoshiro256PlusPlus::from_u64(seed);
            let mut c = ArrivalCounter::default();
            let mut sent = Vec::new();
            let (mut now, mut seq) = (0.0f64, 0u64);
            let mut window: Option<(Arrival, u64)> = None;
            for _ in 0..3_000 {
                let at = key(now, seq);
                if let Some(cross) = c.crossing() {
                    let (armed_at, kappa) = window.expect("a crossing needs a window");
                    assert_eq!(Some(cross), brute(&sent, armed_at, kappa), "seed {seed}");
                    if cross < at {
                        // The crossing happens first: re-arm or disarm there.
                        if rng.gen_bool(0.7) {
                            let k = rng.gen_range(1..40);
                            c.arm(after(cross), k);
                            window = Some((after(cross), k));
                        } else {
                            c.disarm();
                            window = None;
                        }
                        continue;
                    }
                } else if let Some((armed_at, kappa)) = window {
                    // Counting: fewer than κ arrivals sent since arming.
                    assert_eq!(brute(&sent, armed_at, kappa), None, "seed {seed}");
                }
                match rng.gen_range(0..20u32) {
                    0 => {
                        let k = rng.gen_range(1..40);
                        c.arm(at, k);
                        window = Some((at, k));
                    }
                    1 => {
                        c.disarm();
                        window = None;
                    }
                    _ => {
                        let lat = [0.0, 0.25, 0.5, 1.0, 1.0, 2.0][rng.gen_range(0..6usize)];
                        let a = key(now + lat, seq);
                        sent.push(a);
                        seq += 1;
                        c.push(a, at);
                    }
                }
                if rng.gen_bool(0.3) {
                    now += 0.25;
                }
            }
        }
    }
}
