//! Property tests for the deterministic event queue: the total order the
//! engines rely on must hold for arbitrary schedules, and the calendar
//! queue must reproduce the binary heap's pop sequence *bit-identically* —
//! including `(time, seq)` tie-breaks — on adversarial schedules.

use plurality_sim::CalendarQueue;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One entry of the [`HeapQueue`] oracle.
struct HeapEntry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap and the earliest entry must
        // come out first. Times are finite (checked by `schedule`).
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference oracle: a binary-heap future-event list ordering events
/// by time and breaking ties by insertion order, with the calendar
/// queue's API and panics.
struct HeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    seq: u64,
    now: f64,
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    fn now(&self) -> f64 {
        self.now
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "schedule: event time must be finite");
        assert!(
            time >= self.now,
            "schedule: event time {time} is before current time {}",
            self.now
        );
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    fn pop_before(&mut self, limit: f64) -> Option<(f64, E)> {
        if self.heap.peek()?.time > limit {
            return None;
        }
        self.pop()
    }

    fn advance_to(&mut self, time: f64) {
        assert!(time.is_finite(), "advance_to: time must be finite");
        assert!(
            time >= self.now,
            "advance_to: time {time} is before current time {}",
            self.now
        );
        self.now = time;
    }
}

/// Drains both queues in lockstep, asserting identical `(time, event)`
/// pops. Event payloads are unique ids, so payload equality pins the
/// insertion-sequence tie-break, not just the timestamp order.
fn assert_drain_equal(
    cal: &mut CalendarQueue<u64>,
    heap: &mut HeapQueue<u64>,
) -> Result<(), TestCaseError> {
    loop {
        let (c, h) = (cal.pop(), heap.pop());
        prop_assert_eq!(c, h, "pop sequences diverged");
        if c.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pops_are_sorted_by_time_then_insertion(
        times in prop::collection::vec(0.0f64..1e6, 1..200),
    ) {
        let mut q = CalendarQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut popped: Vec<(f64, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "insertion order violated on tie");
            }
        }
        // Every event came out exactly once.
        let mut ids: Vec<usize> = popped.iter().map(|&(_, i)| i).collect();
        ids.sort_unstable();
        prop_assert!(ids.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn interleaved_scheduling_respects_now(
        seeds in prop::collection::vec(0.0f64..100.0, 1..50),
    ) {
        // Schedule a chain where each popped event schedules a follow-up
        // strictly later; `now` must never run backwards.
        let mut q = CalendarQueue::new();
        for (i, &t) in seeds.iter().enumerate() {
            q.schedule(t, i as u64);
        }
        let mut last = 0.0f64;
        let mut budget = 500usize;
        while let Some((t, id)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            if budget > 0 && id < 1_000 {
                budget -= 1;
                q.schedule(t + 0.5, id + 1_000);
            }
        }
    }

    #[test]
    fn len_tracks_schedules_and_pops(
        ops in prop::collection::vec(0.0f64..10.0, 0..100),
    ) {
        let mut q = CalendarQueue::new();
        for (i, &t) in ops.iter().enumerate() {
            q.schedule(t, i);
            prop_assert_eq!(q.len(), i + 1);
        }
        for i in (0..ops.len()).rev() {
            q.pop();
            prop_assert_eq!(q.len(), i);
        }
        prop_assert!(q.is_empty());
    }

    // --- Calendar ≡ heap equivalence (the heap oracle) ---

    #[test]
    fn calendar_matches_heap_on_random_schedules(
        times in prop::collection::vec(0.0f64..1e4, 1..400),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(t, i as u64);
            heap.schedule(t, i as u64);
        }
        assert_drain_equal(&mut cal, &mut heap)?;
    }

    #[test]
    fn calendar_matches_heap_on_dense_ties(
        // Timestamps drawn from a tiny discrete grid: most schedules
        // collide exactly, so nearly every pop exercises the seq
        // tie-break (the Latency::Deterministic regime).
        grid in prop::collection::vec(0u8..4, 2..300),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &g) in grid.iter().enumerate() {
            let t = f64::from(g) * 0.25;
            cal.schedule(t, i as u64);
            heap.schedule(t, i as u64);
        }
        assert_drain_equal(&mut cal, &mut heap)?;
    }

    #[test]
    fn calendar_matches_heap_under_interleaved_push_pop(
        // Each op: < 1000 = schedule at now + (op/10)·0.5, ≥ 1000 = pop.
        ops in prop::collection::vec(0u16..1400, 1..600),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut next_id = 0u64;
        for op in ops {
            if op < 1000 {
                // A coarse grid keeps exact ties frequent while the
                // range spans several calendar years.
                let delay = f64::from(op / 10) * 0.5;
                cal.schedule(cal.now() + delay, next_id);
                heap.schedule(heap.now() + delay, next_id);
                next_id += 1;
            } else {
                prop_assert_eq!(cal.pop(), heap.pop(), "mid-stream pop diverged");
                prop_assert_eq!(cal.len(), heap.len());
            }
        }
        assert_drain_equal(&mut cal, &mut heap)?;
    }

    #[test]
    fn calendar_matches_heap_with_pop_before(
        times in prop::collection::vec(0.0f64..100.0, 1..200),
        limits in prop::collection::vec(0.0f64..120.0, 1..50),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(t, i as u64);
            heap.schedule(t, i as u64);
        }
        for limit in limits {
            // A probe below the limit (usually a miss) must leave both
            // fronts where they were.
            prop_assert_eq!(cal.pop_before(limit - 5.0), heap.pop_before(limit - 5.0));
            prop_assert_eq!(cal.pop_before(limit), heap.pop_before(limit));
        }
        assert_drain_equal(&mut cal, &mut heap)?;
    }

    #[test]
    fn calendar_matches_heap_on_poisson_like_chains(
        // The engines' actual shape: a near-homogeneous event population
        // where every pop schedules follow-ups a small pseudo-random
        // delay ahead.
        seed in 0u64..1_000,
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut rand01 = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..64u64 {
            let t = rand01() * 2.0;
            cal.schedule(t, i);
            heap.schedule(t, i);
        }
        let mut next_id = 64u64;
        for _ in 0..2_000 {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h, "chain pop diverged");
            let Some((t, _)) = c else { break };
            // Two follow-ups with small delays keep the population near-
            // homogeneous like the ticks/ops/signals mix in the engines.
            for _ in 0..2 {
                if next_id < 64 + 2 * 2_000 && rand01() < 0.55 {
                    let delay = rand01() * 0.3;
                    cal.schedule(t + delay, next_id);
                    heap.schedule(t + delay, next_id);
                    next_id += 1;
                }
            }
        }
        assert_drain_equal(&mut cal, &mut heap)?;
    }
}

// --- The oracle's own contract ---

#[test]
fn heap_oracle_pops_in_time_order() {
    let mut q = HeapQueue::new();
    q.schedule(3.0, 3u32);
    q.schedule(1.0, 1u32);
    q.schedule(2.0, 2u32);
    assert_eq!(q.pop().unwrap().1, 1);
    assert_eq!(q.pop().unwrap().1, 2);
    assert_eq!(q.pop().unwrap().1, 3);
}

#[test]
fn heap_oracle_ties_break_by_insertion_order() {
    let mut q = HeapQueue::new();
    for i in 0..100u32 {
        q.schedule(1.0, i);
    }
    for i in 0..100u32 {
        assert_eq!(q.pop().unwrap().1, i);
    }
}

#[test]
fn heap_oracle_now_advances_with_pops() {
    let mut q = HeapQueue::new();
    q.schedule(5.0, ());
    q.schedule(7.0, ());
    assert_eq!(q.now(), 0.0);
    q.pop();
    assert_eq!(q.now(), 5.0);
    q.pop();
    assert_eq!(q.now(), 7.0);
}

#[test]
#[should_panic(expected = "before current time")]
fn heap_oracle_scheduling_in_the_past_panics() {
    let mut q = HeapQueue::new();
    q.schedule(2.0, ());
    q.pop();
    q.schedule(1.0, ());
}

#[test]
#[should_panic(expected = "finite")]
fn heap_oracle_scheduling_nan_panics() {
    let mut q = HeapQueue::new();
    q.schedule(f64::NAN, ());
}

#[test]
fn heap_oracle_len_and_empty_track_contents() {
    let mut q = HeapQueue::new();
    assert!(q.is_empty());
    q.schedule(1.0, ());
    q.schedule(2.0, ());
    assert_eq!(q.len(), 2);
    q.pop();
    assert_eq!(q.len(), 1);
    assert!(!q.is_empty());
    q.pop();
    assert!(q.is_empty());
}

#[test]
fn heap_oracle_pop_before_respects_the_limit() {
    let mut q = HeapQueue::new();
    q.schedule(1.0, "a");
    q.schedule(2.0, "b");
    assert_eq!(q.pop_before(0.5), None);
    assert_eq!(q.len(), 2, "a miss must not disturb the queue");
    assert_eq!(q.pop_before(1.0), Some((1.0, "a")), "limit is inclusive");
    assert_eq!(q.pop_before(10.0), Some((2.0, "b")));
    assert_eq!(q.pop_before(10.0), None);
}

#[test]
fn heap_oracle_pop_before_miss_keeps_order_intact() {
    let mut q = HeapQueue::new();
    q.schedule(5.0, 5u32);
    q.schedule(3.0, 3u32);
    assert_eq!(q.pop_before(1.0), None);
    q.schedule(2.0, 2u32);
    assert_eq!(q.pop(), Some((2.0, 2)));
    assert_eq!(q.pop(), Some((3.0, 3)));
    assert_eq!(q.pop(), Some((5.0, 5)));
}

#[test]
fn heap_oracle_advance_to_moves_now_only() {
    let mut q = HeapQueue::new();
    q.schedule(4.0, ());
    q.advance_to(3.0);
    assert_eq!(q.now(), 3.0);
    assert_eq!(q.len(), 1);
    assert_eq!(q.pop(), Some((4.0, ())));
}

#[test]
#[should_panic(expected = "before current time")]
fn heap_oracle_advance_to_rejects_the_past() {
    let mut q = HeapQueue::new();
    q.schedule(2.0, ());
    q.pop();
    q.advance_to(1.0);
}

// --- Tier 2: a long engine-shaped run against the oracle ---

/// 10⁶ operations in the async kernel's pattern, checked call by call
/// against the heap: an external tick chain races the queue head through
/// `pop_before` (a miss advances the clock with `advance_to`), each popped
/// event schedules 0–2 successors, and the pending population is steered
/// through targets from 16 to 8k so the bucket array keeps growing,
/// shrinking and retuning. Delays mix exponential and Erlang draws, a
/// coarse grid (exact time ties) and rare far-future outliers (the
/// direct-scan fallback).
#[test]
#[ignore = "tier 2: 10^6 queue operations"]
fn calendar_matches_heap_on_a_million_engine_shaped_operations() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) + 1) as f64 / (1u64 << 53) as f64
    };
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    let (mut ops, mut id, mut misses, mut hits) = (0u64, 0u64, 0u64, 0u64);
    let mut tick = 0.0f64;
    while ops < 1_000_000 {
        let target = [64usize, 8_192, 512, 16, 2_048][(ops / 50_000) as usize % 5];
        let popped = cal.pop_before(tick);
        assert_eq!(
            popped,
            heap.pop_before(tick),
            "pop_before diverged at op {ops}"
        );
        ops += 1;
        let (now, successors) = match popped {
            Some((t, _)) => {
                hits += 1;
                let len = cal.len();
                (
                    t,
                    usize::from(len <= target) + usize::from(len < target / 2),
                )
            }
            None => {
                misses += 1;
                cal.advance_to(tick);
                heap.advance_to(tick);
                ops += 1;
                let now = tick;
                tick += -0.01 * unit().ln();
                (now, usize::from(cal.len() < target))
            }
        };
        for _ in 0..successors {
            let u = unit();
            let delay = if u < 0.0005 {
                1e6 * unit()
            } else if u < 0.2 {
                0.25 * (unit() * 8.0).floor()
            } else if u < 0.6 {
                -unit().ln()
            } else {
                -(unit() * unit() * unit()).ln() / 3.0
            };
            cal.schedule(now + delay, id);
            heap.schedule(now + delay, id);
            id += 1;
            ops += 1;
        }
        assert_eq!(cal.len(), heap.len(), "len diverged at op {ops}");
    }
    loop {
        let (c, h) = (cal.pop(), heap.pop());
        assert_eq!(c, h, "drain diverged");
        if c.is_none() {
            break;
        }
    }
    assert!(
        hits > 100_000 && misses > 100_000,
        "{hits} hits, {misses} misses"
    );
    assert!(
        cal.profile().resizes > 50,
        "{} resizes",
        cal.profile().resizes
    );
}
