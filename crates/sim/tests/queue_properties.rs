//! Property tests for the deterministic event queue: the total order the
//! engines rely on must hold for arbitrary schedules, and the calendar
//! queue must reproduce the binary heap's pop sequence *bit-identically* —
//! including `(time, seq)` tie-breaks — on adversarial schedules.

use plurality_sim::{CalendarQueue, HeapQueue};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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
                q.schedule_in(0.5, id + 1_000);
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
                cal.schedule_in(delay, next_id);
                heap.schedule_in(delay, next_id);
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
            prop_assert_eq!(cal.pop_before(limit), heap.pop_before(limit));
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
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
