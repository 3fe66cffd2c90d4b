//! Deterministic future-event queue.
//!
//! The asynchronous protocols are executed as discrete-event simulations:
//! ticks, channel completions, and signal arrivals are events scheduled at
//! continuous timestamps. [`CalendarQueue`] orders events by `(time,
//! insertion sequence)`, so simultaneous events (a probability-zero
//! occurrence with continuous clocks, but possible with deterministic
//! latencies) are resolved in insertion order — making every run a pure
//! function of the seed.
//!
//! It is a bucketed calendar queue (Brown 1988) tuned for the
//! near-homogeneous Poisson event populations the engines generate: O(1)
//! amortized push and pop, lazy power-of-two bucket resizing, and exactly
//! the pop order of a binary heap keyed on `(time, seq)` (see the
//! determinism argument on the type). That heap survives only as the
//! reference oracle of the equivalence property tests in
//! `tests/queue_properties.rs`.

/// Always-on operation counters of the queue —
/// plain integer increments on paths that already mutate the queue, so
/// they cost nothing measurable and consume no RNG. Engines surface
/// them through their profiling hooks so `perf_snapshot` can localize a
/// regression (more pops? resize churn?) instead of only seeing wall
/// time move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueProfile {
    /// Events scheduled.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Bucket-array resizes.
    pub resizes: u64,
}

/// One calendar-queue resize, timestamped with the simulated clock —
/// recorded only when tracing is opted in via
/// [`CalendarQueue::set_trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResizeRecord {
    /// Simulated time (`now`) when the resize fired.
    pub at: f64,
    /// New bucket count.
    pub buckets: u64,
    /// New bucket width.
    pub width: f64,
}

/// Smallest bucket array the calendar queue keeps (a power of two).
const MIN_BUCKETS: usize = 16;

/// When the *average* pop scan since the last resize examines more than
/// this many buckets + entries, the width is mistuned (the live event
/// population drifted away from what was measured at the last resize) and
/// the queue retunes. A well-tuned width keeps the average near
/// `1 + TARGET_OCCUPANCY`, so this threshold only trips on genuine drift,
/// not on Poisson fluctuation of individual bucket sizes.
const SCAN_TUNE_THRESHOLD: u64 = 8;

/// Bucket width is sized so that the *front* of the event population —
/// where every pop scans — holds about this many entries per bucket:
/// `width = TARGET_OCCUPANCY × (mean sim-time gap between pops)`, since by
/// Little's law the density of pending events at the current time is one
/// per pop gap. Sizing from the pop rate rather than from the total span
/// is what makes skewed populations (exponential residence times pile
/// events near `now` with a long sparse tail) scan O(1) at the front.
const TARGET_OCCUPANCY: f64 = 2.0;

/// A measurement window triggers a retune when the width its pop rate
/// calls for differs from the width in force by more than this factor in
/// either direction — catching widths tuned during a transient (ramp-up,
/// rate shift) that have since gone stale but keep scans just under
/// [`SCAN_TUNE_THRESHOLD`].
const WIDTH_DRIFT: f64 = 1.5;

/// "No slot": the end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// The ordering key of one slab slot. `vb` caches the entry's *virtual
/// bucket* `⌊time / width⌋` under the width in force when the entry was
/// (re-)bucketed, so the pop-time year scan compares exact integers instead
/// of re-deriving bucket years from floats. `next` links the slot into its
/// bucket's list while it is live, and into the free list once popped.
/// 32 bytes: a scan reads keys only, never the event payloads.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: f64,
    seq: u64,
    vb: u64,
    next: u32,
}

/// A bucketed calendar queue (Brown 1988) popping in exactly the
/// `(time, seq)` order of a binary heap.
///
/// Timestamps map to *virtual buckets* `vb = ⌊time / width⌋`; virtual
/// bucket `vb` lives in physical bucket `vb mod nbuckets` (nbuckets a
/// power of two, so the mod is a mask). A pop scans virtual buckets from a
/// cursor; if one full "year" (`nbuckets` virtual buckets) holds nothing,
/// it falls back to a direct scan of all entries. The bucket count and
/// width are retuned lazily: the array grows when occupancy exceeds 2
/// entries per bucket, shrinks below 1/8, and a resize also fires when
/// the average pop scan drifts past `SCAN_TUNE_THRESHOLD`. Each resize
/// re-derives the width from the observed pop rate
/// (`TARGET_OCCUPANCY` pop gaps per bucket), so steady-state operations
/// touch O(1) entries without any tuning input from the caller.
///
/// # Storage
///
/// Entries live in one slab of slots: a 32-byte key array (`time`, `seq`,
/// `vb`, `next`) and a parallel payload array. A physical bucket is the
/// head index of an intrusive singly linked list threaded through the
/// keys' `next` fields, and popped slots go onto a free list threaded
/// through the same field. So a scan reads keys only, a steady state
/// allocates nothing, and a resize relinks the live slots in place,
/// allocating only the new head array.
///
/// # Determinism
///
/// The pop order is exactly the heap's, not merely equivalent in law:
///
/// * `t ↦ (t·(1/width)) as u64` is monotone (multiplication by a positive
///   finite constant and the saturating float→int cast both preserve
///   order), so every entry in the first non-empty virtual bucket precedes
///   every entry in later ones, and *equal* timestamps always share a
///   virtual bucket — the `(time, seq)` minimum inside that bucket is the
///   global minimum, with the insertion-order tie-break intact. That
///   minimum does not depend on the order of a bucket's list, so neither
///   the pop order nor any resize decision does.
/// * The cursor only ever commits to the virtual bucket of an actually
///   popped entry (never during a [`CalendarQueue::pop_before`] miss), and
///   `schedule` rejects past timestamps, so no entry can land below the
///   cursor and be skipped.
///
/// The property tests in `tests/queue_properties.rs` assert bit-identical
/// pop sequences against a binary-heap oracle on adversarial schedules
/// (dense ties, interleaved push/pop, resize churn).
///
/// # Examples
///
/// ```
/// use plurality_sim::CalendarQueue;
/// let mut q = CalendarQueue::new();
/// q.schedule(2.0, "late");
/// q.schedule(1.0, "early");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    /// Slot keys; live slots are linked into `heads`, the rest into
    /// `free`.
    keys: Vec<Key>,
    /// Slot payloads, parallel to `keys` (`None` on free slots).
    events: Vec<Option<E>>,
    /// Head slot of each physical bucket's list; length is a power of two.
    heads: Vec<u32>,
    /// Head of the free-slot list.
    free: u32,
    /// `heads.len() - 1`, for masking virtual bucket numbers.
    mask: u64,
    /// Current bucket width in time units.
    width: f64,
    /// `1.0 / width`, the factor actually used to map times to buckets
    /// (one consistent formula everywhere, so cached `vb`s never disagree
    /// with fresh ones).
    inv_width: f64,
    len: usize,
    seq: u64,
    now: f64,
    /// Virtual bucket of the last popped entry: the year scan starts here.
    /// Invariant: no pending entry has a virtual bucket below the cursor.
    cursor: u64,
    /// Pops since the last resize — rate-limits drift-triggered retuning
    /// and, with `last_tune_now`, measures the pop rate the width is
    /// tuned from.
    pops_since_tune: usize,
    /// Total buckets + entries examined by pop scans since the last
    /// resize; `examined_since_tune / pops_since_tune` is the drift
    /// signal compared against [`SCAN_TUNE_THRESHOLD`].
    examined_since_tune: u64,
    /// Value of `now` at the last resize, for the pop-rate measurement.
    last_tune_now: f64,
    /// Memoized front: `(slot, bucket, examined)` of the
    /// `(time, seq)`-minimal pending entry, plus the scan cost that
    /// located it (billed to the tuning stats when the entry is actually
    /// popped). Engines running an external tick chain peek far more
    /// often than they pop; the memo makes every repeat peek O(1)
    /// instead of re-walking the same empty-bucket run. Invalidated by
    /// any mutation that can move the front (pops, resizes); updated in
    /// place by a schedule that beats it.
    front: Option<(u32, usize, usize)>,
    /// Always-on operation counters (pushes / pops / resizes).
    profile: QueueProfile,
    /// Opt-in resize log (`Some` iff tracing is enabled); timestamps are
    /// the simulated clock, so the log is a pure function of the
    /// schedule and consumes no RNG.
    resize_log: Option<Vec<ResizeRecord>>,
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            events: Vec::new(),
            heads: vec![NIL; MIN_BUCKETS],
            free: NIL,
            mask: (MIN_BUCKETS - 1) as u64,
            width: 1.0,
            inv_width: 1.0,
            len: 0,
            seq: 0,
            now: 0.0,
            cursor: 0,
            pops_since_tune: 0,
            examined_since_tune: 0,
            last_tune_now: 0.0,
            front: None,
            profile: QueueProfile::default(),
            resize_log: None,
        }
    }

    /// Operation counters since construction.
    pub fn profile(&self) -> QueueProfile {
        self.profile
    }

    /// Opt-in resize tracing: when enabled, every subsequent resize is
    /// recorded as a [`ResizeRecord`] retrievable via
    /// [`CalendarQueue::take_resize_log`]. Off by default; toggling
    /// never affects scheduling, popping, or tuning decisions.
    pub fn set_trace(&mut self, enabled: bool) {
        if enabled {
            if self.resize_log.is_none() {
                self.resize_log = Some(Vec::new());
            }
        } else {
            self.resize_log = None;
        }
    }

    /// Drains the recorded resize log (empty unless tracing was enabled
    /// via [`CalendarQueue::set_trace`]).
    pub fn take_resize_log(&mut self) -> Vec<ResizeRecord> {
        self.resize_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The current simulation time: the timestamp of the last popped event
    /// or the last [`CalendarQueue::advance_to`] call, whichever is later
    /// (zero initially). Time never runs backwards.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The virtual bucket of `time` under the current width.
    #[inline]
    fn vbucket(&self, time: f64) -> u64 {
        // Saturating float→int cast: monotone even at the u64::MAX clamp,
        // which is all the ordering argument needs.
        (time * self.inv_width) as u64
    }

    /// Locates the `(time, seq)`-minimal entry as `(slot, physical bucket,
    /// buckets + entries examined)`, serving from the front memo when it
    /// is valid and scanning (then filling the memo) otherwise.
    fn locate(&mut self) -> Option<(u32, usize, usize)> {
        if self.front.is_none() {
            self.front = self.locate_scan();
        }
        self.front
    }

    /// The scanning body of [`CalendarQueue::locate`]: walks buckets from
    /// the cursor without consulting or mutating the memo. The examined
    /// count lets the popping paths detect a mistuned width and trigger a
    /// retune.
    fn locate_scan(&self) -> Option<(u32, usize, usize)> {
        if self.len == 0 {
            return None;
        }
        // Year scan: walk virtual buckets from the cursor. The first one
        // holding an entry contains the global minimum (see the
        // determinism argument on the type).
        let mut examined = 0usize;
        for off in 0..self.heads.len() as u64 {
            let vb = self.cursor.wrapping_add(off);
            let bi = (vb & self.mask) as usize;
            let mut best: Option<(u32, f64, u64)> = None;
            let mut slot = self.heads[bi];
            examined += 1;
            while slot != NIL {
                let k = &self.keys[slot as usize];
                examined += 1;
                if k.vb == vb
                    && !best.is_some_and(|(_, bt, bs)| k.time > bt || (k.time == bt && k.seq > bs))
                {
                    best = Some((slot, k.time, k.seq));
                }
                slot = k.next;
            }
            if let Some((slot, _, _)) = best {
                return Some((slot, bi, examined));
            }
        }
        // A whole year was empty: the pending entries are sparse relative
        // to the bucket range (far-future outliers). Fall back to a direct
        // scan for the global minimum — O(len), rare by construction.
        let mut best: Option<(u32, usize, f64, u64)> = None;
        for (bi, &head) in self.heads.iter().enumerate() {
            let mut slot = head;
            while slot != NIL {
                let k = &self.keys[slot as usize];
                if !best.is_some_and(|(_, _, bt, bs)| k.time > bt || (k.time == bt && k.seq > bs)) {
                    best = Some((slot, bi, k.time, k.seq));
                }
                slot = k.next;
            }
        }
        best.map(|(slot, bi, _, _)| (slot, bi, usize::MAX))
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN/infinite or lies strictly in the past
    /// (before [`CalendarQueue::now`]).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "schedule: event time must be finite");
        assert!(
            time >= self.now,
            "schedule: event time {time} is before current time {}",
            self.now
        );
        let vb = self.vbucket(time);
        let bi = (vb & self.mask) as usize;
        let key = Key {
            time,
            seq: self.seq,
            vb,
            next: self.heads[bi],
        };
        self.seq += 1;
        self.profile.pushes += 1;
        let slot = if self.free == NIL {
            let slot = u32::try_from(self.keys.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("calendar queue: at most 2^32 - 1 pending events");
            self.keys.push(key);
            self.events.push(Some(event));
            slot
        } else {
            let slot = self.free;
            self.free = self.keys[slot as usize].next;
            self.keys[slot as usize] = key;
            self.events[slot as usize] = Some(event);
            slot
        };
        self.heads[bi] = slot;
        self.len += 1;
        // A strictly earlier arrival takes over the front memo (on a time
        // tie the incumbent wins: its seq is necessarily smaller).
        if let Some((front, ..)) = self.front {
            if time < self.keys[front as usize].time {
                self.front = Some((slot, bi, 0));
            }
        }
        if self.len > 2 * self.heads.len() {
            self.resize();
        }
    }

    /// Removes the located entry, committing clock and cursor.
    fn take(&mut self, slot: u32, bi: usize, examined: usize) -> (f64, E) {
        self.front = None;
        // Unlink: lists are a few entries long, so finding the
        // predecessor again is cheaper than carrying it in the memo.
        let Key { time, vb, next, .. } = self.keys[slot as usize];
        if self.heads[bi] == slot {
            self.heads[bi] = next;
        } else {
            let mut prev = self.heads[bi];
            while self.keys[prev as usize].next != slot {
                prev = self.keys[prev as usize].next;
            }
            self.keys[prev as usize].next = next;
        }
        self.keys[slot as usize].next = self.free;
        self.free = slot;
        let event = self.events[slot as usize]
            .take()
            .expect("a linked slot holds an event");
        self.len -= 1;
        self.now = time;
        self.cursor = vb;
        self.profile.pops += 1;
        self.pops_since_tune += 1;
        // A direct-search fallback scanned everything; bill it as such.
        self.examined_since_tune += if examined == usize::MAX {
            (self.len + self.heads.len()) as u64
        } else {
            examined as u64
        };
        if self.heads.len() > MIN_BUCKETS && self.len < self.heads.len() / 8 {
            self.resize();
        } else if self.pops_since_tune > (self.len / 2).max(32) {
            // End of a measurement window (at most once per `len/2` pops,
            // keeping the amortized cost O(1) even on degenerate
            // schedules where no width can help). Retune if the width no
            // longer matches the live event population — either pop scans
            // averaged long buckets / long empty runs over the window, or
            // the width the window's pop rate calls for has drifted more
            // than [`WIDTH_DRIFT`]× from the one in force (a stale width
            // can sit just under the scan threshold yet still waste most
            // of every scan).
            let pop_gap = (self.now - self.last_tune_now) / self.pops_since_tune as f64;
            let ideal = TARGET_OCCUPANCY * pop_gap;
            let scans_long =
                self.examined_since_tune > SCAN_TUNE_THRESHOLD * self.pops_since_tune as u64;
            let width_stale = ideal.is_finite()
                && ideal > 0.0
                && (ideal > self.width * WIDTH_DRIFT || self.width > ideal * WIDTH_DRIFT);
            if scans_long || width_stale {
                self.resize();
            } else {
                // Healthy window: start the next one.
                self.pops_since_tune = 0;
                self.examined_since_tune = 0;
                self.last_tune_now = self.now;
            }
        }
        (time, event)
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let (slot, bi, examined) = self.locate()?;
        Some(self.take(slot, bi, examined))
    }

    /// Removes and returns the earliest event if its timestamp is at most
    /// `limit`; otherwise leaves the queue untouched and returns `None`.
    ///
    /// This replaces the peek-then-pop double comparison in engine drain
    /// loops with a single ordered lookup.
    pub fn pop_before(&mut self, limit: f64) -> Option<(f64, E)> {
        self.pop_below(limit, u64::MAX)
            .map(|(time, _, event)| (time, event))
    }

    /// Removes and returns the earliest entry as `(time, seq, event)` if
    /// its `(time, seq)` key lies strictly below `(limit, limit_seq)`;
    /// otherwise leaves the queue untouched and returns `None`. With
    /// [`CalendarQueue::take_seq`] this orders the queue exactly against
    /// entries an engine keeps outside it.
    #[inline]
    pub fn pop_below(&mut self, limit: f64, limit_seq: u64) -> Option<(f64, u64, E)> {
        let (slot, bi, examined) = self.locate()?;
        let Key { time, seq, .. } = self.keys[slot as usize];
        if time > limit || (time == limit && seq >= limit_seq) {
            return None;
        }
        let (time, event) = self.take(slot, bi, examined);
        Some((time, seq, event))
    }

    /// The sequence number the next scheduled entry will take: every
    /// entry scheduled so far has a smaller one.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Takes the next sequence number without scheduling anything, for an
    /// entry an engine keeps outside the queue but orders against it by
    /// `(time, seq)`: the sequence numbers of later entries are as if it
    /// had been scheduled.
    pub fn take_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Advances the clock to `time` without popping — used by engines that
    /// interleave the queue with externally maintained event sources (the
    /// superposed Poisson tick chains), so `schedule` keeps rejecting
    /// genuinely past timestamps. The cursor is left alone: it may only
    /// ever commit to popped entries.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN/infinite or lies strictly in the past.
    pub fn advance_to(&mut self, time: f64) {
        assert!(time.is_finite(), "advance_to: time must be finite");
        assert!(
            time >= self.now,
            "advance_to: time {time} is before current time {}",
            self.now
        );
        self.now = time;
    }

    /// Rebuilds the bucket array at `next_power_of_two(len)` buckets and
    /// retunes the width. The primary estimator is the observed pop rate
    /// (`TARGET_OCCUPANCY` pop gaps per bucket — see that constant for why
    /// rate beats span on skewed populations); before any pops have been
    /// observed (ramp-up growth from pure scheduling) it falls back to
    /// spreading the live span at ~1 entry per bucket over half a year.
    /// Live slots are relinked in place; only the head array is new.
    fn resize(&mut self) {
        self.front = None;
        let nbuckets = self.len.max(MIN_BUCKETS).next_power_of_two();
        let pop_gap = (self.now - self.last_tune_now) / self.pops_since_tune as f64;
        let mut width = if self.pops_since_tune >= 32 && pop_gap > 0.0 && pop_gap.is_finite() {
            TARGET_OCCUPANCY * pop_gap
        } else {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &head in &self.heads {
                let mut slot = head;
                while slot != NIL {
                    let k = &self.keys[slot as usize];
                    lo = lo.min(k.time);
                    hi = hi.max(k.time);
                    slot = k.next;
                }
            }
            let span = hi - lo;
            if self.len >= 2 && span > 0.0 && span.is_finite() {
                2.0 * span / self.len as f64
            } else {
                1.0
            }
        };
        // Degenerate widths (e.g. a span of one ulp) would overflow the
        // inverse; any positive width is *correct* (the scan falls back to
        // the direct search), so clamp rather than special-case.
        if !(width.is_finite() && width > 0.0 && (1.0 / width).is_finite()) {
            width = 1.0;
        }
        self.width = width;
        self.inv_width = 1.0 / width;
        self.mask = (nbuckets - 1) as u64;
        let old = std::mem::replace(&mut self.heads, vec![NIL; nbuckets]);
        for head in old {
            let mut slot = head;
            while slot != NIL {
                let vb = self.vbucket(self.keys[slot as usize].time);
                let bi = (vb & self.mask) as usize;
                let k = &mut self.keys[slot as usize];
                let next = k.next;
                k.vb = vb;
                k.next = self.heads[bi];
                self.heads[bi] = slot;
                slot = next;
            }
        }
        // All pending entries sit at or after `now`, so the cursor
        // invariant (no entry below it) is re-established directly.
        self.cursor = self.vbucket(self.now);
        self.pops_since_tune = 0;
        self.examined_since_tune = 0;
        self.last_tune_now = self.now;
        self.profile.resizes += 1;
        if let Some(log) = self.resize_log.as_mut() {
            log.push(ResizeRecord {
                at: self.now,
                buckets: nbuckets as u64,
                width,
            });
        }
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queue contract: time order, insertion-order ties, the clock.
    mod calendar {
        use super::CalendarQueue;

        #[test]
        fn pops_in_time_order() {
            let mut q = CalendarQueue::new();
            q.schedule(3.0, 3u32);
            q.schedule(1.0, 1u32);
            q.schedule(2.0, 2u32);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
        }

        #[test]
        fn ties_break_by_insertion_order() {
            let mut q = CalendarQueue::new();
            for i in 0..100u32 {
                q.schedule(1.0, i);
            }
            for i in 0..100u32 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }

        #[test]
        fn now_advances_with_pops() {
            let mut q = CalendarQueue::new();
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
        fn scheduling_in_the_past_panics() {
            let mut q = CalendarQueue::new();
            q.schedule(2.0, ());
            q.pop();
            q.schedule(1.0, ());
        }

        #[test]
        #[should_panic(expected = "finite")]
        fn scheduling_nan_panics() {
            let mut q = CalendarQueue::new();
            q.schedule(f64::NAN, ());
        }

        #[test]
        fn len_and_empty_track_contents() {
            let mut q = CalendarQueue::new();
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
        fn pop_before_respects_the_limit() {
            let mut q = CalendarQueue::new();
            q.schedule(1.0, "a");
            q.schedule(2.0, "b");
            assert_eq!(q.pop_before(0.5), None);
            assert_eq!(q.len(), 2, "a miss must not disturb the queue");
            assert_eq!(q.pop_before(1.0), Some((1.0, "a")), "limit is inclusive");
            assert_eq!(q.pop_before(10.0), Some((2.0, "b")));
            assert_eq!(q.pop_before(10.0), None);
        }

        #[test]
        fn pop_below_orders_against_taken_sequence_numbers() {
            let mut q = CalendarQueue::new();
            q.schedule(1.0, "a");
            let outside = q.take_seq();
            q.schedule(1.0, "b");
            assert_eq!(outside, 1);
            assert_eq!(q.next_seq(), 3);
            // An outside entry at (1.0, 1) sits between "a" and "b".
            assert_eq!(q.pop_below(1.0, outside), Some((1.0, 0, "a")));
            assert_eq!(q.pop_below(1.0, outside), None);
            assert_eq!(q.len(), 1, "a miss must not disturb the queue");
            assert_eq!(q.pop_below(1.0, u64::MAX), Some((1.0, 2, "b")));
        }

        #[test]
        fn pop_before_miss_keeps_order_intact() {
            let mut q = CalendarQueue::new();
            q.schedule(5.0, 5u32);
            q.schedule(3.0, 3u32);
            assert_eq!(q.pop_before(1.0), None);
            // An earlier event scheduled *after* the miss must still
            // come out first.
            q.schedule(2.0, 2u32);
            assert_eq!(q.pop(), Some((2.0, 2)));
            assert_eq!(q.pop(), Some((3.0, 3)));
            assert_eq!(q.pop(), Some((5.0, 5)));
        }

        #[test]
        fn advance_to_moves_now_only() {
            let mut q = CalendarQueue::new();
            q.schedule(4.0, ());
            q.advance_to(3.0);
            assert_eq!(q.now(), 3.0);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((4.0, ())));
        }

        #[test]
        #[should_panic(expected = "before current time")]
        fn advance_to_rejects_the_past() {
            let mut q = CalendarQueue::new();
            q.schedule(2.0, ());
            q.pop();
            q.advance_to(1.0);
        }
    }

    #[test]
    fn calendar_survives_growth_and_shrink_churn() {
        // Push far past several grow thresholds, then drain through the
        // shrink threshold; order must hold throughout.
        let mut q = CalendarQueue::new();
        for i in 0..5_000u64 {
            // Non-monotone insertion order across a wide range.
            let t = ((i.wrapping_mul(2_654_435_761)) % 100_000) as f64 / 7.0;
            q.schedule(t, i);
        }
        let mut last = (f64::NEG_INFINITY, 0u64);
        let mut count = 0usize;
        while let Some((t, i)) = q.pop() {
            assert!(
                t > last.0 || (t == last.0 && i > last.1),
                "order violated at ({t}, {i}) after {last:?}"
            );
            last = (t, i);
            count += 1;
        }
        assert_eq!(count, 5_000);
    }

    #[test]
    fn calendar_handles_far_future_outliers() {
        // A dense cluster near zero plus outliers many "years" away: the
        // year scan must give up and fall back to the direct search.
        let mut q = CalendarQueue::new();
        q.schedule(1e9, u64::MAX);
        for i in 0..100u64 {
            q.schedule(i as f64 * 1e-3, i);
        }
        for i in 0..100u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert_eq!(q.pop(), Some((1e9, u64::MAX)));
    }

    #[test]
    fn calendar_keeps_tie_order_across_resizes() {
        // 300 identical timestamps interleaved with spread ones: resizes
        // re-bucket everything, insertion order must survive.
        let mut q = CalendarQueue::new();
        for i in 0..300u64 {
            q.schedule(10.0, i);
            q.schedule(20.0 + i as f64, 1_000 + i);
        }
        for i in 0..300u64 {
            assert_eq!(q.pop(), Some((10.0, i)));
        }
        for i in 0..300u64 {
            assert_eq!(q.pop(), Some((20.0 + i as f64, 1_000 + i)));
        }
    }

    #[test]
    fn calendar_degenerate_span_stays_correct() {
        // All entries at one timestamp: resize's span is zero, the width
        // falls back, and everything lands in one virtual bucket — order
        // must still be exact.
        let mut q = CalendarQueue::new();
        for i in 0..200u64 {
            q.schedule(123.456, i);
        }
        for i in 0..200u64 {
            assert_eq!(q.pop(), Some((123.456, i)));
        }
    }

    #[test]
    fn calendar_reuses_popped_slots() {
        // A hold model (every pop schedules one successor) through several
        // retunes: popped slots are recycled through the free list, so the
        // slab never outgrows the peak number of pending events.
        let mut q = CalendarQueue::new();
        for i in 0..100u64 {
            q.schedule(i as f64 * 0.01, i);
        }
        for i in 100..20_000u64 {
            let (t, _) = q.pop().unwrap();
            q.schedule(t + 1.0 + (i % 13) as f64 * 0.1, i);
        }
        assert!(q.profile().resizes > 0);
        assert_eq!(q.keys.len(), 100);
        assert_eq!(q.events.len(), 100);
    }

    #[test]
    fn calendar_interleaved_chains_advance() {
        // The engines' usage pattern: each pop schedules a follow-up a
        // little later (self-perpetuating chains).
        let mut q = CalendarQueue::new();
        for i in 0..32u64 {
            q.schedule(i as f64 * 0.1, i);
        }
        let mut pops = 0u64;
        let mut last = f64::NEG_INFINITY;
        while let Some((t, id)) = q.pop() {
            assert!(t >= last);
            last = t;
            pops += 1;
            if pops < 10_000 {
                q.schedule(t + 0.05 + (id % 7) as f64 * 0.01, id);
            }
        }
        assert_eq!(pops, 10_000 + 31);
    }
}
