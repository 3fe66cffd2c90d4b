//! Byte-level pins of the calendar queue on five fixed schedules: the
//! FNV-1a hash of the pop sequence, the operation counters and the resize
//! log (bucket count, width bits and the simulated time of each resize).
//!
//! The pop order alone is already pinned against the heap oracle by the
//! property tests; these pins also freeze the *policy* — every grow, shrink
//! and retune decision — so a change to the queue's storage must reproduce
//! the same resizes at the same moments with the same widths.

use plurality_sim::{CalendarQueue, QueueProfile};

/// A small self-contained xorshift stream, so the pins depend on nothing
/// but the queue.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, bound: u64) -> u64 {
        (self.unit() * bound as f64) as u64 % bound
    }

    fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// Erlang(3) with the given mean: the engines' non-exponential
    /// latency shape.
    fn erlang3(&mut self, mean: f64) -> f64 {
        (0..3).map(|_| self.exp(mean / 3.0)).sum()
    }
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What a schedule leaves behind: pop-sequence hash, counters, resize-log
/// hash and length.
#[derive(Debug, PartialEq)]
struct Pin {
    pops: u64,
    profile: QueueProfile,
    resizes: u64,
    log: u64,
}

/// Records one popped `(time, id)` into the pop-sequence hash.
fn record(h: &mut Fnv, (t, id): (f64, u64)) {
    h.word(t.to_bits());
    h.word(id);
}

fn finish(q: &mut CalendarQueue<u64>, h: Fnv) -> Pin {
    let mut log = Fnv::new();
    let records = q.take_resize_log();
    for r in &records {
        log.word(r.at.to_bits());
        log.word(r.buckets);
        log.word(r.width.to_bits());
    }
    Pin {
        pops: h.0,
        profile: q.profile(),
        resizes: records.len() as u64,
        log: log.0,
    }
}

/// The engines' kernel pattern: about 2k pending events, each pop
/// schedules a successor at `now` + an Erlang delay, and an external tick
/// chain races the queue head through `pop_before`, advancing the clock
/// with `advance_to` on every miss (and sometimes scheduling from the
/// tick, as a node's 0-signal send does). Ramp-up from pure scheduling,
/// a hold phase and a final drain exercise grows, retunes and shrinks.
fn hold_model() -> Pin {
    let mut s = Stream::new(11);
    let mut q = CalendarQueue::new();
    q.set_trace(true);
    let mut h = Fnv::new();
    for id in 0..2_000 {
        q.schedule(s.exp(1.0), id);
    }
    let mut id = 2_000u64;
    let mut tick = s.exp(0.002);
    for _ in 0..60_000 {
        match q.pop_before(tick) {
            Some((t, ev)) => {
                record(&mut h, (t, ev));
                // Keep the population near 2k: drop a successor as often
                // as a tick adds one.
                if s.below(8) != 0 {
                    q.schedule(t + s.erlang3(1.0), id);
                    id += 1;
                }
            }
            None => {
                q.advance_to(tick);
                if s.below(2) == 0 {
                    q.schedule(tick + s.erlang3(1.0), id);
                    id += 1;
                }
                tick += s.exp(0.002);
            }
        }
    }
    while let Some(e) = q.pop() {
        record(&mut h, e);
    }
    finish(&mut q, h)
}

/// Timestamps on a coarse grid, so nearly every pop breaks a time tie by
/// insertion order; the population ramps to ~3k and drains through the
/// shrink threshold.
fn dense_ties() -> Pin {
    let mut s = Stream::new(12);
    let mut q = CalendarQueue::new();
    q.set_trace(true);
    let mut h = Fnv::new();
    let mut id = 0u64;
    for round in 0..40_000u64 {
        let pushes = if round < 20_000 { 2 } else { 0 };
        for _ in 0..pushes {
            let slot = (q.now() * 4.0).ceil() + s.below(6) as f64;
            q.schedule(slot * 0.25, id);
            id += 1;
        }
        if let Some(e) = q.pop_before(q.now() + 0.25 * s.below(3) as f64) {
            record(&mut h, e);
        }
    }
    while let Some(e) = q.pop() {
        record(&mut h, e);
    }
    finish(&mut q, h)
}

/// A dense near-`now` population plus far-future outliers (up to 1e9 time
/// units ahead), so whole calendar years come up empty and the direct-scan
/// fallback runs, while pops keep reshaping the front.
fn far_future_outliers() -> Pin {
    let mut s = Stream::new(13);
    let mut q = CalendarQueue::new();
    q.set_trace(true);
    let mut h = Fnv::new();
    for i in 0..20_000u64 {
        let now = q.now();
        let t = if i % 50 == 0 {
            now + 10f64.powi(3 + s.below(7) as i32) * s.unit()
        } else {
            now + s.exp(0.5)
        };
        q.schedule(t, i);
        if i % 3 != 0 {
            if let Some(e) = q.pop() {
                record(&mut h, e);
            }
        }
        if i % 4_000 == 3_999 {
            // Drain the dense part so only outliers remain for a while.
            while let Some(e) = q.pop_before(q.now() + 20.0) {
                record(&mut h, e);
            }
            if let Some(e) = q.pop() {
                record(&mut h, e);
            }
        }
    }
    while let Some(e) = q.pop() {
        record(&mut h, e);
    }
    finish(&mut q, h)
}

/// Bursts of 7–10 equal timestamps one time unit apart, each popped event
/// scheduling its successor into a later burst. The pop rate stays
/// constant, so the width never drifts; the bursts keep the average pop
/// scan just under the retune threshold instead, so the scan accounting
/// (buckets plus entries examined per pop) alone decides when the queue
/// retunes.
fn bursts() -> Pin {
    let mut s = Stream::new(14);
    let mut q = CalendarQueue::new();
    q.set_trace(true);
    let mut h = Fnv::new();
    let mut id = 0u64;
    for burst in 1..=3u64 {
        for _ in 0..7 + s.below(4) {
            q.schedule(burst as f64, id);
            id += 1;
        }
    }
    while let Some((t, ev)) = q.pop() {
        record(&mut h, (t, ev));
        if id < 30_000 {
            q.schedule(t.floor() + 3.0 + s.below(2) as f64, id);
            id += 1;
        }
    }
    finish(&mut q, h)
}

/// Seven chains of events a short hop apart; after every 40th pop the
/// next seven successors jump 50 time units ahead, past the end of the
/// calendar year, so the first pop of each burst takes the direct-scan
/// fallback. The pop rate is periodic, so the width never drifts, and the
/// fallback's scan bill (`len + buckets`) puts two measurement windows
/// exactly on the retune threshold and one just above it: billing the
/// fallback one entry more or less flips a retune.
fn year_gaps() -> Pin {
    let mut s = Stream::new(2);
    let mut q = CalendarQueue::new();
    q.set_trace(true);
    let mut h = Fnv::new();
    for id in 0..7 {
        q.schedule(s.exp(0.01), id);
    }
    let (mut id, mut popped) = (7u64, 0u64);
    while let Some((t, ev)) = q.pop() {
        record(&mut h, (t, ev));
        popped += 1;
        if id < 20_000 {
            let jump = if popped % 40 < 7 { 50.0 } else { 0.0 };
            q.schedule(t + jump + s.exp(0.01), id);
            id += 1;
        }
    }
    finish(&mut q, h)
}

/// The pinned outcome of one schedule.
fn expected(pops: u64, pushes: u64, resizes: u64, log: u64) -> Pin {
    Pin {
        pops,
        profile: QueueProfile {
            pushes,
            pops: pushes,
            resizes,
        },
        resizes,
        log,
    }
}

#[test]
fn hold_model_is_pinned() {
    assert_eq!(
        hold_model(),
        expected(
            4_844_335_552_322_846_575,
            49_846,
            9,
            1_577_620_925_448_193_193
        )
    );
}

#[test]
fn dense_ties_are_pinned() {
    assert_eq!(
        dense_ties(),
        expected(
            7_940_965_200_054_092_510,
            40_000,
            26,
            11_845_506_802_089_136_960
        )
    );
}

#[test]
fn far_future_outliers_are_pinned() {
    assert_eq!(
        far_future_outliers(),
        expected(
            9_368_142_266_323_142_445,
            20_000,
            52,
            1_951_797_386_155_115_242
        )
    );
}

#[test]
fn bursts_are_pinned() {
    assert_eq!(
        bursts(),
        expected(
            932_832_311_598_264_017,
            30_000,
            6,
            12_332_515_051_421_232_953
        )
    );
}

#[test]
fn year_gaps_are_pinned() {
    assert_eq!(
        year_gaps(),
        expected(
            15_637_237_985_382_413_000,
            20_000,
            386,
            13_125_377_990_870_392_234
        )
    );
}
