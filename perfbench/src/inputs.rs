//! Seeded workload inputs: RunSpec strings drawn from each workload's
//! parameter ranges. The generator is the benchmark's own, so a change
//! to the program's RNG streams never changes which inputs it is given.

/// SplitMix64: tiny, fast, and good enough to draw input parameters.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AsyncComplete,
    AsyncEvent,
    MfScale,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AsyncComplete,
        Workload::AsyncEvent,
        Workload::MfScale,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AsyncComplete => "async-complete",
            Workload::AsyncEvent => "async-event",
            Workload::MfScale => "mf-scale",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The spec shapes the workload draws from, each listed as often as
    /// its share of the requests.
    fn shapes(self) -> &'static [Shape] {
        match self {
            Workload::AsyncComplete => ASYNC_COMPLETE,
            Workload::AsyncEvent => ASYNC_EVENT,
            Workload::MfScale => MF_SCALE,
            Workload::ServeMixed => SERVE_MIXED,
        }
    }
}

/// Population size drawn uniformly, or log-uniformly over decades.
#[derive(Clone, Copy)]
enum Size {
    Linear(u64, u64),
    Decades(i32, i32),
}

/// One input shape: a protocol plus fixed keys, with the ranges the
/// generator fills `n`, `k`, `alpha` and `seed` from.
struct Shape {
    protocol: &'static str,
    /// Extra `&key=value` pairs, verbatim.
    extra: &'static str,
    n: Size,
    k: (u64, u64),
    alpha: (f64, f64),
}

const fn shape(
    protocol: &'static str,
    extra: &'static str,
    n: Size,
    k: (u64, u64),
    alpha: (f64, f64),
) -> Shape {
    Shape {
        protocol,
        extra,
        n,
        k,
        alpha,
    }
}

const ASYNC_N: Size = Size::Linear(1_000, 3_000);
const EVENT_N: Size = Size::Linear(600, 1_200);
const MF_N: Size = Size::Decades(6, 9);
const BIAS: (f64, f64) = (2.0, 3.0);
const MF_BIAS: (f64, f64) = (1.3, 2.0);

// Complete graph, exponential latency, no scenario: the jump-chain and
// tick-thinning fast path of both asynchronous engines.
static ASYNC_COMPLETE: &[Shape] = &[
    shape("leader", "", ASYNC_N, (2, 4), BIAS),
    shape("leader", "", ASYNC_N, (2, 4), BIAS),
    shape("cluster", "", ASYNC_N, (2, 4), BIAS),
];

// Non-exponential latency laws and a scenario disable the jump chains,
// so every signal travels through the event queue.
static ASYNC_EVENT: &[Shape] = &[
    shape("leader", "&latency=erlang:3:3.0", EVENT_N, (2, 4), BIAS),
    shape("cluster", "&latency=erlang:3:3.0", EVENT_N, (2, 4), BIAS),
    shape("leader", "&latency=weibull:2:1.0", EVENT_N, (2, 4), BIAS),
    shape("cluster", "&latency=uniform:0.5:1.5", EVENT_N, (2, 4), BIAS),
    shape(
        "leader",
        "&scenario=burst-loss:0.3@2..4",
        EVENT_N,
        (2, 4),
        BIAS,
    ),
    shape(
        "cluster",
        "&scenario=burst-loss:0.3@2..4",
        EVENT_N,
        (2, 4),
        BIAS,
    ),
];

// The mean-field backends at 10⁶–10⁹ nodes: cost is pools × steps,
// independent of n. leader-mf takes a coarse tau-leap step so that a
// run holds enough of its requests for a steady 90th percentile.
static MF_SCALE: &[Shape] = &[
    shape("sync-mf", "", MF_N, (2, 8), MF_BIAS),
    shape("majority3-mf", "", MF_N, (2, 8), MF_BIAS),
    shape("undecided-mf", "", MF_N, (2, 8), MF_BIAS),
    shape("population-mf", "", MF_N, (2, 2), MF_BIAS),
    shape("leader-mf", "&dt=0.5", MF_N, (2, 4), BIAS),
];

// What the daemon is asked for: cheap per-node runs of several engine
// families and mean-field runs, so misses cost milliseconds.
static SERVE_MIXED: &[Shape] = &[
    shape("leader", "", Size::Linear(1_000, 2_000), (2, 4), BIAS),
    shape("cluster", "", Size::Linear(1_000, 2_000), (2, 4), BIAS),
    shape("sync", "", Size::Linear(2_000, 4_000), (2, 4), BIAS),
    shape("3-majority", "", Size::Linear(2_000, 4_000), (2, 4), BIAS),
    shape("sync-mf", "", MF_N, (2, 8), MF_BIAS),
    shape("population-mf", "", MF_N, (2, 2), MF_BIAS),
];

/// Strata per parameter range. Each block of a batch draws every shape
/// once from each stratum of `n`, `k` and `alpha` (a Latin hypercube),
/// so every seed covers the ranges alike and the figures differ between
/// seeds by the engines' own randomness, not by a luckier input mix.
const STRATA: usize = 8;

impl Shape {
    /// Draws one spec string of this shape, with `n`, `k` and `alpha`
    /// taken from the given strata of their ranges.
    fn draw(&self, rng: &mut SplitMix, strata: [usize; 3]) -> String {
        let mut fraction = |stratum: usize| (stratum as f64 + rng.unit()) / STRATA as f64;
        let n = match self.n {
            Size::Linear(lo, hi) => lo + (fraction(strata[0]) * (hi - lo) as f64) as u64,
            Size::Decades(lo, hi) => {
                let exp = f64::from(lo) + fraction(strata[0]) * f64::from(hi - lo);
                10f64.powf(exp).round() as u64
            }
        };
        let k_values = (self.k.1 - self.k.0 + 1) as f64;
        let k = self.k.0 + (fraction(strata[1]) * k_values) as u64;
        let alpha = self.alpha.0 + fraction(strata[2]) * (self.alpha.1 - self.alpha.0);
        let seed = rng.next_u64() >> 16;
        format!(
            "{}?n={n}&k={k}&alpha={alpha:.2}{}&seed={seed}",
            self.protocol, self.extra
        )
    }
}

/// A random permutation of `0..STRATA`.
fn permutation(rng: &mut SplitMix) -> Vec<usize> {
    let mut p: Vec<usize> = (0..STRATA).collect();
    for i in (1..STRATA).rev() {
        p.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    p
}

/// One block: `STRATA` specs per shape, cycling through the shapes in
/// order (see [`STRATA`]).
fn block(shapes: &[Shape], rng: &mut SplitMix) -> Vec<String> {
    let strata: Vec<[Vec<usize>; 3]> = shapes
        .iter()
        .map(|_| [permutation(rng), permutation(rng), permutation(rng)])
        .collect();
    let mut specs = Vec::with_capacity(STRATA * shapes.len());
    for level in 0..STRATA {
        for (shape, [n, k, alpha]) in shapes.iter().zip(&strata) {
            specs.push(shape.draw(rng, [n[level], k[level], alpha[level]]));
        }
    }
    specs
}

/// The workload's endless spec stream for `seed`; every spec carries
/// its own run seed, so keys do not repeat.
pub fn specs(workload: Workload, seed: u64) -> impl Iterator<Item = String> {
    let shapes = workload.shapes();
    let mut rng = SplitMix::new(seed);
    std::iter::repeat_with(move || block(shapes, &mut rng)).flatten()
}

/// One spec of every shape from the low end of its ranges: cheap, and
/// alike for every seed but for the run seeds, to warm lazily built
/// state before timing.
pub fn warm_up(workload: Workload, seed: u64) -> Vec<String> {
    let mut rng = SplitMix::new(!seed);
    workload
        .shapes()
        .iter()
        .map(|shape| shape.draw(&mut rng, [0, 0, 0]))
        .collect()
}

/// The first `count` specs of [`specs`].
pub fn batch(workload: Workload, seed: u64, count: usize) -> Vec<String> {
    specs(workload, seed).take(count).collect()
}
