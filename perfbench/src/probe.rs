//! The machine-speed probe behind the facade workloads' time figures.
//!
//! The benchmark shares its host with other tenants, and the host's
//! speed drifts by as much as half over a few seconds — more than the
//! regressions the benchmark must catch. The facade workloads run one
//! request at a time with nothing else on the CPU, so between requests
//! (at most once per [`PROBE_EVERY`]) they time a fixed kernel of the
//! benchmark's own — random-access table updates, integer mixing and a
//! logarithm, the kinds of work the engines do — and scale each
//! request's wall time by [`REFERENCE_MS`] over the latest probe time.
//! Their figures are thus milliseconds at the speed at which the probe
//! takes [`REFERENCE_MS`]. The probe never calls the program, so only
//! the program's own cost moves them.

use crate::inputs::SplitMix;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe time that defines the reference speed (about what the kernel
/// takes on an uncontended 2.1 GHz x86-64 core).
pub const REFERENCE_MS: f64 = 4.0;
pub const PROBE_EVERY: Duration = Duration::from_millis(200);

const TABLE: usize = 1 << 14;
const ROUNDS: u64 = 200_000;

pub struct SpeedProbe {
    last: Option<Instant>,
    scale: f64,
}

impl SpeedProbe {
    pub fn new() -> Self {
        Self {
            last: None,
            scale: 1.0,
        }
    }

    /// Re-times the kernel when the last probe is older than
    /// [`PROBE_EVERY`].
    pub fn refresh(&mut self) {
        if self.last.is_some_and(|at| at.elapsed() < PROBE_EVERY) {
            return;
        }
        let started = Instant::now();
        black_box(kernel(black_box(7)));
        self.scale = REFERENCE_MS / (started.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// Factor turning wall time into reference time.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

fn kernel(seed: u64) -> u64 {
    let mut rng = SplitMix::new(seed);
    let mut table = vec![0u64; TABLE];
    let mut acc = 0u64;
    for i in 0..ROUNDS {
        let r = rng.next_u64();
        let slot = r as usize % TABLE;
        table[slot] = table[slot].wrapping_add(r ^ i);
        acc = acc.wrapping_add(table[(r >> 20) as usize % TABLE]);
        acc ^= (((r >> 11) as f64 * 1e-16).ln_1p() * 1e6) as u64;
    }
    acc
}
