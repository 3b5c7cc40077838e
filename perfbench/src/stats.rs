//! Order statistics and the benchmark's own seeded generator, kept apart
//! from the program's so that a change to `bfs_graph::rng` cannot move the
//! benchmark's root draws or request mix.

use std::time::{Duration, Instant};

use bfs_graph::{CsrGraph, VertexId};

use crate::check::{reference_bfs, Reference};

/// SplitMix64: a small, well-mixed 64-bit generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Graph500 search keys drawn from the giant component: distinct,
/// uniformly drawn vertices of degree ≥ 1 whose component holds more than
/// half of the non-isolated vertices, each with its reference answer. A
/// root in a small component makes a search of a handful of edges whose
/// TEPS would sink the harmonic mean of the whole batch.
pub fn giant_component_roots(
    g: &CsrGraph,
    count: usize,
    rng: &mut SplitMix,
) -> (Vec<VertexId>, Vec<Reference>) {
    let n = g.num_vertices() as u64;
    let non_isolated = (0..n as VertexId).filter(|&v| g.degree(v) > 0).count() as u64;
    let (mut roots, mut refs) = (Vec::with_capacity(count), Vec::with_capacity(count));
    while roots.len() < count {
        let v = rng.below(n) as VertexId;
        if g.degree(v) == 0 || roots.contains(&v) {
            continue;
        }
        let r = reference_bfs(g, v);
        if r.visited * 2 > non_isolated {
            roots.push(v);
            refs.push(r);
        }
    }
    (roots, refs)
}

/// Uniformly drawn vertices of degree ≥ 1 (repeats allowed).
pub fn non_isolated(g: &CsrGraph, count: usize, rng: &mut SplitMix) -> Vec<VertexId> {
    let n = g.num_vertices() as u64;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(n) as VertexId;
        if g.degree(v) > 0 {
            out.push(v);
        }
    }
    out
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The tail of a latency sample: the 95th percentile, or, with fewer than
/// 200 samples, the highest percentile that still has ten samples beyond
/// it (one with fewer beyond it is no tail, just the slowest few).
pub fn tail(samples: &[f64]) -> f64 {
    let q = 1.0 - 10.0 / samples.len().max(1) as f64;
    percentile(samples, q.clamp(0.5, 0.95))
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Harmonic mean, the Graph500 aggregate of per-search TEPS.
pub fn harmonic_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    samples.len() as f64 / samples.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Resident set of a process in MiB, from `/proc/<pid>/status` (`field`
/// is `VmRSS` or `VmHWM`). 0 where procfs is missing.
pub fn proc_mib(pid: &str, field: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Set-up is repeated and reported as its median: at least three times,
/// then until a second has been spent or fifty set-ups were made.
pub fn setup_done(reps: usize, started: Instant) -> bool {
    reps >= 50 || (reps >= 3 && started.elapsed() >= Duration::from_secs(1))
}
