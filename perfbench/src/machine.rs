//! A fixed reference workload that gauges how fast the machine runs.
//!
//! On a shared host the simulator's speed drifts by up to 1.7× in
//! phases of tens of seconds to minutes: neighbours contend for the core
//! and its caches, and CPU time equals wall time, so it is not
//! descheduling. A 40 s run cannot average that out. Cut into 40 s
//! windows, one process on one seed spread its throughput by 0.11
//! (IQR/median) on `isa_replay` and `fault_storm`.
//!
//! The benchmark runs [`Gauge::sample`] after every repetition and
//! scales host times to a machine on which the kernel takes
//! [`NOMINAL_S`]. The kernel shares no code with the simulator, so a
//! change to the simulator cannot move it. Its work is the simulator's
//! kind: ordered-map updates, a binary-heap event loop, sorting, and
//! float text formatting and parsing. So drift slows both nearly alike:
//! scaled, the same windows spread 0.02–0.05. Not exactly alike, though:
//! in its slow phases `fault_storm` slowed 1.2–1.4× as much as the
//! kernel, which is what is left of its run-to-run spread.

use crate::stats::Rate;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's host time on the reference machine (s).
pub const NOMINAL_S: f64 = 0.1;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Inserts `n` small vectors into an ordered map while writing one text
/// line per insert, then parses the lines back.
fn ordered_map_and_text(n: u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut text = String::new();
    let mut x = 12_345;
    for k in 0..n {
        let r = xorshift(&mut x);
        map.insert(r % (n / 2), vec![k; 4]);
        let _ = writeln!(text, "{} {:.3}", r % 1000, k as f64 * 0.37);
    }
    let parsed: u64 = text
        .lines()
        .filter_map(|l| l.split(' ').next()?.parse::<u64>().ok())
        .sum();
    map.len() as u64 ^ parsed
}

/// A discrete-event loop: `requests` requests of `steps` steps each,
/// ordered by a binary heap, with per-request state in a hash map.
fn event_loop(requests: u32, steps: u32) -> u64 {
    let mut x = 777;
    let mut heap = BinaryHeap::new();
    let mut state: HashMap<u32, (f64, u32)> = HashMap::new();
    for id in 0..requests {
        heap.push(Reverse((xorshift(&mut x) % 1_000_000, id)));
        state.insert(id, (0.0, steps));
    }
    let mut latency = Vec::with_capacity(requests as usize);
    while let Some(Reverse((t, id))) = heap.pop() {
        let s = state.get_mut(&id).expect("every queued request has state");
        s.0 += (t as f64).sqrt();
        s.1 -= 1;
        if s.1 == 0 {
            latency.push(s.0);
            state.remove(&id);
        } else {
            heap.push(Reverse((t + xorshift(&mut x) % 1000 + 1, id)));
        }
    }
    latency.sort_by(f64::total_cmp);
    latency
        .iter()
        .fold(0, |h, v| h.rotate_left(5) ^ v.to_bits())
}

/// Sorts and deduplicates `n` random keys.
fn sort_dedup(n: usize) -> u64 {
    let mut x = 99;
    let mut keys: Vec<u64> = (0..n).map(|_| xorshift(&mut x) % (n as u64)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len() as u64
}

/// Formats `n` instruction-like lines with float fields and parses them.
fn format_and_parse(n: u64) -> u64 {
    let mut text = String::new();
    let mut x = 5;
    for k in 0..n {
        let r = xorshift(&mut x);
        let _ = writeln!(
            text,
            "run b={} h={} q={} s={:?}",
            r % 64,
            k % 96,
            r % 7,
            (r % 1000) as f64 * 1.5e-3
        );
    }
    let mut sum = 0.0;
    for line in text.lines() {
        for field in line.split_whitespace().skip(1) {
            let value = field.split_once('=').map_or("", |(_, v)| v);
            sum += value.parse::<f64>().unwrap_or(f64::NAN);
        }
    }
    sum.to_bits()
}

/// Runs the kernel once. Returns its host seconds and a checksum of its
/// results, which is the same on every call.
#[must_use]
pub fn reference() -> (f64, u64) {
    let start = Instant::now();
    let checksum = ordered_map_and_text(black_box(100_000))
        ^ event_loop(black_box(4_000), 48).rotate_left(16)
        ^ sort_dedup(black_box(400_000)).rotate_left(32)
        ^ format_and_parse(black_box(60_000)).rotate_left(48);
    (start.elapsed().as_secs_f64(), black_box(checksum))
}

/// The kernel's runs over one benchmark run.
#[derive(Debug, Default)]
pub struct Gauge {
    runs: Rate,
    checksum: Option<u64>,
}

impl Gauge {
    /// Runs the kernel once. False when its checksum differs from the
    /// first run's.
    pub fn sample(&mut self) -> bool {
        let (secs, checksum) = reference();
        self.add(secs);
        *self.checksum.get_or_insert(checksum) == checksum
    }

    fn add(&mut self, secs: f64) {
        self.runs.add(1.0, secs);
    }

    /// How many times slower than the reference machine this run's
    /// machine was: the kernel's mean time over [`NOMINAL_S`], a ratio
    /// of totals. 1 before the first sample.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.runs.work > 0.0 {
            self.runs.secs / self.runs.work / NOMINAL_S
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_drift_that_slows_everything_alike() {
        // The same repetition on a machine 1× and 1.6× slower than
        // nominal: host rates differ, scaled rates agree.
        let tokens = 1000.0;
        let rep_s = 0.5;
        let mut scaled = Vec::new();
        for slow in [1.0, 1.6] {
            let mut g = Gauge::default();
            g.add(NOMINAL_S * slow);
            g.add(NOMINAL_S * slow);
            let mut r = Rate::default();
            r.add(tokens, rep_s * slow);
            scaled.push(r.per_s() * g.slowdown());
        }
        assert!((scaled[0] - tokens / rep_s).abs() < 1e-9);
        assert!((scaled[1] - scaled[0]).abs() < 1e-9);
        assert_eq!(Gauge::default().slowdown(), 1.0);
    }

    #[test]
    fn the_kernel_repeats_its_results() {
        let mut g = Gauge::default();
        assert!(g.sample());
        assert!(g.sample());
        g.checksum = g.checksum.map(|c| c ^ 1);
        assert!(!g.sample());
    }
}
