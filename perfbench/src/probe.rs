//! A timing wrapper around a `StageExecutor` for the traced run.
//!
//! Every `StageExecutor` call is delegated unchanged, so the simulated
//! outcome is bit-identical with or without the wrapper. Calls are
//! folded into per-kind counts and host-time sums; the global
//! `TimingCache` miss counter read around each call tells calls that
//! reached the exact engine from calls answered by a cache or the Gen
//! fast path. The wrapper's own cost per call is calibrated on an
//! executor that does nothing, so it can be taken out of the layers it
//! would otherwise inflate.

use crate::stats::median;
use attacc_serving::{StageCost, StageExecutor};
use attacc_sim::TimingCache;
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Folded executor-call totals of one simulator cell.
#[derive(Debug, Default)]
pub struct ProbeSums {
    /// Gen-stage calls.
    pub gen_calls: Cell<u64>,
    /// Host ns inside Gen-stage calls.
    pub gen_ns: Cell<u64>,
    /// Requests summed over Gen-stage calls (decode tokens emitted).
    pub gen_rows: Cell<u64>,
    /// Sum-stage calls.
    pub sum_calls: Cell<u64>,
    /// Host ns inside Sum-stage calls.
    pub sum_ns: Cell<u64>,
    /// Calls during which the timing cache recorded a miss.
    pub miss_calls: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// An executor whose calls are timed into a shared [`ProbeSums`].
#[derive(Debug)]
pub struct Probed<'a, E> {
    inner: &'a E,
    sums: &'a ProbeSums,
}

impl<'a, E: StageExecutor> Probed<'a, E> {
    /// Wraps `inner`, folding its calls into `sums`.
    #[must_use]
    pub fn new(inner: &'a E, sums: &'a ProbeSums) -> Probed<'a, E> {
        Probed { inner, sums }
    }

    fn timed(&self, calls: &Cell<u64>, ns: &Cell<u64>, f: impl FnOnce() -> StageCost) -> StageCost {
        let cache = TimingCache::global();
        let misses = cache.stats().misses;
        let start = Instant::now();
        let cost = f();
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if cache.stats().misses != misses {
            bump(&self.sums.miss_calls, 1);
        }
        bump(calls, 1);
        bump(ns, elapsed);
        cost
    }
}

impl<E: StageExecutor> StageExecutor for Probed<'_, E> {
    fn sum_stage(&self, batch: u64, l_in: u64) -> StageCost {
        self.timed(&self.sums.sum_calls, &self.sums.sum_ns, || {
            self.inner.sum_stage(batch, l_in)
        })
    }

    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        bump(&self.sums.gen_rows, groups.iter().map(|&(n, _)| n).sum());
        self.timed(&self.sums.gen_calls, &self.sums.gen_ns, || {
            self.inner.gen_stage(groups)
        })
    }
}

/// Host cost of the probe around one executor call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeCost {
    /// ns per call spent inside the timed window, so folded into the
    /// executor's time.
    pub inside_ns: f64,
    /// ns per call in all: the part outside the window lands in the
    /// calling loop's self time.
    pub total_ns: f64,
}

/// An executor that does no work: what is left of a probed call to it
/// is the probe.
struct Null;

impl StageExecutor for Null {
    fn sum_stage(&self, _: u64, _: u64) -> StageCost {
        StageCost::default()
    }

    fn gen_stage(&self, _: &[(u64, u64)]) -> StageCost {
        StageCost::default()
    }
}

/// Gen calls per calibration round.
const CALIBRATION_CALLS: u32 = 100_000;

/// ns per call of `CALIBRATION_CALLS` Gen calls through `exec`, called
/// as the simulators call it: through `dyn StageExecutor`.
fn per_call_ns(exec: &dyn StageExecutor) -> f64 {
    let groups = [(32, 600), (16, 700)];
    let start = Instant::now();
    for _ in 0..CALIBRATION_CALLS {
        black_box(black_box(exec).gen_stage(black_box(&groups)));
    }
    start.elapsed().as_nanos() as f64 / f64::from(CALIBRATION_CALLS)
}

/// Measures the probe's per-call cost: probed against direct calls to
/// [`Null`], the median of several alternating rounds.
#[must_use]
pub fn calibrate() -> ProbeCost {
    let (mut inside, mut total) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let sums = ProbeSums::default();
        let direct = per_call_ns(&Null);
        let probed = per_call_ns(&Probed::new(&Null, &sums));
        let window = sums.gen_ns.get() as f64 / f64::from(CALIBRATION_CALLS);
        inside.push((window - direct).max(0.0));
        total.push((probed - direct).max(0.0));
    }
    ProbeCost {
        inside_ns: median(&inside),
        total_ns: median(&total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_model::ModelConfig;
    use attacc_sim::{System, SystemExecutor};

    #[test]
    fn wrapper_is_transparent_and_counts() {
        let model = ModelConfig::gpt3_175b();
        let exec = SystemExecutor::new(System::dgx_attacc_full(), &model);
        let sums = ProbeSums::default();
        let probed = Probed::new(&exec, &sums);
        let groups = [(3, 600), (2, 700)];
        assert_eq!(probed.gen_stage(&groups), exec.gen_stage(&groups));
        assert_eq!(probed.sum_stage(4, 512), exec.sum_stage(4, 512));
        assert_eq!(sums.gen_calls.get(), 1);
        assert_eq!(sums.gen_rows.get(), 5);
        assert_eq!(sums.sum_calls.get(), 1);
    }

    #[test]
    fn calibration_prices_the_probe() {
        let cost = calibrate();
        // Two clock reads and two counter reads: tens of ns, never
        // free, and the timed window holds only part of it.
        assert!(cost.total_ns > 0.0 && cost.total_ns < 10_000.0, "{cost:?}");
        assert!(cost.inside_ns <= cost.total_ns, "{cost:?}");
    }
}
