//! What one benchmark cell produced, and how cells add up.
//!
//! A cell is one call into a simulator entry point (or one trace
//! through the trace pipeline). Its [`Model`] outcome is simulated time,
//! energy and cost, which repeat bit for bit; its `exact` map holds the
//! deterministic work counts of the layers it ran through.

use crate::digest::Digest;
use crate::stats::{median, ratio};
use std::collections::BTreeMap;

/// Simulated outcome of one cell, in the units of the modelled hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Model {
    /// Output tokens delivered within the latency SLO.
    pub slo_tokens: f64,
    /// Simulated seconds the cell covers (makespan or trace clock).
    pub sim_s: f64,
    /// Median time to first token (s).
    pub ttft_p50_s: f64,
    /// 99th-percentile time to first token (s).
    pub ttft_p99_s: f64,
    /// Samples behind the TTFT percentiles (0 = the cell has none).
    pub ttft_samples: u64,
    /// Total bill of the cell under the paper-default cost book (USD).
    pub usd: f64,
    /// Output tokens the bill is spread over.
    pub billed_tokens: f64,
    /// Node-seconds up (not crashed) within the makespan.
    pub up_node_s: f64,
    /// Node-seconds provisioned within the makespan.
    pub node_s: f64,
    /// Energy (J).
    pub energy_j: f64,
    /// 99th-percentile front-door queue wait (s).
    pub queue_wait_p99_s: f64,
}

/// One cell's result.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    /// Simulated output tokens delivered (the throughput numerator).
    pub tokens: u64,
    /// Simulated outcome.
    pub model: Model,
    /// Exact per-layer values, summed over cells by name.
    pub exact: BTreeMap<&'static str, f64>,
    /// Digest of functional outputs (0 when the cell has none).
    pub outputs: u64,
    /// Failed conservation audits, one line each.
    pub failures: Vec<String>,
}

impl Cell {
    /// Adds `v` to the exact value `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.exact.entry(name).or_insert(0.0) += v;
    }

    /// Records a failed audit unless `ok`.
    pub fn audit(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Digest of every model value and exact count.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let m = &self.model;
        let mut d = Digest::default();
        d.u64(self.tokens);
        for v in [
            m.slo_tokens,
            m.sim_s,
            m.ttft_p50_s,
            m.ttft_p99_s,
            m.usd,
            m.billed_tokens,
            m.up_node_s,
            m.node_s,
            m.energy_j,
            m.queue_wait_p99_s,
        ] {
            d.f64(v);
        }
        d.u64(m.ttft_samples);
        d.u64(self.outputs);
        for (name, v) in &self.exact {
            d.str(name);
            d.f64(*v);
        }
        d.value()
    }
}

/// Cells of one repetition added up.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Delivered simulated tokens.
    pub tokens: u64,
    /// Summed model outcome (TTFT and queue wait: the worst cell).
    pub model: Model,
    /// Summed exact values.
    pub exact: BTreeMap<&'static str, f64>,
}

impl Totals {
    /// Adds up named cells. Cells sharing a name are draws of one
    /// configuration (fault schedules): its TTFT percentiles are their
    /// medians, and the configuration with the worst p99 sets both.
    #[must_use]
    pub fn of(cells: &[(&'static str, Cell)]) -> Totals {
        let mut t = Totals::default();
        // Per configuration: p50s, p99s and summed samples of its draws.
        let mut configs: BTreeMap<&str, (Vec<f64>, Vec<f64>, u64)> = BTreeMap::new();
        for (name, c) in cells {
            let (a, m) = (&mut t.model, &c.model);
            t.tokens += c.tokens;
            a.slo_tokens += m.slo_tokens;
            a.sim_s += m.sim_s;
            a.usd += m.usd;
            a.billed_tokens += m.billed_tokens;
            a.up_node_s += m.up_node_s;
            a.node_s += m.node_s;
            a.energy_j += m.energy_j;
            a.queue_wait_p99_s = a.queue_wait_p99_s.max(m.queue_wait_p99_s);
            if m.ttft_samples > 0 {
                let g = configs.entry(name).or_default();
                g.0.push(m.ttft_p50_s);
                g.1.push(m.ttft_p99_s);
                g.2 += m.ttft_samples;
            }
            for (name, v) in &c.exact {
                *t.exact.entry(name).or_insert(0.0) += v;
            }
        }
        for (p50s, p99s, samples) in configs.values() {
            let p99 = median(p99s);
            if p99 >= t.model.ttft_p99_s {
                t.model.ttft_p50_s = median(p50s);
                t.model.ttft_p99_s = p99;
                t.model.ttft_samples = *samples;
            }
        }
        t
    }

    /// In-SLO tokens per simulated second.
    #[must_use]
    pub fn goodput_tok_s(&self) -> f64 {
        ratio(self.model.slo_tokens, self.model.sim_s)
    }

    /// USD per million billed tokens.
    #[must_use]
    pub fn usd_per_mtok(&self) -> f64 {
        ratio(self.model.usd, self.model.billed_tokens) * 1e6
    }

    /// Up node-seconds over provisioned node-seconds.
    #[must_use]
    pub fn availability(&self) -> f64 {
        ratio(self.model.up_node_s, self.model.node_s)
    }

    /// An exact value (0 when no cell reported it).
    #[must_use]
    pub fn exact(&self, name: &str) -> f64 {
        self.exact.get(name).copied().unwrap_or(0.0)
    }
}

/// Digest of a whole repetition: its cell digests in order.
#[must_use]
pub fn rep_digest(cell_digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &c in cell_digests {
        d.u64(c);
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(tokens: u64, p99: f64) -> Cell {
        let mut c = Cell {
            tokens,
            model: Model {
                slo_tokens: tokens as f64 / 2.0,
                sim_s: 10.0,
                ttft_p50_s: p99 / 2.0,
                ttft_p99_s: p99,
                ttft_samples: 1000,
                up_node_s: 9.0,
                node_s: 10.0,
                ..Model::default()
            },
            ..Cell::default()
        };
        c.add("chaos.crashes", 2.0);
        c
    }

    #[test]
    fn digest_is_stable_across_repetitions() {
        let reps: Vec<u64> = (0..5).map(|_| cell(100, 1.5).digest()).collect();
        assert!(reps.windows(2).all(|w| w[0] == w[1]));
        let mut moved = cell(100, 1.5);
        moved.model.energy_j = f64::from_bits(1);
        assert_ne!(moved.digest(), reps[0]);
        let mut recounted = cell(100, 1.5);
        recounted.add("chaos.crashes", 1.0);
        assert_ne!(recounted.digest(), reps[0]);
    }

    #[test]
    fn totals_sum_and_take_the_worst_tail() {
        let t = Totals::of(&[
            ("a", cell(100, 1.0)),
            ("b", cell(300, 3.0)),
            ("c", cell(50, 2.0)),
        ]);
        assert_eq!(t.tokens, 450);
        assert_eq!(t.goodput_tok_s(), 225.0 / 30.0);
        assert_eq!(t.model.ttft_p99_s, 3.0);
        assert_eq!(t.model.ttft_p50_s, 1.5);
        assert_eq!(t.availability(), 0.9);
        assert_eq!(t.exact("chaos.crashes"), 6.0);
        assert_eq!(t.exact("absent"), 0.0);
    }

    #[test]
    fn fault_draws_of_one_config_take_their_median_before_the_worst() {
        let t = Totals::of(&[
            ("a", cell(10, 9.0)),
            ("a", cell(10, 1.0)),
            ("a", cell(10, 2.0)),
            ("b", cell(10, 3.0)),
            ("b", cell(10, 2.5)),
            ("b", cell(10, 3.5)),
        ]);
        // One unlucky draw (9 s) does not make `a` the worst: its median
        // is 2 s against b's 3 s.
        assert_eq!(t.model.ttft_p99_s, 3.0);
        assert_eq!(t.model.ttft_p50_s, 1.5);
        assert_eq!(t.model.ttft_samples, 3000);
    }

    #[test]
    fn rep_digest_depends_on_cell_order() {
        assert_ne!(rep_digest(&[1, 2]), rep_digest(&[2, 1]));
        assert_eq!(rep_digest(&[1, 2]), rep_digest(&[1, 2]));
    }
}
