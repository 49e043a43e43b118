//! Per-layer numbers of a traced run.
//!
//! Host time is attributed span by span: a cell span's self time goes to
//! the layer that owns the loop (`cluster` or `chaos`; trace cells own
//! only glue, reported as unattributed), folded executor calls go to
//! `sim`, and each trace stage span to its stage. The probe's calibrated
//! cost is taken out of the layers it lands in and reported on its own.
//! Shares are of the traced repetitions' wall time, measured around the
//! whole repetition apart from the spans, and the named layers must
//! account for all but [`MAX_UNATTRIBUTED`] of it. Shares are ratios of
//! totals over all traced repetitions, so machine drift that slows a
//! whole repetition cancels.

use crate::cell::Totals;
use crate::probe::ProbeCost;
use crate::spans::{self_time, Tracer};
use crate::stats::ratio;
use std::collections::BTreeMap;

/// The most of a traced repetition's wall time the named layers may
/// leave unaccounted for.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// What the last cold (set-up) repetition measured.
#[derive(Debug, Default)]
pub struct Cold {
    /// Its totals: model values and exact counts.
    pub totals: Totals,
    /// Timing-cache misses during it.
    pub misses: u64,
    /// Timing-cache hits during it.
    pub hits: u64,
}

/// Host time by layer over every traced repetition.
#[derive(Debug, Default)]
pub struct Layers {
    /// Host ns per layer, probe cost taken out.
    pub ns: BTreeMap<&'static str, f64>,
    /// Executor calls per layer boundary (`sim.gen_stage`, …) and per
    /// loop layer whose cells made them (`cluster`, `chaos`).
    pub calls: BTreeMap<&'static str, u64>,
    /// Wall ns of the traced repetitions, the denominator of shares.
    pub rep_ns: u64,
    /// The calibrated probe cost the layers were corrected by.
    pub probe: ProbeCost,
    /// Where the layer times do not add up to the measured time.
    pub gaps: Vec<String>,
    tracer_counts: BTreeMap<&'static str, u64>,
}

/// The layer a span's self time belongs to.
fn owner(name: &'static str) -> &'static str {
    match name {
        "cluster.simulate_cluster" | "cluster.simulate_fleet_mix" => "cluster",
        "chaos.simulate_chaos" | "chaos.simulate_fleet_chaos" => "chaos",
        "trace.cell" => UNATTRIBUTED,
        other => other,
    }
}

/// Time no named layer accounts for: trace-cell glue and work outside
/// every span (digests, report checks).
const UNATTRIBUTED: &str = "unattributed";

/// The probe's own cost, taken out of `sim` and the loop layers.
const PROBE: &str = "probe";

const TRACE_STAGES: [&str; 5] = [
    "trace.compile",
    "trace.encode",
    "trace.parse",
    "trace.timing",
    "trace.replay",
];

/// Attributes the host time of traced repetitions that took `rep_ns`
/// of wall time to layers, correcting folded calls by `probe`.
#[must_use]
pub fn attribute(tracer: &Tracer, probe: ProbeCost, rep_ns: u64) -> Layers {
    let spans = tracer.spans();
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    let mut folded: Vec<Vec<_>> = vec![Vec::new(); spans.len()];
    for f in tracer.folded() {
        folded[f.parent].push(f);
    }
    let mut out = Layers {
        rep_ns,
        probe,
        ..Layers::default()
    };
    for name in ["sim.gen_rows", "sim.miss_calls"]
        .into_iter()
        .chain(TRACE_STAGES)
    {
        out.tracer_counts.insert(name, tracer.counter(name));
    }
    let mut add = |layer: &'static str, ns: f64| *out.ns.entry(layer).or_insert(0.0) += ns;
    let mut spans_ns = 0u64;
    for (root, span) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let loop_layer = owner(span.name);
        spans_ns += span.ns();
        // Depth-first over the cell's span tree.
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            let kids_ns = kids[i].iter().map(|&k| spans[k].ns()).sum();
            let folded_ns = folded[i].iter().map(|f| f.ns).sum();
            let Some(own) = self_time(spans[i].ns(), kids_ns, folded_ns) else {
                out.gaps.push(format!(
                    "{} span {i}: children cover {} of {} ns",
                    spans[i].name,
                    kids_ns + folded_ns,
                    spans[i].ns()
                ));
                continue;
            };
            let mut own = own as f64;
            for f in &folded[i] {
                let calls = f.calls as f64;
                let inside = calls * probe.inside_ns;
                let outside = calls * (probe.total_ns - probe.inside_ns);
                add(f.name, f.ns as f64 - inside);
                add(PROBE, inside + outside);
                own -= outside;
                *out.calls.entry(f.name).or_insert(0) += f.calls;
                *out.calls.entry(loop_layer).or_insert(0) += f.calls;
            }
            add(owner(spans[i].name), own);
            stack.extend(&kids[i]);
        }
    }
    // Work outside every span, as measured around the repetitions.
    add(UNATTRIBUTED, rep_ns as f64 - spans_ns as f64);
    if let Some((layer, ns)) = out.ns.iter().find(|(_, ns)| **ns < 0.0) {
        out.gaps.push(format!(
            "{layer}: {ns:.0} ns after taking out the probe's calibrated cost"
        ));
    }
    let unattributed = out.share(UNATTRIBUTED);
    if unattributed > MAX_UNATTRIBUTED {
        out.gaps.push(format!(
            "named layers account for {:.4} of the traced repetitions' {rep_ns} ns",
            1.0 - unattributed
        ));
    }
    out
}

impl Layers {
    fn ns(&self, layer: &str) -> f64 {
        self.ns.get(layer).copied().unwrap_or(0.0)
    }

    fn calls(&self, layer: &str) -> f64 {
        self.calls.get(layer).copied().unwrap_or(0) as f64
    }

    fn share(&self, layer: &str) -> f64 {
        ratio(self.ns(layer), self.rep_ns as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        self.tracer_counts.get(name).copied().unwrap_or(0) as f64
    }

    /// Every per-layer metric, in `BENCHMARK.json` order. Per-call
    /// counts are per repetition; layers a workload does not reach
    /// read 0.
    #[must_use]
    pub fn metrics(
        &self,
        cold: &Cold,
        gen_s: f64,
        untraced_tok_s: f64,
        traced_tok_s: f64,
        traced_reps: u64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let per_rep = |v: f64| ratio(v, traced_reps as f64);
        let t = &cold.totals;
        let gen_calls = self.calls("sim.gen_stage");
        let sum_calls = self.calls("sim.sum_stage");
        let mut m = vec![
            ("serving.gen_s", gen_s, "s"),
            ("serving.ttft_samples", t.model.ttft_samples as f64, "count"),
            ("sim.gen_calls", per_rep(gen_calls), "count"),
            ("sim.sum_calls", per_rep(sum_calls), "count"),
            (
                "sim.gen_ns",
                ratio(self.ns("sim.gen_stage"), gen_calls),
                "ns",
            ),
            (
                "sim.sum_ns",
                ratio(self.ns("sim.sum_stage"), sum_calls),
                "ns",
            ),
            (
                "sim.share",
                self.share("sim.gen_stage") + self.share("sim.sum_stage"),
                "fraction",
            ),
            ("sim.cache_misses", cold.misses as f64, "count"),
            (
                "sim.cache_hit_rate",
                ratio(cold.hits as f64, (cold.hits + cold.misses) as f64),
                "fraction",
            ),
            (
                "sim.warm_miss_calls",
                per_rep(self.counter("sim.miss_calls")),
                "count",
            ),
            (
                "cluster.loop_ns_per_call",
                ratio(self.ns("cluster"), self.calls("cluster")),
                "ns",
            ),
            ("cluster.share", self.share("cluster"), "fraction"),
            (
                "cluster.tokens_per_gen_call",
                ratio(self.counter("sim.gen_rows"), gen_calls),
                "tok",
            ),
            (
                "cluster.model_queue_wait_p99_s",
                t.model.queue_wait_p99_s,
                "s",
            ),
            (
                "cluster.model_util",
                ratio(t.exact("cluster.busy_s"), t.exact("cluster.active_node_s")),
                "fraction",
            ),
            (
                "cluster.scale_events",
                t.exact("cluster.scale_events"),
                "count",
            ),
            ("cluster.kv_ships", t.exact("cluster.kv_ships"), "count"),
            (
                "chaos.loop_ns_per_call",
                ratio(self.ns("chaos"), self.calls("chaos")),
                "ns",
            ),
            ("chaos.share", self.share("chaos"), "fraction"),
            ("chaos.crashes", t.exact("chaos.crashes"), "count"),
            ("chaos.retries", t.exact("chaos.retries"), "count"),
            ("chaos.hedges", t.exact("chaos.hedges"), "count"),
            ("chaos.reships", t.exact("chaos.reships"), "count"),
            (
                "chaos.recomputed_tokens",
                t.exact("chaos.recomputed_tokens"),
                "tok",
            ),
            ("chaos.shed", t.exact("chaos.shed"), "count"),
            (
                "chaos.useful_token_frac",
                ratio(
                    t.exact("chaos.useful_tokens"),
                    t.exact("chaos.computed_tokens"),
                ),
                "fraction",
            ),
        ];
        for (stage, per_inst, share) in [
            (
                "trace.compile",
                "trace.compile_ns_per_inst",
                "trace.compile_share",
            ),
            (
                "trace.encode",
                "trace.encode_ns_per_inst",
                "trace.encode_share",
            ),
            (
                "trace.parse",
                "trace.parse_ns_per_inst",
                "trace.parse_share",
            ),
            (
                "trace.timing",
                "trace.timing_ns_per_inst",
                "trace.timing_share",
            ),
            (
                "trace.replay",
                "trace.replay_ns_per_inst",
                "trace.replay_share",
            ),
        ] {
            m.push((per_inst, ratio(self.ns(stage), self.counter(stage)), "ns"));
            m.push((share, self.share(stage), "fraction"));
        }
        m.extend([
            ("trace.insts", t.exact("trace.insts"), "count"),
            ("trace.text_bytes", t.exact("trace.text_bytes"), "B"),
            ("trace.heads_run", t.exact("trace.heads_run"), "count"),
            ("trace.mac_commands", t.exact("trace.mac_commands"), "count"),
            ("trace.model_attn_s", t.exact("trace.model_attn_s"), "s"),
            (
                "bench.unattributed_share",
                self.share(UNATTRIBUTED),
                "fraction",
            ),
            ("bench.probe_ns", self.probe.total_ns, "ns"),
            ("bench.probe_share", self.share(PROBE), "fraction"),
            (
                "bench.trace_overhead",
                1.0 - ratio(traced_tok_s, untraced_tok_s),
                "fraction",
            ),
            ("bench.traced_reps", traced_reps as f64, "count"),
        ]);
        eprintln!(
            "perfbench: host-time shares of {:.3} s of traced repetitions:",
            self.rep_ns as f64 * 1e-9
        );
        for (layer, ns) in &self.ns {
            eprintln!("  {layer:<16} {:>7.4}", ratio(*ns, self.rep_ns as f64));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Long enough that the glue between spans stays far below
    /// `MAX_UNATTRIBUTED`.
    fn busy() {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    /// One fleet cell with folded executor calls and one trace cell with
    /// two stages; returns the tracer and the cells' wall ns.
    fn traced() -> (Tracer, u64) {
        let t = Tracer::new();
        t.span("cluster.simulate_cluster", None, |id| {
            busy();
            t.fold(id, "sim.gen_stage", 4, 10);
            t.fold(id, "sim.sum_stage", 1, 5);
        });
        t.span("trace.cell", None, |id| {
            t.span("trace.compile", Some(id), |_| busy());
            t.span("trace.parse", Some(id), |_| busy());
        });
        let cells = t
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.ns())
            .sum();
        (t, cells)
    }

    #[test]
    fn shares_account_for_the_measured_time() {
        let (t, cells) = traced();
        let l = attribute(&t, ProbeCost::default(), cells);
        assert!(l.gaps.is_empty(), "{:?}", l.gaps);
        assert_eq!(l.calls["sim.gen_stage"], 4);
        assert_eq!(l.calls["cluster"], 5);
        assert_eq!(l.ns["sim.gen_stage"], 10.0);
        let shares: f64 = l.ns.keys().map(|k| l.share(k)).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_outside_the_spans_is_unattributed_and_too_much_fails() {
        let (t, cells) = traced();
        let l = attribute(&t, ProbeCost::default(), cells + cells / 100);
        assert!(l.gaps.is_empty(), "{:?}", l.gaps);
        let l = attribute(&t, ProbeCost::default(), 2 * cells);
        assert!(l.share(UNATTRIBUTED) >= 0.5);
        assert_eq!(l.gaps.len(), 1, "{:?}", l.gaps);
    }

    #[test]
    fn probe_cost_moves_out_of_sim_and_the_loop() {
        let (t, cells) = traced();
        let plain = attribute(&t, ProbeCost::default(), cells);
        let probe = ProbeCost {
            inside_ns: 1.0,
            total_ns: 3.0,
        };
        let l = attribute(&t, probe, cells);
        assert!(l.gaps.is_empty(), "{:?}", l.gaps);
        // 5 calls: 1 ns each out of the folded calls, 2 ns each out of
        // the loop's self time, 3 ns each to the probe.
        assert_eq!(l.ns["sim.gen_stage"], 10.0 - 4.0);
        assert_eq!(l.ns["cluster"], plain.ns["cluster"] - 10.0);
        assert_eq!(l.ns[PROBE], 15.0);
        let total: f64 = l.ns.values().sum();
        assert_eq!(total, cells as f64);
        // A calibration larger than the measured calls is a gap.
        let huge = ProbeCost {
            inside_ns: 1e3,
            total_ns: 1e3,
        };
        assert!(!attribute(&t, huge, cells).gaps.is_empty());
    }
}
