//! The repository benchmark: one command, three workloads, every metric
//! by name and unit, outputs checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_day --seed 42 --seconds 40 --trace 0
//! ```
//!
//! For `--seconds` the run alternates set-ups and warm repetitions of
//! every cell: every [`SETUP_EVERY`]-th repetition is a set-up (timing
//! cache cleared, inputs from `--seed`, executors, one untimed cold
//! repetition with the full output checks), the others are timed.
//! Spreading the set-ups over the run exposes them to the same machine
//! drift as the timed repetitions. After every repetition the run
//! times a fixed reference kernel ([`machine`]), and host times are
//! scaled to the reference machine's speed, so the host metrics of
//! runs made in different phases of machine drift agree. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced warm repetitions and reports the per-layer metrics instead.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod cell;
mod digest;
mod fleet;
mod heap;
mod isa;
mod layers;
mod machine;
mod probe;
mod spans;
mod stats;

use cell::{rep_digest, Cell, Totals};
use spans::Tracer;
use stats::{median, Rate};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// A benchmark workload: named cells, each one simulator call.
pub trait Workload {
    /// Cell names, in run order.
    fn cell_names(&self) -> Vec<&'static str>;
    /// Runs cell `i`, inside spans when `tracer` is given. `check` asks
    /// for the output checks too costly to repeat in timed repetitions.
    fn run_cell(&self, i: usize, check: bool, tracer: Option<&Tracer>) -> Cell;
}

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["fleet_day", "fault_storm", "isa_replay"];

/// The seed whose repetition digests are blessed below.
const DEFAULT_SEED: u64 = 42;

/// Repetition digests at [`DEFAULT_SEED`]: any change to a model value
/// or an exact count of any cell changes them.
const BLESSED: [(&str, u64); 3] = [
    ("fleet_day", 0xc319_160c_1007_03b7),
    ("fault_storm", 0xef28_3ae0_b090_bda6),
    ("isa_replay", 0xf32f_9251_0e95_81dd),
];

/// Every `SETUP_EVERY`-th repetition of a run is a set-up, so set-ups
/// take roughly a third of the run.
const SETUP_EVERY: usize = 4;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?;
            }
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if out.workload.is_empty() {
        return Err(format!("--workload is required; one of {WORKLOADS:?}"));
    }
    Ok(out)
}

/// Builds the workload's inputs from `seed`; returns it with the time
/// spent generating its inputs.
fn build(workload: &str, seed: u64) -> (Box<dyn Workload>, f64) {
    match workload {
        "fleet_day" => {
            let (w, gen_s) = fleet::Fleets::build(fleet::Kind::Day, seed);
            (Box::new(w), gen_s)
        }
        "fault_storm" => {
            let (w, gen_s) = fleet::Fleets::build(fleet::Kind::Storm, seed);
            (Box::new(w), gen_s)
        }
        _ => {
            let (w, gen_s) = isa::Isa::build(seed);
            (Box::new(w), gen_s)
        }
    }
}

/// Operation accounting and the output check across repetitions.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// Cell digests of the first repetition; every later one must match.
    reference: Vec<u64>,
    notes: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// Runs every cell once. A panicking cell is a failed operation, not an
/// abort. Returns the totals and the host seconds spent.
fn run_rep(
    w: &dyn Workload,
    check: bool,
    tracer: Option<&Tracer>,
    ledger: &mut Ledger,
) -> (Totals, f64) {
    let names = w.cell_names();
    let start = Instant::now();
    let mut cells = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        ledger.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| w.run_cell(i, check, tracer))) {
            Ok(cell) => {
                let digest = cell.digest();
                if ledger.reference.len() == i {
                    ledger.reference.push(digest);
                    let m = &cell.model;
                    eprintln!(
                        "perfbench: cell {name}: {} tok, {:.1} in-SLO tok/s, TTFT p50/p99 {:.4}/{:.4} s over {} samples, {:.2} simulated s",
                        cell.tokens,
                        stats::ratio(m.slo_tokens, m.sim_s),
                        m.ttft_p50_s,
                        m.ttft_p99_s,
                        m.ttft_samples,
                        m.sim_s
                    );
                }
                if !cell.failures.is_empty() {
                    ledger.fail(format!("{name}: {}", cell.failures.join("; ")));
                } else if ledger.reference[i] != digest {
                    ledger.fail(format!(
                        "{name}: digest {digest:016x} != first repetition's"
                    ));
                }
                cells.push((*name, cell));
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_default();
                ledger.fail(format!("{name}: panicked: {msg}"));
                if ledger.reference.len() == i {
                    ledger.reference.push(0);
                }
            }
        }
    }
    (Totals::of(&cells), start.elapsed().as_secs_f64())
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut ledger = Ledger::default();

    let cache = attacc_sim::TimingCache::global();
    let tracer = Tracer::new();
    let mut setup_s = Vec::new();
    let mut gen = Rate::default();
    let mut cold = layers::Cold::default();
    let mut untraced = Rate::default();
    let mut traced = Rate::default();
    let mut traced_reps = 0;
    let mut rep_s = Vec::new();
    let mut gauge = machine::Gauge::default();
    let mut gauge_ok = true;
    let mut workload: Option<Box<dyn Workload>> = None;
    let min_warm = if args.trace { 2 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut k = 0;
    while k < 1 + min_warm || Instant::now() < deadline {
        if k % SETUP_EVERY == 0 {
            // The previous set-up's workload is freed before timing this one.
            drop(workload.take());
            let start = Instant::now();
            cache.clear();
            let before = cache.stats();
            let (w, gen_s) = build(args.workload, args.seed);
            let (totals, _) = run_rep(&*w, true, None, &mut ledger);
            let after = cache.stats();
            setup_s.push(start.elapsed().as_secs_f64());
            gen.add(1.0, gen_s);
            cold = layers::Cold {
                totals,
                misses: after.misses - before.misses,
                hits: after.hits - before.hits,
            };
            workload = Some(w);
        } else {
            let w = workload
                .as_deref()
                .expect("set up before the first timed repetition");
            let with_trace = args.trace && (k - k / SETUP_EVERY).is_multiple_of(2);
            let (totals, secs) = run_rep(w, false, with_trace.then_some(&tracer), &mut ledger);
            if with_trace {
                traced.add(totals.tokens as f64, secs);
                traced_reps += 1;
            } else {
                untraced.add(totals.tokens as f64, secs);
                rep_s.push(secs);
            }
        }
        gauge_ok &= heap::uncounted(|| gauge.sample());
        k += 1;
    }
    let digest = rep_digest(&ledger.reference);

    let blessed = BLESSED
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|b| b.1);
    let mut correct = ledger.failed == 0;
    let lo = rep_s.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = rep_s.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "perfbench {} seed {}: {} set-ups of {:.3} s, {} untraced repetitions of {lo:.3}/{:.3}/{hi:.3} s min/median/max, digest {digest:016x}",
        args.workload,
        args.seed,
        setup_s.len(),
        median(&setup_s),
        rep_s.len(),
        median(&rep_s)
    );
    let slowdown = gauge.slowdown();
    eprintln!(
        "perfbench: the reference kernel ran {slowdown:.3}× as long as on the reference machine; host {:.1} tok/s unscaled",
        untraced.per_s()
    );
    if !gauge_ok {
        eprintln!("perfbench: the reference kernel's results changed between runs");
        correct = false;
    }
    if args.seed == DEFAULT_SEED && blessed != Some(digest) {
        eprintln!(
            "perfbench: digest {digest:016x} != blessed {:016x}",
            blessed.unwrap_or(0)
        );
        correct = false;
    }

    let metrics = if args.trace {
        let layer = layers::attribute(&tracer, probe::calibrate(), (traced.secs * 1e9) as u64);
        for gap in &layer.gaps {
            eprintln!("perfbench: {gap}");
            correct = false;
        }
        if let Err(e) = write_spans(&tracer, &args) {
            eprintln!("perfbench: could not write spans: {e}");
        }
        let mut m = layer.metrics(
            &cold,
            gen.secs / gen.work,
            untraced.per_s(),
            traced.per_s(),
            traced_reps,
        );
        // Set-up against the untraced repetitions it is interleaved
        // with: machine drift slows both, so the ratio cancels it.
        m.push((
            "bench.setup_per_rep",
            stats::ratio(median(&setup_s), median(&rep_s)),
            "ratio",
        ));
        m.push(("bench.raw_tok_per_s", untraced.per_s(), "tok/s"));
        m.push(("bench.peak_rss_mib", peak_rss_mib(), "MiB"));
        m.push(("bench.machine_slowdown", slowdown, "ratio"));
        m
    } else {
        let t = &cold.totals;
        eprintln!(
            "perfbench: TTFT from the worst configuration, over {} samples",
            t.model.ttft_samples
        );
        vec![
            ("host_tok_per_s", untraced.per_s() * slowdown, "tok/s"),
            ("setup_s", median(&setup_s) / slowdown, "s"),
            (
                "peak_heap_mib",
                heap::peak_bytes() as f64 / 1048576.0,
                "MiB",
            ),
            ("model_goodput_tok_s", t.goodput_tok_s(), "tok/s"),
            ("model_ttft_p50_s", t.model.ttft_p50_s, "s"),
            ("model_ttft_p99_s", t.model.ttft_p99_s, "s"),
            ("model_usd_per_mtok", t.usd_per_mtok(), "USD"),
            ("model_availability", t.availability(), "fraction"),
            ("model_sim_s", t.model.sim_s, "s"),
            ("model_energy_j", t.model.energy_j, "J"),
        ]
    };
    for note in &ledger.notes {
        eprintln!("perfbench: failed: {note}");
    }
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: a metric is not finite");
        correct = false;
    }
    println!(
        "{}",
        render(correct, ledger.attempted, ledger.failed, &metrics)
    );
}

/// Writes the traced run's spans as JSON lines under `.bench_out/`.
fn write_spans(tracer: &Tracer, args: &Args) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write(&mut out)?;
    out.flush()?;
    eprintln!("perfbench: spans written to {path}");
    Ok(())
}

/// The result line.
fn render(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload isa_replay --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("isa_replay", 7, 12.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload fleet_day --trace 2").is_err());
        assert!(args("--workload fleet_day --seconds").is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = render(true, 3, 0, &[("a", 1.5, "s"), ("b", f64::NAN, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
