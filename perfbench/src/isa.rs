//! The `isa_replay` workload: the paper's ISA-level PIM attention model.
//!
//! GPT-3 175B decode at batch 64, 16 steps, is lowered to an AttAcc
//! instruction trace once per KV policy; each trace goes through
//! compile → `to_text` → `parse` → `execute_timing` on the HBM command
//! engine. A functional trace of a compact model goes through the same
//! codec and is replayed through the `AttAccController` datapath. The
//! seed draws each request's prompt length around 2048 and the
//! functional operands. No serving loop and no `TimingCache` is used.
//!
//! Timed repetitions run each stage once per trace. The checks that
//! need more work (the round-trip comparison, timing the original trace
//! again, timing the first-token prefix) run in the untimed cold
//! repetition of every set-up, which still covers every seed.

use crate::cell::Cell;
use crate::digest::Digest;
use crate::spans::Tracer;
use crate::Workload;
use attacc_cluster::{splitmix64, SloSpec};
use attacc_hbm::StackGeometry;
use attacc_model::{DataType, ModelConfig};
use attacc_pim::{AttAccController, AttInst, Precision};
use attacc_provision::{CostBook, NodeVariant};
use attacc_trace::{
    compile, execute_timing, replay, DecodeSchedule, KvPolicy, RequestPlan, TimingConfig, Trace,
    TracePayload,
};
use std::cell::RefCell;
use std::time::Instant;

/// Requests per timing trace.
const BATCH: u64 = 64;
/// Mean prompt length of a timing-trace request.
const PROMPT_L: u64 = 2048;
/// Prompt lengths are drawn uniformly from `PROMPT_L ± PROMPT_JITTER`.
const PROMPT_JITTER: u64 = 128;
/// Decode steps per trace.
const STEPS: u64 = 16;

/// Requests, mean prompt length and decode steps of the functional trace.
const FUNC_BATCH: u64 = 8;
const FUNC_PROMPT_L: u64 = 256;
const FUNC_STEPS: u64 = 8;

/// One trace cell.
enum Job {
    /// A GPT-3 175B timing trace.
    Timing(DecodeSchedule),
    /// A compact-model functional trace.
    Functional(DecodeSchedule),
}

/// The workload: one GPT-3 175B timing schedule per KV policy plus the
/// functional schedule.
pub struct Isa {
    gpt3: ModelConfig,
    compact: ModelConfig,
    timing: TimingConfig,
    jobs: Vec<(&'static str, Job)>,
    book: CostBook,
    slo: SloSpec,
    /// Per job, the first-token time its checked run measured on the
    /// trace prefix; timed repetitions report it without timing the
    /// prefix again.
    first_token_s: RefCell<Vec<f64>>,
}

fn plans(seed: u64, batch: u64, mean: u64, jitter: u64, steps: u64) -> Vec<RequestPlan> {
    (0..batch)
        .map(|r| RequestPlan {
            prompt_l: mean - jitter + splitmix64(seed ^ r) % (2 * jitter + 1),
            decode_steps: steps,
        })
        .collect()
}

/// The compact model of the functional trace: 4 heads of 64.
fn compact_model() -> ModelConfig {
    ModelConfig::builder("compact")
        .decoders(2)
        .embedding(256)
        .heads(4)
        .feedforward(1024)
        .vocab(1000)
        .max_seq_len(1024)
        .dtype(DataType::Fp16)
        .build()
        .expect("the compact model is a valid configuration")
}

/// A small functional controller (2 stacks of a reduced HBM3 geometry).
fn controller() -> AttAccController {
    let geom = StackGeometry {
        pseudo_channels: 4,
        bank_groups_per_rank: 2,
        ranks: 2,
        banks_per_group: 2,
        ..StackGeometry::hbm3_8hi()
    };
    AttAccController::new(&geom, 2, Precision::Exact)
}

/// The trace up to and including its second barrier: prompt KV ingest
/// plus the first decode step, i.e. until every request of the batch
/// has its first token.
fn first_token_prefix(trace: &Trace) -> Trace {
    let mut barriers = 0;
    let end = trace
        .insts
        .iter()
        .position(|i| {
            if matches!(i, AttInst::Barrier { .. }) {
                barriers += 1;
            }
            barriers == 2
        })
        .map_or(trace.insts.len(), |p| p + 1);
    Trace {
        insts: trace.insts[..end].to_vec(),
    }
}

/// Runs `f` in a span named `name` under `parent` when tracing.
fn stage<R>(
    t: Option<&Tracer>,
    parent: Option<usize>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match t {
        Some(t) => t.span(name, parent, |_| f()),
        None => f(),
    }
}

/// Counts `insts` instructions handled by stage `name` when tracing.
fn count(t: Option<&Tracer>, name: &'static str, insts: usize) {
    if let Some(t) = t {
        t.count(name, insts as u64);
    }
}

impl Isa {
    /// Draws the seeded schedules. Returns the workload and the time
    /// spent building its inputs.
    #[must_use]
    pub fn build(seed: u64) -> (Isa, f64) {
        let start = Instant::now();
        let requests = plans(splitmix64(seed), BATCH, PROMPT_L, PROMPT_JITTER, STEPS);
        let timing = |policy| {
            Job::Timing(DecodeSchedule {
                requests: requests.clone(),
                policy,
                payload: TracePayload::Timing,
            })
        };
        let functional = Job::Functional(DecodeSchedule {
            requests: plans(
                splitmix64(seed ^ 1),
                FUNC_BATCH,
                FUNC_PROMPT_L,
                32,
                FUNC_STEPS,
            ),
            policy: KvPolicy::Full,
            payload: TracePayload::Functional {
                seed: splitmix64(seed ^ 2),
            },
        });
        let jobs = vec![
            ("full", timing(KvPolicy::Full)),
            (
                "window-256",
                timing(KvPolicy::SlidingWindow { window: 256 }),
            ),
            (
                "paged-256x2+sink",
                timing(KvPolicy::Paged {
                    tokens_per_page: 256,
                    recent_pages: 2,
                }),
            ),
            ("functional", functional),
        ];
        let first_token_s = RefCell::new(vec![0.0; jobs.len()]);
        let isa = Isa {
            gpt3: ModelConfig::gpt3_175b(),
            compact: compact_model(),
            timing: TimingConfig::paper(),
            jobs,
            book: CostBook::paper_defaults(),
            slo: SloSpec::chatbot(),
            first_token_s,
        };
        (isa, start.elapsed().as_secs_f64())
    }

    /// compile → `to_text` → `parse`; with `check`, audits the round
    /// trip.
    fn lower(
        &self,
        model: &ModelConfig,
        sched: &DecodeSchedule,
        check: bool,
        cell: &mut Cell,
        t: Option<&Tracer>,
        parent: Option<usize>,
    ) -> Option<(Trace, Trace)> {
        let trace = stage(t, parent, "trace.compile", || compile(model, sched));
        let n = trace.len();
        let text = stage(t, parent, "trace.encode", || trace.to_text());
        let parsed = stage(t, parent, "trace.parse", || Trace::parse(&text));
        for name in ["trace.compile", "trace.encode", "trace.parse"] {
            count(t, name, n);
        }
        cell.add("trace.insts", n as f64);
        cell.add("trace.text_bytes", text.len() as f64);
        match parsed {
            Ok(parsed) => {
                if check {
                    cell.audit(parsed == trace, || "parse(to_text(t)) != t".into());
                }
                Some((trace, parsed))
            }
            Err(e) => {
                cell.audit(false, || format!("parse(to_text(t)) failed: {e:?}"));
                None
            }
        }
    }

    /// Runs timing job `job`. With `check`, also times the original
    /// trace (it must price exactly as the reparsed one) and the
    /// first-token prefix.
    fn run_timing(
        &self,
        job: usize,
        sched: &DecodeSchedule,
        check: bool,
        t: Option<&Tracer>,
        parent: Option<usize>,
    ) -> Cell {
        let mut cell = Cell::default();
        let Some((trace, parsed)) = self.lower(&self.gpt3, sched, check, &mut cell, t, parent)
        else {
            return cell;
        };
        let cfg = &self.timing;
        let timed = stage(t, parent, "trace.timing", || execute_timing(cfg, &parsed));
        count(t, "trace.timing", parsed.len());
        let r = match timed {
            Ok(r) => r,
            Err(e) => {
                cell.audit(false, || format!("execute_timing failed: {e:?}"));
                return cell;
            }
        };
        if check {
            match (
                execute_timing(cfg, &trace),
                execute_timing(cfg, &first_token_prefix(&trace)),
            ) {
                (Ok(o), Ok(f)) => {
                    cell.audit(r == o, || {
                        "execute_timing differs on the reparsed trace".into()
                    });
                    self.first_token_s.borrow_mut()[job] = f.total_s();
                }
                (o, f) => cell.audit(false, || {
                    format!("execute_timing failed: {:?}", o.err().or(f.err()))
                }),
            }
        }
        let first = self.first_token_s.borrow()[job];
        let tokens: u64 = sched.requests.iter().map(|p| p.decode_steps).sum();
        let sim_s = r.total_s();
        cell.tokens = tokens;
        let m = &mut cell.model;
        // Every step is one generated token per request; they all count
        // as goodput when the mean step meets the TBT objective.
        if sim_s / STEPS as f64 <= self.slo.tbt_s {
            m.slo_tokens = tokens as f64;
        }
        m.sim_s = sim_s;
        // The trace is batch-synchronous: every request gets its first
        // token at the first decode barrier, so all samples are equal.
        m.ttft_p50_s = first;
        m.ttft_p99_s = first;
        m.ttft_samples = sched.requests.len() as u64;
        m.energy_j = r.energy_j;
        // One AttAcc-bank node busy for the trace clock: amortized CapEx
        // plus the trace's energy.
        let node = self.book.node(NodeVariant::AttAccBank);
        m.usd = sim_s * node.capex_usd / self.book.amortization_s
            + r.energy_j / 3.6e6 * self.book.usd_per_kwh;
        m.billed_tokens = tokens as f64;
        m.node_s = sim_s;
        m.up_node_s = sim_s;
        cell.add("trace.heads_run", r.heads_run as f64);
        cell.add("trace.mac_commands", r.mac_commands as f64);
        cell.add("trace.model_attn_s", r.attention_s);
        cell
    }

    fn run_functional(
        &self,
        sched: &DecodeSchedule,
        check: bool,
        t: Option<&Tracer>,
        parent: Option<usize>,
    ) -> Cell {
        let mut cell = Cell::default();
        let Some((_, parsed)) = self.lower(&self.compact, sched, check, &mut cell, t, parent)
        else {
            return cell;
        };
        let n = parsed.len();
        let mut ctl = controller();
        count(t, "trace.replay", n);
        match stage(t, parent, "trace.replay", || replay(&mut ctl, &parsed)) {
            Ok(out) => {
                let heads = u64::from(self.compact.n_head);
                let want = sched.requests.iter().map(|p| p.decode_steps).sum::<u64>() * heads;
                cell.audit(out.executed == n, || {
                    format!("replayed {} of {n} instructions", out.executed)
                });
                cell.audit(out.outputs.len() as u64 == want, || {
                    format!("{} outputs, want {want}", out.outputs.len())
                });
                let mut d = Digest::default();
                for ((request, head), v) in &out.outputs {
                    d.u64(*request);
                    d.u64(u64::from(*head));
                    for x in v {
                        cell.audit(x.is_finite(), || "non-finite attention output".into());
                        d.u64(u64::from(x.to_bits()));
                    }
                }
                cell.outputs = d.value();
                cell.tokens = sched.requests.iter().map(|p| p.decode_steps).sum();
            }
            Err(e) => cell.audit(false, || format!("functional replay failed: {e:?}")),
        }
        cell
    }
}

impl Workload for Isa {
    fn cell_names(&self) -> Vec<&'static str> {
        self.jobs.iter().map(|(name, _)| *name).collect()
    }

    fn run_cell(&self, i: usize, check: bool, tracer: Option<&Tracer>) -> Cell {
        let run = |parent| match &self.jobs[i].1 {
            Job::Timing(s) => self.run_timing(i, s, check, tracer, parent),
            Job::Functional(s) => self.run_functional(s, check, tracer, parent),
        };
        match tracer {
            Some(t) => t.span("trace.cell", None, |id| run(Some(id))),
            None => run(None),
        }
    }
}
