//! The fleet-serving workloads: `fleet_day` and `fault_storm`.
//!
//! Both replay one seeded diurnal + flash-crowd arrival trace (the
//! shape of the repository's autoscaling frontier) through GPT-3 175B
//! fleets of `DGX+AttAccs` nodes. `fleet_day` runs the three fault-free
//! serving loops; `fault_storm` runs the two chaos loops under crashes,
//! zone outages and stragglers drawn from the same seed.

use crate::cell::{Cell, Model};
use crate::probe::{ProbeSums, Probed};
use crate::spans::Tracer;
use crate::Workload;
use attacc_chaos::{
    simulate_chaos, simulate_fleet_chaos, ChaosConfig, ChaosReport, DegradePolicy, FaultSchedule,
    FaultSpec, FleetChaosConfig, FleetChaosReport, HealthConfig, RecoveryMode, ResiliencePolicy,
};
use attacc_cluster::{
    simulate_cluster, simulate_fleet_mix, splitmix64, AutoscalerConfig, ClusterConfig,
    ClusterReport, FleetConfig, FleetMix, FleetReport, InterconnectModel, PoolConfig, RouterPolicy,
    ScaleSignal, SloSpec,
};
use attacc_model::{KvCacheSpec, ModelConfig, GIB};
use attacc_provision::{CostBook, NodeVariant};
use attacc_serving::{
    ArrivalWorkload, FlashCrowd, RetryPolicy, SchedulerConfig, StageExecutor, TraceSpec,
};
use attacc_sim::{System, SystemExecutor};
use std::time::Instant;

/// Sessions in the `fleet_day` trace.
pub const DAY_SESSIONS: u64 = 100_000;
/// Sessions in the `fault_storm` trace.
pub const STORM_SESSIONS: u64 = 10_000;
/// Fault schedules per `fault_storm` configuration. One schedule's TTFT
/// tail is timing luck (an outage on the crowd peak); the storm is their
/// ensemble.
const STORM_DRAWS: u64 = 12;
/// Seed of the storm's fault schedules. The storm is a fixed scenario,
/// like the crowd times: `--seed` draws the arrivals and retry jitter
/// that meet it. Seeding the faults too made the worst p99 TTFT spread
/// 0.34 of its median across seeds; fixed, with the median over draws,
/// it spreads 0.07.
const STORM_SCENARIO: u64 = 0x5707_3a11;
/// Virtual length of the trace day (s).
const DAY_S: f64 = 250.0;

/// Which of the two fleet workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fault-free static, autoscaled and disaggregated fleets.
    Day,
    /// Flat and fleet chaos under crashes, zones and stragglers.
    Storm,
}

/// One simulator call and its fixed configuration.
enum Sim {
    Cluster {
        nodes: usize,
        cfg: ClusterConfig,
    },
    Fleet {
        cfg: FleetConfig,
    },
    Chaos {
        nodes: usize,
        cfg: ChaosConfig,
        faults: FaultSchedule,
    },
    FleetChaos {
        cfg: FleetChaosConfig,
        faults: FaultSchedule,
    },
}

enum Report {
    Cluster(ClusterReport),
    Fleet(FleetReport),
    Chaos(ChaosReport),
    FleetChaos(FleetChaosReport),
}

/// A fleet workload: the generated trace, the executors, the cells.
pub struct Fleets {
    workload: ArrivalWorkload,
    execs: Vec<SystemExecutor>,
    cells: Vec<(&'static str, Sim)>,
    book: CostBook,
}

/// A sub-seed for one input stream of the workload.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The arrival trace: a 120 s-period ±60 % diurnal swing with a 3×
/// flash crowd on the first climb and a 2× echo late in the day.
#[must_use]
pub fn trace(sessions: u64, seed: u64) -> ArrivalWorkload {
    TraceSpec {
        sessions,
        mean_rate_per_s: sessions as f64 / DAY_S,
        diurnal_amplitude: 0.6,
        diurnal_period_s: 120.0,
        crowds: vec![
            FlashCrowd {
                start_s: 60.0,
                peak: 3.0,
                ramp_s: 5.0,
                hold_s: 15.0,
                decay_s: 10.0,
            },
            FlashCrowd {
                start_s: 170.0,
                peak: 2.0,
                ramp_s: 10.0,
                hold_s: 20.0,
                decay_s: 15.0,
            },
        ],
        l_in: 512,
        l_out_range: (64, 128),
        seed: sub_seed(seed, 0),
    }
    .generate()
}

/// Fleet sizes derived from the trace's mean token demand, as the
/// repository's autoscaling frontier sizes them: `sat` nodes hold the
/// diurnal mean (~740 output tok/s per node at these lengths), static
/// fleets hold the diurnal peak (1.6×), elastic ones burst to 2×.
struct Sizing {
    sat: usize,
    peak: usize,
    p_static: usize,
    d_static: usize,
}

impl Sizing {
    fn of(sessions: u64) -> Sizing {
        let demand_tok_s = sessions as f64 / DAY_S * 96.0;
        let sat = ((demand_tok_s / 740.0).ceil() as usize).max(1);
        let peak = ((sat as f64 * 1.6).ceil() as usize).max(2);
        Sizing {
            sat,
            peak,
            p_static: (peak * 4 / 5).max(1),
            d_static: (peak * 3 / 10).max(1),
        }
    }

    fn mono(&self) -> PoolConfig {
        PoolConfig::elastic((self.sat / 4).max(1), self.sat, (2 * self.sat).max(3))
    }

    fn disagg(&self) -> (PoolConfig, PoolConfig) {
        (
            PoolConfig::elastic(self.p_static, self.p_static, (2 * self.p_static).max(2)),
            PoolConfig::elastic(self.d_static, self.d_static, (2 * self.d_static).max(2)),
        )
    }
}

fn cluster_config(model: &ModelConfig) -> ClusterConfig {
    let kv = KvCacheSpec::of(model).bytes_per_token;
    ClusterConfig {
        scheduler: SchedulerConfig::with_capacity(64, 640 * GIB - model.weight_bytes(), kv),
        policy: RouterPolicy::JoinShortestQueue,
        interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(kv),
        slo: SloSpec::chatbot(),
    }
}

/// An autoscaled fleet under a queue-depth scaler: scale out at a
/// backlog of 96 per node (≥ 32 truly queued past a 64-request batch),
/// in below 24, one node per 0.5 s tick, 2 s cold starts.
fn fleet_config(
    cluster: &ClusterConfig,
    prefill: Option<PoolConfig>,
    decode: PoolConfig,
) -> FleetConfig {
    FleetConfig {
        prefill,
        decode,
        scheduler: cluster.scheduler,
        policy: cluster.policy,
        interconnect: cluster.interconnect,
        slo: cluster.slo,
        autoscaler: Some(AutoscalerConfig {
            interval_s: 0.5,
            cold_start_s: 2.0,
            cooldown_s: 1.5,
            signal: ScaleSignal::QueueDepth {
                out_per_node: 96.0,
                in_per_node: 24.0,
            },
        }),
    }
}

/// The storm: every configuration meets each of the `STORM_DRAWS`
/// fault schedules of the fixed scenario.
fn storm_cells(
    seed: u64,
    size: &Sizing,
    cluster: &ClusterConfig,
    disagg: &FleetConfig,
) -> Vec<(&'static str, Sim)> {
    // Flat chaos: per-node crashes only. The fleet adds stragglers and
    // correlated zone outages.
    let flat = FaultSpec::crashes_only(120.0, 3.0);
    let zoned = FaultSpec {
        straggler_mtbf_s: 60.0,
        straggler_duration_s: 4.0,
        straggler_factor: 2.5,
        ..flat
    }
    .with_zones(4, 80.0, 4.0);
    // Timeouts and hedges fire past the fault-free p99 TTFT of this fleet
    // at the crowd peak (~2.2 s), so they answer faults, not load.
    let retry = RetryPolicy {
        timeout_s: 4.0,
        max_retries: 1,
        backoff_base_s: 0.25,
        backoff_cap_s: 1.0,
        jitter_frac: 0.1,
        hedge_after_s: Some(4.0),
    };
    // Health masking takes crashed nodes out of routing. Its degraded cut
    // is widened from 3x to 100x: the signal is per-token round latency,
    // which differs up to 64x between a full and a near-empty batch, so
    // the stock 3x cut masks lightly loaded healthy nodes and the cluster
    // melts down.
    let resilience = ResiliencePolicy {
        retry,
        health: HealthConfig {
            degraded_factor: 100.0,
            ..HealthConfig::aware()
        },
        recovery: RecoveryMode::KvMigrate,
    };
    let (p, d) = pool_nodes(disagg);
    let fleet_chaos = |recovery, degrade| FleetChaosConfig {
        fleet: *disagg,
        recovery,
        degrade,
    };
    let mut cells = Vec::new();
    for draw in 0..STORM_DRAWS {
        let fleet_faults =
            FaultSchedule::generate(p + d, DAY_S, &zoned, sub_seed(STORM_SCENARIO, draw));
        cells.extend([
            (
                "flat-chaos",
                Sim::Chaos {
                    nodes: size.peak,
                    cfg: ChaosConfig {
                        cluster: *cluster,
                        policy: resilience,
                        seed: sub_seed(seed, 1 + draw),
                    },
                    faults: FaultSchedule::generate(
                        size.peak,
                        DAY_S,
                        &flat,
                        sub_seed(STORM_SCENARIO, 64 + draw),
                    ),
                },
            ),
            (
                "fleet-chaos-reprefill",
                Sim::FleetChaos {
                    cfg: fleet_chaos(RecoveryMode::Reprefill, DegradePolicy::off()),
                    faults: fleet_faults.clone(),
                },
            ),
            (
                "fleet-chaos-reship-degrade",
                Sim::FleetChaos {
                    cfg: fleet_chaos(RecoveryMode::KvMigrate, DegradePolicy::full(12.0)),
                    faults: fleet_faults,
                },
            ),
        ]);
    }
    cells
}

fn pool_nodes(cfg: &FleetConfig) -> (usize, usize) {
    (cfg.prefill.map_or(0, |p| p.max_nodes), cfg.decode.max_nodes)
}

impl Fleets {
    /// Generates the seeded trace and fault schedules and builds the
    /// executors. Returns the workload and the trace-generation time.
    #[must_use]
    pub fn build(kind: Kind, seed: u64) -> (Fleets, f64) {
        let model = ModelConfig::gpt3_175b();
        let sessions = match kind {
            Kind::Day => DAY_SESSIONS,
            Kind::Storm => STORM_SESSIONS,
        };
        let start = Instant::now();
        let workload = trace(sessions, seed);
        let gen_s = start.elapsed().as_secs_f64();

        let size = Sizing::of(sessions);
        let cluster = cluster_config(&model);
        let (prefill, decode) = size.disagg();
        let disagg = fleet_config(&cluster, Some(prefill), decode);
        let cells = match kind {
            Kind::Day => vec![
                (
                    "static-mono",
                    Sim::Cluster {
                        nodes: size.peak,
                        cfg: cluster,
                    },
                ),
                (
                    "auto-mono-queue",
                    Sim::Fleet {
                        cfg: fleet_config(&cluster, None, size.mono()),
                    },
                ),
                ("auto-disagg-queue", Sim::Fleet { cfg: disagg }),
            ],
            Kind::Storm => storm_cells(seed, &size, &cluster, &disagg),
        };
        let max_nodes = cells
            .iter()
            .map(|(_, sim)| match sim {
                Sim::Cluster { nodes, .. } | Sim::Chaos { nodes, .. } => *nodes,
                Sim::Fleet { cfg }
                | Sim::FleetChaos {
                    cfg: FleetChaosConfig { fleet: cfg, .. },
                    ..
                } => {
                    let (p, d) = pool_nodes(cfg);
                    p + d
                }
            })
            .max()
            .unwrap_or(0);
        let execs = (0..max_nodes)
            .map(|_| SystemExecutor::new(System::dgx_attacc_full(), &model))
            .collect();
        (
            Fleets {
                workload,
                execs,
                cells,
                book: CostBook::paper_defaults(),
            },
            gen_s,
        )
    }

    /// The one simulator call of a cell.
    fn simulate(&self, sim: &Sim, refs: &[&dyn StageExecutor]) -> Report {
        let w = &self.workload;
        match sim {
            Sim::Cluster { nodes, cfg } => {
                Report::Cluster(simulate_cluster(&refs[..*nodes], w, cfg))
            }
            Sim::Fleet { cfg } => {
                let (p, d) = pool_nodes(cfg);
                Report::Fleet(simulate_fleet_mix(
                    &refs[..p],
                    &refs[p..p + d],
                    &FleetMix::uniform(),
                    w,
                    cfg,
                ))
            }
            Sim::Chaos { nodes, cfg, faults } => {
                Report::Chaos(simulate_chaos(&refs[..*nodes], w, cfg, faults))
            }
            Sim::FleetChaos { cfg, faults } => {
                let (p, d) = pool_nodes(&cfg.fleet);
                Report::FleetChaos(simulate_fleet_chaos(
                    &refs[..p],
                    &refs[p..p + d],
                    &FleetMix::uniform(),
                    w,
                    cfg,
                    faults,
                ))
            }
        }
    }

    /// Bills a fleet report as `AttAcc-bank` nodes.
    fn bill(&self, fleet: &FleetReport, m: &mut Model) {
        let variants = vec![NodeVariant::AttAccBank; fleet.node_active_s.len()];
        m.usd = self.book.bill(fleet, &variants).total_usd;
        m.billed_tokens = fleet.cluster.nodes.iter().map(|n| n.tokens).sum::<u64>() as f64;
    }

    /// Turns a report into a cell: model outcome, exact counts, audits.
    fn summarize(&self, report: Report) -> Cell {
        let arrivals = self.workload.arrivals.len() as u64;
        let mut cell = Cell::default();
        match report {
            Report::Cluster(r) => {
                audit_cluster(&mut cell, &r);
                cell.audit(r.completed + r.abandoned == arrivals, || {
                    format!(
                        "arrivals {arrivals} != completed {} + abandoned {}",
                        r.completed, r.abandoned
                    )
                });
                cell.tokens = node_tokens(&r);
                // A static cluster is a fixed monolithic fleet: every
                // node is active for the whole makespan.
                let fleet = static_fleet(r, &[]);
                self.bill(&fleet, &mut cell.model);
                model_of(&mut cell, &fleet.cluster, 0.0, fleet.node_seconds);
            }
            Report::Fleet(f) => {
                audit_cluster(&mut cell, &f.cluster);
                audit_fleet(&mut cell, &f);
                cell.audit(
                    f.cluster.completed + f.cluster.abandoned == arrivals,
                    || {
                        format!(
                            "arrivals {arrivals} != completed {} + abandoned {}",
                            f.cluster.completed, f.cluster.abandoned
                        )
                    },
                );
                cell.tokens = node_tokens(&f.cluster);
                self.bill(&f, &mut cell.model);
                model_of(&mut cell, &f.cluster, 0.0, f.node_seconds);
                fleet_counts(&mut cell, &f);
            }
            Report::Chaos(r) => {
                audit_cluster(&mut cell, &r.cluster);
                cell.audit(
                    r.request_outcomes.len() as u64 == r.unique_completed,
                    || "one outcome per unique completion".into(),
                );
                cell.audit(
                    r.unique_completed + r.cluster.abandoned >= arrivals
                        && r.unique_completed <= arrivals,
                    || {
                        format!(
                            "arrivals {arrivals} vs unique completed {} + abandoned {}",
                            r.unique_completed, r.cluster.abandoned
                        )
                    },
                );
                let delivered: u64 = r.request_outcomes.iter().map(|o| o.l_out).sum();
                let computed = node_tokens(&r.cluster);
                cell.audit(delivered <= computed, || {
                    format!("delivered {delivered} > computed {computed}")
                });
                cell.tokens = delivered;
                let fleet = static_fleet(r.cluster, &r.node_downtime_s);
                self.bill(&fleet, &mut cell.model);
                let down: f64 = r.node_downtime_s.iter().sum();
                model_of(&mut cell, &fleet.cluster, down, fleet.node_seconds);
                cell.model.slo_tokens =
                    r.goodput_under_failure_tokens_per_s * fleet.cluster.makespan_s;
                chaos_counts(
                    &mut cell,
                    r.crashes,
                    r.recomputed_tokens,
                    delivered,
                    computed,
                );
                cell.add("chaos.retries", r.retries as f64);
                cell.add("chaos.hedges", r.hedges as f64);
            }
            Report::FleetChaos(r) => {
                let f = &r.fleet;
                audit_cluster(&mut cell, &f.cluster);
                audit_fleet(&mut cell, f);
                cell.audit(
                    r.unique_completed + r.shed_requests + f.cluster.abandoned == arrivals,
                    || {
                        format!(
                            "arrivals {arrivals} != unique completed {} + shed {} + abandoned {}",
                            r.unique_completed, r.shed_requests, f.cluster.abandoned
                        )
                    },
                );
                // Crash recovery folds generated tokens into the prompt
                // and no request is duplicated, so every token counts.
                let computed = node_tokens(&f.cluster);
                cell.tokens = computed;
                self.bill(f, &mut cell.model);
                let down: f64 = r.node_downtime_s.iter().sum();
                model_of(&mut cell, &f.cluster, down, f.node_seconds);
                cell.model.slo_tokens = r.goodput_under_failure_tokens_per_s * f.cluster.makespan_s;
                fleet_counts(&mut cell, f);
                chaos_counts(
                    &mut cell,
                    r.crashes,
                    r.recomputed_tokens,
                    computed,
                    computed,
                );
                cell.add("chaos.reships", r.recovery_reships as f64);
                cell.add("chaos.shed", r.shed_requests as f64);
            }
        }
        cell
    }
}

fn node_tokens(r: &ClusterReport) -> u64 {
    r.nodes.iter().map(|n| n.tokens).sum()
}

/// A fixed fleet's report around a flat cluster report: each node is
/// billed for the makespan minus its downtime (none when `downtime_s`
/// is empty).
fn static_fleet(cluster: ClusterReport, downtime_s: &[f64]) -> FleetReport {
    let node_active_s: Vec<f64> = (0..cluster.nodes.len())
        .map(|i| cluster.makespan_s - downtime_s.get(i).copied().unwrap_or(0.0))
        .collect();
    FleetReport {
        node_seconds: node_active_s.iter().sum(),
        disaggregated: false,
        cold_start_node_s: 0.0,
        prefill_peak_nodes: 0,
        decode_peak_nodes: node_active_s.len(),
        kv_ships: 0,
        kv_shipped_bytes: 0,
        scale_events: Vec::new(),
        first_route_s: Vec::new(),
        node_active_s,
        cluster,
    }
}

/// The model outcome every cluster-shaped report shares. `down_s` is
/// the summed node downtime, `active_s` the node-seconds billed.
fn model_of(cell: &mut Cell, r: &ClusterReport, down_s: f64, active_s: f64) {
    let m = &mut cell.model;
    m.slo_tokens = r.goodput.goodput_tokens_per_s * r.makespan_s;
    m.sim_s = r.makespan_s;
    m.ttft_p50_s = r.ttft.p50_s;
    m.ttft_p99_s = r.ttft.p99_s;
    m.ttft_samples = r.completed;
    m.node_s = r.nodes.len() as f64 * r.makespan_s;
    m.up_node_s = m.node_s - down_s;
    m.energy_j = r.energy_j;
    m.queue_wait_p99_s = r.queue_wait.p99_s;
    cell.add("cluster.busy_s", r.nodes.iter().map(|n| n.busy_s).sum());
    cell.add("cluster.active_node_s", active_s);
}

fn fleet_counts(cell: &mut Cell, f: &FleetReport) {
    cell.add("cluster.scale_events", f.scale_events.len() as f64);
    cell.add("cluster.kv_ships", f.kv_ships as f64);
}

fn chaos_counts(cell: &mut Cell, crashes: u64, recomputed: u64, useful: u64, computed: u64) {
    cell.add("chaos.crashes", crashes as f64);
    cell.add("chaos.recomputed_tokens", recomputed as f64);
    cell.add("chaos.useful_tokens", useful as f64);
    cell.add("chaos.computed_tokens", (computed + recomputed) as f64);
}

/// Audits every cluster-shaped report carries: per-node counts add up
/// to the totals, no node is busier than the makespan, and the TTFT
/// tail has the samples to support p99.
fn audit_cluster(cell: &mut Cell, r: &ClusterReport) {
    let per_node: u64 = r.nodes.iter().map(|n| n.completed).sum();
    cell.audit(per_node == r.completed, || {
        format!("per-node completions {per_node} != report {}", r.completed)
    });
    let tokens = node_tokens(r) as f64;
    let reported = r.tokens_per_s * r.makespan_s;
    cell.audit((tokens - reported).abs() <= 1e-9 * tokens.max(1.0), || {
        format!("per-node tokens {tokens} != report total {reported}")
    });
    let busiest = r.nodes.iter().map(|n| n.busy_s).fold(0.0, f64::max);
    cell.audit(busiest <= r.makespan_s * (1.0 + 1e-12), || {
        format!(
            "a node was busy {busiest} s in a {} s makespan",
            r.makespan_s
        )
    });
    cell.audit(crate::stats::supports_percentile(r.completed, 0.99), || {
        format!("{} TTFT samples cannot support p99", r.completed)
    });
}

/// Node-seconds never exceed the provisioned nodes times the makespan,
/// and the per-node meters add up to them.
fn audit_fleet(cell: &mut Cell, f: &FleetReport) {
    let cap = f.node_active_s.len() as f64 * f.cluster.makespan_s;
    cell.audit(f.node_seconds <= cap * (1.0 + 1e-12), || {
        format!(
            "node-seconds {} > {} nodes x makespan {}",
            f.node_seconds,
            f.node_active_s.len(),
            f.cluster.makespan_s
        )
    });
    let per_node: f64 = f.node_active_s.iter().sum();
    cell.audit(
        (per_node - f.node_seconds).abs() <= 1e-9 * f.node_seconds.max(1.0),
        || {
            format!(
                "per-node active seconds {per_node} != node-seconds {}",
                f.node_seconds
            )
        },
    );
}

impl Workload for Fleets {
    fn cell_names(&self) -> Vec<&'static str> {
        self.cells.iter().map(|(name, _)| *name).collect()
    }

    fn run_cell(&self, i: usize, _check: bool, tracer: Option<&Tracer>) -> Cell {
        let sim = &self.cells[i].1;
        let report = match tracer {
            None => {
                let refs: Vec<&dyn StageExecutor> =
                    self.execs.iter().map(|e| e as &dyn StageExecutor).collect();
                self.simulate(sim, &refs)
            }
            Some(t) => {
                let sums = ProbeSums::default();
                let probed: Vec<Probed<_>> =
                    self.execs.iter().map(|e| Probed::new(e, &sums)).collect();
                let refs: Vec<&dyn StageExecutor> =
                    probed.iter().map(|p| p as &dyn StageExecutor).collect();
                let name = match sim {
                    Sim::Cluster { .. } => "cluster.simulate_cluster",
                    Sim::Fleet { .. } => "cluster.simulate_fleet_mix",
                    Sim::Chaos { .. } => "chaos.simulate_chaos",
                    Sim::FleetChaos { .. } => "chaos.simulate_fleet_chaos",
                };
                let report = t.span(name, None, |id| {
                    let report = self.simulate(sim, &refs);
                    t.fold(id, "sim.gen_stage", sums.gen_calls.get(), sums.gen_ns.get());
                    t.fold(id, "sim.sum_stage", sums.sum_calls.get(), sums.sum_ns.get());
                    report
                });
                t.count("sim.gen_rows", sums.gen_rows.get());
                t.count("sim.miss_calls", sums.miss_calls.get());
                report
            }
        };
        self.summarize(report)
    }
}
