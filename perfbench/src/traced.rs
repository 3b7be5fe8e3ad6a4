//! A traced copy of `wb_serve::run_job`.
//!
//! [`run_job_traced`] makes the calls `run_job` makes, in the same order —
//! `graph_family`, `registry::dispatch{,_bulk}`, the tier entry point
//! (`run_bulk`, `explore_with`, `explore_parallel_with`,
//! `run_campaign_with`), the bound oracle and the report rendering — with
//! the protocol wrapped in [`Timed`] and the oracle in [`timed_oracle`], and
//! a span around each call. Its reports must be byte-identical to
//! `run_job`'s; the benchmark checks that on every traced pass, so a change
//! to `run_job`'s rendering shows up as a failed check here rather than as a
//! silently different workload.
//!
//! Only what the benchmark's job specs use is mirrored: a spec that asks for
//! `compare_naive`, a bulk fault plan, or a campaign under a promoted model
//! is refused with an error.

use std::collections::BTreeMap;
use std::time::Instant;

use wb_bench::json::Json;
use wb_core::registry::{self, BoundOracle, BulkVisitor, ProtocolVisitor};
use wb_graph::Graph;
use wb_runtime::bulk::{bulk_model, run_bulk, shuffled_schedule, BulkConfig, BulkProtocol};
use wb_runtime::exhaustive::{explore_parallel_with, explore_with, ExploreConfig};
use wb_runtime::{FaultPlan, Model, Protocol};
use wb_serve::jobs::{
    parse_bulk_model, parse_dedup, parse_faults, parse_model, parse_reduction, JobKind, JobReport,
    JobSpec,
};
use wb_sim::{run_campaign_with, CampaignConfig, CampaignLabels, SamplerKind};

use crate::layers::{secs, timed_oracle, Snapshot, Timed};
use crate::sys::cpu_s;

/// Where one traced job spent its wall time, plus the tier's own counts.
#[derive(Clone, Debug, Default)]
pub struct JobTrace {
    /// Wall seconds of the whole job, report line included.
    pub total_s: f64,
    /// `graph_family`.
    pub graph_s: f64,
    /// The tier call (`run_bulk` / `explore_with` / `explore_parallel_with`
    /// / `run_campaign_with`).
    pub tier_s: f64,
    /// Process CPU seconds, all threads, during the tier call.
    pub tier_cpu_s: f64,
    /// Report construction plus `JobReport::line`.
    pub report_s: f64,
    /// Callback counters over the whole job.
    pub calls: Snapshot,
    /// Callback counters inside the tier call only.
    pub tier_calls: Snapshot,
    /// Bulk only: compose ran on the wb-par pool (the SIMASYNC striped
    /// path) rather than in the sequential scheduler.
    pub parallel_compose: bool,
    /// Deterministic counts taken from the tier's report (rounds, states,
    /// trials, ...).
    pub counts: BTreeMap<&'static str, f64>,
}

impl JobTrace {
    /// Wall seconds not covered by a top-level span: dispatch, spec
    /// parsing, schedule generation and the like.
    pub fn unattributed_s(&self) -> f64 {
        let oracle_outside = secs(self.calls.oracle_ns - self.tier_calls.oracle_ns);
        self.total_s - self.graph_s - self.tier_s - oracle_outside - self.report_s
    }
}

/// Run `f`, adding its wall seconds to `slot`.
pub fn span<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *slot += start.elapsed().as_secs_f64();
    r
}

/// Run `f` as the tier call of `t`: wall, CPU and callback counters.
fn tier<R>(t: &mut JobTrace, f: impl FnOnce() -> R) -> R {
    let (cpu, calls) = (cpu_s(), Snapshot::now());
    let r = span(&mut t.tier_s, f);
    t.tier_cpu_s = cpu_s() - cpu;
    t.tier_calls = Snapshot::now() - calls;
    r
}

/// The traced counterpart of `wb_serve::run_job`: the same report, its
/// rendered line, and where the time went.
pub fn run_job_traced(spec: &JobSpec) -> Result<(JobReport, String, JobTrace), String> {
    let start = Instant::now();
    let before = Snapshot::now();
    let mut t = JobTrace::default();
    let g = span(&mut t.graph_s, || {
        wb_core::workload::graph_family(&spec.workload, spec.n, spec.seed)
    })?;
    let report = match spec.kind {
        JobKind::Explore => explore(spec, &g, &mut t)?,
        JobKind::Campaign => campaign(spec, &g, &mut t)?,
        JobKind::Bulk => bulk(spec, &g, &mut t)?,
    };
    let line = span(&mut t.report_s, || report.line());
    t.calls = Snapshot::now() - before;
    t.total_s = start.elapsed().as_secs_f64();
    Ok((report, line, t))
}

/// Same rounding as the job layer's derived ratios.
fn round_to(x: f64, digits: u32) -> f64 {
    let scale = 10f64.powi(digits as i32);
    (x * scale).round() / scale
}

fn explore(spec: &JobSpec, g: &Graph, t: &mut JobTrace) -> Result<JobReport, String> {
    if spec.compare_naive {
        return Err("the traced run does not mirror compare_naive".into());
    }
    let faults = parse_faults(spec.faults.as_deref())?;
    let dedup = parse_dedup(&spec.dedup)?;
    let config = ExploreConfig::default()
        .with_max_states(spec.max_states)
        .with_dedup(dedup)
        .with_faults(faults)
        .with_reduction(parse_reduction(&spec.reduction, dedup)?);

    struct Explore<'a> {
        spec: &'a JobSpec,
        g: &'a Graph,
        config: ExploreConfig,
        faults: Option<FaultPlan>,
        t: &'a mut JobTrace,
    }

    impl ProtocolVisitor for Explore<'_> {
        type Result = JobReport;
        fn visit<P, B>(self, protocol: P, bind: B) -> JobReport
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (spec, g, t) = (self.spec, self.g, self.t);
            let protocol = Timed(protocol);
            let pred = timed_oracle(|| bind(g));
            let report = tier(t, || {
                if spec.par {
                    explore_parallel_with(&protocol, g, &self.config, &pred)
                } else {
                    explore_with(&protocol, g, &self.config, &pred)
                }
            });
            let stats = report.reduction.unwrap_or_default();
            t.counts = BTreeMap::from([
                ("distinct_states", report.distinct_states as f64),
                ("merged", report.merged as f64),
                ("generated", report.generated() as f64),
                ("peak_frontier", report.peak_frontier as f64),
                ("sleep_skipped", stats.sleep_skipped as f64),
                ("reexpansions", stats.reexpansions as f64),
            ]);
            span(&mut t.report_s, || {
                let verdict = if !report.failures.is_empty() {
                    "FAIL"
                } else if report.truncated {
                    "INCONCLUSIVE"
                } else {
                    "PASS"
                };
                let mut obj = BTreeMap::new();
                obj.insert("schema".into(), Json::Str("wb-serve/explore/v1".into()));
                obj.insert("protocol".into(), Json::Str(spec.protocol.clone()));
                obj.insert("workload".into(), Json::Str(spec.workload.clone()));
                obj.insert("n".into(), Json::Num(g.n() as f64));
                obj.insert("dedup".into(), Json::Str(spec.dedup.clone()));
                obj.insert("par".into(), Json::Bool(spec.par));
                obj.insert(
                    "distinct_states".into(),
                    Json::Num(report.distinct_states as f64),
                );
                obj.insert("terminals".into(), Json::Num(report.terminals as f64));
                obj.insert("merged".into(), Json::Num(report.merged as f64));
                obj.insert(
                    "dedup_ratio".into(),
                    Json::Num(round_to(report.dedup_ratio(), 3)),
                );
                obj.insert(
                    "peak_frontier".into(),
                    Json::Num(report.peak_frontier as f64),
                );
                obj.insert("truncated".into(), Json::Bool(report.truncated));
                obj.insert("failures".into(), Json::Num(report.failures.len() as f64));
                if let Some(plan) = &self.faults {
                    obj.insert("faults".into(), Json::Str(plan.spec()));
                }
                if let Some(stats) = &report.reduction {
                    obj.insert("reduction".into(), Json::Str(stats.policy.to_string()));
                    let r = BTreeMap::from([
                        ("dpor_active".into(), Json::Bool(stats.dpor_active)),
                        ("symmetry_active".into(), Json::Bool(stats.symmetry_active)),
                        ("group_order".into(), Json::Num(stats.group_order as f64)),
                        (
                            "sleep_skipped".into(),
                            Json::Num(stats.sleep_skipped as f64),
                        ),
                        (
                            "orbit_terminals".into(),
                            Json::Num(stats.orbit_terminals as f64),
                        ),
                        ("reexpansions".into(), Json::Num(stats.reexpansions as f64)),
                        ("generated".into(), Json::Num(report.generated() as f64)),
                    ]);
                    obj.insert("reduction_stats".into(), Json::Obj(r));
                }
                obj.insert("verdict".into(), Json::Str(verdict.into()));
                JobReport {
                    json: Json::Obj(obj),
                    verdict: verdict.into(),
                }
            })
        }
    }

    registry::dispatch(
        &spec.protocol,
        spec.n,
        Explore {
            spec,
            g,
            config,
            faults,
            t,
        },
    )
}

fn campaign(spec: &JobSpec, g: &Graph, t: &mut JobTrace) -> Result<JobReport, String> {
    let target = parse_model(&spec.model)?;

    struct Campaign<'a> {
        spec: &'a JobSpec,
        g: &'a Graph,
        target: Option<Model>,
        t: &'a mut JobTrace,
    }

    impl ProtocolVisitor for Campaign<'_> {
        type Result = Result<JobReport, String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (spec, g, t) = (self.spec, self.g, self.t);
            if self.target.is_some_and(|m| m != protocol.model()) {
                return Err("the traced run mirrors native-model campaigns only".into());
            }
            let protocol = Timed(protocol);
            let pred = timed_oracle(|| bind(g));
            let mut config = CampaignConfig::default()
                .with_trials(spec.trials)
                .with_seed(spec.seed)
                .with_sampler(SamplerKind::parse(&spec.sampler)?)
                .with_faults(parse_faults(spec.faults.as_deref())?);
            if let Some(batch) = spec.batch {
                config = config.with_batch(batch);
            }
            let labels = CampaignLabels {
                protocol: spec.protocol.clone(),
                model: protocol.model().to_string(),
                family: spec.workload.clone(),
            };
            let report = tier(t, || {
                run_campaign_with(&protocol, g, &config, &labels, &pred)
            });
            t.counts = BTreeMap::from([
                ("trials", report.trials as f64),
                ("failed", report.failed as f64),
                ("distinct_outcomes", report.distinct_outcomes as f64),
            ]);
            Ok(span(&mut t.report_s, || JobReport {
                verdict: report.verdict().into(),
                json: report.to_json(),
            }))
        }
    }

    registry::dispatch(&spec.protocol, spec.n, Campaign { spec, g, target, t })?
}

fn bulk(spec: &JobSpec, g: &Graph, t: &mut JobTrace) -> Result<JobReport, String> {
    let target = parse_bulk_model(&spec.model)?;
    if parse_faults(spec.faults.as_deref())?.is_some() {
        return Err("the traced run mirrors fault-free bulk jobs only".into());
    }

    struct Bulk<'a> {
        spec: &'a JobSpec,
        g: &'a Graph,
        target: Option<Model>,
        t: &'a mut JobTrace,
    }

    impl BulkVisitor for Bulk<'_> {
        type Result = Result<JobReport, String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: BulkProtocol + Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (spec, g, t) = (self.spec, self.g, self.t);
            let n = g.n();
            let model = bulk_model(protocol.model(), self.target)
                .map_err(|e| format!("protocol '{}': {e}", spec.protocol))?;
            let schedule = shuffled_schedule(n, spec.seed);
            let config = BulkConfig::default().with_batch(spec.batch.unwrap_or(4096));
            t.parallel_compose = protocol.model() == Model::SimAsync;
            let protocol = Timed(protocol);
            let report = tier(t, || {
                run_bulk(&protocol, g, &schedule, self.target, &config)
            })
            .map_err(|e| format!("protocol '{}': {e}", spec.protocol))?;
            let oracle = timed_oracle(|| bind(g));
            let verdict = if oracle(&report.outcome, &report.crashed) {
                "PASS"
            } else {
                "FAIL"
            };
            let board = &report.board;
            t.counts = BTreeMap::from([
                ("rounds", report.rounds as f64),
                ("total_bits", report.total_bits() as f64),
                ("payload_bytes", board.payload_bytes() as f64),
                ("index_bytes", board.index_bytes() as f64),
            ]);
            Ok(span(&mut t.report_s, || {
                let mut obj = BTreeMap::new();
                obj.insert("schema".into(), Json::Str("wb-serve/bulk/v1".into()));
                obj.insert("protocol".into(), Json::Str(spec.protocol.clone()));
                obj.insert("model".into(), Json::Str(model.to_string()));
                obj.insert("family".into(), Json::Str(spec.workload.clone()));
                obj.insert("n".into(), Json::Num(n as f64));
                obj.insert("rounds".into(), Json::Num(report.rounds as f64));
                obj.insert("shards".into(), Json::Num(board.shard_count() as f64));
                obj.insert(
                    "board_payload_bytes".into(),
                    Json::Num(board.payload_bytes() as f64),
                );
                obj.insert(
                    "board_index_bytes".into(),
                    Json::Num(board.index_bytes() as f64),
                );
                obj.insert("total_bits".into(), Json::Num(report.total_bits() as f64));
                obj.insert(
                    "max_message_bits".into(),
                    Json::Num(report.max_message_bits() as f64),
                );
                obj.insert("verdict".into(), Json::Str(verdict.into()));
                JobReport {
                    json: Json::Obj(obj),
                    verdict: verdict.into(),
                }
            }))
        }
    }

    registry::dispatch_bulk(&spec.protocol, spec.n, Bulk { spec, g, target, t })?
}
