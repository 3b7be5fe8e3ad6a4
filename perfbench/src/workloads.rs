//! The four workloads, one pass over each, and the output checks.
//!
//! A workload is a fixed list of [`Step`]s; a *pass* runs the list once,
//! back to back, from one client with no think time. [`run_pass`] calls
//! only the public entry points a user calls (`wb_serve::run_job`,
//! `certify_spec`, `wb_verify::verify_line`); [`run_traced_pass`] makes the
//! same calls through [`crate::traced`] and records where the time went.

use std::time::Instant;

use wb_bench::certify::{certify_spec, Provenance};
use wb_bench::json::Json;
use wb_runtime::ExploreConfig;
use wb_serve::jobs::{run_job, JobKind, JobReport, JobSpec};

use crate::traced::{run_job_traced, span, JobTrace};

/// A benchmark workload (see the README for why each one exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// BUILD(2) on `kdeg-lin:2`, native SIMASYNC: parallel compose, heavy
    /// referee.
    BulkBuild,
    /// MIS(1) on `gnp-lin:4` under SYNC: sequential event-driven scheduler,
    /// quadratic oracle.
    BulkMisSync,
    /// MIS(1) on cycles through the explorer four ways, then certify and
    /// verify.
    Exhaustive,
    /// Two Monte Carlo campaigns: MIS(1) (simultaneous) and BFS (free).
    Campaign,
}

/// Every workload, in the order the README lists them.
pub const ALL: [Workload; 4] = [
    Workload::BulkBuild,
    Workload::BulkMisSync,
    Workload::Exhaustive,
    Workload::Campaign,
];

impl Workload {
    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkBuild => "bulk-build",
            Workload::BulkMisSync => "bulk-mis-sync",
            Workload::Exhaustive => "exhaustive",
            Workload::Campaign => "campaign",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<_> = ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}' (expected {})", names.join("|"))
        })
    }

    /// The steps of one pass. `seed` fixes every instance and schedule;
    /// `smoke` shrinks every instance so the same checks run in moments.
    pub fn steps(self, seed: u64, smoke: bool) -> Vec<Step> {
        let size = |full: usize, tiny: usize| pick(smoke, full, tiny);
        let spec = |kind, protocol: &str, workload: &str, n| JobSpec {
            protocol: protocol.into(),
            workload: workload.into(),
            n,
            seed,
            ..JobSpec::new(kind)
        };
        match self {
            Workload::BulkBuild => vec![Step::Job {
                spec: spec(JobKind::Bulk, "build:2", "kdeg-lin:2", size(300_000, 2_000)),
                expect: Expect::Bulk,
            }],
            Workload::BulkMisSync => vec![Step::Job {
                spec: JobSpec {
                    model: "sync".into(),
                    ..spec(JobKind::Bulk, "mis:1", "gnp-lin:4", size(100_000, 2_000))
                },
                expect: Expect::Bulk,
            }],
            Workload::Exhaustive => {
                // Seed-independent (distinct_states, terminals) of each cycle.
                let (plain_n, crash_n, certify_n) = pick(smoke, (14, 12, 9), (8, 6, 5));
                let (plain, crash, reduced, certified) = if smoke {
                    ((456, 4), (332, 13), (250, 4), (40, 2))
                } else {
                    ((62_184, 21), (75_548, 125), (31_350, 21), (1_032, 5))
                };
                let cycle = |n| spec(JobKind::Explore, "mis:1", "cycle", n);
                let explore = |spec, (states, terminals), par_of| Step::Job {
                    spec,
                    expect: Expect::Explore {
                        states,
                        terminals,
                        par_of,
                    },
                };
                vec![
                    explore(cycle(plain_n), plain, None),
                    explore(
                        JobSpec {
                            par: true,
                            ..cycle(plain_n)
                        },
                        plain,
                        Some(0),
                    ),
                    explore(
                        JobSpec {
                            faults: Some("crash:1".into()),
                            ..cycle(crash_n)
                        },
                        crash,
                        None,
                    ),
                    explore(
                        JobSpec {
                            reduction: "dpor+symmetry".into(),
                            ..cycle(plain_n)
                        },
                        reduced,
                        None,
                    ),
                    Step::Certify {
                        protocol: "mis:1",
                        workload: "cycle",
                        n: certify_n,
                        seed,
                        states: certified.0,
                        terminals: certified.1,
                    },
                ]
            }
            Workload::Campaign => {
                let campaign = |protocol, n| Step::Job {
                    spec: JobSpec {
                        trials: size(10_000, 200) as u64,
                        ..spec(JobKind::Campaign, protocol, "gnp:4", n)
                    },
                    expect: Expect::Campaign,
                };
                vec![
                    campaign("mis:1", size(100, 30)),
                    campaign("bfs", size(60, 20)),
                ]
            }
        }
    }
}

fn pick<T>(smoke: bool, full: T, tiny: T) -> T {
    if smoke {
        tiny
    } else {
        full
    }
}

/// One call a pass makes.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // a pass has a handful of steps
pub enum Step {
    /// One `run_job`, with checks on its report.
    Job {
        /// The job.
        spec: JobSpec,
        /// What its report must show.
        expect: Expect,
    },
    /// `certify_spec` → `to_json_line` → `wb_verify::verify_line`.
    Certify {
        /// Registry protocol spec.
        protocol: &'static str,
        /// Graph-family spec.
        workload: &'static str,
        /// Instance size.
        n: usize,
        /// Workload seed, recorded in the certificate.
        seed: u64,
        /// Distinct states the walk and the verifier must both report.
        states: u64,
        /// Terminals the walk and the verifier must both report.
        terminals: u64,
    },
}

/// The checks on one job's report, beyond a `PASS` verdict.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `rounds == n`.
    Bulk,
    /// Untruncated, with the instance's seed-independent state and terminal
    /// counts; with `par_of = Some(i)`, the report equals step `i`'s apart
    /// from the `par` key.
    Explore {
        /// Expected `distinct_states`.
        states: u64,
        /// Expected `terminals`.
        terminals: u64,
        /// Index of the sequential step this parallel one must match.
        par_of: Option<usize>,
    },
    /// `failed == 0` and `trials` as asked.
    Campaign,
}

/// Wall seconds of one pass, by end-to-end phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Phases {
    /// Bulk `run_job` calls.
    pub bulk_s: f64,
    /// Explore `run_job` calls.
    pub explore_s: f64,
    /// `certify_spec` (instance included) plus `to_json_line`.
    pub certify_s: f64,
    /// `wb_verify::verify_line`.
    pub verify_s: f64,
    /// Campaign `run_job` calls.
    pub campaign_s: f64,
}

impl Phases {
    /// The phases under their metric names.
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("bulk_s", self.bulk_s),
            ("explore_s", self.explore_s),
            ("certify_s", self.certify_s),
            ("verify_s", self.verify_s),
            ("campaign_s", self.campaign_s),
        ]
    }

    /// The phase a job of `kind` counts towards.
    fn of(&mut self, kind: JobKind) -> &mut f64 {
        match kind {
            JobKind::Bulk => &mut self.bulk_s,
            JobKind::Explore => &mut self.explore_s,
            JobKind::Campaign => &mut self.campaign_s,
        }
    }

    /// Wall seconds of every timed call in the pass.
    pub fn job_s(&self) -> f64 {
        self.named().iter().map(|(_, s)| s).sum()
    }
}

/// The outcome of one untraced pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Where the wall time went.
    pub phases: Phases,
    /// One rendered output per step (report line; certificate line plus the
    /// verifier's summary).
    pub lines: Vec<String>,
    /// Steps that returned `Err`, gave a non-`PASS` verdict or failed a
    /// check, with the reason.
    pub errors: Vec<String>,
    /// Steps run.
    pub attempted: u64,
}

/// Where a traced certify → verify round trip spent its time.
#[derive(Clone, Debug, Default)]
pub struct CertifyTrace {
    /// `graph_family` for the instance.
    pub graph_s: f64,
    /// `certify_spec`: the certifying walk.
    pub walk_s: f64,
    /// `to_json_line`.
    pub render_s: f64,
    /// Certificate line length in bytes.
    pub bytes: f64,
    /// DAG edges in the certificate.
    pub edges: f64,
    /// `wb_verify::parse`.
    pub verify_parse_s: f64,
    /// `wb_verify::verify_certificate`: the replay.
    pub verify_replay_s: f64,
}

/// The outcome of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct TracedPass {
    /// The same as an untraced pass's, phases timed through the tracer.
    pub pass: Pass,
    /// Each job step that ran, with its trace.
    pub jobs: Vec<(JobSpec, JobTrace)>,
    /// The certify → verify trace, if the workload has one.
    pub certify: Option<CertifyTrace>,
}

/// Check one job report against its expectations; `earlier` holds the
/// lines of the pass's previous steps.
fn check_job(
    spec: &JobSpec,
    expect: &Expect,
    report: &JobReport,
    line: &str,
    earlier: &[String],
) -> Result<(), String> {
    if report.verdict != "PASS" {
        return Err(format!("verdict {} (want PASS): {line}", report.verdict));
    }
    let num = |key: &str| report.json.get(key).and_then(Json::as_f64);
    let want = |key: &str, value: f64| match num(key) {
        Some(got) if got == value => Ok(()),
        got => Err(format!("{key} = {got:?}, want {value}: {line}")),
    };
    match expect {
        Expect::Bulk => want("rounds", spec.n as f64),
        Expect::Explore {
            states,
            terminals,
            par_of,
        } => {
            if report.json.get("truncated") != Some(&Json::Bool(false)) {
                return Err(format!("exploration truncated: {line}"));
            }
            want("distinct_states", *states as f64)?;
            want("terminals", *terminals as f64)?;
            match par_of.map(|i| earlier.get(i)) {
                Some(Some(seq)) if seq.replace("\"par\":false", "\"par\":true") != line => Err(
                    format!("parallel report differs from the sequential one: {line} vs {seq}"),
                ),
                Some(None) => Err("sequential step missing before its parallel twin".into()),
                _ => Ok(()),
            }
        }
        Expect::Campaign => {
            want("failed", 0.0)?;
            want("trials", spec.trials as f64)
        }
    }
}

fn label(spec: &JobSpec) -> String {
    format!(
        "{} {} on {} n={}",
        spec.kind.name(),
        spec.protocol,
        spec.workload,
        spec.n
    )
}

/// Check a verifier result against the walk it verifies.
fn check_certify(
    step: (u64, u64),
    walk: (u64, u64, usize),
    verified: Result<wb_verify::VerifySummary, wb_verify::VerifyError>,
) -> Result<String, String> {
    let (states, terminals) = step;
    let summary = verified.map_err(|e| format!("certificate rejected: {e:?}"))?;
    let got = (walk.0, walk.1, summary.states, summary.terminals as u64);
    if got != (states, terminals, states, terminals) || walk.2 != 0 || summary.failures != 0 {
        return Err(format!(
            "certify/verify disagree: walk {walk:?}, verifier {summary:?}, want {states} states, {terminals} terminals"
        ));
    }
    Ok(format!("{summary:?}"))
}

/// The certificate config: the CLI's defaults.
fn certify_config() -> ExploreConfig {
    ExploreConfig::default().with_max_states(1 << 20)
}

/// Run one untraced pass of `steps`, checking every output.
pub fn run_pass(steps: &[Step]) -> Pass {
    let mut pass = Pass::default();
    for step in steps {
        pass.attempted += 1;
        let outcome = match step {
            Step::Job { spec, expect } => {
                let start = Instant::now();
                let result = run_job(spec).map(|r| {
                    let line = r.line();
                    (r, line)
                });
                let elapsed = start.elapsed().as_secs_f64();
                *pass.phases.of(spec.kind) += elapsed;
                result.and_then(|(report, line)| {
                    check_job(spec, expect, &report, &line, &pass.lines)
                        .map(|()| line)
                        .map_err(|e| format!("{}: {e}", label(spec)))
                })
            }
            &Step::Certify {
                protocol,
                workload,
                n,
                seed,
                states,
                terminals,
            } => {
                let start = Instant::now();
                let certified = wb_core::workload::graph_family(workload, n, seed).and_then(|g| {
                    let provenance = Provenance {
                        family: Some(workload),
                        seed: Some(seed),
                    };
                    certify_spec(protocol, &g, None, provenance, &certify_config())
                        .map(|run| (run.certificate.to_json_line(), run))
                });
                pass.phases.certify_s += start.elapsed().as_secs_f64();
                certified.and_then(|(line, run)| {
                    let start = Instant::now();
                    let verified = wb_verify::verify_line(&line);
                    pass.phases.verify_s += start.elapsed().as_secs_f64();
                    let walk = (run.distinct_states, run.terminals, run.failures);
                    check_certify((states, terminals), walk, verified)
                        .map(|summary| format!("{line}\n{summary}"))
                })
            }
        };
        match outcome {
            Ok(line) => pass.lines.push(line),
            Err(e) => {
                pass.lines.push(String::new());
                pass.errors.push(e);
            }
        }
    }
    pass
}

/// Run one traced pass of `steps`. `reference` is an untraced pass of the
/// same steps; every traced output must equal it byte for byte.
pub fn run_traced_pass(steps: &[Step], reference: &Pass) -> TracedPass {
    let mut pass = Pass::default();
    let mut jobs = Vec::new();
    let mut certify = None;
    for step in steps {
        pass.attempted += 1;
        let outcome = match step {
            Step::Job { spec, expect } => {
                let result = run_job_traced(spec);
                let elapsed = result.as_ref().map_or(0.0, |(_, _, t)| t.total_s);
                *pass.phases.of(spec.kind) += elapsed;
                result.and_then(|(report, line, trace)| {
                    jobs.push((spec.clone(), trace));
                    check_job(spec, expect, &report, &line, &pass.lines)
                        .map(|()| line)
                        .map_err(|e| format!("{} (traced): {e}", label(spec)))
                })
            }
            &Step::Certify {
                protocol,
                workload,
                n,
                seed,
                states,
                terminals,
            } => {
                let mut t = CertifyTrace::default();
                let certified = span(&mut t.graph_s, || {
                    wb_core::workload::graph_family(workload, n, seed)
                })
                .and_then(|g| {
                    let provenance = Provenance {
                        family: Some(workload),
                        seed: Some(seed),
                    };
                    span(&mut t.walk_s, || {
                        certify_spec(protocol, &g, None, provenance, &certify_config())
                    })
                })
                .map(|run| {
                    (
                        span(&mut t.render_s, || run.certificate.to_json_line()),
                        run,
                    )
                });
                let outcome = certified.and_then(|(line, run)| {
                    t.bytes = line.len() as f64;
                    t.edges = run.certificate.edges.len() as f64;
                    let verified = span(&mut t.verify_parse_s, || wb_verify::parse(&line))
                        .and_then(|raw| {
                            span(&mut t.verify_replay_s, || {
                                wb_verify::verify_certificate(&raw)
                            })
                        });
                    let walk = (run.distinct_states, run.terminals, run.failures);
                    check_certify((states, terminals), walk, verified)
                        .map(|summary| format!("{line}\n{summary}"))
                });
                pass.phases.certify_s += t.graph_s + t.walk_s + t.render_s;
                pass.phases.verify_s += t.verify_parse_s + t.verify_replay_s;
                certify = Some(t);
                outcome
            }
        };
        let i = pass.lines.len();
        match outcome {
            Ok(line) if reference.lines.get(i) == Some(&line) => pass.lines.push(line),
            Ok(line) => {
                pass.errors.push(format!(
                    "step {i}: traced output differs from run_job's: {line} vs {:?}",
                    reference.lines.get(i)
                ));
                pass.lines.push(line);
            }
            Err(e) => {
                pass.lines.push(String::new());
                pass.errors.push(e);
            }
        }
    }
    TracedPass {
        pass,
        jobs,
        certify,
    }
}

/// Run `w` at smoke sizes: two untraced passes and one traced pass, every
/// output checked, the second and the traced pass against the first.
pub fn smoke(w: Workload, seed: u64) -> Pass {
    let steps = w.steps(seed, true);
    let first = run_pass(&steps);
    let again = run_pass(&steps);
    let traced = run_traced_pass(&steps, &first);
    let mut errors = first.errors.clone();
    errors.extend(again.errors);
    errors.extend(traced.pass.errors);
    if again.lines != first.lines {
        errors.push(format!(
            "{}: outputs differ between passes of one seed",
            w.name()
        ));
    }
    Pass {
        attempted: first.attempted + again.attempted + traced.pass.attempted,
        errors,
        ..first
    }
}
