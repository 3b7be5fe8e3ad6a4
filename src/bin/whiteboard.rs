//! `whiteboard` — command-line driver for the shared-whiteboard protocols.
//!
//! ```text
//! whiteboard run   --protocol build:2 --workload kdeg:2 --n 200 [--seed S] [--adversary random:7] [--trace]
//! whiteboard check --protocol mis:1 --n 4            # exhaustive schedules on all n-node graphs
//! whiteboard explore --protocol mis:1 --workload path --n 6 [--max-states M] [--par] [--compare-naive]
//!                    [--dedup canonical|exact|off] [--reduction off|dpor|symmetry|dpor+symmetry]
//!                    [--json]
//!                                                    # schedule-space explorer report (dedup stats);
//!                                                    # --reduction applies the sound state-space
//!                                                    # reductions (sleep-set DPOR / automorphism
//!                                                    # quotient); --json emits one machine-readable
//!                                                    # object
//! whiteboard campaign --protocol mis:1 --graph-family gnp --n 100 --trials 1000000
//!                     [--model native|simasync|simsync|async|sync|fasync|fsync]
//!                     [--sampler uniform|priority|crashy] [--seed S] [--json]
//!                     [--shrink] [--shrink-out PATH]
//!                                                    # Monte Carlo schedule campaign (statistical
//!                                                    # tier, n past the exhaustive frontier);
//!                                                    # failures auto-shrink to minimal witnesses
//! whiteboard bulk --protocol build:2 --graph-family kdeg:2 --n 100000
//!                 [--model native|simasync|simsync|async|sync] [--seed S] [--batch B] [--json]
//!                                                    # bulk tier: one columnar execution at
//!                                                    # n ≥ 10⁵ (simultaneous-native protocols,
//!                                                    # under any model that includes the native
//!                                                    # one), rounds/sec + board bytes reported
//! whiteboard capacity --n 1024,4096                  # Lemma 3 table
//! whiteboard serve --socket PATH [--workers W] [--queue-cap Q]
//!                                                    # multi-tenant daemon: submit explore /
//!                                                    # campaign / bulk jobs over a local socket
//! whiteboard submit --socket PATH --kind explore|campaign|bulk [job flags] [--no-wait]
//!                                                    # client: submit one job; by default waits
//!                                                    # and prints the report (byte-identical to
//!                                                    # the corresponding `--json` command)
//! whiteboard status --socket PATH [--job N]          # client: job roster or one job's report
//! whiteboard shutdown --socket PATH                  # client: drain the daemon and exit it
//! whiteboard list                                    # protocols & workloads
//! ```
//!
//! Protocols and their correctness oracles resolve through the shared
//! [`wb_core::registry`], so `check`, `explore`, `campaign`, and `bulk` all
//! select scenarios from one table. Argument parsing is hand-rolled (no CLI
//! crate on the approved dependency list) and strict: unknown or duplicate
//! flags and stray positional arguments are usage errors naming the
//! offending token. Every run is reproducible from `--seed`, and every
//! `--json` report is deterministic — timing goes to stderr, never into the
//! JSON — which is what lets the `serve` daemon promise byte-identical
//! reports.

use shared_whiteboard::prelude::*;
use std::process::ExitCode;
use wb_bench::json::Json;
use wb_math::counting::MessageRegime;
use wb_reductions::lemma3::{verdict, Family};
use wb_runtime::run_traced;
use wb_serve::jobs::{explore_config, parse_faults, parse_model, JobKind, JobSpec};
use wb_serve::{Client, Daemon, ServeConfig};
use wb_sim::{shrink_schedule, ShrinkReport};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(cmd, &args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&opts),
        "check" => cmd_check(&opts),
        "explore" => cmd_tier(JobKind::Explore, &opts),
        "campaign" => cmd_tier(JobKind::Campaign, &opts),
        "bulk" => cmd_tier(JobKind::Bulk, &opts),
        "capacity" => cmd_capacity(&opts),
        "certify" => cmd_certify(&opts),
        "verify" => cmd_verify(&opts),
        "dot" => cmd_dot(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "status" => cmd_status(&opts),
        "shutdown" => cmd_shutdown(&opts),
        "list" => {
            cmd_list();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: whiteboard <run|check|explore|campaign|bulk|capacity|certify|verify|dot|\
         serve|submit|status|shutdown|list> \
         [--protocol P] [--workload W | --graph-family W] [--n N[,N..]] [--seed S] \
         [--adversary min|max|random:S] [--trace] \
         [--max-states M] [--par] [--compare-naive] [--dedup canonical|exact|off] \
         [--reduction off|dpor|symmetry|dpor+symmetry] [--json] \
         [--trials T] [--sampler uniform|priority|crashy] [--batch B] \
         [--model native|simasync|simsync|async|sync|fasync|fsync] [--shrink] [--shrink-out PATH] \
         [--faults crash:F|lossy:F] [--certify PATH] [--out PATH] \
         [--socket PATH] [--workers W] [--queue-cap Q] [--kind explore|campaign|bulk] \
         [--job N] [--no-wait] [--deadline-ms MS] [FILE..]"
    );
}

struct Opts {
    protocol: String,
    protocol_explicit: bool,
    workload: String,
    /// `--n` values; empty = the command's default (see [`Opts::ns_or`]).
    ns: Vec<usize>,
    seed: u64,
    adversary: String,
    trace: bool,
    max_states: u64,
    par: bool,
    compare_naive: bool,
    dedup: String,
    /// Reduction policy for `explore` / `certify`
    /// (`off|dpor|symmetry|dpor+symmetry`).
    reduction: String,
    json: bool,
    trials: u64,
    sampler: String,
    model: String,
    shrink: bool,
    shrink_out: Option<String>,
    /// Fault-plan spec (`crash:f` / `lossy:f`) for explore / campaign /
    /// bulk / certify; `None` (and budget 0) = today's fault-free behavior.
    faults: Option<String>,
    /// `submit --deadline-ms MS`: per-job wall-clock deadline enforced by
    /// the daemon.
    deadline_ms: Option<u64>,
    /// Sharding grain: board shard size for `bulk`, trial batch for
    /// `campaign`. `None` = each command's default.
    batch: Option<usize>,
    /// `explore --certify PATH`: also emit a `wb-cert/v1` line to PATH.
    certify: Option<String>,
    /// `certify --out PATH`: certificate destination (default stdout).
    out: Option<String>,
    /// Daemon socket path (`serve` binds it; `submit`/`status`/`shutdown`
    /// connect to it).
    socket: Option<String>,
    /// `serve --workers W`: worker-pool size.
    workers: usize,
    /// `serve --queue-cap Q`: bounded job-queue capacity.
    queue_cap: usize,
    /// `submit --kind explore|campaign|bulk`: which execution tier.
    kind: Option<String>,
    /// `status --job N`: restrict to one job.
    job: Option<u64>,
    /// `submit --no-wait`: print the job ID instead of waiting for the report.
    no_wait: bool,
    /// Positional arguments (`verify` takes certificate files).
    files: Vec<String>,
}

impl Opts {
    fn parse(cmd: &str, args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            protocol: "build:1".into(),
            protocol_explicit: false,
            workload: "tree".into(),
            ns: Vec::new(),
            seed: 1,
            adversary: "random:1".into(),
            trace: false,
            max_states: 1 << 20,
            par: false,
            compare_naive: false,
            dedup: "canonical".into(),
            reduction: "off".into(),
            json: false,
            trials: 10_000,
            sampler: "uniform".into(),
            model: "native".into(),
            shrink: false,
            shrink_out: None,
            faults: None,
            deadline_ms: None,
            batch: None,
            certify: None,
            out: None,
            socket: None,
            workers: 2,
            queue_cap: 64,
            kind: None,
            job: None,
            no_wait: false,
            files: Vec::new(),
        };
        let mut seen: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                // `--workload` / `--graph-family` are spellings of one flag;
                // count them as one for duplicate detection.
                let canonical = if a == "--graph-family" {
                    "--workload".to_string()
                } else {
                    a.clone()
                };
                if seen.contains(&canonical) {
                    return Err(format!("duplicate flag '{a}'"));
                }
                seen.push(canonical);
            }
            let mut value = |name: &str| match it.next() {
                Some(v) if v.starts_with("--") => {
                    Err(format!("{name} expects a value, got flag '{v}'"))
                }
                Some(v) => Ok(v.clone()),
                None => Err(format!("{name} expects a value")),
            };
            match a.as_str() {
                "--protocol" => {
                    o.protocol = value("--protocol")?;
                    o.protocol_explicit = true;
                }
                "--workload" | "--graph-family" => o.workload = value(a)?,
                "--n" => {
                    let ns = value("--n")?;
                    o.ns = ns
                        .split(',')
                        .map(|v| number(v.trim()))
                        .collect::<Result<_, _>>()?;
                }
                "--seed" => o.seed = number(&value("--seed")?)?,
                "--adversary" => o.adversary = value("--adversary")?,
                "--trace" => o.trace = true,
                "--max-states" => o.max_states = number(&value("--max-states")?)?,
                "--par" => o.par = true,
                "--compare-naive" => o.compare_naive = true,
                "--dedup" => o.dedup = value("--dedup")?,
                "--reduction" => o.reduction = value("--reduction")?,
                "--json" => o.json = true,
                "--trials" => o.trials = number(&value("--trials")?)?,
                "--sampler" => o.sampler = value("--sampler")?,
                "--model" => o.model = value("--model")?,
                "--batch" => o.batch = Some(number(&value("--batch")?)?),
                "--faults" => o.faults = Some(value("--faults")?),
                "--deadline-ms" => {
                    let ms = number(&value("--deadline-ms")?)?;
                    if ms == 0 {
                        return Err("--deadline-ms must be at least 1".into());
                    }
                    o.deadline_ms = Some(ms);
                }
                "--shrink" => o.shrink = true,
                "--shrink-out" => {
                    o.shrink = true;
                    o.shrink_out = Some(value("--shrink-out")?);
                }
                "--certify" => o.certify = Some(value("--certify")?),
                "--out" => o.out = Some(value("--out")?),
                "--socket" => o.socket = Some(value("--socket")?),
                "--workers" => {
                    o.workers = number(&value("--workers")?)?;
                    if o.workers == 0 {
                        return Err("--workers must be at least 1".into());
                    }
                }
                "--queue-cap" => {
                    o.queue_cap = number(&value("--queue-cap")?)?;
                    if o.queue_cap == 0 {
                        return Err("--queue-cap must be at least 1".into());
                    }
                }
                "--kind" => o.kind = Some(value("--kind")?),
                "--job" => o.job = Some(number(&value("--job")?)?),
                "--no-wait" => o.no_wait = true,
                other if !other.starts_with("--") => {
                    // Only `verify` takes positionals (certificate files);
                    // anywhere else a stray word is a typo, not input.
                    if cmd == "verify" {
                        o.files.push(other.to_string());
                    } else {
                        return Err(format!(
                            "unexpected argument '{other}' (only `verify` takes positional \
                             arguments)"
                        ));
                    }
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(o)
    }

    /// The `--n` values, or `[default]` when `--n` was not given.
    fn ns_or(&self, default: usize) -> Vec<usize> {
        if self.ns.is_empty() {
            vec![default]
        } else {
            self.ns.clone()
        }
    }

    fn make_adversary(&self) -> Result<Box<dyn Adversary>, String> {
        let (kind, arg) = split_spec(&self.adversary);
        Ok(match kind {
            "min" => Box::new(MinIdAdversary),
            "max" => Box::new(MaxIdAdversary),
            "random" => Box::new(RandomAdversary::new(arg.unwrap_or(self.seed))),
            other => return Err(format!("unknown adversary '{other}'")),
        })
    }
}

/// A numeric flag value.
fn number<T: std::str::FromStr<Err = std::num::ParseIntError>>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())
}

use wb_core::registry;
use wb_core::workload::{graph_family, split_spec};

/// Unwrap a terminal outcome, or explain why there is none. Protocols whose
/// referee reads the full board always terminate on the engine's schedules,
/// but a structured error beats a panic if an adversary ever deadlocks one:
/// the CLI exits nonzero with this message instead of unwinding.
fn success_outcome<T>(spec: &str, outcome: Outcome<T>) -> Result<T, String> {
    match outcome {
        Outcome::Success(v) => Ok(v),
        Outcome::Deadlock { awake } => Err(format!(
            "protocol '{spec}' produced no outcome: deadlock with {} node(s) still awake {awake:?}",
            awake.len()
        )),
    }
}

/// Run one protocol and summarize; returns a one-line verdict.
fn run_one(
    proto_spec: &str,
    g: &Graph,
    adversary: &mut dyn Adversary,
    trace: bool,
) -> Result<String, String> {
    let n = g.n();
    let (kind, arg) = split_spec(proto_spec);
    let k = arg.unwrap_or(2) as usize;
    macro_rules! drive {
        ($p:expr, $fmt:expr) => {{
            let p = $p;
            let (report, rows) = run_traced(&p, g, adversary);
            if trace {
                print_trace(&rows);
            }
            // MIS and 2-CLIQUES implement both `Protocol` and
            // `BulkProtocol` (same budgets): name the trait explicitly.
            let budget = Protocol::budget_bits(&p, n);
            let stats = format!(
                "[{} bits/msg max, budget {budget}, {} rounds]",
                report.max_message_bits(),
                report.write_order.len()
            );
            let verdict: Result<String, String> = $fmt(report);
            Ok(format!("{} {stats}", verdict?))
        }};
    }
    match kind {
        "build" => drive!(BuildDegenerate::new(k.max(1)), |r: RunReport<
            Result<Graph, BuildError>,
        >| {
            Ok(match r.outcome {
                Outcome::Success(Ok(h)) => format!("BUILD ok: rebuilt exactly = {}", &h == g),
                Outcome::Success(Err(e)) => format!("BUILD rejected: {e:?}"),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "build-mixed" => drive!(wb_core::BuildMixed::new(k.max(1)), |r: RunReport<
            Result<Graph, BuildError>,
        >| {
            Ok(match r.outcome {
                Outcome::Success(Ok(h)) => format!("BUILD-MIXED ok: rebuilt exactly = {}", &h == g),
                Outcome::Success(Err(e)) => format!("BUILD-MIXED rejected: {e:?}"),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "naive" => drive!(NaiveBuild, |r: RunReport<Graph>| {
            Ok(format!(
                "NAIVE BUILD: rebuilt exactly = {}",
                matches!(r.outcome, Outcome::Success(ref h) if h == g)
            ))
        }),
        "mis" => {
            let root = (arg.unwrap_or(1) as NodeId).clamp(1, n as NodeId);
            drive!(MisGreedy::new(root), |r: RunReport<Vec<NodeId>>| {
                Ok(match r.outcome {
                    Outcome::Success(set) => format!(
                        "MIS(root {root}): |S| = {}, valid = {}",
                        set.len(),
                        checks::is_rooted_mis(g, &set, root)
                    ),
                    Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
                })
            })
        }
        "bfs" => drive!(SyncBfs, |r: RunReport<checks::BfsForest>| {
            Ok(match r.outcome {
                Outcome::Success(f) => format!(
                    "SYNC BFS: {} roots, max layer {}, matches reference = {}",
                    f.roots.len(),
                    f.layer.iter().max().copied().unwrap_or(0),
                    f == checks::bfs_forest(g)
                ),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "eob-bfs" => drive!(EobBfs, |r: RunReport<BfsOutput>| {
            Ok(match r.outcome {
                Outcome::Success(BfsOutput::Forest(f)) => {
                    format!("EOB-BFS: forest ok = {}", f == checks::bfs_forest(g))
                }
                Outcome::Success(BfsOutput::NotEvenOddBipartite) => {
                    "EOB-BFS: input is not even-odd bipartite".into()
                }
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "spanning" => drive!(wb_core::SpanningForestSync, |r: RunReport<
            wb_core::SpanningForest,
        >| {
            Ok(match r.outcome {
                Outcome::Success(sf) => format!(
                    "SPANNING-FOREST: {} tree edges, {} roots",
                    sf.edges.len(),
                    sf.roots.len()
                ),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "two-cliques" => drive!(TwoCliques, |r: RunReport<
            wb_core::two_cliques::TwoCliquesVerdict,
        >| {
            Ok(format!(
                "2-CLIQUES: {:?} (truth: {})",
                success_outcome(proto_spec, r.outcome)?,
                checks::is_two_cliques(g)
            ))
        }),
        "two-cliques-rand" => {
            drive!(
                TwoCliquesRandomized::new(arg.unwrap_or(7), 24),
                |r: RunReport<wb_core::two_cliques::TwoCliquesVerdict>| {
                    Ok(format!(
                        "2-CLIQUES (randomized): {:?} (truth: {})",
                        success_outcome(proto_spec, r.outcome)?,
                        checks::is_two_cliques(g)
                    ))
                }
            )
        }
        "subgraph" => drive!(SubgraphPrefix::new(k.max(1)), |r: RunReport<Graph>| {
            Ok(format!(
                "SUBGRAPH_{k}: exact = {}",
                matches!(r.outcome, Outcome::Success(ref h) if *h == g.induced_prefix(k.max(1).min(n)))
            ))
        }),
        "triangle" => drive!(TriangleFullRow, |r: RunReport<bool>| {
            Ok(format!(
                "TRIANGLE (Θ(n) bits): {:?} (truth: {})",
                success_outcome(proto_spec, r.outcome)?,
                checks::has_triangle(g)
            ))
        }),
        "square" => drive!(SquareFullRow, |r: RunReport<bool>| {
            Ok(format!(
                "SQUARE (Θ(n) bits): {:?} (truth: {})",
                success_outcome(proto_spec, r.outcome)?,
                checks::has_square(g)
            ))
        }),
        "diameter3" => drive!(DiameterAtMost3FullRow, |r: RunReport<bool>| {
            Ok(format!(
                "DIAMETER ≤ 3 (Θ(n) bits): {:?}",
                success_outcome(proto_spec, r.outcome)?
            ))
        }),
        "connectivity" => drive!(ConnectivitySync, |r: RunReport<ConnectivityReport>| {
            Ok(match r.outcome {
                Outcome::Success(rep) => format!(
                    "CONNECTIVITY: connected = {} ({} components; truth: {})",
                    rep.connected,
                    rep.components,
                    checks::is_connected(g)
                ),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "edge-count" => drive!(EdgeCount, |r: RunReport<usize>| {
            Ok(format!(
                "EDGE-COUNT: m = {:?} (truth: {})",
                success_outcome(proto_spec, r.outcome)?,
                g.m()
            ))
        }),
        "degree-stats" => drive!(DegreeStats, |r: RunReport<DegreeSummary>| {
            let s = success_outcome(proto_spec, r.outcome)?;
            Ok(format!(
                "DEGREE-STATS: max {} isolated {} regular {:?}",
                s.max_degree, s.isolated, s.regular
            ))
        }),
        other => Err(format!("unknown protocol '{other}'")),
    }
}

fn cmd_dot(o: &Opts) -> Result<(), String> {
    let g = graph_family(&o.workload, o.ns_or(20)[0], o.seed)?;
    if o.protocol.starts_with("bfs") {
        let forest = checks::bfs_forest(&g);
        print!(
            "{}",
            wb_graph::dot::forest_to_dot(&g, &forest, "whiteboard")
        );
    } else {
        print!("{}", wb_graph::dot::graph_to_dot(&g, "whiteboard"));
    }
    Ok(())
}

fn print_trace(rows: &[wb_runtime::TraceRow]) {
    println!("  round  active  writer  bits");
    for r in rows.iter().take(60) {
        println!(
            "  {:>5}  {:>6}  {:>6}  {:>4}",
            r.round, r.active_before, r.writer, r.message_bits
        );
    }
    if rows.len() > 60 {
        println!("  … ({} more rounds)", rows.len() - 60);
    }
}

fn cmd_run(o: &Opts) -> Result<(), String> {
    for n in o.ns_or(100) {
        let g = graph_family(&o.workload, n, o.seed)?;
        let mut adv = o.make_adversary()?;
        let line = run_one(&o.protocol, &g, adv.as_mut(), o.trace)?;
        println!("n={n:>6} {}: {line}", o.workload);
    }
    Ok(())
}

fn cmd_check(o: &Opts) -> Result<(), String> {
    // Exhaustive model checking over all labeled graphs on n nodes: every
    // registry protocol is checkable against its oracle (the per-protocol
    // match arms this command used to carry live in `wb_core::registry`).
    let n = o.ns_or(4)[0];
    if n > 5 {
        return Err("check enumerates all graphs; use --n ≤ 5".into());
    }

    struct CheckAllGraphs {
        n: usize,
        spec: String,
    }

    impl registry::ProtocolVisitor for CheckAllGraphs {
        type Result = Result<(u64, u64), String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> registry::BoundOracle<'g, P::Output> + Send + Sync,
        {
            let config = ExploreConfig::default();
            let mut graphs = 0u64;
            let mut states = 0u64;
            for g in enumerate::all_graphs(self.n) {
                graphs += 1;
                let oracle = bind(&g);
                let report = explore(&protocol, &g, &config, |out| oracle(out, &[]));
                if report.truncated {
                    return Err(format!("{}: truncated on {g:?}", self.spec));
                }
                if let Some(f) = report.failures.first() {
                    return Err(format!(
                        "{}: oracle violated on {g:?} under write order {:?}: {:?}",
                        self.spec, f.schedule, f.outcome
                    ));
                }
                states += report.distinct_states;
            }
            Ok((graphs, states))
        }
    }

    let (graphs, states) = registry::dispatch(
        &o.protocol,
        n,
        CheckAllGraphs {
            n,
            spec: o.protocol.clone(),
        },
    )??;
    println!(
        "exhaustive check passed: protocol {} on all {graphs} graphs (n = {n}), \
         {states} distinct states explored",
        o.protocol
    );
    Ok(())
}

/// Build the daemon-layer job spec equivalent to this invocation's flags —
/// `explore`, `campaign`, `bulk`, `certify` and `submit` all go through
/// this, which is what makes daemon reports byte-identical to CLI reports.
fn job_spec_from_opts(kind: JobKind, o: &Opts, n: usize) -> JobSpec {
    let mut spec = JobSpec::new(kind);
    if o.protocol_explicit {
        spec.protocol = o.protocol.clone();
    }
    spec.workload = o.workload.clone();
    spec.n = n;
    spec.seed = o.seed;
    spec.model = o.model.clone();
    spec.trials = o.trials;
    spec.sampler = o.sampler.clone();
    spec.batch = o.batch;
    spec.max_states = o.max_states;
    spec.dedup = o.dedup.clone();
    spec.reduction = o.reduction.clone();
    spec.par = o.par;
    spec.compare_naive = o.compare_naive;
    spec.faults = o.faults.clone();
    spec.deadline_ms = o.deadline_ms;
    spec
}

/// `explore`, `campaign` and `bulk`: one `wb_serve::run_job` per `--n`,
/// timed at that boundary. `--json` prints the report line (timing on
/// stderr) — the bytes `whiteboard serve` returns for the same spec — and
/// text mode renders that same report. Explore and bulk exit nonzero on a
/// FAIL verdict; a campaign reports its failures and exits 0.
///
/// `explore --certify PATH` also writes a `wb-cert/v1` line, before the
/// report, so a FAIL verdict still leaves the certificate — the failing
/// case is exactly the one worth re-checking independently. `campaign
/// --shrink` delta-debugs the first witness (see [`shrink_first_witness`]).
fn cmd_tier(kind: JobKind, o: &Opts) -> Result<(), String> {
    for n in o.ns_or(JobSpec::new(kind).n) {
        let spec = job_spec_from_opts(kind, o, n);
        if kind == JobKind::Campaign && o.shrink {
            refuse_unshrinkable(o, &spec)?;
        }
        if let (JobKind::Explore, Some(path)) = (kind, &o.certify) {
            let run = certify(&spec)?;
            std::fs::write(path, run.certificate.to_json_line() + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "certificate: {} states, {} terminals, {} failing -> {path}",
                run.distinct_states, run.terminals, run.failures
            );
        }
        let start = std::time::Instant::now();
        let mut report = wb_serve::run_job(&spec)?;
        let wall_sec = start.elapsed().as_secs_f64();
        if kind == JobKind::Campaign && o.shrink {
            shrink_first_witness(o, &spec, &mut report.json)?;
        }
        if o.json {
            println!("{}", report.line());
            eprintln!("{} wall: {wall_sec:.3}s", kind.name());
        } else {
            match kind {
                JobKind::Explore => print_explore(&report.json, wall_sec),
                JobKind::Campaign => print_campaign(&report.json, wall_sec),
                JobKind::Bulk => print_bulk(&report.json, wall_sec),
            }
        }
        if report.verdict == "FAIL" && kind != JobKind::Campaign {
            return Err(format!("{} job completed with verdict FAIL", kind.name()));
        }
    }
    Ok(())
}

/// Field `key` of a report, read with `as_t`. The report comes from
/// `run_job` in this process, so a missing or mistyped required key is a
/// schema bug: panic naming it rather than print a wrong number.
fn field<'a, T>(report: &'a Json, key: &str, as_t: impl FnOnce(&'a Json) -> Option<T>) -> T {
    let value = report.get(key).and_then(as_t);
    value.unwrap_or_else(|| panic!("report field {key:?} is missing or mistyped"))
}

/// Count field of a report.
fn count(report: &Json, key: &str) -> u64 {
    field(report, key, Json::as_f64) as u64
}

/// String field of a report.
fn text<'a>(report: &'a Json, key: &str) -> &'a str {
    field(report, key, Json::as_str)
}

/// Boolean field of a report.
fn flag(report: &Json, key: &str) -> bool {
    field(report, key, |v| match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    })
}

/// Node-list field of a report.
fn nodes(report: &Json, key: &str) -> Vec<NodeId> {
    let list = field(report, key, Json::as_arr).iter();
    list.map(|v| v.as_f64().expect("node ids are numbers") as NodeId)
        .collect()
}

/// A witness's ` (died [..])` note, empty when no write died (or the job
/// ran no fault plan, so the witness has no `died` key).
fn died_note(witness: &Json) -> String {
    match witness.get("died").map(|_| nodes(witness, "died")) {
        Some(died) if !died.is_empty() => format!(" (died {died:?})"),
        _ => String::new(),
    }
}

/// `count / secs`, or 0 for a zero or unmeasurable wall time.
fn per_sec(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// Text rendering of a `wb-serve/explore/v1` report.
fn print_explore(r: &Json, wall_sec: f64) {
    let (states, merged) = (count(r, "distinct_states"), count(r, "merged"));
    if r.get("naive_states").is_some() {
        let (naive, schedules) = (count(r, "naive_states"), count(r, "naive_schedules"));
        let truncated = if flag(r, "naive_truncated") {
            " (truncated)"
        } else {
            ""
        };
        let saves = naive as f64 / states.max(1) as f64;
        println!(
            "naive (no dedup): {naive} states, {schedules} schedules{truncated} — \
             dedup saves {saves:.1}x"
        );
    }
    let (protocol, workload, n) = (text(r, "protocol"), text(r, "workload"), count(r, "n"));
    let (terminals, peak) = (count(r, "terminals"), count(r, "peak_frontier"));
    let ratio = (states + merged) as f64 / states.max(1) as f64;
    let rate = per_sec(states, wall_sec);
    let truncated = if flag(r, "truncated") {
        "YES (partial result)"
    } else {
        "no"
    };
    println!(
        "exploring {protocol} on {workload} (n = {n})
  distinct states : {states}
  terminal configs: {terminals}
  merged branches : {merged} (dedup ratio {ratio:.1}x)
  peak frontier   : {peak}
  states/sec      : {rate:.0}
  truncated       : {truncated}"
    );
    if r.get("faults").is_some() {
        println!("  faults          : {}", text(r, "faults"));
    }
    if let Some(stats) = r.get("reduction_stats") {
        let on = |key| if flag(stats, key) { "on" } else { "off" };
        let aut = if flag(stats, "symmetry_active") {
            format!(", |Aut| = {}", count(stats, "group_order"))
        } else {
            String::new()
        };
        println!(
            "  reduction       : {} (dpor {}, symmetry {}{aut}) — {} generated, \
             {} sleep-skipped, {} orbit terminals, {} re-expansions",
            text(r, "reduction"),
            on("dpor_active"),
            on("symmetry_active"),
            count(stats, "generated"),
            count(stats, "sleep_skipped"),
            count(stats, "orbit_terminals"),
            count(stats, "reexpansions")
        );
    }
    for w in r.get("witnesses").and_then(Json::as_arr).unwrap_or(&[]) {
        let (schedule, died, outcome) = (nodes(w, "schedule"), died_note(w), text(w, "outcome"));
        println!("  FAIL under write order {schedule:?}{died}: {outcome}");
    }
    match text(r, "verdict") {
        "PASS" => println!(
            "  verdict         : PASS (every reachable configuration satisfies the oracle)"
        ),
        "INCONCLUSIVE" => println!("  verdict         : INCONCLUSIVE (truncated)"),
        _ => {}
    }
}

/// Text rendering of a `wb-sim/campaign/v1` report, `shrunk_*` keys
/// included.
fn print_campaign(r: &Json, wall_sec: f64) {
    let (protocol, model, family) = (text(r, "protocol"), text(r, "model"), text(r, "family"));
    let (n, trials) = (count(r, "n"), count(r, "trials"));
    let (sampler, seed) = (text(r, "sampler"), text(r, "seed"));
    println!(
        "campaign: {protocol} @ {model} on {family} (n = {n})
  trials          : {trials} (sampler {sampler}, seed {seed})"
    );
    if r.get("faults").is_some() {
        println!("  faults          : {}", text(r, "faults"));
    }
    let (passed, failed) = (count(r, "passed"), count(r, "failed"));
    let deadlocks = count(r, "deadlocks");
    let (outcomes, rate) = (count(r, "distinct_outcomes"), per_sec(trials, wall_sec));
    println!(
        "  passed / failed : {passed} / {failed} (deadlocks {deadlocks})
  distinct outcomes: {outcomes}
  wall            : {wall_sec:.3}s ({rate:.0} trials/sec)"
    );
    let witnesses = r.get("witnesses").and_then(Json::as_arr).unwrap_or(&[]);
    for w in witnesses.iter().take(3) {
        let (trial, seed, schedule) = (count(w, "trial"), text(w, "seed"), nodes(w, "schedule"));
        let (died, outcome) = (died_note(w), text(w, "outcome"));
        println!("  FAIL trial {trial} (seed {seed}): write order {schedule:?}{died} → {outcome}");
    }
    if let (Some(w), Some(_)) = (witnesses.first(), r.get("shrunk_schedule")) {
        let (from, to) = (nodes(w, "schedule").len(), nodes(r, "shrunk_schedule"));
        let (len, replays) = (to.len(), count(r, "shrink_replays"));
        println!("  shrunk witness  : {to:?} (len {from} → {len}, {replays} replays)");
    }
    println!("  verdict         : {}", text(r, "verdict"));
}

/// Text rendering of a `wb-serve/bulk/v1` report.
fn print_bulk(r: &Json, wall_sec: f64) {
    let (protocol, model, family) = (text(r, "protocol"), text(r, "model"), text(r, "family"));
    let n = count(r, "n");
    println!("bulk: {protocol} @ {model} on {family} (n = {n})");
    if r.get("faults").is_some() {
        let (plan, died) = (text(r, "faults"), nodes(r, "died"));
        println!("  faults          : {plan} (died {died:?})");
    }
    let (rounds, shards) = (count(r, "rounds"), count(r, "shards"));
    let payload = count(r, "board_payload_bytes");
    let index = count(r, "board_index_bytes");
    let (total, max) = (count(r, "total_bits"), count(r, "max_message_bits"));
    let (rate, verdict) = (per_sec(rounds, wall_sec), text(r, "verdict"));
    println!(
        "  rounds          : {rounds} in {wall_sec:.3}s ({rate:.0} rounds/sec)
  board           : {payload} bytes payload + {index} bytes index, {shards} shards
  messages        : {total} bits total, {max} bits/msg max
  verdict         : {verdict}"
    );
}

/// One certified exhaustive walk of `spec`'s protocol on its workload
/// instance, under the spec's model.
fn certify(spec: &JobSpec) -> Result<wb_bench::certify::CertifiedRun, String> {
    let g = graph_family(&spec.workload, spec.n, spec.seed)?;
    wb_bench::certify::certify_spec(
        &spec.protocol,
        &g,
        parse_model(&spec.model)?,
        wb_bench::certify::Provenance {
            family: Some(&spec.workload),
            seed: Some(spec.seed),
        },
        &explore_config(spec)?,
    )
}

/// Emit machine-checkable exploration certificates: one certified
/// exhaustive walk per `--n` value, each serialized as one `wb-cert/v1`
/// JSON line to `--out PATH` (or stdout). Run summaries go to stderr so
/// stdout stays pure JSONL. See `docs/CERTIFICATES.md`.
fn cmd_certify(o: &Opts) -> Result<(), String> {
    let ns = o.ns_or(100);
    let mut lines = String::new();
    for &n in &ns {
        let run = certify(&job_spec_from_opts(JobKind::Explore, o, n))?;
        eprintln!(
            "certified {} on {} (n = {}, {}): {} states, {} terminals, {} failing",
            o.protocol,
            o.workload,
            n,
            run.certificate.model,
            run.distinct_states,
            run.terminals,
            run.failures
        );
        lines.push_str(&run.certificate.to_json_line());
        lines.push('\n');
    }
    match &o.out {
        Some(path) => {
            std::fs::write(path, lines).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} certificate(s) to {path}", ns.len());
        }
        None => print!("{lines}"),
    }
    Ok(())
}

/// Re-check certificate files through the independent `wb-verify` crate:
/// one verdict line per certificate (PASS with the established summary, or
/// the structured rejection), nonzero exit if any fails.
fn cmd_verify(o: &Opts) -> Result<(), String> {
    if o.files.is_empty() {
        return Err("verify expects at least one certificate file".into());
    }
    let (mut total, mut bad) = (0usize, 0usize);
    for path in &o.files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            total += 1;
            match wb_verify::verify_line(line) {
                Ok(s) => println!(
                    "{path}:{}: PASS {} {} n={} states={} terminals={} failures={}",
                    i + 1,
                    s.protocol,
                    s.model,
                    s.n,
                    s.states,
                    s.terminals,
                    s.failures
                ),
                Err(e) => {
                    bad += 1;
                    println!("{path}:{}: FAIL {e}", i + 1);
                }
            }
        }
    }
    if bad == 0 {
        eprintln!("verified {total} certificate(s)");
        Ok(())
    } else {
        Err(format!(
            "{bad} of {total} certificate(s) failed verification"
        ))
    }
}

/// `campaign --shrink` refusals, checked before the campaign spends its
/// trials: shrinking replays schedules fault-free, and a `--shrink-out`
/// fixture replays the native protocol.
fn refuse_unshrinkable(o: &Opts, spec: &JobSpec) -> Result<(), String> {
    if parse_faults(spec.faults.as_deref())?.is_some() {
        return Err(
            "--shrink replays schedules fault-free and cannot minimize faulted witnesses; \
             drop --faults or --shrink/--shrink-out"
                .into(),
        );
    }
    let native = registry::info(split_spec(&spec.protocol).0).map(|p| p.model);
    let promoted = matches!((parse_model(&spec.model)?, native), (Some(m), Some(n)) if m != n);
    if o.shrink_out.is_some() && promoted {
        return Err(
            "--shrink-out requires the protocol's native model (corpus replay runs the \
             native protocol)"
                .into(),
        );
    }
    Ok(())
}

/// `campaign --shrink`: delta-debug the report's first witness to a locally
/// minimal failing schedule and add it to the report as the `shrunk_*`
/// keys. `--shrink-out PATH` additionally writes it as a `tests/corpus`
/// fixture.
fn shrink_first_witness(o: &Opts, spec: &JobSpec, report: &mut Json) -> Result<(), String> {
    let first = report
        .get("witnesses")
        .and_then(Json::as_arr)
        .and_then(<[Json]>::first);
    let Some(witness) = first.map(|w| nodes(w, "schedule")) else {
        if let Some(path) = &o.shrink_out {
            eprintln!("no failing trials: nothing written to {path}");
        }
        return Ok(());
    };
    let g = graph_family(&spec.workload, spec.n, spec.seed)?;
    let shrunk = registry::dispatch_at(
        &spec.protocol,
        spec.n,
        parse_model(&spec.model)?,
        ShrinkOne {
            g: &g,
            protocol: &spec.protocol,
            witness,
            out: o.shrink_out.as_deref(),
        },
    )??;
    if let Json::Obj(map) = report {
        let schedule = shrunk.schedule.iter().map(|&v| Json::Num(v as f64));
        map.insert("shrunk_schedule".into(), Json::Arr(schedule.collect()));
        map.insert("shrunk_outcome".into(), Json::Str(shrunk.outcome));
        map.insert("shrink_replays".into(), Json::Num(shrunk.replays as f64));
    }
    Ok(())
}

/// Registry visitor: shrink a campaign witness against the protocol (under
/// the campaign's model) and its instance-bound oracle.
struct ShrinkOne<'a> {
    g: &'a Graph,
    protocol: &'a str,
    witness: Vec<NodeId>,
    out: Option<&'a str>,
}

impl registry::ProtocolVisitor for ShrinkOne<'_> {
    type Result = Result<ShrinkReport, String>;
    fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
    where
        P: Protocol + Clone + Send + Sync,
        P::Node: Send + Sync,
        P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> registry::BoundOracle<'g, P::Output> + Send + Sync,
    {
        let oracle = bind(self.g);
        self.shrink(&protocol, |out: &Outcome<P::Output>| !oracle(out, &[]))
    }
}

impl ShrinkOne<'_> {
    fn shrink<P>(
        &self,
        p: &P,
        fails: impl Fn(&Outcome<P::Output>) -> bool,
    ) -> Result<ShrinkReport, String>
    where
        P: Protocol,
        P::Output: std::fmt::Debug,
    {
        let shrunk = shrink_schedule(p, self.g, &self.witness, fails, 20_000)?;
        if let Some(path) = self.out {
            use shared_whiteboard::corpus::WitnessFixture;
            // Strict replay of the minimal schedule pins the outcome the
            // fixture must reproduce.
            let replayed = run(
                p,
                self.g,
                &mut ScheduleAdversary::new(shrunk.schedule.clone()),
            );
            let failure = ScheduleFailure {
                schedule: shrunk.schedule.clone(),
                died: Vec::new(),
                outcome: replayed.outcome,
            };
            let fixture =
                WitnessFixture::from_failure("campaign-shrunk", self.protocol, self.g, &failure);
            fixture
                .save(std::path::Path::new(path))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            // Self-check through the corpus replay registry before telling
            // the user the witness is durable.
            fixture.replay()?;
            eprintln!("wrote shrunk witness fixture to {path}");
        }
        Ok(shrunk)
    }
}

/// The socket path every daemon subcommand needs.
fn require_socket(o: &Opts, cmd: &str) -> Result<std::path::PathBuf, String> {
    o.socket
        .as_deref()
        .map(std::path::PathBuf::from)
        .ok_or_else(|| format!("{cmd} requires --socket PATH"))
}

/// Connect to a running daemon, with a hint when there is none.
fn connect(o: &Opts, cmd: &str) -> Result<Client, String> {
    let path = require_socket(o, cmd)?;
    Client::connect(&path).map_err(|e| {
        format!(
            "cannot connect to daemon at {} ({e}); start one with \
             `whiteboard serve --socket {}`",
            path.display(),
            path.display()
        )
    })
}

/// Run the multi-tenant daemon in the foreground until a client sends
/// `shutdown`. Logs to stderr; the socket file is removed on exit.
fn cmd_serve(o: &Opts) -> Result<(), String> {
    let path = require_socket(o, "serve")?;
    let config = ServeConfig {
        workers: o.workers,
        queue_cap: o.queue_cap,
        ..ServeConfig::default()
    };
    let daemon =
        Daemon::bind(&path, config).map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
    daemon.run().map_err(|e| format!("daemon failed: {e}"))?;
    Ok(())
}

/// Submit one job to a running daemon. By default waits for completion and
/// prints the report line — byte-identical to the corresponding `--json`
/// command; `--no-wait` prints `{"job":N}` immediately instead.
fn cmd_submit(o: &Opts) -> Result<(), String> {
    let kind_name = o
        .kind
        .as_deref()
        .ok_or("submit requires --kind explore|campaign|bulk")?;
    let kind = JobKind::parse(kind_name)?;
    let spec = job_spec_from_opts(kind, o, o.ns_or(JobSpec::new(kind).n)[0]);
    let mut client = connect(o, "submit")?;
    if o.no_wait {
        let id = client.submit(&spec).map_err(|e| e.to_string())?;
        println!("{{\"job\":{id}}}");
        return Ok(());
    }
    let (line, verdict) = client.run(&spec).map_err(|e| e.to_string())?;
    println!("{line}");
    if verdict == "FAIL" {
        Err("job completed with verdict FAIL".into())
    } else {
        Ok(())
    }
}

/// Print the daemon's job roster (or one job's full record) as one JSON line.
fn cmd_status(o: &Opts) -> Result<(), String> {
    let mut client = connect(o, "status")?;
    let reply = client.status(o.job).map_err(|e| e.to_string())?;
    println!("{reply}");
    Ok(())
}

/// Ask the daemon to drain running jobs, refuse new ones, and exit.
fn cmd_shutdown(o: &Opts) -> Result<(), String> {
    let mut client = connect(o, "shutdown")?;
    client.shutdown().map_err(|e| e.to_string())?;
    eprintln!("daemon is draining; it exits once queued jobs finish");
    Ok(())
}

fn cmd_capacity(o: &Opts) -> Result<(), String> {
    println!(
        "{:>28} {:>9} {:>8} {:>14} {:>14} {:>11}",
        "family", "f(n)", "n", "required", "capacity", "verdict"
    );
    let ns = o.ns_or(100);
    for family in [
        Family::LabeledTrees,
        Family::BipartiteFixedHalves,
        Family::EvenOddBipartite,
        Family::AllGraphs,
    ] {
        for regime in [
            MessageRegime::LogN { c: 4 },
            MessageRegime::SqrtN,
            MessageRegime::Linear,
        ] {
            for &n in &ns {
                let v = verdict(family, n as u64, regime);
                println!(
                    "{:>28} {:>9} {:>8} {:>14} {:>14} {:>11}",
                    family.name(),
                    regime.name(),
                    n,
                    v.required_bits,
                    v.capacity_bits,
                    if v.impossible() { "IMPOSSIBLE" } else { "open" }
                );
            }
        }
    }
    Ok(())
}

fn cmd_list() {
    println!("protocols (from the shared registry; [bulk] = runnable on the bulk tier):");
    for p in registry::PROTOCOLS {
        println!(
            "  {:<22} {:<40} ({}, {}){}",
            p.spec,
            p.summary,
            p.model,
            p.paper,
            if p.bulk { " [bulk]" } else { "" }
        );
    }
    println!("workloads: tree forest ktree:K kdeg:K mixed:K gnp:DEG eob bipartite");
    println!("           two-cliques impostor clique cycle path file:PATH (edge list)");
    println!("adversaries: min max random:SEED");
    println!("campaign samplers: uniform priority crashy (see `whiteboard campaign`)");
    println!(
        "tiers: check/explore ≲ n=8 · campaign ≲ n=10² · bulk ≥ n=10⁵ \
         (simultaneous-native, any target model that includes the native one)"
    );
}
