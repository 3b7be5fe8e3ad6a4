//! E-CAMPAIGN — Monte Carlo campaign throughput past the exhaustive
//! frontier (`BENCH_campaign.json`).
//!
//! The exhaustive explorer certifies the ∀-adversary quantifier up to
//! `n ≈ 8`; this experiment measures the statistical tier that replaces it
//! beyond: seeded schedule campaigns on instances with `n` up to 100,
//! hundreds of thousands of trials, throughput recorded per protocol ×
//! model × graph family. Campaigns over *correct* protocols must report
//! zero failures (a nonzero count here is a real finding, and the bin
//! fails loudly); a deliberately broken configuration (the Open Problem 3
//! ablation graph under the async BFS) exercises the failure → shrink
//! pipeline end to end.
//!
//! ```text
//! exp_campaign [--json PATH|-] [--baseline PATH] [--quick]
//! ```
//!
//! `--baseline` compares fresh trials/sec against a checked-in baseline and
//! fails on a ≥ 2× regression (a slower machine passes; a genuine 2×
//! regression does not). `--quick` divides trial counts by 10 for smoke
//! runs.

use std::time::Instant;
use wb_bench::json::{escape, Json};
use wb_bench::table::{banner, TablePrinter};
use wb_core::registry::{self, BoundOracle, ProtocolVisitor};
use wb_core::workload::graph_family;
use wb_core::AsyncBipartiteBfs;
use wb_graph::Graph;
use wb_runtime::{Model, Protocol};
use wb_sim::{run_campaign, shrink_schedule, CampaignConfig, CampaignLabels, SamplerKind};

struct Row {
    protocol: String,
    model: String,
    family: String,
    n: usize,
    trials: u64,
    failures: u64,
    distinct_outcomes: u64,
    wall_sec: f64,
}

impl Row {
    fn trials_per_sec(&self) -> f64 {
        if self.wall_sec > 0.0 {
            self.trials as f64 / self.wall_sec
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"protocol\":{},\"model\":{},\"family\":{},\"n\":{},\"trials\":{},\
             \"failures\":{},\"distinct_outcomes\":{},\"wall_sec\":{:.9},\
             \"trials_per_sec\":{:.1}}}",
            escape(&self.protocol),
            escape(&self.model),
            escape(&self.family),
            self.n,
            self.trials,
            self.failures,
            self.distinct_outcomes,
            self.wall_sec,
            self.trials_per_sec(),
        )
    }
}

/// Registry visitor for one campaign row: resolves the protocol *and* its
/// oracle from `wb_core::registry` (no local oracle table to drift), under
/// the row's model (promoted by `registry::dispatch_at`), and measures
/// throughput.
struct Measure<'a> {
    label: &'a str,
    family: &'a str,
    n: usize,
    trials: u64,
    sampler: SamplerKind,
}

impl ProtocolVisitor for Measure<'_> {
    type Result = Row;
    fn visit<P, B>(self, p: P, bind: B) -> Row
    where
        P: Protocol + Clone + Send + Sync,
        P::Node: Send + Sync,
        P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
    {
        let g = graph_family(self.family, self.n, 1).expect("known family");
        let oracle = bind(&g);
        let labels = CampaignLabels {
            protocol: self.label.into(),
            model: p.model().to_string(),
            family: self.family.into(),
        };
        let config = CampaignConfig::default()
            .with_trials(self.trials)
            .with_seed(0xC0FFEE)
            .with_sampler(self.sampler);
        let start = Instant::now();
        let report = run_campaign(&p, &g, &config, &labels, |o| oracle(o, &[]));
        let wall_sec = start.elapsed().as_secs_f64();
        assert_eq!(
            report.failed, 0,
            "{} on {} n={}: a correct protocol produced failing trials — \
             investigate before trusting the bench",
            self.label, self.family, self.n
        );
        Row {
            protocol: self.label.into(),
            model: labels.model,
            family: self.family.into(),
            n: self.n,
            trials: self.trials,
            failures: report.failed,
            distinct_outcomes: report.distinct_outcomes,
            wall_sec,
        }
    }
}

fn measure_one(
    spec: &str,
    label: &str,
    family: &str,
    n: usize,
    trials: u64,
    sampler: SamplerKind,
    target: Option<Model>,
) -> Row {
    registry::dispatch_at(
        spec,
        n,
        target,
        Measure {
            label,
            family,
            n,
            trials,
            sampler,
        },
    )
    .expect("registered protocol at a model it can be promoted to")
}

fn measure_rows(quick: bool) -> Vec<Row> {
    let scale = |t: u64| if quick { (t / 10).max(1_000) } else { t };
    vec![
        // MIS at its native SIMSYNC model, mid-size instance.
        measure_one(
            "mis:1",
            "MIS(1)",
            "gnp:4",
            50,
            scale(200_000),
            SamplerKind::Uniform,
            None,
        ),
        // The acceptance-shaped row: MIS promoted to the free-synchronous
        // model at n = 100 — the regime the exhaustive tier cannot touch.
        measure_one(
            "mis:1",
            "MIS(1)@SYNC",
            "gnp:4",
            100,
            scale(100_000),
            SamplerKind::Uniform,
            Some(Model::Sync),
        ),
        // A crashy-sampler campaign: adversarially skewed schedules, same
        // oracle.
        measure_one(
            "mis:1",
            "MIS(1)+crashy",
            "gnp:4",
            50,
            scale(100_000),
            SamplerKind::Crashy,
            None,
        ),
        // BUILD exercises the heavy decode path (Newton power sums) per
        // trial.
        measure_one(
            "build:2",
            "BUILD(2)",
            "kdeg:2",
            40,
            scale(10_000),
            SamplerKind::Uniform,
            None,
        ),
        // EdgeCount: the cheapest protocol — an upper bound on raw engine
        // throughput at n = 100.
        measure_one(
            "edge-count",
            "EDGE-COUNT",
            "gnp:4",
            100,
            scale(100_000),
            SamplerKind::Uniform,
            None,
        ),
    ]
}

/// The failure → shrink pipeline on a protocol that genuinely fails: the
/// async (no-d₀) BFS deadlocks on every schedule of the triangle-with-tail
/// graph. Returns (witness length, shrunk length).
fn shrink_demo() -> (usize, usize) {
    let g = Graph::from_edges(5, &[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]);
    let config = CampaignConfig::default().with_trials(2_000).with_seed(9);
    let labels = CampaignLabels {
        protocol: "async-bipartite-bfs".into(),
        model: "ASYNC".into(),
        family: "triangle-tail".into(),
    };
    let report = run_campaign(&AsyncBipartiteBfs, &g, &config, &labels, |o| o.is_success());
    assert_eq!(report.verdict(), "FAIL", "the ablation graph must deadlock");
    let witness = &report.witnesses[0];
    let shrunk = shrink_schedule(
        &AsyncBipartiteBfs,
        &g,
        &witness.schedule,
        |o| !o.is_success(),
        10_000,
    )
    .expect("witness fails, so it shrinks");
    assert!(shrunk.schedule.len() <= witness.schedule.len());
    (witness.schedule.len(), shrunk.schedule.len())
}

fn emit_json(rows: &[Row], path: &str) {
    let mut body = String::from("{\n  \"schema\": \"wb-bench/campaign/v1\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str("    ");
        body.push_str(&row.to_json());
        body.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    body.push_str("  ]\n}\n");
    Json::parse(&body).expect("emitted JSON is well-formed");
    if path == "-" {
        print!("{body}");
    } else {
        std::fs::write(path, &body).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Gate: every baseline row with a matching (protocol, n) must not beat the
/// fresh measurement by more than 2×.
fn check_baseline(rows: &[Row], path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("baseline {path}: {e}"))?;
    let baseline_rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("baseline has no rows array")?;
    let mut checked = 0;
    for b in baseline_rows {
        let (Some(protocol), Some(n), Some(base_tps)) = (
            b.get("protocol").and_then(Json::as_str),
            b.get("n").and_then(Json::as_f64),
            b.get("trials_per_sec").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let Some(row) = rows
            .iter()
            .find(|r| r.protocol == protocol && r.n == n as usize)
        else {
            continue;
        };
        let fresh = row.trials_per_sec();
        println!(
            "baseline {protocol} n={n}: {fresh:.0} trials/sec vs baseline {base_tps:.0} ({:.2}x)",
            fresh / base_tps
        );
        if fresh * 2.0 < base_tps {
            return Err(format!(
                "{protocol} n={n}: {fresh:.0} trials/sec regressed more than 2x \
                 against the baseline {base_tps:.0}"
            ));
        }
        checked += 1;
    }
    if checked == 0 {
        return Err("baseline matched no measured rows".into());
    }
    println!("baseline gate passed ({checked} rows within 2x)");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_path = Some(it.next().expect("--json expects a path").clone()),
            "--baseline" => {
                baseline_path = Some(it.next().expect("--baseline expects a path").clone())
            }
            "--quick" => quick = true,
            other => panic!("unknown flag '{other}'"),
        }
    }

    banner("Monte Carlo schedule campaigns: throughput past the exhaustive frontier");
    let rows = measure_rows(quick);
    let t = TablePrinter::new(
        &[
            "protocol",
            "model",
            "family",
            "n",
            "trials",
            "distinct",
            "trials/sec",
        ],
        &[14, 9, 7, 5, 9, 9, 12],
    );
    for row in &rows {
        t.row(&[
            row.protocol.clone(),
            row.model.clone(),
            row.family.clone(),
            format!("{}", row.n),
            format!("{}", row.trials),
            format!("{}", row.distinct_outcomes),
            format!("{:.0}", row.trials_per_sec()),
        ]);
    }

    banner("Failure injection → witness shrinking (Open Problem 3 ablation)");
    let (raw, shrunk) = shrink_demo();
    println!(
        "async BFS deadlock witness: {raw} picks sampled, {shrunk} after delta-debugging \
         (locally minimal, exactly replayable)"
    );

    if let Some(path) = &json_path {
        emit_json(&rows, path);
    }
    if let Some(path) = &baseline_path {
        if let Err(e) = check_baseline(&rows, path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
