//! The benchmark program.
//!
//! ```text
//! wb-perfbench --workload W [--seed N] [--seconds N] [--trace 0|1]
//! wb-perfbench --smoke [--workload W] [--seed N]
//! ```
//!
//! A run prints the run header and a detail line (every named metric with
//! its sample count) as JSON lines on stdout, a readable summary on stderr,
//! and, as the last stdout line, the result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--smoke` runs every workload (or one) at tiny sizes through the
//! same checks and exits non-zero if any fails.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use wb_bench::json::Json;
use wb_perfbench::metrics::{self, median, END_TO_END, PER_LAYER};
use wb_perfbench::sys;
use wb_perfbench::workloads::{
    run_pass, run_traced_pass, smoke, Pass, Phases, Step, Workload, ALL,
};

const USAGE: &str =
    "usage: wb-perfbench --workload <bulk-build|bulk-mis-sync|exhaustive|campaign> \
                     [--seed N] [--seconds N] [--trace 0|1]\n       \
                     wb-perfbench --smoke [--workload W] [--seed N]";

/// Cold passes run in fresh child processes for `setup_s`, besides the
/// main process's own first pass.
const COLD_CHILDREN: usize = 2;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    cold_pass: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        cold_pass: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value()?)?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--cold-pass" => args.cold_pass = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        _ if args.smoke => run_smoke(&args),
        Some(w) if args.cold_pass => cold_pass(w, args.seed),
        Some(w) if args.trace => traced_run(w, &args),
        Some(w) => timed_run(w, &args),
        None => unreachable!("parse_args requires --workload outside --smoke"),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Jobs attempted and the reasons of those that failed, over a whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.errors.extend(pass.errors.iter().cloned());
    }

    /// Add `pass` and check that each output equals `reference`'s: one seed
    /// must give the same outputs on every pass.
    fn add_repeat(&mut self, reference: &Pass, pass: &Pass) {
        self.add(pass);
        for (i, (a, b)) in reference.lines.iter().zip(&pass.lines).enumerate() {
            if a != b && !b.is_empty() {
                self.errors.push(format!(
                    "step {i}: output differs between passes of one seed"
                ));
            }
        }
    }

    fn fail_share(&self) -> f64 {
        self.errors.len() as f64 / self.attempted.max(1) as f64
    }

    /// Print the reasons on stderr and the result line on stdout.
    fn finish(&self, metrics: &[(&str, &str)], values: &BTreeMap<&str, f64>) {
        for e in self.errors.iter().take(10) {
            eprintln!("FAILED: {e}");
        }
        let metrics = metrics
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                let m = BTreeMap::from([
                    ("value".to_string(), Json::Num(v)),
                    ("unit".to_string(), Json::Str(unit.into())),
                ]);
                (name.to_string(), Json::Obj(m))
            })
            .collect();
        let result = Json::Obj(BTreeMap::from([
            ("correct".into(), Json::Bool(self.errors.is_empty())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.errors.len() as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]));
        println!("{result}");
    }
}

/// `{"median", "min", "max", "samples", "unit"}` of `xs` for the detail
/// line.
fn stat(xs: &[f64], unit: &str) -> Json {
    let (min, max) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    Json::Obj(BTreeMap::from([
        ("median".into(), Json::Num(median(xs))),
        ("min".into(), Json::Num(min)),
        ("max".into(), Json::Num(max)),
        ("samples".into(), Json::Num(xs.len() as f64)),
        ("unit".into(), Json::Str(unit.into())),
    ]))
}

fn print_detail(header: Json, detail: BTreeMap<String, Json>) {
    eprintln!(
        "{:<28} {:>14} {:>14} {:>14} {:>7}  unit",
        "metric", "median", "min", "max", "samples"
    );
    for (name, s) in &detail {
        let get = |k| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let unit = s.get("unit").and_then(Json::as_str).unwrap_or("");
        eprintln!(
            "{name:<28} {:>14.6} {:>14.6} {:>14.6} {:>7}  {unit}",
            get("median"),
            get("min"),
            get("max"),
            get("samples")
        );
    }
    println!("{}", Json::Obj(BTreeMap::from([("header".into(), header)])));
    println!(
        "{}",
        Json::Obj(BTreeMap::from([("detail".into(), Json::Obj(detail))]))
    );
}

/// One cold pass in this (fresh) process; prints its job seconds, peak
/// memory and failures as one JSON line for the parent.
fn cold_pass(w: Workload, seed: u64) -> Result<bool, String> {
    let pass = run_pass(&w.steps(seed, false));
    let errors = pass.errors.iter().map(|e| Json::Str(e.clone())).collect();
    let line = Json::Obj(BTreeMap::from([
        ("job_s".into(), Json::Num(pass.phases.job_s())),
        ("peak_rss_mb".into(), Json::Num(sys::peak_rss_mb())),
        ("attempted".into(), Json::Num(pass.attempted as f64)),
        ("errors".into(), Json::Arr(errors)),
    ]));
    println!("{line}");
    Ok(true)
}

/// Run [`cold_pass`] in a child process of this program and wait for it;
/// returns its job seconds and peak memory.
fn cold_child(w: Workload, seed: u64, tally: &mut Tally) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let seed = seed.to_string();
    let out = Command::new(exe)
        .args(["--cold-pass", "--workload", w.name(), "--seed", &seed])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a cold pass: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let json = Json::parse(line)
        .ok()
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("cold pass failed ({}): {line}", out.status))?;
    let num = |k| json.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    tally.attempted += num("attempted") as u64;
    let errors = json
        .get("errors")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    tally.errors.extend(
        errors
            .iter()
            .filter_map(Json::as_str)
            .map(|e| format!("cold pass: {e}")),
    );
    Ok((num("job_s"), num("peak_rss_mb")))
}

/// `--trace 0`: cold passes for `setup_s` and `peak_rss_mb`, then warm
/// passes for `seconds`.
fn timed_run(w: Workload, args: &Args) -> Result<bool, String> {
    let steps = w.steps(args.seed, false);
    let mut tally = Tally::default();
    let (mut setup, mut rss) = (Vec::new(), Vec::new());
    for _ in 0..COLD_CHILDREN {
        let (job_s, peak) = cold_child(w, args.seed, &mut tally)?;
        setup.push(job_s);
        rss.push(peak);
    }
    let cold = run_pass(&steps);
    tally.add(&cold);
    setup.push(cold.phases.job_s());
    rss.push(sys::peak_rss_mb());

    let mut warm: Vec<Phases> = Vec::new();
    let start = Instant::now();
    while warm.is_empty() || start.elapsed() < Duration::from_secs(args.seconds) {
        let pass = run_pass(&steps);
        tally.add_repeat(&cold, &pass);
        warm.push(pass.phases);
    }
    let job_s: Vec<f64> = warm.iter().map(Phases::job_s).collect();

    let mut detail = BTreeMap::new();
    for (i, (name, _)) in Phases::default().named().into_iter().enumerate() {
        let xs: Vec<f64> = warm.iter().map(|p| p.named()[i].1).collect();
        if xs.iter().any(|&x| x > 0.0) {
            detail.insert(name.to_string(), stat(&xs, "s"));
        }
    }
    detail.insert("job_s".into(), stat(&job_s, "s"));
    detail.insert("setup_s".into(), stat(&setup, "s"));
    detail.insert("peak_rss_mb".into(), stat(&rss, "MiB"));
    detail.insert("fail_share".into(), stat(&[tally.fail_share()], "ratio"));
    print_detail(
        sys::header(w.name(), args.seed, args.seconds, false),
        detail,
    );

    let values = BTreeMap::from([
        ("job_s", median(&job_s)),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", median(&rss)),
    ]);
    tally.finish(&END_TO_END, &values);
    Ok(true)
}

/// `--trace 1`: alternate untraced and traced passes for `seconds`; report
/// the per-layer metrics (medians over traced passes) and the overhead.
fn traced_run(w: Workload, args: &Args) -> Result<bool, String> {
    let steps = w.steps(args.seed, false);
    let width = wb_par::num_threads() as f64;
    let mut tally = Tally::default();
    let cold = run_pass(&steps);
    tally.add(&cold);
    let certificate = steps
        .iter()
        .position(|s| matches!(s, Step::Certify { .. }))
        .and_then(|i| cold.lines[i].split('\n').next());

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < Duration::from_secs(args.seconds) {
        let (cpu0, wall0) = (sys::cpu_s(), Instant::now());
        let pass = run_pass(&steps);
        let (cpu, wall) = (sys::cpu_s() - cpu0, wall0.elapsed().as_secs_f64());
        tally.add_repeat(&cold, &pass);

        let tp = run_traced_pass(&steps, &cold);
        tally.add(&tp.pass);
        let mut layers = metrics::layers(&tp, width);
        layers.insert("proc.cpu_s", cpu);
        layers.insert("par.utilization", cpu / (wall * width));
        layers.insert(
            "trace.overhead",
            tp.pass.phases.job_s() - pass.phases.job_s(),
        );
        // The bare JSON parse of the certificate, outside the pass totals.
        if let Some(line) = certificate {
            let t = Instant::now();
            if let Err(e) = Json::parse(line) {
                tally
                    .errors
                    .push(format!("certificate does not parse: {e}"));
            }
            layers.insert("json.parse_s", t.elapsed().as_secs_f64());
        }
        for &(name, _) in &PER_LAYER {
            let v = layers.get(name).copied().unwrap_or(0.0);
            samples.entry(name).or_default().push(v);
        }
        untraced.push(pass.phases.job_s());
        traced.push(tp.pass.phases.job_s());
    }

    let mut detail = BTreeMap::new();
    detail.insert("untraced_job_s".into(), stat(&untraced, "s"));
    detail.insert("traced_job_s".into(), stat(&traced, "s"));
    detail.insert("fail_share".into(), stat(&[tally.fail_share()], "ratio"));
    let mut values = BTreeMap::new();
    for &(name, unit) in &PER_LAYER {
        detail.insert(name.into(), stat(&samples[name], unit));
        values.insert(name, median(&samples[name]));
    }
    print_detail(sys::header(w.name(), args.seed, args.seconds, true), detail);
    tally.finish(&PER_LAYER, &values);
    Ok(true)
}

/// `--smoke`: every workload (or the one named) at tiny sizes through the
/// full checks, untraced and traced.
fn run_smoke(args: &Args) -> Result<bool, String> {
    let list = args.workload.map_or(ALL.to_vec(), |w| vec![w]);
    let mut tally = Tally::default();
    for w in list {
        let pass = smoke(w, args.seed);
        eprintln!(
            "smoke {:<14} {} ({} steps)",
            w.name(),
            if pass.errors.is_empty() {
                "ok"
            } else {
                "FAILED"
            },
            pass.attempted
        );
        tally.add(&pass);
    }
    tally.finish(&[], &BTreeMap::new());
    Ok(tally.errors.is_empty())
}
