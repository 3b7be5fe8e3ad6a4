//! Metric names, units and how each is computed from passes.

use std::collections::BTreeMap;

use wb_serve::jobs::JobKind;

use crate::layers::secs;
use crate::workloads::TracedPass;

/// The end-to-end metrics every workload reports (`--trace 0`), with units.
/// They are the ones that are never zero on any workload; the per-tier
/// phases (`bulk_s`, `explore_s`, ...) are printed on the detail line.
pub const END_TO_END: [(&str, &str); 3] =
    [("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics every workload reports (`--trace 1`), with units.
/// A layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("graph.generate_s", "s"),
    ("core.init_s", "s"),
    ("core.compose_busy_s", "s"),
    ("core.compose_calls", "count"),
    ("core.observe_busy_s", "s"),
    ("core.observe_calls", "count"),
    ("core.activate_calls", "count"),
    ("core.referee_s", "s"),
    ("core.referee_calls", "count"),
    ("core.oracle_s", "s"),
    ("core.oracle_calls", "count"),
    ("bulk.run_s", "s"),
    ("bulk.engine_self_s", "s"),
    ("bulk.rounds", "count"),
    ("bulk.total_bits", "bit"),
    ("bulk.payload_bytes", "B"),
    ("bulk.index_bytes", "B"),
    ("bulk.index_per_payload", "ratio"),
    ("explore.plain_s", "s"),
    ("explore.par_s", "s"),
    ("explore.faulted_s", "s"),
    ("explore.reduced_s", "s"),
    ("explore.walker_self_s", "s"),
    ("explore.distinct_states", "count"),
    ("explore.generated", "count"),
    ("explore.merged", "count"),
    ("explore.dedup_hit", "ratio"),
    ("explore.peak_frontier", "count"),
    ("explore.sleep_skipped", "count"),
    ("explore.reexpansions", "count"),
    ("explore.par_speedup", "ratio"),
    ("proc.cpu_s", "s"),
    ("par.utilization", "ratio"),
    ("campaign.mis_s", "s"),
    ("campaign.bfs_s", "s"),
    ("campaign.engine_self_busy_s", "s"),
    ("campaign.trials", "count"),
    ("campaign.failed", "count"),
    ("campaign.distinct_outcomes", "count"),
    ("campaign.outcome_dedup", "ratio"),
    ("certify.walk_s", "s"),
    ("certify.render_s", "s"),
    ("certify.bytes", "B"),
    ("certify.edges", "count"),
    ("json.parse_s", "s"),
    ("verify.parse_s", "s"),
    ("verify.replay_s", "s"),
    ("serve.report_s", "s"),
    ("trace.overhead", "s"),
    ("trace.unattributed_s", "s"),
];

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics one traced pass gives. `width` is the wb-par
/// pool width. `proc.cpu_s`, `par.utilization`, `json.parse_s` and
/// `trace.overhead` come from outside the traced pass and are left out.
pub fn layers(tp: &TracedPass, width: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *m.entry(k).or_insert(0.0) += v;
    for (spec, t) in &tp.jobs {
        let c = &t.calls;
        add("graph.generate_s", t.graph_s);
        add("core.init_s", secs(c.init_ns));
        add("core.compose_busy_s", secs(c.compose_ns));
        add("core.compose_calls", c.compose_calls as f64);
        add("core.observe_busy_s", secs(c.observe_ns));
        add("core.observe_calls", c.observe_calls as f64);
        add("core.activate_calls", c.activate_calls as f64);
        add("core.referee_s", secs(c.referee_ns));
        add("core.referee_calls", c.referee_calls as f64);
        add("core.oracle_s", secs(c.oracle_ns));
        add("core.oracle_calls", c.oracle_calls as f64);
        add("serve.report_s", t.report_s);
        add("trace.unattributed_s", t.unattributed_s());
        let tc = &t.tier_calls;
        let inner = tc.callbacks_s() + secs(tc.oracle_ns);
        match spec.kind {
            JobKind::Bulk => {
                add("bulk.run_s", t.tier_s);
                // On the parallel (SIMASYNC striped) path compose runs on
                // `width` threads at once, so its busy time is divided by
                // the width: an upper bound on the engine's own time.
                let w = if t.parallel_compose { width } else { 1.0 };
                let sequential = secs(tc.init_ns + tc.referee_ns);
                add(
                    "bulk.engine_self_s",
                    t.tier_s - sequential - secs(tc.compose_ns + tc.observe_ns) / w,
                );
            }
            JobKind::Explore => {
                let slot = if spec.par {
                    "explore.par_s"
                } else if spec.faults.is_some() {
                    "explore.faulted_s"
                } else if spec.reduction != "off" {
                    "explore.reduced_s"
                } else {
                    "explore.plain_s"
                };
                add(slot, t.tier_s);
                if !spec.par {
                    add("explore.walker_self_s", t.tier_s - inner);
                }
            }
            JobKind::Campaign => {
                let slot = match spec.protocol.as_str() {
                    "bfs" => "campaign.bfs_s",
                    _ => "campaign.mis_s",
                };
                add(slot, t.tier_s);
                add("campaign.engine_self_busy_s", t.tier_cpu_s - inner);
            }
        }
    }
    if let Some(c) = &tp.certify {
        add("graph.generate_s", c.graph_s);
        add("certify.walk_s", c.walk_s);
        add("certify.render_s", c.render_s);
        add("certify.bytes", c.bytes);
        add("certify.edges", c.edges);
        add("verify.parse_s", c.verify_parse_s);
        add("verify.replay_s", c.verify_replay_s);
    }

    let bulk = counts(tp, JobKind::Bulk);
    let get = |c: &BTreeMap<&str, f64>, k: &str| c.get(k).copied().unwrap_or(0.0);
    m.insert("bulk.rounds", get(&bulk, "rounds"));
    m.insert("bulk.total_bits", get(&bulk, "total_bits"));
    m.insert("bulk.payload_bytes", get(&bulk, "payload_bytes"));
    m.insert("bulk.index_bytes", get(&bulk, "index_bytes"));
    m.insert(
        "bulk.index_per_payload",
        ratio(get(&bulk, "index_bytes"), get(&bulk, "payload_bytes")),
    );

    let explore = counts(tp, JobKind::Explore);
    for (name, k) in [
        ("explore.distinct_states", "distinct_states"),
        ("explore.generated", "generated"),
        ("explore.merged", "merged"),
        ("explore.sleep_skipped", "sleep_skipped"),
        ("explore.reexpansions", "reexpansions"),
    ] {
        m.insert(name, get(&explore, k));
    }
    m.insert(
        "explore.dedup_hit",
        ratio(get(&explore, "merged"), get(&explore, "generated")),
    );
    let peak = tp.jobs.iter().filter(|(s, _)| s.kind == JobKind::Explore);
    let peak = peak
        .filter_map(|(_, t)| t.counts.get("peak_frontier"))
        .fold(0.0, |a: f64, &b| a.max(b));
    m.insert("explore.peak_frontier", peak);
    let plain = m.get("explore.plain_s").copied().unwrap_or(0.0);
    let par = m.get("explore.par_s").copied().unwrap_or(0.0);
    m.insert("explore.par_speedup", ratio(plain, par));

    let campaign = counts(tp, JobKind::Campaign);
    let trials = get(&campaign, "trials");
    m.insert("campaign.trials", trials);
    m.insert("campaign.failed", get(&campaign, "failed"));
    m.insert(
        "campaign.distinct_outcomes",
        get(&campaign, "distinct_outcomes"),
    );
    m.insert(
        "campaign.outcome_dedup",
        ratio(trials - get(&campaign, "distinct_outcomes"), trials),
    );
    m
}

/// Per-job deterministic counts of a traced pass, summed over job steps of
/// one kind.
fn counts(traced: &TracedPass, kind: JobKind) -> BTreeMap<&'static str, f64> {
    let mut sum = BTreeMap::new();
    for (spec, t) in &traced.jobs {
        if spec.kind == kind {
            for (&k, &v) in &t.counts {
                *sum.entry(k).or_insert(0.0) += v;
            }
        }
    }
    sum
}
