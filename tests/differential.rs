//! Differential test harness: the schedule-space explorer against the
//! `wb-graph` reference oracles and against the naive factorial DFS.
//!
//! Two quantifiers are discharged here, both finite:
//!
//! 1. **Protocol vs oracle** — for every labeled graph up to `n = 5`, run
//!    BUILD / MIS / BFS under all four models (via the Lemma 4 [`Promote`]
//!    adapters where the native model is weaker) through the explorer, and
//!    assert every reachable terminal output matches the reference oracle.
//! 2. **Explorer vs naive DFS** — for every labeled graph up to `n = 4`,
//!    the deduplicating explorer and the naive clone-per-branch DFS must
//!    reach exactly the same *set* of terminal outcomes (which implies the
//!    same pass/fail verdict for any predicate). This is the correctness
//!    anchor for canonical-state deduplication, run for BUILD and MIS under
//!    every model of the lattice plus the native protocols of each problem
//!    family shipped in `wb-core`.

use shared_whiteboard::par::{par_drain, WorkQueue};
use shared_whiteboard::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Debug;
use wb_core::registry::{self, BoundOracle, ProtocolVisitor};
use wb_core::BuildError;

/// All graphs on `1..=n` nodes.
fn graphs_up_to(n: usize) -> impl Iterator<Item = Graph> {
    (1..=n).flat_map(enumerate::all_graphs)
}

/// Run `check` on every graph up to `n` nodes, spread across the thread
/// pool via `wb_par::par_drain` (panics inside workers propagate through
/// the scope join, so assertion failures still fail the test).
fn for_all_graphs_parallel(n: usize, check: impl Fn(&Graph) + Sync) {
    let count = (1..=n).map(enumerate::count_all).sum::<u64>() as usize;
    let queue = WorkQueue::bounded(count);
    for g in graphs_up_to(n) {
        queue.push(g).expect("queue sized to hold every graph");
    }
    par_drain(&queue, |g, _| check(&g));
}

/// Models a protocol of `native` model can be promoted to (itself included).
fn targets(native: Model) -> impl Iterator<Item = Model> {
    Model::ALL.into_iter().filter(move |t| t.includes(native))
}

/// Explore exhaustively (canonical dedup) and assert every terminal outcome
/// satisfies `oracle`; panics with the witness schedule otherwise.
fn check_against_oracle<P>(p: &P, g: &Graph, label: &str, oracle: impl Fn(&P::Output) -> bool)
where
    P: Protocol,
    P::Output: Clone + Debug,
{
    let report = explore(p, g, &ExploreConfig::default(), |outcome| match outcome {
        Outcome::Success(out) => oracle(out),
        Outcome::Deadlock { .. } => false,
    });
    assert!(!report.truncated, "{label}: truncated on {g:?}");
    if let Some(f) = report.failures.first() {
        panic!(
            "{label}: oracle violated on {g:?} under write order {:?}: {:?}",
            f.schedule, f.outcome
        );
    }
}

/// Debug-rendered set of terminal outcomes from the naive DFS.
fn naive_outcomes<P>(p: &P, g: &Graph) -> BTreeSet<String>
where
    P: Protocol,
    P::Output: Debug,
{
    let mut set = BTreeSet::new();
    let report = for_each_schedule(p, g, 500_000, |r| {
        set.insert(format!("{:?}", r.outcome));
    });
    assert!(!report.truncated, "naive DFS truncated on {g:?}");
    set
}

/// The explorer (canonical dedup) must reach exactly the naive DFS's set of
/// terminal outcomes — hence the same verdict for any outcome predicate.
fn assert_explorer_matches_naive<P>(p: &P, g: &Graph, label: &str)
where
    P: Protocol,
    P::Output: Clone + Debug,
{
    let naive = naive_outcomes(p, g);
    let report = explore(p, g, &ExploreConfig::default(), |_| true);
    assert!(!report.truncated, "{label}: explorer truncated on {g:?}");
    let explored: BTreeSet<String> = report.outcomes.iter().map(|o| format!("{o:?}")).collect();
    assert_eq!(
        explored, naive,
        "{label}: explorer and naive DFS disagree on {g:?}"
    );
    // Dedup may only shrink work, never add terminals beyond the naive set.
    assert!(report.terminals as usize >= explored.len());
}

#[test]
fn build_matches_oracle_under_all_four_models_up_to_n5() {
    // BUILD for degeneracy ≤ 2 is SIMASYNC-native, hence runs in every
    // model. Oracle: exact reconstruction on 2-degenerate inputs, a
    // degeneracy complaint otherwise. The heaviest sweep of the suite
    // (1,100 graphs × 4 models), so the graphs drain across the pool.
    for_all_graphs_parallel(5, |g| {
        let degenerate_enough = checks::degeneracy(g).0 <= 2;
        for target in targets(Model::SimAsync) {
            let p = Promote::new(BuildDegenerate::new(2), target);
            check_against_oracle(
                &p,
                g,
                &format!("BUILD@{target}"),
                |out: &Result<Graph, BuildError>| match out {
                    Ok(h) => degenerate_enough && *h == *g,
                    Err(_) => !degenerate_enough,
                },
            );
        }
    });
}

#[test]
fn mis_matches_oracle_under_its_models_up_to_n5() {
    // Rooted MIS is SIMSYNC-native: SIMSYNC, ASYNC and SYNC apply.
    for_all_graphs_parallel(5, |g| {
        for target in targets(Model::SimSync) {
            let p = Promote::new(MisGreedy::new(1), target);
            check_against_oracle(&p, g, &format!("MIS@{target}"), |set| {
                checks::is_rooted_mis(g, set, 1)
            });
        }
    });
}

#[test]
fn bfs_matches_oracle_up_to_n5() {
    // General BFS is SYNC-native (Theorem 10) — nothing to promote to, but
    // the adversary quantifier is the interesting one here anyway.
    for g in graphs_up_to(5) {
        check_against_oracle(&SyncBfs, &g, "BFS@SYNC", |f| *f == checks::bfs_forest(&g));
    }
}

#[test]
fn eob_bfs_matches_oracle_up_to_n5() {
    // EOB-BFS (ASYNC) must be total: the forest on even-odd-bipartite
    // inputs, the verdict otherwise, and never a deadlock.
    for g in graphs_up_to(5) {
        let valid = checks::is_even_odd_bipartite(&g);
        check_against_oracle(&EobBfs, &g, "EOB-BFS@ASYNC", |out| match out {
            BfsOutput::Forest(f) => valid && *f == checks::bfs_forest(&g),
            BfsOutput::NotEvenOddBipartite => !valid,
        });
    }
}

#[test]
fn explorer_matches_naive_for_build_and_mis_all_models_n4() {
    // The acceptance anchor: same outcome set, hence same verdict, on every
    // labeled graph up to n = 4, for BUILD and MIS under every model each
    // can run in.
    for g in graphs_up_to(4) {
        for target in targets(Model::SimAsync) {
            let p = Promote::new(BuildDegenerate::new(2), target);
            assert_explorer_matches_naive(&p, &g, &format!("BUILD@{target}"));
        }
        for target in targets(Model::SimSync) {
            for root in 1..=g.n() as NodeId {
                let p = Promote::new(MisGreedy::new(root), target);
                assert_explorer_matches_naive(&p, &g, &format!("MIS(root {root})@{target}"));
            }
        }
    }
}

/// Registry visitor running the full per-protocol differential battery on
/// one graph: explorer vs naive DFS outcome sets, fingerprint vs exact
/// dedup, and every reachable terminal against the registry oracle. One
/// visitor, seventeen protocols — the per-call-site protocol lists this
/// file used to carry are gone.
struct FullBattery<'a> {
    g: &'a Graph,
    info: &'static registry::ProtocolInfo,
}

impl ProtocolVisitor for FullBattery<'_> {
    type Result = ();
    fn visit<P, B>(self, protocol: P, bind: B)
    where
        P: Protocol + Clone + Send + Sync,
        P::Node: Send + Sync,
        P::Output: Clone + PartialEq + Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
    {
        let label = self.info.name;
        assert_explorer_matches_naive(&protocol, self.g, label);
        assert_fingerprint_matches_exact(&protocol, self.g, label);
        let oracle = bind(self.g);
        let report = explore(&protocol, self.g, &ExploreConfig::default(), |out| {
            oracle(out, &[])
        });
        assert!(!report.truncated, "{label}: truncated on {:?}", self.g);
        if self.info.total {
            if let Some(f) = report.failures.first() {
                panic!(
                    "{label}: registry oracle violated on {:?} under write order {:?}: {:?}",
                    self.g, f.schedule, f.outcome
                );
            }
        } else {
            // The Open Problem 3 ablation: failures are *expected* exactly
            // where the promise is broken, and they must all be deadlocks.
            let promise_holds = checks::is_bipartite(self.g);
            if promise_holds {
                assert!(
                    report.failures.is_empty(),
                    "{label}: failed on a promise-class instance {:?}",
                    self.g
                );
            } else {
                assert!(
                    report
                        .failures
                        .iter()
                        .all(|f| matches!(f.outcome, Outcome::Deadlock { .. })),
                    "{label}: a non-deadlock oracle failure on {:?}",
                    self.g
                );
            }
        }
    }
}

#[test]
fn every_registry_protocol_passes_the_differential_battery_n4() {
    // All seventeen registered protocols, resolved through the registry, on
    // every labeled graph up to n = 4: explorer vs naive DFS, fingerprint
    // vs exact dedup, and the shared oracle — in one sweep.
    for_all_graphs_parallel(4, |g| {
        for info in registry::PROTOCOLS {
            registry::dispatch(info.name, g.n(), FullBattery { g, info })
                .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        }
    });
}

#[test]
fn parallel_explorer_agrees_with_sequential_on_oracle_checks() {
    // The par_map fan-out and sharded dedup must not change results:
    // identical counts and outcome multisets on a nontrivial instance mix
    // (discovery *order* is not promised by the parallel walk).
    for g in [
        generators::path(6),
        generators::clique(5),
        generators::star(6),
        generators::two_cliques(3),
    ] {
        let cfg = ExploreConfig::default();
        let seq = explore(&SyncBfs, &g, &cfg, |_| true);
        let par = explore_parallel(&SyncBfs, &g, &cfg, |_| true);
        assert_eq!(seq.distinct_states, par.distinct_states);
        assert_eq!(seq.terminals, par.terminals);
        assert_eq!(seq.merged, par.merged);
        let mut a: Vec<String> = seq.outcomes.iter().map(|o| format!("{o:?}")).collect();
        let mut b: Vec<String> = par.outcomes.iter().map(|o| format!("{o:?}")).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}

/// Fingerprint dedup must be indistinguishable from exact-snapshot dedup:
/// same reachable-state count, same merge count, same terminals, and the
/// same outcome multiset — which together pin that no fingerprint collision
/// merged two genuinely distinct configurations anywhere in the walk.
fn assert_fingerprint_matches_exact<P>(p: &P, g: &Graph, label: &str)
where
    P: Protocol,
    P::Output: Clone + Debug,
{
    let fp = explore(p, g, &ExploreConfig::default(), |_| true);
    let exact = explore(
        p,
        g,
        &ExploreConfig::default().with_dedup(DedupPolicy::Exact),
        |_| true,
    );
    assert!(
        !fp.truncated && !exact.truncated,
        "{label}: truncated {g:?}"
    );
    assert_eq!(
        fp.distinct_states, exact.distinct_states,
        "{label}: reachable-state sets differ on {g:?}"
    );
    assert_eq!(fp.merged, exact.merged, "{label}: merge counts on {g:?}");
    assert_eq!(fp.terminals, exact.terminals, "{label}: terminals on {g:?}");
    assert_eq!(fp.peak_frontier, exact.peak_frontier, "{label}: {g:?}");
    let a: BTreeSet<String> = fp.outcomes.iter().map(|o| format!("{o:?}")).collect();
    let b: BTreeSet<String> = exact.outcomes.iter().map(|o| format!("{o:?}")).collect();
    assert_eq!(a, b, "{label}: outcome sets differ on {g:?}");
}

#[test]
fn fingerprint_dedup_matches_exact_under_all_four_models_up_to_n5() {
    // The acceptance differential for streaming fingerprint dedup: on every
    // labeled graph up to n = 5, under every model of the lattice (via
    // promotion), the fingerprint-mode exploration reaches exactly the
    // exact-mode reachable-state sets. BUILD is SIMASYNC-native (promotes
    // everywhere); MIS covers the SIMSYNC branch.
    for_all_graphs_parallel(5, |g| {
        for target in targets(Model::SimAsync) {
            let p = Promote::new(BuildDegenerate::new(2), target);
            assert_fingerprint_matches_exact(&p, g, &format!("BUILD@{target}"));
        }
        for target in targets(Model::SimSync) {
            let p = Promote::new(MisGreedy::new(1), target);
            assert_fingerprint_matches_exact(&p, g, &format!("MIS@{target}"));
        }
    });
}

// ---------------------------------------------------------------------------
// Certificates inherit the explorer's soundness boundary.
// ---------------------------------------------------------------------------

/// Registry visitor pinning that a certificate's terminal outcome set is
/// exactly what the Exact-dedup explorer and the naive factorial DFS reach:
/// the certifying walk (canonical-fingerprint dedup) loses nothing and
/// invents nothing, on every model the protocol can run in.
struct CertificateBattery<'a> {
    g: &'a Graph,
    info: &'static registry::ProtocolInfo,
}

impl CertificateBattery<'_> {
    fn check_one<P>(&self, p: &P, target: Model)
    where
        P: Protocol,
        P::Output: Clone + Debug,
    {
        let label = format!("{}@{target}", self.info.name);
        let run = wb_bench::certify::certify_spec(
            self.info.name,
            self.g,
            Some(target),
            wb_bench::certify::Provenance::default(),
            &ExploreConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{label}: certification failed on {:?}: {e}", self.g));
        let certified: BTreeSet<String> = run
            .certificate
            .terminals
            .iter()
            .map(|t| t.outcome.clone())
            .collect();
        let naive = naive_outcomes(p, self.g);
        assert_eq!(
            certified, naive,
            "{label}: certificate and naive DFS outcome sets differ on {:?}",
            self.g
        );
        let exact = explore(
            p,
            self.g,
            &ExploreConfig::default().with_dedup(DedupPolicy::Exact),
            |_| true,
        );
        assert!(!exact.truncated);
        let exact_set: BTreeSet<String> = exact.outcomes.iter().map(|o| format!("{o:?}")).collect();
        assert_eq!(
            certified, exact_set,
            "{label}: certificate and Exact-dedup outcome sets differ on {:?}",
            self.g
        );
        assert_eq!(
            run.distinct_states, exact.distinct_states,
            "{label}: certified state count differs from Exact dedup on {:?}",
            self.g
        );
    }
}

impl ProtocolVisitor for CertificateBattery<'_> {
    type Result = ();
    fn visit<P, B>(self, protocol: P, _bind: B)
    where
        P: Protocol + Clone + Send + Sync,
        P::Node: Send + Sync,
        P::Output: Clone + PartialEq + Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
    {
        let native = protocol.model();
        for target in targets(native) {
            if target == native {
                self.check_one(&protocol, target);
            } else {
                self.check_one(&Promote::new(protocol.clone(), target), target);
            }
        }
    }
}

#[test]
fn certificates_match_exact_dedup_and_naive_dfs_n4() {
    // Every registered protocol, every model it can run in (via Lemma 4
    // promotion), every labeled graph up to n = 4: the certificate's
    // terminal outcome set equals both independent references.
    for_all_graphs_parallel(4, |g| {
        for info in registry::PROTOCOLS {
            registry::dispatch(info.name, g.n(), CertificateBattery { g, info })
                .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        }
    });
}

// ---------------------------------------------------------------------------
// Fault plans: the inert plan is byte-identical to no plan at all.
// ---------------------------------------------------------------------------

/// An explore job of async-bipartite-bfs on the Open Problem 3 ablation
/// graph (a triangle with a tail), which deadlocks it: a FAIL report. The
/// edge list is written to a temp file named after `tag`; remove it after.
fn ablation_explore_spec(tag: &str) -> (wb_serve::jobs::JobSpec, std::path::PathBuf) {
    use wb_serve::jobs::{JobKind, JobSpec};
    let name = format!("wb_ablation_{tag}_{}.txt", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, "5\n1 2\n2 3\n1 3\n3 4\n4 5\n").unwrap();
    let mut spec = JobSpec::new(JobKind::Explore);
    spec.protocol = "async-bipartite-bfs".into();
    spec.workload = format!("file:{}", path.display());
    spec.n = 5;
    (spec, path)
}

#[test]
fn parallel_explore_failures_report_the_sequential_witnesses() {
    // The parallel walk may discover a failing terminal through a different
    // schedule on each run; a FAIL report must still be one byte string per
    // spec, and equal to the sequential walk's apart from `par`.
    use wb_serve::jobs::run_job;
    let (base, path) = ablation_explore_spec("par");
    for (faults, dedup) in [
        (None, "canonical"),
        (Some("crash:1"), "canonical"),
        (None, "none"),
    ] {
        let mut sequential = base.clone();
        sequential.faults = faults.map(str::to_string);
        sequential.dedup = dedup.into();
        let expected = run_job(&sequential).unwrap().line();
        assert!(expected.contains("\"witnesses\""), "{expected}");
        let expected = expected.replace("\"par\":false", "\"par\":true");
        let mut parallel = sequential.clone();
        parallel.par = true;
        for _ in 0..5 {
            assert_eq!(run_job(&parallel).unwrap().line(), expected);
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn inert_fault_plans_leave_job_reports_byte_identical_across_the_registry() {
    // The fault-free differential gate: for every registered protocol, on
    // every execution tier it supports, a budget-0 fault plan (`crash:0` and
    // `lossy:0`) must produce the *byte-identical* report — same JSON, same
    // verdict — as no plan at all. This pins that wiring `FaultPlan` through
    // the engines changed nothing about historical behavior.
    use wb_serve::jobs::{run_job, JobKind, JobSpec};
    let render = |spec: &JobSpec| run_job(spec).map(|r| (r.line(), r.verdict));
    let mut bases = Vec::new();
    for info in registry::PROTOCOLS {
        for kind in [JobKind::Explore, JobKind::Campaign, JobKind::Bulk] {
            if kind == JobKind::Bulk && !info.bulk {
                continue;
            }
            let mut base = JobSpec::new(kind);
            base.protocol = info.spec.to_string();
            match kind {
                JobKind::Explore => base.n = 4,
                JobKind::Campaign => {
                    base.n = 12;
                    base.trials = 40;
                }
                JobKind::Bulk => base.n = 60,
            }
            bases.push(base);
        }
    }
    // Every exploration above passes; the ablation job fails, so its report
    // carries `witnesses`.
    let (failing, ablation) = ablation_explore_spec("inert");
    assert!(render(&failing).unwrap().0.contains("\"witnesses\""));
    bases.push(failing);
    for base in bases {
        let baseline = render(&base);
        for plan in ["crash:0", "lossy:0"] {
            let mut faulted = base.clone();
            faulted.faults = Some(plan.into());
            assert_eq!(
                render(&faulted),
                baseline,
                "{} {:?} with {plan} diverged from the fault-free report",
                base.protocol,
                base.kind
            );
        }
    }
    let _ = std::fs::remove_file(&ablation);
}

#[test]
fn certification_refuses_the_unsound_dedup_escape_hatch() {
    // `DedupPolicy::Off` exists for transcript-valued protocols, whose
    // outcome sets canonical dedup legitimately collapses — exactly the
    // runs a certificate's distinct-configuration DAG cannot represent.
    // Certification must therefore refuse the escape hatch outright.
    let g = generators::path(3);
    let err = wb_bench::certify::certify_spec(
        "mis:1",
        &g,
        None,
        wb_bench::certify::Provenance::default(),
        &ExploreConfig::default().without_dedup(),
    )
    .err()
    .expect("certification with dedup off must be refused");
    assert!(err.contains("DedupPolicy::Off"), "{err}");
}

// ---------------------------------------------------------------------------
// Crash branching: the explorer against wb-verify's replay under live plans.
// ---------------------------------------------------------------------------

/// Sorted `Debug` renderings of a report's terminal outcomes (a multiset).
fn outcome_multiset<O: Debug>(report: &ExplorationReport<O>) -> Vec<String> {
    let mut all: Vec<String> = report.outcomes.iter().map(|o| format!("{o:?}")).collect();
    all.sort();
    all
}

/// The explorer's sequential and parallel walks must match the certificate
/// producer on states, terminals, merges and the outcome multiset under
/// `config`'s fault plan. The producer reads the explorer's own walk, so
/// the independent reference is `wb-verify`: the registry certificate of
/// `spec` promoted to `target` must pass its replay machine, which
/// re-derives every crash edge itself, and agree with the explorer's counts.
fn assert_walkers_agree_under_faults<P>(
    p: &P,
    g: &Graph,
    config: &ExploreConfig,
    spec: &str,
    target: Model,
    label: &str,
) where
    P: Protocol + Sync,
    P::Node: Send + Sync,
    P::Output: Clone + Debug + Send,
{
    use wb_bench::certify::{certify_spec, Provenance};
    use wb_runtime::certificate::{certify, CertificateScenario};
    use wb_runtime::exhaustive::{explore_parallel_with, explore_with};
    let scenario = CertificateScenario {
        protocol: label,
        family: None,
        seed: None,
    };
    let certified = certify(p, g, &scenario, config, |_, _| true)
        .unwrap_or_else(|e| panic!("{label}: certification failed on {g:?}: {e}"))
        .report;
    assert!(!certified.truncated, "{label}: certify truncated on {g:?}");
    let sequential = explore_with(p, g, config, |_, _| true);
    let parallel = explore_parallel_with(p, g, config, |_, _| true);
    for (walk, report) in [("sequential", &sequential), ("parallel", &parallel)] {
        assert!(!report.truncated, "{label}: {walk} truncated on {g:?}");
        assert_eq!(
            (report.distinct_states, report.terminals, report.merged),
            (
                certified.distinct_states,
                certified.terminals,
                certified.merged
            ),
            "{label}: {walk} explorer and certify disagree on {g:?}"
        );
        assert_eq!(
            outcome_multiset(report),
            outcome_multiset(&certified),
            "{label}: {walk} outcome multiset differs from certify on {g:?}"
        );
    }
    let run = certify_spec(spec, g, Some(target), Provenance::default(), config)
        .unwrap_or_else(|e| panic!("{label}: registry certification failed on {g:?}: {e}"));
    let summary = wb_verify::verify_line(&run.certificate.to_json_line())
        .unwrap_or_else(|e| panic!("{label}: wb-verify rejects the certificate on {g:?}: {e}"));
    assert_eq!(
        (summary.states, summary.terminals as u64),
        (sequential.distinct_states, sequential.terminals),
        "{label}: wb-verify and the explorer disagree on {g:?}"
    );
}

#[test]
fn explorer_matches_certifying_dfs_under_crash_budgets_n4() {
    // Crash budgets above 1 let one expansion spend the budget across
    // several levels; the folded expander's crash children must be exactly
    // the crash edges wb-verify re-derives, on every model.
    use wb_runtime::FaultPlan;
    for f in [1, 2] {
        let config = ExploreConfig::default().with_faults(Some(FaultPlan::crash_stop(f)));
        for n in 1..=4 {
            for g in enumerate::all_connected_graphs(n) {
                for target in Model::ALL {
                    let p = Promote::new(BuildDegenerate::new(2), target);
                    let label = format!("build:2@{target} crash:{f}");
                    assert_walkers_agree_under_faults(&p, &g, &config, "build:2", target, &label);
                }
                for target in targets(Model::SimSync) {
                    let p = Promote::new(MisGreedy::new(1), target);
                    let label = format!("mis:1@{target} crash:{f}");
                    assert_walkers_agree_under_faults(&p, &g, &config, "mis:1", target, &label);
                }
            }
        }
    }
}
