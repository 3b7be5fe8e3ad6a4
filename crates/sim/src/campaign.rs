//! The Monte Carlo campaign runner: millions of seeded trials, sharded
//! across the thread pool, merged into one deterministic report.
//!
//! # Determinism contract
//!
//! A campaign's [`CampaignReport`] is a pure function of (protocol, graph,
//! [`CampaignConfig`]): trial `t` runs under the adversary seeded
//! [`trial_seed`]`(config.seed, t)` regardless of which worker executes it,
//! and batch statistics form a **commutative monoid** (counts add, outcome
//! sets union, witness lists keep the smallest trial indices), so the merged
//! result is independent of batch size, thread count, and completion order.
//! The golden test in the root crate pins this down to the JSON byte level.
//!
//! [`CampaignReport::to_json`] deliberately contains **no timing fields** —
//! wall-clock numbers would break byte-stability; callers that want
//! throughput (the CLI, `exp_campaign`) measure and report it separately.

use crate::sampler::{splitmix64, trial_seed, SamplerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use wb_bench::json::Json;
use wb_graph::{Graph, NodeId};
use wb_runtime::bulk::{bulk_model, run_bulk, run_bulk_crashed, BulkConfig, BulkProtocol};
use wb_runtime::{Adversary, Engine, FaultKind, FaultPlan, Model, Outcome, Protocol};

/// Tuning knobs for [`run_campaign`].
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of independent trials.
    pub trials: u64,
    /// Campaign seed; trial `t` derives its own seed via [`trial_seed`].
    pub seed: u64,
    /// Distribution over schedules.
    pub sampler: SamplerKind,
    /// Trials per work batch (the sharding grain handed to `wb_par`). Purely
    /// a performance knob: the report is identical for any value ≥ 1.
    pub batch: usize,
    /// Carry the full set of distinct outcome renderings only while it stays
    /// within this cap (the differential tests compare small-instance
    /// campaigns against the exhaustive explorer's outcome sets); past the
    /// cap only the exact distinct *count* survives.
    pub outcome_cap: usize,
    /// Keep at most this many failing witnesses (the ones with the smallest
    /// trial indices).
    pub witness_cap: usize,
    /// Fault plan injected per trial (`None` = fault-free, byte-identical to
    /// the historical runner). Trial `t` draws its fault schedule from a
    /// salted hop off [`trial_seed`], so fault randomness never correlates
    /// with the adversary's and the determinism contract carries over.
    pub faults: Option<FaultPlan>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 10_000,
            seed: 1,
            sampler: SamplerKind::Uniform,
            batch: 1024,
            outcome_cap: 4096,
            witness_cap: 8,
            faults: None,
        }
    }
}

impl CampaignConfig {
    /// Set the trial count.
    pub fn with_trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Set the campaign seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the schedule sampler.
    pub fn with_sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Set the sharding grain (performance only; the report is invariant).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Inject a fault plan into every trial (`None` = fault-free).
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// The plan that actually drops writes, if any — an inert plan
    /// (budget 0) behaves exactly like `None` everywhere.
    fn live_faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| !p.is_inert())
    }
}

/// Salt separating a trial's fault randomness from its adversary seed.
const FAULT_SALT: u64 = 0xFA17_BAD5_EED0_0001;

/// One trial's fault schedule, drawn deterministically from the (salted)
/// trial seed before the trial runs.
enum TrialFaults {
    /// Fault-free: every write survives.
    None,
    /// Crash-stop: a membership mask over nodes; a victim's single write
    /// crashes at the moment the adversary picks it. Victims are committed
    /// up front (crash-stop faults node identities, not individual writes).
    Crash(Vec<bool>),
    /// Lossy board: an adaptive per-write coin (25% suppression) while the
    /// budget lasts — the adversary decides write by write.
    Lossy { remaining: usize, rng: StdRng },
}

impl TrialFaults {
    /// Draw trial `t`'s schedule. `seed` is the trial's adversary seed
    /// ([`trial_seed`]); faults hop off it through [`FAULT_SALT`].
    fn draw(plan: Option<&FaultPlan>, n: usize, seed: u64) -> TrialFaults {
        let Some(plan) = plan else {
            return TrialFaults::None;
        };
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ FAULT_SALT));
        match plan.kind() {
            FaultKind::CrashStop => {
                // k uniform in 0..=min(f, n), then k distinct victims by
                // partial Fisher–Yates — every subset of each size is
                // equally likely.
                let cap = plan.budget().min(n);
                let k = rng.gen_range(0..=cap);
                let mut ids: Vec<NodeId> = (1..=n as NodeId).collect();
                let mut mask = vec![false; n];
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    ids.swap(i, j);
                    mask[ids[i] as usize - 1] = true;
                }
                TrialFaults::Crash(mask)
            }
            FaultKind::Lossy => TrialFaults::Lossy {
                remaining: plan.budget(),
                rng,
            },
        }
    }

    /// Whether this pick's write dies. Lossy consumes budget here.
    fn kills(&mut self, pick: NodeId) -> bool {
        match self {
            TrialFaults::None => false,
            TrialFaults::Crash(mask) => mask[pick as usize - 1],
            TrialFaults::Lossy { remaining, rng } => {
                if *remaining > 0 && rng.gen_range(0..4u32) == 0 {
                    *remaining -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The crash-stop victim list in ID order (bulk trials mask these).
    fn victims(&self) -> Vec<NodeId> {
        match self {
            TrialFaults::Crash(mask) => mask
                .iter()
                .enumerate()
                .filter_map(|(i, &dead)| dead.then_some(i as NodeId + 1))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// Descriptive labels stamped into the report (the runner itself is generic
/// and cannot name the protocol or graph family it was handed).
#[derive(Clone, Debug, Default)]
pub struct CampaignLabels {
    /// CLI-style protocol spec, e.g. `"mis:1"`.
    pub protocol: String,
    /// Model the trials ran under, e.g. `"SIMSYNC"`.
    pub model: String,
    /// Graph-family spec, e.g. `"gnp:4"`.
    pub family: String,
}

/// One failing trial, with everything needed to replay it: the trial index
/// and derived seed identify the adversary, and the recorded write order
/// replays exactly through `ScheduleAdversary`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// Trial index within the campaign.
    pub trial: u64,
    /// The trial's derived adversary seed.
    pub seed: u64,
    /// The executed write order (the replayable witness).
    pub schedule: Vec<NodeId>,
    /// Nodes whose write died, in schedule order — replaying the schedule
    /// and crashing exactly these picks reproduces `outcome`. Always empty
    /// for fault-free campaigns.
    pub died: Vec<NodeId>,
    /// `Debug` rendering of the failing outcome.
    pub outcome: String,
}

/// Aggregated result of one campaign. See the module docs for the
/// determinism contract.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Protocol label (from [`CampaignLabels`]).
    pub protocol: String,
    /// Model label.
    pub model: String,
    /// Graph-family label.
    pub family: String,
    /// Nodes in the instance.
    pub n: usize,
    /// Trials executed.
    pub trials: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Sampler name.
    pub sampler: &'static str,
    /// Trials whose outcome satisfied the predicate.
    pub passed: u64,
    /// Trials whose outcome violated the predicate.
    pub failed: u64,
    /// Trials that ended in a deadlock (counted regardless of the
    /// predicate's verdict on them).
    pub deadlocks: u64,
    /// Exact number of distinct outcome renderings observed.
    pub distinct_outcomes: u64,
    /// The distinct outcome renderings, sorted — present only while their
    /// count stays within [`CampaignConfig::outcome_cap`].
    pub outcome_set: Option<Vec<String>>,
    /// Failing witnesses with the smallest trial indices, capped at
    /// [`CampaignConfig::witness_cap`].
    pub witnesses: Vec<TrialFailure>,
    /// Canonical fault-plan spec (`crash:2`, `lossy:1`) when the campaign
    /// injected faults; `None` keeps the JSON byte-identical to the
    /// historical fault-free schema.
    pub faults: Option<String>,
}

impl CampaignReport {
    /// `"PASS"` if no trial violated the predicate, `"FAIL"` otherwise.
    pub fn verdict(&self) -> &'static str {
        if self.failed == 0 {
            "PASS"
        } else {
            "FAIL"
        }
    }

    /// Serialize into a deterministic JSON object (sorted keys, no timing
    /// fields — see the module docs). Seeds are emitted as strings because
    /// an arbitrary `u64` does not survive the round-trip through an `f64`
    /// JSON number.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("schema".into(), Json::Str("wb-sim/campaign/v1".into()));
        obj.insert("protocol".into(), Json::Str(self.protocol.clone()));
        obj.insert("model".into(), Json::Str(self.model.clone()));
        obj.insert("family".into(), Json::Str(self.family.clone()));
        obj.insert("n".into(), Json::Num(self.n as f64));
        obj.insert("trials".into(), Json::Num(self.trials as f64));
        obj.insert("seed".into(), Json::Str(self.seed.to_string()));
        obj.insert("sampler".into(), Json::Str(self.sampler.into()));
        obj.insert("passed".into(), Json::Num(self.passed as f64));
        obj.insert("failed".into(), Json::Num(self.failed as f64));
        obj.insert("deadlocks".into(), Json::Num(self.deadlocks as f64));
        obj.insert(
            "distinct_outcomes".into(),
            Json::Num(self.distinct_outcomes as f64),
        );
        obj.insert(
            "outcome_set".into(),
            match &self.outcome_set {
                Some(set) => Json::Arr(set.iter().map(|s| Json::Str(s.clone())).collect()),
                None => Json::Null,
            },
        );
        obj.insert(
            "witnesses".into(),
            Json::Arr(
                self.witnesses
                    .iter()
                    .map(|w| {
                        let mut o = BTreeMap::new();
                        o.insert("trial".into(), Json::Num(w.trial as f64));
                        o.insert("seed".into(), Json::Str(w.seed.to_string()));
                        o.insert(
                            "schedule".into(),
                            Json::Arr(w.schedule.iter().map(|&v| Json::Num(v as f64)).collect()),
                        );
                        if self.faults.is_some() {
                            o.insert(
                                "died".into(),
                                Json::Arr(w.died.iter().map(|&v| Json::Num(v as f64)).collect()),
                            );
                        }
                        o.insert("outcome".into(), Json::Str(w.outcome.clone()));
                        Json::Obj(o)
                    })
                    .collect(),
            ),
        );
        if let Some(spec) = &self.faults {
            obj.insert("faults".into(), Json::Str(spec.clone()));
        }
        obj.insert("verdict".into(), Json::Str(self.verdict().into()));
        Json::Obj(obj)
    }
}

/// 128-bit streaming digest sink (two independent multiply-xor streams,
/// same construction as the engine's configuration fingerprint) — lets the
/// campaign count distinct outcomes exactly without retaining millions of
/// strings. Implements `fmt::Write`, so an outcome's `Debug` rendering can
/// stream straight into the mixers with **no intermediate `String`**: on
/// the per-trial hot path the rendering is only materialized when something
/// actually consumes it (a first-seen outcome or a failing trial).
struct FingerprintWriter {
    a: u64,
    b: u64,
    buf: [u8; 8],
    filled: usize,
}

impl FingerprintWriter {
    fn new() -> Self {
        FingerprintWriter {
            a: 0x6A09_E667_F3BC_C908,
            b: 0xBB67_AE85_84CA_A73B,
            buf: [0; 8],
            filled: 0,
        }
    }

    #[inline]
    fn put_word(&mut self, word: u64) {
        self.a = (self.a ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        self.b = (self.b ^ word.rotate_left(31)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    }

    fn finish(mut self) -> u128 {
        if self.filled > 0 {
            let mut w = [0u8; 8];
            w[..self.filled].copy_from_slice(&self.buf[..self.filled]);
            let word = u64::from_le_bytes(w) ^ (self.filled as u64) << 56;
            self.put_word(word);
        }
        ((self.a as u128) << 64) | self.b as u128
    }
}

impl std::fmt::Write for FingerprintWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &byte in s.as_bytes() {
            self.buf[self.filled] = byte;
            self.filled += 1;
            if self.filled == 8 {
                let word = u64::from_le_bytes(self.buf) ^ 8u64 << 56;
                self.put_word(word);
                self.filled = 0;
            }
        }
        Ok(())
    }
}

/// Digest of a string (the streaming writer fed in one piece) — the test
/// anchor for [`fingerprint_outcome`]'s streamed equivalent.
#[cfg(test)]
fn fingerprint128(s: &str) -> u128 {
    use std::fmt::Write;
    let mut w = FingerprintWriter::new();
    w.write_str(s).expect("fingerprint sink never fails");
    w.finish()
}

/// Digest of an outcome's `Debug` rendering, streamed — no `String` is
/// built. Equal renderings produce equal digests ([`fingerprint128`] of the
/// materialized string agrees byte for byte, pinned by a unit test).
fn fingerprint_outcome<O: std::fmt::Debug>(outcome: &Outcome<O>) -> u128 {
    let mut w = FingerprintWriter::new();
    std::fmt::write(&mut w, format_args!("{outcome:?}")).expect("fingerprint sink never fails");
    w.finish()
}

/// Per-batch statistics — the monoid element merged by `wb_par`'s batched
/// reduction. Every field's merge is commutative and associative, which is
/// what makes the campaign report independent of sharding.
struct BatchStats {
    passed: u64,
    failed: u64,
    deadlocks: u64,
    fingerprints: HashSet<u128>,
    /// `None` = the distinct-outcome set overflowed the cap somewhere below
    /// this node of the merge tree (final value: `None` iff the campaign's
    /// total distinct count exceeds the cap — order-insensitive because
    /// every partial union is a subset of the total).
    outcomes: Option<BTreeSet<String>>,
    /// Failing witnesses, sorted by trial index, at most `witness_cap`.
    witnesses: Vec<TrialFailure>,
}

impl BatchStats {
    fn identity() -> Self {
        BatchStats {
            passed: 0,
            failed: 0,
            deadlocks: 0,
            fingerprints: HashSet::new(),
            outcomes: Some(BTreeSet::new()),
            witnesses: Vec::new(),
        }
    }

    /// Fold one trial into the batch. `outcome`/`schedule` are the trial's
    /// terminal outcome and executed write order, as [`drive_trials`]
    /// hands them over for either tier.
    #[allow(clippy::too_many_arguments)]
    fn record<O: std::fmt::Debug>(
        &mut self,
        trial: u64,
        seed: u64,
        outcome: Outcome<O>,
        schedule: Vec<NodeId>,
        died: Vec<NodeId>,
        pass: bool,
        config: &CampaignConfig,
    ) {
        if matches!(outcome, Outcome::Deadlock { .. }) {
            self.deadlocks += 1;
        }
        let new_outcome = self.fingerprints.insert(fingerprint_outcome(&outcome));
        // Trials run in ascending order within a batch, so the first
        // `witness_cap` failures are the batch's smallest trial indices.
        let want_witness = !pass && self.witnesses.len() < config.witness_cap;
        // The `Debug` rendering is materialized only when something consumes
        // it — a first-in-batch outcome (outcome-set entry) or a kept
        // witness. The common case (passing trial, outcome seen before) pays
        // only the streamed fingerprint, no `String`.
        let mut rendering = (new_outcome || want_witness).then(|| format!("{outcome:?}"));
        if pass {
            self.passed += 1;
        } else {
            self.failed += 1;
            if want_witness {
                let outcome = if new_outcome {
                    rendering.clone().expect("materialized above")
                } else {
                    rendering.take().expect("materialized above")
                };
                self.witnesses.push(TrialFailure {
                    trial,
                    seed,
                    schedule,
                    died,
                    outcome,
                });
            }
        }
        if new_outcome {
            if let Some(set) = &mut self.outcomes {
                set.insert(rendering.expect("materialized above"));
                if set.len() > config.outcome_cap {
                    self.outcomes = None;
                }
            }
        }
    }

    fn merge(mut self, mut other: BatchStats, config: &CampaignConfig) -> BatchStats {
        self.passed += other.passed;
        self.failed += other.failed;
        self.deadlocks += other.deadlocks;
        if self.fingerprints.len() < other.fingerprints.len() {
            std::mem::swap(&mut self.fingerprints, &mut other.fingerprints);
        }
        self.fingerprints.extend(other.fingerprints);
        self.outcomes = match (self.outcomes.take(), other.outcomes.take()) {
            (Some(mut a), Some(b)) => {
                a.extend(b);
                if a.len() > config.outcome_cap {
                    None
                } else {
                    Some(a)
                }
            }
            _ => None,
        };
        self.witnesses.append(&mut other.witnesses);
        self.witnesses.sort_by_key(|w| w.trial);
        self.witnesses.truncate(config.witness_cap);
        self
    }
}

/// Run `config.trials` independent schedule trials of `protocol` on `g`,
/// classifying each terminal outcome with `check` (`true` = pass), and
/// aggregate into a [`CampaignReport`].
///
/// Trials are sharded into batches of `config.batch` across the `wb_par`
/// pool; each worker clones a per-batch template engine per trial (one
/// allocation-light `memcpy`-style clone instead of re-deriving local views)
/// and drives it with a reused active-set buffer, so the per-trial overhead
/// beyond the protocol's own work is minimal.
///
/// ```
/// use wb_sim::{run_campaign, CampaignConfig, CampaignLabels};
/// use wb_core::MisGreedy;
/// use wb_graph::{checks, generators};
/// use wb_runtime::Outcome;
///
/// let g = generators::path(6);
/// let config = CampaignConfig::default().with_trials(500).with_seed(7);
/// let report = run_campaign(
///     &MisGreedy::new(1),
///     &g,
///     &config,
///     &CampaignLabels::default(),
///     |o| matches!(o, Outcome::Success(s) if checks::is_rooted_mis(&g, s, 1)),
/// );
/// assert_eq!(report.verdict(), "PASS");           // Theorem 5 holds per trial
/// assert_eq!(report.passed, 500);
/// assert!(report.distinct_outcomes >= 2);         // MIS is schedule-dependent
/// ```
pub fn run_campaign<P, C>(
    protocol: &P,
    g: &Graph,
    config: &CampaignConfig,
    labels: &CampaignLabels,
    check: C,
) -> CampaignReport
where
    P: Protocol + Sync,
    P::Output: std::fmt::Debug,
    C: Fn(&Outcome<P::Output>) -> bool + Sync,
{
    run_campaign_with(protocol, g, config, labels, move |o, _| check(o))
}

/// Like [`run_campaign`], but the classifier also sees the trial's dead-node
/// list (schedule order) — the fault-aware form the registry's degraded
/// oracles bind to. With [`CampaignConfig::faults`] unset the slice is
/// always empty and the report is byte-identical to [`run_campaign`]'s.
pub fn run_campaign_with<P, C>(
    protocol: &P,
    g: &Graph,
    config: &CampaignConfig,
    labels: &CampaignLabels,
    check: C,
) -> CampaignReport
where
    P: Protocol + Sync,
    P::Output: std::fmt::Debug,
    C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool + Sync,
{
    let plan = config.live_faults();
    drive_trials(
        g,
        config,
        labels,
        || (Engine::new(protocol, g), Vec::with_capacity(g.n())),
        |(template, active), seed| {
            let mut adv = config.sampler.adversary(g.n(), seed);
            let mut faults = TrialFaults::draw(plan, g.n(), seed);
            let mut engine = template.clone();
            let report = loop {
                engine.activation_phase();
                engine.active_set_into(active);
                if active.is_empty() {
                    break engine.finish();
                }
                let pick = adv.pick(active, engine.board());
                if faults.kills(pick) {
                    engine.step_crash(pick);
                } else {
                    engine.step(pick);
                }
            };
            (report.outcome, report.write_order, report.crashed)
        },
        check,
    )
}

/// Like [`run_campaign`], but every trial executes on the **bulk tier**
/// ([`wb_runtime::bulk`]): trial `t` bulk-runs the whole-schedule
/// permutation [`SamplerKind::permutation`]`(n, trial_seed(seed, t))` under
/// `target` — `None` for the protocol's native simultaneous model, or any
/// model that includes it (`Some(Model::Sync)` / `Some(Model::Async)` for
/// the free-order executions; demotions are refused up front via
/// [`bulk_model`], before any trial runs).
///
/// The determinism contract of [`run_campaign`] carries over verbatim — the
/// report is a pure function of `(protocol, g, config, target)`, identical
/// for any batch size or thread count. The crashy sampler is refused (it is
/// adaptive and has no whole-schedule form).
///
/// For the **priority** sampler, bulk trials replay the step tier's trials
/// *exactly* (same seeded permutation per trial), so on simultaneous
/// protocols the two tiers produce byte-identical reports — a cross-tier
/// invariant pinned by a unit test here.
///
/// ```
/// use wb_sim::{run_bulk_campaign, CampaignConfig, CampaignLabels, SamplerKind};
/// use wb_core::MisGreedy;
/// use wb_graph::{checks, generators};
/// use wb_runtime::Outcome;
///
/// let g = generators::gnp(200, 0.02, &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1));
/// let config = CampaignConfig::default().with_trials(200).with_seed(9);
/// let report = run_bulk_campaign(
///     &MisGreedy::new(1),
///     &g,
///     &config,
///     &CampaignLabels::default(),
///     None,
///     |o| matches!(o, Outcome::Success(s) if checks::is_rooted_mis(&g, s, 1)),
/// ).unwrap();
/// assert_eq!(report.verdict(), "PASS");
/// assert_eq!(report.trials, 200);
/// ```
pub fn run_bulk_campaign<P, C>(
    protocol: &P,
    g: &Graph,
    config: &CampaignConfig,
    labels: &CampaignLabels,
    target: Option<Model>,
    check: C,
) -> Result<CampaignReport, String>
where
    P: BulkProtocol + Sync,
    P::Output: std::fmt::Debug,
    C: Fn(&Outcome<P::Output>) -> bool + Sync,
{
    run_bulk_campaign_with(protocol, g, config, labels, target, move |o, _| check(o))
}

/// The fault-aware form of [`run_bulk_campaign`] (see [`run_campaign_with`]).
/// Crash-stop trials draw the same per-trial victim sets as the step tier
/// and mask them columnarly via [`run_bulk_crashed`], so the cross-tier
/// byte-identity for the priority sampler survives fault injection. Lossy
/// plans are refused: the lossy adversary decides write by write with full
/// board view, which has no whole-schedule columnar form.
pub fn run_bulk_campaign_with<P, C>(
    protocol: &P,
    g: &Graph,
    config: &CampaignConfig,
    labels: &CampaignLabels,
    target: Option<Model>,
    check: C,
) -> Result<CampaignReport, String>
where
    P: BulkProtocol + Sync,
    P::Output: std::fmt::Debug,
    C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool + Sync,
{
    // Surface an unusable sampler or an unsupported model before spawning
    // any worker — the trial loop may then unwrap unconditionally.
    config.sampler.permutation(g.n(), 0)?;
    bulk_model(protocol.model(), target).map_err(|e| e.to_string())?;
    let plan = config.live_faults();
    if plan.is_some_and(|p| p.kind() == FaultKind::Lossy) {
        return Err(
            "the bulk tier executes crash-stop fault plans only: lossy suppression is an \
             adaptive mid-run adversary (use `run` or `campaign` on the step tier for lossy:f)"
                .into(),
        );
    }
    let bulk_config = BulkConfig::default();
    Ok(drive_trials(
        g,
        config,
        labels,
        || (),
        |(), seed| {
            let schedule = config
                .sampler
                .permutation(g.n(), seed)
                .expect("checked before sharding");
            let report = if plan.is_some() {
                let victims = TrialFaults::draw(plan, g.n(), seed).victims();
                run_bulk_crashed(protocol, g, &schedule, target, &bulk_config, &victims)
            } else {
                run_bulk(protocol, g, &schedule, target, &bulk_config)
            }
            .expect("bulk model pre-validated");
            // The *executed* write order is the replayable witness: it
            // equals the sampled permutation under simultaneous and SYNC
            // targets, but the ASYNC activation chain runs in ID order
            // regardless of the draw.
            (report.outcome, report.write_order, report.crashed)
        },
        check,
    ))
}

/// The trial loop both tiers share: shard `config.trials` into `wb_par`
/// batches, build each batch's scratch state with `setup` (the step tier's
/// template engine and active-set buffer), run trial `t` as
/// `trial(&mut scratch, trial_seed(config.seed, t))` — which returns the
/// terminal outcome, the executed write order and the crashed set — classify
/// it with `check`, and fold everything into one [`CampaignReport`].
fn drive_trials<O, S, B, T, C>(
    g: &Graph,
    config: &CampaignConfig,
    labels: &CampaignLabels,
    setup: B,
    trial: T,
    check: C,
) -> CampaignReport
where
    O: std::fmt::Debug,
    B: Fn() -> S + Sync,
    T: Fn(&mut S, u64) -> (Outcome<O>, Vec<NodeId>, Vec<NodeId>) + Sync,
    C: Fn(&Outcome<O>, &[NodeId]) -> bool + Sync,
{
    let stats = wb_par::par_batch_reduce(
        config.trials as usize,
        config.batch.max(1),
        |range| {
            let mut scratch = setup();
            let mut stats = BatchStats::identity();
            for t in range {
                let index = t as u64;
                let seed = trial_seed(config.seed, index);
                let (outcome, schedule, died) = trial(&mut scratch, seed);
                let pass = check(&outcome, &died);
                stats.record(index, seed, outcome, schedule, died, pass, config);
            }
            stats
        },
        BatchStats::identity,
        |a, b| a.merge(b, config),
    );
    CampaignReport {
        protocol: labels.protocol.clone(),
        model: labels.model.clone(),
        family: labels.family.clone(),
        n: g.n(),
        trials: config.trials,
        seed: config.seed,
        sampler: config.sampler.name(),
        passed: stats.passed,
        failed: stats.failed,
        deadlocks: stats.deadlocks,
        distinct_outcomes: stats.fingerprints.len() as u64,
        outcome_set: stats.outcomes.map(|set| set.into_iter().collect()),
        witnesses: stats.witnesses,
        faults: config.live_faults().map(|p| p.spec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::{AsyncBipartiteBfs, MisGreedy, TwoCliques};
    use wb_graph::{checks, generators};
    use wb_runtime::{run, ScheduleAdversary};

    fn mis_labels() -> CampaignLabels {
        CampaignLabels {
            protocol: "mis:1".into(),
            model: "SIMSYNC".into(),
            family: "path".into(),
        }
    }

    #[test]
    fn campaign_counts_are_consistent() {
        let g = generators::path(5);
        let config = CampaignConfig::default().with_trials(2_000).with_seed(7);
        let report = run_campaign(
            &MisGreedy::new(1),
            &g,
            &config,
            &mis_labels(),
            |o| matches!(o, Outcome::Success(s) if checks::is_rooted_mis(&g, s, 1)),
        );
        assert_eq!(report.passed + report.failed, report.trials);
        assert_eq!(report.failed, 0, "MIS oracle holds on every schedule");
        assert_eq!(report.deadlocks, 0);
        assert_eq!(report.verdict(), "PASS");
        let set = report.outcome_set.as_ref().expect("small instance");
        assert_eq!(set.len() as u64, report.distinct_outcomes);
        assert!(report.distinct_outcomes >= 2, "MIS is schedule-dependent");
    }

    #[test]
    fn campaign_report_is_batch_and_thread_insensitive() {
        let g = generators::path(5);
        let base = CampaignConfig::default().with_trials(1_500).with_seed(42);
        let render = |config: &CampaignConfig| {
            run_campaign(&MisGreedy::new(1), &g, config, &mis_labels(), |_| true)
                .to_json()
                .to_string()
        };
        // Batch = trials forces the sequential path; small batches exercise
        // the parallel merge in arbitrary completion order.
        let sequential = render(&base.clone().with_batch(1_500));
        for batch in [1usize, 13, 64, 500] {
            assert_eq!(render(&base.clone().with_batch(batch)), sequential);
        }
    }

    #[test]
    fn failing_campaigns_record_replayable_witnesses() {
        // The async (no-d₀) bipartite BFS deadlocks on every schedule of the
        // triangle-with-tail graph (the Open Problem 3 ablation): every
        // trial fails, witnesses must replay to the recorded outcome
        // exactly.
        let g = Graph::from_edges(5, &[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]);
        let config = CampaignConfig::default().with_trials(200).with_seed(3);
        let report = run_campaign(
            &AsyncBipartiteBfs,
            &g,
            &config,
            &CampaignLabels::default(),
            |o| o.is_success(),
        );
        assert_eq!(report.verdict(), "FAIL");
        assert_eq!(report.failed, report.trials);
        assert_eq!(report.deadlocks, report.trials);
        assert!(!report.witnesses.is_empty());
        assert!(report.witnesses.len() <= config.witness_cap);
        // Witnesses are the earliest failing trials, in order.
        assert!(report.witnesses.windows(2).all(|w| w[0].trial < w[1].trial));
        assert_eq!(report.witnesses[0].trial, 0);
        for w in &report.witnesses {
            let replay = run(
                &AsyncBipartiteBfs,
                &g,
                &mut ScheduleAdversary::new(w.schedule.clone()),
            );
            assert_eq!(format!("{:?}", replay.outcome), w.outcome);
        }
    }

    #[test]
    fn outcome_set_overflow_keeps_exact_distinct_count() {
        let g = generators::path(6);
        let mut config = CampaignConfig::default().with_trials(3_000).with_seed(5);
        config.outcome_cap = 2; // force overflow: MIS has > 2 outcomes here
        let report = run_campaign(&MisGreedy::new(1), &g, &config, &mis_labels(), |_| true);
        assert!(report.outcome_set.is_none(), "overflowed the cap");
        assert!(report.distinct_outcomes > 2, "count survives the overflow");
        // And the overflow decision is sharding-insensitive too.
        let sequential = run_campaign(
            &MisGreedy::new(1),
            &g,
            &config.clone().with_batch(3_000),
            &mis_labels(),
            |_| true,
        );
        assert_eq!(
            sequential.to_json().to_string(),
            report.to_json().to_string()
        );
    }

    #[test]
    fn samplers_change_the_empirical_distribution_not_the_support() {
        let g = generators::path(5);
        let outcomes = |sampler: SamplerKind| {
            let config = CampaignConfig::default()
                .with_trials(4_000)
                .with_seed(11)
                .with_sampler(sampler);
            run_campaign(&MisGreedy::new(1), &g, &config, &mis_labels(), |_| true)
                .outcome_set
                .expect("small instance")
        };
        let uniform = outcomes(SamplerKind::Uniform);
        let crashy = outcomes(SamplerKind::Crashy);
        let priority = outcomes(SamplerKind::Priority);
        // On a 5-path with 4k trials every sampler saturates the (tiny)
        // reachable outcome set — crashy included, because it keeps full
        // support.
        assert_eq!(uniform, crashy);
        assert_eq!(uniform, priority);
    }

    #[test]
    fn streamed_outcome_fingerprint_matches_string_fingerprint() {
        // The hot path streams the Debug rendering into the mixers without a
        // String; the digest must equal the one computed from the
        // materialized rendering, including across the 8-byte word boundary.
        let outcomes: Vec<Outcome<Vec<u32>>> = vec![
            Outcome::Success(vec![]),
            Outcome::Success(vec![1]),
            Outcome::Success((1..40).collect()),
            Outcome::Deadlock { awake: vec![2, 5] },
        ];
        for o in &outcomes {
            assert_eq!(
                fingerprint_outcome(o),
                fingerprint128(&format!("{o:?}")),
                "{o:?}"
            );
        }
    }

    #[test]
    fn bulk_priority_campaign_replays_step_campaign_byte_for_byte() {
        // Under a simultaneous model the priority sampler's trial IS a
        // seeded permutation, and the bulk tier draws the identical one —
        // so the two engines must produce byte-identical campaign reports.
        let g = generators::gnp(
            30,
            0.15,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2),
        );
        let config = CampaignConfig::default()
            .with_trials(400)
            .with_seed(13)
            .with_sampler(SamplerKind::Priority);
        let labels = mis_labels();
        let check = |o: &Outcome<Vec<wb_graph::NodeId>>| matches!(o, Outcome::Success(s) if checks::is_rooted_mis(&g, s, 1));
        let step = run_campaign(&MisGreedy::new(1), &g, &config, &labels, check);
        let bulk =
            run_bulk_campaign(&MisGreedy::new(1), &g, &config, &labels, None, check).unwrap();
        assert_eq!(
            step.to_json().to_string(),
            bulk.to_json().to_string(),
            "priority trials must replay across tiers"
        );
    }

    #[test]
    fn bulk_campaign_is_batch_insensitive_and_refuses_crashy() {
        let g = generators::two_cliques(8);
        let base = CampaignConfig::default().with_trials(300).with_seed(5);
        let labels = CampaignLabels::default();
        let render = |config: &CampaignConfig| {
            run_bulk_campaign(&TwoCliques, &g, config, &labels, None, |o| {
                matches!(
                    o,
                    Outcome::Success(v) if *v == wb_core::two_cliques::TwoCliquesVerdict::TwoCliques
                )
            })
            .unwrap()
            .to_json()
            .to_string()
        };
        let sequential = render(&base.clone().with_batch(300));
        for batch in [1usize, 7, 64] {
            assert_eq!(render(&base.clone().with_batch(batch)), sequential);
        }
        let crashy = base.clone().with_sampler(SamplerKind::Crashy);
        assert!(
            run_bulk_campaign(&TwoCliques, &g, &crashy, &labels, None, |_| true).is_err(),
            "crashy has no whole-schedule form"
        );
    }

    #[test]
    fn inert_fault_plan_is_byte_identical_to_no_plan() {
        let g = generators::path(5);
        let base = CampaignConfig::default().with_trials(800).with_seed(21);
        let check = |o: &Outcome<Vec<wb_graph::NodeId>>, died: &[NodeId]| {
            died.is_empty() && matches!(o, Outcome::Success(s) if checks::is_rooted_mis(&g, s, 1))
        };
        let none = run_campaign_with(&MisGreedy::new(1), &g, &base, &mis_labels(), check);
        let inert = run_campaign_with(
            &MisGreedy::new(1),
            &g,
            &base.clone().with_faults(Some(FaultPlan::crash_stop(0))),
            &mis_labels(),
            check,
        );
        assert_eq!(none.to_json().to_string(), inert.to_json().to_string());
        assert!(none.faults.is_none());
        assert!(!none.to_json().to_string().contains("\"faults\""));
        assert!(!none.to_json().to_string().contains("\"died\""));
    }

    #[test]
    fn crash_campaign_reports_faults_and_replayable_died_witnesses() {
        let g = generators::path(6);
        let config = CampaignConfig::default()
            .with_trials(600)
            .with_seed(17)
            .with_faults(Some(FaultPlan::crash_stop(2)));
        // Fail any trial that crashed someone, so witnesses carry non-empty
        // died lists we can replay.
        let report =
            run_campaign_with(&MisGreedy::new(1), &g, &config, &mis_labels(), |_, died| {
                died.is_empty()
            });
        assert_eq!(report.faults.as_deref(), Some("crash:2"));
        assert!(report.failed > 0, "crash:2 on 600 trials must hit someone");
        assert!(report.passed > 0, "k = 0 draws keep fault-free trials");
        assert!(!report.witnesses.is_empty());
        for w in &report.witnesses {
            assert!(!w.died.is_empty() && w.died.len() <= 2);
            // died ⊆ schedule, in schedule order.
            let order: Vec<NodeId> = w
                .schedule
                .iter()
                .copied()
                .filter(|v| w.died.contains(v))
                .collect();
            assert_eq!(order, w.died);
            // Replay: crash exactly the recorded picks, expect the outcome.
            let protocol = MisGreedy::new(1);
            let mut engine = Engine::new(&protocol, &g);
            for &v in &w.schedule {
                engine.activation_phase();
                if w.died.contains(&v) {
                    engine.step_crash(v);
                } else {
                    engine.step(v);
                }
            }
            engine.activation_phase();
            let replay = engine.finish();
            assert_eq!(format!("{:?}", replay.outcome), w.outcome);
            assert_eq!(replay.crashed, w.died);
        }
        let json = report.to_json().to_string();
        assert!(json.contains("\"faults\":\"crash:2\""));
        assert!(json.contains("\"died\""));
    }

    #[test]
    fn faulted_campaign_is_batch_insensitive() {
        let g = generators::path(5);
        for plan in [FaultPlan::crash_stop(2), FaultPlan::lossy(2)] {
            let base = CampaignConfig::default()
                .with_trials(900)
                .with_seed(33)
                .with_faults(Some(plan));
            let render = |config: &CampaignConfig| {
                run_campaign_with(&MisGreedy::new(1), &g, config, &mis_labels(), |_, d| {
                    d.is_empty()
                })
                .to_json()
                .to_string()
            };
            let sequential = render(&base.clone().with_batch(900));
            for batch in [1usize, 17, 256] {
                assert_eq!(render(&base.clone().with_batch(batch)), sequential);
            }
        }
    }

    #[test]
    fn lossy_campaign_respects_budget() {
        let g = generators::path(6);
        let config = CampaignConfig::default()
            .with_trials(400)
            .with_seed(9)
            .with_faults(Some(FaultPlan::lossy(1)));
        let report =
            run_campaign_with(&MisGreedy::new(1), &g, &config, &mis_labels(), |_, died| {
                died.is_empty()
            });
        assert_eq!(report.faults.as_deref(), Some("lossy:1"));
        assert!(report.failed > 0, "25% per-write suppression must fire");
        for w in &report.witnesses {
            assert_eq!(w.died.len(), 1, "budget 1 caps suppression");
        }
    }

    #[test]
    fn bulk_crash_campaign_replays_step_campaign_byte_for_byte() {
        // The priority cross-tier identity must survive fault injection:
        // both tiers draw the same victim set per trial, the step engine
        // crashes victims when picked, the bulk engine masks them
        // columnarly.
        let g = generators::gnp(
            25,
            0.2,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(6),
        );
        let config = CampaignConfig::default()
            .with_trials(300)
            .with_seed(29)
            .with_sampler(SamplerKind::Priority)
            .with_faults(Some(FaultPlan::crash_stop(3)));
        let labels = mis_labels();
        let check = |o: &Outcome<Vec<wb_graph::NodeId>>, died: &[NodeId]| {
            died.is_empty() && matches!(o, Outcome::Success(s) if checks::is_rooted_mis(&g, s, 1))
        };
        let step = run_campaign_with(&MisGreedy::new(1), &g, &config, &labels, check);
        let bulk =
            run_bulk_campaign_with(&MisGreedy::new(1), &g, &config, &labels, None, check).unwrap();
        assert_eq!(
            step.to_json().to_string(),
            bulk.to_json().to_string(),
            "crash-faulted priority trials must replay across tiers"
        );
        assert!(
            step.failed > 0,
            "crash:3 must fail some died.is_empty() trials"
        );
    }

    #[test]
    fn bulk_campaign_accepts_free_targets_and_refuses_demotions() {
        let g = generators::gnp(
            20,
            0.2,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4),
        );
        let config = CampaignConfig::default().with_trials(200).with_seed(19);
        let labels = mis_labels();
        let check = |o: &Outcome<Vec<wb_graph::NodeId>>| matches!(o, Outcome::Success(s) if checks::is_rooted_mis(&g, s, 1));
        // SYNC target: same compose-at-write execution per schedule as the
        // native SIMSYNC run, so the whole report is byte-identical.
        let native = run_bulk_campaign(&MisGreedy::new(1), &g, &config, &labels, None, check)
            .expect("native model");
        let sync = run_bulk_campaign(
            &MisGreedy::new(1),
            &g,
            &config,
            &labels,
            Some(Model::Sync),
            check,
        )
        .expect("SYNC includes SIMSYNC");
        assert_eq!(native.to_json().to_string(), sync.to_json().to_string());
        // ASYNC target: the Lemma 4 activation chain executes in ID order
        // regardless of the sampled permutation, so every trial lands on the
        // one chain outcome.
        let r#async = run_bulk_campaign(
            &MisGreedy::new(1),
            &g,
            &config,
            &labels,
            Some(Model::Async),
            check,
        )
        .expect("ASYNC includes SIMSYNC");
        assert_eq!(r#async.verdict(), "PASS");
        assert_eq!(r#async.distinct_outcomes, 1);
        // Demotion is refused before any trial runs, with the structured
        // message from the runtime.
        let err = run_bulk_campaign(
            &MisGreedy::new(1),
            &g,
            &config,
            &labels,
            Some(Model::SimAsync),
            check,
        )
        .unwrap_err();
        assert!(err.contains("cannot demote SIMSYNC"), "{err}");
    }

    #[test]
    fn bulk_campaign_refuses_lossy_plans() {
        let g = generators::two_cliques(6);
        let config = CampaignConfig::default()
            .with_trials(10)
            .with_faults(Some(FaultPlan::lossy(1)));
        let err = run_bulk_campaign_with(
            &TwoCliques,
            &g,
            &config,
            &CampaignLabels::default(),
            None,
            |_, _| true,
        )
        .unwrap_err();
        assert!(err.contains("crash-stop"), "{err}");
        assert!(err.contains("lossy"), "{err}");
    }

    #[test]
    fn fingerprint128_separates_close_strings() {
        assert_ne!(fingerprint128("a"), fingerprint128("b"));
        assert_ne!(fingerprint128(""), fingerprint128("\0"));
        assert_ne!(
            fingerprint128("Success([1, 2])"),
            fingerprint128("Success([1, 2] )")
        );
        assert_eq!(fingerprint128("xyz"), fingerprint128("xyz"));
    }
}
