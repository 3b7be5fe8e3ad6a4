//! Call counters and the forwarding timers that fill them.
//!
//! [`Timed`] wraps a step protocol ([`Protocol`] + [`Node`]) or a bulk
//! protocol ([`BulkProtocol`]) and forwards every trait method to the
//! wrapped value. The callbacks that do protocol work (init/spawn, compose,
//! observe, output) are timed into process-wide counters, read with
//! [`Snapshot::now`]; the rest
//! are forwarded untouched, so the engines see the same protocol. Callbacks
//! run on several threads at once, so times are summed across threads
//! ("busy" time).

use std::ops::Sub;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use wb_graph::{Graph, NodeId};
use wb_math::BitVec;
use wb_runtime::bulk::BulkBoard;
use wb_runtime::{BulkProtocol, Commutativity, LocalView, Model, Node, Protocol, Whiteboard};

/// One callback counter (nanoseconds or calls).
#[derive(Clone, Copy)]
enum Counter {
    InitNs,
    ComposeNs,
    ComposeCalls,
    ObserveNs,
    ObserveCalls,
    ActivateCalls,
    RefereeNs,
    RefereeCalls,
    OracleNs,
    OracleCalls,
}

const N_COUNTERS: usize = 10;

/// Counter shards; each thread adds to its own, so callbacks running on
/// several threads at once do not contend for one cache line.
const SHARDS: usize = 16;

#[repr(align(128))]
struct Shard([AtomicU64; N_COUNTERS]);

static SHARD_TABLE: [Shard; SHARDS] =
    [const { Shard([const { AtomicU64::new(0) }; N_COUNTERS]) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: &'static Shard = &SHARD_TABLE[NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS];
}

fn add(c: Counter, v: u64) {
    MY_SHARD.with(|s| s.0[c as usize].fetch_add(v, Relaxed));
}

/// A reading of the process-wide callback counters, summed over threads;
/// differences of two snapshots give the work done between them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `BulkProtocol::init` / `Protocol::spawn` busy nanoseconds.
    pub init_ns: u64,
    /// `compose` busy nanoseconds.
    pub compose_ns: u64,
    /// `compose` calls.
    pub compose_calls: u64,
    /// `observe` busy nanoseconds.
    pub observe_ns: u64,
    /// `observe` calls.
    pub observe_calls: u64,
    /// `Node::wants_to_activate` calls.
    pub activate_calls: u64,
    /// `output` (the referee) busy nanoseconds.
    pub referee_ns: u64,
    /// `output` calls.
    pub referee_calls: u64,
    /// Oracle binding plus oracle-closure busy nanoseconds.
    pub oracle_ns: u64,
    /// Oracle-closure calls.
    pub oracle_calls: u64,
}

impl Snapshot {
    /// Read every counter every [`Timed`] wrapper and [`timed_oracle`] adds
    /// to.
    pub fn now() -> Snapshot {
        let mut sum = [0u64; N_COUNTERS];
        for shard in &SHARD_TABLE {
            for (total, c) in sum.iter_mut().zip(&shard.0) {
                *total += c.load(Relaxed);
            }
        }
        let [init_ns, compose_ns, compose_calls, observe_ns, observe_calls, activate_calls, referee_ns, referee_calls, oracle_ns, oracle_calls] =
            sum;
        Snapshot {
            init_ns,
            compose_ns,
            compose_calls,
            observe_ns,
            observe_calls,
            activate_calls,
            referee_ns,
            referee_calls,
            oracle_ns,
            oracle_calls,
        }
    }

    /// Protocol-callback busy seconds: init + compose + observe + referee.
    pub fn callbacks_s(&self) -> f64 {
        secs(self.init_ns + self.compose_ns + self.observe_ns + self.referee_ns)
    }
}

impl Sub for Snapshot {
    type Output = Snapshot;
    fn sub(self, o: Snapshot) -> Snapshot {
        Snapshot {
            init_ns: self.init_ns - o.init_ns,
            compose_ns: self.compose_ns - o.compose_ns,
            compose_calls: self.compose_calls - o.compose_calls,
            observe_ns: self.observe_ns - o.observe_ns,
            observe_calls: self.observe_calls - o.observe_calls,
            activate_calls: self.activate_calls - o.activate_calls,
            referee_ns: self.referee_ns - o.referee_ns,
            referee_calls: self.referee_calls - o.referee_calls,
            oracle_ns: self.oracle_ns - o.oracle_ns,
            oracle_calls: self.oracle_calls - o.oracle_calls,
        }
    }
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Run `f`, adding its wall time to `ns` and one to `calls`.
fn timed<R>(ns: Counter, calls: Option<Counter>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    add(ns, start.elapsed().as_nanos() as u64);
    if let Some(c) = calls {
        add(c, 1);
    }
    r
}

/// Bind a registry oracle to `g` and return it wrapped so that the binding
/// and every call are timed into the oracle counters.
pub fn timed_oracle<'g, O: 'g>(
    bind: impl FnOnce() -> wb_core::registry::BoundOracle<'g, O>,
) -> impl Fn(&wb_runtime::Outcome<O>, &[NodeId]) -> bool + Send + Sync + 'g {
    let oracle = timed(Counter::OracleNs, None, bind);
    move |out, died| {
        timed(Counter::OracleNs, Some(Counter::OracleCalls), || {
            oracle(out, died)
        })
    }
}

/// A forwarding timer around a step protocol, a step node, or a bulk
/// protocol (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Timed<T>(pub T);

impl<P: Protocol> Protocol for Timed<P> {
    type Node = Timed<P::Node>;
    type Output = P::Output;

    fn model(&self) -> Model {
        self.0.model()
    }

    fn budget_bits(&self, n: usize) -> u32 {
        self.0.budget_bits(n)
    }

    fn spawn(&self, view: &LocalView) -> Timed<P::Node> {
        Timed(timed(Counter::InitNs, None, || self.0.spawn(view)))
    }

    fn output(&self, n: usize, board: &Whiteboard) -> P::Output {
        timed(Counter::RefereeNs, Some(Counter::RefereeCalls), || {
            self.0.output(n, board)
        })
    }

    fn commutes(&self) -> Commutativity {
        self.0.commutes()
    }

    fn equivariant(&self) -> bool {
        self.0.equivariant()
    }

    fn pinned_nodes(&self) -> Vec<NodeId> {
        self.0.pinned_nodes()
    }

    fn relabel_message(&self, n: usize, msg: &BitVec, perm: &[NodeId]) -> BitVec {
        self.0.relabel_message(n, msg, perm)
    }
}

impl<N: Node> Node for Timed<N> {
    fn observe(&mut self, view: &LocalView, seq: usize, writer: NodeId, msg: &BitVec) {
        timed(Counter::ObserveNs, Some(Counter::ObserveCalls), || {
            self.0.observe(view, seq, writer, msg)
        })
    }

    fn wants_to_activate(&mut self, view: &LocalView) -> bool {
        add(Counter::ActivateCalls, 1);
        self.0.wants_to_activate(view)
    }

    fn compose(&mut self, view: &LocalView) -> BitVec {
        timed(Counter::ComposeNs, Some(Counter::ComposeCalls), || {
            self.0.compose(view)
        })
    }
}

impl<P: BulkProtocol> BulkProtocol for Timed<P> {
    type State = P::State;
    type Output = P::Output;

    fn model(&self) -> Model {
        BulkProtocol::model(&self.0)
    }

    fn budget_bits(&self, n: usize) -> u32 {
        BulkProtocol::budget_bits(&self.0, n)
    }

    fn init(&self, g: &Graph) -> P::State {
        timed(Counter::InitNs, None, || self.0.init(g))
    }

    fn compose(&self, state: &P::State, v: NodeId) -> BitVec {
        timed(Counter::ComposeNs, Some(Counter::ComposeCalls), || {
            BulkProtocol::compose(&self.0, state, v)
        })
    }

    fn observe(&self, state: &mut P::State, v: NodeId, msg: &BitVec) {
        timed(Counter::ObserveNs, Some(Counter::ObserveCalls), || {
            BulkProtocol::observe(&self.0, state, v, msg)
        })
    }

    fn output(&self, n: usize, board: &BulkBoard) -> P::Output {
        timed(Counter::RefereeNs, Some(Counter::RefereeCalls), || {
            BulkProtocol::output(&self.0, n, board)
        })
    }
}
