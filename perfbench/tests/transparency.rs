//! The timers must be invisible: every trait method forwards to the wrapped
//! protocol, and the traced copy of `run_job` renders byte-identical
//! reports. A missed forward of `commutes`, `equivariant`, `pinned_nodes`
//! or `relabel_message` would silently disarm DPOR or the symmetry
//! quotient, so those are checked one by one against a protocol whose
//! answers all differ from the trait defaults.

use wb_graph::{generators, Graph, NodeId};
use wb_math::{BitVec, BitWriter};
use wb_perfbench::layers::{Snapshot, Timed};
use wb_perfbench::traced::run_job_traced;
use wb_perfbench::workloads::{smoke, Step, ALL};
use wb_runtime::bulk::{run_bulk, shuffled_schedule, BulkBoard, BulkConfig};
use wb_runtime::{BulkProtocol, Commutativity, LocalView, Model, Node, Protocol, Whiteboard};
use wb_serve::jobs::run_job;

fn bits(value: u64, width: u32) -> BitVec {
    let mut w = BitWriter::new();
    w.write_bits(value, width);
    w.finish()
}

/// A protocol whose every optional method answers something other than the
/// trait default.
#[derive(Clone, Debug, PartialEq)]
struct Probe;

#[derive(Clone, Debug, PartialEq)]
struct ProbeNode {
    seen: Vec<(usize, NodeId, BitVec)>,
    polls: u32,
}

impl Node for ProbeNode {
    fn observe(&mut self, _: &LocalView, seq: usize, writer: NodeId, msg: &BitVec) {
        self.seen.push((seq, writer, msg.clone()));
    }

    fn wants_to_activate(&mut self, _: &LocalView) -> bool {
        self.polls += 1;
        self.polls > 1
    }

    fn compose(&mut self, view: &LocalView) -> BitVec {
        bits(view.id as u64 * 3 + self.seen.len() as u64, 9)
    }
}

impl Protocol for Probe {
    type Node = ProbeNode;
    type Output = usize;

    fn model(&self) -> Model {
        Model::Async
    }

    fn budget_bits(&self, n: usize) -> u32 {
        n as u32 + 5
    }

    fn spawn(&self, view: &LocalView) -> ProbeNode {
        ProbeNode {
            seen: vec![(0, view.id, bits(1, 1))],
            polls: 0,
        }
    }

    fn output(&self, n: usize, board: &Whiteboard) -> usize {
        n * 1000 + board.total_bits()
    }

    fn commutes(&self) -> Commutativity {
        Commutativity::NonAdjacent
    }

    fn equivariant(&self) -> bool {
        true
    }

    fn pinned_nodes(&self) -> Vec<NodeId> {
        vec![2, 5]
    }

    fn relabel_message(&self, n: usize, msg: &BitVec, perm: &[NodeId]) -> BitVec {
        bits(msg.get_bits(0, 9) ^ (n as u64 + perm[0] as u64), 9)
    }
}

#[test]
fn step_wrapper_forwards_every_method() {
    let (p, t) = (Probe, Timed(Probe));
    assert_eq!(t.model(), p.model());
    assert_eq!(t.budget_bits(7), p.budget_bits(7));
    assert_eq!(t.commutes(), p.commutes());
    assert_eq!(t.equivariant(), p.equivariant());
    assert_eq!(t.pinned_nodes(), p.pinned_nodes());
    let msg = bits(0b1_0110_1101, 9);
    assert_eq!(
        t.relabel_message(6, &msg, &[3, 1, 2]),
        p.relabel_message(6, &msg, &[3, 1, 2])
    );
    let before = Snapshot::now();
    let board = Whiteboard::from_messages([(1, bits(5, 4)), (3, bits(2, 7))]);
    assert_eq!(t.output(4, &board), p.output(4, &board));
    let view = &LocalView::all_of(&generators::path(4))[1];
    let (mut plain, mut timed) = (p.spawn(view), t.spawn(view));
    assert_eq!(timed.0, plain);
    for seq in 0..3 {
        plain.observe(view, seq, 3, &msg);
        timed.observe(view, seq, 3, &msg);
        assert_eq!(timed.wants_to_activate(view), plain.wants_to_activate(view));
    }
    assert_eq!(timed.compose(view), plain.compose(view));
    assert_eq!(timed.0, plain);
    let moved = Snapshot::now() - before;
    assert!(moved.observe_calls >= 3 && moved.compose_calls >= 1);
    assert!(moved.activate_calls >= 3 && moved.referee_calls >= 1);
}

/// A columnar protocol with an observation-dependent compose.
struct BulkProbe;

impl BulkProtocol for BulkProbe {
    type State = Vec<u64>;
    type Output = u64;

    fn model(&self) -> Model {
        Model::SimSync
    }

    fn budget_bits(&self, n: usize) -> u32 {
        n as u32 + 3
    }

    fn init(&self, g: &Graph) -> Vec<u64> {
        g.nodes().map(|v| g.neighbors(v).len() as u64).collect()
    }

    fn compose(&self, state: &Vec<u64>, v: NodeId) -> BitVec {
        bits(state[v as usize - 1] % 512, 9)
    }

    fn observe(&self, state: &mut Vec<u64>, v: NodeId, msg: &BitVec) {
        for s in state.iter_mut() {
            *s = s
                .wrapping_mul(31)
                .wrapping_add(msg.get_bits(0, 9) + v as u64);
        }
    }

    fn output(&self, n: usize, board: &BulkBoard) -> u64 {
        (n * 7 + board.total_bits()) as u64
    }
}

#[test]
fn bulk_wrapper_forwards_every_method() {
    let (p, t) = (BulkProbe, Timed(BulkProbe));
    assert_eq!(BulkProtocol::model(&t), BulkProtocol::model(&p));
    assert_eq!(
        BulkProtocol::budget_bits(&t, 9),
        BulkProtocol::budget_bits(&p, 9)
    );
    let g = generators::cycle(40);
    let schedule = shuffled_schedule(g.n(), 3);
    for target in [None, Some(Model::Sync)] {
        let config = BulkConfig::default().with_batch(8);
        let a = run_bulk(&p, &g, &schedule, target, &config).unwrap();
        let before = Snapshot::now();
        let b = run_bulk(&t, &g, &schedule, target, &config).unwrap();
        let moved = Snapshot::now() - before;
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.write_order, b.write_order);
        assert_eq!(
            (a.rounds, a.total_bits(), a.max_message_bits()),
            (b.rounds, b.total_bits(), b.max_message_bits())
        );
        assert!(moved.compose_calls >= 40 && moved.observe_calls >= 40);
        assert!(moved.referee_calls >= 1);
    }
}

#[test]
fn traced_reports_equal_run_job_for_every_workload() {
    for w in ALL {
        for step in w.steps(11, true) {
            let Step::Job { spec, .. } = step else {
                continue;
            };
            let plain = run_job(&spec).unwrap();
            let (report, line, trace) = run_job_traced(&spec).unwrap();
            assert_eq!(line, plain.line(), "{} {spec:?}", w.name());
            assert_eq!(report, plain);
            if spec.reduction != "off" {
                // The reduced report carries reduction_stats; both reductions
                // must actually arm through the wrapper.
                assert!(line.contains("\"dpor_active\":true"), "{line}");
                assert!(line.contains("\"symmetry_active\":true"), "{line}");
            }
            assert!(trace.total_s >= trace.tier_s && trace.tier_s > 0.0);
        }
    }
}

#[test]
fn smoke_passes_on_every_workload() {
    for w in ALL {
        let pass = smoke(w, 2);
        assert!(pass.errors.is_empty(), "{}: {:?}", w.name(), pass.errors);
        assert!(pass.attempted > 0);
    }
}
