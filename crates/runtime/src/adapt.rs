//! Lemma 4 as executable code: the inclusion
//! `PSIMASYNC[f] ⊆ PSIMSYNC[f] ⊆ PASYNC[f] ⊆ PSYNC[f]`.
//!
//! [`Promote`] wraps a protocol designed for a weaker model so that it runs in
//! a stronger one, preserving its outputs, with exactly the paper's
//! constructions:
//!
//! - `SIMASYNC → *`: "nodes create their message initially, ignoring the
//!   messages present on the whiteboard" — the wrapper composes the inner
//!   message at spawn and replays it whenever asked.
//! - `SIMSYNC → ASYNC`: "fix an order (for instance v₁…v_n) and use this order
//!   for a sequential activation" — node `v_i` activates exactly when `i−1`
//!   messages are on the board, so its frozen message equals the message the
//!   SIMSYNC protocol would compose under the identity write order.
//! - `SIMSYNC → SYNC`: activate immediately, compose at write time (the two
//!   engines then coincide).
//! - `ASYNC → SYNC`: "force the protocols in SYNC to create their messages
//!   based only on what was known when they became active" — the wrapper
//!   caches the inner message at activation and replays it at write time.

use crate::model::Model;
use crate::protocol::{Commutativity, LocalView, Node, Protocol};
use crate::Whiteboard;
use wb_graph::NodeId;
use wb_math::BitVec;

/// A protocol promoted to a stronger model (Lemma 4).
///
/// ```
/// use wb_runtime::adapt::Promote;
/// use wb_runtime::{Model, Protocol};
/// # use wb_runtime::{LocalView, Node, Whiteboard};
/// # use wb_math::BitVec;
/// # #[derive(Clone)] struct N;
/// # impl Node for N {
/// #     fn observe(&mut self, _: &LocalView, _: usize, _: u32, _: &BitVec) {}
/// #     fn compose(&mut self, _: &LocalView) -> BitVec {
/// #         let mut w = wb_math::BitWriter::new(); w.write_bits(1, 1); w.finish()
/// #     }
/// # }
/// # struct P;
/// # impl Protocol for P {
/// #     type Node = N; type Output = usize;
/// #     fn model(&self) -> Model { Model::SimAsync }
/// #     fn budget_bits(&self, _: usize) -> u32 { 1 }
/// #     fn spawn(&self, _: &LocalView) -> N { N }
/// #     fn output(&self, _: usize, b: &Whiteboard) -> usize { b.len() }
/// # }
/// let promoted = Promote::new(P, Model::Sync);
/// assert_eq!(promoted.model(), Model::Sync);        // runs under SYNC rules
/// assert_eq!(promoted.budget_bits(10), P.budget_bits(10)); // same f(n)
/// ```
#[derive(Clone)]
pub struct Promote<P> {
    inner: P,
    target: Model,
}

impl<P: Protocol> Promote<P> {
    /// Wrap `inner` to run under `target`. Panics unless
    /// `target.includes(inner.model())`.
    pub fn new(inner: P, target: Model) -> Self {
        assert!(
            target.includes(inner.model()),
            "cannot demote {} protocol to {target}",
            inner.model()
        );
        Promote { inner, target }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

/// Node wrapper implementing the promotion semantics.
#[derive(Clone)]
pub struct PromotedNode<N> {
    inner: N,
    id: NodeId,
    source: Model,
    target: Model,
    seen: usize,
    cached: Option<BitVec>,
}

impl<N: Node> Node for PromotedNode<N> {
    fn observe(&mut self, view: &LocalView, seq: usize, writer: NodeId, msg: &BitVec) {
        self.seen += 1;
        // A SIMASYNC source never observes (its message is already cached);
        // an ASYNC source stops observing once its message is cached.
        let forward = match self.source {
            Model::SimAsync => false,
            Model::Async => self.cached.is_none(),
            _ => true,
        };
        if forward {
            self.inner.observe(view, seq, writer, msg);
        }
    }

    fn wants_to_activate(&mut self, view: &LocalView) -> bool {
        match (self.source, self.target) {
            // Simultaneous sources: ready from the first round.
            (Model::SimAsync, _) => true,
            // Sequential activation construction of Lemma 4: v_i raises its
            // hand once all of v_1..v_{i-1} have written.
            (Model::SimSync, Model::Async) => self.seen == self.id as usize - 1,
            (Model::SimSync, _) => true,
            // Free sources: forward, caching at the activation instant so a
            // SYNC engine still writes the activation-time message.
            (Model::Async, _) => {
                if self.inner.wants_to_activate(view) {
                    if self.cached.is_none() {
                        self.cached = Some(self.inner.compose(view));
                    }
                    true
                } else {
                    false
                }
            }
            (Model::Sync, _) => self.inner.wants_to_activate(view),
        }
    }

    fn compose(&mut self, view: &LocalView) -> BitVec {
        match self.cached.take() {
            Some(msg) => msg,
            None => self.inner.compose(view),
        }
    }
}

impl<P: Protocol> Protocol for Promote<P> {
    type Node = PromotedNode<P::Node>;
    type Output = P::Output;

    fn model(&self) -> Model {
        self.target
    }

    fn budget_bits(&self, n: usize) -> u32 {
        self.inner.budget_bits(n)
    }

    fn spawn(&self, view: &LocalView) -> Self::Node {
        let source = self.inner.model();
        let mut inner = self.inner.spawn(view);
        // SIMASYNC nodes compose before observing anything; cache now so the
        // stronger engine (which may compose at write time) replays it.
        let cached = if source == Model::SimAsync {
            Some(inner.compose(view))
        } else {
            None
        };
        PromotedNode {
            inner,
            id: view.id,
            source,
            target: self.target,
            seen: 0,
            cached,
        }
    }

    fn output(&self, n: usize, board: &Whiteboard) -> P::Output {
        self.inner.output(n, board)
    }

    fn commutes(&self) -> Commutativity {
        match (self.inner.model(), self.target) {
            // A SIMASYNC source's message is cached at spawn, so the wrapped
            // run depends only on the written set regardless of the target
            // engine's timing.
            (Model::SimAsync, _) => Commutativity::All,
            // The sequential-activation construction counts *all* writes
            // (`seen == id - 1`), so even non-adjacent swaps change
            // activation timing: no commutativity survives promotion.
            (Model::SimSync, Model::Async) => Commutativity::None,
            _ => self.inner.commutes(),
        }
    }

    fn equivariant(&self) -> bool {
        match (self.inner.model(), self.target) {
            // Sequential activation uses the numeric ID as a threshold,
            // which relabeling breaks.
            (Model::SimSync, Model::Async) => false,
            _ => self.inner.equivariant(),
        }
    }

    fn pinned_nodes(&self) -> Vec<NodeId> {
        self.inner.pinned_nodes()
    }

    fn relabel_message(&self, n: usize, msg: &BitVec, perm: &[NodeId]) -> BitVec {
        self.inner.relabel_message(n, msg, perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{MaxIdAdversary, MinIdAdversary, RandomAdversary};
    use crate::engine::toys::*;
    use crate::engine::{run, Outcome};
    use crate::exhaustive::assert_all_schedules;
    use wb_graph::generators;

    #[test]
    fn simasync_promotes_everywhere_with_same_output() {
        let g = generators::gnp(6, 0.5, &mut rand::rngs::mock::StepRng::new(7, 11));
        for target in Model::ALL {
            let p = Promote::new(EchoId, target);
            assert_eq!(p.model(), target);
            for adv_seed in 0..3 {
                let report = run(&p, &g, &mut RandomAdversary::new(adv_seed));
                assert_eq!(
                    report.outcome,
                    Outcome::Success(vec![1, 2, 3, 4, 5, 6]),
                    "{target}"
                );
            }
        }
    }

    #[test]
    fn simsync_to_async_forces_identity_order() {
        let g = generators::path(5);
        let p = Promote::new(SeenCount, Model::Async);
        // The sequential-activation construction leaves the adversary no
        // choice: compare against the native SIMSYNC run under min-ID.
        let native = run(&SeenCount, &g, &mut MinIdAdversary);
        let promoted = run(&p, &g, &mut MaxIdAdversary);
        assert_eq!(promoted.write_order, vec![1, 2, 3, 4, 5]);
        match (&promoted.outcome, &native.outcome) {
            (Outcome::Success(a), Outcome::Success(b)) => assert_eq!(a, b),
            _ => panic!("expected success"),
        }
    }

    #[test]
    fn simsync_to_sync_is_transparent() {
        let g = generators::path(4);
        let p = Promote::new(SeenCount, Model::Sync);
        let a = run(&p, &g, &mut MinIdAdversary);
        let b = run(&SeenCount, &g, &mut MinIdAdversary);
        match (a.outcome, b.outcome) {
            (Outcome::Success(x), Outcome::Success(y)) => assert_eq!(x, y),
            _ => panic!("expected success"),
        }
    }

    #[test]
    fn async_to_sync_preserves_frozen_semantics() {
        let g = generators::path(4);
        let p = Promote::new(FrozenSeenCount, Model::Sync);
        // Even under a SYNC engine (compose at write time), the promoted
        // protocol must write the activation-time message: seen = 0 for all.
        let report = run(&p, &g, &mut MaxIdAdversary);
        let out = report.outcome.unwrap();
        assert!(out.iter().all(|&(_, seen)| seen == 0), "{out:?}");
    }

    #[test]
    fn chain_promoted_to_itself_is_identity() {
        let g = generators::path(4);
        let p = Promote::new(Chain, Model::Sync);
        let report = run(&p, &g, &mut MaxIdAdversary);
        assert_eq!(report.write_order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn promotion_exhaustive_on_all_schedules() {
        let g = generators::path(4);
        for target in [Model::SimSync, Model::Async, Model::Sync] {
            let p = Promote::new(EchoId, target);
            assert_all_schedules(&p, &g, 100, |out| out == &vec![1, 2, 3, 4]);
        }
    }

    #[test]
    #[should_panic(expected = "cannot demote")]
    fn demotion_is_rejected() {
        Promote::new(Chain, Model::SimAsync);
    }
}
