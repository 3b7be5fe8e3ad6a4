//! Registry-driven certificate production: one call from a CLI-style
//! protocol spec to a verified-format [`ExplorationCertificate`].
//!
//! This is the orchestration layer shared by `whiteboard certify`, the
//! `exp_matrix` batch harness, and the integration tests: resolve the spec
//! and the requested model through [`wb_core::registry::dispatch_at`]
//! (which promotes per Lemma 4 and refuses demotions), bind the registry
//! oracle to the instance graph, and run the certifying walk from
//! [`wb_runtime::certificate`]. Keeping it in one place guarantees the
//! producer and the independent verifier (`wb-verify`) resolve specs,
//! models, and oracles identically — any disagreement is then a real bug,
//! not a plumbing skew.

use wb_core::registry::{self, BoundOracle, ProtocolVisitor};
use wb_graph::Graph;
use wb_runtime::certificate::{certify, CertificateScenario, ExplorationCertificate};
use wb_runtime::{ExploreConfig, Model, Protocol};

/// A produced certificate plus the concrete run statistics that survive the
/// generic visitor boundary (protocol outputs are type-erased into the
/// certificate's rendered outcome strings).
#[derive(Clone, Debug)]
pub struct CertifiedRun {
    /// The certificate, ready for [`ExplorationCertificate::to_json_line`].
    pub certificate: ExplorationCertificate,
    /// Distinct configurations in the walk.
    pub distinct_states: u64,
    /// Terminal configurations.
    pub terminals: u64,
    /// Transitions merged into already-seen configurations.
    pub merged: u64,
    /// Terminals the oracle rejected (each carries a witness).
    pub failures: usize,
}

/// Provenance metadata recorded into the certificate (advisory, but
/// digest-protected).
#[derive(Clone, Copy, Debug, Default)]
pub struct Provenance<'a> {
    /// Workload family spec, if the graph came from one.
    pub family: Option<&'a str>,
    /// Workload seed, if the family is seeded.
    pub seed: Option<u64>,
}

struct Certify<'a> {
    spec: &'a str,
    g: &'a Graph,
    provenance: Provenance<'a>,
    config: &'a ExploreConfig,
}

impl ProtocolVisitor for Certify<'_> {
    type Result = Result<CertifiedRun, String>;

    fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
    where
        P: Protocol + Clone + Send + Sync,
        P::Node: Send + Sync,
        P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
    {
        let scenario = CertificateScenario {
            protocol: self.spec,
            family: self.provenance.family,
            seed: self.provenance.seed,
        };
        let certified = certify(&protocol, self.g, &scenario, self.config, bind(self.g))?;
        Ok(CertifiedRun {
            distinct_states: certified.report.distinct_states,
            terminals: certified.report.terminals,
            merged: certified.report.merged,
            failures: certified.report.failures.len(),
            certificate: certified.certificate,
        })
    }
}

/// Certify `spec` on `g`: resolve protocol and oracle in the registry, run
/// the certifying exhaustive walk under `model` (`None` = the protocol's
/// native model), and return the certificate with run statistics.
pub fn certify_spec(
    spec: &str,
    g: &Graph,
    model: Option<Model>,
    provenance: Provenance<'_>,
    config: &ExploreConfig,
) -> Result<CertifiedRun, String> {
    registry::dispatch_at(
        spec,
        g.n(),
        model,
        Certify {
            spec,
            g,
            provenance,
            config,
        },
    )?
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_graph::generators;

    #[test]
    fn certified_line_verifies_independently() {
        let g = generators::path(3);
        let run = certify_spec(
            "mis:1",
            &g,
            None,
            Provenance::default(),
            &ExploreConfig::default(),
        )
        .unwrap();
        let line = run.certificate.to_json_line();
        let summary = wb_verify::verify_line(&line).expect("fresh certificate must verify");
        assert_eq!(summary.states, run.distinct_states);
        assert_eq!(summary.terminals as u64, run.terminals);
        assert_eq!(summary.failures, run.failures);
    }

    #[test]
    fn promoted_certificate_records_target_model() {
        let g = generators::cycle(3);
        let run = certify_spec(
            "mis:1",
            &g,
            Some(Model::Sync),
            Provenance::default(),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert_eq!(run.certificate.model, Model::Sync);
        wb_verify::verify_line(&run.certificate.to_json_line())
            .expect("promoted certificate must verify");
    }

    #[test]
    fn witness_bearing_certificate_verifies() {
        // async-bipartite-bfs deadlocks off the bipartite promise (a
        // triangle with a tail): the certificate must carry witnesses and
        // still verify.
        let g = Graph::from_edges(5, &[(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]);
        let run = certify_spec(
            "async-bipartite-bfs",
            &g,
            None,
            Provenance::default(),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert!(
            run.failures > 0,
            "triangle-with-tail must produce failing terminals"
        );
        assert!(!run.certificate.witnesses.is_empty());
        wb_verify::verify_line(&run.certificate.to_json_line())
            .expect("witness-bearing certificate must verify");
    }

    #[test]
    fn demotion_is_refused() {
        let g = generators::path(3);
        let err = certify_spec(
            "bfs", // native SYNC
            &g,
            Some(Model::SimAsync),
            Provenance::default(),
            &ExploreConfig::default(),
        )
        .err()
        .expect("demotion must be refused");
        assert!(err.contains("demote"), "{err}");
    }
}
