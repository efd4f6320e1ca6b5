//! The validated-dataset entry point: both streams, one policy, one
//! cross-checked result.

use std::io::BufRead;
use std::path::Path;

use inf2vec_diffusion::Dataset;
use inf2vec_util::error::IngestError;
use inf2vec_util::json;

use crate::actions::ingest_actions;
use crate::edges::ingest_edges;
use crate::idmap::IdMap;
use crate::policy::{IdMode, IngestConfig};
use crate::report::IngestReport;

/// A [`Dataset`] that survived policy-driven ingestion, with the full
/// account of what it took: per-stream quarantine reports and (in `Remap`
/// mode) the external-id tables.
///
/// Construction runs the graph/log cross-validation (dangling users are
/// defects during ingestion, and the final bundle still passes through
/// [`Dataset::try_new`] as a belt-and-braces gate), so holding a
/// `ValidatedDataset` means the invariants every downstream consumer
/// assumes — users inside the graph, episodes sorted and deduplicated —
/// actually hold.
#[derive(Debug, Clone)]
pub struct ValidatedDataset {
    /// The assembled, cross-validated dataset.
    pub dataset: Dataset,
    /// Edge-stream accounting.
    pub edges: IngestReport,
    /// Action-stream accounting (dangling-user defects land here).
    pub actions: IngestReport,
    /// External→dense user ids (`Remap` mode only).
    pub users: Option<IdMap>,
    /// External→dense item ids (`Remap` mode only).
    pub items: Option<IdMap>,
}

impl ValidatedDataset {
    /// Total defects across both streams.
    pub fn total_defects(&self) -> u64 {
        self.edges.total_defects() + self.actions.total_defects()
    }

    /// One JSON object: dataset shape plus both stream reports.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("name", &self.dataset.name)
                .num("nodes", self.dataset.graph.node_count())
                .num("edges", self.dataset.graph.edge_count())
                .num("episodes", self.dataset.log.len())
                .num("actions", self.dataset.log.action_count())
                .obj("edges_report", |o| self.edges.write_json(o))
                .obj("actions_report", |o| self.actions.write_json(o));
        })
    }

    /// Human-readable two-stream summary.
    pub fn summary(&self) -> String {
        format!(
            "{}\n{}\n[ingest] dataset \"{}\": {} nodes, {} edges, {} episodes, {} actions",
            self.edges.summary(),
            self.actions.summary(),
            self.dataset.name,
            self.dataset.graph.node_count(),
            self.dataset.graph.edge_count(),
            self.dataset.log.len(),
            self.dataset.log.action_count(),
        )
    }
}

/// Policy-driven loader for an edge list plus action log.
#[derive(Debug, Clone, Default)]
pub struct Ingestor {
    cfg: IngestConfig,
}

impl Ingestor {
    /// An ingestor with the given configuration.
    pub fn new(cfg: IngestConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.cfg
    }

    /// Ingests both streams and assembles a [`ValidatedDataset`].
    ///
    /// The edge list is ingested first (it defines the id universe), then
    /// the action log is ingested and cross-validated against the graph
    /// record by record. The assembled bundle finally passes through
    /// [`Dataset::try_new`]; a failure there (impossible unless the
    /// ingest invariants are broken) maps to [`IngestError::Invalid`]
    /// rather than a panic.
    pub fn ingest<RE: BufRead, RA: BufRead>(
        &self,
        edges: RE,
        actions: RA,
        name: impl Into<String>,
    ) -> Result<ValidatedDataset, IngestError> {
        let remap = self.cfg.id_mode == IdMode::Remap;
        let mut users = remap.then(IdMap::new);
        let (graph, edges_report) = ingest_edges(edges, &self.cfg, users.as_mut())?;
        let mut items = remap.then(IdMap::new);
        let (log, actions_report) =
            ingest_actions(actions, &self.cfg, &graph, users.as_ref(), items.as_mut())?;
        let dataset = Dataset::try_new(graph, log, name).map_err(|e| IngestError::Invalid {
            message: e.to_string(),
        })?;
        Ok(ValidatedDataset {
            dataset,
            edges: edges_report,
            actions: actions_report,
            users,
            items,
        })
    }

    /// [`ingest`](Self::ingest) over files on disk, buffered.
    pub fn ingest_paths(
        &self,
        edges: &Path,
        actions: &Path,
        name: impl Into<String>,
    ) -> Result<ValidatedDataset, IngestError> {
        let e = std::io::BufReader::new(std::fs::File::open(edges)?);
        let a = std::io::BufReader::new(std::fs::File::open(actions)?);
        self.ingest(e, a, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ErrorPolicy;

    const EDGES: &[u8] = b"# nodes: 4\n0 1\n1 2\n2 3\n";
    const ACTIONS: &[u8] = b"0\t0\t1\n1\t0\t2\n2\t1\t5\n3\t1\t6\n";

    #[test]
    fn clean_ingest_round_trips_through_try_new() {
        let v = Ingestor::default()
            .ingest(EDGES, ACTIONS, "clean")
            .unwrap();
        assert_eq!(v.dataset.graph.node_count(), 4);
        assert_eq!(v.dataset.log.len(), 2);
        assert_eq!(v.total_defects(), 0);
        assert!(v.users.is_none() && v.items.is_none());
        let json = v.to_json();
        assert!(json.contains("\"nodes\":4"), "{json}");
        assert!(json.contains("\"edges_report\""), "{json}");
        assert!(v.summary().contains("2 episodes"));
    }

    #[test]
    fn dirty_ingest_under_skip_yields_same_dataset() {
        let dirty_edges = b"# nodes: 4\n0 1\njunk\n1 2\n2 3\n";
        let dirty_actions = b"0\t0\t1\n1\t0\t2\nnope nope\n2\t1\t5\n9\t9\t9\n3\t1\t6\n";
        let clean = Ingestor::default().ingest(EDGES, ACTIONS, "x").unwrap();
        let dirty = Ingestor::new(IngestConfig {
            policy: ErrorPolicy::skip(10),
            ..IngestConfig::default()
        })
        .ingest(dirty_edges.as_slice(), dirty_actions.as_slice(), "x")
        .unwrap();
        assert_eq!(clean.dataset.graph, dirty.dataset.graph);
        assert_eq!(clean.dataset.log.episodes(), dirty.dataset.log.episodes());
        assert_eq!(dirty.total_defects(), 3);
    }

    #[test]
    fn remap_mode_builds_id_tables() {
        let edges = b"1000 2000\n2000 3000\n";
        let actions = b"1000 77 1\n3000 77 2\n";
        let v = Ingestor::new(IngestConfig {
            id_mode: IdMode::Remap,
            ..IngestConfig::default()
        })
        .ingest(edges.as_slice(), actions.as_slice(), "snap")
        .unwrap();
        assert_eq!(v.dataset.graph.node_count(), 3);
        assert_eq!(v.users.as_ref().unwrap().external(0), Some(1000));
        assert_eq!(v.items.as_ref().unwrap().external(0), Some(77));
        assert_eq!(v.dataset.log.episodes()[0].len(), 2);
    }

    #[test]
    fn ingest_paths_reports_missing_file_as_io() {
        let err = Ingestor::default()
            .ingest_paths(
                Path::new("/nonexistent/edges.txt"),
                Path::new("/nonexistent/actions.txt"),
                "missing",
            )
            .unwrap_err();
        assert!(matches!(err, IngestError::Io(_)));
    }
}
