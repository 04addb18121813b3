//! The one request executor: [`execute`] turns a canonical
//! [`AnalysisRequest`] into an [`AnalysisResponse`].
//!
//! Every front end — the `wl` CLI subcommands, `wl-serve`'s endpoint
//! handlers — goes through this function, so "the CLI and the server agree
//! byte-for-byte" holds by construction: both serialize the same
//! [`AnalysisResponse`] value. Responses are pure functions of the
//! canonical request (timings and timestamps travel out of band in
//! [`ExecOutcome::reports`]), which is what makes `wl-serve`'s result
//! cache sound.
//!
//! Deadlines: an [`ExecConfig::deadline`] is enforced *between* pipeline
//! stages — each Co-plot stage is wrapped in a gate that refuses to start
//! past the deadline with [`CoplotError::DeadlineExceeded`]. A stage that
//! has started always runs to completion, so a request that finishes
//! returns exactly what it would have returned without a deadline.

use std::sync::Arc;
use std::time::Instant;

use coplot::engine::{
    ArrowFitter, DissimilarityStage, Embedder, MetricDissimilarity, NonmetricMdsEmbedder,
    Normalizer, OlsArrowFitter, PairContributions, ZScoreNormalizer,
};
use coplot::{
    AnalysisRequest, AnalysisResponse, ApiError, CoplotEngine, CoplotError, CoplotOut,
    DataMatrix, DatasetSpec, DissimilarityMatrix, HurstOut, Imputation, MdsConfig, MdsSolution,
    Metric, NormalizedMatrix, Operation, Selection, StageReport, SubsetEntry, SubsetOut,
};
use wl_linalg::Matrix;
use wl_swf::Workload;

use crate::batch::{BatchMemo, VarsMemo};
use crate::datasets::NamedDataset;

/// How to run a request: worker threads and an optional deadline.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Worker threads for synthesis, Hurst estimation, MDS restarts and the
    /// subset search (bit-identical results for any count).
    pub threads: usize,
    /// Refuse to start further pipeline stages past this instant.
    pub deadline: Option<Instant>,
}

impl ExecConfig {
    /// A config with no deadline.
    pub fn new(threads: usize) -> ExecConfig {
        ExecConfig {
            threads,
            deadline: None,
        }
    }
}

/// Why a request could not be executed; `wl-serve` maps each variant to a
/// fixed HTTP status (the service never answers 500).
#[derive(Debug)]
pub enum ExecError {
    /// The request itself is malformed (HTTP 400).
    Api(ApiError),
    /// Unknown dataset name or unreadable input file (HTTP 404).
    DatasetNotFound(String),
    /// The analysis failed — including [`CoplotError::DeadlineExceeded`],
    /// which maps to 504; everything else is 422.
    Analysis(CoplotError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Api(e) => write!(f, "{e}"),
            ExecError::DatasetNotFound(m) => write!(f, "{m}"),
            ExecError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A successful execution: the serializable response plus the per-stage
/// reports of any Co-plot run (side channel — never on the wire, so
/// responses stay pure functions of the request).
#[derive(Debug)]
pub struct ExecOutcome {
    /// The wire response.
    pub response: AnalysisResponse,
    /// Per-stage timing reports (empty for `hurst`/`subset`).
    pub reports: Vec<StageReport>,
}

/// Execute one request.
///
/// # Errors
/// See [`ExecError`].
pub fn execute(request: &AnalysisRequest, cfg: &ExecConfig) -> Result<ExecOutcome, ExecError> {
    execute_with_memo(request, cfg, None)
}

/// Execute one request, optionally against a batch memo of shared
/// intermediates (see [`crate::batch`]): the dataset load and the engine's
/// stage-1/stage-2 outputs are taken from (or stored into) the memo, while
/// the per-request stages — MDS restarts, arrow fits, subset search — run
/// as usual on the `wl-par` pool. A memo hit returns a clone of a value a
/// deterministic stage produced for the same inputs, so the response is
/// byte-identical to an unbatched run.
///
/// # Errors
/// See [`ExecError`].
pub fn execute_with_memo(
    request: &AnalysisRequest,
    cfg: &ExecConfig,
    memo: Option<&BatchMemo>,
) -> Result<ExecOutcome, ExecError> {
    let req = request.canonicalize().map_err(ExecError::Api)?;
    check_deadline(cfg, "load")?;
    let workloads = match memo {
        Some(m) => m.workloads.get_or_try(|| load_dataset(&req, cfg))?,
        None => load_dataset(&req, cfg)?,
    };
    let vars_memo = memo.map(|m| m.vars(&req.vars));
    match req.op {
        Operation::Coplot => run_coplot(&req, cfg, &workloads, vars_memo),
        Operation::Hurst => run_hurst(&req, cfg, &workloads),
        Operation::Subset => run_subset(&req, cfg, &workloads, vars_memo),
    }
}

fn check_deadline(cfg: &ExecConfig, stage: &'static str) -> Result<(), ExecError> {
    match cfg.deadline {
        Some(d) if Instant::now() >= d => {
            Err(ExecError::Analysis(CoplotError::DeadlineExceeded { stage }))
        }
        _ => Ok(()),
    }
}

fn load_dataset(req: &AnalysisRequest, cfg: &ExecConfig) -> Result<Vec<Workload>, ExecError> {
    match &req.dataset {
        DatasetSpec::Named(name) => {
            let dataset =
                NamedDataset::from_name(name).ok_or_else(|| crate::datasets::unknown_dataset(name))?;
            Ok(dataset.synthesize(req.jobs as usize, req.seed, cfg.threads))
        }
        DatasetSpec::Paths(paths) => paths
            .iter()
            .map(|path| crate::datasets::read_trace(path, req.format.as_deref()))
            .collect(),
    }
}

fn data_matrix(
    req: &AnalysisRequest,
    workloads: &[Workload],
    memo: Option<&Arc<VarsMemo>>,
) -> Result<DataMatrix, ExecError> {
    let build = || {
        if workloads.len() < 3 {
            return Err(ExecError::Analysis(CoplotError::InvalidConfig(
                "co-plot needs at least 3 workloads".into(),
            )));
        }
        let codes: Vec<&str> = req.vars.iter().map(String::as_str).collect();
        wl_analysis::matrix::try_trace_matrix(workloads, &codes).map_err(ExecError::Analysis)
    };
    match memo {
        Some(m) => m.matrix.get_or_try(build),
        None => build(),
    }
}

fn run_coplot(
    req: &AnalysisRequest,
    cfg: &ExecConfig,
    workloads: &[Workload],
    memo: Option<Arc<VarsMemo>>,
) -> Result<ExecOutcome, ExecError> {
    let data = data_matrix(req, workloads, memo.as_ref())?;
    let engine = build_engine(req.seed, cfg, memo);
    let selection = match req.min_correlation {
        Some(min_correlation) => Selection::Eliminate { min_correlation },
        None => Selection::All,
    };
    let result = engine.run(&data, &selection).map_err(ExecError::Analysis)?;
    Ok(ExecOutcome {
        response: AnalysisResponse::Coplot(CoplotOut::from_result(&result)),
        reports: engine.reports(),
    })
}

fn run_hurst(
    req: &AnalysisRequest,
    cfg: &ExecConfig,
    workloads: &[Workload],
) -> Result<ExecOutcome, ExecError> {
    let _ = req;
    check_deadline(cfg, "hurst")?;
    let rows = wl_repro::hurst_rows(workloads, cfg.threads);
    Ok(ExecOutcome {
        response: AnalysisResponse::Hurst(HurstOut {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            columns: hurst_columns(),
            rows,
        }),
        reports: Vec::new(),
    })
}

/// The 12-column Hurst header (series-major, estimator-minor) every front
/// end shares.
fn hurst_columns() -> Vec<String> {
    let mut columns = Vec::with_capacity(12);
    for series in wl_swf::JobSeries::ALL {
        for est in wl_selfsim::HurstEstimator::ALL {
            columns.push(format!("{}{}", est.label(), series.code()));
        }
    }
    columns
}

fn run_subset(
    req: &AnalysisRequest,
    cfg: &ExecConfig,
    workloads: &[Workload],
    memo: Option<Arc<VarsMemo>>,
) -> Result<ExecOutcome, ExecError> {
    let data = data_matrix(req, workloads, memo.as_ref())?;
    check_deadline(cfg, "subset")?;
    let results = wl_analysis::subset::best_variable_subset(
        &data,
        req.subset_size as usize,
        req.max_alienation,
        req.top as usize,
        req.seed,
        cfg.threads,
    )
    .map_err(ExecError::Analysis)?;
    Ok(ExecOutcome {
        response: AnalysisResponse::Subset(SubsetOut {
            results: results.into_iter().map(subset_entry).collect(),
        }),
        reports: Vec::new(),
    })
}

fn subset_entry(r: wl_analysis::SubsetSearchResult) -> SubsetEntry {
    SubsetEntry {
        variables: r.variables,
        alienation: r.alienation,
        mean_correlation: r.mean_correlation,
        map_conservation_rmsd: r.map_conservation_rmsd,
    }
}

/// Build the engine the paper's pipeline uses. Two optional wrapper layers
/// compose around the standard stages, innermost first:
///
/// * with a batch memo, [`Memoized`] shims share stage-1 normalization and
///   stage-2 contributions across the batch (the engine only ever calls
///   those on the *full* matrix — per-selection dissimilarities are
///   combined from the contributions — so an unkeyed write-once memo is
///   sound; `compute` is deliberately left unmemoized because the engine
///   may call it on *reduced* matrices when contributions are absent);
/// * with a deadline, [`Gated`] shims refuse to *start* a stage past it.
///
/// Every wrapper forwards verbatim, so a wrapped run that completes is
/// bit-identical to a bare one.
fn build_engine(seed: u64, cfg: &ExecConfig, memo: Option<Arc<VarsMemo>>) -> CoplotEngine {
    let builder = CoplotEngine::builder().seed(seed).threads(cfg.threads);
    if cfg.deadline.is_none() && memo.is_none() {
        return builder.build();
    }
    let mds = MdsConfig {
        seed,
        threads: cfg.threads,
        ..MdsConfig::default()
    };
    let mut normalizer: Box<dyn Normalizer> = Box::new(ZScoreNormalizer {
        imputation: Imputation::ColumnMean,
    });
    let mut dissimilarity: Box<dyn DissimilarityStage> = Box::new(MetricDissimilarity {
        metric: Metric::CityBlock,
    });
    let mut embedder: Box<dyn Embedder> = Box::new(NonmetricMdsEmbedder { config: mds });
    let mut arrow_fitter: Box<dyn ArrowFitter> = Box::new(OlsArrowFitter);

    if let Some(memo) = memo {
        normalizer = Box::new(Memoized {
            memo: Arc::clone(&memo),
            inner: normalizer,
        });
        dissimilarity = Box::new(Memoized {
            memo,
            inner: dissimilarity,
        });
    }
    if let Some(deadline) = cfg.deadline {
        normalizer = Box::new(Gated {
            deadline,
            stage: "normalize",
            inner: normalizer,
        });
        dissimilarity = Box::new(Gated {
            deadline,
            stage: "dissimilarity",
            inner: dissimilarity,
        });
        embedder = Box::new(Gated {
            deadline,
            stage: "embed",
            inner: embedder,
        });
        arrow_fitter = Box::new(Gated {
            deadline,
            stage: "arrows",
            inner: arrow_fitter,
        });
    }
    builder
        .normalizer(normalizer)
        .dissimilarity(dissimilarity)
        .embedder(embedder)
        .arrow_fitter(arrow_fitter)
        .build()
}

/// A pipeline stage plus a deadline gate checked on entry.
#[derive(Debug)]
struct Gated<S> {
    deadline: Instant,
    stage: &'static str,
    inner: S,
}

impl<S> Gated<S> {
    fn check(&self) -> Result<(), CoplotError> {
        if Instant::now() >= self.deadline {
            return Err(CoplotError::DeadlineExceeded { stage: self.stage });
        }
        Ok(())
    }
}

impl Normalizer for Gated<Box<dyn Normalizer>> {
    fn normalize(&self, data: &DataMatrix) -> Result<NormalizedMatrix, CoplotError> {
        self.check()?;
        self.inner.normalize(data)
    }
}

impl DissimilarityStage for Gated<Box<dyn DissimilarityStage>> {
    fn compute(&self, z: &NormalizedMatrix) -> Result<DissimilarityMatrix, CoplotError> {
        self.check()?;
        self.inner.compute(z)
    }

    fn contributions(&self, z: &NormalizedMatrix) -> Option<PairContributions> {
        // No gate: contributions feed the engine cache, and declining them
        // would silently change caching behavior, not abort the request.
        self.inner.contributions(z)
    }
}

impl Embedder for Gated<Box<dyn Embedder>> {
    fn embed(&self, diss: &DissimilarityMatrix) -> Result<MdsSolution, CoplotError> {
        self.check()?;
        self.inner.embed(diss)
    }
}

impl ArrowFitter for Gated<Box<dyn ArrowFitter>> {
    fn fit(
        &self,
        name: &str,
        coords: &Matrix,
        z: &[f64],
    ) -> Result<coplot::Arrow, CoplotError> {
        self.check()?;
        self.inner.fit(name, coords, z)
    }
}

/// A stage sharing its output through a batch memo (see [`crate::batch`]).
#[derive(Debug)]
struct Memoized<S> {
    memo: Arc<VarsMemo>,
    inner: S,
}

impl Normalizer for Memoized<Box<dyn Normalizer>> {
    fn normalize(&self, data: &DataMatrix) -> Result<NormalizedMatrix, CoplotError> {
        // Sound without keying: the engine only calls this on the full
        // matrix, which is equal across the batch members sharing this memo.
        self.memo.normalized.get_or_try(|| self.inner.normalize(data))
    }
}

impl DissimilarityStage for Memoized<Box<dyn DissimilarityStage>> {
    fn compute(&self, z: &NormalizedMatrix) -> Result<DissimilarityMatrix, CoplotError> {
        // NOT memoized: with contributions absent the engine calls this per
        // variable selection, with different (reduced) matrices.
        self.inner.compute(z)
    }

    fn contributions(&self, z: &NormalizedMatrix) -> Option<PairContributions> {
        self.memo
            .contributions
            .get_or_try(|| Ok::<_, std::convert::Infallible>(self.inner.contributions(z)))
            .expect("infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn models_request(op: Operation) -> AnalysisRequest {
        let mut req = AnalysisRequest::new(op, DatasetSpec::Named("models".into()));
        req.jobs = 150;
        req.seed = 7;
        req
    }

    #[test]
    fn coplot_on_a_named_dataset_runs() {
        let outcome = execute(&models_request(Operation::Coplot), &ExecConfig::new(2)).unwrap();
        let AnalysisResponse::Coplot(out) = &outcome.response else {
            panic!("wrong response op");
        };
        assert_eq!(out.observations.len(), 5);
        assert_eq!(out.arrows.len(), 8);
        assert_eq!(outcome.reports.len(), 4, "one report per stage");
        // Re-running the same canonical request is bit-identical.
        let again = execute(&models_request(Operation::Coplot), &ExecConfig::new(1)).unwrap();
        assert_eq!(again.response.to_json(), outcome.response.to_json());
    }

    #[test]
    fn hurst_mirrors_the_cli_column_layout() {
        let outcome = execute(&models_request(Operation::Hurst), &ExecConfig::new(2)).unwrap();
        let AnalysisResponse::Hurst(out) = &outcome.response else {
            panic!("wrong response op");
        };
        assert_eq!(out.workloads.len(), 5);
        assert_eq!(out.columns.len(), 12);
        assert!(out.rows.iter().all(|r| r.len() == 12));
        // Series-major, estimator-minor: the CLI's header order.
        let first_series = wl_swf::JobSeries::ALL[0].code();
        for (i, est) in wl_selfsim::HurstEstimator::ALL.iter().enumerate() {
            assert_eq!(out.columns[i], format!("{}{first_series}", est.label()));
        }
    }

    #[test]
    fn subset_returns_ranked_entries() {
        let mut req = models_request(Operation::Subset);
        req.subset_size = 2;
        req.max_alienation = 1.0;
        req.top = 3;
        req.vars = ["Rm", "Pm", "Im", "Ii"].map(String::from).to_vec();
        let outcome = execute(&req, &ExecConfig::new(2)).unwrap();
        let AnalysisResponse::Subset(out) = &outcome.response else {
            panic!("wrong response op");
        };
        assert!(!out.results.is_empty());
        assert!(out.results.len() <= 3);
        for e in &out.results {
            assert_eq!(e.variables.len(), 2);
        }
    }

    #[test]
    fn unknown_dataset_is_not_found() {
        let req = AnalysisRequest::new(Operation::Coplot, DatasetSpec::Named("table9".into()));
        let err = execute(&req, &ExecConfig::new(1)).unwrap_err();
        assert!(matches!(err, ExecError::DatasetNotFound(_)), "{err:?}");
    }

    #[test]
    fn malformed_request_is_an_api_error() {
        let mut req = models_request(Operation::Coplot);
        req.jobs = 0;
        let err = execute(&req, &ExecConfig::new(1)).unwrap_err();
        assert!(matches!(err, ExecError::Api(_)), "{err:?}");
    }

    #[test]
    fn expired_deadline_aborts_between_stages() {
        let cfg = ExecConfig {
            threads: 1,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        let err = execute(&models_request(Operation::Coplot), &cfg).unwrap_err();
        match err {
            ExecError::Analysis(CoplotError::DeadlineExceeded { stage }) => {
                assert_eq!(stage, "load");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn batched_execution_is_byte_identical_to_unbatched() {
        // Three requests over the same dataset digest, differing only in
        // seed / elimination / operation — what a real batch looks like.
        let mut eliminate = models_request(Operation::Coplot);
        eliminate.min_correlation = Some(0.5);
        let mut subset = models_request(Operation::Subset);
        subset.subset_size = 2;
        subset.max_alienation = 1.0;
        subset.top = 3;
        subset.vars = ["Rm", "Pm", "Im", "Ii"].map(String::from).to_vec();
        let requests = [models_request(Operation::Coplot), eliminate, subset];

        for threads in [1usize, 8] {
            let cfg = ExecConfig::new(threads);
            let memo = BatchMemo::new();
            for req in &requests {
                let batched = execute_with_memo(req, &cfg, Some(&memo)).unwrap();
                let solo = execute(req, &cfg).unwrap();
                assert_eq!(
                    batched.response.to_json(),
                    solo.response.to_json(),
                    "batched != unbatched at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn memo_shares_the_dataset_load_across_a_batch() {
        let memo = BatchMemo::new();
        let cfg = ExecConfig::new(1);
        execute_with_memo(&models_request(Operation::Coplot), &cfg, Some(&memo)).unwrap();
        // The second request finds the workloads (and stage outputs) ready.
        let mut calls = 0;
        memo.workloads
            .get_or_try::<()>(|| {
                calls += 1;
                Ok(Vec::new())
            })
            .unwrap();
        assert_eq!(calls, 0, "workloads were memoized by the first request");
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let free = execute(&models_request(Operation::Coplot), &ExecConfig::new(1)).unwrap();
        let gated = execute(
            &models_request(Operation::Coplot),
            &ExecConfig {
                threads: 1,
                deadline: Some(Instant::now() + Duration::from_secs(600)),
            },
        )
        .unwrap();
        assert_eq!(gated.response.to_json(), free.response.to_json());
    }
}
