//! Workload-analysis workflows built on Co-plot.
//!
//! The paper doesn't only present results — it prescribes *methodologies*.
//! This crate turns those prescriptions into reusable APIs:
//!
//! * [`matrix`] — assemble the observations-by-variables [`coplot::DataMatrix`]
//!   from workloads and variable codes (the glue every workflow needs).
//! * [`homogeneity`] — section 6's recipe: "Co-Plot could be used in this
//!   manner to test any new log, by dividing it into several parts and
//!   mapping it with all the other workloads. This should tell whether the
//!   log is homogeneous, and whether it contains time intervals in which
//!   work on the logged machine had unusual patterns."
//! * [`matching`] — section 7's workflow: map candidate models together
//!   with reference logs and report, per model, the closest log, the
//!   distance to the center of gravity, and whether any log "accepts" it.
//! * [`load_alteration`] — section 8's audit: apply the three common
//!   load-raising techniques to a workload and report which correlated
//!   variables each one distorts.
//! * [`parametric`] — the paper's *proposed* three-parameter generic
//!   workload model (allocation flexibility + medians of parallelism and
//!   inter-arrival time), with the remaining distributions assumed from
//!   the Figure 1 correlations. The paper calls for this model; this
//!   module builds it.
//! * [`subset`] — section 8's representative-variable search: find a small
//!   variable subset that conserves the map with maximal correlations.
//! * [`stream`] — the incremental generalization of the homogeneity test:
//!   rolling windows over a live record stream, warm-started MDS frames
//!   aligned with Procrustes, and per-window drift metrics.

pub mod homogeneity;
pub mod load_alteration;
pub mod matching;
pub mod matrix;
pub mod parametric;
pub mod stream;
pub mod subset;

pub use homogeneity::{HomogeneityReport, HomogeneityVerdict};
pub use load_alteration::{alter_load, LoadAlteration, LoadAuditRow};
pub use matching::{match_models, ModelMatch};
pub use matrix::{stats_matrix, trace_matrix, try_stats_matrix, try_trace_matrix};
pub use parametric::ParametricModel;
pub use stream::{
    run_stream, ArrowDelta, Drift, Frame, OrderPolicy, StreamConfig, WindowEvent, WindowedCoplot,
    MIN_FRAME_WINDOWS,
};
pub use subset::{best_variable_subset, subset_space_size, SubsetSearchResult};
