//! Assemble Co-plot data matrices from normalized traces.
//!
//! The primary entry points are [`trace_matrix`] / [`try_trace_matrix`],
//! which accept any [`NormalizedTrace`] — the canonical output of every
//! `wl_trace::TraceSource` adapter — so SWF logs, GWF grid traces, and
//! bucketed web access logs all feed the same Table 1 machinery
//! (`wl_swf::Workload` *is* `NormalizedTrace`).

use coplot::{CoplotError, DataMatrix};
use wl_trace::{NormalizedTrace, TraceStats, Variable};
use wl_swf::WorkloadStats;

/// Build an observations-by-variables matrix from normalized traces and
/// Table 1 variable codes ("Rm", "Pi", ...), applying the paper's
/// load-imputation rule. Unknown statistics become missing cells.
///
/// # Panics
/// Panics on an unknown variable code; use [`try_trace_matrix`] to get a
/// [`CoplotError`] instead.
pub fn trace_matrix(traces: &[NormalizedTrace], codes: &[&str]) -> DataMatrix {
    try_trace_matrix(traces, codes).unwrap_or_else(|e| panic!("{e}"))
}

/// Build a matrix from normalized traces, reporting unknown codes as
/// errors.
///
/// # Errors
/// [`CoplotError::InvalidConfig`] on an unknown variable code.
pub fn try_trace_matrix(
    traces: &[NormalizedTrace],
    codes: &[&str],
) -> Result<DataMatrix, CoplotError> {
    let stats: Vec<TraceStats> = traces
        .iter()
        .map(|w| TraceStats::compute(w).with_load_imputation())
        .collect();
    try_stats_matrix(&stats, codes)
}

/// Build a matrix from precomputed statistics.
///
/// # Panics
/// Panics on an unknown variable code; use [`try_stats_matrix`] to get a
/// [`CoplotError`] instead.
pub fn stats_matrix(stats: &[WorkloadStats], codes: &[&str]) -> DataMatrix {
    try_stats_matrix(stats, codes).unwrap_or_else(|e| panic!("{e}"))
}

/// Build a matrix from precomputed statistics, reporting unknown codes as
/// errors.
///
/// # Errors
/// [`CoplotError::InvalidConfig`] on an unknown variable code.
pub fn try_stats_matrix(
    stats: &[WorkloadStats],
    codes: &[&str],
) -> Result<DataMatrix, CoplotError> {
    let vars: Vec<Variable> = codes
        .iter()
        .map(|c| {
            Variable::from_code(c)
                .ok_or_else(|| CoplotError::InvalidConfig(format!("unknown variable code {c:?}")))
        })
        .collect::<Result<_, _>>()?;
    let rows: Vec<Vec<Option<f64>>> = stats
        .iter()
        .map(|s| vars.iter().map(|&v| s.get(v)).collect())
        .collect();
    let row_refs: Vec<&[Option<f64>]> = rows.iter().map(|r| r.as_slice()).collect();
    DataMatrix::try_from_optional_rows(
        stats.iter().map(|s| s.name.clone()).collect(),
        codes.iter().map(|c| c.to_string()).collect(),
        &row_refs,
    )
}

/// The eight job-stream variables shared by logs and pure models (the
/// Figure 4 set).
pub const JOB_STREAM_VARIABLES: [&str; 8] = ["Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im", "Ii"];

#[cfg(test)]
mod tests {
    use super::*;
    use wl_logsynth::machines::MachineId;

    #[test]
    fn matrix_from_workloads() {
        let ws = [
            MachineId::Ctc.generate(500, 1),
            MachineId::Nasa.generate(500, 1),
            MachineId::Kth.generate(500, 1),
        ];
        let m = trace_matrix(&ws, &["Rm", "Pm", "Im"]);
        assert_eq!(m.n_observations(), 3);
        assert_eq!(m.n_variables(), 3);
        assert_eq!(m.observations()[0], "CTC");
        assert!(m.get(0, 0).unwrap() > m.get(1, 0).unwrap(), "CTC Rm > NASA Rm");
    }

    #[test]
    #[should_panic(expected = "unknown variable code")]
    fn unknown_code_panics() {
        let ws = [MachineId::Ctc.generate(100, 1)];
        trace_matrix(&ws, &["nope"]);
    }

    #[test]
    fn unknown_code_is_an_error_in_try_variant() {
        let ws = [MachineId::Ctc.generate(100, 1)];
        let err = try_trace_matrix(&ws, &["nope"]).unwrap_err();
        assert!(matches!(err, CoplotError::InvalidConfig(_)), "{err}");
    }
}
