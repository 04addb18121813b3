//! Section 7's model-matching workflow as an API.
//!
//! Map candidate synthetic workloads together with reference production
//! logs on the shared job-stream variables and report, per model: the
//! closest log, its distance, the distance to the ensemble's center of
//! gravity, and whether any log is close enough to "accept" the model as a
//! match (the paper's phrasing for Lublin and LLNL).

use coplot::{Coplot, CoplotError, CoplotResult};
use wl_swf::Workload;

use crate::matrix::{trace_matrix, JOB_STREAM_VARIABLES};

/// The verdict for one candidate model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMatch {
    /// Model workload name.
    pub model: String,
    /// Closest reference log and its map distance.
    pub closest_log: String,
    pub distance: f64,
    /// Distance from the center of gravity (small = "the average
    /// workload").
    pub centrality: f64,
    /// True when the closest log is within the acceptance radius.
    pub accepted: bool,
}

/// Result of a matching run.
#[derive(Debug, Clone)]
pub struct MatchReport {
    /// One entry per model, in input order.
    pub matches: Vec<ModelMatch>,
    /// The underlying Co-plot result (logs + models).
    pub coplot: CoplotResult,
}

/// Map `models` against `logs` and report matches. A model is *accepted*
/// by a log when their map distance is below `acceptance_radius` (the map
/// has unit RMS radius, so ~0.25 means "clearly together"; the paper never
/// quantifies it, only says LLNL is "close enough").
///
/// # Errors
/// [`CoplotError::EmptyInput`] when `logs` or `models` is empty, plus any
/// error from the underlying analysis.
pub fn match_models(
    logs: &[Workload],
    models: &[Workload],
    acceptance_radius: f64,
    seed: u64,
) -> Result<MatchReport, CoplotError> {
    if logs.is_empty() {
        return Err(CoplotError::EmptyInput {
            what: "reference logs",
        });
    }
    if models.is_empty() {
        return Err(CoplotError::EmptyInput { what: "models" });
    }
    let mut all: Vec<Workload> = logs.to_vec();
    all.extend(models.iter().cloned());

    let data = trace_matrix(&all, &JOB_STREAM_VARIABLES);
    let result = Coplot::new().seed(seed).analyze(&data)?;

    let matches = models
        .iter()
        .map(|m| {
            let (closest, distance) = closest_log(logs.iter().map(|l| {
                (
                    l.name.clone(),
                    // Every workload in `all` has a map row, so the
                    // lookups below cannot fail.
                    result
                        .map_distance(&m.name, &l.name)
                        .expect("both present in map"),
                )
            }))
            .expect("at least one log");
            let (x, y) = result.position(&m.name).expect("model in map");
            ModelMatch {
                model: m.name.clone(),
                closest_log: closest,
                distance,
                centrality: (x * x + y * y).sqrt(),
                accepted: distance <= acceptance_radius,
            }
        })
        .collect();

    Ok(MatchReport {
        matches,
        coplot: result,
    })
}

/// The (log, distance) pair with the smallest distance, the first one on
/// ties. Ordered by `total_cmp`, so a NaN distance cannot panic the
/// search (a positive NaN ranks after every number, a negative one
/// before).
fn closest_log(candidates: impl Iterator<Item = (String, f64)>) -> Option<(String, f64)> {
    candidates.min_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_logsynth::machines::production_workloads;
    use wl_models::all_models;
    use wl_stats::rng::seeded_rng;

    fn suite() -> (Vec<Workload>, Vec<Workload>) {
        let logs = production_workloads(21, 3000);
        let mut rng = seeded_rng(22);
        let models: Vec<Workload> = all_models()
            .iter()
            .map(|m| m.generate(3000, &mut rng))
            .collect();
        (logs, models)
    }

    #[test]
    fn every_model_gets_a_match() {
        let (logs, models) = suite();
        let report = match_models(&logs, &models, 0.25, 5).unwrap();
        assert_eq!(report.matches.len(), 5);
        for m in &report.matches {
            assert!(logs.iter().any(|l| l.name == m.closest_log));
            assert!(m.distance.is_finite() && m.distance >= 0.0);
            assert!(m.centrality.is_finite());
        }
    }

    #[test]
    fn feitelson_matches_the_interactive_corner() {
        let (logs, models) = suite();
        let report = match_models(&logs, &models, 0.3, 5).unwrap();
        let f96 = report
            .matches
            .iter()
            .find(|m| m.model == "Feitelson '96")
            .unwrap();
        assert!(
            ["NASA", "LANLi", "SDSCi", "LLNL"].contains(&f96.closest_log.as_str()),
            "Feitelson '96 matched {}",
            f96.closest_log
        );
    }

    #[test]
    fn lublin_is_most_central() {
        let (logs, models) = suite();
        let report = match_models(&logs, &models, 0.25, 5).unwrap();
        let lublin = report
            .matches
            .iter()
            .find(|m| m.model == "Lublin")
            .unwrap();
        for m in &report.matches {
            if m.model != "Lublin" {
                assert!(
                    lublin.centrality <= m.centrality + 0.35,
                    "{} centrality {} vs Lublin {}",
                    m.model,
                    m.centrality,
                    lublin.centrality
                );
            }
        }
    }

    #[test]
    fn acceptance_radius_controls_accepts() {
        let (logs, models) = suite();
        let none = match_models(&logs, &models, 0.0, 5).unwrap();
        assert!(none.matches.iter().all(|m| !m.accepted));
        let all = match_models(&logs, &models, 100.0, 5).unwrap();
        assert!(all.matches.iter().all(|m| m.accepted));
    }

    #[test]
    fn nan_map_distance_does_not_panic() {
        let candidates = [("a", f64::NAN), ("b", 0.4), ("c", 0.2), ("d", 0.2)]
            .map(|(name, d)| (name.to_string(), d));
        let (name, distance) = closest_log(candidates.into_iter()).unwrap();
        assert_eq!((name.as_str(), distance), ("c", 0.2));
        let (name, distance) = closest_log([("a".to_string(), f64::NAN)].into_iter()).unwrap();
        assert_eq!(name, "a");
        assert!(distance.is_nan());
        assert!(closest_log(std::iter::empty()).is_none());
    }

    #[test]
    fn empty_inputs_are_errors() {
        let (logs, models) = suite();
        assert!(matches!(
            match_models(&logs, &[], 0.25, 5).unwrap_err(),
            CoplotError::EmptyInput { what: "models" }
        ));
        assert!(matches!(
            match_models(&[], &models, 0.25, 5).unwrap_err(),
            CoplotError::EmptyInput { what: "reference logs" }
        ));
    }
}
