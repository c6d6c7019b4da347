//! `inspect tune`: validates `TUNE_*.json` policy-search artifacts. The
//! per-class candidate trail must show a monotone non-increasing
//! incumbent-best objective (the search never forgets its best), and
//! every recorded promotion must clear the configured promotion margin —
//! a candidate objective strictly below `incumbent × (1 − min_improvement)`.
//! A class flagged `promoted` must itself beat its starting incumbent by
//! that margin.

use super::{bool_field, f64_field, field};
use serde::Value;

/// `None` objectives are unscoreable — order them as `+∞`.
fn as_objective(value: Option<f64>) -> f64 {
    value.unwrap_or(f64::INFINITY)
}

/// The promotion-gate predicate, NaN-hostile: a candidate clears the
/// margin only if it is *strictly* below the discounted incumbent.
fn clears_margin(candidate: f64, incumbent: f64, min_improvement: f64) -> bool {
    candidate < incumbent * (1.0 - min_improvement)
}

/// Checks one class's candidate trail and promotion records.
fn check_class(class: &Value, min_improvement: f64) -> Result<(u64, u64), String> {
    let name = match field(class, "class") {
        Some(Value::Str(name)) => name.clone(),
        _ => return Err("class entry missing class name".into()),
    };
    let Some(Value::Arr(candidates)) = field(class, "candidates") else {
        return Err(format!("class {name}: missing candidates array"));
    };
    let mut best = f64::INFINITY;
    for (i, candidate) in candidates.iter().enumerate() {
        let recorded = as_objective(
            f64_field(candidate, "best_objective_secs")
                .map_err(|e| format!("class {name} candidate {i}: {e}"))?,
        );
        if recorded > best {
            return Err(format!(
                "class {name} candidate {i}: best objective rose {best} → {recorded} \
                 (must be monotone non-increasing)"
            ));
        }
        best = recorded;
    }
    let Some(Value::Arr(promotions)) = field(class, "promotions") else {
        return Err(format!("class {name}: missing promotions array"));
    };
    for (i, promotion) in promotions.iter().enumerate() {
        let incumbent = as_objective(
            f64_field(promotion, "incumbent_objective_secs")
                .map_err(|e| format!("class {name} promotion {i}: {e}"))?,
        );
        let candidate = as_objective(
            f64_field(promotion, "candidate_objective_secs")
                .map_err(|e| format!("class {name} promotion {i}: {e}"))?,
        );
        if !candidate.is_finite() {
            return Err(format!("class {name} promotion {i}: candidate objective not finite"));
        }
        if !clears_margin(candidate, incumbent, min_improvement) {
            return Err(format!(
                "class {name} promotion {i}: candidate {candidate} does not beat \
                 incumbent {incumbent} by the {min_improvement} margin"
            ));
        }
    }
    if bool_field(class, "promoted").map_err(|e| format!("class {name}: {e}"))? {
        let incumbent = as_objective(
            f64_field(class, "incumbent_objective_secs")
                .map_err(|e| format!("class {name}: {e}"))?,
        );
        let class_best = as_objective(
            f64_field(class, "best_objective_secs").map_err(|e| format!("class {name}: {e}"))?,
        );
        if !clears_margin(class_best, incumbent, min_improvement) {
            return Err(format!(
                "class {name}: flagged promoted but best {class_best} does not beat \
                 incumbent {incumbent} by the {min_improvement} margin"
            ));
        }
    }
    Ok((candidates.len() as u64, promotions.len() as u64))
}

/// Checks one artifact; returns a short summary line on success.
pub(crate) fn check(text: &str) -> Result<String, String> {
    let root = serde::parse_value(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let min_improvement =
        f64_field(&root, "min_improvement")?.ok_or("min_improvement must not be null")?;
    if !(0.0..1.0).contains(&min_improvement) {
        return Err(format!("min_improvement {min_improvement} outside [0, 1)"));
    }
    let classes = match field(&root, "classes") {
        Some(Value::Arr(classes)) if !classes.is_empty() => classes,
        Some(Value::Arr(_)) => return Err("classes array is empty".into()),
        _ => return Err("missing classes array".into()),
    };
    let mut candidates = 0u64;
    let mut promotions = 0u64;
    for class in classes {
        let (c, p) = check_class(class, min_improvement)?;
        candidates += c;
        promotions += p;
    }
    Ok(format!(
        "{} classes, {candidates} candidates, {promotions} promotions, margin {min_improvement}",
        classes.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::check;

    fn artifact(candidates: &str, promotions: &str, promoted: bool, best: &str) -> String {
        format!(
            r#"{{
              "min_improvement": 0.05,
              "classes": [
                {{
                  "class": "leak",
                  "incumbent_objective_secs": 300.0,
                  "best_objective_secs": {best},
                  "improvement": null,
                  "promoted": {promoted},
                  "candidates": [{candidates}],
                  "promotions": [{promotions}]
                }}
              ]
            }}"#
        )
    }

    fn candidate(objective: &str, best: &str) -> String {
        format!(
            r#"{{"round": 0, "operator": "PerturbOneAxis", "objective_secs": {objective},
                 "accepted": true, "new_best": false, "best_objective_secs": {best}}}"#
        )
    }

    #[test]
    fn accepts_a_clean_artifact() {
        let candidates =
            [candidate("400.0", "300.0"), candidate("250.0", "250.0"), candidate("null", "250.0")]
                .join(",");
        let promotions =
            r#"{"incumbent_objective_secs": 300.0, "candidate_objective_secs": 250.0}"#;
        let summary = check(&artifact(&candidates, promotions, true, "250.0")).unwrap();
        assert!(summary.contains("3 candidates, 1 promotions"), "{summary}");
    }

    #[test]
    fn rejects_a_rising_best_objective() {
        let candidates = [candidate("250.0", "250.0"), candidate("400.0", "260.0")].join(",");
        let err = check(&artifact(&candidates, "", false, "260.0")).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn rejects_a_promotion_inside_the_margin() {
        // 290 < 300 but not < 300 × 0.95 = 285: inside the margin.
        let promotions =
            r#"{"incumbent_objective_secs": 300.0, "candidate_objective_secs": 290.0}"#;
        let err =
            check(&artifact(&candidate("290.0", "290.0"), promotions, false, "290.0")).unwrap_err();
        assert!(err.contains("margin"), "{err}");
    }

    #[test]
    fn rejects_a_promoted_flag_without_the_margin() {
        let err = check(&artifact(&candidate("295.0", "295.0"), "", true, "295.0")).unwrap_err();
        assert!(err.contains("flagged promoted"), "{err}");
    }

    #[test]
    fn rejects_an_unscoreable_promotion() {
        let promotions = r#"{"incumbent_objective_secs": 300.0, "candidate_objective_secs": null}"#;
        let err =
            check(&artifact(&candidate("null", "null"), promotions, false, "null")).unwrap_err();
        assert!(err.contains("not finite"), "{err}");
    }
}
