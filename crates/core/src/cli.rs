//! Shared request/argument validation for the harness front ends.
//!
//! The `figures` CLI and the `xtsim-serve` service accept the same scenario
//! parameters (figure ids, scale, worker counts); this module is the
//! single implementation of their validation so the two can never drift —
//! an id the CLI rejects with exit 2 is exactly an id the service rejects
//! with 404.

use crate::figures::Figure;
use crate::report::Scale;

/// Parse a scale label as used on the command line and in service requests.
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "quick" => Some(Scale::Quick),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// Filter `figures` down to the ids in `only`, preserving registry order.
///
/// Every requested id must match something: ids that match nothing are
/// collected and returned as the error, so a typo (`figZZ`) or an ablation
/// id requested without `--ablations` fails loudly instead of being
/// silently dropped from the run.
pub fn select_figures(figures: Vec<Figure>, only: &[String]) -> Result<Vec<Figure>, Vec<String>> {
    let unmatched: Vec<String> = only
        .iter()
        .filter(|id| !figures.iter().any(|f| f.id == id.as_str()))
        .cloned()
        .collect();
    if !unmatched.is_empty() {
        return Err(unmatched);
    }
    Ok(figures
        .into_iter()
        .filter(|f| only.iter().any(|id| id == f.id))
        .collect())
}

/// Parse a strictly positive integer argument (`--jobs`,
/// `--max-concurrent`, ...). The error names the flag and quotes the
/// offending token so front ends can print it verbatim and exit 2.
pub fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got {value:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::all_figures;

    #[test]
    fn select_keeps_registry_order_and_matches_all() {
        let only = vec!["fig12".to_string(), "fig02".to_string()];
        let picked = select_figures(all_figures(), &only).unwrap();
        // Registry order, not request order.
        let ids: Vec<&str> = picked.iter().map(|f| f.id).collect();
        assert_eq!(ids, ["fig02", "fig12"]);
    }

    #[test]
    fn select_rejects_unknown_ids_listing_every_one() {
        let only = vec![
            "fig12".to_string(),
            "figZZ".to_string(),
            "nope".to_string(),
        ];
        let err = select_figures(all_figures(), &only).err().expect("must reject");
        assert_eq!(err, ["figZZ", "nope"]);
    }

    #[test]
    fn positive_integers_parse_and_errors_quote_the_token() {
        assert_eq!(parse_positive("--jobs", "8"), Ok(8));
        assert_eq!(parse_positive("--jobs", " 2 "), Ok(2));
        for bad in ["0", "-3", "abc", "1.5", ""] {
            let err = parse_positive("--jobs", bad).unwrap_err();
            assert!(err.contains("--jobs"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err} must quote {bad:?}");
        }
    }

    #[test]
    fn scale_labels_roundtrip() {
        assert_eq!(parse_scale("quick"), Some(Scale::Quick));
        assert_eq!(parse_scale("full"), Some(Scale::Full));
        assert_eq!(parse_scale("FULL"), None);
        for s in [Scale::Quick, Scale::Full] {
            assert_eq!(parse_scale(s.label()), Some(s));
        }
    }
}
