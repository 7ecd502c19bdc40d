//! Reading sums out of Prometheus text exposition: the server's `/metrics`
//! page, and the same rendering of a batch child's own registry.

/// One exposition sample: metric name, labels, value.
type Sample<'a> = (&'a str, Vec<(String, String)>, f64);

/// Parse one sample line, `name{k="v",...} value` or `name value`, into its
/// name, labels and value. Comment and malformed lines give `None`.
fn parse_line(line: &str) -> Option<Sample<'_>> {
    if line.starts_with('#') {
        return None;
    }
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let Some((name, labels)) = series.split_once('{') else {
        return Some((series, Vec::new(), value));
    };
    let mut out = Vec::new();
    let mut rest = labels.strip_suffix('}')?;
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let mut val = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next()? {
                (_, '\\') => match chars.next()?.1 {
                    'n' => val.push('\n'),
                    c => val.push(c),
                },
                (i, '"') => break i,
                (_, c) => val.push(c),
            }
        };
        out.push((key.to_string(), val));
        rest = after[end + 1..]
            .strip_prefix(',')
            .unwrap_or(&after[end + 1..]);
    }
    Some((name, out, value))
}

/// Sum of every sample named `name` whose labels include all of `labels`
/// (0 when none match). For a histogram pass `<family>_sum` or
/// `<family>_count`.
pub fn sum(text: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    text.lines()
        .filter_map(parse_line)
        .filter(|(n, ls, _)| {
            *n == name
                && labels
                    .iter()
                    .all(|(k, v)| ls.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|(_, _, v)| v)
        .sum()
}

/// Mean observation of a histogram family across its matching series, in
/// the family's unit (seconds here); 0 when it has no observations.
pub fn hist_mean(text: &str, family: &str, labels: &[(&str, &str)]) -> f64 {
    let count = sum(text, &format!("{family}_count"), labels);
    if count == 0.0 {
        0.0
    } else {
        sum(text, &format!("{family}_sum"), labels) / count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "\
# HELP xtsim_queue_wait_seconds Time a run sat in the bounded queue.
# TYPE xtsim_queue_wait_seconds histogram
xtsim_queue_wait_seconds_bucket{le=\"0.001\"} 3
xtsim_queue_wait_seconds_bucket{le=\"+Inf\"} 4
xtsim_queue_wait_seconds_sum 0.5
xtsim_queue_wait_seconds_count 4
xtsim_cache_lookup_seconds_sum{tier=\"disk\"} 0.25
xtsim_cache_lookup_seconds_count{tier=\"disk\"} 5
xtsim_cache_lookup_seconds_sum{tier=\"memory\"} 0.05
xtsim_cache_lookup_seconds_count{tier=\"memory\"} 45
xtsim_cache_lookups_total{result=\"hit\",tier=\"memory\"} 45
xtsim_cache_lookups_total{result=\"miss\",tier=\"disk\"} 5
xtsim_http_requests_total{route=\"GET /runs/:id\",status=\"2xx\"} 7
xtsim_odd_total{path=\"a\\\"b,c\"} 2
";

    #[test]
    fn histogram_sum_and_count_scrape() {
        assert_eq!(sum(PAGE, "xtsim_queue_wait_seconds_count", &[]), 4.0);
        assert_eq!(hist_mean(PAGE, "xtsim_queue_wait_seconds", &[]), 0.125);
        // Across tiers, then one tier.
        assert_eq!(
            hist_mean(PAGE, "xtsim_cache_lookup_seconds", &[]),
            0.3 / 50.0
        );
        assert_eq!(
            hist_mean(PAGE, "xtsim_cache_lookup_seconds", &[("tier", "disk")]),
            0.05
        );
        assert_eq!(hist_mean(PAGE, "xtsim_absent_seconds", &[]), 0.0);
    }

    #[test]
    fn counters_filter_by_label_subset() {
        assert_eq!(sum(PAGE, "xtsim_cache_lookups_total", &[]), 50.0);
        assert_eq!(
            sum(PAGE, "xtsim_cache_lookups_total", &[("result", "hit")]),
            45.0
        );
        assert_eq!(
            sum(
                PAGE,
                "xtsim_cache_lookups_total",
                &[("tier", "disk"), ("result", "hit")]
            ),
            0.0
        );
        assert_eq!(
            sum(
                PAGE,
                "xtsim_http_requests_total",
                &[("route", "GET /runs/:id")]
            ),
            7.0
        );
        // Escaped quote and comma inside a label value.
        assert_eq!(sum(PAGE, "xtsim_odd_total", &[("path", "a\"b,c")]), 2.0);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        assert!(parse_line("# TYPE x counter").is_none());
        assert!(parse_line("novalue").is_none());
        assert!(parse_line("x{unterminated=\"v} 1").is_none());
        assert_eq!(sum("x 1\nx two\nx 2\n", "x", &[]), 3.0);
    }
}
