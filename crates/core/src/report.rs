//! Result containers and text rendering for the figure harness.

use serde::{impl_serde_struct, impl_serde_unit_enum};

/// A named data series (one line of a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, matching the paper's figures.
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series.
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// One regenerated table or figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier, e.g. "fig08" or "table1".
    pub id: String,
    /// Title, matching the paper's caption.
    pub title: String,
    /// Axis labels `(x, y)` when the figure is a chart.
    pub axes: Option<(String, String)>,
    /// The data series.
    pub series: Vec<Series>,
    /// Preformatted text body (used for tables and notes).
    pub notes: Vec<String>,
}

impl FigureResult {
    /// Start a figure result.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> FigureResult {
        FigureResult {
            id: id.into(),
            title: title.into(),
            axes: None,
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Set axis labels.
    pub fn axes(mut self, x: impl Into<String>, y: impl Into<String>) -> Self {
        self.axes = Some((x.into(), y.into()));
        self
    }

    /// Add a series.
    pub fn with_series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    /// Add a free-text note / preformatted block.
    pub fn note(mut self, text: impl Into<String>) -> Self {
        self.notes.push(text.into());
        self
    }

    /// Render as aligned text: a header, each series as a row block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== {} — {} ===\n", self.id, self.title));
        if let Some((x, y)) = &self.axes {
            out.push_str(&format!("x: {x}   y: {y}\n"));
        }
        if !self.series.is_empty() {
            // Union of x values across series, sorted.
            let mut xs: Vec<f64> = self
                .series
                .iter()
                .flat_map(|s| s.points.iter().map(|p| p.0))
                .collect();
            xs.sort_by(f64::total_cmp);
            xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            let name_w = self
                .series
                .iter()
                .map(|s| s.name.len())
                .max()
                .unwrap_or(0)
                .max(8);
            out.push_str(&format!("{:name_w$}", "series"));
            for x in &xs {
                out.push_str(&format!(" {:>10}", trim_num(*x)));
            }
            out.push('\n');
            for s in &self.series {
                out.push_str(&format!("{:name_w$}", s.name));
                for x in &xs {
                    match s
                        .points
                        .iter()
                        .find(|(px, _)| (px - x).abs() < 1e-12)
                    {
                        Some((_, y)) => out.push_str(&format!(" {:>10}", trim_num(*y))),
                        None => out.push_str(&format!(" {:>10}", "-")),
                    }
                }
                out.push('\n');
            }
        }
        for n in &self.notes {
            out.push_str(n);
            if !n.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// CSV rendering (long format: series,x,y).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for (x, y) in &s.points {
                out.push_str(&format!("{},{},{}\n", s.name, x, y));
            }
        }
        out
    }
}

fn trim_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 && v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

/// How heavy a figure regeneration should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Reduced sweeps for CI and tests (seconds per figure).
    Quick,
    /// The paper's sweeps (minutes for the largest figures).
    Full,
}

impl Scale {
    /// Lower-case label, as used on the `figures` command line.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

impl_serde_struct!(Series { name, points });
impl_serde_struct!(FigureResult { id, title, axes, series, notes });
impl_serde_unit_enum!(Scale { Quick, Full });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_series() {
        let fig = FigureResult::new("figX", "Test")
            .axes("sockets", "GB/s")
            .with_series({
                let mut s = Series::new("XT3");
                s.push(64.0, 1.15);
                s.push(128.0, 1.14);
                s
            })
            .with_series({
                let mut s = Series::new("XT4");
                s.push(64.0, 2.1);
                s
            });
        let text = fig.render();
        assert!(text.contains("figX"));
        assert!(text.contains("XT3"));
        assert!(text.contains("1.150"));
        // Missing point renders as '-'.
        assert!(text.contains('-'));
    }

    #[test]
    fn csv_long_format() {
        let mut s = Series::new("a");
        s.push(1.0, 2.0);
        let fig = FigureResult::new("f", "t").with_series(s);
        assert_eq!(fig.to_csv(), "series,x,y\na,1,2\n");
    }

    #[test]
    fn json_roundtrip() {
        let mut s = Series::new("a");
        s.push(1.0, 2.0);
        let fig = FigureResult::new("f", "t").with_series(s).note("hello");
        let j = serde_json::to_string(&fig).unwrap();
        let back: FigureResult = serde_json::from_str(&j).unwrap();
        assert_eq!(back.series[0].points, vec![(1.0, 2.0)]);
        assert_eq!(back.notes, vec!["hello".to_string()]);
    }
}
