//! Plain-text and CSV report tables shaped like the paper's figures.
//!
//! Each figure in the paper is a grid of curves: an x-axis (load factor or
//! unsuccessful-query percentage), one line per hash table, y in M ops/s
//! or MB. [`Series`] is one such curve; [`ReportTable`] is one panel. The
//! binaries print panels as aligned text (for reading) and CSV (for
//! plotting), so `figures 4` reproduces Figure 4 row by row.

/// One curve: a label (e.g. `"LPMult"`) and a y-value per x tick.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Curve label, paper naming (`"RHMurmur"`, `"ChainedH24Mult"`, …).
    pub label: String,
    /// One value per x tick; `None` renders as `-` (e.g. chained hashing
    /// removed from high-load panels).
    pub values: Vec<Option<f64>>,
}

impl Series {
    /// Create a series from label and values.
    pub fn new(label: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        Self { label: label.into(), values }
    }
}

/// One figure panel: title, x-axis ticks, and a set of curves.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportTable {
    /// Panel title, e.g. `"Fig 4(a) dense — insertions"`.
    pub title: String,
    /// X-axis name, e.g. `"unsuccessful %"` or `"load factor %"`.
    pub x_name: String,
    /// X tick labels.
    pub x_ticks: Vec<String>,
    /// Unit of the values, e.g. `"M ops/s"` or `"MB"`.
    pub unit: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl ReportTable {
    /// Create an empty panel.
    pub fn new(
        title: impl Into<String>,
        x_name: impl Into<String>,
        x_ticks: Vec<String>,
        unit: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_name: x_name.into(),
            x_ticks,
            unit: unit.into(),
            series: Vec::new(),
        }
    }

    /// Append a curve.
    pub fn push(&mut self, series: Series) {
        assert_eq!(
            series.values.len(),
            self.x_ticks.len(),
            "series '{}' has {} values for {} ticks",
            series.label,
            series.values.len(),
            self.x_ticks.len()
        );
        self.series.push(series);
    }

    /// The label of the best (maximum) series at tick `i`, if any value
    /// exists there — the winner of a Figure 6 cell.
    pub fn winner_at(&self, i: usize) -> Option<(&str, f64)> {
        self.series
            .iter()
            .filter_map(|s| s.values.get(i).copied().flatten().map(|v| (s.label.as_str(), v)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} [{}]\n", self.title, self.unit));
        let label_w = self
            .series
            .iter()
            .map(|s| s.label.len())
            .chain([self.x_name.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = self.x_ticks.iter().map(|t| t.len()).max().unwrap_or(6).max(8);
        out.push_str(&format!("{:label_w$}", self.x_name));
        for t in &self.x_ticks {
            out.push_str(&format!(" {t:>col_w$}"));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:label_w$}", s.label));
            for v in &s.values {
                match v {
                    Some(v) => out.push_str(&format!(" {v:>col_w$.2}")),
                    None => out.push_str(&format!(" {:>col_w$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (`label,tick1,tick2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} [{}]\n", self.title, self.unit));
        out.push_str(&self.x_name.to_string());
        for t in &self.x_ticks {
            out.push(',');
            out.push_str(t);
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&s.label);
            for v in &s.values {
                out.push(',');
                if let Some(v) = v {
                    out.push_str(&format!("{v:.4}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> ReportTable {
        let mut t = ReportTable::new(
            "Fig X(a)",
            "unsuccessful %",
            vec!["0".into(), "50".into(), "100".into()],
            "M ops/s",
        );
        t.push(Series::new("LPMult", vec![Some(50.0), Some(30.0), Some(20.0)]));
        t.push(Series::new("ChainedH24Mult", vec![Some(40.0), Some(35.0), None]));
        t
    }

    #[test]
    fn text_render_contains_all_cells() {
        let txt = sample_table().to_text();
        assert!(txt.contains("Fig X(a)"));
        assert!(txt.contains("LPMult"));
        assert!(txt.contains("50.00"));
        assert!(txt.contains("-"), "missing value must render as dash");
    }

    #[test]
    fn csv_round_numbers() {
        let csv = sample_table().to_csv();
        assert!(csv.contains("LPMult,50.0000,30.0000,20.0000"));
        assert!(csv.contains("ChainedH24Mult,40.0000,35.0000,\n"));
    }

    #[test]
    fn winner_per_tick() {
        let t = sample_table();
        assert_eq!(t.winner_at(0), Some(("LPMult", 50.0)));
        assert_eq!(t.winner_at(1), Some(("ChainedH24Mult", 35.0)));
        assert_eq!(t.winner_at(2), Some(("LPMult", 20.0)));
        assert_eq!(t.winner_at(3), None);
    }

    #[test]
    #[should_panic(expected = "values for")]
    fn mismatched_series_rejected() {
        let mut t = sample_table();
        t.push(Series::new("bad", vec![Some(1.0)]));
    }
}
