//! Report rendering: aligned text tables, CSV export, and shape claims.

use std::fmt::Write as _;

/// One table of a figure: a header row plus data rows.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table caption (e.g. `"U(X) per C-event"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given caption and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A table with `rows` already pushed (see [`Table::push_row`]).
    pub fn with_rows(
        title: impl Into<String>,
        headers: &[&str],
        rows: impl IntoIterator<Item = Vec<String>>,
    ) -> Table {
        let mut t = Table::new(title, headers);
        rows.into_iter().for_each(|row| t.push_row(row));
        t
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {} in table '{}'",
            row.len(),
            self.headers.len(),
            self.title
        );
        self.rows.push(row);
    }

    /// Renders with aligned columns (first column left-aligned, the rest
    /// right-aligned, as is conventional for numeric tables).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish: fields with commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| field(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// One qualitative claim from the paper, evaluated against fresh output.
#[derive(Clone, Debug)]
pub struct Claim {
    /// The statement, quoted or paraphrased from the paper.
    pub statement: String,
    /// Whether this run reproduced it.
    pub holds: bool,
    /// True for a claim this code is known not to reproduce (EXPERIMENTS.md
    /// says why): when it does not hold it is a known divergence, counted
    /// apart from PASS and FAIL.
    pub known_divergence: bool,
}

impl Claim {
    /// How the claim prints: `PASS`, `FAIL` or `KNOWN DIVERGENCE`.
    pub fn verdict(&self) -> &'static str {
        match (self.holds, self.known_divergence) {
            (true, _) => "PASS",
            (false, false) => "FAIL",
            (false, true) => "KNOWN DIVERGENCE",
        }
    }
}

/// A fully regenerated table or figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Identifier, e.g. `"fig8"` or `"table1"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// The data tables.
    pub tables: Vec<Table>,
    /// Shape claims evaluated on this run.
    pub claims: Vec<Claim>,
}

impl Figure {
    /// Creates an empty figure shell.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Figure {
        Figure {
            id: id.into(),
            title: title.into(),
            tables: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Records a shape claim.
    pub fn claim(&mut self, statement: impl Into<String>, holds: bool) {
        self.claims.push(Claim {
            statement: statement.into(),
            holds,
            known_divergence: false,
        });
    }

    /// Records a claim of the paper this code is known not to reproduce:
    /// it prints `KNOWN DIVERGENCE` rather than `FAIL` while it does not
    /// hold, and `PASS` once it does.
    pub fn known_divergence(&mut self, statement: impl Into<String>, holds: bool) {
        self.claims.push(Claim {
            statement: statement.into(),
            holds,
            known_divergence: true,
        });
    }

    /// The `--csv` export: one `(file name, text)` per table, named
    /// `<id>_<i>.csv`, each stamped like every other artifact. The `#`
    /// keeps it readable by comment-skipping loaders (gnuplot, pandas).
    pub fn csv_files(&self) -> Vec<(String, String)> {
        let stamp = format!("# schema_version={}\n", bgpscale_obs::SCHEMA_VERSION);
        (0..)
            .zip(&self.tables)
            .map(|(i, table)| (format!("{}_{i}.csv", self.id), stamp.clone() + &table.to_csv()))
            .collect()
    }

    /// True if every claim held.
    pub fn all_claims_hold(&self) -> bool {
        self.claims.iter().all(|c| c.holds)
    }

    /// Renders the full figure: title, tables, claim checklist.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} — {} ===", self.id, self.title);
        for t in &self.tables {
            let _ = writeln!(out, "\n{}", t.render());
        }
        if !self.claims.is_empty() {
            let _ = writeln!(out, "Shape claims:");
            for c in &self.claims {
                let _ = writeln!(out, "  [{}] {}", c.verdict(), c.statement);
            }
        }
        out
    }
}

/// Formats a float with 2 decimal places (the workhorse cell format).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 4 decimal places (probabilities, slopes).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Normalizes a series to its first element ("relative increase", the
/// y-axis of Figs. 6–8 and 11). Zero or missing first elements yield an
/// all-zero series.
pub fn relative_increase(series: &[f64]) -> Vec<f64> {
    match series.first() {
        Some(&first) if first != 0.0 => series.iter().map(|x| x / first).collect(),
        _ => vec![0.0; series.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["n", "U(T)"]);
        t.push_row(vec!["1000".into(), "3.5".into()]);
        t.push_row(vec!["10000".into(), "45.25".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        // Right-aligned numeric column: both rows end at the same column.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn csv_escapes_special_fields() {
        let mut t = Table::new("x", &["name", "value"]);
        t.push_row(vec!["with,comma".into(), "with\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn figure_renders_claims_with_status() {
        let mut f = Figure::new("fig0", "demo figure");
        f.claim("grass is green", true);
        f.claim("water is dry", false);
        f.known_divergence("the moon is cheese", false);
        f.known_divergence("the sun is hot", true);
        let s = f.render();
        assert!(s.contains("[PASS] grass is green"));
        assert!(s.contains("[FAIL] water is dry"));
        assert!(s.contains("[KNOWN DIVERGENCE] the moon is cheese"));
        assert!(s.contains("[PASS] the sun is hot"), "a known divergence that holds passes");
        assert!(!f.all_claims_hold());
    }

    #[test]
    fn relative_increase_normalizes_to_first() {
        assert_eq!(relative_increase(&[2.0, 4.0, 6.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(relative_increase(&[0.0, 4.0]), vec![0.0, 0.0]);
        assert_eq!(relative_increase(&[]), Vec::<f64>::new());
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f2(3.21987), "3.22");
        assert_eq!(f4(0.000123), "0.0001");
    }
}
