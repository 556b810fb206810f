//! Plain-text table rendering for the experiment binaries.

/// One table cell.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Left-aligned text.
    Text(String),
    /// Right-aligned number rendered with two decimals.
    Num(f64),
    /// Right-aligned `mean ± std` percentage pair (inputs are fractions).
    Pct(f64, f64),
    /// Empty cell.
    Empty,
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(v) => format!("{v:.2}"),
            Cell::Pct(mean, std) => format!("{:.2} \u{00b1} {:.2}", mean * 100.0, std * 100.0),
            Cell::Empty => String::new(),
        }
    }

    fn right_aligned(&self) -> bool {
        !matches!(self, Cell::Text(_))
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

/// Render rows (the first being the header) as an aligned text table.
pub fn format_table(rows: &[Vec<Cell>]) -> String {
    let columns = rows.iter().map(Vec::len).max().unwrap_or(0);
    let rendered: Vec<Vec<String>> =
        rows.iter().map(|r| r.iter().map(Cell::render).collect()).collect();
    let mut widths = vec![0usize; columns];
    for row in &rendered {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in rendered.iter().enumerate() {
        for (ci, cell) in row.iter().enumerate() {
            if ci > 0 {
                out.push_str("  ");
            }
            let pad = widths[ci].saturating_sub(cell.chars().count());
            let right = rows[ri].get(ci).is_some_and(Cell::right_aligned) && ri > 0;
            if right {
                out.extend(std::iter::repeat_n(' ', pad));
                out.push_str(cell);
            } else {
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', pad));
            }
        }
        // Trim trailing padding.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
            out.extend(std::iter::repeat_n('-', total));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let rows = vec![
            vec![Cell::from("name"), Cell::from("value")],
            vec![Cell::from("alpha"), Cell::Num(1.5)],
            vec![Cell::from("b"), Cell::Num(22.125)],
        ];
        let t = format_table(&rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("1.50"));
        assert!(lines[3].contains("22.1"));
    }

    #[test]
    fn pct_cells_match_paper_format() {
        assert_eq!(Cell::Pct(0.9278, 0.0513).render(), "92.78 \u{00b1} 5.13");
    }

    #[test]
    fn empty_input() {
        assert_eq!(format_table(&[]), "");
    }
}
