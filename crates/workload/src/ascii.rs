//! Minimal ASCII rendering helpers for the figure reproductions: the
//! paper's bar charts become stacked character bars, its percentage
//! charts become tables with proportional bars.

/// A horizontal bar of `#` characters proportional to `value / max`,
/// `width` characters at full scale.
pub(crate) fn hbar(value: f64, max: f64, width: usize, ch: char) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    std::iter::repeat_n(ch, n.min(width)).collect()
}

/// A stacked horizontal bar: one glyph per component, proportional
/// lengths, total scaled to `max` over `width` characters.
pub(crate) fn stacked_bar(parts: &[(f64, char)], max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let mut out = String::new();
    for &(v, ch) in parts {
        let n = ((v / max) * width as f64).round() as usize;
        out.extend(std::iter::repeat_n(ch, n));
    }
    if out.len() > width {
        out.truncate(width);
    }
    out
}

/// Formats a simple fixed-width table: headers plus rows. Column widths
/// adapt to the longest cell.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<w$}"));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Formats seconds with 3 decimals.
pub fn secs(t: f64) -> String {
    format!("{t:.3}")
}

/// Formats a percentage with 1 decimal.
pub(crate) fn pct(v: f64) -> String {
    format!("{v:5.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbar_proportions() {
        assert_eq!(hbar(5.0, 10.0, 10, '#'), "#####");
        assert_eq!(hbar(10.0, 10.0, 10, '#'), "##########");
        assert_eq!(hbar(0.0, 10.0, 10, '#'), "");
        assert_eq!(hbar(20.0, 10.0, 10, '#').len(), 10, "clamped at width");
    }

    #[test]
    fn stacked_bar_concatenates() {
        let bar = stacked_bar(&[(5.0, '#'), (5.0, '+')], 10.0, 10);
        assert_eq!(bar, "#####+++++");
    }

    #[test]
    fn table_alignment() {
        let t = table(
            &["procs", "time"],
            &[
                vec!["1".into(), "6.300".into()],
                vec!["8".into(), "4.100".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("procs"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(pct(42.0), " 42.0%");
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        table(&["a", "b"], &[vec!["1".into()]]);
    }
}
