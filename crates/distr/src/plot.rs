//! ASCII density plots — the text-mode replacement for the GDS's X11 display.
//!
//! The paper notes that "if the X11 window system is not supported, the GDS
//! can still be used to specify distributions, but no graphical display will
//! be available" (Section 4.1.1). This module restores a display channel that
//! works everywhere: fixed-width character plots suitable for terminals, logs
//! and the experiment reports in `EXPERIMENTS.md`.

use crate::Distribution;

/// Renders the density of `dist` over `[x_min, x_max]` as an ASCII plot.
///
/// `width`/`height` are clamped to sensible minimums (16×4). The plot marks
/// the curve with `*`, includes a y-axis scale of the peak density, and an
/// x-axis rule with the endpoints labeled.
pub fn plot_pdf(
    dist: &dyn Distribution,
    x_min: f64,
    x_max: f64,
    width: usize,
    height: usize,
) -> String {
    plot_function(|x| dist.pdf(x), x_min, x_max, width, height)
}

/// Renders an arbitrary function as an ASCII plot (see [`plot_pdf`]).
pub(crate) fn plot_function<F: Fn(f64) -> f64>(
    f: F,
    x_min: f64,
    x_max: f64,
    width: usize,
    height: usize,
) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let span = (x_max - x_min).max(f64::MIN_POSITIVE);

    let ys: Vec<f64> = (0..width)
        .map(|i| {
            let x = x_min + span * i as f64 / (width - 1) as f64;
            let y = f(x);
            if y.is_finite() {
                y.max(0.0)
            } else {
                0.0
            }
        })
        .collect();
    let y_max = ys
        .iter()
        .cloned()
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);

    let mut grid = vec![vec![' '; width]; height];
    for (i, &y) in ys.iter().enumerate() {
        let level = ((y / y_max) * (height - 1) as f64).round() as usize;
        let row = height - 1 - level.min(height - 1);
        grid[row][i] = '*';
    }

    let mut out = String::new();
    out.push_str(&format!("{y_max:>10.4} +\n"));
    for row in grid {
        out.push_str("           |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("           +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "            {x_min:<12.2}{:>w$.2}\n",
        x_max,
        w = width.saturating_sub(12)
    ));
    out
}

/// Renders a histogram of `(bin_center, count)` pairs as horizontal ASCII
/// bars, used to display the "before/after smoothing" figures (5.3–5.5).
pub fn plot_histogram(bins: &[(f64, f64)], width: usize) -> String {
    let width = width.max(16);
    let max_count = bins.iter().map(|&(_, c)| c).fold(0.0f64, f64::max);
    let mut out = String::new();
    if max_count <= 0.0 {
        out.push_str("(empty histogram)\n");
        return out;
    }
    for &(center, count) in bins {
        let bar_len = ((count / max_count) * width as f64).round() as usize;
        out.push_str(&format!(
            "{center:>12.2} | {:<w$} {count:.1}\n",
            "#".repeat(bar_len),
            w = width
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exponential;

    #[test]
    fn plot_contains_curve_and_axes() {
        let d = Exponential::new(22.1).unwrap();
        let s = plot_pdf(&d, 0.0, 100.0, 60, 12);
        assert!(s.contains('*'));
        assert!(s.contains('+'));
        assert!(s.contains("0.00"));
        assert!(s.contains("100.00"));
        // One curve mark per column.
        let stars = s.chars().filter(|&c| c == '*').count();
        assert_eq!(stars, 60);
    }

    #[test]
    fn plot_dimensions_are_clamped() {
        let d = Exponential::new(1.0).unwrap();
        let s = plot_pdf(&d, 0.0, 5.0, 1, 1);
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn plot_handles_infinite_density() {
        // Gamma with α < 1 has infinite density at its offset.
        let d = crate::MultiStageGamma::single(0.5, 10.0, 0.0).unwrap();
        let s = plot_pdf(&d, 0.0, 50.0, 40, 8);
        assert!(s.contains('*'));
    }

    #[test]
    fn histogram_renders_bars() {
        let s = plot_histogram(&[(1.0, 10.0), (2.0, 5.0), (3.0, 0.0)], 20);
        assert!(s.contains("####################"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn empty_histogram_is_handled() {
        let s = plot_histogram(&[(1.0, 0.0)], 20);
        assert!(s.contains("empty"));
    }
}
