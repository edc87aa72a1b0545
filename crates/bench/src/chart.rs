//! Terminal charts for the figure binaries: multi-series line plots on a
//! character grid, with log-x support for the error-rate sweeps.
//!
//! Deliberately dependency-free; the figures this renders are tables of
//! 5-10 points per series, which a 60×16 character canvas shows clearly.

/// One plotted series.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// Legend label.
    pub(crate) label: String,
    /// (x, y) points, any order.
    pub(crate) points: Vec<(f64, f64)>,
}

/// Chart configuration.
#[derive(Debug, Clone)]
pub(crate) struct ChartSpec {
    /// Title printed above the canvas.
    pub(crate) title: String,
    /// Y-axis label.
    pub(crate) y_label: String,
    /// X-axis label.
    pub(crate) x_label: String,
    /// Plot x on a log10 scale (error-rate sweeps).
    pub(crate) log_x: bool,
    /// Plot y on a log10 scale (latency-collapse sweeps).
    pub(crate) log_y: bool,
    /// Canvas width in characters (plot area).
    pub(crate) width: usize,
    /// Canvas height in characters (plot area).
    pub(crate) height: usize,
}

impl Default for ChartSpec {
    fn default() -> Self {
        ChartSpec {
            title: String::new(),
            y_label: String::new(),
            x_label: String::new(),
            log_x: false,
            log_y: false,
            width: 60,
            height: 14,
        }
    }
}

/// Marker characters assigned to series in order.
const MARKERS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

/// Renders the series onto a character canvas.
///
/// Returns a ready-to-print string. Series are drawn in order; later
/// series overwrite earlier ones where they collide (the legend
/// disambiguates).
///
/// # Panics
///
/// Panics if `spec.width` or `spec.height` is zero.
pub(crate) fn render(spec: &ChartSpec, series: &[Series]) -> String {
    assert!(
        spec.width > 0 && spec.height > 0,
        "canvas must be non-empty"
    );
    let mut out = String::new();
    if !spec.title.is_empty() {
        out.push_str(&spec.title);
        out.push('\n');
    }
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if pts.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let tx = |x: f64| if spec.log_x { x.log10() } else { x };
    let ty = |y: f64| if spec.log_y { y.max(1e-9).log10() } else { y };
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = if spec.log_y {
        (f64::INFINITY, f64::NEG_INFINITY)
    } else {
        (0.0f64, f64::NEG_INFINITY)
    };
    for &(x, y) in &pts {
        let x = tx(x);
        let y = ty(y);
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < 1e-12 {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < 1e-12 {
        y_max = y_min + 1.0;
    }

    let mut canvas = vec![vec![' '; spec.width]; spec.height];
    for (si, s) in series.iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        for &(x, y) in &s.points {
            if !(x.is_finite() && y.is_finite()) {
                continue;
            }
            let cx = ((tx(x) - x_min) / (x_max - x_min) * (spec.width - 1) as f64).round() as usize;
            let cy =
                ((ty(y) - y_min) / (y_max - y_min) * (spec.height - 1) as f64).round() as usize;
            let row = spec.height - 1 - cy.min(spec.height - 1);
            canvas[row][cx.min(spec.width - 1)] = marker;
        }
    }

    let y_fmt = |v: f64| {
        let v = if spec.log_y { 10f64.powf(v) } else { v };
        if v.abs() >= 1000.0 {
            format!("{v:>9.0}")
        } else {
            format!("{v:>9.2}")
        }
    };
    for (i, row) in canvas.iter().enumerate() {
        let label = if i == 0 {
            y_fmt(y_max)
        } else if i == spec.height - 1 {
            y_fmt(y_min)
        } else {
            " ".repeat(9)
        };
        out.push_str(&label);
        out.push_str(" |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(9));
    out.push_str(" +");
    out.push_str(&"-".repeat(spec.width));
    out.push('\n');
    let x_lo = if spec.log_x {
        format!("1e{x_min:.0}")
    } else {
        format!("{x_min:.2}")
    };
    let x_hi = if spec.log_x {
        format!("1e{x_max:.0}")
    } else {
        format!("{x_max:.2}")
    };
    out.push_str(&format!(
        "{:>11}{}{:>width$}\n",
        x_lo,
        spec.x_label,
        x_hi,
        width = spec
            .width
            .saturating_sub(spec.x_label.len() + x_lo.len().saturating_sub(2))
    ));
    out.push_str("  legend: ");
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("{} {}  ", MARKERS[si % MARKERS.len()], s.label));
    }
    if !spec.y_label.is_empty() {
        out.push_str(&format!("   [y: {}]", spec.y_label));
    }
    out.push('\n');
    out
}

/// Builds chart series from sweep [`crate::Point`]s.
pub(crate) fn series_from_points(
    points: &[crate::Point],
    metric: impl Fn(&ftnoc_sim::SimReport) -> f64,
) -> Vec<Series> {
    let mut out: Vec<Series> = Vec::new();
    for p in points {
        let y = metric(&p.report);
        match out.iter_mut().find(|s| s.label == p.series) {
            Some(s) => s.points.push((p.x, y)),
            None => out.push(Series {
                label: p.series.clone(),
                points: vec![(p.x, y)],
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChartSpec {
        ChartSpec {
            title: "t".into(),
            y_label: "cycles".into(),
            x_label: "rate".into(),
            log_x: true,
            width: 40,
            height: 8,
            ..ChartSpec::default()
        }
    }

    #[test]
    fn renders_markers_for_each_series() {
        let s = vec![
            Series {
                label: "HBH".into(),
                points: vec![(1e-5, 30.0), (1e-3, 31.0), (1e-1, 32.0)],
            },
            Series {
                label: "E2E".into(),
                points: vec![(1e-5, 35.0), (1e-3, 60.0), (1e-1, 900.0)],
            },
        ];
        let chart = render(&spec(), &s);
        assert!(chart.contains('*'), "{chart}");
        assert!(chart.contains('o'), "{chart}");
        assert!(chart.contains("HBH"));
        assert!(chart.contains("E2E"));
        assert!(chart.contains("900"), "y max label:\n{chart}");
    }

    #[test]
    fn empty_series_say_no_data() {
        let chart = render(&spec(), &[]);
        assert!(chart.contains("no data"));
    }

    #[test]
    fn flat_series_do_not_divide_by_zero() {
        let s = vec![Series {
            label: "flat".into(),
            points: vec![(0.1, 5.0), (0.2, 5.0)],
        }];
        let chart = render(
            &ChartSpec {
                log_x: false,
                ..spec()
            },
            &s,
        );
        assert!(chart.contains('*'));
    }

    #[test]
    fn log_x_spreads_decades_evenly() {
        // Three decades should land at left, middle, right.
        let s = vec![Series {
            label: "d".into(),
            points: vec![(1e-4, 1.0), (1e-3, 1.0), (1e-2, 1.0)],
        }];
        let chart = render(
            &ChartSpec {
                width: 41,
                height: 3,
                log_x: true,
                ..ChartSpec::default()
            },
            &s,
        );
        let plot_row = chart
            .lines()
            .find(|l| l.contains('*'))
            .expect("a row with markers");
        let cols: Vec<usize> = plot_row
            .char_indices()
            .filter(|(_, c)| *c == '*')
            .map(|(i, _)| i)
            .collect();
        assert_eq!(cols.len(), 3, "{chart}");
        let gap1 = cols[1] - cols[0];
        let gap2 = cols[2] - cols[1];
        assert!((gap1 as i64 - gap2 as i64).abs() <= 1, "{chart}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_canvas_panics() {
        let _ = render(
            &ChartSpec {
                width: 0,
                ..ChartSpec::default()
            },
            &[],
        );
    }
}
