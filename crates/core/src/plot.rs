//! Terminal line plots of figure series.
//!
//! The paper presents its results as log–log line charts (`N_tot` vs
//! `T_switch`, one curve per protocol). [`AsciiPlot`] renders the same
//! picture in a terminal so `mck fig N --plot` can show the curves, not just
//! the tables. Log scaling on both axes is the default, matching the
//! figures.

/// One named data series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. "TP").
    pub name: String,
    /// `(x, y)` points; x ascending.
    pub points: Vec<(f64, f64)>,
}

/// Axis scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Log10 axis (all values must be positive).
    Log,
}

impl Scale {
    fn map(self, v: f64) -> f64 {
        match self {
            Scale::Linear => v,
            Scale::Log => {
                assert!(v > 0.0, "log-scale value must be positive, got {v}");
                v.log10()
            }
        }
    }
}

/// A character-grid line plot.
#[derive(Debug, Clone)]
pub struct AsciiPlot {
    width: usize,
    height: usize,
    x_scale: Scale,
    y_scale: Scale,
    series: Vec<Series>,
    x_label: String,
    y_label: String,
}

/// Marker characters assigned to series in order.
const MARKS: &[char] = &['*', 'o', '+', 'x', '#', '@'];

impl AsciiPlot {
    /// A plot surface of `width`×`height` characters (log–log by default,
    /// like the paper's figures).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 16 && height >= 6, "plot too small to be legible");
        AsciiPlot {
            width,
            height,
            x_scale: Scale::Log,
            y_scale: Scale::Log,
            series: Vec::new(),
            x_label: String::new(),
            y_label: String::new(),
        }
    }

    /// Sets axis scales.
    pub fn scales(mut self, x: Scale, y: Scale) -> Self {
        self.x_scale = x;
        self.y_scale = y;
        self
    }

    /// Sets axis labels.
    pub fn labels(mut self, x: &str, y: &str) -> Self {
        self.x_label = x.to_string();
        self.y_label = y.to_string();
        self
    }

    /// Adds a series (at most six, one marker character each).
    pub fn add_series(&mut self, name: &str, points: Vec<(f64, f64)>) {
        assert!(
            self.series.len() < MARKS.len(),
            "too many series for distinct markers"
        );
        assert!(!points.is_empty(), "series '{name}' is empty");
        self.series.push(Series {
            name: name.to_string(),
            points,
        });
    }

    /// Renders the plot with axes, tick labels and a legend.
    pub fn render(&self) -> String {
        assert!(!self.series.is_empty(), "nothing to plot");
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| self.x_scale.map(p.0)))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| self.y_scale.map(p.1)))
            .collect();
        let (x_min, x_max) = bounds(&xs);
        let (y_min, y_max) = bounds(&ys);

        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, s) in self.series.iter().enumerate() {
            let mark = MARKS[si];
            // Plot line segments between consecutive points, then overdraw
            // the points themselves with the series marker.
            let cells: Vec<(usize, usize)> = s
                .points
                .iter()
                .map(|&(x, y)| {
                    (
                        project(self.x_scale.map(x), x_min, x_max, self.width - 1),
                        project(self.y_scale.map(y), y_min, y_max, self.height - 1),
                    )
                })
                .collect();
            for w in cells.windows(2) {
                for (cx, cy) in line_cells(w[0], w[1]) {
                    let row = self.height - 1 - cy;
                    if grid[row][cx] == ' ' {
                        grid[row][cx] = '.';
                    }
                }
            }
            for &(cx, cy) in &cells {
                grid[self.height - 1 - cy][cx] = mark;
            }
        }

        let y_hi = unmap(self.y_scale, y_max);
        let y_lo = unmap(self.y_scale, y_min);
        let x_hi = unmap(self.x_scale, x_max);
        let x_lo = unmap(self.x_scale, x_min);

        let mut out = String::new();
        if !self.y_label.is_empty() {
            out.push_str(&format!("{}\n", self.y_label));
        }
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{y_hi:>9.0}")
            } else if i == self.height - 1 {
                format!("{y_lo:>9.0}")
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
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        out.push_str(&format!(
            "{:>11.0}{:>width$.0}  {}\n",
            x_lo,
            x_hi,
            self.x_label,
            width = self.width - 1
        ));
        out.push_str("  legend: ");
        let legend: Vec<String> = self
            .series
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{} {}", MARKS[i], s.name))
            .collect();
        out.push_str(&legend.join("   "));
        out.push('\n');
        out
    }
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (max - min).abs() < 1e-12 {
        (min - 0.5, max + 0.5)
    } else {
        (min, max)
    }
}

fn project(v: f64, lo: f64, hi: f64, cells: usize) -> usize {
    let frac = (v - lo) / (hi - lo);
    (frac * cells as f64).round().clamp(0.0, cells as f64) as usize
}

fn unmap(scale: Scale, v: f64) -> f64 {
    match scale {
        Scale::Linear => v,
        Scale::Log => 10f64.powf(v),
    }
}

/// Bresenham-ish cells between two grid points.
fn line_cells(a: (usize, usize), b: (usize, usize)) -> Vec<(usize, usize)> {
    let (x0, y0) = (a.0 as i64, a.1 as i64);
    let (x1, y1) = (b.0 as i64, b.1 as i64);
    let dx = (x1 - x0).abs();
    let dy = (y1 - y0).abs();
    let steps = dx.max(dy).max(1);
    (0..=steps)
        .map(|i| {
            let t = i as f64 / steps as f64;
            (
                (x0 as f64 + t * (x1 - x0) as f64).round() as usize,
                (y0 as f64 + t * (y1 - y0) as f64).round() as usize,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plot() -> AsciiPlot {
        let mut p = AsciiPlot::new(40, 10).labels("T_switch", "N_tot");
        p.add_series("TP", vec![(100.0, 20000.0), (1000.0, 20000.0), (10000.0, 20000.0)]);
        p.add_series("BCS", vec![(100.0, 5000.0), (1000.0, 800.0), (10000.0, 120.0)]);
        p
    }

    #[test]
    fn renders_axes_and_legend() {
        let s = demo_plot().render();
        assert!(s.contains("legend: * TP   o BCS"));
        assert!(s.contains("N_tot"));
        assert!(s.contains("T_switch"));
        assert!(s.contains('|'));
        assert!(s.contains('+'));
        // Tick labels show the data range.
        assert!(s.contains("20000"));
        assert!(s.contains("100"));
    }

    #[test]
    fn flat_series_occupies_top_row() {
        let s = demo_plot().render();
        let first_grid_line = s.lines().nth(1).unwrap();
        assert!(
            first_grid_line.contains('*'),
            "TP's flat max curve should sit on the top row: {first_grid_line}"
        );
    }

    #[test]
    fn markers_present_for_each_series() {
        let s = demo_plot().render();
        assert!(s.matches('*').count() >= 3);
        assert!(s.matches('o').count() >= 3);
    }

    #[test]
    fn linear_scale_supported() {
        let mut p = AsciiPlot::new(30, 8).scales(Scale::Linear, Scale::Linear);
        p.add_series("a", vec![(0.0, 0.0), (1.0, 1.0)]);
        let s = p.render();
        assert!(s.contains('*'));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn log_scale_rejects_zero() {
        let mut p = AsciiPlot::new(30, 8);
        p.add_series("bad", vec![(0.0, 1.0)]);
        let _ = p.render();
    }

    #[test]
    #[should_panic(expected = "nothing to plot")]
    fn empty_plot_rejected() {
        let p = AsciiPlot::new(30, 8);
        let _ = p.render();
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_surface_rejected() {
        let _ = AsciiPlot::new(5, 2);
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let mut p = AsciiPlot::new(20, 6).scales(Scale::Linear, Scale::Linear);
        p.add_series("c", vec![(1.0, 5.0), (2.0, 5.0)]);
        let s = p.render();
        assert!(s.contains('*'));
    }

    #[test]
    fn line_cells_connect_endpoints() {
        let cells = line_cells((0, 0), (4, 2));
        assert_eq!(cells.first(), Some(&(0, 0)));
        assert_eq!(cells.last(), Some(&(4, 2)));
        assert!(cells.len() >= 5);
    }
}
