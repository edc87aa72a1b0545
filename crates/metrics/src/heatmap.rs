//! ASCII router-grid heatmaps of per-router metrics.
//!
//! One character per router, intensity from a 10-step ramp normalized
//! to the hottest router, with row/column rulers and a legend naming
//! the hottest cell — enough to spot a hot link or a dead region at a
//! glance in a terminal or a CI log. [`render_layout`] adapts the grid
//! to the run's topology: wrap annotations for a torus, a
//! terminals-per-router note for a concentrated mesh, and tile
//! separators for a chiplet NoI.

/// Intensity ramp, cold to hot. A zero cell always renders as the
/// first character; the hottest non-zero cell as the last.
const RAMP: &[u8] = b" .:-=+*#%@";

/// A dead router's cell. Distinct from the idle blank: `' '` means the
/// router computed nothing this run, `✖` means it is no longer part of
/// the network at all (killed by schedule or wear-out).
const DEAD: char = '✖';

/// Topology-specific drawing style for a router grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Plain 2D mesh — the bare grid.
    Mesh,
    /// Torus — the mesh grid plus a legend note that both dimensions
    /// wrap (column 0 is adjacent to the last column, ditto rows).
    Torus,
    /// Concentrated mesh — one cell per *router*; the legend notes how
    /// many terminals each cell aggregates.
    CMesh {
        /// Terminals per router.
        concentration: usize,
    },
    /// Chiplet NoI — the grid is drawn with `|`/`-` separators between
    /// `chip_w × chip_h` tiles (inter-tile traffic funnels through one
    /// gateway per facing edge, so per-tile hot borders are the thing
    /// to look for).
    Chiplet {
        /// Tile width in routers.
        chip_w: usize,
        /// Tile height in routers.
        chip_h: usize,
    },
}

impl LayoutKind {
    /// The compact string stamped into a metrics meta line
    /// (`mesh`, `torus`, `cmesh:C`, `chiplet:CWxCH`).
    pub fn meta_str(&self) -> String {
        match self {
            LayoutKind::Mesh => "mesh".to_string(),
            LayoutKind::Torus => "torus".to_string(),
            LayoutKind::CMesh { concentration } => format!("cmesh:{concentration}"),
            LayoutKind::Chiplet { chip_w, chip_h } => format!("chiplet:{chip_w}x{chip_h}"),
        }
    }

    /// Parses a meta-line topology string. Anything unrecognised
    /// (including the absent field of pre-topology metrics files)
    /// falls back to [`LayoutKind::Mesh`] so old files keep rendering.
    pub fn parse(s: &str) -> LayoutKind {
        if s == "torus" {
            return LayoutKind::Torus;
        }
        if let Some(c) = s.strip_prefix("cmesh:") {
            if let Ok(concentration) = c.parse() {
                return LayoutKind::CMesh { concentration };
            }
        }
        if let Some(dims) = s.strip_prefix("chiplet:") {
            if let Some((w, h)) = dims.split_once('x') {
                if let (Ok(chip_w), Ok(chip_h)) = (w.parse(), h.parse()) {
                    return LayoutKind::Chiplet { chip_w, chip_h };
                }
            }
        }
        LayoutKind::Mesh
    }
}

/// Grid shape plus topology annotations for [`render_layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoLayout {
    /// Grid width in routers.
    pub width: usize,
    /// Grid height in routers.
    pub height: usize,
    /// Drawing style.
    pub kind: LayoutKind,
}

/// Renders `values` (router-id order) under a topology-aware layout.
/// Mesh draws the bare grid; torus and cmesh add a legend note;
/// chiplet draws tile separators. `dead[i]` marks router `i` as dead —
/// its cell renders `✖` instead of an intensity; pass `&[]` when
/// the run had no router deaths (old metrics files).
///
/// # Panics
///
/// Panics if `values.len() != layout.width * layout.height`, or if a
/// chiplet layout's tile dimensions are zero.
pub fn render_layout(label: &str, layout: &TopoLayout, values: &[u64], dead: &[bool]) -> String {
    match layout.kind {
        LayoutKind::Mesh => render(label, layout.width, layout.height, values, dead),
        LayoutKind::Torus => {
            let mut s = render(label, layout.width, layout.height, values, dead);
            s.push_str("    torus: rows and columns wrap around\n");
            s
        }
        LayoutKind::CMesh { concentration } => {
            let mut s = render(label, layout.width, layout.height, values, dead);
            s.push_str(&format!(
                "    cmesh: each cell aggregates {concentration} terminals\n"
            ));
            s
        }
        LayoutKind::Chiplet { chip_w, chip_h } => render_chiplet(
            label,
            layout.width,
            layout.height,
            chip_w,
            chip_h,
            values,
            dead,
        ),
    }
}

/// The chiplet two-level view: the router grid with `|` and `-`
/// separators between tiles.
fn render_chiplet(
    label: &str,
    width: usize,
    height: usize,
    chip_w: usize,
    chip_h: usize,
    values: &[u64],
    dead: &[bool],
) -> String {
    assert_eq!(
        values.len(),
        width * height,
        "heatmap shape mismatch: {} values for {width}x{height}",
        values.len()
    );
    assert!(chip_w > 0 && chip_h > 0, "zero chiplet tile");
    let max = values.iter().copied().max().unwrap_or(0);
    let total = saturating_sum(values);
    let mut out = String::new();
    out.push_str(&format!("{label} (total {total}, max {max})\n"));
    out.push_str("    ");
    for x in 0..width {
        if x > 0 && x % chip_w == 0 {
            out.push_str("  ");
        }
        out.push_str(&format!("{:>2}", x % 100));
    }
    out.push('\n');
    for y in 0..height {
        if y > 0 && y % chip_h == 0 {
            out.push_str("    ");
            for x in 0..width {
                if x > 0 && x % chip_w == 0 {
                    out.push_str("-+");
                }
                out.push_str("--");
            }
            out.push('\n');
        }
        out.push_str(&format!("{y:>3} "));
        for x in 0..width {
            if x > 0 && x % chip_w == 0 {
                out.push_str(" |");
            }
            let i = y * width + x;
            out.push(' ');
            out.push(glyph(values[i], max, is_dead(dead, i)));
        }
        out.push('\n');
    }
    if max > 0 {
        let (hx, hy) = hottest(width, values);
        out.push_str(&format!(
            "    scale `{}` 0..{max}, hottest ({hx},{hy}) in chip ({},{})\n",
            std::str::from_utf8(RAMP).expect("ascii ramp"),
            hx / chip_w,
            hy / chip_h,
        ));
    }
    push_dead_note(&mut out, dead);
    out.push_str(&format!(
        "    chiplet: {}x{} tiles of {chip_w}x{chip_h} routers, one gateway per facing edge\n",
        width / chip_w,
        height / chip_h,
    ));
    out
}

/// Renders `values` (node-id order, router `(x, y)` at `y * width + x`)
/// as a `width × height` grid. Row 0 is printed at the top. `dead[i]`
/// overrides router `i`'s cell with `✖` (`&[]` = nobody died).
/// Returns a multi-line string ending in a newline.
///
/// # Panics
///
/// Panics if `values.len() != width * height`.
pub fn render(label: &str, width: usize, height: usize, values: &[u64], dead: &[bool]) -> String {
    assert_eq!(
        values.len(),
        width * height,
        "heatmap shape mismatch: {} values for {width}x{height}",
        values.len()
    );
    let max = values.iter().copied().max().unwrap_or(0);
    let total = saturating_sum(values);
    let mut out = String::new();
    out.push_str(&format!("{label} (total {total}, max {max})\n"));
    out.push_str("    ");
    for x in 0..width {
        out.push_str(&format!("{:>2}", x % 100));
    }
    out.push('\n');
    for y in 0..height {
        out.push_str(&format!("{y:>3} "));
        for x in 0..width {
            let i = y * width + x;
            out.push(' ');
            out.push(glyph(values[i], max, is_dead(dead, i)));
        }
        out.push('\n');
    }
    if max > 0 {
        let (hx, hy) = hottest(width, values);
        out.push_str(&format!(
            "    scale `{}` 0..{max}, hottest ({hx},{hy})\n",
            std::str::from_utf8(RAMP).expect("ascii ramp")
        ));
    }
    push_dead_note(&mut out, dead);
    out
}

/// The ramp character for `v` against the run maximum.
fn cell(v: u64, max: u64) -> char {
    if v == 0 || max == 0 {
        return RAMP[0] as char;
    }
    // Linear bucket into ramp steps 1..=9 (0 is reserved for zero), so
    // any non-zero activity is visibly distinct from none.
    let idx = 1 + (v.saturating_mul(RAMP.len() as u64 - 2) / max) as usize;
    RAMP[idx.min(RAMP.len() - 1)] as char
}

/// A cell glyph: dead routers show [`DEAD`] whatever their cumulative
/// counter says (the counter is pre-death history, the glyph is current
/// state); live routers show the intensity ramp.
fn glyph(v: u64, max: u64, dead: bool) -> char {
    if dead {
        DEAD
    } else {
        cell(v, max)
    }
}

/// `dead` is allowed to be shorter than the grid (in particular empty,
/// for metrics files that predate router deaths): missing means alive.
fn is_dead(dead: &[bool], i: usize) -> bool {
    dead.get(i).copied().unwrap_or(false)
}

/// Legend line naming the dead-router glyph, only when someone died.
fn push_dead_note(out: &mut String, dead: &[bool]) {
    let n = dead.iter().filter(|&&d| d).count();
    if n > 0 {
        out.push_str(&format!(
            "    {DEAD} = dead router ({n}), distinct from idle ` `\n"
        ));
    }
}

/// Coordinates of the (first) maximum cell.
fn hottest(width: usize, values: &[u64]) -> (usize, usize) {
    let (i, _) = values
        .iter()
        .enumerate()
        .max_by_key(|(i, &v)| (v, std::cmp::Reverse(*i)))
        .expect("non-empty values");
    (i % width, i / width)
}

/// The sum of `values`, pinned at `u64::MAX`: a metrics file is text
/// from outside, and no count in it may overflow a total.
pub(crate) fn saturating_sum(values: &[u64]) -> u64 {
    values.iter().fold(0, |sum, &v| sum.saturating_add(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_extremes() {
        let mut values = vec![0u64; 12];
        values[5] = 100; // (1, 1) on a 4-wide grid
        values[0] = 1;
        let s = render("flits_routed", 4, 3, &values, &[]);
        assert!(s.contains("flits_routed (total 101, max 100)"));
        assert!(s.contains("hottest (1,1)"), "{s}");
        let rows: Vec<&str> = s.lines().collect();
        // header + ruler + 3 rows + legend
        assert_eq!(rows.len(), 6, "{s}");
        // Hot cell renders the last ramp char, zero cells the first.
        assert!(rows[3].contains('@'), "{s}");
        assert!(!rows[4].contains('@'), "{s}");
    }

    #[test]
    fn all_zero_has_no_legend() {
        let s = render("nacks", 2, 2, &[0, 0, 0, 0], &[]);
        assert!(!s.contains("hottest"));
        assert!(s.contains("nacks (total 0, max 0)"));
    }

    #[test]
    fn nonzero_cells_are_never_blank() {
        for v in 1..=10u64 {
            assert_ne!(cell(v, 10), ' ', "value {v} must be visible");
        }
        assert_eq!(cell(0, 10), ' ');
        assert_eq!(cell(10, 10), '@');
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_shape_panics() {
        render("x", 2, 2, &[1, 2, 3], &[]);
    }

    #[test]
    fn layout_kind_meta_round_trips() {
        for kind in [
            LayoutKind::Mesh,
            LayoutKind::Torus,
            LayoutKind::CMesh { concentration: 4 },
            LayoutKind::Chiplet {
                chip_w: 4,
                chip_h: 2,
            },
        ] {
            assert_eq!(LayoutKind::parse(&kind.meta_str()), kind);
        }
        // Unknown or absent strings fall back to mesh (old files).
        assert_eq!(LayoutKind::parse("banana"), LayoutKind::Mesh);
        assert_eq!(LayoutKind::parse(""), LayoutKind::Mesh);
        assert_eq!(LayoutKind::parse("cmesh:x"), LayoutKind::Mesh);
    }

    #[test]
    fn torus_and_cmesh_annotate_the_mesh_grid() {
        let layout = |kind| TopoLayout {
            width: 2,
            height: 2,
            kind,
        };
        let mesh = render_layout("m", &layout(LayoutKind::Mesh), &[1, 2, 3, 4], &[]);
        assert_eq!(mesh, render("m", 2, 2, &[1, 2, 3, 4], &[]));
        let torus = render_layout("m", &layout(LayoutKind::Torus), &[1, 2, 3, 4], &[]);
        assert!(torus.starts_with(&mesh), "{torus}");
        assert!(torus.contains("wrap around"), "{torus}");
        let cm = render_layout(
            "m",
            &layout(LayoutKind::CMesh { concentration: 4 }),
            &[1, 2, 3, 4],
            &[],
        );
        assert!(cm.contains("aggregates 4 terminals"), "{cm}");
    }

    #[test]
    fn dead_routers_render_crosses_not_blanks() {
        // Router 1 died with history (non-zero counter), router 2 died
        // idle, router 0 is alive-but-idle: the dead ones get ✖, the
        // idle one stays blank — state, not activity.
        let s = render(
            "flits_routed",
            2,
            2,
            &[0, 7, 0, 9],
            &[false, true, true, false],
        );
        // Two dead cells plus the one in the legend line.
        assert_eq!(s.matches('✖').count(), 3, "{s}");
        assert!(s.contains("✖ = dead router (2)"), "{s}");
        let rows: Vec<&str> = s.lines().collect();
        assert!(rows[2].contains('✖'), "{s}"); // row 0: routers 0,1
        assert!(rows[3].contains('✖'), "{s}"); // row 1: routers 2,3
                                               // The live hot router still ramps; totals keep pre-death history.
        assert!(s.contains("(total 16, max 9)"), "{s}");
        assert!(rows[3].contains('@'), "{s}");
        // No deaths → no legend line, byte-identical to the old output.
        let alive = render("flits_routed", 2, 2, &[0, 7, 0, 9], &[]);
        assert!(!alive.contains('✖'), "{alive}");
        assert!(!alive.contains("dead router"), "{alive}");
    }

    #[test]
    fn dead_note_rides_every_layout() {
        let dead = [true, false, false, false];
        for kind in [
            LayoutKind::Mesh,
            LayoutKind::Torus,
            LayoutKind::CMesh { concentration: 4 },
            LayoutKind::Chiplet {
                chip_w: 1,
                chip_h: 1,
            },
        ] {
            let layout = TopoLayout {
                width: 2,
                height: 2,
                kind,
            };
            let s = render_layout("m", &layout, &[1, 2, 3, 4], &dead);
            // One dead cell plus the one in the legend line.
            assert_eq!(s.matches('✖').count(), 2, "{kind:?}:\n{s}");
            assert!(s.contains("✖ = dead router (1)"), "{kind:?}:\n{s}");
        }
    }

    #[test]
    fn chiplet_grid_draws_tile_separators() {
        let layout = TopoLayout {
            width: 4,
            height: 4,
            kind: LayoutKind::Chiplet {
                chip_w: 2,
                chip_h: 2,
            },
        };
        let mut values = vec![0u64; 16];
        values[15] = 9; // router (3, 3) → chip (1, 1)
        let s = render_layout("gw", &layout, &values, &[]);
        assert!(s.contains(" |"), "column separator missing:\n{s}");
        assert!(s.contains("-+"), "row separator missing:\n{s}");
        assert!(s.contains("hottest (3,3) in chip (1,1)"), "{s}");
        assert!(s.contains("2x2 tiles of 2x2 routers"), "{s}");
        // header + ruler + 4 rows + 1 separator row + legend + note
        assert_eq!(s.lines().count(), 9, "{s}");
    }
}
