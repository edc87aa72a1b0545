//! The human-readable Table 1 report.

use std::fmt::Write as _;

use crate::area::Table1;

/// Renders the Table 1 reproduction side by side with the paper's values.
pub fn table1_report(t: &Table1) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: Power and Area Overhead of the AC Unit (measured vs paper)"
    );
    let _ = writeln!(out, "{:<28} {:>12} {:>14}", "Component", "Power", "Area");
    let _ = writeln!(
        out,
        "{:<28} {:>9.2} mW {:>11.6} mm2",
        "Generic NoC Router (5PC,4VC)",
        t.router.power.raw(),
        t.router.area.raw()
    );
    let _ = writeln!(
        out,
        "{:<28} {:>9.2} mW {:>11.6} mm2",
        "Allocation Comparator (AC)",
        t.ac.power.raw(),
        t.ac.area.raw()
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10.2} % {:>12.2} %",
        "AC overhead (measured)",
        t.power_overhead_percent(),
        t.area_overhead_percent()
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10.2} % {:>12.2} %",
        "AC overhead (paper)", 1.69, 1.19
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_report_includes_paper_reference() {
        let report = table1_report(&Table1::compute());
        assert!(report.contains("119.55"));
        assert!(report.contains("0.374862"));
        assert!(report.contains("paper"));
    }
}
