//! The FPGA synthesis model: LUT utilization and achievable frequency per
//! configuration (Table 4 of the paper).
//!
//! The paper's numbers come from Vivado synthesis runs against the VU9P.
//! We ship them as a calibration table plus an analytic model fitted to
//! those rows (shell + per-node + per-tile LUT costs) for unseen shapes —
//! documented deviation #5 in DESIGN.md.

/// Result of "synthesizing" a BxC node/tile arrangement for one VU9P FPGA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Synthesis {
    /// Achievable fabric frequency in MHz.
    pub frequency_mhz: u32,
    /// LUT utilization as a percentage of the VU9P.
    pub lut_utilization: f64,
    /// True when the configuration does not fit / close timing.
    pub feasible: bool,
}

/// Calibration rows straight from Table 4: (nodes B, tiles C, MHz, LUT%).
pub const TABLE4: [(usize, usize, u32, f64); 5] =
    [(1, 12, 75, 97.0), (1, 10, 100, 83.0), (2, 4, 100, 73.0), (2, 5, 75, 88.0), (4, 2, 100, 87.0)];

/// Analytic LUT model fitted to Table 4: shell ≈ 9 %, each node's
/// uncore (memory controller, chipset, bridge) ≈ 4 %, each Ariane tile
/// (core + BPC + LLC slice + routers) ≈ 7 %. The 4x2 row sits ~6 % above
/// the plain fit (crossbar + replicated I/O at B=4), captured with a
/// per-extra-node-pair crossbar term.
fn lut_estimate(nodes: usize, tiles_per_node: usize) -> f64 {
    let shell = 9.0;
    let per_node = 4.0;
    let per_tile = 7.0;
    // Crossbar ports grow with node count; negligible below 3 nodes.
    let xbar = match nodes {
        0..=2 => 0.0,
        3 => 3.0,
        _ => 6.0,
    };
    shell + per_node * nodes as f64 + per_tile * (nodes * tiles_per_node) as f64 + xbar
}

/// Synthesizes a BxC arrangement.
///
/// Known Table 4 configurations return the paper's measured numbers;
/// everything else uses the fitted analytic model. Frequency drops to
/// 75 MHz when utilization crosses 85 % (routing congestion dominates
/// timing on a nearly-full VU9P) — except when the calibration table says
/// otherwise, which it does for the 4x2 row (87 % but a short, regular
/// critical path).
pub fn synthesize(nodes: usize, tiles_per_node: usize) -> Synthesis {
    for &(b, c, mhz, lut) in &TABLE4 {
        if b == nodes && c == tiles_per_node {
            return Synthesis { frequency_mhz: mhz, lut_utilization: lut, feasible: true };
        }
    }
    let lut = lut_estimate(nodes, tiles_per_node);
    let feasible = lut <= 100.0 && (1..=4).contains(&nodes);
    let frequency_mhz = if lut > 85.0 { 75 } else { 100 };
    Synthesis { frequency_mhz, lut_utilization: lut, feasible }
}

/// The most tiles per node any shape is considered with: the ceiling
/// [`max_tiles`] scans up to, and the bound a submitted job's shape is
/// held to.
pub const MAX_TILES_PER_NODE: usize = 64;

/// The largest tile count per node that fits at `nodes` nodes per FPGA
/// (paper: "F1 FPGAs can fit at most 12 Ariane tiles").
pub fn max_tiles(nodes: usize) -> usize {
    (1..=MAX_TILES_PER_NODE).take_while(|&c| synthesize(nodes, c).feasible).last().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_rows_are_reproduced_exactly() {
        for &(b, c, mhz, lut) in &TABLE4 {
            let s = synthesize(b, c);
            assert_eq!(s.frequency_mhz, mhz, "{b}x{c}");
            assert!((s.lut_utilization - lut).abs() < 1e-9, "{b}x{c}");
            assert!(s.feasible);
        }
    }

    #[test]
    fn analytic_model_tracks_calibration_points() {
        // The fit should land within a few percent of the measured rows.
        for &(b, c, _, lut) in &TABLE4 {
            let est = lut_estimate(b, c);
            assert!((est - lut).abs() <= 6.0, "{b}x{c}: fit {est:.1}% vs measured {lut:.1}%");
        }
    }

    #[test]
    fn thirteen_tiles_do_not_fit() {
        // §4.8: at most 12 Ariane tiles per FPGA.
        assert!(!synthesize(1, 13).feasible);
        assert_eq!(max_tiles(1), 12);
    }

    #[test]
    fn fuller_fpgas_run_slower() {
        assert_eq!(synthesize(1, 12).frequency_mhz, 75);
        assert_eq!(synthesize(1, 10).frequency_mhz, 100);
        assert_eq!(synthesize(1, 2).frequency_mhz, 100);
    }

    #[test]
    fn five_nodes_are_infeasible() {
        assert!(!synthesize(5, 1).feasible, "only four DDR4 controllers per F1 FPGA");
    }
}
