//! Prints the design-space sweep over one F1 FPGA (§4.5, generalized).
fn main() {
    print!("{}", smappic_bench::design_sweep());
}
