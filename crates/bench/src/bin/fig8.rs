//! Regenerates Fig 8: integer-sort thread scaling, NUMA on/off.
//!
//! Flags: --keys N (default 38400; the paper used 134M on real FPGAs).
use smappic_core::Config;
fn main() {
    let keys = smappic_bench::arg_usize("--keys", 38400);
    let cfg = Config::new(4, 1, 12);
    print!("{}", smappic_bench::fig8(cfg, keys, &[3, 6, 12, 24, 48]));
}
