//! The paper's artefact as a gate: every table and figure, rendered
//! through the same library functions and default arguments as its bin,
//! must reproduce the committed `results/*.txt` byte for byte. A
//! deliberate change re-records the file in the same PR
//! (`cargo run --release -p smappic-bench --bin fig7 > results/fig7.txt`).
//!
//! Release only (≈5 s there; the simulated figures take minutes in a
//! debug build).

use smappic_core::Config;

#[test]
#[cfg_attr(debug_assertions, ignore = "simulates whole figures: run with --release")]
fn every_table_and_figure_reproduces_results_byte_for_byte() {
    let n4 = || Config::new(4, 1, 12);
    let fig13 = format!("{}\n{}", smappic_bench::fig13_render(), smappic_bench::fig13_hello());
    let rendered = [
        ("table1", smappic_bench::table1()),
        ("table2", smappic_bench::table2()),
        ("table3", smappic_bench::table3()),
        ("table4", smappic_bench::table4()),
        ("fig7", smappic_bench::fig7(4, 12, 20)),
        ("fig8", smappic_bench::fig8(n4(), 38400, &[3, 6, 12, 24, 48])),
        ("fig9", smappic_bench::fig9(n4(), 4800)),
        ("fig10", smappic_bench::fig10(512)),
        ("fig11", smappic_bench::fig11(256)),
        ("fig13", fig13),
        ("fig13_hello", smappic_bench::fig13_hello()),
        ("fig14", smappic_bench::fig14_render()),
    ];
    for (name, text) in rendered {
        let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(text == want, "{name} no longer reproduces results/{name}.txt:\n{text}");
    }
}
