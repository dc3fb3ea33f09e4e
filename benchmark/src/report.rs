//! The modes that run every workload: `--all` and `--stability`, each
//! workload run in a child process of its own so that peak RSS and any
//! crash belong to one workload.

use std::process::{Command, ExitCode};

use crate::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Json;
use crate::out_dir;
use crate::stat::{median, quartile_spread};

/// The driver's command: builds the package and runs it, from the
/// repository root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// Seconds one driver run measures for (and the default of `--seconds`):
/// the longest that keeps the driver's 158 runs, each with its gate,
/// set-up and checkpoint rounds on top, inside its time cap with room for
/// a slower host.
pub const RUN_SECONDS: u64 = 12;

fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.as_str())),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// `BENCHMARK.json`, generated from the catalog so the two cannot differ.
pub fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]));
    Json::obj([
        ("command", Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(metric_json).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(metric_json).collect())),
    ])
}

/// One child run's result line, parsed.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Json,
}

impl Run {
    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

/// Runs one workload in a child of this executable and parses the last
/// line it prints. The child's other output is shown when it failed.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().ok_or("no output".to_string()).and_then(Json::parse);
    let run = parsed.ok().and_then(|j| {
        Some(Run {
            correct: j.get("correct")?.as_bool()?,
            attempted: j.get("attempted")?.as_f64()?,
            failed: j.get("failed")?.as_f64()?,
            metrics: j.get("metrics")?.clone(),
        })
    });
    match run {
        Some(run) if run.correct && output.status.success() => Ok(run),
        Some(run) => {
            print!("{stdout}");
            Ok(run)
        }
        None => Err(format!(
            "{workload} (seed {seed}, trace {trace}) printed no result, {}:\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What every results file is stamped with.
fn stamp(seed: u64, seconds: f64) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("commit", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("nproc", Json::Num(nproc as f64)),
        // One process per workload; the parallel stepper and the fleet
        // use at most this many threads.
        ("host_threads", Json::Num(nproc.min(2) as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
    ]
}

fn write_results(file: &str, doc: &Json) -> Result<(), String> {
    let path = out_dir().join(file);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.to_pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn print_metrics(table: &[Metric], run: &Run) {
    for m in table {
        let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
        println!(
            "  {:<34} {:>16.6} {:<9} {} is better{bound}",
            m.name,
            run.value(m.name),
            m.unit,
            m.better.as_str()
        );
    }
}

/// `--all`: every workload once untraced and once traced; prints every
/// metric by name and writes `out/results.json`.
pub fn all(seed: u64, seconds: f64, quick: bool) -> Result<ExitCode, String> {
    let mut failed = 0.0;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let plain = child(w.name, seed, seconds, false, quick)?;
        let traced = child(w.name, seed, seconds, true, quick)?;
        let (attempted, f) = (plain.attempted + traced.attempted, plain.failed + traced.failed);
        println!("{} — {}\n  ops_attempted {attempted}  ops_failed {f}", w.name, w.why);
        print_metrics(END_TO_END, &plain);
        print_metrics(PER_LAYER, &traced);
        failed += f;
        results.push(Json::obj([
            ("name", Json::str(w.name)),
            ("ops_attempted", Json::Num(attempted)),
            ("ops_failed", Json::Num(f)),
            ("end_to_end", plain.metrics),
            ("per_layer", traced.metrics),
        ]));
    }
    let mut doc = stamp(seed, seconds);
    doc.push(("quick", Json::Bool(quick)));
    doc.push(("workloads", Json::Arr(results)));
    write_results("results.json", &Json::obj(doc))?;
    println!("ops_failed {failed} over {} workloads", WORKLOADS.len());
    Ok(if failed == 0.0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// One set of `--stability`: per workload, `runs` untraced runs on seeds
/// `seed..seed+runs` and one traced run on `seed`.
fn stability_set(seed: u64, seconds: f64, runs: u64) -> Result<Vec<(Vec<Run>, Run)>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let plain: Result<Vec<Run>, String> =
                (0..runs).map(|k| child(w.name, seed + k, seconds, false, false)).collect();
            Ok((plain?, child(w.name, seed, seconds, true, false)?))
        })
        .collect()
}

/// `--stability`: two sets of runs of the same build, back to back. For
/// every workload and end-to-end metric prints both medians, their
/// relative difference, each set's quartile spread and the bound; every
/// exact per-layer count must be identical between the sets. Non-zero
/// exit when a difference or spread exceeds its bound or a count differs.
pub fn stability(seed: u64, seconds: f64, runs: u64) -> Result<ExitCode, String> {
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let sets = [stability_set(seed, seconds, runs)?, stability_set(seed, seconds, runs)?];
    let mut over = 0;
    let mut rows = Vec::new();
    println!(
        "{:<15} {:<18} {:>13} {:>13} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        for m in END_TO_END {
            let values =
                |set: &[Run]| -> Vec<f64> { set.iter().map(|r| r.value(m.name)).collect() };
            let (va, vb) = (values(&a.0), values(&b.0));
            let (ma, mb) = (median(&va), median(&vb));
            let diff = (ma - mb).abs() / ma.abs();
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // Set-up time is gated on its medians only: it is milliseconds
            // of allocator work, and its spread is not the system's.
            let spread_over =
                m.name != "setup_s" && [sa, sb].into_iter().flatten().any(|s| s > bound);
            let bad = diff > bound || diff.is_nan() || spread_over;
            over += usize::from(bad);
            let show = |s: Option<f64>| s.map_or("-".into(), |s| format!("{s:.4}"));
            println!(
                "{:<15} {:<18} {ma:>13.5} {mb:>13.5} {diff:>8.4} {:>8} {:>8} {bound:>6}{}",
                w.name,
                m.name,
                show(sa),
                show(sb),
                if bad { "  OVER" } else { "" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(w.name)),
                ("metric", Json::str(m.name)),
                ("values_a", Json::Arr(va.into_iter().map(Json::Num).collect())),
                ("values_b", Json::Arr(vb.into_iter().map(Json::Num).collect())),
                ("median_a", Json::Num(ma)),
                ("median_b", Json::Num(mb)),
                ("relative_difference", Json::Num(diff)),
                ("bound", Json::Num(bound)),
            ]));
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (ca, cb) = (a.1.value(m.name), b.1.value(m.name));
            if ca.to_bits() != cb.to_bits() {
                over += 1;
                println!("{:<15} {:<34} exact count differs: {ca} vs {cb}", w.name, m.name);
            }
        }
        let failed: f64 =
            [a, b].iter().flat_map(|s| s.0.iter().chain([&s.1])).map(|r| r.failed).sum();
        if failed > 0.0 {
            over += 1;
            println!("{:<15} ops_failed {failed}", w.name);
        }
    }
    let mut doc = stamp(seed, seconds);
    doc.push(("runs_per_set", Json::Num(runs as f64)));
    doc.push(("rows", Json::Arr(rows)));
    write_results("stability.json", &Json::obj(doc))?;
    println!("{over} workload x metric pairs outside their bounds");
    Ok(if over == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
