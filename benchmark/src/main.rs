//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! smappic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! smappic-benchmark --all [--seed N] [--seconds S] [--quick]
//! smappic-benchmark --stability [--runs K] [--seconds S]
//! smappic-benchmark --benchmark-json
//! ```
//!
//! One workload run prints, as the last line of its standard output, one
//! JSON object `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod catalog;
mod checkpoint;
mod ckpt_bench;
mod fleet_bench;
mod json;
mod kernels;
mod platform_bench;
mod programs;
mod report;
mod stat;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{Metric, END_TO_END, PER_LAYER};
use json::Json;
use programs::Shape;
use stat::best;
use trace::Tracer;

/// How one workload run is sized.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Host seconds the timed repetitions fill.
    pub seconds: f64,
    pub trace: bool,
    /// `--quick`: every cycle count and job size divided by 20.
    pub quick: bool,
}

impl Opts {
    /// Timed repetitions that run however short `seconds` is.
    pub fn min_reps(&self) -> u32 {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// A simulated-cycle count or job size, shrunk by `--quick`.
    pub fn scaled(&self, n: u64) -> u64 {
        if self.quick {
            (n / 20).max(1)
        } else {
            n
        }
    }
}

/// Checks made and metric values gathered by one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `total` host time divided by the already-set count metric `events`;
    /// zero when the layer saw no events on this workload.
    pub fn per_event(&mut self, name: &'static str, total: f64, events: &str) {
        let n = self.get(events);
        self.set(name, if n > 0.0 { total / n } else { 0.0 });
    }

    /// Set-up and collection spans every workload has.
    pub fn span_metrics(&mut self, tr: &Tracer) {
        self.set("core.build_s", best(&tr.durations("core.build")));
        self.set("core.install_s", best(&tr.durations("core.install")));
        self.set("core.stats_collect_ms", best(&tr.durations("core.stats_collect")) * 1e3);
    }

    /// Closes the run: an untraced run reads the process's peak RSS, a
    /// traced one runs the isolated kernels and writes its spans out.
    pub fn finish(mut self, tr: Tracer, opts: &Opts) -> Outcome {
        if opts.trace {
            kernels::run(if opts.quick { 0.02 } else { 0.12 }, opts.seed, &mut self);
            let path = out_dir().join(format!("trace-{}.jsonl", opts.workload));
            if let Err(e) = tr.write_jsonl(&path, &opts.workload) {
                println!("cannot write {}: {e}", path.display());
                self.check(false);
            }
        } else {
            self.set("peak_rss_mb", peak_rss_mb());
        }
        self
    }

    /// The result line: every metric of `table`, in its order.
    fn to_json(&self, table: &[Metric]) -> Json {
        let metrics = table.iter().map(|m| {
            let value = Json::Num(self.get(m.name));
            (m.name, Json::obj([("value", value), ("unit", Json::str(m.unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Where traces and results go: `out/` beside this package's manifest,
/// found from the working directory (the repository root or the package).
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1e3
}

fn run_workload(opts: &Opts) -> Option<Outcome> {
    Some(match opts.workload.as_str() {
        "amo_saturated" => platform_bench::run(Shape::AmoSaturated, opts),
        "bursty_sleep" => platform_bench::run(Shape::BurstySleep, opts),
        "ariane_alu" => platform_bench::run(Shape::ArianeAlu, opts),
        "ariane_memwalk" => platform_bench::run(Shape::ArianeMemwalk, opts),
        "rack_eth16" => platform_bench::run(Shape::RackEth16, opts),
        "ckpt_rack16" => ckpt_bench::run(opts),
        "fleet_mixed" => fleet_bench::run(opts),
        _ => return None,
    })
}

/// Value of `--flag value`, parsed; `Err` names a bad value.
fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    let raw = args.get(i + 1).ok_or_else(|| format!("{flag} wants a value"))?;
    raw.parse().map(Some).map_err(|_| format!("bad value {raw:?} for {flag}"))
}

/// `--seed`, decimal or `0x` hex.
fn seed_arg(args: &[String]) -> Result<u64, String> {
    let Some(raw) = arg::<String>(args, "--seed")? else { return Ok(programs::DEFAULT_SEED) };
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|_| format!("bad value {raw:?} for --seed"))
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let quick = has("--quick");
    let seed = seed_arg(args)?;
    let seconds: f64 =
        arg(args, "--seconds")?.unwrap_or(if quick { 0.2 } else { report::RUN_SECONDS as f64 });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }

    if has("--benchmark-json") {
        print!("{}", report::benchmark_json().to_pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if has("--all") {
        return report::all(seed, seconds, quick);
    }
    if has("--stability") {
        return report::stability(seed, seconds, arg(args, "--runs")?.unwrap_or(3));
    }

    let Some(workload) = arg::<String>(args, "--workload")? else {
        return Err("one of --workload, --all, --stability is required".into());
    };
    let trace = match arg::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        n => return Err(format!("--trace is 0 or 1, got {n}")),
    };
    let opts = Opts { workload, seed, seconds, trace, quick };
    let Some(outcome) = run_workload(&opts) else {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {:?}; one of {}", opts.workload, names.join(", ")));
    };
    println!("{}", outcome.to_json(if trace { PER_LAYER } else { END_TO_END }).to_line());
    Ok(if outcome.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    real_main(&args).unwrap_or_else(|e| {
        eprintln!("smappic-benchmark: {e}");
        ExitCode::from(2)
    })
}
