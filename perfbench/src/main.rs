//! The gpu-hms benchmark: one command runs a workload, checks the
//! program's outputs, and prints every metric by name.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload search-wide --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it records spans around the
//! benchmark's calls into each layer and reports the per-layer metrics,
//! each layer's self time, and the tracing overhead. See README.md.

mod inputs;
mod layers;
mod search;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::Summary;

/// Where runs keep their skeleton caches, relative to the directory the
/// benchmark runs from.
pub const WORK_DIR: &str = ".perfbench_work";

/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchWide,
    SearchSuite,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "search-wide" => Some(Workload::SearchWide),
            "search-suite" => Some(Workload::SearchSuite),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchWide => "search-wide",
            Workload::SearchSuite => "search-suite",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where runs keep their skeleton caches and span dumps: inside
    /// the directory the benchmark is run from.
    pub work: PathBuf,
}

impl Args {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload search-wide|search-suite|serve-mixed")?;
    let seed = seed.ok_or("missing --seed")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        work: PathBuf::from(WORK_DIR).join(format!(
            "{}-{}-{}",
            workload.name(),
            seed,
            std::process::id()
        )),
    })
}

/// One reported metric: value, unit, and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    /// Extra context printed beside the value (e.g. a tail's level).
    pub note: String,
}

pub fn metric(name: &str, unit: &'static str, value: f64, n: usize) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        n,
        note: String::new(),
    }
}

/// Median and tail of a latency sample, as the two named metrics; the
/// quartiles and the tail's level go in the notes.
pub fn latency_metrics(prefix: &str, s: &Summary) -> [Metric; 2] {
    [
        Metric {
            note: format!("quartiles {:.4} .. {:.4}", s.q1, s.q3),
            ..metric(&format!("{prefix}_p50"), "ms", s.median, s.n)
        },
        Metric {
            note: format!("p{:.2}", s.tail_pct),
            ..metric(&format!("{prefix}_tail"), "ms", s.tail, s.n)
        },
    ]
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any one makes the run incorrect.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Printed in the table but not in the result line: context for the
    /// metrics `BENCHMARK.json` gates.
    pub info: Vec<Metric>,
    /// FNV-1a over every checked predicted cycle, in a fixed order.
    pub digest: u64,
}

/// FNV-1a over predicted-cycle bit patterns.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Peak resident memory of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the workload's set-up once, timed from process start (so it also
/// covers start-up).
pub fn first_setup<T>(start: Instant, setup: impl FnOnce() -> T) -> (T, f64) {
    let state = setup();
    (state, start.elapsed().as_secs_f64())
}

/// `setup_s`: the median of the first set-up and [`SETUP_REPS`]` - 1`
/// more from scratch. The extra ones run after the measured window, once
/// the workload's state is dropped, so they neither disturb the window
/// nor raise its peak memory.
pub fn setup_metric<T>(first_s: f64, mut setup: impl FnMut() -> T) -> Metric {
    let mut times = vec![first_s];
    for _ in 1..SETUP_REPS {
        let t0 = Instant::now();
        drop(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    metric("setup_s", "s", stats::median(&times), times.len())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_metadata(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("HMS_THREADS")
        .ok()
        .filter(|v| v.trim().parse::<usize>().is_ok_and(|n| n > 0))
        .map_or_else(
            || format!("{} (available_parallelism)", hms_stats::max_threads()),
            |v| format!("{} (HMS_THREADS)", v.trim()),
        );
    println!("# gpu-hms benchmark");
    println!("#   workload:       {}", args.workload.name());
    println!(
        "#   mode:           {}",
        if args.trace { "traced" } else { "untraced" }
    );
    println!("#   seed:           {}", args.seed);
    println!("#   seconds:        {}", args.seconds);
    println!("#   nproc:          {nproc}");
    println!("#   cpu:            {}", cpu_model());
    println!(
        "#   rustc:          {}",
        command_line("rustc", &["--version"])
    );
    println!(
        "#   git commit:     {}",
        command_line("git", &["rev-parse", "HEAD"])
    );
    println!("#   engine threads: {threads}");
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn json_line(correct: bool, r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload search-wide|search-suite|serve-mixed --seed N [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    print_metadata(&args);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: cannot create {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let mut report = match args.workload {
        Workload::SearchWide => search::run_wide(&args, start),
        Workload::SearchSuite => search::run_suite(&args, start),
        Workload::ServeMixed => serve::run(&args, start),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    // Removed only when no other run is still using it.
    let _ = std::fs::remove_dir(WORK_DIR);

    report.info.push(metric(
        "fail_share",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    ));
    let correct = report.mismatches.is_empty();
    for m in &report.mismatches {
        println!("# MISMATCH: {m}");
    }
    println!(
        "# prediction digest: {:016x} (seed {})",
        report.digest, args.seed
    );
    println!("# attempted {}  failed {}", report.attempted, report.failed);
    println!(
        "# {:<34} {:>16} {:<8} {:>8}  note",
        "metric", "value", "unit", "n"
    );
    for m in report.metrics.iter().chain(&report.info) {
        println!(
            "# {:<34} {:>16.6} {:<8} {:>8}  {}",
            m.name, m.value, m.unit, m.n, m.note
        );
    }
    println!("{}", json_line(correct, &report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-mixed --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload search-wide")).is_err());
        assert!(parse_args(&argv("--workload search-wide --seed 1 --trace 2")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let r = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("setup_s", "s", 0.5, 3)],
            ..Report::default()
        };
        assert_eq!(
            json_line(true, &r),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn digest_depends_on_every_bit() {
        let mut a = Digest::default();
        a.add(1.0);
        let mut b = Digest::default();
        b.add(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a.0, b.0);
    }
}
