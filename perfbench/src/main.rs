//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks the program's outputs, and
//! prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the per-layer ones, measured by
//! timing the benchmark's own calls into each crate and by reading the
//! program's tracer counters. See `README.md` beside this file.

use std::path::PathBuf;
use std::process::ExitCode;

mod campaigns;
mod farm;
mod report;
mod spans;
mod stats;
mod store;

use report::{Outcome, WORKLOADS};
use spans::{now, Recorder};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("duration"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where a run keeps its scratch files and span logs: under the build
/// directory of the checkout it runs in.
pub fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .filter(|p| p.is_relative())
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    base.join("perfbench")
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Pins this thread, and every thread it starts afterwards, to the CPU it
/// runs on now; returns that CPU.
#[cfg(target_os = "linux")]
fn pin_here() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: plain libc calls on the calling thread; the mask outlives
    // the call and its size is passed alongside it.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("cpu index out of range")? |= 1 << (cpu % 64);
    // SAFETY: as above; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_here() -> Result<usize, String> {
    Err("pinning needs Linux".to_string())
}

/// Pins the workload's process to one CPU before it starts any thread.
///
/// Handoffs between threads on different cores made runs disagree: a store round trip passes from the client thread to a
/// server thread and back, and across the two cores of the reference
/// host that swung throughput twofold between runs (on one core runs
/// agreed within 1-3%); a full-Summit allocation with the default rayon
/// pool of two threads spread 23% over ten seeds. Pinned, the default
/// pool sizes itself to the one CPU the process may use.
pub fn pin_to_current_cpu() {
    match pin_here() {
        Ok(cpu) => eprintln!(
            "perfbench: pinned to cpu {cpu}; available parallelism now {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        Err(e) => eprintln!("perfbench: running unpinned: {e}"),
    }
}

/// The host block: what the numbers were measured on.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} rayon_threads={} profile={} rustc={}",
        rayon_threads(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        option_env!("PERFBENCH_RUSTC").unwrap_or("unknown")
    )
}

fn rayon_threads() -> String {
    std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "default".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_line()
    );
    let mut spans = Recorder::new(args.trace, now(), 0);
    let mut outcome: Outcome = match args.workload.as_str() {
        "summit-1x" | "policy-zoo-eighth" => campaigns::run(&args, &mut spans),
        "store-feedback" => store::run(&args, &mut spans),
        "farm-tenants" => farm::run(&args, &mut spans),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    // A workload whose final checks allocate more than its measured
    // window reads the peak itself, before them.
    if !args.trace && !outcome.metrics.contains_key("peak_rss_mib") {
        outcome.set("peak_rss_mib", peak_rss_mib());
    }
    if args.trace {
        let path = scratch_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: {} spans -> {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    print!("{}", report::render(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "store-feedback",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload, "store-feedback");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "summit-1x", "--bogus", "1"]).is_err());
        assert!(args(&["--workload", "summit-1x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "summit-1x", "--seconds", "0"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }
}
