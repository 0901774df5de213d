//! The repository's benchmark: four workloads on one canonical
//! configuration, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` beside this package.

#![forbid(unsafe_code)]

mod canon;
mod chaos;
mod daemon;
mod layers;
mod loadgen;
mod paper;
mod report;
mod spans;
mod stats;

use canon::Preset;
use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper_mixes_decide",
    "daemon_open_loop",
    "daemon_recurring_reads",
    "fleet_chaos_replay",
];

/// One run of one workload.
pub struct Run {
    pub workload: &'static str,
    /// Seeds every generated input (mix order, traces, chaos scripts).
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    pub preset: Preset,
}

const USAGE: &str = "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick]\n  workloads: paper_mixes_decide daemon_open_loop \
                     daemon_recurring_reads fleet_chaos_replay\n  without --workload every \
                     workload runs in a process of its own, untraced then traced";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| *w == name);
                parsed.workload = Some(known.ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Writes the run's spans as a Chrome trace under the package's `out/`
/// directory (ignored by git) and notes where.
pub fn write_trace(run: &Run, outcome: &mut Outcome, spans: &[spans::SpanRec]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", run.workload));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace_json(spans)));
    match written {
        Ok(()) => outcome.note(format!("{} spans -> {}", spans.len(), path.display())),
        Err(e) => outcome.check(false, || format!("writing {}: {e}", path.display())),
    }
}

fn run_workload(run: &Run) -> ExitCode {
    let outcome = match run.workload {
        "paper_mixes_decide" => paper::run(run),
        "daemon_open_loop" => daemon::open_loop(run),
        "daemon_recurring_reads" => daemon::recurring_reads(run),
        _ => chaos::run(run),
    };
    let (table, require_all) = if run.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    print!("{}", outcome.render(run.workload, table));
    if !outcome.correct() {
        eprintln!("{}: output checks failed", run.workload);
        return ExitCode::FAILURE;
    }
    match outcome.result_line(table, require_all) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", run.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a process of its own (so `setup_s` and
/// `peak_rss_mb` are per workload), untraced then traced, one at a time.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()]);
            if let Some(seconds) = args.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            if args.quick {
                child.arg("--quick");
            }
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("{workload} --trace {trace}: {status}");
                    failed = true;
                }
                Err(e) => {
                    eprintln!("{workload} --trace {trace}: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Set in the environment of the pinned re-execution.
const PINNED: &str = "PERFBENCH_PINNED";

/// The last CPU of a `Cpus_allowed_list` value such as `0-1` or `0,2-3`.
fn last_cpu(list: &str) -> Option<u32> {
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Runs this same command line again under `taskset`, on the last CPU
/// this process may use, and returns its exit code; `None` when there is
/// no `taskset` to run (the workload then runs where the kernel puts it).
///
/// On the two-vCPU sandboxes this is measured on, a wake-up that crosses
/// vCPUs costs 0.1-0.3 ms and the kernel settles every process into
/// crossing or not crossing for its whole life: unpinned, a 0.04 ms
/// status read reads 0.14 ms in every other run, a 0.1 ms write 0.3 ms,
/// and the board-parallel chaos replay runs a third slower than on one
/// CPU. The load generator shares the machine with the daemon either
/// way; on one CPU the readings repeat.
fn rerun_pinned(raw: &[String]) -> Option<ExitCode> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = last_cpu(allowed)?;
    let child = std::process::Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(std::env::current_exe().ok()?)
        .args(raw)
        .env(PINNED, cpu.to_string())
        .status()
        .ok()?;
    let code = child.code().and_then(|c| u8::try_from(c).ok());
    Some(ExitCode::from(code.unwrap_or(1)))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    if std::env::var_os(PINNED).is_none() {
        match rerun_pinned(&raw) {
            Some(code) => return code,
            None => eprintln!("no taskset: {workload} runs unpinned"),
        }
    }
    let preset = if args.quick {
        Preset::quick()
    } else {
        Preset::bench()
    };
    let default_seconds = if args.quick { 1.5 } else { 15.0 };
    run_workload(&Run {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds),
        trace: args.trace,
        preset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "daemon_open_loop",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Some("daemon_open_loop"));
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, Some(15.0));
        assert!(args.trace && !args.quick);
    }

    #[test]
    fn picks_the_last_allowed_cpu() {
        assert_eq!(last_cpu("\t0-1\n"), Some(1));
        assert_eq!(last_cpu("0,2-3"), Some(3));
        assert_eq!(last_cpu("5"), Some(5));
        assert_eq!(last_cpu(""), None);
    }

    #[test]
    fn rejects_unknown_workloads_and_bad_values() {
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
        assert_eq!(parse_args(&[]).unwrap().seed, 42);
    }
}
