//! `perfbench`: the CURE stack's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <build_ingest|serve_live_cache>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run generates its inputs from
//! `--seed`, does a fixed amount of work scaled by `--seconds`, times
//! every call itself, checks every answer against an oracle built from
//! the generated facts, and prints one JSON object as its last line:
//! the end-to-end metrics on an untraced run, the per-layer metrics on a
//! traced one. Work files live under `.perfbench/` and are removed when
//! the run ends. See README.md for the metric and workload definitions.

mod oracle;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::{Ctx, Report, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["build_ingest", "serve_live_cache"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad --seconds {val}"))?),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val} (want 0 or 1)")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (want one of {WORKLOADS:?})"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

/// Removes the run's work directory when dropped, also while unwinding.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload; `Ok(correct)` once a result line was printed.
fn run(a: &Args) -> Result<bool, String> {
    let root = Path::new(".perfbench");
    remove_stale_work(&root.join("work"));
    let work =
        root.join("work").join(format!("{}-s{}-p{}", a.workload, a.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let guard = WorkDir(work.clone());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        work: work.clone(),
        nproc,
        tracer: trace::Tracer::new(a.trace),
    };
    let work_fs = filesystem_of(&work);
    let ticks_before = cpu_ticks();
    let mut report = match a.workload.as_str() {
        "build_ingest" => workloads::build_ingest::run(&ctx)?,
        _ => workloads::serve_live_cache::run(&ctx)?,
    };
    drop(guard);
    if a.trace {
        report.layer.insert("trace.spans", ctx.tracer.spans().len() as f64);
        let path = root.join("traces").join(format!("{}-seed{}.jsonl", a.workload, a.seed));
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        eprintln!("perfbench: {} span(s) written to {}", ctx.tracer.spans().len(), path.display());
    }
    let steal_share = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let host = host_record(&work_fs, nproc, a, steal_share);
    for f in &report.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("{}", detail_line(&a.workload, &host, &report));
    println!("{}", result_line(&report, a.trace));
    Ok(report.correct())
}

/// Remove work directories left by killed runs: the name ends in
/// `-p<pid>` and that process is gone.
fn remove_stale_work(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        let Some((_, pid)) = name.rsplit_once("-p") else { continue };
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// The host and run description printed before the result.
fn host_record(work_fs: &str, nproc: usize, a: &Args, steal_share: f64) -> String {
    let mem_kib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .unwrap_or(0);
    let commit = std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"mem_bytes\":{},\"work_fs\":\"{}\",\"steal_share\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{commit}\"}}",
        mem_kib * 1024,
        work_fs,
        number(steal_share),
        a.seed,
        a.seconds,
        u8::from(a.trace),
    )
}

/// `(steal, total)` CPU ticks of the whole host so far (`/proc/stat`).
/// Steal is time the hypervisor gave this machine's CPUs to others; its
/// share over a run says how much neighbours disturbed the timings.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Filesystem type of the mount holding `path` (from mountinfo).
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else { return "unknown".into() };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else { return "unknown".into() };
    let mut best = (0, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|&f| f == "-") else { continue };
        let (Some(mount), Some(fs), Some(dev)) =
            (fields.get(4), fields.get(sep + 1), fields.get(sep + 2))
        else {
            continue;
        };
        if abs.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), format!("{fs} on {dev}"));
        }
    }
    best.1
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn detail_line(workload: &str, host: &str, r: &Report) -> String {
    let mut samples = String::new();
    for (i, (k, v)) in r.samples.iter().enumerate() {
        let _ = write!(samples, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
    }
    let mut series = String::new();
    for (i, (k, v)) in r.series.iter().enumerate() {
        let vals: Vec<String> = v.iter().map(|&x| number(x)).collect();
        let _ = write!(series, "{}\"{k}\":[{}]", if i > 0 { "," } else { "" }, vals.join(","));
    }
    format!(
        "{{\"workload\":\"{workload}\",\"host\":{host},\"samples\":{{{samples}}},\"series\":{{{series}}}}}"
    )
}

fn result_line(r: &Report, traced: bool) -> String {
    let (names, values) = if traced { (PER_LAYER, &r.layer) } else { (END_TO_END, &r.e2e) };
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            metrics,
            "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" },
            number(v)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        r.correct(),
        r.attempted,
        r.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_driver_command_line() {
        let args: Vec<String> = "--workload serve_live_cache --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse(&args).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_live_cache", 3, 10, true)
        );
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut r = Report { attempted: 5, ..Report::default() };
        r.e2e.insert("query_p50_us", 12.5);
        let line = result_line(&r, false);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
        }
        assert!(line.starts_with("{\"correct\":true,\"attempted\":5,\"failed\":0,"));
        assert!(line.contains("\"query_p50_us\":{\"value\":12.5,"));
    }
}
