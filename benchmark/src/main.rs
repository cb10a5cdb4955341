//! Command line: `--workload NAME --seed N --seconds S --trace 0|1`.
//! Prints a provenance record and one record per phase as JSON lines,
//! then the result object as the last line of standard output.

use hft_e2e_bench::run::{self, Args, Report};
use hft_e2e_bench::workload::{self, fnv64, FNV_BASIS};
use std::path::Path;

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(workload::spec(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let usage = "usage: --workload lookup|weather|fleet-ingest --seed N --seconds S --trace 0|1";
    let seconds = seconds.ok_or(usage)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds,
        trace: trace.ok_or(usage)?,
    })
}

/// The commit of the checkout when it is a git work tree.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
    }
}

/// FNV-1a over the program's sources (path and bytes, in path order),
/// identifying the code measured even where no git metadata exists.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    for d in ["crates", "src", "vendored"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    files.iter().fold(FNV_BASIS, |h, p| {
        let h = fnv64(h, p.to_string_lossy().as_bytes());
        fnv64(h, &std::fs::read(p).unwrap_or_default())
    })
}

fn provenance(args: &Args, report: &Report) -> String {
    let s = args.spec;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let conns: Vec<String> = s
        .conns
        .iter()
        .map(|p| format!("\"{}\"", p.name()))
        .collect();
    format!(
        "{{\"provenance\": {{\"commit\": {}, \"source_fnv64\": \"{:016x}\", \"nproc\": {nproc}, \
         \"profile\": \"{profile}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"requests_fnv64\": \"{:016x}\", \"corpus_seed\": {}, \
         \"connections\": [{}], \"window\": {}, \"rate_rps\": {}, \"limit_ms\": {}}}}}",
        commit().map_or("null".into(), |c| format!("\"{c}\"")),
        source_digest(),
        s.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.requests_fnv64,
        workload::CORPUS_SEED,
        conns.join(", "),
        s.window,
        s.rate_rps,
        s.limit_ms,
    )
}

fn main() -> std::process::ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let report = match run::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    println!("{}", provenance(&args, &report));
    for p in &report.phases {
        println!("{p}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    std::process::ExitCode::SUCCESS
}
