//! PArADISE benchmark program: runs one workload for a fixed time,
//! checks its outputs, and prints the report followed by one JSON
//! result line (see `perfbench/README.md`).
//!
//! ```text
//! paradise-perfbench --workload <paper_stream|policy_churn|served_tenants>
//!     --seed <n> --seconds <s> --trace <0|1> [--inject-delay <share>] [--out-dir <dir>]
//! ```
//!
//! Exit status: 0 when every output check passed, 1 on a mismatch
//! (the report names the seed), 2 on bad arguments or a failed set-up.

mod common;
mod inproc;
mod measure;
mod replay;
mod report;
mod served;

use std::io::Write as _;
use std::path::PathBuf;

use common::Args;
use inproc::Kind;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        delay: 0.0,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--inject-delay" => {
                args.delay = value.parse().map_err(|_| bad("expected a number"))?;
                if !(0.0..=10.0).contains(&args.delay) {
                    return Err(bad("must be within 0..=10"));
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper_stream" => inproc::run(Kind::PaperStream, &args),
        "policy_churn" => inproc::run(Kind::PolicyChurn, &args),
        "served_tenants" => served::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} (seed {}): {e}", args.workload, args.seed);
            std::process::exit(2);
        }
    };
    if args.trace {
        if let Err(e) = dump_spans(&args, &report) {
            eprintln!("perfbench: could not write the span dump: {e}");
        }
    }
    let mut out = std::io::stdout().lock();
    let _ = write!(out, "{}", report.render());
    let _ = writeln!(out, "{}", report.json());
    let _ = out.flush();
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Write every span as one tab-separated line (name, start ns, end ns,
/// parent index, cycle) under `<out-dir>/traces/`.
fn dump_spans(args: &Args, report: &report::Report) -> std::io::Result<()> {
    let dir = args.out_dir.join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(file, "name\tstart_ns\tend_ns\tparent\tcycle")?;
    for span in &report.spans {
        let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            file,
            "{}\t{}\t{}\t{parent}\t{}",
            span.name, span.start_ns, span.end_ns, span.cycle
        )?;
    }
    file.flush()?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}
