//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//!           [--trace-out FILE] [--cli PATH]
//! ```
//!
//! Runs one of four sweep workloads (`sweep-n64`, `halt-n8`, `fleet-n64`,
//! `storm-n64`) for `--seconds` of timed rounds after its output gates,
//! and prints a one-line JSON result last on stdout: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of a traced run whose
//! spans are written as a Perfetto-loadable file. Run it from the
//! repository root (the gates read `tests/golden/`); `run.sh` beside this
//! package builds everything first. See README.md for the definitions.

mod cli;
mod metrics;
mod probes;
mod rounds;
mod spans;
mod workloads;

use std::path::PathBuf;
use tb_machine::run::PAPER_SEED;
use workloads::{Options, WORKLOADS};

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload {} [--seed S] [--seconds N] [--trace 0|1] \
         [--trace-out FILE] [--cli PATH]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = PAPER_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut cli = workloads::target_dir()
        .join("release")
        .join("thrifty-barrier");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name.as_str())
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--cli" => cli = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
        cli,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let defs = if opts.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let line = workloads::run(&opts).and_then(|(verdict, values)| {
        for d in defs {
            if let Some(v) = values.get(d.name) {
                eprintln!("  {:<42} {:>16.4} {}", d.name, v, d.unit);
            }
        }
        metrics::result_line(verdict, defs, &values).map(|line| (verdict, line))
    });
    match line {
        Ok((verdict, line)) => {
            println!("{line}");
            if !verdict.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse(&args("--workload halt-n8 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workload.name, "halt-n8");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        let o = parse(&args("--workload sweep-n64")).unwrap();
        assert_eq!((o.seed, o.trace), (PAPER_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload halt-n8 --trace 2",
            "--workload halt-n8 --seconds -1",
            "--workload halt-n8 --seed x",
            "--workload halt-n8 --bogus 1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
