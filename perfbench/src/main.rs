//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! With `--trace 0` (the default) it runs the workload untraced for
//! `--seconds` and prints every end-to-end metric; with `--trace 1` it runs
//! the traced run once, prints every per-layer metric and a span summary,
//! and writes the spans to `perfbench/out/`. The last line of standard
//! output is always the JSON result line.

use std::process::ExitCode;

use walksteal_perfbench::{end_to_end, host_fingerprint, traced, Machine, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_fingerprint()
    );
    let report = if args.trace {
        let (report, spans) = traced(args.workload, Machine::Paper, args.seed);
        println!(
            "{:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, count, total, own) in spans.summary() {
            println!("{name:<28} {count:>7} {total:>12.6} {own:>12.6}");
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| spans.write_jsonl(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        report
    } else {
        end_to_end(args.workload, Machine::Paper, args.seed, args.seconds)
    };
    for note in &report.notes {
        println!("{note}");
        if note.starts_with("FAILED") {
            eprintln!("perfbench: {note}");
        }
    }
    for m in &report.metrics {
        println!("{:<32} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
