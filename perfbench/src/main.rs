//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics of a traced run and writes
//! the kept spans to `perfbench/out/`. The last line of standard output is
//! one JSON object; the exit code is non-zero when any correctness gate
//! failed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use sbft_perfbench::alloc::CountingAlloc;
use sbft_perfbench::report::{self, Report};
use sbft_perfbench::{explore, kv, trace, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn run(args: &Args) -> Report {
    let budget = Duration::from_secs(args.seconds);
    match (args.workload.kv_spec(), args.trace) {
        (Some(spec), false) => {
            report::kv_end_to_end(&spec, &kv::run_untraced(&spec, args.seed, budget))
        }
        (Some(spec), true) => {
            let run = kv::run_traced(&spec, args.seed, budget);
            report::kv_per_layer(&spec, &run, &trace::summary())
        }
        (None, false) => report::explore_end_to_end(&explore::run_untraced(
            &explore::ExploreSpec::mwmr2(),
            budget,
        )),
        (None, true) => {
            let (base, traced) = explore::run_traced(&explore::ExploreSpec::mwmr2(), budget);
            report::explore_per_layer(&base, &traced, &trace::summary())
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut rep = run(&args);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    rep.info.insert(
        0,
        format!(
            "workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );
    if args.trace {
        let path = PathBuf::from("perfbench/out").join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match trace::write_spans(&path) {
            Ok(n) => rep.info.push(format!("spans_written={n} path={}", path.display())),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    print!("{}", rep.render());
    if rep.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("a correctness gate failed");
        ExitCode::FAILURE
    }
}
