//! `perfbench`: the in-process half of the repository benchmark.
//!
//! ```text
//! perfbench traced --workload W --seed N --threads T --pages P --trials T
//!                  --every E --out DIR [--compare DIR]...
//! perfbench setup  --workload W --seed N --pages P --every E --out DIR
//! ```
//!
//! `traced` replays the workload with layer timing, writes the CLI's
//! output files under `DIR`, compares every `--compare` directory (one
//! untraced CLI run each) against them, and prints one JSON object.
//! `setup` times the workload's fixed set-up constructors in a fresh
//! process and prints one JSON object.

use aegis_experiments::runner::RunOptions;
use perfbench::traced::{self, Params, Workload};
use sim_telemetry::escape;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    mode: String,
    params: Params,
    out: PathBuf,
    compare: Vec<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode (traced or setup)")?;
    let mut workload = None;
    let mut opts = RunOptions::default();
    let mut every = 1;
    let mut out = None;
    let mut compare = Vec::new();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => opts.seed = number()? as u64,
            "--threads" => opts.threads = Some(number()?),
            "--pages" => opts.pages = number()?,
            "--trials" => opts.trials = number()?,
            "--every" => every = number()?,
            "--out" => out = Some(PathBuf::from(value)),
            "--compare" => compare.push(PathBuf::from(value)),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Args {
        mode,
        params: Params {
            workload: workload.ok_or("missing --workload")?,
            opts,
            every,
        },
        out: out.ok_or("missing --out")?,
        compare,
    })
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match args.mode.as_str() {
        "setup" => match traced::setup(&args.params, &args.out) {
            Ok((schemes_s, sidecars_s)) => {
                println!(
                    "{{\"schemes_s\": {}, \"sidecars_s\": {}}}",
                    json_number(schemes_s),
                    json_number(sidecars_s)
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("perfbench setup: {err}");
                ExitCode::FAILURE
            }
        },
        "traced" => match traced::run(&args.params, &args.out) {
            Ok(run) => {
                let layers: Vec<String> = run
                    .layers
                    .iter()
                    .map(|(name, value)| format!("{}: {}", escape(name), json_number(*value)))
                    .collect();
                let mismatches: Vec<String> = args
                    .compare
                    .iter()
                    .flat_map(|dir| traced::compare(&args.out, dir, &run.outputs))
                    .map(|msg| escape(&msg))
                    .collect();
                println!(
                    "{{\"wall_s\": {}, \"simd_backend\": {}, \"eval_lanes\": {}, \
                     \"layers\": {{{}}}, \"mismatches\": [{}]}}",
                    json_number(run.wall_s),
                    escape(bitblock::simd::backend_name()),
                    pcm_sim::montecarlo::eval_lanes(),
                    layers.join(", "),
                    mismatches.join(", ")
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("perfbench traced: {err}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("perfbench: unknown mode '{other}'");
            ExitCode::from(2)
        }
    }
}
