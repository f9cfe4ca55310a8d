//! CLI entry point: `experiments <table1|fig5..fig13|all> [options]`.
//!
//! Exit codes: `0` success, `1` runtime (I/O) failure, `2` usage error
//! (unknown command/option or a malformed value — the offending token is
//! echoed with the usage text).

use aegis_experiments::campaign::{self, UnitSpec};
use aegis_experiments::checkpoint::{Checkpoint, CheckpointCtl};
use aegis_experiments::runner::RunOptions;
use aegis_experiments::{
    analyze, biasstudy, cachestudy, diff, failcdf, fig10, fig567, fig8, fig9, monitor, osassist,
    payg_check, runner, schemes, shardmerge, table1, telemetry, variants, wearlevel_check,
    writecost,
};
use pcm_sim::forensics;
use pcm_sim::montecarlo::{FailureCriterion, MemoryRun};
use sim_telemetry::{RunState, RunTelemetry, SeriesWriter, Span, StatusWriter, TraceSpan, Tracer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
Usage: experiments <COMMAND> [OPTIONS]

Commands:
  table1             Table 1: per-block cost (bits) vs hard FTC
  fig5 | fig6 | fig7 Recoverable faults / lifetime improvement / per-bit contribution
  fig8               Masking redundancy vs lifetime at matched overhead,
                     swept over the partially-stuck cell fraction
  failcdf            Block failure probability vs fault count
  fig9               Page survival rate and half lifetime
  fig10              Aegis-rw-p lifetime vs pointer count
  fig11|fig12|fig13  Aegis vs Aegis-rw vs Aegis-rw-p
  wearlevel          Extension: validate the perfect-wear-leveling assumption
  payg               Extension: Aegis as the local scheme inside PAYG (matched budget)
  cachestudy         Extension: fail-cache capacity vs Aegis-rw write costs
  osassist           Extension: FREE-p and Dynamic Pairing above the in-block schemes
  writecost          Extension: per-write costs (pulses/verifies/inversions) vs faults
  biasstudy          Extension: sensitivity to data / stuck-value skew
  all                Everything above
  telemetry-report RUN_ID
                     Pretty-print a finished run's telemetry (counters,
                     histograms, phase timings) from results/telemetry/
  telemetry-analyze RUN_ID
                     Profile a finished run: span tree with self/total
                     times, hot-span percentiles, worker utilization; also
                     writes <run-id>.collapsed.txt (flamegraph input),
                     <run-id>.chrome.json (chrome://tracing), and
                     <run-id>.analysis.json next to the run
  shard FIG --shards K --shard-id I
                     Run shard I of a K-way fig5/fig6/fig7/fig8 campaign: the
                     contiguous stripe [I*P/K, (I+1)*P/K) of global page
                     indices under the master seed (each page is its own
                     seed-disjoint substream). Writes telemetry plus a
                     <run-id>.shard.json raw-results sidecar; no CSVs
  merge ID [ID...]   Merge finished shards (listed by run id, any order)
                     into the campaign's reports, CSVs and telemetry —
                     byte-identical to the unsharded run after stripping
                     volatile lines. Refuses mismatched configs/revisions
  monitor [DIR]      Tail every <run-id>.status.json under DIR (default
                     results/telemetry): one row per run with phase,
                     progress, ETA and worker busy fraction, plus a state
                     rollup. Refreshes until interrupted; --once prints a
                     single snapshot (for scripts/CI) and --json emits a
                     machine-readable summary
  telemetry-diff RUN_A RUN_B
                     Align two runs' deterministic streams and series
                     sidecars (volatile lines stripped first): counter
                     deltas, histogram distribution shift (max per-bucket
                     ratio and p50/p90/p99 deltas), new/missing event
                     kinds and diverging series samples. When both runs
                     carry estimate lines the verdict is CI-aware: exit 1
                     only when some final estimate's 95% confidence
                     intervals separate (structural diffs are still
                     reported as context); runs without estimates fall
                     back to exact comparison. Exit 0 when the runs
                     agree, 1 on drift, 2 on a malformed stream

Options:
  --pages N       Pages per simulated chip (default 256; paper scale 2048)
  --trials N      Independent blocks for failcdf/fig10 (default 4000)
  --seed N        Master RNG seed (default 42)
  --page-bytes N  Memory-block size in bytes (default 4096; the paper also
                  reports 256-byte memory blocks show the same trend)
  --samples N     W/R splits tested per fault event (default 1)
  --threads N     Simulation worker threads (default: SIM_THREADS env var,
                  then available parallelism; results are identical at any
                  thread count)
  --guaranteed    Use the strict all-data failure criterion
  --scalar        fig5/6/7 only: evaluate the Aegis bars with the scalar
                  reference predicates instead of the ROM kernels (results
                  and telemetry must be identical; used by the differential
                  determinism checks)
  --full          Paper scale: --pages 2048 --trials 20000
  --out DIR       CSV output directory (default results/)
  --telemetry     Record counters/histograms/spans to OUT/telemetry/<run-id>.jsonl
                  plus a <run-id>.manifest.json reproducibility sidecar
  --run-id ID     Telemetry run id (implies --telemetry; default <command>-s<seed>)
  --trace         Record hierarchical wall-clock spans and per-worker pool
                  utilization to OUT/telemetry/<run-id>.trace.jsonl (implies
                  --telemetry; the deterministic .jsonl stream is unchanged)
  --trace-block P,B
                  Block-death forensics: deterministically replay page P,
                  block B's fault-arrival and policy-decision history for
                  every fig5 scheme from the run seed, print the annotated
                  event traces, and exit (no simulation runs)
  --top N         telemetry-analyze only: hot spans listed (default 10)
  --series        Sample every counter/histogram into a time-series sidecar
                  OUT/telemetry/<run-id>.series.jsonl, keyed by pages
                  evaluated (implies --telemetry; byte-identical per seed
                  after stripping volatile lines, at any thread count)
  --series-every N
                  Minimum pages between series samples (default 0 = sample
                  at every unit barrier; implies --series)
  --status        Heartbeat run liveness (phase, progress, ETA, worker busy
                  fraction) into OUT/telemetry/<run-id>.status.json for
                  `experiments monitor` (implies --telemetry; the status
                  file is wall-clock and never part of the deterministic
                  contract)
  --once          monitor only: print one snapshot and exit
  --json          monitor only: machine-readable output
  --interval N    monitor only: seconds between refreshes (default 2)
  --threshold X   telemetry-diff only: switch from the CI-aware default to
                  the relative-tolerance heuristic — every counter,
                  histogram bucket and series sample is judged against X
                  (0 = exact byte-level gate)
  --target-rse X  fig5/fig6/fig7/fig8 only: deterministic early stopping —
                  stop a unit at the first checkpoint barrier where the
                  lifetime estimate's relative standard error is ≤ X
                  (implies --checkpoint-every pages/8 when not set
                  explicitly; the stopped stream is byte-identical at any
                  thread count and across SIGINT + --resume)
  --checkpoint-every N
                  fig5/fig6/fig7/fig8 only: snapshot engine state to
                  OUT/telemetry/<run-id>.ckpt.json after every N-page chunk
                  of a block width (fig8: of a fraction), whose schemes
                  advance together (implies --telemetry). SIGINT then stops
                  the run at the next snapshot barrier with exit code 130
                  instead of killing it; the snapshot is removed when the
                  run completes
  --resume RUN_ID fig5/fig6/fig7/fig8 only: continue RUN_ID from its snapshot to
                  output byte-identical to an uninterrupted run (implies
                  --telemetry; adopts the snapshot's recorded configuration
                  and refuses explicit conflicting options)
  --shards K      shard only: total number of shards in the campaign
  --shard-id I    shard only: this shard's index (0-based, < K)
  --progress      Report page-completion progress on stderr
  --quiet         Suppress progress/status output (for CI); reports still print
";

struct Cli {
    command: String,
    positionals: Vec<String>,
    opts: RunOptions,
    out_dir: PathBuf,
    telemetry: bool,
    run_id: Option<String>,
    progress: bool,
    quiet: bool,
    scalar: bool,
    trace: bool,
    trace_block: Option<(usize, usize)>,
    top: usize,
    checkpoint_every: Option<usize>,
    resume: Option<String>,
    shards: Option<usize>,
    shard_id: Option<usize>,
    series: bool,
    series_every: u64,
    status: bool,
    once: bool,
    json: bool,
    interval: u64,
    threshold: Option<f64>,
    target_rse: Option<f64>,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(|| USAGE.to_owned())?;
    let mut cli = Cli {
        command,
        positionals: Vec::new(),
        opts: RunOptions::default(),
        out_dir: PathBuf::from("results"),
        telemetry: false,
        run_id: None,
        progress: false,
        quiet: false,
        scalar: false,
        trace: false,
        trace_block: None,
        top: 10,
        checkpoint_every: None,
        resume: None,
        shards: None,
        shard_id: None,
        series: false,
        series_every: 0,
        status: false,
        once: false,
        json: false,
        interval: 2,
        threshold: None,
        target_rse: None,
    };
    let mut samples = 1u32;
    let mut guaranteed = false;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} expects a value\n\n{USAGE}"))
        };
        // Echo the offending token on malformed numbers: the parse error
        // alone ("invalid digit found in string") doesn't say which.
        macro_rules! parsed {
            ($name:literal) => {{
                let raw = value($name)?;
                raw.parse()
                    .map_err(|e| format!("{}: invalid value '{raw}': {e}\n\n{USAGE}", $name))?
            }};
        }
        // Counts and cadences: zero leaves nothing to simulate or report
        // (or no chunk to checkpoint), so it is a usage error like any
        // malformed value.
        macro_rules! positive {
            ($name:literal) => {{
                let n = parsed!($name);
                if n == 0 {
                    return Err(format!(
                        "{}: invalid value '0': must be at least 1\n\n{USAGE}",
                        $name
                    ));
                }
                n
            }};
        }
        match arg.as_str() {
            "--pages" => cli.opts.pages = positive!("--pages"),
            "--trials" => cli.opts.trials = positive!("--trials"),
            "--seed" => cli.opts.seed = parsed!("--seed"),
            "--page-bytes" => cli.opts.page_bytes = parsed!("--page-bytes"),
            "--samples" => samples = positive!("--samples"),
            "--threads" => cli.opts.threads = Some(parsed!("--threads")),
            "--guaranteed" => guaranteed = true,
            "--full" => {
                cli.opts.pages = 2048;
                cli.opts.trials = 20_000;
            }
            "--out" => cli.out_dir = PathBuf::from(value("--out")?),
            "--telemetry" => cli.telemetry = true,
            "--run-id" => {
                cli.run_id = Some(value("--run-id")?);
                cli.telemetry = true;
            }
            "--trace" => {
                cli.trace = true;
                cli.telemetry = true;
            }
            "--trace-block" => {
                let raw = value("--trace-block")?;
                let parsed = raw
                    .split_once(',')
                    .and_then(|(p, b)| Some((p.trim().parse().ok()?, b.trim().parse().ok()?)));
                cli.trace_block = Some(parsed.ok_or_else(|| {
                    format!("--trace-block: invalid value '{raw}': expected PAGE,BLOCK\n\n{USAGE}")
                })?);
            }
            "--top" => cli.top = parsed!("--top"),
            "--series" => {
                cli.series = true;
                cli.telemetry = true;
            }
            "--series-every" => {
                cli.series_every = parsed!("--series-every");
                cli.series = true;
                cli.telemetry = true;
            }
            "--status" => {
                cli.status = true;
                cli.telemetry = true;
            }
            "--once" => cli.once = true,
            "--json" => cli.json = true,
            "--interval" => cli.interval = parsed!("--interval"),
            "--threshold" => {
                let threshold: f64 = parsed!("--threshold");
                if threshold.is_nan() || threshold < 0.0 {
                    return Err(format!(
                        "--threshold: invalid value '{threshold}': must be non-negative\n\n{USAGE}"
                    ));
                }
                cli.threshold = Some(threshold);
            }
            "--target-rse" => {
                let target: f64 = parsed!("--target-rse");
                if !target.is_finite() || target <= 0.0 {
                    return Err(format!(
                        "--target-rse: invalid value '{target}': must be a finite \
                         positive number\n\n{USAGE}"
                    ));
                }
                cli.target_rse = Some(target);
                cli.telemetry = true;
            }
            "--checkpoint-every" => {
                cli.checkpoint_every = Some(positive!("--checkpoint-every"));
                cli.telemetry = true;
            }
            "--resume" => {
                cli.resume = Some(value("--resume")?);
                cli.telemetry = true;
            }
            "--shards" => cli.shards = Some(parsed!("--shards")),
            "--shard-id" => cli.shard_id = Some(parsed!("--shard-id")),
            "--progress" => cli.progress = true,
            "--quiet" => cli.quiet = true,
            "--scalar" => cli.scalar = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'\n\n{USAGE}"))
            }
            other => cli.positionals.push(other.to_owned()),
        }
    }
    cli.opts.criterion = if guaranteed {
        FailureCriterion::GuaranteedAllData
    } else {
        FailureCriterion::PerEventSplit { samples }
    };
    Ok(cli)
}

/// Everything a command handler needs: options, output paths, verbosity,
/// and the run's telemetry (a disabled no-op instance when `--telemetry`
/// is off, so handlers never branch).
struct Ctx<'a> {
    opts: &'a RunOptions,
    out: &'a Path,
    quiet: bool,
    tel: &'a RunTelemetry,
    tracer: &'a Tracer,
    progress_fn: Option<&'a runner::SchemeProgressFn<'a>>,
    scalar: bool,
    ckpt: Option<&'a CheckpointCtl<'a>>,
    series: &'a SeriesWriter,
    status_w: &'a StatusWriter,
}

/// Guard pairing a deterministic-stream phase span with its wall-clock
/// trace span; both close when it drops.
struct PhaseSpan<'a> {
    _tel: Span<'a>,
    _trace: TraceSpan<'a>,
}

impl Ctx<'_> {
    fn status(&self, line: &str) {
        if !self.quiet {
            eprintln!("{line}");
        }
    }

    fn observer(&self) -> runner::RunObserver<'_> {
        runner::RunObserver {
            registry: self.tel.is_enabled().then(|| self.tel.registry()),
            progress: self.progress_fn,
            tracer: self.tracer.is_enabled().then_some(self.tracer),
            series: self.series.is_enabled().then_some(self.series),
            status: self.status_w.is_enabled().then_some(self.status_w),
            timelines: None,
        }
    }

    /// Runs a fig5/6/7 or fig8 campaign over the whole chip — straight,
    /// or in snapshotted chunks under `--checkpoint-every`/`--resume`/
    /// `--target-rse` — then prints and writes what `command` asks for. A
    /// SIGINT that stops it surfaces as
    /// [`std::io::ErrorKind::Interrupted`].
    fn campaign(&self, command: &str) -> std::io::Result<()> {
        let (specs, runs) = {
            let (specs, span) = campaign_specs(command, self.opts, self.scalar);
            let _span = self.span(span)?;
            let units: Vec<_> = specs.iter().map(UnitSpec::unit).collect();
            let done = campaign::execute(&units, 0..self.opts.pages, &self.observer(), self.ckpt)?;
            let done = done.ok_or_else(|| {
                let path = self.ckpt.map(|ctl| ctl.path.display().to_string());
                std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!("checkpoint written to {}", path.unwrap_or_default()),
                )
            })?;
            let runs: Vec<MemoryRun> = done.into_iter().map(|unit| unit.run).collect();
            (specs, runs)
        };
        emit_campaign(command, &specs, &runs, self.out)
    }

    fn span(&self, name: &str) -> std::io::Result<PhaseSpan<'_>> {
        Ok(PhaseSpan {
            _tel: self.tel.span(name)?,
            _trace: self.tracer.span(name),
        })
    }
}

fn run_table1(ctx: &Ctx) -> std::io::Result<()> {
    let table = {
        let _span = ctx.span("table1.analytic")?;
        table1::run(512)
    };
    println!("{}", table1::report(&table));
    for note in table1::diff_against_paper(&table) {
        println!("note: {note} (documented in EXPERIMENTS.md)");
    }
    table1::write_csv(&table, ctx.out)
}

/// A fig5/6/7 or fig8 campaign's unit specs and its stream span name.
fn campaign_specs(command: &str, opts: &RunOptions, scalar: bool) -> (Vec<UnitSpec>, &'static str) {
    if command == "fig8" {
        (campaign::fig8_unit_specs(opts), "fig8.montecarlo")
    } else {
        (
            campaign::fig567_unit_specs(opts, scalar),
            "fig567.montecarlo",
        )
    }
}

/// Prints the reports `command` asks for from a fig5/6/7 or fig8
/// campaign's unit runs and writes the figure's CSVs.
fn emit_campaign(
    command: &str,
    specs: &[UnitSpec],
    runs: &[MemoryRun],
    out: &Path,
) -> std::io::Result<()> {
    if command == "fig8" {
        let results = fig8::assemble(runs);
        println!("{}", fig8::report(&results));
        return fig8::write_csv(&results, out);
    }
    let results = fig567::assemble(specs, runs);
    if matches!(command, "fig5" | "all") {
        println!("{}", fig567::report_fig5(&results));
    }
    if matches!(command, "fig6" | "all") {
        println!("{}", fig567::report_fig6(&results));
    }
    if matches!(command, "fig7" | "all") {
        println!("{}", fig567::report_fig7(&results));
    }
    fig567::write_csvs(&results, out)
}

fn run_fig567(command: &str, ctx: &Ctx) -> std::io::Result<()> {
    ctx.status(&format!(
        "[fig5-7] simulating {} pages per block size…",
        ctx.opts.pages
    ));
    ctx.campaign(command)
}

fn run_fig8(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status(&format!(
        "[fig8] sweeping partially-stuck fractions over {} pages per unit…",
        ctx.opts.pages
    ));
    ctx.campaign("fig8")
}

fn run_failcdf(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status(&format!(
        "[failcdf] simulating {} blocks per scheme…",
        ctx.opts.trials
    ));
    let results = {
        let _span = ctx.span("failcdf.montecarlo")?;
        failcdf::run(ctx.opts)
    };
    println!("{}", failcdf::report(&results));
    failcdf::write_csv(&results, ctx.out)
}

fn run_fig9(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status(&format!(
        "[fig9] simulating {} pages per scheme…",
        ctx.opts.pages
    ));
    let results = {
        let _span = ctx.span("fig9.montecarlo")?;
        fig9::run_with(ctx.opts, &ctx.observer())
    };
    println!("{}", fig9::report(&results));
    fig9::write_csv(&results, ctx.out)
}

fn run_fig10(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status(&format!(
        "[fig10] sweeping pointer counts over {} blocks…",
        ctx.opts.trials
    ));
    let results = {
        let _span = ctx.span("fig10.montecarlo")?;
        fig10::run(ctx.opts)
    };
    println!("{}", fig10::report(&results));
    fig10::write_csv(&results, ctx.out)
}

fn run_variants(command: &str, ctx: &Ctx) -> std::io::Result<()> {
    ctx.status(&format!("[fig11-13] simulating {} pages…", ctx.opts.pages));
    let results = {
        let _span = ctx.span("variants.montecarlo")?;
        variants::run_with(ctx.opts, &ctx.observer())
    };
    if matches!(command, "fig11" | "all") {
        println!("{}", variants::report_fig11(&results));
    }
    if matches!(command, "fig12" | "all") {
        println!("{}", variants::report_fig12(&results));
    }
    if matches!(command, "fig13" | "all") {
        println!("{}", variants::report_fig13(&results));
    }
    variants::write_csvs(&results, ctx.out)
}

fn run_wearlevel(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status("[wearlevel] leveling skewed write streams…");
    let results = {
        let _span = ctx.span("wearlevel.sim")?;
        wearlevel_check::run(256, 2_000_000, ctx.opts.seed)
    };
    println!("{}", wearlevel_check::report(&results));
    wearlevel_check::write_csv(&results, ctx.out)
}

fn run_payg(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status(&format!(
        "[payg] matched-budget PAYG comparison over {} pages…",
        ctx.opts.pages
    ));
    let results = {
        let _span = ctx.span("payg.montecarlo")?;
        payg_check::run(ctx.opts)
    };
    println!("{}", payg_check::report(&results));
    payg_check::write_csv(&results, ctx.out)
}

fn run_cachestudy(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status("[cachestudy] wearing out functional Aegis-rw blocks…");
    let results = {
        let _span = ctx.span("cachestudy.sim")?;
        cachestudy::run(16, ctx.opts.seed)
    };
    println!("{}", cachestudy::report(&results));
    cachestudy::write_csv(&results, ctx.out)
}

fn run_osassist(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status(&format!(
        "[osassist] FREE-p and pairing over {} pages…",
        ctx.opts.pages
    ));
    let results = {
        let _span = ctx.span("osassist.montecarlo")?;
        osassist::run(ctx.opts)
    };
    println!("{}", osassist::report(&results));
    osassist::write_csv(&results, ctx.out)
}

fn run_writecost(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status("[writecost] sweeping fault counts over functional codecs…");
    let results = {
        let _span = ctx.span("writecost.codecs")?;
        writecost::run_with(
            24,
            16,
            ctx.opts.seed,
            ctx.tel.is_enabled().then(|| ctx.tel.registry()),
        )
    };
    println!("{}", writecost::report(&results));
    writecost::write_csv(&results, ctx.out)
}

fn run_biasstudy(ctx: &Ctx) -> std::io::Result<()> {
    ctx.status("[biasstudy] sweeping data / stuck-value skew…");
    let results = {
        let _span = ctx.span("biasstudy.sim")?;
        biasstudy::run(200, ctx.opts.seed)
    };
    println!("{}", biasstudy::report(&results));
    biasstudy::write_csv(&results, ctx.out)
}

fn dispatch(command: &str, ctx: &Ctx) -> Result<std::io::Result<()>, ()> {
    Ok(match command {
        "table1" => run_table1(ctx),
        "fig5" | "fig6" | "fig7" => run_fig567(command, ctx),
        "fig8" => run_fig8(ctx),
        "failcdf" => run_failcdf(ctx),
        "fig9" => run_fig9(ctx),
        "fig10" => run_fig10(ctx),
        "fig11" | "fig12" | "fig13" => run_variants(command, ctx),
        "wearlevel" => run_wearlevel(ctx),
        "payg" => run_payg(ctx),
        "cachestudy" => run_cachestudy(ctx),
        "osassist" => run_osassist(ctx),
        "writecost" => run_writecost(ctx),
        "biasstudy" => run_biasstudy(ctx),
        "all" => run_table1(ctx)
            .and_then(|()| run_fig567("all", ctx))
            .and_then(|()| run_fig8(ctx))
            .and_then(|()| run_failcdf(ctx))
            .and_then(|()| run_fig9(ctx))
            .and_then(|()| run_fig10(ctx))
            .and_then(|()| run_variants("all", ctx))
            .and_then(|()| run_wearlevel(ctx))
            .and_then(|()| run_payg(ctx))
            .and_then(|()| run_cachestudy(ctx))
            .and_then(|()| run_osassist(ctx))
            .and_then(|()| run_writecost(ctx))
            .and_then(|()| run_biasstudy(ctx)),
        _ => return Err(()),
    })
}

const USAGE_ERROR: u8 = 2;

/// Exit code of a run stopped by SIGINT after writing its checkpoint
/// (128 + SIGINT, the shell convention for signal exits).
const INTERRUPTED_EXIT: u8 = 130;

#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the SIGINT handler; polled at checkpoint chunk barriers.
    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;

    /// Replaces the default SIGINT disposition with a flag store, so an
    /// interrupted checkpointed run can finish its current page chunk,
    /// write the snapshot, and exit cleanly instead of dying mid-write.
    pub fn install() {
        // SAFETY: `signal` only swaps this process's handler table entry,
        // and the installed handler performs a single lock-free atomic
        // store, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

#[cfg(not(unix))]
mod sigint {
    use std::sync::atomic::AtomicBool;

    /// Never set on platforms without `signal(2)`; `--checkpoint-every`
    /// still snapshots periodically, it just cannot trap Ctrl-C.
    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    /// No-op.
    pub fn install() {}
}

fn criterion_label(criterion: FailureCriterion) -> String {
    match criterion {
        FailureCriterion::PerEventSplit { samples } => format!("per-event-split:{samples}"),
        FailureCriterion::GuaranteedAllData => "guaranteed-all-data".to_owned(),
    }
}

/// The configuration fingerprint stored in checkpoints and cross-checked
/// on `--resume` (key order matches [`Checkpoint::fingerprint_keys`]).
fn config_fingerprint(command: &str, cli: &Cli) -> Vec<(String, String)> {
    vec![
        ("command".to_owned(), command.to_owned()),
        ("seed".to_owned(), cli.opts.seed.to_string()),
        ("pages".to_owned(), cli.opts.pages.to_string()),
        ("trials".to_owned(), cli.opts.trials.to_string()),
        ("page_bytes".to_owned(), cli.opts.page_bytes.to_string()),
        ("criterion".to_owned(), criterion_label(cli.opts.criterion)),
        (
            "predicate_mode".to_owned(),
            if cli.scalar { "scalar" } else { "kernel" }.to_owned(),
        ),
        (
            "target_rse".to_owned(),
            cli.target_rse
                .map_or_else(|| "none".to_owned(), |t| format!("{t}")),
        ),
    ]
}

/// Adopts the resume snapshot's recorded configuration into the CLI.
///
/// Options left at their defaults take the snapshot's values; options the
/// user set explicitly to something else are refused — resuming under a
/// different configuration could never reproduce the original run.
fn apply_resume(cli: &mut Cli, ckpt: &Checkpoint) -> Result<(), String> {
    let defaults = RunOptions::default();
    let stored = |key: &str| -> Result<&str, String> {
        ckpt.fingerprint_value(key)
            .ok_or_else(|| format!("checkpoint lacks fingerprint key '{key}'"))
    };
    let command = stored("command")?;
    if command != cli.command {
        return Err(format!(
            "checkpoint belongs to command '{command}', not '{}'",
            cli.command
        ));
    }
    fn adopt<T: std::str::FromStr + PartialEq + std::fmt::Display + Copy>(
        key: &str,
        stored: &str,
        current: T,
        default: T,
    ) -> Result<T, String> {
        let recorded: T = stored
            .parse()
            .map_err(|_| format!("checkpoint fingerprint '{key}' value '{stored}' is malformed"))?;
        if current != recorded && current != default {
            return Err(format!(
                "checkpoint was taken with {key}={recorded} but the command line says \
                 {key}={current}; drop the conflicting option or start a fresh run"
            ));
        }
        Ok(recorded)
    }
    cli.opts.seed = adopt("seed", stored("seed")?, cli.opts.seed, defaults.seed)?;
    cli.opts.pages = adopt("pages", stored("pages")?, cli.opts.pages, defaults.pages)?;
    cli.opts.trials = adopt(
        "trials",
        stored("trials")?,
        cli.opts.trials,
        defaults.trials,
    )?;
    cli.opts.page_bytes = adopt(
        "page_bytes",
        stored("page_bytes")?,
        cli.opts.page_bytes,
        defaults.page_bytes,
    )?;
    let criterion = stored("criterion")?;
    let current_label = criterion_label(cli.opts.criterion);
    if current_label != criterion && current_label != criterion_label(defaults.criterion) {
        return Err(format!(
            "checkpoint was taken with criterion={criterion} but the command line says \
             criterion={current_label}; drop the conflicting option or start a fresh run"
        ));
    }
    cli.opts.criterion = match criterion {
        "guaranteed-all-data" => FailureCriterion::GuaranteedAllData,
        label => {
            let samples = label
                .strip_prefix("per-event-split:")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    format!("checkpoint fingerprint criterion '{label}' is malformed")
                })?;
            FailureCriterion::PerEventSplit { samples }
        }
    };
    let mode = stored("predicate_mode")?;
    match (mode, cli.scalar) {
        ("scalar", _) => cli.scalar = true,
        ("kernel", false) => {}
        ("kernel", true) => {
            return Err(
                "checkpoint was taken in kernel predicate mode but --scalar was passed; \
                 drop the conflicting option or start a fresh run"
                    .to_owned(),
            )
        }
        (other, _) => {
            return Err(format!(
                "checkpoint fingerprint predicate_mode '{other}' is malformed"
            ))
        }
    }
    // Early-stop target. Checkpoints written before the key existed mean
    // "no early stopping" — treat a missing key as "none", not an error.
    let stored_target = ckpt.fingerprint_value("target_rse").unwrap_or("none");
    let recorded: Option<f64> = match stored_target {
        "none" => None,
        raw => Some(raw.parse().map_err(|_| {
            format!("checkpoint fingerprint 'target_rse' value '{raw}' is malformed")
        })?),
    };
    if cli.target_rse.is_some() && cli.target_rse != recorded {
        return Err(format!(
            "checkpoint was taken with target_rse={stored_target} but the command line says \
             target_rse={}; drop the conflicting option or start a fresh run",
            cli.target_rse.unwrap_or(f64::NAN)
        ));
    }
    cli.target_rse = recorded;
    Ok(())
}

/// Sets the replay-metadata keys every simulation run records (shard runs
/// add their stripe on top). The manifest stores options sorted by key,
/// so call order never shows through.
fn set_run_meta(tel: &RunTelemetry, command: &str, cli: &Cli) {
    tel.set_meta("command", command);
    tel.set_meta("seed", &cli.opts.seed.to_string());
    tel.set_meta("pages", &cli.opts.pages.to_string());
    tel.set_meta("trials", &cli.opts.trials.to_string());
    tel.set_meta("page_bytes", &cli.opts.page_bytes.to_string());
    tel.set_meta("criterion", &criterion_label(cli.opts.criterion));
    tel.set_meta(
        "predicate_mode",
        if cli.scalar { "scalar" } else { "kernel" },
    );
    // The resolved worker count is replay metadata, not stream data: the
    // event stream stays identical at any thread count.
    tel.set_meta(
        "threads_effective",
        &sim_pool::resolve_threads(cli.opts.threads).to_string(),
    );
    tel.set_meta("out_dir", &cli.out_dir.display().to_string());
    tel.set_meta("trace", if cli.trace { "on" } else { "off" });
}

/// `experiments shard FIG --shards K --shard-id I`: run one stripe of a
/// fig5/6/7 campaign and leave its telemetry + raw-results sidecar for
/// `merge`. No reports or CSVs — those are the merged campaign's.
fn run_shard(cli: &Cli) -> ExitCode {
    let usage_error = |msg: &str| {
        eprintln!("shard: {msg}\n\n{USAGE}");
        ExitCode::from(USAGE_ERROR)
    };
    let Some(figure) = cli.positionals.first() else {
        return usage_error("expects a figure command (fig5, fig6, fig7 or fig8)");
    };
    if !matches!(figure.as_str(), "fig5" | "fig6" | "fig7" | "fig8") {
        return usage_error(&format!(
            "'{figure}' cannot be sharded (only fig5, fig6, fig7 and fig8 can)"
        ));
    }
    let (Some(shards), Some(shard_id)) = (cli.shards, cli.shard_id) else {
        return usage_error("--shards and --shard-id are required");
    };
    if shards == 0 {
        return usage_error("--shards must be at least 1");
    }
    if shard_id >= shards {
        return usage_error(&format!(
            "--shard-id {shard_id} out of range for --shards {shards}"
        ));
    }
    if cli.checkpoint_every.is_some() || cli.resume.is_some() {
        return usage_error("--checkpoint-every/--resume do not apply to shard runs");
    }
    if cli.target_rse.is_some() {
        // A shard stopping early would leave its stripe short and the
        // merged CI silently optimistic; only unsharded runs may stop.
        return usage_error(
            "--target-rse does not apply to shard runs (shards must cover \
             their full stripe so merge pools complete results)",
        );
    }
    let (lo, hi) = shardmerge::shard_range(cli.opts.pages, shards, shard_id);
    let run_id = cli
        .run_id
        .clone()
        .unwrap_or_else(|| shardmerge::shard_run_id(figure, cli.opts.seed, shards, shard_id));
    let tel = match RunTelemetry::create(&run_id, &telemetry::dir(&cli.out_dir)) {
        Ok(tel) => tel,
        Err(err) => {
            eprintln!("telemetry: {err}");
            return ExitCode::FAILURE;
        }
    };
    set_run_meta(&tel, figure, cli);
    tel.set_meta("shards", &shards.to_string());
    tel.set_meta("shard_id", &shard_id.to_string());
    tel.set_meta("page_lo", &lo.to_string());
    tel.set_meta("page_hi", &hi.to_string());
    if !cli.quiet {
        eprintln!(
            "[shard] {figure} shard {shard_id}/{shards}: pages {lo}..{hi} of {}",
            cli.opts.pages
        );
    }
    let registry = tel.registry();
    let series = if cli.series {
        match SeriesWriter::create(&run_id, &telemetry::dir(&cli.out_dir), cli.series_every) {
            Ok(series) => series,
            Err(err) => {
                eprintln!("series: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        SeriesWriter::disabled()
    };
    let status = if cli.status {
        match StatusWriter::create(&run_id, &telemetry::dir(&cli.out_dir)) {
            Ok(status) => status,
            Err(err) => {
                eprintln!("status: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        StatusWriter::disabled()
    };
    let (specs, span_name) = campaign_specs(figure, &cli.opts, cli.scalar);
    if status.is_enabled() {
        status.set_total_pages((specs.len() * (hi - lo)) as u64);
        status.set_shard(shard_id as u64, shards as u64);
    }
    let observer = runner::RunObserver {
        registry: Some(registry),
        series: series.is_enabled().then_some(&series),
        status: status.is_enabled().then_some(&status),
        ..runner::RunObserver::default()
    };
    let units = {
        let span = match tel.span(span_name) {
            Ok(span) => span,
            Err(err) => {
                eprintln!("telemetry: {err}");
                return ExitCode::FAILURE;
            }
        };
        // A shard's unit barrier covers its stripe: the series sidecar is
        // keyed by this shard's cumulative pages and the estimates are the
        // stripe's own. Merge recomputes the pooled intervals from the
        // concatenated per-page results.
        let units: Vec<_> = specs.iter().map(UnitSpec::unit).collect();
        let units = campaign::run(&units, lo..hi, &observer);
        drop(span);
        units
    };
    let sidecar = Checkpoint {
        every: 0,
        fingerprint: config_fingerprint(figure, cli),
        counters: Vec::new(),
        volatile: Vec::new(),
        histograms: Vec::new(),
        series: series.cursor(),
        units,
    };
    let sidecar_path = telemetry::dir(&cli.out_dir).join(format!("{run_id}.shard.json"));
    if let Err(err) = sidecar.store(&sidecar_path) {
        eprintln!("shard: {err}");
        return ExitCode::FAILURE;
    }
    if let Err(err) = series.finish() {
        eprintln!("series: {err}");
        return ExitCode::FAILURE;
    }
    status.mark(RunState::Done);
    match tel.finish() {
        Ok(_) => {
            if !cli.quiet {
                eprintln!("shard results written to {}", sidecar_path.display());
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("telemetry: {err}");
            ExitCode::FAILURE
        }
    }
}

/// `experiments merge ID [ID...]`: cross-check and combine finished
/// shards into the campaign's reports, CSVs and telemetry.
fn run_merge(cli: &Cli) -> ExitCode {
    if cli.positionals.is_empty() {
        eprintln!("merge expects the shard RUN_IDs to combine\n\n{USAGE}");
        return ExitCode::from(USAGE_ERROR);
    }
    let dir = telemetry::dir(&cli.out_dir);
    let mut inputs = Vec::with_capacity(cli.positionals.len());
    for id in &cli.positionals {
        match shardmerge::read_shard(&dir, id) {
            Ok(input) => inputs.push(input),
            Err(err) => {
                eprintln!("merge: shard '{id}': {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(msg) = shardmerge::validate_shards(&mut inputs) {
        eprintln!("merge: {msg}");
        return ExitCode::from(USAGE_ERROR);
    }
    let option = |key: &str| inputs[0].manifest.options.get(key).cloned();
    let command = option("command").unwrap_or_default();
    let scalar = option("predicate_mode").as_deref() == Some("scalar");
    let Some(seed) = option("seed").and_then(|v| v.parse::<u64>().ok()) else {
        eprintln!("merge: shard manifests carry a non-numeric 'seed' option");
        return ExitCode::from(USAGE_ERROR);
    };
    // The unit specs are rebuilt from the campaign options: their labels
    // and block sizes validate the sidecars, their policies name the rows.
    let merge_opts = RunOptions {
        seed,
        pages: option("pages")
            .and_then(|v| v.parse().ok())
            .unwrap_or(RunOptions::default().pages),
        ..RunOptions::default()
    };
    let (specs, span_name) = campaign_specs(&command, &merge_opts, scalar);
    let runs = match shardmerge::merge_units(&inputs, &specs) {
        Ok(runs) => runs,
        Err(msg) => {
            eprintln!("merge: {msg}");
            return ExitCode::from(USAGE_ERROR);
        }
    };
    if !cli.quiet {
        eprintln!(
            "[merge] combining {} shards of '{command}' (seed {seed})",
            inputs.len()
        );
    }

    // Rebuild the campaign's telemetry under its unsharded run id: the
    // same span skeleton, the summed shard metrics, and one codec probe —
    // after stripping volatile lines the stream is byte-identical to the
    // run that was never sharded.
    let run_id = cli
        .run_id
        .clone()
        .unwrap_or_else(|| telemetry::default_run_id(&command, seed));
    let tel = match RunTelemetry::create(&run_id, &dir) {
        Ok(tel) => tel,
        Err(err) => {
            eprintln!("telemetry: {err}");
            return ExitCode::FAILURE;
        }
    };
    for key in [
        "command",
        "seed",
        "pages",
        "trials",
        "page_bytes",
        "criterion",
        "predicate_mode",
    ] {
        if let Some(value) = option(key) {
            tel.set_meta(key, &value);
        }
    }
    tel.set_meta(
        "threads_effective",
        &sim_pool::resolve_threads(cli.opts.threads).to_string(),
    );
    tel.set_meta("out_dir", &cli.out_dir.display().to_string());
    tel.set_meta("trace", "off");
    let emit = || -> std::io::Result<()> {
        {
            let _span = tel.span(span_name)?;
            shardmerge::absorb_shard_streams(&inputs, tel.registry());
        }
        {
            let _span = tel.span("codec-probe")?;
            telemetry::codec_probe(tel.registry(), seed);
        }
        emit_campaign(&command, &specs, &runs, &cli.out_dir)?;
        tel.finish().map(drop)
    };
    match emit() {
        Ok(()) => {
            if !cli.quiet {
                eprintln!(
                    "merged telemetry written to {}; CSV written to {}",
                    dir.join(format!("{run_id}.jsonl")).display(),
                    cli.out_dir.display()
                );
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("merge: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_telemetry_report(cli: &Cli) -> ExitCode {
    let Some(run_id) = cli.positionals.first() else {
        eprintln!("telemetry-report expects a RUN_ID argument\n\n{USAGE}");
        return ExitCode::from(USAGE_ERROR);
    };
    match telemetry::report_checked(run_id, &telemetry::dir(&cli.out_dir)) {
        Ok((text, skipped)) => {
            println!("{text}");
            match telemetry::skipped_lines_diagnostic("telemetry-report", &skipped) {
                None => ExitCode::SUCCESS,
                Some(diagnostic) => {
                    eprintln!("{diagnostic}");
                    ExitCode::from(USAGE_ERROR)
                }
            }
        }
        Err(err) => {
            eprintln!("telemetry-report: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_telemetry_analyze(cli: &Cli) -> ExitCode {
    let Some(run_id) = cli.positionals.first() else {
        eprintln!("telemetry-analyze expects a RUN_ID argument\n\n{USAGE}");
        return ExitCode::from(USAGE_ERROR);
    };
    match analyze::analyze(run_id, &telemetry::dir(&cli.out_dir), cli.top) {
        Ok(analysis) => {
            println!("{}", analysis.report);
            if analysis.dropped > 0 {
                eprintln!(
                    "telemetry-analyze: warning: {} trace record(s) were dropped; \
                     the profile is incomplete",
                    analysis.dropped
                );
            }
            match telemetry::skipped_lines_diagnostic("telemetry-analyze", &analysis.skipped_lines)
            {
                None => ExitCode::SUCCESS,
                Some(diagnostic) => {
                    eprintln!("{diagnostic}");
                    ExitCode::from(USAGE_ERROR)
                }
            }
        }
        Err(err) => {
            eprintln!("telemetry-analyze: {err}");
            ExitCode::FAILURE
        }
    }
}

/// `experiments monitor [DIR]`: tail every `<run-id>.status.json` under
/// DIR and render one row per run plus a state rollup. Refreshes every
/// `--interval` seconds until interrupted; `--once` prints one snapshot
/// and `--json` emits the machine-readable summary.
fn run_monitor(cli: &Cli) -> ExitCode {
    let dir = cli
        .positionals
        .first()
        .map_or_else(|| telemetry::dir(&cli.out_dir), PathBuf::from);
    loop {
        let snapshot = match monitor::scan(&dir) {
            Ok(snapshot) => snapshot,
            Err(err) => {
                eprintln!("monitor: {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        };
        if cli.json {
            println!("{}", monitor::render_json(&snapshot));
        } else {
            if !cli.once {
                // Clear and home so each refresh redraws in place.
                print!("\x1b[2J\x1b[H");
            }
            print!(
                "{}",
                monitor::render(&snapshot, sim_telemetry::unix_millis())
            );
            let _ = std::io::Write::flush(&mut std::io::stdout());
        }
        if cli.once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_secs(cli.interval.max(1)));
    }
}

/// `experiments telemetry-diff RUN_A RUN_B`: align two runs' deterministic
/// streams and series sidecars and report any drift. Exit 0 when the runs
/// agree (within `--threshold`), 1 on drift, 2 on a malformed stream.
fn run_telemetry_diff(cli: &Cli) -> ExitCode {
    let [run_a, run_b] = cli.positionals.as_slice() else {
        eprintln!("telemetry-diff expects exactly two RUN_ID arguments\n\n{USAGE}");
        return ExitCode::from(USAGE_ERROR);
    };
    let mode = cli
        .threshold
        .map_or(diff::DiffMode::Interval, diff::DiffMode::Threshold);
    match diff::diff_runs(&telemetry::dir(&cli.out_dir), run_a, run_b, mode) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            if outcome.drift {
                eprintln!("telemetry-diff: runs '{run_a}' and '{run_b}' drifted");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(diff::DiffError::Malformed { path, line }) => {
            eprintln!(
                "telemetry-diff: malformed line {line} in {}",
                path.display()
            );
            ExitCode::from(USAGE_ERROR)
        }
        Err(diff::DiffError::Io(err)) => {
            eprintln!("telemetry-diff: {err}");
            ExitCode::FAILURE
        }
    }
}

/// `--trace-block P,B`: re-derive one block's fault and decision history
/// for every fig5 scheme from the run seed and print the annotated
/// replays. Pure output — no simulation, CSV, or telemetry files.
fn run_trace_block(cli: &Cli, page: usize, block: usize) -> ExitCode {
    const BLOCK_BITS: usize = 512;
    if page >= cli.opts.pages {
        eprintln!(
            "--trace-block: page {page} out of range: the run simulates {} pages \
             (see --pages)\n\n{USAGE}",
            cli.opts.pages
        );
        return ExitCode::from(USAGE_ERROR);
    }
    let cfg = forensics::BlockTraceConfig {
        seed: cli.opts.seed,
        page_bits: cli.opts.page_bytes * 8,
        block_bits: BLOCK_BITS,
        criterion: cli.opts.criterion,
        page,
        block,
        partial_fraction: 0.0,
    };
    let timeline = match forensics::derive_block_timeline(&cfg) {
        Ok(timeline) => timeline,
        Err(msg) => {
            eprintln!("--trace-block: {msg}\n\n{USAGE}");
            return ExitCode::from(USAGE_ERROR);
        }
    };
    let policies = if cli.scalar {
        schemes::fig5_schemes_scalar(BLOCK_BITS)
    } else {
        schemes::fig5_schemes(BLOCK_BITS)
    };
    for (i, policy) in policies.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let trace = forensics::trace_block(policy.as_ref(), &timeline, cfg.criterion);
        print!("{}", trace.report(&cfg));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(USAGE_ERROR);
        }
    };
    if cli.command == "telemetry-report" {
        return run_telemetry_report(&cli);
    }
    if cli.command == "telemetry-analyze" {
        return run_telemetry_analyze(&cli);
    }
    if cli.command == "shard" {
        return run_shard(&cli);
    }
    if cli.command == "merge" {
        return run_merge(&cli);
    }
    if cli.command == "monitor" {
        return run_monitor(&cli);
    }
    if cli.command == "telemetry-diff" {
        return run_telemetry_diff(&cli);
    }
    const COMMANDS: &[&str] = &[
        "table1",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "failcdf",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "wearlevel",
        "payg",
        "cachestudy",
        "osassist",
        "writecost",
        "biasstudy",
        "all",
    ];
    if !COMMANDS.contains(&cli.command.as_str()) {
        // Reject before any telemetry files are created for a bogus run.
        eprintln!("unknown command '{}'\n\n{USAGE}", cli.command);
        return ExitCode::from(USAGE_ERROR);
    }
    if let Some((page, block)) = cli.trace_block {
        return run_trace_block(&cli, page, block);
    }
    if cli.shards.is_some() || cli.shard_id.is_some() {
        eprintln!("--shards/--shard-id only apply to the shard command\n\n{USAGE}");
        return ExitCode::from(USAGE_ERROR);
    }

    // Checkpoint/resume setup. Resume first adopts the snapshot's recorded
    // configuration (so a bare `--resume ID` needs no other options), then
    // the adopted CLI state produces the fingerprint new snapshots carry.
    let checkpointing =
        cli.checkpoint_every.is_some() || cli.resume.is_some() || cli.target_rse.is_some();
    if checkpointing && !matches!(cli.command.as_str(), "fig5" | "fig6" | "fig7" | "fig8") {
        eprintln!(
            "--checkpoint-every/--resume/--target-rse only apply to fig5, fig6, fig7 \
             and fig8\n\n{USAGE}"
        );
        return ExitCode::from(USAGE_ERROR);
    }
    let resume_ckpt = if let Some(id) = cli.resume.clone() {
        let path = telemetry::dir(&cli.out_dir).join(format!("{id}.ckpt.json"));
        let ckpt = match Checkpoint::load(&path) {
            Ok(ckpt) => ckpt,
            Err(err) if err.kind() == std::io::ErrorKind::InvalidData => {
                eprintln!("--resume: {err}");
                return ExitCode::from(USAGE_ERROR);
            }
            Err(err) => {
                eprintln!("--resume: no checkpoint at {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if let Err(msg) = apply_resume(&mut cli, &ckpt) {
            eprintln!("--resume: {msg}");
            return ExitCode::from(USAGE_ERROR);
        }
        // Resuming continues the original run's files unless the user
        // picks a different id explicitly.
        if cli.run_id.is_none() {
            cli.run_id = Some(id);
        }
        Some(ckpt)
    } else {
        None
    };
    // Resuming a run that was recording a series sidecar continues it even
    // without an explicit --series, starting from the snapshot's cursor.
    let resume_series = resume_ckpt.as_ref().map(|ckpt| ckpt.series);
    if resume_series.is_some_and(|cursor| cursor.seq > 0) {
        cli.series = true;
    }

    let run_id = cli
        .run_id
        .clone()
        .unwrap_or_else(|| telemetry::default_run_id(&cli.command, cli.opts.seed));
    let tel = if cli.telemetry {
        match RunTelemetry::create(&run_id, &telemetry::dir(&cli.out_dir)) {
            Ok(tel) => tel,
            Err(err) => {
                eprintln!("telemetry: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        RunTelemetry::disabled()
    };
    set_run_meta(&tel, &cli.command, &cli);

    let series = if cli.series {
        let dir = telemetry::dir(&cli.out_dir);
        let result = match resume_series.filter(|cursor| cursor.seq > 0) {
            Some(cursor) => SeriesWriter::resume(&run_id, &dir, cli.series_every, cursor),
            None => SeriesWriter::create(&run_id, &dir, cli.series_every),
        };
        match result {
            Ok(series) => series,
            Err(err) => {
                eprintln!("series: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        SeriesWriter::disabled()
    };
    let status_w = if cli.status {
        match StatusWriter::create(&run_id, &telemetry::dir(&cli.out_dir)) {
            Ok(status) => status,
            Err(err) => {
                eprintln!("status: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        StatusWriter::disabled()
    };
    if let Some(target) = cli.target_rse {
        status_w.set_target_rse(target);
    }
    if status_w.is_enabled() && matches!(cli.command.as_str(), "fig5" | "fig6" | "fig7") {
        let units = campaign::fig567_unit_specs(&cli.opts, cli.scalar).len();
        status_w.set_total_pages((units * cli.opts.pages) as u64);
    }
    if status_w.is_enabled() && cli.command == "fig8" {
        status_w.set_total_pages((fig8::units().len() * cli.opts.pages) as u64);
    }

    let ckpt_ctl = if checkpointing {
        sigint::install();
        let every = cli
            .checkpoint_every
            .or_else(|| resume_ckpt.as_ref().map(|c| c.every))
            .unwrap_or_else(|| {
                // --target-rse without an explicit cadence: evaluate the
                // stop predicate at eight deterministic barriers per unit.
                if cli.target_rse.is_some() {
                    (cli.opts.pages / 8).max(1)
                } else {
                    1
                }
            })
            .max(1);
        Some(CheckpointCtl {
            path: telemetry::dir(&cli.out_dir).join(format!("{run_id}.ckpt.json")),
            every,
            interrupted: &sigint::INTERRUPTED,
            resume: resume_ckpt,
            fingerprint: config_fingerprint(&cli.command, &cli),
            target_rse: cli.target_rse,
        })
    } else {
        None
    };

    let tracer = if cli.trace {
        Tracer::with_default_capacity()
    } else {
        Tracer::disabled()
    };

    let report_progress = |scheme: &str, done: usize, total: usize| {
        let step = (total / 10).max(1);
        if done.is_multiple_of(step) || done == total {
            eprintln!("[progress] {scheme}: {done}/{total} pages");
        }
    };
    let ctx = Ctx {
        opts: &cli.opts,
        out: cli.out_dir.as_path(),
        quiet: cli.quiet,
        tel: &tel,
        tracer: &tracer,
        progress_fn: (cli.progress && !cli.quiet).then_some(&report_progress),
        scalar: cli.scalar,
        ckpt: ckpt_ctl.as_ref(),
        series: &series,
        status_w: &status_w,
    };

    let outcome = {
        let _run_span = tracer.span("run");
        let outcome = dispatch(&cli.command, &ctx);
        if matches!(outcome, Ok(Ok(()))) && tel.is_enabled() {
            // The figure paths exercise analytic policies; the codec probe
            // feeds the codec.<scheme>.* counters through the shared
            // WriteTelemetry path so every run's report covers both layers.
            if let Ok(_span) = ctx.span("codec-probe") {
                telemetry::codec_probe(tel.registry(), cli.opts.seed);
            }
        }
        outcome
    };
    // On interrupt the series sidecar stays open-ended (no run_end):
    // --resume reopens it at the checkpoint's cursor and continues it
    // byte-for-byte; the status file was already marked interrupted.
    let interrupted =
        matches!(&outcome, Ok(Err(err)) if err.kind() == std::io::ErrorKind::Interrupted);
    if !interrupted {
        if let Err(err) = series.finish() {
            eprintln!("series: {err}");
            return ExitCode::FAILURE;
        }
        if matches!(&outcome, Ok(Ok(()))) {
            status_w.mark(RunState::Done);
        }
    }
    if let Some(log) = tracer.finish(&run_id) {
        let trace_path = telemetry::dir(&cli.out_dir).join(format!("{run_id}.trace.jsonl"));
        if let Err(err) = std::fs::write(&trace_path, log.to_jsonl()) {
            eprintln!("trace: {err}");
            return ExitCode::FAILURE;
        }
        if !cli.quiet {
            eprintln!(
                "trace written to {} ({} spans, {} dropped)",
                trace_path.display(),
                log.spans.len(),
                log.total_dropped()
            );
        }
    }
    let telemetry_enabled = tel.is_enabled();
    match tel.finish() {
        Ok(manifest) => {
            if telemetry_enabled && !cli.quiet {
                eprintln!(
                    "telemetry written to {} ({} events)",
                    telemetry::dir(&cli.out_dir)
                        .join(format!("{run_id}.jsonl"))
                        .display(),
                    manifest.events
                );
            }
        }
        Err(err) => {
            eprintln!("telemetry: {err}");
            return ExitCode::FAILURE;
        }
    }

    match outcome {
        Ok(Ok(())) => {
            if !cli.quiet {
                eprintln!("CSV written to {}", cli.out_dir.display());
            }
            ExitCode::SUCCESS
        }
        Ok(Err(err)) if err.kind() == std::io::ErrorKind::Interrupted => {
            eprintln!("interrupted: {err}; rerun with --resume {run_id} to continue",);
            ExitCode::from(INTERRUPTED_EXIT)
        }
        Ok(Err(err)) => {
            eprintln!("I/O error: {err}");
            ExitCode::FAILURE
        }
        Err(()) => {
            eprintln!("unknown command '{}'\n\n{USAGE}", cli.command);
            ExitCode::from(USAGE_ERROR)
        }
    }
}
