//! CLI entry point: `experiments <table1|fig5..fig13|all> [options]`.
//!
//! Exit codes: `0` success, `1` runtime (I/O) failure, `2` usage error
//! (unknown command/option or a malformed value — the offending token is
//! echoed with the usage text — or a malformed input file, named with
//! its offending line).

use aegis_experiments::campaign::{self, UnitSpec};
use aegis_experiments::checkpoint::{Checkpoint, CheckpointCtl};
use aegis_experiments::runner::RunOptions;
use aegis_experiments::shardmerge::ShardInput;
use aegis_experiments::{
    analyze, biasstudy, cachestudy, diff, failcdf, fig10, fig567, fig8, fig9, monitor, osassist,
    payg_check, runner, schemes, shardmerge, table1, telemetry, variants, wearlevel_check,
    writecost,
};
use pcm_sim::forensics;
use pcm_sim::montecarlo::{FailureCriterion, MemoryRun};
use sim_telemetry::{
    RunState, RunTelemetry, SeriesCursor, SeriesWriter, Span, StatusWriter, TraceSpan, Tracer,
};
use std::ops::Range;
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
                     Run shard I of a K-way chip-figure campaign (fig5-fig9,
                     fig11-fig13): the contiguous stripe [I*P/K, (I+1)*P/K)
                     of global page indices under the master seed (each
                     page is its own seed-disjoint substream). Writes
                     telemetry plus a <run-id>.shard.json raw-results
                     sidecar; no CSVs and no codec probe. Takes the figure
                     options except --checkpoint-every, --resume and
                     --target-rse
  merge ID [ID...]   Merge finished shards (listed by run id, any order)
                     into the campaign's reports, CSVs and telemetry —
                     byte-identical to the unsharded run after stripping
                     volatile lines. Adopts the shards' recorded
                     configuration and refuses mismatched configs/revisions,
                     as well as --checkpoint-every, --resume, --target-rse,
                     --series and --status (a merge simulates no pages)
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
  --page-bytes N  Memory-block size in bytes, a positive multiple of 64
                  (default 4096; the paper also reports 256-byte memory
                  blocks show the same trend)
  --samples N     W/R splits tested per fault event (default 1)
  --threads N     Simulation worker threads (default: SIM_THREADS env var,
                  then available parallelism; results are identical at any
                  thread count)
  --guaranteed    Use the strict all-data failure criterion
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
  --series        Sample every counter/histogram at each unit barrier into
                  a time-series sidecar
                  OUT/telemetry/<run-id>.series.jsonl, keyed by pages
                  evaluated (implies --telemetry; byte-identical per seed
                  after stripping volatile lines, at any thread count)
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
  --target-rse X  Chip figures only (fig5-fig9, fig11-fig13): deterministic
                  early stopping —
                  stop a unit at the first checkpoint barrier where the
                  lifetime estimate's relative standard error is ≤ X
                  (implies --checkpoint-every pages/8 when not set
                  explicitly; the stopped stream is byte-identical at any
                  thread count and across SIGINT + --resume)
  --checkpoint-every N
                  Chip figures only (fig5-fig9, fig11-fig13): snapshot
                  engine state to OUT/telemetry/<run-id>.ckpt.json after
                  every N-page chunk of a chip configuration (a block width;
                  fig8: a fraction), whose schemes advance together
                  (implies --telemetry). SIGINT then stops
                  the run at the next snapshot barrier with exit code 130
                  instead of killing it; the snapshot is removed when the
                  run completes
  --resume RUN_ID Chip figures only: continue RUN_ID from its snapshot to
                  output byte-identical to an uninterrupted run (implies
                  --telemetry; adopts the snapshot's recorded configuration
                  and refuses explicit conflicting options)
  --shards K      shard only: total number of shards in the campaign
  --shard-id I    shard only: this shard's index (0-based, < K)
  --progress      Report page-completion progress on stderr
  --quiet         Suppress progress/status output (for CI); reports still print
";

#[derive(Default)]
struct Cli {
    command: String,
    positionals: Vec<String>,
    opts: RunOptions,
    out_dir: PathBuf,
    telemetry: bool,
    run_id: Option<String>,
    progress: bool,
    quiet: bool,
    trace: bool,
    trace_block: Option<(usize, usize)>,
    top: usize,
    checkpoint_every: Option<usize>,
    resume: Option<String>,
    shards: Option<usize>,
    shard_id: Option<usize>,
    series: bool,
    status: bool,
    once: bool,
    json: bool,
    interval: u64,
    threshold: Option<f64>,
    target_rse: Option<f64>,
}

/// A page must hold whole blocks at every width the chip commands
/// simulate (256 and 512 bits), so its size is a positive multiple of 64
/// bytes.
fn check_page_bytes(bytes: usize) -> Result<usize, String> {
    if bytes > 0 && bytes.is_multiple_of(64) {
        Ok(bytes)
    } else {
        Err(format!(
            "invalid value '{bytes}': must be a positive multiple of 64"
        ))
    }
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(|| USAGE.to_owned())?;
    let mut cli = Cli {
        command,
        out_dir: PathBuf::from("results"),
        top: 10,
        interval: 2,
        ..Cli::default()
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
            "--page-bytes" => {
                cli.opts.page_bytes = check_page_bytes(parsed!("--page-bytes"))
                    .map_err(|e| format!("--page-bytes: {e}\n\n{USAGE}"))?;
            }
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
/// the run's telemetry (a disabled no-op instance when `--telemetry` is
/// off, so handlers never branch) and what a campaign does with its pages.
struct Ctx<'a> {
    opts: &'a RunOptions,
    out: &'a Path,
    quiet: bool,
    tel: &'a RunTelemetry,
    tracer: &'a Tracer,
    progress_fn: Option<&'a runner::SchemeProgressFn<'a>>,
    ckpt: Option<&'a CheckpointCtl<'a>>,
    series: &'a SeriesWriter,
    status_w: &'a StatusWriter,
    mode: &'a Mode,
}

/// How a chip-figure run gets its campaign's unit runs, and where they go.
enum Mode {
    /// Simulate every page, then print the reports and write the CSVs.
    Run,
    /// `shard`: simulate one stripe and store the unit runs for `merge`.
    /// Its unit barriers cover the stripe, so its series is keyed by the
    /// shard's own pages and its estimates are the stripe's; merge pools
    /// the intervals from the concatenated per-page results.
    Shard(Stripe),
    /// `merge`: read the unit runs back from finished shards, sorted by
    /// shard id, instead of simulating them. The stream gets the same span
    /// skeleton, the summed shard metrics and one codec probe, so after
    /// stripping volatile lines it is the unsharded run's, byte for byte.
    Merge(Vec<ShardInput>),
}

/// Shard `shard_id` of `shards`: its global pages and its results sidecar.
struct Stripe {
    shards: usize,
    shard_id: usize,
    pages: Range<usize>,
    /// `<run-id>.shard.json`, which `merge` reads.
    sidecar: PathBuf,
    /// The configuration the sidecar records for `merge` to adopt.
    fingerprint: Vec<(String, String)>,
}

impl Mode {
    /// The global pages this run simulates of a chip of `pages` pages.
    fn pages(&self, pages: usize) -> Range<usize> {
        match self {
            Mode::Shard(stripe) => stripe.pages.clone(),
            Mode::Run | Mode::Merge(_) => 0..pages,
        }
    }
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

    /// Runs the chip-figure campaign `figure` as [`Mode`] says — over the
    /// whole chip, straight or in snapshotted chunks under
    /// `--checkpoint-every`/`--resume`/`--target-rse`; over a shard's
    /// stripe; or from merged shards — then prints the reports `command`
    /// asks for and writes the figure's CSVs (a shard stores its sidecar
    /// instead). `None` when `figure` is no campaign. A SIGINT that stops
    /// the run surfaces as [`std::io::ErrorKind::Interrupted`], shards
    /// that disagree with this build's units as
    /// [`std::io::ErrorKind::InvalidData`].
    fn campaign(&self, figure: &str, command: &str) -> Option<std::io::Result<()>> {
        let (specs, span, emit) = campaign_specs(figure, self.opts)?;
        let pages = self.mode.pages(self.opts.pages);
        self.status(&match self.mode {
            Mode::Merge(shards) => format!(
                "[merge] combining {} shards of '{figure}' (seed {})",
                shards.len(),
                self.opts.seed
            ),
            Mode::Run | Mode::Shard(_) => format!(
                "[{figure}] simulating {} pages for each of {} units…",
                pages.len(),
                specs.len()
            ),
        });
        let run = || -> std::io::Result<()> {
            let runs = {
                let _span = self.span(span)?;
                if let Mode::Merge(shards) = self.mode {
                    let runs = shardmerge::merge_units(shards, &specs)
                        .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidData, msg))?;
                    shardmerge::absorb_shard_streams(shards, self.tel.registry());
                    runs
                } else {
                    let units: Vec<_> = specs.iter().map(UnitSpec::unit).collect();
                    let done = campaign::execute(&units, pages, &self.observer(), self.ckpt)?;
                    let done = done.ok_or_else(|| {
                        let path = self.ckpt.map(|ctl| ctl.path.display().to_string());
                        std::io::Error::new(
                            std::io::ErrorKind::Interrupted,
                            format!("checkpoint written to {}", path.unwrap_or_default()),
                        )
                    })?;
                    if let Mode::Shard(stripe) = self.mode {
                        let sidecar = Checkpoint {
                            fingerprint: stripe.fingerprint.clone(),
                            series: self.series.cursor(),
                            units: done,
                            ..Checkpoint::default()
                        };
                        return sidecar.store(&stripe.sidecar);
                    }
                    done.into_iter().map(|unit| unit.run).collect()
                }
            };
            emit(&specs, &runs, command, self.out)
        };
        Some(run())
    }

    fn span(&self, name: &str) -> std::io::Result<PhaseSpan<'_>> {
        Ok(PhaseSpan {
            _tel: self.tel.span(name)?,
            _trace: self.tracer.span(name),
        })
    }

    /// Runs a study outside the campaign driver: prints its `status` line,
    /// runs it inside the stream span `span`, prints its report and writes
    /// its CSV.
    fn study<T: std::borrow::Borrow<R>, R: ?Sized>(
        &self,
        status: Option<String>,
        span: &str,
        run: impl FnOnce() -> T,
        report: fn(&R) -> String,
        csv: fn(&R, &Path) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        if let Some(line) = status {
            self.status(&line);
        }
        let results = {
            let _span = self.span(span)?;
            run()
        };
        println!("{}", report(results.borrow()));
        csv(results.borrow(), self.out)
    }
}

/// Prints the reports `command` asks for from a campaign's unit runs, in
/// spec order, and writes the figure's CSVs.
type Emit = fn(&[UnitSpec], &[MemoryRun], &str, &Path) -> std::io::Result<()>;

/// The chip-figure campaigns: each figure command's unit specs, the stream
/// span its Monte Carlo run records under, and its [`Emit`]. Every other
/// command is `None`; only these commands checkpoint, resume, stop early,
/// shard and merge.
fn campaign_specs(command: &str, opts: &RunOptions) -> Option<(Vec<UnitSpec>, &'static str, Emit)> {
    Some(match command {
        "fig5" | "fig6" | "fig7" => (
            campaign::fig567_unit_specs(opts),
            "fig567.montecarlo",
            |specs, runs, command, out| {
                let results = fig567::assemble(specs, runs);
                let page_bytes = page_bytes(specs);
                print_reports(
                    command,
                    [
                        ("fig5", &|| fig567::report_fig5(&results, page_bytes)),
                        ("fig6", &|| fig567::report_fig6(&results, page_bytes)),
                        ("fig7", &|| fig567::report_fig7(&results)),
                    ],
                );
                fig567::write_csvs(&results, out)
            },
        ),
        "fig8" => (
            campaign::fig8_unit_specs(opts),
            "fig8.montecarlo",
            |_, runs, _, out| {
                let results = fig8::assemble(runs);
                println!("{}", fig8::report(&results));
                fig8::write_csv(&results, out)
            },
        ),
        "fig9" => (
            fig9::unit_specs(opts),
            "fig9.montecarlo",
            |specs, runs, _, out| {
                let results = fig9::assemble(specs, runs);
                println!("{}", fig9::report(&results));
                fig9::write_csv(&results, out)
            },
        ),
        "fig11" | "fig12" | "fig13" => (
            variants::unit_specs(opts),
            "variants.montecarlo",
            |specs, runs, command, out| {
                let results = variants::assemble(specs, runs);
                let page_bytes = page_bytes(specs);
                print_reports(
                    command,
                    [
                        ("fig11", &|| variants::report_fig11(&results, page_bytes)),
                        ("fig12", &|| variants::report_fig12(&results)),
                        ("fig13", &|| variants::report_fig13(&results)),
                    ],
                );
                variants::write_csvs(&results, out)
            },
        ),
        _ => return None,
    })
}

/// The page size a campaign's chips were simulated at, for report titles.
fn page_bytes(specs: &[UnitSpec]) -> usize {
    specs.first().map_or(0, |spec| spec.cfg.page_bits / 8)
}

/// One figure of a multi-figure campaign and the report that renders it.
type Report<'a> = (&'static str, &'a dyn Fn() -> String);

/// Prints each of a campaign's reports that `command` asks for (`all`
/// asks for every one).
fn print_reports(command: &str, reports: [Report<'_>; 3]) {
    for (figure, report) in reports {
        if command == figure || command == "all" {
            println!("{}", report());
        }
    }
}

/// How [`dispatch`] runs a simulation command.
#[derive(Clone, Copy)]
enum Runs {
    /// A chip-figure campaign ([`campaign_specs`]).
    Campaign,
    /// Another figure of the campaign listed before it; `all` runs that
    /// campaign once.
    SameCampaign,
    /// A study outside the campaign driver, run through [`Ctx::study`].
    Study(fn(&Ctx) -> std::io::Result<()>),
}

/// Every simulation command, in the order `all` runs them.
const COMMANDS: &[(&str, Runs)] = &[
    (
        "table1",
        Runs::Study(|ctx| {
            let report = |table: &table1::Table1| {
                let mut text = table1::report(table);
                for note in table1::diff_against_paper(table) {
                    text += &format!("\nnote: {note} (documented in EXPERIMENTS.md)");
                }
                text
            };
            ctx.study(
                None,
                "table1.analytic",
                || table1::run(512),
                report,
                table1::write_csv,
            )
        }),
    ),
    ("fig5", Runs::Campaign),
    ("fig6", Runs::SameCampaign),
    ("fig7", Runs::SameCampaign),
    ("fig8", Runs::Campaign),
    (
        "failcdf",
        Runs::Study(|ctx| {
            ctx.study(
                Some(format!(
                    "[failcdf] simulating {} blocks per scheme…",
                    ctx.opts.trials
                )),
                "failcdf.montecarlo",
                || failcdf::run(ctx.opts),
                failcdf::report,
                failcdf::write_csv,
            )
        }),
    ),
    ("fig9", Runs::Campaign),
    (
        "fig10",
        Runs::Study(|ctx| {
            ctx.study(
                Some(format!(
                    "[fig10] sweeping pointer counts over {} blocks…",
                    ctx.opts.trials
                )),
                "fig10.montecarlo",
                || fig10::run(ctx.opts),
                fig10::report,
                fig10::write_csv,
            )
        }),
    ),
    ("fig11", Runs::Campaign),
    ("fig12", Runs::SameCampaign),
    ("fig13", Runs::SameCampaign),
    (
        "wearlevel",
        Runs::Study(|ctx| {
            ctx.study(
                Some("[wearlevel] leveling skewed write streams…".to_owned()),
                "wearlevel.sim",
                || wearlevel_check::run(256, 2_000_000, ctx.opts.seed),
                wearlevel_check::report,
                wearlevel_check::write_csv,
            )
        }),
    ),
    (
        "payg",
        Runs::Study(|ctx| {
            ctx.study(
                Some(format!(
                    "[payg] matched-budget PAYG comparison over {} pages…",
                    ctx.opts.pages
                )),
                "payg.montecarlo",
                || payg_check::run(ctx.opts),
                payg_check::report,
                payg_check::write_csv,
            )
        }),
    ),
    (
        "cachestudy",
        Runs::Study(|ctx| {
            ctx.study(
                Some("[cachestudy] wearing out functional Aegis-rw blocks…".to_owned()),
                "cachestudy.sim",
                || cachestudy::run(16, ctx.opts.seed),
                cachestudy::report,
                cachestudy::write_csv,
            )
        }),
    ),
    (
        "osassist",
        Runs::Study(|ctx| {
            ctx.study(
                Some(format!(
                    "[osassist] FREE-p and pairing over {} pages…",
                    ctx.opts.pages
                )),
                "osassist.montecarlo",
                || osassist::run(ctx.opts),
                osassist::report,
                osassist::write_csv,
            )
        }),
    ),
    (
        "writecost",
        Runs::Study(|ctx| {
            let registry = ctx.tel.is_enabled().then(|| ctx.tel.registry());
            ctx.study(
                Some("[writecost] sweeping fault counts over functional codecs…".to_owned()),
                "writecost.codecs",
                || writecost::run_with(24, 16, ctx.opts.seed, registry),
                writecost::report,
                writecost::write_csv,
            )
        }),
    ),
    (
        "biasstudy",
        Runs::Study(|ctx| {
            ctx.study(
                Some("[biasstudy] sweeping data / stuck-value skew…".to_owned()),
                "biasstudy.sim",
                || biasstudy::run(200, ctx.opts.seed),
                biasstudy::report,
                biasstudy::write_csv,
            )
        }),
    ),
];

/// Runs `command`, printing the reports `shown` asks for (`all` prints
/// every report of a campaign); `None` for an unknown command.
fn dispatch(command: &str, shown: &str, ctx: &Ctx) -> Option<std::io::Result<()>> {
    if command == "all" {
        return Some(
            COMMANDS
                .iter()
                .filter(|(_, runs)| !matches!(runs, Runs::SameCampaign))
                .try_for_each(|&(name, _)| dispatch(name, "all", ctx).expect("a known command")),
        );
    }
    match COMMANDS.iter().find(|&&(name, _)| name == command)?.1 {
        Runs::Study(run) => Some(run(ctx)),
        Runs::Campaign | Runs::SameCampaign => ctx.campaign(command, shown),
    }
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

/// The configuration fingerprint stored in checkpoints and shard sidecars,
/// and adopted by `--resume` and `merge`.
fn config_fingerprint(cli: &Cli) -> Vec<(String, String)> {
    vec![
        ("command".to_owned(), cli.command.clone()),
        ("seed".to_owned(), cli.opts.seed.to_string()),
        ("pages".to_owned(), cli.opts.pages.to_string()),
        ("trials".to_owned(), cli.opts.trials.to_string()),
        ("page_bytes".to_owned(), cli.opts.page_bytes.to_string()),
        ("criterion".to_owned(), cli.opts.criterion.to_string()),
        (
            "target_rse".to_owned(),
            cli.target_rse
                .map_or_else(|| "none".to_owned(), |t| format!("{t}")),
        ),
    ]
}

/// Adopts the recorded configuration of a resume snapshot (or, for
/// `merge`, of a shard sidecar) into the CLI.
///
/// Options left at their defaults take the snapshot's values; options the
/// user set explicitly to something else are refused — resuming under a
/// different configuration could never reproduce the original run. A
/// refusal names what it read as `source`: "checkpoint" for a resume
/// snapshot, the file's path for a shard sidecar.
fn apply_resume(cli: &mut Cli, ckpt: &Checkpoint, source: &str) -> Result<(), String> {
    adopt_recorded(cli, ckpt).map_err(|refusal| format!("{source} {refusal}"))
}

/// [`apply_resume`]'s adoption, its refusals worded without their subject.
fn adopt_recorded(cli: &mut Cli, ckpt: &Checkpoint) -> Result<(), String> {
    let defaults = RunOptions::default();
    let stored = |key: &str| -> Result<&str, String> {
        ckpt.fingerprint_value(key)
            .ok_or_else(|| format!("lacks fingerprint key '{key}'"))
    };
    let command = stored("command")?;
    if command != cli.command {
        return Err(format!(
            "belongs to command '{command}', not '{}'",
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
            .map_err(|_| format!("fingerprint '{key}' value '{stored}' is malformed"))?;
        if current != recorded && current != default {
            return Err(format!(
                "was taken with {key}={recorded} but the command line says \
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
    cli.opts.page_bytes = check_page_bytes(adopt(
        "page_bytes",
        stored("page_bytes")?,
        cli.opts.page_bytes,
        defaults.page_bytes,
    )?)
    .map_err(|e| format!("fingerprint 'page_bytes' has {e}"))?;
    cli.opts.criterion = adopt(
        "criterion",
        stored("criterion")?,
        cli.opts.criterion,
        defaults.criterion,
    )?;
    // Snapshots taken before the reference mode left the CLI also carry
    // `predicate_mode`; both modes gave identical output, so it is ignored.
    // Early-stop target. Checkpoints written before the key existed mean
    // "no early stopping" — treat a missing key as "none", not an error.
    let stored_target = ckpt.fingerprint_value("target_rse").unwrap_or("none");
    let recorded: Option<f64> = match stored_target {
        "none" => None,
        raw => Some(
            raw.parse()
                .map_err(|_| format!("fingerprint 'target_rse' value '{raw}' is malformed"))?,
        ),
    };
    if cli.target_rse.is_some() && cli.target_rse != recorded {
        return Err(format!(
            "was taken with target_rse={stored_target} but the command line says \
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
fn set_run_meta(tel: &RunTelemetry, cli: &Cli) {
    tel.set_meta("command", &cli.command);
    tel.set_meta("seed", &cli.opts.seed.to_string());
    tel.set_meta("pages", &cli.opts.pages.to_string());
    tel.set_meta("trials", &cli.opts.trials.to_string());
    tel.set_meta("page_bytes", &cli.opts.page_bytes.to_string());
    tel.set_meta("criterion", &cli.opts.criterion.to_string());
    // The resolved worker count is replay metadata, not stream data: the
    // event stream stays identical at any thread count.
    tel.set_meta(
        "threads_effective",
        &sim_pool::resolve_threads(cli.opts.threads).to_string(),
    );
    tel.set_meta("out_dir", &cli.out_dir.display().to_string());
    tel.set_meta("trace", if cli.trace { "on" } else { "off" });
}

/// Opens `run_id`'s telemetry stream (only under `--telemetry`) and its
/// series and status sidecars (as `cli` asks) under the output directory,
/// and records the run's metadata. The heartbeat counts `total_pages` when
/// it is known, and a series resumed from a snapshot continues at
/// `resume_series`. Failures are printed and returned as the exit code.
fn open_sidecars(
    cli: &Cli,
    run_id: &str,
    total_pages: Option<usize>,
    resume_series: Option<SeriesCursor>,
) -> Result<(RunTelemetry, SeriesWriter, StatusWriter), ExitCode> {
    let dir = telemetry::dir(&cli.out_dir);
    let fail = |what: &'static str| {
        move |err: std::io::Error| {
            eprintln!("{what}: {err}");
            ExitCode::FAILURE
        }
    };
    let tel = if cli.telemetry {
        RunTelemetry::create(run_id, &dir).map_err(fail("telemetry"))?
    } else {
        RunTelemetry::disabled()
    };
    set_run_meta(&tel, cli);
    let series = match resume_series.filter(|cursor| cursor.seq > 0) {
        _ if !cli.series => Ok(SeriesWriter::disabled()),
        Some(cursor) => SeriesWriter::resume(run_id, &dir, 0, cursor),
        None => SeriesWriter::create(run_id, &dir, 0),
    };
    let series = series.map_err(fail("series"))?;
    let status = if cli.status {
        StatusWriter::create(run_id, &dir).map_err(fail("status"))?
    } else {
        StatusWriter::disabled()
    };
    if let Some(target) = cli.target_rse {
        status.set_target_rse(target);
    }
    if let Some(total) = total_pages {
        status.set_total_pages(total as u64);
    }
    Ok((tel, series, status))
}

/// Prints a usage error of `shard` or `merge` and returns its exit code.
fn mode_error(mode: &str, msg: &str) -> ExitCode {
    eprintln!("{mode}: {msg}\n\n{USAGE}");
    ExitCode::from(USAGE_ERROR)
}

/// `experiments shard FIG --shards K --shard-id I`: makes FIG the run's
/// command and picks its stripe. The figure run then simulates only that
/// stripe and leaves its telemetry plus a raw-results sidecar for `merge`.
fn shard_mode(cli: &mut Cli) -> Result<Mode, ExitCode> {
    let usage_error = |msg: &str| Err(mode_error("shard", msg));
    let Some(figure) = cli.positionals.first().cloned() else {
        return usage_error("expects a chip-figure command (fig5-fig9, fig11-fig13)");
    };
    if campaign_specs(&figure, &cli.opts).is_none() {
        return usage_error(&format!(
            "'{figure}' cannot be sharded (only the chip figures fig5-fig9 and fig11-fig13 can)"
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
    cli.command = figure;
    cli.telemetry = true;
    let run_id = cli.run_id.get_or_insert_with(|| {
        shardmerge::shard_run_id(&cli.command, cli.opts.seed, shards, shard_id)
    });
    let sidecar = shardmerge::sidecar_path(&telemetry::dir(&cli.out_dir), run_id);
    if !cli.quiet {
        eprintln!(
            "[shard] {} shard {shard_id}/{shards}: pages {lo}..{hi} of {}",
            cli.command, cli.opts.pages
        );
    }
    Ok(Mode::Shard(Stripe {
        shards,
        shard_id,
        pages: lo..hi,
        sidecar,
        fingerprint: config_fingerprint(cli),
    }))
}

/// `experiments merge ID [ID...]`: cross-checks the finished shards and
/// adopts their recorded configuration, so the figure run that follows
/// reads its unit runs and telemetry from them and emits the campaign's
/// reports, CSVs and stream under the unsharded run id.
fn merge_mode(cli: &mut Cli) -> Result<Mode, ExitCode> {
    if cli.positionals.is_empty() {
        eprintln!("merge expects the shard RUN_IDs to combine\n\n{USAGE}");
        return Err(ExitCode::from(USAGE_ERROR));
    }
    if cli.checkpoint_every.is_some()
        || cli.resume.is_some()
        || cli.target_rse.is_some()
        || cli.series
        || cli.status
    {
        return Err(mode_error(
            "merge",
            "--checkpoint-every/--resume/--target-rse/--series/--status do not apply to \
             merge runs (a merge simulates no pages, so no unit barrier fires)",
        ));
    }
    let dir = telemetry::dir(&cli.out_dir);
    let read = |id: &String| {
        shardmerge::read_shard(&dir, id).map_err(|err| {
            eprintln!("merge: shard '{id}': {err}");
            read_error_exit(&err)
        })
    };
    let mut inputs = cli
        .positionals
        .iter()
        .map(read)
        .collect::<Result<Vec<_>, _>>()?;
    let refuse = |msg: String| {
        eprintln!("merge: {msg}");
        ExitCode::from(USAGE_ERROR)
    };
    shardmerge::validate_shards(&mut inputs).map_err(refuse)?;
    let recorded = &inputs[0].sidecar;
    cli.command = recorded
        .fingerprint_value("command")
        .unwrap_or("")
        .to_owned();
    let source = shardmerge::sidecar_path(&dir, &inputs[0].run_id);
    apply_resume(cli, recorded, &source.display().to_string()).map_err(refuse)?;
    if campaign_specs(&cli.command, &cli.opts).is_none() {
        return Err(refuse(format!(
            "shards record command '{}', which is no chip-figure campaign",
            cli.command
        )));
    }
    cli.telemetry = true;
    Ok(Mode::Merge(inputs))
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
            read_error_exit(&err)
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
            read_error_exit(&err)
        }
    }
}

/// Exit code for a failed read of a run's files: a malformed document
/// (`InvalidData`) is bad input and exits with the usage code (2); a
/// missing or unreadable file is an I/O failure (1).
fn read_error_exit(err: &std::io::Error) -> ExitCode {
    if err.kind() == std::io::ErrorKind::InvalidData {
        ExitCode::from(USAGE_ERROR)
    } else {
        ExitCode::FAILURE
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
        Err(diff::DiffError::Malformed { path, error }) => {
            eprintln!("telemetry-diff: {}: {error}", path.display());
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
    for (i, policy) in schemes::fig5_schemes(BLOCK_BITS).iter().enumerate() {
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
    let tool: Option<fn(&Cli) -> ExitCode> = match cli.command.as_str() {
        "telemetry-report" => Some(run_telemetry_report),
        "telemetry-analyze" => Some(run_telemetry_analyze),
        "monitor" => Some(run_monitor),
        "telemetry-diff" => Some(run_telemetry_diff),
        _ => None,
    };
    if let Some(tool) = tool {
        return tool(&cli);
    }
    // `shard` and `merge` are modes of the figure run: their setup names
    // the figure as the command, and the one lifecycle below runs it.
    let mode = match cli.command.as_str() {
        "shard" => shard_mode(&mut cli),
        "merge" => merge_mode(&mut cli),
        _ => Ok(Mode::Run),
    };
    let mode = match mode {
        Ok(mode) => mode,
        Err(code) => return code,
    };
    if cli.command != "all" && !COMMANDS.iter().any(|&(name, _)| name == cli.command) {
        // Reject before any telemetry files are created for a bogus run.
        eprintln!("unknown command '{}'\n\n{USAGE}", cli.command);
        return ExitCode::from(USAGE_ERROR);
    }
    if let Some((page, block)) = cli.trace_block {
        return run_trace_block(&cli, page, block);
    }
    if !matches!(mode, Mode::Shard(_)) && (cli.shards.is_some() || cli.shard_id.is_some()) {
        eprintln!("--shards/--shard-id only apply to the shard command\n\n{USAGE}");
        return ExitCode::from(USAGE_ERROR);
    }

    // Checkpoint/resume setup. Resume first adopts the snapshot's recorded
    // configuration (so a bare `--resume ID` needs no other options), then
    // the adopted CLI state produces the fingerprint new snapshots carry.
    // Only the chip-figure campaigns checkpoint, and only they count unit
    // pages on the status heartbeat: one lookup decides both.
    let checkpointing =
        cli.checkpoint_every.is_some() || cli.resume.is_some() || cli.target_rse.is_some();
    let campaign_units = (checkpointing || cli.status)
        .then(|| campaign_specs(&cli.command, &cli.opts).map(|(specs, ..)| specs.len()))
        .flatten();
    if checkpointing && campaign_units.is_none() {
        eprintln!(
            "--checkpoint-every/--resume/--target-rse only apply to the chip-figure \
             campaigns (fig5-fig9, fig11-fig13), not '{}'\n\n{USAGE}",
            cli.command
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
        if let Err(msg) = apply_resume(&mut cli, &ckpt, "checkpoint") {
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
    let total_pages = campaign_units.map(|units| units * mode.pages(cli.opts.pages).len());
    let (tel, series, status_w) = match open_sidecars(&cli, &run_id, total_pages, resume_series) {
        Ok(sidecars) => sidecars,
        Err(code) => return code,
    };
    if let Mode::Shard(stripe) = &mode {
        for (key, value) in [
            ("shards", stripe.shards),
            ("shard_id", stripe.shard_id),
            ("page_lo", stripe.pages.start),
            ("page_hi", stripe.pages.end),
        ] {
            tel.set_meta(key, &value.to_string());
        }
        status_w.set_shard(stripe.shard_id as u64, stripe.shards as u64);
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
            fingerprint: config_fingerprint(&cli),
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
        ckpt: ckpt_ctl.as_ref(),
        series: &series,
        status_w: &status_w,
        mode: &mode,
    };

    let outcome = {
        let _run_span = tracer.span("run");
        let outcome = dispatch(&cli.command, &cli.command, &ctx);
        // A shard skips the probe: its merge runs it once, and probing in
        // every shard would count the merged codec.* counters twice.
        if matches!(outcome, Some(Ok(()))) && tel.is_enabled() && !matches!(mode, Mode::Shard(_)) {
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
        matches!(&outcome, Some(Err(err)) if err.kind() == std::io::ErrorKind::Interrupted);
    if !interrupted {
        if let Err(err) = series.finish() {
            eprintln!("series: {err}");
            return ExitCode::FAILURE;
        }
        if matches!(&outcome, Some(Ok(()))) {
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
        Some(Ok(())) => {
            if !cli.quiet {
                match &mode {
                    Mode::Shard(stripe) => {
                        eprintln!("shard results written to {}", stripe.sidecar.display());
                    }
                    Mode::Run | Mode::Merge(_) => {
                        eprintln!("CSV written to {}", cli.out_dir.display());
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Some(Err(err)) if err.kind() == std::io::ErrorKind::Interrupted => {
            eprintln!("interrupted: {err}; rerun with --resume {run_id} to continue",);
            ExitCode::from(INTERRUPTED_EXIT)
        }
        Some(Err(err)) if err.kind() == std::io::ErrorKind::InvalidData => {
            eprintln!("invalid input: {err}");
            ExitCode::from(USAGE_ERROR)
        }
        Some(Err(err)) => {
            eprintln!("I/O error: {err}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("unknown command '{}'\n\n{USAGE}", cli.command);
            ExitCode::from(USAGE_ERROR)
        }
    }
}
