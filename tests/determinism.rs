//! Hermetic-build determinism guarantees: every simulation result is a
//! pure function of its seed. Two runs with the same seed must be
//! *bit-identical* — across processes, thread counts, and machines — and
//! different seeds must actually produce different randomness.
//!
//! These properties are what make the paper's figures reproducible from
//! the seeds recorded in `results/`, and they are exactly what the
//! in-tree `sim-rng` substrate was built to pin down (no platform RNG, no
//! external crate whose algorithm may change under us).

use aegis_experiments::campaign::{self, UnitSpec};
use aegis_experiments::checkpoint::UnitProgress;
use aegis_experiments::runner::{summarize_schemes_with, RunObserver, RunOptions};
use aegis_experiments::schemes;
use aegis_pcm::aegis::{AegisPolicy, Rectangle};
use aegis_pcm::pcm::forensics::{derive_block_timeline, trace_block, BlockTraceConfig};
use aegis_pcm::pcm::montecarlo::{evaluate_block, run_memory, FailureCriterion, SimConfig};
use aegis_pcm::pcm::timeline::TimelineSampler;
use aegis_pcm::telemetry::{
    strip_volatile, Event, RunTelemetry, SeriesWriter, SharedBuf, StatusWriter, Tracer,
};
use sim_rng::{Rng, RngCore, SeedableRng, SmallRng};

/// A checkpointed fig5/6/7 campaign through the campaign executor; `None`
/// when a pending interrupt stopped it at a chunk barrier.
fn fig567_checkpointed(
    opts: &RunOptions,
    observer: &RunObserver<'_>,
    ctl: &aegis_experiments::checkpoint::CheckpointCtl<'_>,
) -> Option<aegis_experiments::fig567::Fig567> {
    let specs = campaign::fig567_unit_specs(opts);
    Some(aegis_experiments::fig567::assemble(
        &specs,
        &checkpointed_runs(&specs, opts, observer, ctl)?,
    ))
}

/// [`fig567_checkpointed`] for the fig8 campaign.
fn fig8_checkpointed(
    opts: &RunOptions,
    observer: &RunObserver<'_>,
    ctl: &aegis_experiments::checkpoint::CheckpointCtl<'_>,
) -> Option<aegis_experiments::fig8::Fig8> {
    let specs = campaign::fig8_unit_specs(opts);
    Some(aegis_experiments::fig8::assemble(&checkpointed_runs(
        &specs, opts, observer, ctl,
    )?))
}

fn checkpointed_runs(
    specs: &[UnitSpec],
    opts: &RunOptions,
    observer: &RunObserver<'_>,
    ctl: &aegis_experiments::checkpoint::CheckpointCtl<'_>,
) -> Option<Vec<aegis_pcm::pcm::montecarlo::MemoryRun>> {
    let units: Vec<_> = specs.iter().map(UnitSpec::unit).collect();
    let done =
        campaign::execute(&units, 0..opts.pages, observer, Some(ctl)).expect("checkpointed run")?;
    Some(done.into_iter().map(|unit| unit.run).collect())
}

/// One shard stripe `lo..hi` of every unit of `specs`.
fn stripe(specs: &[UnitSpec], lo: usize, hi: usize) -> Vec<UnitProgress> {
    let units: Vec<_> = specs.iter().map(UnitSpec::unit).collect();
    campaign::run(&units, lo..hi, &RunObserver::default())
}

/// The raw generator is reproducible from a seed and sensitive to it.
#[test]
fn small_rng_streams_are_seed_determined() {
    let a: Vec<u64> = SmallRng::seed_from_u64(0xA5A5).sample_iter();
    let b: Vec<u64> = SmallRng::seed_from_u64(0xA5A5).sample_iter();
    let c: Vec<u64> = SmallRng::seed_from_u64(0xA5A6).sample_iter();
    assert_eq!(a, b, "same seed must replay the identical stream");
    assert_ne!(a, c, "adjacent seeds must decorrelate");
}

trait SampleIter {
    fn sample_iter(self) -> Vec<u64>;
}

impl SampleIter for SmallRng {
    fn sample_iter(mut self) -> Vec<u64> {
        (0..64).map(|_| self.next_u64()).collect()
    }
}

/// Fault timelines (the simulator's "fault map": which cell dies when,
/// stuck at what) are bit-identical under a repeated seed.
#[test]
fn fault_timelines_replay_bit_identically() {
    let sampler = TimelineSampler::paper_default(512);
    let run = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        sampler.sample_page(&mut rng, 8)
    };
    let first = run(7);
    let second = run(7);
    let other = run(8);

    let flatten = |page: &aegis_pcm::pcm::timeline::PageTimeline| -> Vec<(u64, usize, bool, u64)> {
        page.blocks
            .iter()
            .flat_map(|b| &b.events)
            .map(|e| {
                (
                    e.time.to_bits(),
                    e.fault.offset,
                    e.fault.stuck,
                    e.split_seed,
                )
            })
            .collect()
    };
    assert_eq!(
        flatten(&first),
        flatten(&second),
        "same seed must reproduce every event time to the bit"
    );
    assert_ne!(flatten(&first), flatten(&other));
}

/// The per-page RNG derivation decorrelates pages and is itself
/// deterministic, so parallel page evaluation cannot perturb results.
#[test]
fn page_rng_derivation_is_stable_and_decorrelated() {
    let mut streams = Vec::new();
    for index in 0..16u64 {
        assert_eq!(
            TimelineSampler::page_rng(99, index).sample_iter(),
            TimelineSampler::page_rng(99, index).sample_iter()
        );
        streams.push(TimelineSampler::page_rng(99, index).sample_iter());
    }
    for i in 0..streams.len() {
        for j in (i + 1)..streams.len() {
            assert_ne!(streams[i], streams[j], "pages {i} and {j} share a stream");
        }
    }
}

/// A full Monte Carlo chip run — the top of the stack, including the
/// parallel page loop — is byte-identical under a repeated seed.
#[test]
fn monte_carlo_runs_replay_byte_identically() {
    let rect = Rectangle::new(17, 31, 512).unwrap();
    let policy = AegisPolicy::new(rect);
    let cfg = SimConfig::scaled(12, 512, 0xD06F00D);

    let first = run_memory(&policy, &cfg);
    let second = run_memory(&policy, &cfg);

    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&first.page_lifetimes), bits(&second.page_lifetimes));
    assert_eq!(
        bits(&first.unprotected_lifetimes),
        bits(&second.unprotected_lifetimes)
    );
    assert_eq!(first.faults_recovered, second.faults_recovered);
    assert_eq!(first.capped_pages, second.capped_pages);

    let reseeded = run_memory(&policy, &SimConfig::scaled(12, 512, 0xD06F00E));
    assert_ne!(
        bits(&first.page_lifetimes),
        bits(&reseeded.page_lifetimes),
        "a different master seed must produce different lifetimes"
    );
}

/// Runs fig5's 512-bit scheme sweep with telemetry attached and returns
/// the raw JSONL event stream.
fn telemetry_stream(seed: u64) -> String {
    telemetry_stream_of(seed, &schemes::fig5_schemes(512), None)
}

/// [`telemetry_stream`] with an explicit worker-thread count.
fn telemetry_stream_with(seed: u64, threads: Option<usize>) -> String {
    telemetry_stream_of(seed, &schemes::fig5_schemes(512), threads)
}

/// The JSONL event stream of `set` swept over a 3-page 512-bit chip.
fn telemetry_stream_of(seed: u64, set: &[schemes::Policy], threads: Option<usize>) -> String {
    let buf = SharedBuf::new();
    let run = RunTelemetry::with_buffer("det-check", buf.clone()).expect("buffer sink");
    let opts = RunOptions {
        pages: 3,
        seed,
        threads,
        ..RunOptions::default()
    };
    let observer = RunObserver::with_registry(run.registry());
    let _ = summarize_schemes_with(set, 512, &opts, &observer);
    run.finish().expect("finish");
    buf.text()
}

/// The fig5 scheme set of `bits` with every Aegis bar rebuilt in its
/// scalar reference mode (per-pair `Rectangle` arithmetic instead of the
/// ROM kernels) on the same formation.
fn scalar_fig5_schemes(bits: usize) -> Vec<schemes::Policy> {
    let scalar = |name: &str| {
        let (a, b) = name.strip_prefix("Aegis ")?.split_once('x')?;
        let rect = Rectangle::new(a.parse().ok()?, b.parse().ok()?, bits).ok()?;
        Some(Box::new(AegisPolicy::scalar(rect)) as schemes::Policy)
    };
    schemes::fig5_schemes(bits)
        .into_iter()
        .map(|policy| scalar(&policy.name()).unwrap_or(policy))
        .collect()
}

/// The scalar fig5 set differs from the kernel set in its Aegis bars
/// only: every bar keeps its name, overhead and block size.
#[test]
fn scalar_fig5_set_mirrors_the_kernel_set() {
    for bits in [256usize, 512] {
        let kernel = schemes::fig5_schemes(bits);
        let scalar = scalar_fig5_schemes(bits);
        assert_eq!(kernel.len(), scalar.len());
        for (k, s) in kernel.iter().zip(&scalar) {
            assert_eq!(k.name(), s.name());
            assert_eq!(k.overhead_bits(), s.overhead_bits());
            assert_eq!(k.block_bits(), s.block_bits());
        }
    }
}

/// The fig5/6/7 CSVs at both block widths are byte-identical whether the
/// Aegis bars decide with the ROM kernels or the scalar references.
#[test]
fn scalar_mode_reproduces_kernel_results_exactly() {
    use aegis_experiments::fig567;
    let opts = RunOptions {
        pages: 4,
        seed: 3,
        ..RunOptions::default()
    };
    let csvs = |scalar: bool, dir: &std::path::Path| {
        let specs: Vec<UnitSpec> = [256, 512]
            .into_iter()
            .flat_map(|bits| {
                let set = if scalar {
                    scalar_fig5_schemes(bits)
                } else {
                    schemes::fig5_schemes(bits)
                };
                set.into_iter().map(move |policy| UnitSpec {
                    label: policy.name(),
                    cfg: opts.sim_config(bits),
                    policy,
                })
            })
            .collect();
        let runs = campaign::run_specs(&specs, opts.pages, &RunObserver::default());
        let _ = std::fs::remove_dir_all(dir);
        fig567::write_csvs(&fig567::assemble(&specs, &runs), dir).expect("write CSVs");
        ["fig5.csv", "fig6.csv", "fig7.csv"].map(|csv| std::fs::read(dir.join(csv)).unwrap())
    };
    let root = std::env::temp_dir().join("aegis-det-scalar-csvs");
    let kernel = csvs(false, &root.join("kernel"));
    let scalar = csvs(true, &root.join("scalar"));
    for (csv, (k, s)) in ["fig5", "fig6", "fig7"]
        .iter()
        .zip(kernel.iter().zip(&scalar))
    {
        let text = String::from_utf8_lossy(k);
        assert!(
            text.contains("\n256,") && text.contains("\n512,"),
            "{csv}: a width is missing"
        );
        assert_eq!(k, s, "{csv}.csv must not depend on the predicate mode");
    }
    let _ = std::fs::remove_dir_all(root);
}

/// The ROM-kernel predicates and their scalar references are one
/// implementation as far as the determinism contract is concerned: the
/// whole fig5 sweep run through both must serialize byte-identical
/// telemetry.
#[test]
fn kernel_and_scalar_paths_serialize_identical_telemetry() {
    let kernel = telemetry_stream(11);
    let scalar = telemetry_stream_of(11, &scalar_fig5_schemes(512), None);
    assert_eq!(
        strip_volatile(&kernel),
        strip_volatile(&scalar),
        "scalar reference must replay the kernel path's stream byte for byte"
    );
}

/// The telemetry event stream is part of the determinism contract: it
/// carries no wall-clock data, so two same-seed runs — including the
/// parallel Monte Carlo page loop feeding counters from worker threads —
/// must serialize byte-identical JSONL. Different seeds must not.
#[test]
fn telemetry_event_streams_are_byte_identical_under_a_repeated_seed() {
    let first = telemetry_stream(11);
    let second = telemetry_stream(11);
    let other = telemetry_stream(12);
    // Pool scheduling counters are declared volatile; everything else in
    // the stream is covered by the byte-identity contract.
    assert_eq!(
        strip_volatile(&first),
        strip_volatile(&second),
        "same seed must replay the identical stream"
    );
    assert_ne!(
        strip_volatile(&first),
        strip_volatile(&other),
        "different seeds must change observed metrics"
    );
}

/// The stream round-trips through the parser that `telemetry-report`
/// uses, and the final snapshot reflects what the run actually did.
#[test]
fn telemetry_streams_round_trip_through_the_report_parser() {
    let stream = telemetry_stream(11);
    let events = Event::parse_stream(&stream).expect("stream parses with contiguous seq");
    assert!(matches!(&events[0], Event::RunStart { run_id } if run_id == "det-check"));
    assert!(matches!(events.last(), Some(Event::RunEnd { .. })));
    let pages = events
        .iter()
        .find_map(|e| match e {
            Event::Counter { name, value } if name == "mc.Aegis 9x61.pages" => Some(*value),
            _ => None,
        })
        .expect("per-scheme page counter present");
    assert_eq!(pages, 3, "counter snapshot must equal the simulated pages");
    assert!(
        events.iter().any(
            |e| matches!(e, Event::Histogram { name, .. } if name.ends_with(".page_fault_arrivals"))
        ),
        "fault-arrival histograms must be in the stream"
    );
}

/// The worker-thread count is a pure throughput knob: page RNGs derive
/// from `(seed, page_idx)` and outputs are keyed by index, so running the
/// pool with 1, 2, or 8 workers must produce identical results and (after
/// dropping the declared-volatile pool counters) identical telemetry.
#[test]
fn thread_count_does_not_perturb_results_or_telemetry() {
    let single = telemetry_stream_with(11, Some(1));
    for threads in [2usize, 8] {
        let pooled = telemetry_stream_with(11, Some(threads));
        assert_eq!(
            strip_volatile(&single),
            strip_volatile(&pooled),
            "threads={threads} must replay the single-thread stream"
        );
    }
    // The scheduling counters themselves are still observable in the raw
    // stream (as `volatile` events), just excluded from the contract.
    assert!(
        single.contains("\"event\": \"volatile\""),
        "pool counters must be present as volatile events"
    );

    let summaries = |threads: Option<usize>| {
        let opts = RunOptions {
            pages: 5,
            seed: 23,
            threads,
            ..RunOptions::default()
        };
        summarize_schemes_with(
            &schemes::fig5_schemes(512),
            512,
            &opts,
            &RunObserver::default(),
        )
    };
    let one = summaries(Some(1));
    let four = summaries(Some(4));
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.mean_faults_recovered.to_bits(),
            b.mean_faults_recovered.to_bits()
        );
        assert_eq!(a.mean_lifetime.to_bits(), b.mean_lifetime.to_bits());
        assert_eq!(a.half_lifetime.to_bits(), b.half_lifetime.to_bits());
    }
}

/// [`telemetry_stream_with`] with a live span tracer attached to the
/// observer, so the engine records per-page wall-clock spans while it
/// feeds the deterministic stream.
fn telemetry_stream_traced(seed: u64, threads: Option<usize>) -> String {
    let buf = SharedBuf::new();
    let run = RunTelemetry::with_buffer("det-check", buf.clone()).expect("buffer sink");
    let opts = RunOptions {
        pages: 3,
        seed,
        threads,
        ..RunOptions::default()
    };
    let tracer = Tracer::new(1024);
    let observer = RunObserver {
        registry: Some(run.registry()),
        tracer: Some(&tracer),
        ..RunObserver::default()
    };
    let _ = summarize_schemes_with(&schemes::fig5_schemes(512), 512, &opts, &observer);
    let log = tracer
        .finish("det-check")
        .expect("an enabled tracer yields a log");
    assert!(
        log.spans.iter().any(|s| s.name == "page"),
        "tracing must actually record engine spans"
    );
    run.finish().expect("finish");
    buf.text()
}

/// Wall-clock tracing is a pure observer: the stripped telemetry stream
/// must be byte-identical with tracing on or off, and — with tracing on —
/// across any worker-thread count. Span records live only in the separate
/// trace sidecar, never in the stream.
#[test]
fn tracing_does_not_perturb_the_deterministic_stream() {
    let plain = telemetry_stream_with(11, Some(2));
    let traced = telemetry_stream_traced(11, Some(2));
    assert_eq!(
        strip_volatile(&plain),
        strip_volatile(&traced),
        "enabling tracing must not change a single stream byte"
    );
    let single = telemetry_stream_traced(11, Some(1));
    let pooled = telemetry_stream_traced(11, Some(4));
    assert_eq!(
        strip_volatile(&single),
        strip_volatile(&pooled),
        "traced runs must stay thread-count independent"
    );
}

/// Runs the fig5 512-bit sweep with a series sidecar attached and returns
/// `(deterministic stream, series sidecar)` text. Optionally attaches a
/// tracer and a live status heartbeat, which must both be pure observers.
fn series_stream_with(
    seed: u64,
    threads: Option<usize>,
    traced: bool,
    status: Option<&StatusWriter>,
) -> (String, String) {
    let buf = SharedBuf::new();
    let series_buf = SharedBuf::new();
    let run = RunTelemetry::with_buffer("series-det", buf.clone()).expect("buffer sink");
    let series = SeriesWriter::with_buffer("series-det", series_buf.clone(), 0).expect("series");
    let opts = RunOptions {
        pages: 3,
        seed,
        threads,
        ..RunOptions::default()
    };
    let tracer = if traced {
        Tracer::new(1024)
    } else {
        Tracer::disabled()
    };
    let observer = RunObserver {
        registry: Some(run.registry()),
        tracer: tracer.is_enabled().then_some(&tracer),
        series: Some(&series),
        status,
        ..RunObserver::default()
    };
    let _ = summarize_schemes_with(&schemes::fig5_schemes(512), 512, &opts, &observer);
    series.finish().expect("series finish");
    run.finish().expect("finish");
    (buf.text(), series_buf.text())
}

/// The series sidecar is part of the determinism contract: samples are
/// taken at unit barriers keyed by pages evaluated (never wall clock), so
/// after stripping the declared-volatile pool samples the sidecar must be
/// byte-identical across worker-thread counts, with tracing on or off,
/// and with live status monitoring on or off — and attaching the sidecar
/// must not change a byte of the deterministic stream itself.
#[test]
fn series_sidecar_is_byte_identical_across_threads_tracing_and_monitoring() {
    let (plain_stream, _) = {
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("series-det", buf.clone()).expect("buffer sink");
        let opts = RunOptions {
            pages: 3,
            seed: 11,
            threads: Some(2),
            ..RunOptions::default()
        };
        let observer = RunObserver::with_registry(run.registry());
        let _ = summarize_schemes_with(&schemes::fig5_schemes(512), 512, &opts, &observer);
        run.finish().expect("finish");
        (buf.text(), ())
    };

    let status_dir = std::env::temp_dir().join("aegis-det-series-status");
    let _ = std::fs::remove_dir_all(&status_dir);
    let status = StatusWriter::create("series-det", &status_dir).expect("status");
    let (stream_1, series_1) = series_stream_with(11, Some(1), false, None);
    let (stream_4, series_4) = series_stream_with(11, Some(4), true, Some(&status));
    let (_, series_8) = series_stream_with(11, Some(8), false, None);
    let (_, series_other) = series_stream_with(12, Some(1), false, None);
    let _ = std::fs::remove_dir_all(&status_dir);

    assert_eq!(
        strip_volatile(&plain_stream),
        strip_volatile(&stream_1),
        "attaching a series sidecar must not change the deterministic stream"
    );
    assert_eq!(
        strip_volatile(&stream_1),
        strip_volatile(&stream_4),
        "stream identity must hold with series + tracing + status attached"
    );
    assert_eq!(
        strip_volatile(&series_1),
        strip_volatile(&series_4),
        "series sidecars must be identical across threads/tracing/monitoring"
    );
    assert_eq!(strip_volatile(&series_1), strip_volatile(&series_8));
    assert_ne!(
        strip_volatile(&series_1),
        strip_volatile(&series_other),
        "different seeds must change the sampled series"
    );
    // The scheduling-dependent pool samples are present in the raw sidecar
    // as series_volatile events — observable, but outside the contract.
    assert!(
        series_4.contains("\"event\": \"series_volatile\""),
        "pool counters must be sampled as series_volatile events"
    );
    assert!(series_1.contains("\"event\": \"series\""));
    assert!(series_1.contains("\"event\": \"series_histogram\""));
}

/// An interrupted-then-resumed checkpointed run continues its series
/// sidecar from the snapshot's cursor: the finished file must be
/// byte-identical (after volatile stripping) to the sidecar of a run
/// that was never interrupted.
#[test]
fn checkpoint_resume_continues_the_series_sidecar() {
    use aegis_experiments::checkpoint::{Checkpoint, CheckpointCtl};
    use std::sync::atomic::{AtomicBool, Ordering};

    let opts = RunOptions {
        pages: 4,
        seed: 13,
        ..RunOptions::default()
    };
    let dir = std::env::temp_dir().join("aegis-det-series-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let straight_dir = dir.join("straight");
    let resumed_dir = dir.join("resumed");
    let path = dir.join("sr.ckpt.json");

    // Straight reference leg.
    {
        let run = RunTelemetry::with_buffer("sr", SharedBuf::new()).expect("buffer sink");
        let series = SeriesWriter::create("sr", &straight_dir, 0).expect("series");
        let observer = RunObserver {
            registry: Some(run.registry()),
            series: Some(&series),
            ..RunObserver::default()
        };
        match fig567_checkpointed(
            &opts,
            &observer,
            &CheckpointCtl {
                path: dir.join("straight.ckpt.json"),
                every: 2,
                interrupted: &AtomicBool::new(false),
                resume: None,
                fingerprint: vec![("command".to_owned(), "fig5".to_owned())],
                target_rse: None,
            },
        ) {
            Some(_) => {}
            None => panic!("nothing interrupts the straight leg"),
        }
        series.finish().expect("series finish");
        run.finish().expect("finish");
    }

    // Interrupted leg: the progress hook pulls the plug mid-run, so the
    // snapshot lands at a chunk barrier with the sidecar mid-unit.
    {
        let interrupted = AtomicBool::new(false);
        let pull_plug = |_: &str, done: usize, _: usize| {
            if done >= 2 {
                interrupted.store(true, Ordering::SeqCst);
            }
        };
        let run = RunTelemetry::with_buffer("sr", SharedBuf::new()).expect("buffer sink");
        let series = SeriesWriter::create("sr", &resumed_dir, 0).expect("series");
        let observer = RunObserver {
            registry: Some(run.registry()),
            progress: Some(&pull_plug),
            series: Some(&series),
            ..RunObserver::default()
        };
        let ctl = CheckpointCtl {
            path: path.clone(),
            every: 2,
            interrupted: &interrupted,
            resume: None,
            fingerprint: vec![("command".to_owned(), "fig5".to_owned())],
            target_rse: None,
        };
        match fig567_checkpointed(&opts, &observer, &ctl) {
            None => {}
            Some(_) => panic!("the pulled plug must stop the run"),
        }
        assert!(path.exists(), "interruption must leave a snapshot");
        run.finish().expect("finish");
        // The writer is dropped without finish(): an interrupted sidecar
        // is open-ended, exactly like the CLI leaves it.
    }

    // Resumed leg: reopen the sidecar at the snapshot's cursor.
    {
        let resume = Checkpoint::load(&path).expect("snapshot loads");
        let run = RunTelemetry::with_buffer("sr", SharedBuf::new()).expect("buffer sink");
        let series =
            SeriesWriter::resume("sr", &resumed_dir, 0, resume.series).expect("series resume");
        let observer = RunObserver {
            registry: Some(run.registry()),
            series: Some(&series),
            ..RunObserver::default()
        };
        let ctl = CheckpointCtl {
            path: path.clone(),
            every: 2,
            interrupted: &AtomicBool::new(false),
            resume: Some(resume),
            fingerprint: vec![("command".to_owned(), "fig5".to_owned())],
            target_rse: None,
        };
        match fig567_checkpointed(&opts, &observer, &ctl) {
            Some(_) => {}
            None => panic!("nothing interrupts the resumed leg"),
        }
        series.finish().expect("series finish");
        run.finish().expect("finish");
    }

    let straight = std::fs::read_to_string(straight_dir.join("sr.series.jsonl")).expect("read");
    let resumed = std::fs::read_to_string(resumed_dir.join("sr.series.jsonl")).expect("read");
    assert_eq!(
        strip_volatile(&resumed),
        strip_volatile(&straight),
        "resume must continue the sidecar byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// PR 10 pin: turning on estimate telemetry and `--target-rse` early
/// stopping must not perturb the deterministic contract as long as the
/// target is never reached. Estimate snapshots live only in the series
/// sidecar (never the main event stream), and an unreachable target
/// leaves both the stripped stream and the sidecar byte-identical to a
/// run with early stopping disabled.
#[test]
fn unreached_target_rse_and_estimates_leave_the_stream_byte_identical() {
    use aegis_experiments::checkpoint::CheckpointCtl;
    use std::sync::atomic::AtomicBool;

    let dir = std::env::temp_dir().join("aegis-det-target-rse");
    let _ = std::fs::remove_dir_all(&dir);

    let leg = |tag: &str, target_rse: Option<f64>| {
        let opts = RunOptions {
            pages: 4,
            seed: 13,
            ..RunOptions::default()
        };
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("tr", buf.clone()).expect("buffer sink");
        let series_dir = dir.join(tag);
        let series = SeriesWriter::create("tr", &series_dir, 0).expect("series");
        let observer = RunObserver {
            registry: Some(run.registry()),
            series: Some(&series),
            ..RunObserver::default()
        };
        let ctl = CheckpointCtl {
            path: dir.join(format!("{tag}.ckpt.json")),
            every: 2,
            interrupted: &AtomicBool::new(false),
            resume: None,
            fingerprint: vec![("command".to_owned(), "fig5".to_owned())],
            target_rse,
        };
        let results = match fig567_checkpointed(&opts, &observer, &ctl) {
            Some(results) => results,
            None => panic!("nothing interrupts this leg"),
        };
        series.finish().expect("series finish");
        run.finish().expect("finish");
        let sidecar = std::fs::read_to_string(series_dir.join("tr.series.jsonl")).expect("sidecar");
        let summary_bits: Vec<(String, u64, u64)> = results
            .by_block
            .iter()
            .flat_map(|(_, summaries)| summaries.iter())
            .map(|s| {
                (
                    s.name.clone(),
                    s.mean_lifetime.to_bits(),
                    s.mean_faults_recovered.to_bits(),
                )
            })
            .collect();
        (buf.text(), sidecar, summary_bits)
    };

    // An RSE of 1e-12 is unreachable at 4 pages: the early-stop predicate
    // is evaluated at every barrier and never fires.
    let (stream_off, sidecar_off, results_off) = leg("off", None);
    let (stream_on, sidecar_on, results_on) = leg("on", Some(1e-12));
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        strip_volatile(&stream_on),
        strip_volatile(&stream_off),
        "an unreached --target-rse must not change the deterministic stream"
    );
    assert_eq!(
        strip_volatile(&sidecar_on),
        strip_volatile(&sidecar_off),
        "an unreached --target-rse must not change the series sidecar"
    );
    assert_eq!(
        results_on, results_off,
        "an unreached --target-rse must not change the results"
    );
    assert!(
        sidecar_on.contains("\"event\": \"series_estimate\""),
        "unit barriers must snapshot estimates into the sidecar"
    );
    assert!(
        !stream_on.contains("series_estimate"),
        "estimate snapshots must never leak into the main event stream"
    );
}

/// Block-death forensics is an exact replay: for every fig5 scheme, the
/// re-derived fault history reaches the same outcome as the engine's
/// block loop (same entropy consumption, same short-circuiting), and the
/// rendered report is byte-identical across replays.
#[test]
fn block_forensics_replays_the_engine_decision_for_decision() {
    for criterion in [
        FailureCriterion::default(),
        FailureCriterion::GuaranteedAllData,
    ] {
        let cfg = BlockTraceConfig {
            seed: 42,
            page_bits: 4096 * 8,
            block_bits: 512,
            criterion,
            page: 1,
            block: 12,
            partial_fraction: 0.0,
        };
        let timeline = derive_block_timeline(&cfg).expect("valid geometry");
        for policy in schemes::fig5_schemes(512) {
            let trace = trace_block(policy.as_ref(), &timeline, cfg.criterion);
            let engine = evaluate_block(policy.as_ref(), &timeline, cfg.criterion);
            assert_eq!(
                trace.outcome,
                engine,
                "{} must replay the engine verdict",
                policy.name()
            );
            let replayed = derive_block_timeline(&cfg).expect("valid geometry");
            assert_eq!(
                trace.report(&cfg),
                trace_block(policy.as_ref(), &replayed, cfg.criterion).report(&cfg),
                "{} report must be byte-identical across replays",
                policy.name()
            );
        }
    }
}

/// Distribution helpers consume entropy identically regardless of how the
/// generator is accessed (directly or through `dyn RngCore`), so
/// refactors that change static dispatch to dynamic cannot shift streams.
#[test]
fn dispatch_does_not_shift_streams() {
    let mut direct = SmallRng::seed_from_u64(3);
    let mut boxed: Box<dyn RngCore> = Box::new(SmallRng::seed_from_u64(3));
    for _ in 0..256 {
        assert_eq!(
            direct.random_range(0..1000usize),
            boxed.random_range(0..1000usize)
        );
        assert_eq!(
            direct.random::<f64>().to_bits(),
            boxed.random::<f64>().to_bits()
        );
        assert_eq!(direct.random_bool(0.3), boxed.random_bool(0.3));
    }
}

/// Page-range execution is a pure reindexing of the full run: evaluating
/// `[0, k)` and `[k, pages)` separately and concatenating gives the
/// bit-identical result of one `[0, pages)` pass, because every page's
/// randomness is its own seed-disjoint substream of the master seed.
/// This is the property checkpoint chunks and campaign shards build on.
#[test]
fn page_ranges_concatenate_to_the_full_run() {
    use aegis_pcm::pcm::montecarlo::{run_memory_range_with, RunHooks};

    let cfg = SimConfig::scaled(5, 512, 21);
    let policy = AegisPolicy::new(Rectangle::new(9, 61, 512).unwrap());
    let hooks = RunHooks::default();
    let full = run_memory_range_with(&policy, &cfg, 0, cfg.pages, &hooks);
    for split in 0..=cfg.pages {
        let head = run_memory_range_with(&policy, &cfg, 0, split, &hooks);
        let tail = run_memory_range_with(&policy, &cfg, split, cfg.pages, &hooks);
        let glue =
            |a: &[f64], b: &[f64]| -> Vec<u64> { a.iter().chain(b).map(|v| v.to_bits()).collect() };
        assert_eq!(
            glue(&head.page_lifetimes, &tail.page_lifetimes),
            full.page_lifetimes
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "split at {split} must concatenate bit-identically"
        );
        assert_eq!(
            glue(&head.unprotected_lifetimes, &tail.unprotected_lifetimes),
            full.unprotected_lifetimes
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        let mut faults = head.faults_recovered.clone();
        faults.extend(&tail.faults_recovered);
        assert_eq!(faults, full.faults_recovered);
        assert_eq!(head.capped_pages + tail.capped_pages, full.capped_pages);
    }
}

/// An interrupted-then-resumed checkpointed fig5/6/7 run serializes the
/// byte-identical deterministic event stream of a straight run, and its
/// results match bit for bit — the tentpole contract of `--resume`.
#[test]
fn checkpoint_interrupt_and_resume_replays_the_straight_run() {
    use aegis_experiments::checkpoint::{Checkpoint, CheckpointCtl};
    use aegis_experiments::fig567;
    use std::sync::atomic::{AtomicBool, Ordering};

    let opts = RunOptions {
        pages: 4,
        seed: 13,
        ..RunOptions::default()
    };
    let dir = std::env::temp_dir().join("aegis-det-ckpt-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("det.ckpt.json");

    // Straight reference run, stream captured in memory.
    let straight_stream = {
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("ck-det", buf.clone()).expect("buffer sink");
        let observer = RunObserver::with_registry(run.registry());
        let _ = fig567::run_with(&opts, &observer);
        run.finish().expect("finish");
        buf.text()
    };

    // Interrupted leg: the "SIGINT" lands before the first chunk barrier,
    // so the run snapshots immediately and stops.
    {
        let interrupted = AtomicBool::new(true);
        let ctl = CheckpointCtl {
            path: path.clone(),
            every: 2,
            interrupted: &interrupted,
            resume: None,
            fingerprint: vec![("command".to_owned(), "fig5".to_owned())],
            target_rse: None,
        };
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("ck-det", buf.clone()).expect("buffer sink");
        let observer = RunObserver::with_registry(run.registry());
        match fig567_checkpointed(&opts, &observer, &ctl) {
            None => {}
            Some(_) => panic!("pending interrupt must stop the run"),
        }
        assert!(path.exists(), "interruption must leave a snapshot behind");
        run.finish().expect("finish");
        interrupted.store(false, Ordering::SeqCst);
    }

    // Resumed leg: continue from the snapshot to completion.
    let (resumed, resumed_stream) = {
        let resume = Checkpoint::load(&path).expect("snapshot loads");
        let interrupted = AtomicBool::new(false);
        let ctl = CheckpointCtl {
            path: path.clone(),
            every: 2,
            interrupted: &interrupted,
            resume: Some(resume),
            fingerprint: vec![("command".to_owned(), "fig5".to_owned())],
            target_rse: None,
        };
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("ck-det", buf.clone()).expect("buffer sink");
        let observer = RunObserver::with_registry(run.registry());
        let results = match fig567_checkpointed(&opts, &observer, &ctl) {
            Some(results) => results,
            None => panic!("nothing interrupts the resumed leg"),
        };
        run.finish().expect("finish");
        (results, buf.text())
    };
    assert!(!path.exists(), "completion must remove the snapshot");
    assert_eq!(
        strip_volatile(&resumed_stream),
        strip_volatile(&straight_stream),
        "resume must serialize the straight run's deterministic stream byte for byte"
    );

    let straight = {
        let observer = RunObserver::default();
        fig567::run_with(&opts, &observer)
    };
    assert_eq!(resumed.by_block.len(), straight.by_block.len());
    for ((rb, rs), (sb, ss)) in resumed.by_block.iter().zip(&straight.by_block) {
        assert_eq!(rb, sb);
        for (r, s) in rs.iter().zip(ss) {
            assert_eq!(r.name, s.name);
            assert_eq!(
                r.mean_faults_recovered.to_bits(),
                s.mean_faults_recovered.to_bits()
            );
            assert_eq!(r.mean_lifetime.to_bits(), s.mean_lifetime.to_bits());
            assert_eq!(r.half_lifetime.to_bits(), s.half_lifetime.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flattens a fig8 sweep into a bit-exact comparison key.
fn fig8_bits(results: &aegis_experiments::fig8::Fig8) -> Vec<(usize, String, u64, u64)> {
    results
        .by_fraction
        .iter()
        .flat_map(|(percent, summaries)| {
            summaries.iter().map(|s| {
                (
                    *percent,
                    s.name.clone(),
                    s.mean_faults_recovered.to_bits(),
                    s.half_lifetime.to_bits(),
                )
            })
        })
        .collect()
}

/// The fig8 partially-stuck sweep obeys the same contract as every other
/// figure: worker threads are a pure throughput knob, the same seed
/// replays bit-identical results, and a different seed actually changes
/// them — including the partial-fault timelines the sweep is built on.
#[test]
fn fig8_sweep_is_thread_count_independent_and_seed_sensitive() {
    use aegis_experiments::fig8;
    let sweep = |seed: u64, threads: Option<usize>| {
        let opts = RunOptions {
            pages: 3,
            seed,
            threads,
            ..RunOptions::default()
        };
        fig8_bits(&fig8::run_with(&opts, &RunObserver::default()))
    };
    let single = sweep(31, Some(1));
    assert_eq!(single, sweep(31, Some(1)), "same seed must replay");
    for threads in [2usize, 4] {
        assert_eq!(
            single,
            sweep(31, Some(threads)),
            "threads={threads} must match the single-thread sweep"
        );
    }
    assert_ne!(single, sweep(32, Some(1)), "different seeds must differ");
}

/// Runs the fig8 sweep with telemetry attached (optionally traced) and
/// returns the raw JSONL event stream.
fn fig8_stream(seed: u64, threads: Option<usize>, traced: bool) -> String {
    let buf = SharedBuf::new();
    let run = RunTelemetry::with_buffer("fig8-det", buf.clone()).expect("buffer sink");
    let opts = RunOptions {
        pages: 2,
        seed,
        threads,
        ..RunOptions::default()
    };
    let tracer = if traced {
        Tracer::new(1024)
    } else {
        Tracer::disabled()
    };
    let observer = RunObserver {
        registry: Some(run.registry()),
        tracer: tracer.is_enabled().then_some(&tracer),
        ..RunObserver::default()
    };
    let _ = aegis_experiments::fig8::run_with(&opts, &observer);
    if traced {
        tracer
            .finish("fig8-det")
            .expect("an enabled tracer yields a log");
    }
    run.finish().expect("finish");
    buf.text()
}

/// fig8's telemetry stream is covered by the byte-identity contract:
/// thread counts and wall-clock tracing must not change a single stripped
/// byte, and reseeding must.
#[test]
fn fig8_telemetry_is_byte_identical_across_threads_and_tracing() {
    let single = fig8_stream(11, Some(1), false);
    assert_eq!(
        strip_volatile(&single),
        strip_volatile(&fig8_stream(11, Some(4), false)),
        "fig8 must stay thread-count independent"
    );
    assert_eq!(
        strip_volatile(&single),
        strip_volatile(&fig8_stream(11, Some(2), true)),
        "tracing a fig8 run must not perturb the stream"
    );
    assert_ne!(
        strip_volatile(&single),
        strip_volatile(&fig8_stream(12, Some(1), false)),
        "different seeds must change observed metrics"
    );
}

/// An interrupted-then-resumed checkpointed fig8 run serializes the
/// byte-identical deterministic event stream of a straight run, and its
/// sweep results match bit for bit.
#[test]
fn fig8_checkpoint_interrupt_and_resume_replays_the_straight_run() {
    use aegis_experiments::checkpoint::{Checkpoint, CheckpointCtl};
    use aegis_experiments::fig8;
    use std::sync::atomic::AtomicBool;

    let opts = RunOptions {
        pages: 4,
        seed: 13,
        ..RunOptions::default()
    };
    let dir = std::env::temp_dir().join("aegis-det-fig8-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("fig8.ckpt.json");

    // Straight reference run, stream captured in memory.
    let straight_stream = {
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("f8-det", buf.clone()).expect("buffer sink");
        let observer = RunObserver::with_registry(run.registry());
        let _ = fig8::run_with(&opts, &observer);
        run.finish().expect("finish");
        buf.text()
    };

    // Interrupted leg: the pending "SIGINT" stops the run at the first
    // chunk barrier, leaving a snapshot behind.
    {
        let interrupted = AtomicBool::new(true);
        let ctl = CheckpointCtl {
            path: path.clone(),
            every: 2,
            interrupted: &interrupted,
            resume: None,
            fingerprint: vec![("command".to_owned(), "fig8".to_owned())],
            target_rse: None,
        };
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("f8-det", buf.clone()).expect("buffer sink");
        let observer = RunObserver::with_registry(run.registry());
        match fig8_checkpointed(&opts, &observer, &ctl) {
            None => {}
            Some(_) => panic!("pending interrupt must stop the run"),
        }
        assert!(path.exists(), "interruption must leave a snapshot behind");
        run.finish().expect("finish");
    }

    // Resumed leg: continue from the snapshot to completion.
    let (resumed, resumed_stream) = {
        let resume = Checkpoint::load(&path).expect("snapshot loads");
        let interrupted = AtomicBool::new(false);
        let ctl = CheckpointCtl {
            path: path.clone(),
            every: 2,
            interrupted: &interrupted,
            resume: Some(resume),
            fingerprint: vec![("command".to_owned(), "fig8".to_owned())],
            target_rse: None,
        };
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("f8-det", buf.clone()).expect("buffer sink");
        let observer = RunObserver::with_registry(run.registry());
        let results = match fig8_checkpointed(&opts, &observer, &ctl) {
            Some(results) => results,
            None => panic!("nothing interrupts the resumed leg"),
        };
        run.finish().expect("finish");
        (results, buf.text())
    };
    assert!(!path.exists(), "completion must remove the snapshot");
    assert_eq!(
        strip_volatile(&resumed_stream),
        strip_volatile(&straight_stream),
        "resume must serialize the straight run's deterministic stream byte for byte"
    );
    let straight = fig8::run_with(&opts, &RunObserver::default());
    assert_eq!(fig8_bits(&resumed), fig8_bits(&straight));
    let _ = std::fs::remove_dir_all(&dir);
}

/// fig9 and the fig11–13 variants run through the same checkpointed
/// campaign path: stopped after their first chunk and resumed, each
/// replays its straight run's per-page results and deterministic stream.
#[test]
fn fig9_and_variant_campaigns_resume_to_the_straight_run() {
    use aegis_experiments::checkpoint::{Checkpoint, CheckpointCtl};
    use aegis_experiments::{fig9, variants};
    use std::sync::atomic::{AtomicBool, Ordering};

    let opts = RunOptions {
        pages: 5,
        seed: 21,
        ..RunOptions::default()
    };
    let dir = std::env::temp_dir().join("aegis-det-chip-figures-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("chip.ckpt.json");
    // Runs `specs` to completion or interruption, from `resume` if given;
    // `stop` raises the interrupt flag on the first page's progress report.
    let leg = |specs: &[UnitSpec], resume: Option<Checkpoint>, stop: bool| {
        let interrupted = AtomicBool::new(false);
        let ctl = CheckpointCtl {
            path: path.clone(),
            every: 2,
            interrupted: &interrupted,
            resume,
            fingerprint: Vec::new(),
            target_rse: None,
        };
        let raise = |_: &str, _: usize, _: usize| interrupted.store(stop, Ordering::SeqCst);
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("chip-det", buf.clone()).expect("buffer sink");
        let observer = RunObserver {
            progress: Some(&raise),
            ..RunObserver::with_registry(run.registry())
        };
        let units: Vec<_> = specs.iter().map(UnitSpec::unit).collect();
        let done = campaign::execute(&units, 0..opts.pages, &observer, Some(&ctl)).expect("run");
        run.finish().expect("finish");
        (done, buf.text())
    };
    for (figure, specs) in [
        ("fig9", fig9::unit_specs(&opts)),
        ("variants", variants::unit_specs(&opts)),
    ] {
        let (straight, straight_stream) = leg(&specs, None, false);
        let straight = straight.expect("nothing interrupts the straight run");
        let (stopped, _) = leg(&specs, None, true);
        assert!(
            stopped.is_none(),
            "{figure}: the interrupt must stop the run"
        );
        let snapshot = Checkpoint::load(&path).expect("snapshot loads");
        assert!(
            snapshot.units.iter().all(|unit| unit.pages_done == 2),
            "{figure}: the snapshot follows the first chunk"
        );
        let (resumed, resumed_stream) = leg(&specs, Some(snapshot), false);
        assert!(
            !path.exists(),
            "{figure}: completion must remove the snapshot"
        );
        assert_eq!(
            resumed.expect("nothing interrupts the resumed leg"),
            straight,
            "{figure}: resumed per-page results differ"
        );
        assert_eq!(
            strip_volatile(&resumed_stream),
            strip_volatile(&straight_stream),
            "{figure}: resume must replay the straight run's stream"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// fig8 shard stripes tile the page space and glue back into the full
/// sweep bit for bit — the library-level half of the `shard`/`merge` CLI
/// contract for the new figure.
#[test]
fn fig8_shard_stripes_reproduce_the_full_sweep() {
    use aegis_experiments::shardmerge::shard_range;

    let opts = RunOptions {
        pages: 4,
        seed: 17,
        ..RunOptions::default()
    };
    let specs = campaign::fig8_unit_specs(&opts);
    let full = stripe(&specs, 0, opts.pages);
    let parts: Vec<_> = (0..2usize)
        .map(|shard_id| {
            let (lo, hi) = shard_range(opts.pages, 2, shard_id);
            stripe(&specs, lo, hi)
        })
        .collect();
    for (unit_idx, unit) in full.iter().enumerate() {
        let mut lifetimes = Vec::new();
        let mut faults = Vec::new();
        for part in &parts {
            lifetimes.extend(
                part[unit_idx]
                    .run
                    .page_lifetimes
                    .iter()
                    .map(|v| v.to_bits()),
            );
            faults.extend(part[unit_idx].run.faults_recovered.iter().copied());
        }
        assert_eq!(
            lifetimes,
            unit.run
                .page_lifetimes
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "unit {} must reassemble bit-identically",
            unit.scheme
        );
        assert_eq!(faults, unit.run.faults_recovered);
    }
}

/// Seed-disjoint shard substreams: every shard stripes a distinct page
/// range, the ranges tile the page space, and gluing per-shard unit
/// results back together reproduces the full run bit for bit.
#[test]
fn shard_stripes_tile_and_reproduce_the_full_run() {
    use aegis_experiments::shardmerge::shard_range;

    let opts = RunOptions {
        pages: 5,
        seed: 17,
        ..RunOptions::default()
    };
    let shards = 3;
    let mut edges = Vec::new();
    for shard_id in 0..shards {
        let (lo, hi) = shard_range(opts.pages, shards, shard_id);
        edges.push((lo, hi));
    }
    assert_eq!(edges.first().map(|&(lo, _)| lo), Some(0));
    assert_eq!(edges.last().map(|&(_, hi)| hi), Some(opts.pages));
    for pair in edges.windows(2) {
        assert_eq!(pair[0].1, pair[1].0, "stripes must tile without gaps");
    }

    let specs = campaign::fig567_unit_specs(&opts);
    let full = stripe(&specs, 0, opts.pages);
    let parts: Vec<_> = edges
        .iter()
        .map(|&(lo, hi)| stripe(&specs, lo, hi))
        .collect();
    for (unit_idx, unit) in full.iter().enumerate() {
        let mut lifetimes = Vec::new();
        let mut faults = Vec::new();
        for part in &parts {
            lifetimes.extend(
                part[unit_idx]
                    .run
                    .page_lifetimes
                    .iter()
                    .map(|v| v.to_bits()),
            );
            faults.extend(part[unit_idx].run.faults_recovered.iter().copied());
        }
        assert_eq!(
            lifetimes,
            unit.run
                .page_lifetimes
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "unit {} must reassemble bit-identically",
            unit.scheme
        );
        assert_eq!(faults, unit.run.faults_recovered);
    }
}

/// `--target-rse` holds a stopped unit's barrier until every earlier unit
/// of its fraction has had its own. In this fig8 campaign later units stop
/// at earlier grid points than earlier ones, yet running every unit at
/// once through the executor serializes the stream, the series sidecar and
/// the runs of the unit-major order, where each unit runs to its stop on
/// its own.
#[test]
fn target_rse_barriers_fire_in_unit_order_when_later_units_stop_first() {
    use aegis_experiments::campaign::Unit;
    use aegis_experiments::checkpoint::CheckpointCtl;
    use std::sync::atomic::AtomicBool;

    let opts = RunOptions {
        pages: 12,
        seed: 1,
        ..RunOptions::default()
    };
    let specs = campaign::fig8_unit_specs(&opts);
    let units: Vec<Unit<'_>> = specs.iter().map(UnitSpec::unit).collect();
    let dir = std::env::temp_dir().join("aegis-det-target-rse-order");
    let _ = std::fs::remove_dir_all(&dir);
    let leg = |tag: &str, calls: &[&[Unit<'_>]]| {
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("ro", buf.clone()).expect("buffer sink");
        let series_dir = dir.join(tag);
        let series = SeriesWriter::create("ro", &series_dir, 0).expect("series");
        let observer = RunObserver {
            registry: Some(run.registry()),
            series: Some(&series),
            ..RunObserver::default()
        };
        let interrupted = AtomicBool::new(false);
        let ctl = CheckpointCtl {
            path: dir.join(format!("{tag}.ckpt.json")),
            every: 2,
            interrupted: &interrupted,
            resume: None,
            fingerprint: Vec::new(),
            target_rse: Some(0.006),
        };
        let mut done = Vec::new();
        for call in calls {
            done.extend(
                campaign::execute(call, 0..opts.pages, &observer, Some(&ctl))
                    .expect("campaign")
                    .expect("nothing interrupts this leg"),
            );
        }
        series.finish().expect("series finish");
        run.finish().expect("finish");
        let sidecar = std::fs::read_to_string(series_dir.join("ro.series.jsonl")).expect("sidecar");
        (buf.text(), sidecar, done)
    };
    let (stream_all, series_all, runs_all) = leg("all", &[&units]);
    let one_by_one: Vec<&[Unit<'_>]> = units.chunks(1).collect();
    let (stream_one, series_one, runs_one) = leg("one", &one_by_one);
    let _ = std::fs::remove_dir_all(&dir);

    let later_stops_first = (0..runs_all.len()).any(|i| {
        (i + 1..runs_all.len()).any(|j| {
            specs[i].cfg == specs[j].cfg && runs_all[j].pages_done < runs_all[i].pages_done
        })
    });
    assert!(
        later_stops_first,
        "the scenario needs a later unit that stops before an earlier one"
    );
    assert_eq!(
        strip_volatile(&stream_all),
        strip_volatile(&stream_one),
        "the stream must not depend on how the units share passes"
    );
    assert_eq!(
        strip_volatile(&series_all),
        strip_volatile(&series_one),
        "barriers must sample the series in unit order"
    );
    assert_eq!(runs_all.len(), runs_one.len());
    for (all, one) in runs_all.iter().zip(&runs_one) {
        assert_eq!(all.scheme, one.scheme);
        assert_eq!(all.pages_done, one.pages_done, "{}", all.scheme);
        let bits = |run: &aegis_pcm::pcm::montecarlo::MemoryRun| {
            (
                run.page_lifetimes
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                run.unprotected_lifetimes
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                run.faults_recovered.clone(),
                run.capped_pages,
            )
        };
        assert_eq!(bits(&all.run), bits(&one.run), "{}", all.scheme);
    }
}

/// fig5 repeats labels such as `ECP6` at both widths, so a snapshot taken
/// part-way through the 512-bit units holds their staged metrics next to
/// the finished 256-bit units' metrics of the same names. Resuming it must
/// hand each back to the right owner: the stream and the series sidecar
/// equal a straight run's.
#[test]
fn resume_inside_the_second_width_keeps_repeated_labels_apart() {
    use aegis_experiments::checkpoint::{Checkpoint, CheckpointCtl};
    use std::sync::atomic::{AtomicBool, Ordering};

    let opts = RunOptions {
        pages: 4,
        seed: 29,
        ..RunOptions::default()
    };
    let dir = std::env::temp_dir().join("aegis-det-resume-width2");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("w2.ckpt.json");
    let ctl = |interrupted, resume| CheckpointCtl {
        path: path.clone(),
        every: 2,
        interrupted,
        resume,
        fingerprint: Vec::new(),
        target_rse: None,
    };
    let straight = {
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("w2", buf.clone()).expect("buffer sink");
        let series = SeriesWriter::create("w2", &dir.join("straight"), 0).expect("series");
        let observer = RunObserver {
            registry: Some(run.registry()),
            series: Some(&series),
            ..RunObserver::default()
        };
        let _ = aegis_experiments::fig567::run_with(&opts, &observer);
        series.finish().expect("series finish");
        run.finish().expect("finish");
        buf.text()
    };

    // Pull the plug once a scheme only the 512-bit set has starts running.
    let interrupted = AtomicBool::new(false);
    {
        let pull_plug = |scheme: &str, _: usize, _: usize| {
            if scheme == "SAFER128" {
                interrupted.store(true, Ordering::SeqCst);
            }
        };
        let run = RunTelemetry::with_buffer("w2", SharedBuf::new()).expect("buffer sink");
        let series = SeriesWriter::create("w2", &dir.join("resumed"), 0).expect("series");
        let observer = RunObserver {
            registry: Some(run.registry()),
            progress: Some(&pull_plug),
            series: Some(&series),
            ..RunObserver::default()
        };
        assert!(
            fig567_checkpointed(&opts, &observer, &ctl(&interrupted, None)).is_none(),
            "the pulled plug must stop the run"
        );
        run.finish().expect("finish");
    }
    let resume = Checkpoint::load(&path).expect("snapshot loads");
    assert!(
        resume
            .units
            .iter()
            .any(|unit| unit.block_bits == 512 && unit.pages_done == 2),
        "the snapshot must land inside the 512-bit units"
    );
    let resumed = {
        let buf = SharedBuf::new();
        let run = RunTelemetry::with_buffer("w2", buf.clone()).expect("buffer sink");
        let series = SeriesWriter::resume("w2", &dir.join("resumed"), 0, resume.series)
            .expect("series resume");
        let observer = RunObserver {
            registry: Some(run.registry()),
            series: Some(&series),
            ..RunObserver::default()
        };
        let not_interrupted = AtomicBool::new(false);
        assert!(
            fig567_checkpointed(&opts, &observer, &ctl(&not_interrupted, Some(resume))).is_some()
        );
        series.finish().expect("series finish");
        run.finish().expect("finish");
        buf.text()
    };
    let sidecar = |leg: &str| {
        std::fs::read_to_string(dir.join(leg).join("w2.series.jsonl")).expect("sidecar")
    };
    assert_eq!(
        strip_volatile(&resumed),
        strip_volatile(&straight),
        "resume must serialize the straight run's stream"
    );
    assert_eq!(
        strip_volatile(&sidecar("resumed")),
        strip_volatile(&sidecar("straight")),
        "resume must continue the straight run's series sidecar"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The PAYG and OS-assist extensions sample pages on the engine's pool,
/// and both fold the workers' results order-independently: their rows
/// are byte-identical at one and two worker threads, and another seed
/// changes them.
#[test]
fn payg_and_osassist_are_thread_count_independent() {
    use aegis_experiments::{osassist, payg_check};
    let opts = |seed, threads| RunOptions {
        pages: 3,
        seed,
        threads: Some(threads),
        ..RunOptions::default()
    };
    let rows = |seed, threads| {
        let opts = opts(seed, threads);
        let payg = payg_check::run(&opts);
        let os = osassist::run(&opts);
        format!("{payg:?}\n{os:?}")
    };
    let one = rows(13, 1);
    assert_eq!(one, rows(13, 2), "threads=2 must replay threads=1");
    assert_ne!(one, rows(14, 2), "another seed must change the rows");
}
