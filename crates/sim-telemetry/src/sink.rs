//! JSONL event stream: one JSON object per line, written through any
//! `Write` sink (a file under `results/telemetry/` in production, an
//! in-memory [`SharedBuf`] in tests).
//!
//! The stream is *deterministic by construction*: events carry a
//! sequence number and metric snapshots but never wall-clock data —
//! span timing lives only in the run manifest — so two same-seed runs
//! produce byte-identical `.jsonl` files (asserted by
//! `tests/determinism.rs`).
//!
//! One exception is carved out explicitly: [`Event::Volatile`] lines
//! carry scheduling-dependent values (the sim-pool steal counters).
//! Their *presence, order and sequence numbers* are still deterministic
//! — only the values vary — and [`strip_volatile`] removes them so the
//! byte-identity contract becomes "streams are identical after
//! stripping volatile lines".

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use crate::json::{escape, Json, JsonError, LocatedError};
use crate::registry::HistogramSnapshot;

/// One line of the telemetry event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// First line of every stream.
    RunStart {
        /// The run this stream belongs to.
        run_id: String,
    },
    /// A span opened.
    SpanBegin {
        /// Span name (e.g. `fig5.montecarlo`).
        name: String,
    },
    /// A span closed. Durations are manifest-only, so this carries no time.
    SpanEnd {
        /// Span name.
        name: String,
    },
    /// Final value of one counter.
    Counter {
        /// Metric name (`layer.scheme.metric`).
        name: String,
        /// Final value.
        value: u64,
    },
    /// Final state of one histogram. `buckets` is a sparse
    /// `[index, count]` list to keep lines short.
    Histogram {
        /// Metric name (`layer.scheme.metric`).
        name: String,
        /// Sample count.
        count: u64,
        /// Sample sum.
        sum: u64,
        /// Non-empty buckets as `(index, count)` pairs, ascending.
        buckets: Vec<(usize, u64)>,
    },
    /// Final value of one *volatile* counter: a metric whose value is
    /// scheduling-dependent (thread interleaving), unlike everything else
    /// in the stream. Emitted in sorted-name order at a deterministic
    /// stream position; see [`strip_volatile`].
    Volatile {
        /// Metric name (`layer.scheme.metric`).
        name: String,
        /// Final value (not covered by the determinism contract).
        value: u64,
    },
    /// Periodic deterministic sample of one counter, keyed by pages
    /// evaluated (never wall clock). Lives in the `<run-id>.series.jsonl`
    /// sidecar; covered by the byte-identity contract.
    Series {
        /// Metric name (`layer.scheme.metric`).
        name: String,
        /// Pages evaluated when the sample was taken.
        pages: u64,
        /// Counter value at the sample barrier.
        value: u64,
    },
    /// Periodic deterministic sample of one histogram, keyed by pages
    /// evaluated. Same sparse bucket encoding as [`Event::Histogram`].
    SeriesHistogram {
        /// Metric name (`layer.scheme.metric`).
        name: String,
        /// Pages evaluated when the sample was taken.
        pages: u64,
        /// Sample count.
        count: u64,
        /// Sample sum.
        sum: u64,
        /// Non-empty buckets as `(index, count)` pairs, ascending.
        buckets: Vec<(usize, u64)>,
    },
    /// Periodic sample of one *volatile* counter (pool/trace metrics whose
    /// values are scheduling-dependent). Presence, order and sequence
    /// numbers are deterministic; [`strip_volatile`] removes these lines
    /// like [`Event::Volatile`].
    SeriesVolatile {
        /// Metric name (`layer.scheme.metric`).
        name: String,
        /// Pages evaluated when the sample was taken.
        pages: u64,
        /// Counter value (not covered by the determinism contract).
        value: u64,
    },
    /// Periodic deterministic estimate snapshot: the streaming mean, RSE
    /// and 95% CI half-width of one unit metric at a page-count barrier
    /// (the per-sample relative-standard-error trajectory). Lives in the
    /// `<run-id>.series.jsonl` sidecar; covered by the byte-identity
    /// contract — every field is a pure function of the samples processed.
    SeriesEstimate {
        /// Estimate name (`scheme#block_bits.metric`).
        name: String,
        /// Pages evaluated when the snapshot was taken.
        pages: u64,
        /// Samples accumulated.
        count: u64,
        /// Streaming mean.
        mean: f64,
        /// Relative standard error (may be infinite below two samples;
        /// serialized as `null`, JSON having no Infinity).
        rse: f64,
        /// 95% confidence half-width (normal approximation).
        ci95: f64,
    },
    /// Last line of every stream.
    RunEnd {
        /// Total number of events in the stream, this line included.
        events: u64,
    },
}

impl Event {
    /// Builds a histogram event from a registry snapshot.
    #[must_use]
    pub fn from_snapshot(name: &str, snap: &HistogramSnapshot) -> Event {
        Event::Histogram {
            name: name.to_owned(),
            count: snap.count,
            sum: snap.sum,
            buckets: snap
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
        }
    }

    /// Builds a deterministic series histogram sample from a registry
    /// snapshot, keyed by pages evaluated.
    #[must_use]
    pub fn series_from_snapshot(name: &str, pages: u64, snap: &HistogramSnapshot) -> Event {
        let Event::Histogram {
            name,
            count,
            sum,
            buckets,
        } = Event::from_snapshot(name, snap)
        else {
            unreachable!("from_snapshot always builds Event::Histogram")
        };
        Event::SeriesHistogram {
            name,
            pages,
            count,
            sum,
            buckets,
        }
    }

    /// Renders the event as one JSON line (no trailing newline). `seq` is
    /// the 0-based position of this event in the stream.
    #[must_use]
    pub fn to_json(&self, seq: u64) -> String {
        match self {
            Event::RunStart { run_id } => format!(
                "{{\"seq\": {seq}, \"event\": \"run_start\", \"run_id\": {}}}",
                escape(run_id)
            ),
            Event::SpanBegin { name } => format!(
                "{{\"seq\": {seq}, \"event\": \"span_begin\", \"name\": {}}}",
                escape(name)
            ),
            Event::SpanEnd { name } => format!(
                "{{\"seq\": {seq}, \"event\": \"span_end\", \"name\": {}}}",
                escape(name)
            ),
            Event::Counter { name, value } => format!(
                "{{\"seq\": {seq}, \"event\": \"counter\", \"name\": {}, \"value\": {value}}}",
                escape(name)
            ),
            Event::Histogram {
                name,
                count,
                sum,
                buckets,
            } => {
                let cells: Vec<String> = buckets
                    .iter()
                    .map(|(index, count)| format!("[{index}, {count}]"))
                    .collect();
                format!(
                    "{{\"seq\": {seq}, \"event\": \"histogram\", \"name\": {}, \
                     \"count\": {count}, \"sum\": {sum}, \"buckets\": [{}]}}",
                    escape(name),
                    cells.join(", ")
                )
            }
            Event::Volatile { name, value } => format!(
                "{{\"seq\": {seq}, \"event\": \"volatile\", \"name\": {}, \"value\": {value}}}",
                escape(name)
            ),
            Event::Series { name, pages, value } => format!(
                "{{\"seq\": {seq}, \"event\": \"series\", \"name\": {}, \"pages\": {pages}, \
                 \"value\": {value}}}",
                escape(name)
            ),
            Event::SeriesHistogram {
                name,
                pages,
                count,
                sum,
                buckets,
            } => {
                let cells: Vec<String> = buckets
                    .iter()
                    .map(|(index, count)| format!("[{index}, {count}]"))
                    .collect();
                format!(
                    "{{\"seq\": {seq}, \"event\": \"series_histogram\", \"name\": {}, \
                     \"pages\": {pages}, \"count\": {count}, \"sum\": {sum}, \"buckets\": [{}]}}",
                    escape(name),
                    cells.join(", ")
                )
            }
            Event::SeriesVolatile { name, pages, value } => format!(
                "{{\"seq\": {seq}, \"event\": \"series_volatile\", \"name\": {}, \
                 \"pages\": {pages}, \"value\": {value}}}",
                escape(name)
            ),
            Event::SeriesEstimate {
                name,
                pages,
                count,
                mean,
                rse,
                ci95,
            } => format!(
                "{{\"seq\": {seq}, \"event\": \"series_estimate\", \"name\": {}, \
                 \"pages\": {pages}, \"count\": {count}, \"mean\": {}, \"rse\": {}, \
                 \"ci95\": {}}}",
                escape(name),
                crate::estimate::json_f64(*mean),
                crate::estimate::json_f64(*rse),
                crate::estimate::json_f64(*ci95),
            ),
            Event::RunEnd { events } => {
                format!("{{\"seq\": {seq}, \"event\": \"run_end\", \"events\": {events}}}")
            }
        }
    }

    /// Parses one JSONL line back into `(seq, Event)`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the line is not valid JSON or lacks the
    /// fields its `event` tag requires.
    pub fn parse_line(line: &str) -> Result<(u64, Event), JsonError> {
        let value = Json::parse(line)?;
        let fail = |message: &str| JsonError {
            pos: 0,
            message: message.to_owned(),
        };
        let seq = value.u64_field("seq").ok_or_else(|| fail("missing seq"))?;
        let kind = value
            .str_field("event")
            .ok_or_else(|| fail("missing event tag"))?;
        let name = |value: &Json| -> Result<String, JsonError> {
            value
                .str_field("name")
                .map(str::to_owned)
                .ok_or_else(|| fail("missing name"))
        };
        let event = match kind {
            "run_start" => Event::RunStart {
                run_id: value
                    .str_field("run_id")
                    .ok_or_else(|| fail("missing run_id"))?
                    .to_owned(),
            },
            "span_begin" => Event::SpanBegin {
                name: name(&value)?,
            },
            "span_end" => Event::SpanEnd {
                name: name(&value)?,
            },
            "counter" => Event::Counter {
                name: name(&value)?,
                value: value
                    .u64_field("value")
                    .ok_or_else(|| fail("missing value"))?,
            },
            "histogram" => Event::Histogram {
                name: name(&value)?,
                count: value
                    .u64_field("count")
                    .ok_or_else(|| fail("missing count"))?,
                sum: value.u64_field("sum").ok_or_else(|| fail("missing sum"))?,
                buckets: parse_buckets(&value)?,
            },
            "volatile" => Event::Volatile {
                name: name(&value)?,
                value: value
                    .u64_field("value")
                    .ok_or_else(|| fail("missing value"))?,
            },
            "series" => Event::Series {
                name: name(&value)?,
                pages: value
                    .u64_field("pages")
                    .ok_or_else(|| fail("missing pages"))?,
                value: value
                    .u64_field("value")
                    .ok_or_else(|| fail("missing value"))?,
            },
            "series_histogram" => Event::SeriesHistogram {
                name: name(&value)?,
                pages: value
                    .u64_field("pages")
                    .ok_or_else(|| fail("missing pages"))?,
                count: value
                    .u64_field("count")
                    .ok_or_else(|| fail("missing count"))?,
                sum: value.u64_field("sum").ok_or_else(|| fail("missing sum"))?,
                buckets: parse_buckets(&value)?,
            },
            "series_volatile" => Event::SeriesVolatile {
                name: name(&value)?,
                pages: value
                    .u64_field("pages")
                    .ok_or_else(|| fail("missing pages"))?,
                value: value
                    .u64_field("value")
                    .ok_or_else(|| fail("missing value"))?,
            },
            "series_estimate" => {
                // `null` encodes a non-finite statistic (JSON has no
                // Infinity); parse it back as +∞ so round-trips are exact
                // for every value the emitter produces.
                let stat = |key: &str| -> Result<f64, JsonError> {
                    match value.get(key) {
                        Some(Json::Null) => Ok(f64::INFINITY),
                        Some(v) => v.as_f64().ok_or_else(|| fail("non-numeric estimate field")),
                        None => Err(fail("missing estimate field")),
                    }
                };
                Event::SeriesEstimate {
                    name: name(&value)?,
                    pages: value
                        .u64_field("pages")
                        .ok_or_else(|| fail("missing pages"))?,
                    count: value
                        .u64_field("count")
                        .ok_or_else(|| fail("missing count"))?,
                    mean: stat("mean")?,
                    rse: stat("rse")?,
                    ci95: stat("ci95")?,
                }
            }
            "run_end" => Event::RunEnd {
                events: value
                    .u64_field("events")
                    .ok_or_else(|| fail("missing events"))?,
            },
            other => return Err(fail(&format!("unknown event tag '{other}'"))),
        };
        Ok((seq, event))
    }

    /// Parses a full JSONL stream (blank lines skipped), checking that
    /// sequence numbers are contiguous from zero.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line or seq gap, located by its 1-based
    /// line number and its byte offset in `text`.
    pub fn parse_stream(text: &str) -> Result<Vec<Event>, LocatedError> {
        let mut events = Vec::new();
        let mut start = 0;
        for raw in text.split_inclusive('\n') {
            let line_start = start;
            start += raw.len();
            let line = raw.strip_suffix('\n').unwrap_or(raw);
            let line = line.strip_suffix('\r').unwrap_or(line);
            if line.trim().is_empty() {
                continue;
            }
            let (seq, event) = Event::parse_line(line).map_err(|e| e.locate(text, line_start))?;
            if seq != events.len() as u64 {
                let gap = JsonError {
                    pos: 0,
                    message: format!("seq gap: expected {}, got {seq}", events.len()),
                };
                return Err(gap.locate(text, line_start));
            }
            events.push(event);
        }
        Ok(events)
    }
}

/// Parses a sparse `"buckets": [[index, count], ...]` field.
fn parse_buckets(value: &Json) -> Result<Vec<(usize, u64)>, JsonError> {
    let fail = |message: &str| JsonError {
        pos: 0,
        message: message.to_owned(),
    };
    value
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| fail("missing buckets"))?
        .iter()
        .map(|cell| {
            let pair = cell.as_arr().filter(|p| p.len() == 2);
            match pair {
                Some(p) => match (p[0].as_u64(), p[1].as_u64()) {
                    (Some(index), Some(count)) =>
                    {
                        #[allow(clippy::cast_possible_truncation)]
                        Ok((index as usize, count))
                    }
                    _ => Err(fail("bucket cell must be [index, count]")),
                },
                None => Err(fail("bucket cell must be [index, count]")),
            }
        })
        .collect()
}

/// Removes volatile event lines from a JSONL stream, returning the text
/// whose bytes *are* covered by the determinism contract.
///
/// Two same-seed runs (at any thread counts) must satisfy
/// `strip_volatile(a) == strip_volatile(b)`. Both [`Event::Volatile`]
/// final values and [`Event::SeriesVolatile`] samples are stripped. Lines
/// that fail to parse are kept, so the comparison still catches corrupted
/// streams; note the stripped text has seq gaps where volatile lines
/// were, so it is for byte comparison only — parse the *full* stream with
/// [`Event::parse_stream`].
#[must_use]
pub fn strip_volatile(stream: &str) -> String {
    stream
        .lines()
        .filter(|line| {
            !matches!(
                Event::parse_line(line),
                Ok((_, Event::Volatile { .. } | Event::SeriesVolatile { .. }))
            )
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

/// A clonable, thread-safe in-memory `Write` sink for tests: every clone
/// appends to the same buffer.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated bytes.
    #[must_use]
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("shared buffer poisoned").clone()
    }

    /// The accumulated bytes as UTF-8 text.
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8(self.contents()).expect("telemetry output is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("shared buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn events_round_trip_through_the_parser() {
        let reg = Registry::new();
        let h = reg.histogram("codec.Aegis 9x61.slope_trials");
        h.record(1);
        h.record(5);
        let snap = &reg.histograms()[0].1;

        let events = vec![
            Event::RunStart {
                run_id: "ci-smoke".to_owned(),
            },
            Event::SpanBegin {
                name: "fig5.montecarlo".to_owned(),
            },
            Event::SpanEnd {
                name: "fig5.montecarlo".to_owned(),
            },
            Event::Counter {
                name: "codec.Aegis 9x61.verify_reads".to_owned(),
                value: 42,
            },
            Event::from_snapshot("codec.Aegis 9x61.slope_trials", snap),
            Event::RunEnd { events: 6 },
        ];
        let stream: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json(i as u64) + "\n")
            .collect();
        let parsed = Event::parse_stream(&stream).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn stream_parser_rejects_seq_gaps_and_garbage() {
        let good = Event::RunStart {
            run_id: "x".to_owned(),
        }
        .to_json(0);
        let gap = Event::RunEnd { events: 2 }.to_json(5);
        let err = Event::parse_stream(&format!("{good}\n\n{gap}\n")).unwrap_err();
        assert_eq!((err.line, err.pos), (3, good.len() + 2), "{err}");
        assert!(err.message.contains("seq gap"), "{err}");
        let err = Event::parse_stream(&format!("{good}\r\n{{\"seq\": 1, \"ev\n")).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(
            err.pos > good.len() + 2,
            "the offset is inside line 2: {err}"
        );
        assert!(Event::parse_stream("not json\n").is_err());
        assert!(Event::parse_line("{\"seq\": 0, \"event\": \"mystery\"}").is_err());
    }

    #[test]
    fn volatile_events_round_trip_and_strip() {
        let events = vec![
            Event::RunStart {
                run_id: "x".to_owned(),
            },
            Event::Counter {
                name: "mc.A.pages".to_owned(),
                value: 8,
            },
            Event::Volatile {
                name: "pool.A.pages_stolen".to_owned(),
                value: 3,
            },
            Event::RunEnd { events: 4 },
        ];
        let stream: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json(i as u64) + "\n")
            .collect();
        assert_eq!(Event::parse_stream(&stream).unwrap(), events);

        let stripped = strip_volatile(&stream);
        assert!(!stripped.contains("\"volatile\""));
        assert!(stripped.contains("\"counter\""));
        assert_eq!(stripped.lines().count(), 3);

        // Two streams differing only in volatile values strip identically.
        let other = stream.replace("\"value\": 3", "\"value\": 900");
        assert_ne!(stream, other);
        assert_eq!(stripped, strip_volatile(&other));

        // Garbage lines are preserved so corruption still fails compares.
        assert_eq!(strip_volatile("not json\n"), "not json\n");
    }

    #[test]
    fn series_events_round_trip_and_strip() {
        let reg = Registry::new();
        let h = reg.histogram("codec.Aegis 9x61.slope_trials");
        h.record(3);
        let snap = &reg.histograms()[0].1;
        let events = vec![
            Event::RunStart {
                run_id: "x".to_owned(),
            },
            Event::Series {
                name: "mc.A.pages".to_owned(),
                pages: 4,
                value: 4,
            },
            Event::series_from_snapshot("codec.Aegis 9x61.slope_trials", 4, snap),
            Event::SeriesVolatile {
                name: "pool.A.pages_stolen".to_owned(),
                pages: 4,
                value: 2,
            },
            Event::RunEnd { events: 5 },
        ];
        let stream: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json(i as u64) + "\n")
            .collect();
        assert_eq!(Event::parse_stream(&stream).unwrap(), events);

        // Volatile-tagged samples strip; deterministic samples stay.
        let stripped = strip_volatile(&stream);
        assert!(!stripped.contains("series_volatile"));
        assert!(stripped.contains("\"series\""));
        assert!(stripped.contains("series_histogram"));
        assert_eq!(stripped.lines().count(), 4);

        // Streams differing only in the volatile sample strip identically.
        let other = stream.replace("\"pages\": 4, \"value\": 2", "\"pages\": 4, \"value\": 77");
        assert_ne!(stream, other);
        assert_eq!(stripped, strip_volatile(&other));
    }

    #[test]
    fn series_estimate_round_trips_including_non_finite() {
        let events = vec![
            Event::RunStart {
                run_id: "x".to_owned(),
            },
            Event::SeriesEstimate {
                name: "Aegis 9x61#512.lifetime".to_owned(),
                pages: 64,
                count: 64,
                mean: 123456.75,
                rse: 0.03125,
                ci95: 7500.5,
            },
            // One sample: RSE is infinite and must survive the null trip.
            Event::SeriesEstimate {
                name: "ECP6#512.lifetime".to_owned(),
                pages: 1,
                count: 1,
                mean: 9.0,
                rse: f64::INFINITY,
                ci95: 0.0,
            },
            Event::RunEnd { events: 4 },
        ];
        let stream: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json(i as u64) + "\n")
            .collect();
        assert!(stream.contains("\"rse\": null"));
        assert_eq!(Event::parse_stream(&stream).unwrap(), events);

        // Estimates are deterministic — strip_volatile keeps them.
        assert_eq!(strip_volatile(&stream), stream);
    }

    #[test]
    fn series_parser_requires_pages_key() {
        assert!(Event::parse_line(
            "{\"seq\": 0, \"event\": \"series\", \"name\": \"x\", \"value\": 1}"
        )
        .is_err());
        assert!(Event::parse_line(
            "{\"seq\": 0, \"event\": \"series_volatile\", \"name\": \"x\", \"value\": 1}"
        )
        .is_err());
        assert!(Event::parse_line(
            "{\"seq\": 0, \"event\": \"series_histogram\", \"name\": \"x\", \
             \"count\": 1, \"sum\": 1, \"buckets\": [[1, 1]]}"
        )
        .is_err());
    }

    #[test]
    fn shared_buf_clones_share_storage() {
        let buf = SharedBuf::new();
        let mut clone = buf.clone();
        clone.write_all(b"hello").unwrap();
        assert_eq!(buf.text(), "hello");
    }
}
