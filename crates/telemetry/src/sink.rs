//! Trace sinks: consumers of [`PipelineEvent`] streams.
//!
//! The pipeline model is generic over `S: TraceSink + ?Sized`, so the
//! default [`NullSink`] monomorphizes to nothing — an uninstrumented run
//! pays no cost and produces bit-identical reports. Instrumented paths take
//! `&mut dyn TraceSink` and pick a concrete sink at the CLI layer.

use crate::event::{PipelineEvent, Stage};
use serde::{Serialize, Value};
use std::io::Write;

/// A consumer of pipeline events.
pub trait TraceSink {
    /// Receives one event. Called at most once per modeled occurrence, in
    /// nondecreasing start-cycle order per track.
    fn record(&mut self, event: &PipelineEvent);

    /// Whether events will actually be consumed. Emitters may skip building
    /// event payloads entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The do-nothing sink: the default for every uninstrumented run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &PipelineEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Buffers every event in memory; the sink tests and the trace-sum
/// invariant checks are built on it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingSink {
    /// Every event received, in emission order.
    pub events: Vec<PipelineEvent>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of span cycles for one stage (any lane).
    pub fn stage_cycles(&self, stage: Stage) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                PipelineEvent::StageSpan {
                    stage: s, cycles, ..
                } if *s == stage => Some(*cycles),
                _ => None,
            })
            .sum()
    }

    /// Number of events of each kind, for quick assertions.
    pub fn count(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// Consumes the sink, returning the buffered events. The buffer is
    /// `Send`, so workers can record privately and hand their events to a
    /// coordinating thread for ordered replay (see [`replay`]).
    pub fn into_events(self) -> Vec<PipelineEvent> {
        self.events
    }
}

/// Replays buffered events into `sink` in order — the second half of the
/// buffer-then-merge pattern parallel campaigns use: each worker records
/// into a private [`RecordingSink`], and the coordinator replays the
/// buffers in grid order so the merged stream is byte-identical to a
/// sequential run. No-op when the sink is disabled.
pub fn replay<S: TraceSink + ?Sized>(events: &[PipelineEvent], sink: &mut S) {
    if !sink.enabled() {
        return;
    }
    for e in events {
        sink.record(e);
    }
}

impl TraceSink for RecordingSink {
    fn record(&mut self, event: &PipelineEvent) {
        self.events.push(event.clone());
    }
}

/// Streams one JSON object per line to a writer — the machine-greppable
/// companion to the Chrome trace.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`; each event becomes one line of JSON.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &PipelineEvent) {
        let line = serde::json::to_string(&event.serialize());
        // Trace emission must never abort a modeled run; a full disk
        // degrades to a truncated trace.
        let _ = writeln!(self.writer, "{line}");
    }
}

/// Track ids (`tid`) used in the Chrome trace. Single-lane runs get one
/// track per stage; multi-lane runs share one memory-channel track and get
/// one compute track per lane (decompression spans nest inside them).
mod tid {
    use crate::event::Stage;

    pub const SHARED_MEM: u64 = 0;

    pub fn for_stage(stage: Stage) -> u64 {
        match stage {
            Stage::MemRead => 1,
            // Decompression is a prefix of the compute span, so it nests on
            // the same track and Perfetto renders it as a child slice.
            Stage::Compute | Stage::Decompress => 2,
            Stage::WriteBack => 3,
        }
    }

    pub fn for_lane(lane: usize) -> u64 {
        10 + lane as u64
    }
}

/// Builds a Chrome trace-event JSON document (the `{"traceEvents": [...]}`
/// wrapper with `"X"` complete events), openable in Perfetto or
/// `chrome://tracing`. Timestamps are modeled cycles, surfaced as
/// microseconds — 1 tick = 1 cycle.
#[derive(Debug, Default)]
pub struct ChromeTraceWriter {
    entries: Vec<Value>,
    named_tracks: Vec<u64>,
    process_named: bool,
}

impl ChromeTraceWriter {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    fn meta(name: &str, tid: u64, arg_name: &str) -> Value {
        Value::Map(vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::UInt(0)),
            ("tid".to_string(), Value::UInt(tid)),
            (
                "args".to_string(),
                Value::Map(vec![("name".to_string(), Value::Str(arg_name.to_string()))]),
            ),
        ])
    }

    fn name_process(&mut self, label: &str) {
        if !self.process_named {
            self.process_named = true;
            self.entries.insert(0, Self::meta("process_name", 0, label));
        }
    }

    fn name_track(&mut self, tid: u64, label: &str) {
        if !self.named_tracks.contains(&tid) {
            self.named_tracks.push(tid);
            self.entries.push(Self::meta("thread_name", tid, label));
        }
    }

    fn complete(&mut self, name: &str, tid: u64, ts: u64, dur: u64, args: Vec<(String, Value)>) {
        self.entries.push(Value::Map(vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("cat".to_string(), Value::Str("pipeline".to_string())),
            ("ph".to_string(), Value::Str("X".to_string())),
            ("ts".to_string(), Value::UInt(ts)),
            ("dur".to_string(), Value::UInt(dur)),
            ("pid".to_string(), Value::UInt(0)),
            ("tid".to_string(), Value::UInt(tid)),
            ("args".to_string(), Value::Map(args)),
        ]));
    }

    fn instant(&mut self, name: &str, tid: u64, ts: u64, args: Vec<(String, Value)>) {
        self.entries.push(Value::Map(vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("cat".to_string(), Value::Str("pipeline".to_string())),
            ("ph".to_string(), Value::Str("i".to_string())),
            ("s".to_string(), Value::Str("t".to_string())),
            ("ts".to_string(), Value::UInt(ts)),
            ("pid".to_string(), Value::UInt(0)),
            ("tid".to_string(), Value::UInt(tid)),
            ("args".to_string(), Value::Map(args)),
        ]));
    }

    /// Number of trace entries accumulated so far (metadata included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the accumulated trace as a Chrome trace-event JSON document.
    pub fn to_json(&self) -> String {
        let doc = Value::Map(vec![
            ("traceEvents".to_string(), Value::Seq(self.entries.clone())),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
            (
                "otherData".to_string(),
                Value::Map(vec![(
                    "timestamp_unit".to_string(),
                    Value::Str("modeled cycles (1 tick = 1 cycle)".to_string()),
                )]),
            ),
        ]);
        serde::json::to_string_pretty(&doc)
    }

    /// Writes the trace JSON to `writer`.
    pub fn write_to<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        writer.write_all(self.to_json().as_bytes())?;
        writer.flush()
    }

    /// Writes the trace JSON to a file at `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.write_to(std::fs::File::create(path)?)
    }
}

impl TraceSink for ChromeTraceWriter {
    fn record(&mut self, event: &PipelineEvent) {
        match event {
            PipelineEvent::RunStart {
                format,
                partitions,
                partition_size,
            } => {
                self.name_process(&format!("copernicus {format} (p={partition_size})"));
                self.instant(
                    "run_start",
                    tid::for_stage(Stage::MemRead),
                    0,
                    vec![
                        ("format".to_string(), Value::Str(format.clone())),
                        ("partitions".to_string(), Value::UInt(*partitions as u64)),
                        (
                            "partition_size".to_string(),
                            Value::UInt(*partition_size as u64),
                        ),
                    ],
                );
            }
            PipelineEvent::PartitionStart {
                partition,
                grid_row,
                grid_col,
                cycle,
            } => {
                self.instant(
                    &format!("partition {partition}"),
                    tid::for_stage(Stage::MemRead),
                    *cycle,
                    vec![
                        ("grid_row".to_string(), Value::UInt(*grid_row as u64)),
                        ("grid_col".to_string(), Value::UInt(*grid_col as u64)),
                    ],
                );
            }
            PipelineEvent::StageSpan {
                stage,
                partition,
                lane,
                start_cycle,
                cycles,
            } => {
                let track = match (stage, lane) {
                    (Stage::MemRead, Some(_)) => {
                        self.name_track(tid::SHARED_MEM, "mem (shared channel)");
                        tid::SHARED_MEM
                    }
                    (_, Some(l)) => {
                        self.name_track(tid::for_lane(*l), &format!("lane {l} compute"));
                        tid::for_lane(*l)
                    }
                    (s, None) => {
                        let t = tid::for_stage(*s);
                        let label = match s {
                            Stage::MemRead => "mem read",
                            Stage::Compute | Stage::Decompress => "compute",
                            Stage::WriteBack => "write back",
                        };
                        self.name_track(t, label);
                        t
                    }
                };
                let mut args = vec![("partition".to_string(), Value::UInt(*partition as u64))];
                if let Some(l) = lane {
                    args.push(("lane".to_string(), Value::UInt(*l as u64)));
                }
                self.complete(stage.label(), track, *start_cycle, *cycles, args);
            }
            PipelineEvent::FunctionalMismatch { partition, detail } => {
                self.instant(
                    "functional_mismatch",
                    tid::for_stage(Stage::Compute),
                    0,
                    vec![
                        ("partition".to_string(), Value::UInt(*partition as u64)),
                        ("detail".to_string(), Value::Str(detail.clone())),
                    ],
                );
            }
            PipelineEvent::RunComplete { total_cycles } => {
                self.instant(
                    "run_complete",
                    tid::for_stage(Stage::MemRead),
                    *total_cycles,
                    vec![("total_cycles".to_string(), Value::UInt(*total_cycles))],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        stage: Stage,
        partition: usize,
        lane: Option<usize>,
        start: u64,
        cycles: u64,
    ) -> PipelineEvent {
        PipelineEvent::StageSpan {
            stage,
            partition,
            lane,
            start_cycle: start,
            cycles,
        }
    }

    #[test]
    fn event_buffers_are_send() {
        // Parallel campaigns move per-worker buffers across threads; keep
        // that a compile-time guarantee.
        fn assert_send<T: Send>() {}
        assert_send::<PipelineEvent>();
        assert_send::<RecordingSink>();
        assert_send::<Vec<PipelineEvent>>();
    }

    #[test]
    fn replay_reproduces_the_recorded_stream() {
        let mut original = RecordingSink::new();
        original.record(&span(Stage::MemRead, 0, None, 0, 10));
        original.record(&span(Stage::Compute, 0, None, 10, 20));
        original.record(&PipelineEvent::RunComplete { total_cycles: 30 });
        let events = original.clone().into_events();
        let mut target = RecordingSink::new();
        replay(&events, &mut target);
        assert_eq!(target, original);
        // Disabled sinks swallow the replay without recording.
        let mut null = NullSink;
        replay(&events, &mut null);
    }

    #[test]
    fn null_sink_reports_disabled() {
        let mut s = NullSink;
        assert!(!TraceSink::enabled(&s));
        s.record(&PipelineEvent::RunComplete { total_cycles: 1 });
    }

    #[test]
    fn recording_sink_sums_spans_per_stage() {
        let mut s = RecordingSink::new();
        s.record(&span(Stage::MemRead, 0, None, 0, 10));
        s.record(&span(Stage::MemRead, 1, None, 10, 7));
        s.record(&span(Stage::Compute, 0, None, 10, 20));
        assert_eq!(s.stage_cycles(Stage::MemRead), 17);
        assert_eq!(s.stage_cycles(Stage::Compute), 20);
        assert_eq!(s.stage_cycles(Stage::WriteBack), 0);
        assert_eq!(s.count("stage_span"), 3);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&PipelineEvent::RunComplete { total_cycles: 9 });
        sink.record(&span(Stage::WriteBack, 2, None, 4, 6));
        let buf = sink.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            serde::json::parse(line).expect("each line is standalone JSON");
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shape() {
        let mut w = ChromeTraceWriter::new();
        w.record(&PipelineEvent::RunStart {
            format: "CSR".into(),
            partitions: 2,
            partition_size: 16,
        });
        w.record(&span(Stage::MemRead, 0, None, 0, 12));
        w.record(&span(Stage::Compute, 0, None, 12, 30));
        w.record(&span(Stage::Decompress, 0, None, 12, 5));
        w.record(&span(Stage::Compute, 1, Some(3), 42, 8));
        w.record(&PipelineEvent::RunComplete { total_cycles: 50 });

        let doc = serde::json::parse(&w.to_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_seq)
            .expect("traceEvents array");
        assert!(!events.is_empty());

        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 4);
        for e in &complete {
            assert!(e.get("ts").and_then(Value::as_u64).is_some());
            assert!(e.get("dur").and_then(Value::as_u64).is_some());
            assert!(e.get("tid").and_then(Value::as_u64).is_some());
        }
        // Decompress nests on the compute track; the lane span sits on its
        // own lane track.
        let tid_of = |name: &str| {
            complete
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|e| e.get("tid"))
                .and_then(Value::as_u64)
                .unwrap()
        };
        assert_eq!(tid_of("decompress"), tid_of("compute"));
        let lane_span = complete
            .iter()
            .find(|e| e.get("args").and_then(|a| a.get("lane")).is_some())
            .expect("lane span present");
        assert_eq!(lane_span.get("tid").and_then(Value::as_u64), Some(13));
    }

    #[test]
    fn track_metadata_emitted_once_per_track() {
        let mut w = ChromeTraceWriter::new();
        w.record(&span(Stage::MemRead, 0, None, 0, 1));
        w.record(&span(Stage::MemRead, 1, None, 1, 1));
        let doc = serde::json::parse(&w.to_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        let metas = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .count();
        assert_eq!(metas, 1);
    }
}
