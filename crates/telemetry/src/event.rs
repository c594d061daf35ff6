//! The pipeline event vocabulary.
//!
//! Events are emitted by the hardware model at *modeled-cycle* timestamps,
//! not wall-clock time: a span starting at cycle 120 for 40 cycles means the
//! modeled accelerator occupied that stage for cycles 120..160. This keeps
//! traces deterministic and lets the trace-sum invariant (span durations add
//! up exactly to the `RunReport` stage totals) hold bit-for-bit.

use serde::{Deserialize, Error, Serialize, Value};

/// One stage of the three-stage streaming pipeline (decompression is a
/// sub-span of compute: the decode prefix of the MACC engine's occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// DDR burst reads of the encoded partition streams.
    MemRead,
    /// MACC engine occupancy (includes the decompression prefix).
    Compute,
    /// Format-decode prefix of the compute span.
    Decompress,
    /// Result vector write-back over the shared bus.
    WriteBack,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 4] = [
        Stage::MemRead,
        Stage::Compute,
        Stage::Decompress,
        Stage::WriteBack,
    ];

    /// Stable snake_case label used in traces, metrics and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Stage::MemRead => "mem_read",
            Stage::Compute => "compute",
            Stage::Decompress => "decompress",
            Stage::WriteBack => "write_back",
        }
    }

    /// Inverse of [`Stage::label`].
    pub fn from_label(label: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.label() == label)
    }
}

impl Serialize for Stage {
    fn serialize(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

impl Deserialize for Stage {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_str()
            .ok_or_else(|| Error::custom("Stage: expected string"))?;
        Stage::from_label(s).ok_or_else(|| Error::custom(format!("Stage: unknown label {s:?}")))
    }
}

/// One telemetry event from the pipeline model.
///
/// All cycle fields are modeled cycles relative to the start of the run
/// (cycle 0 = first burst of the first partition).
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineEvent {
    /// A characterization run began.
    RunStart {
        /// Compression format label (e.g. `"CSR"`).
        format: String,
        /// Number of partitions in the grid.
        partitions: usize,
        /// Partition edge length `p` (each tile is `p x p`).
        partition_size: usize,
    },
    /// A partition entered the pipeline.
    PartitionStart {
        /// Flat partition index, row-major over the grid.
        partition: usize,
        /// Grid row of the tile.
        grid_row: usize,
        /// Grid column of the tile.
        grid_col: usize,
        /// Modeled cycle at which its first memory burst issues.
        cycle: u64,
    },
    /// A pipeline stage was occupied for a span of cycles.
    StageSpan {
        /// Which stage.
        stage: Stage,
        /// Flat partition index the span belongs to.
        partition: usize,
        /// Compute lane for multi-lane runs; `None` on the scalar pipeline.
        lane: Option<usize>,
        /// First modeled cycle of the span.
        start_cycle: u64,
        /// Span length in modeled cycles (may be 0 for empty streams).
        cycles: u64,
    },
    /// Functional verification found a decode that does not reproduce the
    /// dense tile.
    FunctionalMismatch {
        /// Flat partition index that failed.
        partition: usize,
        /// Human-readable mismatch description.
        detail: String,
    },
    /// The run finished.
    RunComplete {
        /// End-to-end modeled cycles, matching `RunReport::total_cycles`.
        total_cycles: u64,
    },
}

impl PipelineEvent {
    /// Stable snake_case tag used as the `"type"` field in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            PipelineEvent::RunStart { .. } => "run_start",
            PipelineEvent::PartitionStart { .. } => "partition_start",
            PipelineEvent::StageSpan { .. } => "stage_span",
            PipelineEvent::FunctionalMismatch { .. } => "functional_mismatch",
            PipelineEvent::RunComplete { .. } => "run_complete",
        }
    }
}

// The serde stand-in's derive handles named-field structs and unit enums
// only, so the event enum (struct variants) gets explicit impls. The JSON
// shape is an internally tagged map: {"type": "...", ...fields}.
impl Serialize for PipelineEvent {
    fn serialize(&self) -> Value {
        let mut m: Vec<(String, Value)> =
            vec![("type".to_string(), Value::Str(self.kind().to_string()))];
        let mut put = |k: &str, v: Value| m.push((k.to_string(), v));
        match self {
            PipelineEvent::RunStart {
                format,
                partitions,
                partition_size,
            } => {
                put("format", format.serialize());
                put("partitions", partitions.serialize());
                put("partition_size", partition_size.serialize());
            }
            PipelineEvent::PartitionStart {
                partition,
                grid_row,
                grid_col,
                cycle,
            } => {
                put("partition", partition.serialize());
                put("grid_row", grid_row.serialize());
                put("grid_col", grid_col.serialize());
                put("cycle", cycle.serialize());
            }
            PipelineEvent::StageSpan {
                stage,
                partition,
                lane,
                start_cycle,
                cycles,
            } => {
                put("stage", stage.serialize());
                put("partition", partition.serialize());
                put("lane", lane.serialize());
                put("start_cycle", start_cycle.serialize());
                put("cycles", cycles.serialize());
            }
            PipelineEvent::FunctionalMismatch { partition, detail } => {
                put("partition", partition.serialize());
                put("detail", detail.serialize());
            }
            PipelineEvent::RunComplete { total_cycles } => {
                put("total_cycles", total_cycles.serialize());
            }
        }
        Value::Map(m)
    }
}

impl Deserialize for PipelineEvent {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let kind: String = serde::field(v, "type")?;
        match kind.as_str() {
            "run_start" => Ok(PipelineEvent::RunStart {
                format: serde::field(v, "format")?,
                partitions: serde::field(v, "partitions")?,
                partition_size: serde::field(v, "partition_size")?,
            }),
            "partition_start" => Ok(PipelineEvent::PartitionStart {
                partition: serde::field(v, "partition")?,
                grid_row: serde::field(v, "grid_row")?,
                grid_col: serde::field(v, "grid_col")?,
                cycle: serde::field(v, "cycle")?,
            }),
            "stage_span" => Ok(PipelineEvent::StageSpan {
                stage: serde::field(v, "stage")?,
                partition: serde::field(v, "partition")?,
                lane: serde::field(v, "lane")?,
                start_cycle: serde::field(v, "start_cycle")?,
                cycles: serde::field(v, "cycles")?,
            }),
            "functional_mismatch" => Ok(PipelineEvent::FunctionalMismatch {
                partition: serde::field(v, "partition")?,
                detail: serde::field(v, "detail")?,
            }),
            "run_complete" => Ok(PipelineEvent::RunComplete {
                total_cycles: serde::field(v, "total_cycles")?,
            }),
            other => Err(Error::custom(format!(
                "PipelineEvent: unknown type {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_label(s.label()), Some(s));
        }
        assert_eq!(Stage::from_label("bogus"), None);
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            PipelineEvent::RunStart {
                format: "CSR".into(),
                partitions: 4,
                partition_size: 16,
            },
            PipelineEvent::PartitionStart {
                partition: 0,
                grid_row: 0,
                grid_col: 0,
                cycle: 0,
            },
            PipelineEvent::StageSpan {
                stage: Stage::Compute,
                partition: 3,
                lane: Some(2),
                start_cycle: 128,
                cycles: 41,
            },
            PipelineEvent::StageSpan {
                stage: Stage::MemRead,
                partition: 1,
                lane: None,
                start_cycle: 8,
                cycles: 0,
            },
            PipelineEvent::FunctionalMismatch {
                partition: 2,
                detail: "row 5 differs".into(),
            },
            PipelineEvent::RunComplete { total_cycles: 4096 },
        ];
        for e in events {
            let text = serde::json::to_string(&e.serialize());
            let back = PipelineEvent::deserialize(&serde::json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back, e, "{text}");
        }
    }

    #[test]
    fn unknown_type_is_rejected() {
        let v = serde::json::from_str(r#"{"type":"nope"}"#).unwrap();
        assert!(PipelineEvent::deserialize(&v).is_err());
    }
}
