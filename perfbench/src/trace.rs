//! The traced run: spans recorded by the benchmark around the program's
//! public layer functions, and the per-tile replay that produces them.
//!
//! Calls above the tile level (matrix generation, partitioning, one
//! `Session::run`) get one span each. Per-tile calls (encode, codec,
//! decompress, SpMV consumption, backend pricing) run millions of times at
//! paper scale, so each cell rolls them up into one record per layer with
//! the call count and the summed call time. Spans stay in memory and are
//! written out once, at the end of the run.

use copernicus_hls::{
    backend_for, decompress_with, BackendKind, EncodeScratch, EncodedPartition, HwConfig,
    PartitionTiming, RunReport,
};
use sparsemat::{FormatKind, PartitionGrid};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One span, or the roll-up of one layer's per-tile calls within a cell.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: u64,
    /// 1 for a plain span; the number of rolled-up calls otherwise.
    pub calls: u64,
    /// Time spent inside the span's calls (its duration for a plain span).
    pub busy_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Measured cost of one clock read, subtracted once per rolled-up call
    /// so millions of sub-microsecond tile calls do not inflate a layer.
    clock_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        let origin = Instant::now();
        let reads = 100_000u64;
        let t = Instant::now();
        let mut sink = 0u128;
        for _ in 0..reads {
            sink = sink.wrapping_add(std::hint::black_box(origin.elapsed().as_nanos()));
        }
        std::hint::black_box(sink);
        let clock_ns = t.elapsed().as_nanos() as u64 / reads;
        Tracer {
            origin,
            spans: Vec::new(),
            clock_ns,
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, cell: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            cell,
            calls: 1,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, cell);
        let out = f();
        self.close(id);
        out
    }

    /// Records a layer's rolled-up calls; returns their busy time.
    fn rollup(&mut self, name: &'static str, parent: usize, cell: u64, acc: &Rollup) -> u64 {
        let busy_ns = acc.busy_ns.saturating_sub(acc.calls * self.clock_ns);
        if acc.calls > 0 {
            self.spans.push(Span {
                name,
                start_ns: acc.first_ns,
                end_ns: acc.last_ns,
                parent: Some(parent),
                cell,
                calls: acc.calls,
                busy_ns,
            });
        }
        busy_ns
    }

    /// Σ busy time per span name, in seconds.
    pub fn busy_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.busy_ns as f64 * 1e-9;
        }
        out
    }

    /// Σ over spans of busy time minus the busy time of its children: the
    /// part of the traced wall the spans attribute to a named layer.
    pub fn total_self_s(&self) -> f64 {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_busy)
            .map(|(s, &c)| s.busy_ns.saturating_sub(c) as f64 * 1e-9)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cell, s.calls, s.busy_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Rollup {
    calls: u64,
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

impl Rollup {
    fn add(&mut self, start_ns: u64, end_ns: u64) {
        if self.calls == 0 {
            self.first_ns = start_ns;
        }
        self.calls += 1;
        self.busy_ns += end_ns - start_ns;
        self.last_ns = end_ns;
    }
}

/// Layer counters of one replayed cell.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    pub tiles: u64,
    pub structural_bytes: u64,
    pub coded_bytes: u64,
    pub streams: u64,
    pub streams_shrunk: u64,
    pub rows_emitted: u64,
    pub bram_reads: u64,
    pub cpu_tiles: u64,
}

impl LayerCounts {
    pub fn add(&mut self, o: &LayerCounts) {
        self.tiles += o.tiles;
        self.structural_bytes += o.structural_bytes;
        self.coded_bytes += o.coded_bytes;
        self.streams += o.streams;
        self.streams_shrunk += o.streams_shrunk;
        self.rows_emitted += o.rows_emitted;
        self.bram_reads += o.bram_reads;
        self.cpu_tiles += o.cpu_tiles;
    }
}

/// What one replayed cell produced.
#[derive(Debug)]
pub struct CellReplay {
    pub counts: LayerCounts,
    /// Σ replayed per-tile layer time (encode, codec, decompress, SpMV,
    /// backend), seconds.
    pub layer_busy_s: f64,
    /// The replayed report totals, for the faithfulness check.
    pub totals: Totals,
}

/// The additive `RunReport` fields plus the pipelined cycle count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Totals {
    pub partitions: u64,
    pub mem: u64,
    pub compute: u64,
    pub decomp: u64,
    pub entropy: u64,
    pub writeback: u64,
    pub dot_issues: u64,
    pub bytes: u64,
    pub coded_bytes: u64,
    pub useful_bytes: u64,
    pub bram_reads: u64,
    pub cycles: u64,
    first_stage: Option<(u64, u64)>,
}

impl Totals {
    fn push(&mut self, t: &PartitionTiming) {
        let bottleneck = t.mem_cycles.max(t.compute_cycles).max(t.writeback_cycles);
        if self.first_stage.is_none() {
            self.first_stage = Some((
                t.mem_cycles + t.compute_cycles + t.writeback_cycles,
                bottleneck,
            ));
        }
        self.partitions += 1;
        self.mem += t.mem_cycles;
        self.compute += t.compute_cycles;
        self.decomp += t.decomp_cycles;
        self.entropy += t.entropy_cycles;
        self.writeback += t.writeback_cycles;
        self.dot_issues += t.dot_issues;
        self.bytes += t.bytes;
        self.coded_bytes += t.coded_bytes;
        self.useful_bytes += t.useful_bytes;
        self.bram_reads += t.bram_reads;
        self.cycles += bottleneck;
    }

    /// The pipelined total: Σ bottleneck stages plus the first partition's
    /// pipeline fill.
    fn finish(mut self) -> Self {
        if let Some((sum, max)) = self.first_stage {
            self.cycles += sum - max;
        }
        self
    }

    pub fn of_report(r: &RunReport) -> Self {
        Totals {
            partitions: r.partitions as u64,
            mem: r.total_mem_cycles,
            compute: r.total_compute_cycles,
            decomp: r.total_decomp_cycles,
            entropy: r.total_entropy_cycles,
            writeback: r.total_writeback_cycles,
            dot_issues: r.total_dot_issues,
            bytes: r.total_bytes,
            coded_bytes: r.total_coded_bytes,
            useful_bytes: r.useful_bytes,
            bram_reads: r.total_bram_reads,
            cycles: r.total_cycles,
            first_stage: None,
        }
    }

    /// Equal on every compared field (the fill bookkeeping is ignored).
    pub fn matches(&self, other: &Totals) -> bool {
        Totals {
            first_stage: None,
            ..self.clone()
        } == Totals {
            first_stage: None,
            ..other.clone()
        }
    }
}

/// Replays one cell tile by tile through the public layer functions, in
/// pipeline order: encode (without the codec), the same encode with the
/// configured codec, structural decompression, SpMV consumption when `spmv`
/// is given, and backend pricing. Per-layer call times are rolled up under
/// `parent`.
#[allow(clippy::too_many_arguments)]
pub fn replay_cell(
    tr: &mut Tracer,
    parent: usize,
    cell: u64,
    grid: &PartitionGrid<f32>,
    format: FormatKind,
    cfg: &HwConfig,
    scratch: &mut EncodeScratch,
    mut spmv: Option<(&[f32], &mut [f32])>,
) -> Result<CellReplay, String> {
    let plain = HwConfig {
        stream_codec: copernicus_hls::CodecKind::None,
        ..cfg.clone()
    };
    let coded = cfg.stream_codec != copernicus_hls::CodecKind::None;
    let backend = backend_for(cfg.backend);
    let p = cfg.partition_size;
    let (mut enc_r, mut codec_r, mut dec_r, mut spmv_r, mut be_r) = Default::default();
    let mut counts = LayerCounts::default();
    let mut totals = Totals::default();
    for part in grid.partitions() {
        let t0 = tr.now_ns();
        let mut enc = EncodedPartition::encode_with(&part.coo, format, &plain, scratch)
            .map_err(|e| e.to_string())?;
        let t1 = tr.now_ns();
        Rollup::add(&mut enc_r, t0, t1);
        if coded {
            scratch.recycle_encoded(enc);
            let t2 = tr.now_ns();
            enc = EncodedPartition::encode_with(&part.coo, format, cfg, scratch)
                .map_err(|e| e.to_string())?;
            Rollup::add(&mut codec_r, t2, tr.now_ns());
        }
        let t3 = tr.now_ns();
        let d = decompress_with(&enc, cfg, scratch);
        let t4 = tr.now_ns();
        Rollup::add(&mut dec_r, t3, t4);
        if let Some((x, y)) = spmv.as_mut() {
            let row0 = part.grid_row * p;
            let col0 = part.grid_col * p;
            for (lr, row) in &d.contributions {
                let gr = row0 + lr;
                if gr >= y.len() {
                    continue;
                }
                let dot: f32 = row
                    .iter()
                    .enumerate()
                    .map(|(lc, &v)| x.get(col0 + lc).map_or(0.0, |&xv| v * xv))
                    .sum();
                y[gr] += dot;
            }
            Rollup::add(&mut spmv_r, t4, tr.now_ns());
        }
        let t5 = tr.now_ns();
        let timing = backend.partition_timing(&enc, &d, cfg);
        Rollup::add(&mut be_r, t5, tr.now_ns());

        counts.tiles += 1;
        counts.structural_bytes += enc.total_bytes();
        counts.coded_bytes += enc.transfer_bytes();
        counts.streams += enc.streams.len() as u64;
        counts.streams_shrunk += enc
            .streams
            .iter()
            .filter(|s| s.coded_bytes < s.bytes)
            .count() as u64;
        counts.rows_emitted += d.contributions.len() as u64;
        counts.bram_reads += d.bram_reads;
        if cfg.backend == BackendKind::Hetero {
            // Hetero re-prices a tile on the CPU model exactly when the HLS
            // pipeline is memory-bound on it.
            let hls = backend_for(BackendKind::Hls).partition_timing(&enc, &d, cfg);
            counts.cpu_tiles += u64::from(hls.mem_cycles > hls.compute_cycles);
        }
        totals.push(&timing);
        scratch.recycle_decompression(d);
        scratch.recycle_encoded(enc);
    }
    let mut layer_busy_ns = 0;
    for (name, acc) in [
        ("encode", &enc_r),
        ("codec", &codec_r),
        ("decomp", &dec_r),
        ("session.spmv", &spmv_r),
        ("backend", &be_r),
    ] {
        let busy = tr.rollup(name, parent, cell, acc);
        // With a codec the session encodes once, codec included; the plain
        // encode is the replay's reference only.
        if !(coded && name == "encode") {
            layer_busy_ns += busy;
        }
    }
    Ok(CellReplay {
        counts,
        layer_busy_s: layer_busy_ns as f64 * 1e-9,
        totals: totals.finish(),
    })
}
