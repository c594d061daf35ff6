//! The `report` command: renders a finished run directory (`--out DIR`)
//! into a human-readable summary, entirely offline.
//!
//! A run directory accumulates two kinds of artifacts: the deterministic
//! ones (`measurements.json`, `metrics.tsv`, `checkpoint.jsonl`,
//! `manifest.json`) and the wall-clock observability stream
//! (`progress.jsonl`, `profile.json`). `report` joins both sides:
//!
//! * **Run overview** — the final `progress.jsonl` heartbeat (cells
//!   done/total, cached, retries, failures, elapsed, rate).
//! * **Phase profile** — per-phase wall-clock p50/p95/p99 from
//!   `profile.json`.
//! * **Worker utilization** — busy fraction and cells/sec per worker.
//! * **Cache effectiveness** — the `cache.*` counters from `metrics.tsv`.
//! * **Slowest cells** — top N by modeled `total_cycles` from
//!   `measurements.json`.
//! * **Failures** — the failure records from `measurements.json`.
//!
//! Every section is optional: the report renders whatever artifacts exist
//! and says which ones were absent, so it works on partial (interrupted)
//! runs too.

use copernicus::table::TextTable;
use serde::Value;
use std::path::Path;

/// `report DIR [--top N]` — see the [module docs](self).
pub fn report(args: Vec<String>) -> i32 {
    let usage = "usage: report DIR [--top N]";
    let mut dir: Option<std::path::PathBuf> = None;
    let mut top = 10usize;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let Some(v) = args.next() else {
                    eprintln!("--top needs a value\n{usage}");
                    return 2;
                };
                top = match v.parse() {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("bad --top {v:?}: {e}\n{usage}");
                        return 2;
                    }
                };
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}\n{usage}");
                return 2;
            }
            path if dir.is_none() => dir = Some(std::path::PathBuf::from(path)),
            extra => {
                eprintln!("unexpected argument {extra:?}\n{usage}");
                return 2;
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("{usage}");
        return 2;
    };
    if !dir.is_dir() {
        eprintln!("report: {} is not a directory", dir.display());
        return 1;
    }
    print!("{}", render_report(&dir, top));
    0
}

/// Renders the full report for a run directory.
pub fn render_report(dir: &Path, top: usize) -> String {
    let mut out = String::new();
    let mut absent: Vec<&str> = Vec::new();
    out.push_str(&format!("run report: {}\n", dir.display()));

    match read_json_lines(&dir.join("progress.jsonl")) {
        Some(lines) if !lines.is_empty() => {
            out.push_str("\n== run overview (progress.jsonl) ==\n");
            out.push_str(&render_overview(lines.last().expect("non-empty")));
        }
        _ => absent.push("progress.jsonl"),
    }

    match read_json(&dir.join("profile.json")) {
        Some(profile) => {
            out.push_str("\n== wall-clock phase profile (profile.json) ==\n");
            out.push_str(&render_phases(&profile));
            out.push_str("\n== worker utilization ==\n");
            out.push_str(&render_workers(&profile));
        }
        None => absent.push("profile.json"),
    }

    match std::fs::read_to_string(dir.join("metrics.tsv")) {
        Ok(tsv) => {
            out.push_str("\n== cache effectiveness (metrics.tsv) ==\n");
            out.push_str(&render_cache(&tsv));
            let codec = render_codec(&tsv);
            if !codec.is_empty() {
                out.push_str("\n== second-stage codec (metrics.tsv) ==\n");
                out.push_str(&codec);
            }
            let retry = render_retries(&tsv);
            if !retry.is_empty() {
                out.push_str("\n== retries & failures (metrics.tsv) ==\n");
                out.push_str(&retry);
            }
        }
        Err(_) => absent.push("metrics.tsv"),
    }

    match read_json(&dir.join("measurements.json")) {
        Some(doc) => {
            out.push_str(&format!(
                "\n== slowest cells (top {top} by modeled cycles) ==\n"
            ));
            out.push_str(&render_slowest(&doc, top));
            let failures = render_failures(&doc);
            if !failures.is_empty() {
                out.push_str("\n== failed cells (measurements.json) ==\n");
                out.push_str(&failures);
            }
        }
        None => absent.push("measurements.json"),
    }

    if let Some(doc) = read_json(&dir.join("BENCH_serve.json")) {
        out.push_str("\n== service latency (BENCH_serve.json) ==\n");
        out.push_str(&render_serve(&doc));
    }

    if let Ok(text) = std::fs::read_to_string(dir.join("BENCH_trajectory.json")) {
        let points = crate::perf::parse_trajectory(&text);
        if !points.is_empty() {
            out.push_str("\n== performance trajectory (BENCH_trajectory.json) ==\n");
            out.push_str(&render_trajectory(&points));
        }
    }

    if let Some(lines) = read_json_lines(&dir.join("checkpoint.jsonl")) {
        out.push_str(&format!(
            "\ncheckpoint.jsonl: {} cell(s) resumable\n",
            lines.len()
        ));
    }
    if !absent.is_empty() {
        out.push_str(&format!("\nabsent artifacts: {}\n", absent.join(", ")));
    }
    out
}

fn read_json(path: &Path) -> Option<Value> {
    serde::json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

fn read_json_lines(path: &Path) -> Option<Vec<Value>> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| serde::json::parse(l).ok())
            .collect(),
    )
}

/// A present-and-numeric JSON field, `None` for a missing or malformed
/// one. These used to coerce silently to zero, which made a corrupted
/// artifact indistinguishable from a genuine zero — callers now render
/// `n/a` instead.
fn num(v: Option<&Value>) -> Option<f64> {
    v.and_then(Value::as_f64)
}

fn uint(v: Option<&Value>) -> Option<u64> {
    v.and_then(Value::as_u64)
}

/// Renders an optional count, `n/a` when absent or malformed.
fn fmt_uint(v: Option<u64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |n| n.to_string())
}

/// Renders an optional float with `prec` decimals, `n/a` when absent.
fn fmt_num(v: Option<f64>, prec: usize) -> String {
    v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.prec$}"))
}

fn render_overview(last: &Value) -> String {
    let done = uint(last.get("done"));
    let total = uint(last.get("total"));
    let cached = uint(last.get("cached"));
    let computed = match (done, cached) {
        (Some(d), Some(c)) => d.saturating_sub(c).to_string(),
        _ => "n/a".to_string(),
    };
    let mut out = format!(
        "cells:    {}/{} ({} cached, {computed} computed)\n",
        fmt_uint(done),
        fmt_uint(total),
        fmt_uint(cached)
    );
    out.push_str(&format!(
        "elapsed:  {}s at {} cells/s\n",
        fmt_num(num(last.get("elapsed_secs")), 2),
        fmt_num(num(last.get("rate_cells_per_sec")), 1)
    ));
    out.push_str(&format!(
        "retries:  {}\nfailures: {}\n",
        fmt_uint(uint(last.get("retries"))),
        fmt_uint(uint(last.get("failures")))
    ));
    if last.get("final") != Some(&Value::Bool(true)) {
        out.push_str("note: stream has no final line — the run may have been interrupted\n");
    }
    out
}

fn render_phases(profile: &Value) -> String {
    let Some(phases) = profile.get("phases").and_then(Value::as_map) else {
        return "no phases recorded\n".to_string();
    };
    let mut t = TextTable::new(&[
        "phase", "count", "sum_s", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
    ]);
    let ms = |v: Option<f64>| fmt_num(v.map(|s| s * 1e3), 3);
    for (name, h) in phases {
        t.row(&[
            name.clone(),
            fmt_uint(uint(h.get("count"))),
            fmt_num(num(h.get("sum_secs")), 3),
            ms(num(h.get("mean_secs"))),
            ms(num(h.get("p50_secs"))),
            ms(num(h.get("p95_secs"))),
            ms(num(h.get("p99_secs"))),
            ms(num(h.get("max_secs"))),
        ]);
    }
    t.render()
}

fn render_workers(profile: &Value) -> String {
    let Some(workers) = profile.get("workers").and_then(Value::as_seq) else {
        return "no worker data recorded\n".to_string();
    };
    if workers.is_empty() {
        return "no worker data recorded\n".to_string();
    }
    let mut t = TextTable::new(&["worker", "busy_s", "utilization", "cells", "cells/s"]);
    for w in workers {
        let util = num(w.get("utilization"))
            .map_or_else(|| "n/a".to_string(), |u| format!("{:.0}%", u * 100.0));
        t.row(&[
            fmt_uint(uint(w.get("worker"))),
            fmt_num(num(w.get("busy_secs")), 3),
            util,
            fmt_uint(uint(w.get("cells"))),
            fmt_num(num(w.get("cells_per_sec")), 1),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "campaign wall time: {}s\n",
        fmt_num(num(profile.get("campaign_wall_secs")), 2)
    ));
    out
}

/// Pulls one counter out of a metrics TSV (`metric\tkind\tcount\t...`).
fn counter(tsv: &str, name: &str) -> Option<u64> {
    tsv.lines().find_map(|line| {
        let mut cols = line.split('\t');
        (cols.next() == Some(name) && cols.next() == Some("counter"))
            .then(|| cols.next().and_then(|v| v.parse().ok()))
            .flatten()
    })
}

fn render_cache(tsv: &str) -> String {
    let g_hit = counter(tsv, "cache.grid_hits").unwrap_or(0);
    let g_miss = counter(tsv, "cache.grid_misses").unwrap_or(0);
    let m_hit = counter(tsv, "cache.matrix_hits").unwrap_or(0);
    let m_miss = counter(tsv, "cache.matrix_misses").unwrap_or(0);
    if g_hit + g_miss + m_hit + m_miss == 0 {
        return "no cache counters recorded\n".to_string();
    }
    let pct = |hit: u64, miss: u64| {
        let total = hit + miss;
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64 * 100.0
        }
    };
    let mut t = TextTable::new(&["cache", "hits", "misses", "hit_rate"]);
    t.row(&[
        "grid".to_string(),
        g_hit.to_string(),
        g_miss.to_string(),
        format!("{:.0}%", pct(g_hit, g_miss)),
    ]);
    t.row(&[
        "matrix".to_string(),
        m_hit.to_string(),
        m_miss.to_string(),
        format!("{:.0}%", pct(m_hit, m_miss)),
    ]);
    t.render()
}

/// The second-stage codec summary. Codec-off runs export neither counter
/// (the exporters skip zero deltas), so the whole section is omitted then;
/// a run with either counter present renders both, `n/a` for the missing
/// one rather than a fabricated zero.
fn render_codec(tsv: &str) -> String {
    let entropy = counter(tsv, "codec.entropy_cycles");
    let saved = counter(tsv, "codec.saved_bytes");
    if entropy.is_none() && saved.is_none() {
        return String::new();
    }
    let mut out = format!(
        "entropy decode cycles: {}\nbus bytes saved:       {}\n",
        fmt_uint(entropy),
        fmt_uint(saved)
    );
    if let (Some(saved), Some(bytes)) = (saved, counter(tsv, "bytes")) {
        if bytes > 0 {
            out.push_str(&format!(
                "transfer reduction:    {:.1}% of raw stream bytes\n",
                saved as f64 / bytes as f64 * 100.0
            ));
        }
    }
    out
}

fn render_retries(tsv: &str) -> String {
    let retries = counter(tsv, "cell_retries").unwrap_or(0);
    let failures = counter(tsv, "cell_failures").unwrap_or(0);
    if retries == 0 && failures == 0 {
        return String::new();
    }
    let mut out = format!("cell retries: {retries}\ncell failures: {failures}\n");
    for line in tsv.lines() {
        if let Some(rest) = line.strip_prefix("failures.") {
            let mut cols = rest.split('\t');
            if let (Some(kind), Some("counter"), Some(count)) =
                (cols.next(), cols.next(), cols.next())
            {
                out.push_str(&format!("  {kind}: {count}\n"));
            }
        }
    }
    out
}

fn render_slowest(doc: &Value, top: usize) -> String {
    let Some(ms) = doc.get("measurements").and_then(Value::as_seq) else {
        return "no measurements recorded\n".to_string();
    };
    let mut cells: Vec<(&Value, Option<u64>)> = ms
        .iter()
        .map(|m| (m, uint(m.get("report").and_then(|r| r.get("total_cycles")))))
        .collect();
    // Cells with a malformed cycle count sort last, rendered as n/a.
    cells.sort_by_key(|&(_, cycles)| std::cmp::Reverse(cycles.unwrap_or(0)));
    let mut t = TextTable::new(&["workload", "p", "format", "total_cycles", "sigma"]);
    for (m, cycles) in cells.iter().take(top) {
        let report = m.get("report");
        let compute = num(report.and_then(|r| r.get("total_compute_cycles")));
        let dense = num(report.and_then(|r| r.get("dense_equivalent_compute")));
        let sigma = match (compute, dense) {
            (Some(c), Some(d)) if d > 0.0 => format!("{:.3}", c / d),
            (Some(_), Some(_)) => "0.000".to_string(),
            _ => "n/a".to_string(),
        };
        t.row(&[
            m.get("workload")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            fmt_uint(uint(m.get("partition_size"))),
            m.get("format")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            fmt_uint(*cycles),
            sigma,
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!("({} cell(s) total)\n", cells.len()));
    out
}

fn render_failures(doc: &Value) -> String {
    let Some(failures) = doc.get("failures").and_then(Value::as_seq) else {
        return String::new();
    };
    if failures.is_empty() {
        return String::new();
    }
    let mut t = TextTable::new(&["cell", "workload", "p", "format", "kind", "retries"]);
    for f in failures {
        t.row(&[
            fmt_uint(uint(f.get("cell"))),
            f.get("workload")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            fmt_uint(uint(f.get("partition_size"))),
            f.get("format")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            f.get("kind")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            fmt_uint(uint(f.get("retries"))),
        ]);
    }
    t.render()
}

/// The recorded perf trajectory, one row per point in record order. The
/// backend column keeps measurements from different hardware models
/// visibly separate — they never gate each other, so a reader comparing
/// rows across backends would be comparing different simulations.
fn render_trajectory(points: &[crate::perf::TrajectoryPoint]) -> String {
    let mut t = TextTable::new(&[
        "label", "cmd", "scale", "jobs", "backend", "best_s", "mean_s", "cv",
    ]);
    for p in points {
        t.row(&[
            p.label.clone(),
            p.cmd.clone(),
            p.scale.clone(),
            p.jobs.to_string(),
            p.backend.clone(),
            format!("{:.3}", p.best_secs),
            format!("{:.3}", p.mean_secs),
            format!("{:.1}%", p.cv * 100.0),
        ]);
    }
    t.render()
}

/// The storm results: one row per concurrency level, then the chaos-audit
/// verdict when one ran. Malformed or missing fields render `n/a`, never a
/// fabricated zero — a torn benchmark file must look torn.
fn render_serve(doc: &Value) -> String {
    let mut out = String::new();
    match doc.get("levels").and_then(Value::as_seq) {
        Some(levels) if !levels.is_empty() => {
            let mut t = TextTable::new(&[
                "clients", "ok", "rejected", "errors", "p50_ms", "p99_ms", "req/s",
            ]);
            for level in levels {
                t.row(&[
                    fmt_uint(uint(level.get("clients"))),
                    fmt_uint(uint(level.get("ok"))),
                    fmt_uint(uint(level.get("rejected"))),
                    fmt_uint(uint(level.get("errors"))),
                    fmt_num(num(level.get("p50_ms")), 1),
                    fmt_num(num(level.get("p99_ms")), 1),
                    fmt_num(num(level.get("req_per_s")), 1),
                ]);
            }
            out.push_str(&t.render());
        }
        _ => out.push_str("no load-test levels recorded\n"),
    }
    if let Some(chaos) = doc.get("chaos") {
        let lost = uint(chaos.get("lost"));
        let verdict = match lost {
            Some(0) => "PASS",
            Some(_) => "FAIL",
            None => "n/a",
        };
        out.push_str(&format!(
            "chaos audit: {verdict} — sent {} answered {} never_accepted {} lost {}\n",
            fmt_uint(uint(chaos.get("sent"))),
            fmt_uint(uint(chaos.get("answered_total"))),
            fmt_uint(uint(chaos.get("never_accepted"))),
            fmt_uint(lost),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("copernicus-report-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn empty_directory_reports_absent_artifacts() {
        let dir = scratch("empty");
        let text = render_report(&dir, 5);
        assert!(text.contains("absent artifacts"));
        assert!(text.contains("progress.jsonl"));
        assert!(text.contains("profile.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_renders_every_section_from_artifacts() {
        let dir = scratch("full");
        std::fs::write(
            dir.join("progress.jsonl"),
            "{\"done\": 4, \"total\": 8, \"cached\": 1, \"retries\": 2, \"failures\": 1, \"elapsed_secs\": 2.0, \"rate_cells_per_sec\": 2.0, \"eta_secs\": 2.0, \"final\": false}\n{\"done\": 8, \"total\": 8, \"cached\": 3, \"retries\": 2, \"failures\": 1, \"elapsed_secs\": 4.0, \"rate_cells_per_sec\": 2.0, \"eta_secs\": null, \"final\": true}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("profile.json"),
            "{\"phases\": {\"generate\": {\"count\": 2, \"sum_secs\": 0.25, \"mean_secs\": 0.125, \"min_secs\": 0.05, \"max_secs\": 0.2, \"p50_secs\": 0.05, \"p95_secs\": 0.2, \"p99_secs\": 0.2}, \"encode\": {\"count\": 3, \"sum_secs\": 0.3, \"mean_secs\": 0.1, \"min_secs\": 0.05, \"max_secs\": 0.2, \"p50_secs\": 0.1, \"p95_secs\": 0.2, \"p99_secs\": 0.2}}, \"workers\": [{\"worker\": 0, \"busy_secs\": 1.5, \"cells\": 8, \"utilization\": 0.75, \"cells_per_sec\": 5.33}], \"campaign_wall_secs\": 2.0}",
        )
        .unwrap();
        std::fs::write(
            dir.join("metrics.tsv"),
            "metric\tkind\tcount\tsum\tmean\tmin\tmax\tp50\tp99\ncache.grid_hits\tcounter\t6\t6\t\t\t\t\t\ncache.grid_misses\tcounter\t2\t2\t\t\t\t\t\ncache.matrix_hits\tcounter\t1\t1\t\t\t\t\t\ncache.matrix_misses\tcounter\t1\t1\t\t\t\t\t\ncell_retries\tcounter\t2\t2\t\t\t\t\t\ncell_failures\tcounter\t1\t1\t\t\t\t\t\nfailures.panic\tcounter\t1\t1\t\t\t\t\t\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("measurements.json"),
            "{\"measurements\": [{\"workload\": \"d=0.1\", \"partition_size\": 16, \"format\": \"CSR\", \"report\": {\"total_cycles\": 900, \"total_compute_cycles\": 600, \"dense_equivalent_compute\": 300}}, {\"workload\": \"w=4\", \"partition_size\": 8, \"format\": \"COO\", \"report\": {\"total_cycles\": 1200, \"total_compute_cycles\": 500, \"dense_equivalent_compute\": 500}}], \"failures\": [{\"cell\": 7, \"workload\": \"d=0.1\", \"partition_size\": 16, \"format\": \"ELL\", \"kind\": \"panic\", \"retries\": 2}]}",
        )
        .unwrap();
        std::fs::write(dir.join("checkpoint.jsonl"), "{\"key\": \"k\"}\n").unwrap();

        let text = render_report(&dir, 5);
        assert!(
            text.contains("cells:    8/8 (3 cached, 5 computed)"),
            "{text}"
        );
        assert!(text.contains("retries:  2"), "{text}");
        assert!(text.contains("encode"), "{text}");
        // Generation renders as its own phase row, before encode.
        let generate = text.find("generate").expect("generate row");
        assert!(generate < text.find("encode").unwrap(), "{text}");
        assert!(text.contains("75%"), "{text}");
        assert!(text.contains("grid") && text.contains("matrix"), "{text}");
        assert!(
            text.contains("failures.panic") || text.contains("panic"),
            "{text}"
        );
        // Slowest cell first: the COO cell at 1200 cycles.
        let coo = text.find("w=4").expect("COO row");
        let csr = text.find("d=0.1").expect("CSR row");
        assert!(coo < csr, "slowest cell must be listed first\n{text}");
        assert!(text.contains("1 cell(s) resumable"), "{text}");
        assert!(!text.contains("absent artifacts"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_fields_render_as_not_available_not_zero() {
        let dir = scratch("malformed");
        // Numbers replaced with strings, and key fields simply missing:
        // each must surface as `n/a`, never be coerced to a silent 0.
        std::fs::write(
            dir.join("progress.jsonl"),
            "{\"done\": \"eight\", \"cached\": 3, \"retries\": 2, \"failures\": 0, \"elapsed_secs\": \"soon\", \"final\": true}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("profile.json"),
            "{\"phases\": {\"encode\": {\"count\": 3, \"sum_secs\": \"lots\"}}, \"workers\": [{\"worker\": 0, \"cells\": \"many\"}]}",
        )
        .unwrap();
        std::fs::write(
            dir.join("measurements.json"),
            "{\"measurements\": [{\"workload\": \"d=0.1\", \"format\": \"CSR\", \"report\": {\"total_cycles\": \"broken\"}}]}",
        )
        .unwrap();
        let text = render_report(&dir, 5);
        assert!(
            text.contains("cells:    n/a/n/a (3 cached, n/a computed)"),
            "{text}"
        );
        assert!(text.contains("elapsed:  n/as at n/a cells/s"), "{text}");
        assert!(text.contains("retries:  2"), "{text}");
        // The phase row keeps its parsed count but flags the broken sum.
        assert!(text.contains("n/a"), "{text}");
        assert!(
            !text.contains("0.00s at"),
            "malformed elapsed must not read as 0\n{text}"
        );
        // The measurement row survives: missing partition size and a broken
        // cycle count both render as n/a, and sigma (whose inputs are
        // absent) is n/a rather than the old fabricated 0.000.
        let row = text
            .lines()
            .find(|l| l.contains("d=0.1"))
            .expect("CSR measurement row");
        assert!(row.contains("CSR"), "{row}");
        assert_eq!(row.matches("n/a").count(), 3, "{row}");
        assert!(!row.contains("0.000"), "{row}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn codec_section_renders_from_counters_and_vanishes_without_them() {
        let dir = scratch("codec");
        // Codec-off: cache counters only — no codec section at all.
        std::fs::write(
            dir.join("metrics.tsv"),
            "metric\tkind\tcount\tsum\ncache.grid_hits\tcounter\t6\t6\ncache.grid_misses\tcounter\t2\t2\n",
        )
        .unwrap();
        let text = render_report(&dir, 5);
        assert!(!text.contains("second-stage codec"), "{text}");

        // Codec-on: both counters plus the raw byte counter for the ratio.
        std::fs::write(
            dir.join("metrics.tsv"),
            "metric\tkind\tcount\tsum\nbytes\tcounter\t1000\t1000\ncodec.entropy_cycles\tcounter\t420\t420\ncodec.saved_bytes\tcounter\t250\t250\n",
        )
        .unwrap();
        let text = render_report(&dir, 5);
        assert!(text.contains("second-stage codec"), "{text}");
        assert!(text.contains("entropy decode cycles: 420"), "{text}");
        assert!(text.contains("bus bytes saved:       250"), "{text}");
        assert!(text.contains("25.0% of raw stream bytes"), "{text}");

        // One counter present, the other absent: n/a, not zero, and the
        // ratio line (whose inputs are incomplete) is dropped.
        std::fs::write(
            dir.join("metrics.tsv"),
            "metric\tkind\tcount\tsum\ncodec.entropy_cycles\tcounter\t420\t420\n",
        )
        .unwrap();
        let text = render_report(&dir, 5);
        assert!(text.contains("bus bytes saved:       n/a"), "{text}");
        assert!(!text.contains("raw stream bytes"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_section_renders_levels_and_chaos_with_na_degradation() {
        let dir = scratch("serve");
        // Absent file: no serve section at all.
        let text = render_report(&dir, 5);
        assert!(!text.contains("service latency"), "{text}");

        // A healthy file: both levels rendered, chaos verdict PASS.
        std::fs::write(
            dir.join("BENCH_serve.json"),
            "{\"schema\": \"bench_serve_v1\", \"levels\": [{\"clients\": 2, \"ok\": 8, \"rejected\": 0, \"errors\": 0, \"p50_ms\": 85.3, \"p99_ms\": 89.9, \"req_per_s\": 29.9}, {\"clients\": 8, \"ok\": 30, \"rejected\": 2, \"errors\": 0, \"p50_ms\": 120.0, \"p99_ms\": 310.5, \"req_per_s\": 51.0}], \"chaos\": {\"sent\": 10, \"answered_pre_kill\": 6, \"answered_total\": 8, \"never_accepted\": 2, \"lost\": 0, \"garbage_rejected\": true, \"clean_exit\": true}}",
        )
        .unwrap();
        let text = render_report(&dir, 5);
        assert!(text.contains("service latency"), "{text}");
        assert!(text.contains("85.3"), "{text}");
        assert!(text.contains("310.5"), "{text}");
        assert!(
            text.contains("chaos audit: PASS") && text.contains("lost 0"),
            "{text}"
        );

        // Malformed fields degrade to n/a; a lost request flips the verdict.
        std::fs::write(
            dir.join("BENCH_serve.json"),
            "{\"levels\": [{\"clients\": 2, \"ok\": \"many\", \"p50_ms\": \"fast\"}], \"chaos\": {\"sent\": 10, \"lost\": 3}}",
        )
        .unwrap();
        let text = render_report(&dir, 5);
        assert!(text.contains("n/a"), "{text}");
        assert!(text.contains("chaos audit: FAIL"), "{text}");
        assert!(!text.contains("\t0\t"), "{text}");

        // No levels at all is said out loud, not rendered as an empty table.
        std::fs::write(dir.join("BENCH_serve.json"), "{\"levels\": []}").unwrap();
        let text = render_report(&dir, 5);
        assert!(text.contains("no load-test levels recorded"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trajectory_section_keeps_backends_in_separate_rows() {
        let dir = scratch("trajectory");
        // One modern point (cpu backend) and one legacy point with no
        // backend field, which must render as hls — never blend together.
        std::fs::write(
            dir.join("BENCH_trajectory.json"),
            "{\"points\": [{\"label\": \"old\", \"scale\": \"quick\", \"jobs\": 1, \"iterations\": 1, \"runs_secs\": [1.0], \"best_secs\": 1.0, \"mean_secs\": 1.0}, {\"label\": \"cpu-model\", \"cmd\": \"repro_all\", \"scale\": \"quick\", \"jobs\": 1, \"backend\": \"cpu\", \"iterations\": 1, \"runs_secs\": [0.5], \"best_secs\": 0.5, \"mean_secs\": 0.5}]}",
        )
        .unwrap();
        let text = render_report(&dir, 5);
        assert!(text.contains("performance trajectory"), "{text}");
        assert!(text.contains("backend"), "{text}");
        let old = text.lines().find(|l| l.contains("old")).expect("old row");
        assert!(old.contains("hls"), "legacy point must read as hls\n{old}");
        let cpu = text
            .lines()
            .find(|l| l.contains("cpu-model"))
            .expect("cpu row");
        assert!(cpu.contains("cpu"), "{cpu}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_stream_is_called_out() {
        let dir = scratch("interrupted");
        std::fs::write(
            dir.join("progress.jsonl"),
            "{\"done\": 3, \"total\": 8, \"cached\": 0, \"retries\": 0, \"failures\": 0, \"elapsed_secs\": 1.0, \"rate_cells_per_sec\": 3.0, \"eta_secs\": 1.7, \"final\": false}\n",
        )
        .unwrap();
        let text = render_report(&dir, 5);
        assert!(text.contains("may have been interrupted"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
