//! `perfbench` — layered host-time benchmark of the Copernicus characterizer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --check [--workload <name>]
//! ```
//!
//! A run builds its inputs from the seed, measures for `--seconds`, checks
//! the simulated outputs, prints every metric by name with its unit, and
//! ends with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the same
//! cells through the public layer functions with spans and reports the
//! per-layer metrics. `--check` recomputes the pinned digests of
//! `digests.json` at one and two workers for both pinned seeds.

mod common;
mod digest;
mod serve_open;
mod spmv_tiles;
mod stats;
mod structural;
mod suite_codec;
mod trace;

use common::{end_to_end_metrics, per_layer_metrics, Ctx, Metric};
use digest::Digest;
use std::path::PathBuf;

pub const WORKLOADS: [&str; 4] = [
    "paper-structural",
    "suite-codec",
    "spmv-tiles",
    "serve-open",
];

/// What a run observed besides its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub digest: Option<Digest>,
    /// Extra named values printed with the metrics but not emitted in JSON.
    pub details: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --check [--workload <name>]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        // The daemon child of serve-open: `copernicus-bench serve`.
        Some("--daemon") => copernicus_bench::run("serve", argv[1..].to_vec()),
        Some("--setup-probe") => match parse(&argv[1..]) {
            Ok(a) => setup_probe(&a),
            Err(e) => fail(&e),
        },
        Some("--check") => check(&argv[1..]),
        _ => match parse(&argv) {
            Ok(a) => run(&a),
            Err(e) => fail(&e),
        },
    };
    std::process::exit(code);
}

fn fail(msg: &str) -> i32 {
    eprintln!("perfbench: {msg}\n{USAGE}");
    2
}

/// Everything a workload does before its first timed call. Run in a fresh
/// process by the set-up probes.
fn setup_probe(a: &Args) -> i32 {
    let ready = match a.workload.as_str() {
        "paper-structural" => !structural::workloads().is_empty(),
        "suite-codec" => suite_codec::config(a.seed, copernicus_hls::CodecKind::Rle)
            .hw
            .validate()
            .is_ok(),
        "spmv-tiles" => spmv_tiles::inputs(a.seed).is_ok(),
        _ => false,
    };
    i32::from(!ready)
}

fn run(a: &Args) -> i32 {
    let dir = PathBuf::from(".perfbench-run").join(format!(
        "{}-{}-{}",
        a.workload,
        a.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(&format!("cannot create {}: {e}", dir.display()));
    }
    let ctx = Ctx {
        workload: a.workload.clone(),
        seed: a.seed,
        seconds: a.seconds,
        dir: dir.clone(),
    };
    let mut out = Outcome::default();
    let result = if a.trace {
        run_traced(&ctx, &mut out)
    } else {
        run_untraced(&ctx, &mut out)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", a.workload);
            return 1;
        }
    };
    if let (Some(d), Some(pinned)) = (&out.digest, digest::pinned(&a.workload, a.seed)) {
        out.check("digest equals the pinned one", d.hex() == pinned);
    }
    if metrics.iter().any(|m| !m.value.is_finite()) {
        out.check("every metric is finite", false);
    }
    let correct = out.correct();
    if !correct {
        // A failed check voids every operation of the run.
        out.failed = out.attempted;
    }
    print_report(a, &out, &metrics);
    println!("{}", json_line(correct, &out, &metrics));
    0
}

fn run_untraced(ctx: &Ctx, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let e2e = match ctx.workload.as_str() {
        "paper-structural" => structural::run(ctx, out)?,
        "suite-codec" => suite_codec::run(ctx, out)?,
        "spmv-tiles" => spmv_tiles::run(ctx, out)?,
        _ => serve_open::run(ctx, out)?,
    };
    Ok(end_to_end_metrics(&e2e))
}

fn run_traced(ctx: &Ctx, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let mut tr = trace::Tracer::default();
    let layers = match ctx.workload.as_str() {
        "paper-structural" => structural::trace(ctx, out, &mut tr)?,
        "suite-codec" => suite_codec::trace(ctx, out, &mut tr)?,
        "spmv-tiles" => spmv_tiles::trace(ctx, out, &mut tr)?,
        _ => serve_open::trace(ctx, out, &mut tr)?,
    };
    out.check(
        "replayed tile timings sum to the session reports",
        layers.unfaithful_cells == 0 && layers.cells > 0,
    );
    let path =
        PathBuf::from(".perfbench-run").join(format!("trace-{}-{}.jsonl", ctx.workload, ctx.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tr.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    Ok(per_layer_metrics(&layers))
}

fn print_report(a: &Args, out: &Outcome, metrics: &[Metric]) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for m in metrics.iter().chain(&out.details) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(d) = &out.digest {
        println!("  digest                       {}", d.hex());
    }
    for (name, ok) in &out.checks {
        println!("  check {:<40} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    println!("  attempted {} failed {}", out.attempted, out.failed);
}

fn json_line(correct: bool, out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

/// Recomputes every workload's digest at one and two workers for both
/// pinned seeds and compares them with `digests.json`.
fn check(args: &[String]) -> i32 {
    let only = match args {
        [] => None,
        [flag, w] if flag == "--workload" && WORKLOADS.contains(&w.as_str()) => Some(w.clone()),
        _ => return fail("--check takes an optional --workload <name>"),
    };
    let dir = PathBuf::from(".perfbench-run").join(format!("check-{}", std::process::id()));
    let mut all_ok = true;
    for w in WORKLOADS {
        if only.as_deref().is_some_and(|o| o != w) {
            continue;
        }
        for seed in digest::PINNED_SEEDS {
            let mut seen = Vec::new();
            for jobs in [1, 2] {
                let d = match w {
                    "paper-structural" => structural::digest(jobs, seed),
                    "suite-codec" => suite_codec::digest(jobs, seed, &dir),
                    "spmv-tiles" => spmv_tiles::digest(jobs, seed),
                    _ => serve_open::digest(jobs, seed),
                };
                match d {
                    Ok(d) => seen.push(d.hex()),
                    Err(e) => {
                        eprintln!("perfbench: {w} seed {seed} jobs {jobs}: {e}");
                        seen.push("error".into());
                    }
                }
            }
            let pinned = digest::pinned(w, seed).unwrap_or_else(|| "unpinned".into());
            let ok = seen.iter().all(|d| *d == pinned);
            all_ok &= ok;
            println!(
                "{w:<18} seed {seed:<6} jobs1 {} jobs2 {} pinned {pinned} {}",
                seen[0],
                seen[1],
                if ok { "ok" } else { "MISMATCH" }
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    i32::from(!all_ok)
}
