//! `perfbench`: the repository's benchmark. One run generates one
//! workload's inputs from a seed, times calls into the workspace crates (or
//! drives `fastbfs serve` over HTTP), checks every answer against the
//! benchmark's own reference BFS, and prints its metrics. The last line of
//! standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           --work-dir DIR --fastbfs BIN [--rev REV] [--rustc VERSION]
//! perfbench rss-probe WORKLOAD FILE ROOT...
//! ```
//!
//! `--trace 0` runs the untraced pass and prints the end-to-end metrics;
//! `--trace 1` runs an untraced and a traced pass and prints the per-layer
//! metrics, including the gap between the two passes. `rss-probe` is the
//! child an engine workload starts to measure the program's peak memory
//! apart from the benchmark's own.

mod check;
mod client;
mod engine;
mod placement;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, printed by `--trace 0`: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("mteps", "MTEPS"),
    ("query_p50_ms", "ms"),
    ("serve.max_qps", "1/s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics, printed by `--trace 1`: name and unit.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("graph.relabel_s", "s"),
    ("graph.hugepage_s", "s"),
    ("graph.csr_mib", "MiB"),
    ("session.build_s", "s"),
    ("session.first_query_s", "s"),
    ("session.overhead_us", "us"),
    ("engine.phase1_ns_per_edge", "ns"),
    ("engine.phase2_ns_per_entry", "ns"),
    ("engine.rearrange_ns_per_vertex", "ns"),
    ("engine.duplicate_rate", "ratio"),
    ("engine.barrier_us_per_step", "us"),
    ("engine.steps_per_query", "count"),
    ("direction.bottom_up_ns_per_check", "ns"),
    ("direction.checks_per_edge", "ratio"),
    ("direction.bottom_up_steps_per_query", "count"),
    ("direction.switches_per_query", "count"),
    ("query.wave_size", "count"),
    ("serve.parse_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.outside_us", "us"),
    ("serve.p50_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("client.late_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (engine queries or HTTP requests).
    pub attempted: u64,
    /// Operations that returned an error instead of an answer.
    pub failed: u64,
    /// Answers that failed their check (empty when all are correct).
    pub wrong: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Provenance fields the workload learned (hugepage status, ...).
    pub provenance: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 1000 {
            self.wrong.push(what);
        }
    }
}

/// Command-line settings shared by the workloads.
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub fastbfs: PathBuf,
}

/// Writes a graph in the program's binary format.
pub fn write_graph(g: &bfs_graph::CsrGraph, path: &std::path::Path) -> Result<(), String> {
    std::fs::File::create(path)
        .and_then(|mut f| bfs_graph::io::write_binary(g, &mut f))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn parse_args() -> Result<(Settings, String, String), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
    let num = |key: &str| -> Result<u64, String> {
        need(key)?
            .parse()
            .map_err(|_| format!("{key} expects a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let settings = Settings {
        workload: need("--workload")?.to_string(),
        seed: num("--seed")?,
        window: Duration::from_secs(seconds),
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace expects 0 or 1, not {t:?}")),
        },
        work_dir: PathBuf::from(need("--work-dir")?),
        fastbfs: PathBuf::from(need("--fastbfs")?),
    };
    let rev = get("--rev").unwrap_or("unknown").to_string();
    let rustc = get("--rustc").unwrap_or("unknown").to_string();
    Ok((settings, rev, rustc))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("rss-probe") {
        match engine::rss_probe(&args[1..]) {
            Ok(mib) => println!("{mib}"),
            Err(e) => {
                eprintln!("perfbench rss-probe: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let (settings, rev, rustc) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = check::self_test() {
        eprintln!("perfbench: checker self-test failed: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::create_dir_all(&settings.work_dir) {
        eprintln!("perfbench: create {}: {e}", settings.work_dir.display());
        std::process::exit(1);
    }
    let mut spans = spans::Spans::new(settings.trace);
    let result = match settings.workload.as_str() {
        "rmat-topdown" | "rmat-auto" | "road-deep" => engine::run(&settings, &mut spans),
        "serve-mix" => serve::run(&settings, &mut spans),
        w => Err(format!("unknown workload {w:?}")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", settings.workload);
            std::process::exit(1);
        }
    };
    let span_file = settings.work_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        settings.workload, settings.seed
    ));
    if let Err(e) = spans.write(&span_file) {
        eprintln!("perfbench: write {}: {e}", span_file.display());
        std::process::exit(1);
    }

    println!(
        "provenance: rev {rev}; {rustc}; host cores {}; {}; \
         hw counters {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        outcome.provenance.join("; "),
        bfs_perf::availability_string(),
    );
    if outcome.attempted == 0 {
        outcome.wrong("no operation was attempted".into());
    }
    let table: &[(&str, &str)] = if settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match outcome.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) if v.is_finite() => v,
            Some(&(_, v)) => {
                outcome.wrong(format!("metric {name} is {v}"));
                0.0
            }
            None => panic!("workload {} did not report {name}", settings.workload),
        };
        println!("{name:<38} {value:>14.4} {unit}");
        // Display never uses an exponent and keeps every significant digit.
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for w in outcome.wrong.iter().take(5) {
        println!("WRONG: {w}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.wrong.is_empty(),
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    );
}
