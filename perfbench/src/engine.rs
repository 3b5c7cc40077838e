//! The engine workloads. Each generates its graph in-process, draws a batch
//! of Graph500 roots, builds a warm `BfsSession` and calls `run` on it from
//! outside, round after round over the batch, until the window is spent.
//! A round's answers are checked after its timed calls.
//!
//! * `rmat-topdown` — Graph500 RMAT (scale 20, edge factor 16) with
//!   `BfsOptions::default()`: the paper's forced top-down two-phase engine.
//! * `rmat-auto` — the same family with direction `auto`, degree-order
//!   relabel and hugepages: the fastest shipped configuration.
//! * `road-deep` — the road-network generator (1024 x 1024, average degree
//!   2.4, ~600 levels) with direction `auto`, no layout levers, one lane.

use std::time::{Duration, Instant};

use bfs_core::{BfsOptions, BfsOutput, BfsSession, DirectionPolicy, HugepageStatus};
use bfs_graph::gen::grid::road_network;
use bfs_graph::gen::rmat::{rmat, RmatConfig};
use bfs_graph::rng::rng_from_seed;
use bfs_graph::{CsrGraph, VertexId};
use bfs_platform::Topology;
use bfs_trace::{RingSink, TraceEvent};

use crate::check::{check_answer, Reference};
use crate::spans::{SpanId, Spans};
use crate::stats::{
    giant_component_roots, harmonic_mean, median, proc_mib, ratio, setup_done, SplitMix,
};
use crate::{Outcome, Settings};

const RMAT_SCALE: u32 = 20;
const RMAT_EDGE_FACTOR: u32 = 16;
/// Side of the road lattice: 2^20 vertices.
const ROAD_SIDE: usize = 1024;
/// Trace events one query may emit (one per level plus the run event).
const EVENTS_PER_QUERY: usize = 4096;
/// Separates the root stream from the graph stream of the same seed.
const ROOT_STREAM: u64 = 0x5EED_F00D_0000_0001;

struct Shape {
    rmat: bool,
    options: BfsOptions,
    relabel: bool,
    roots: usize,
    /// Engine lanes (threads); the host this is tuned on has two cores.
    lanes: usize,
}

fn shape(workload: &str) -> Shape {
    match workload {
        "rmat-topdown" => Shape {
            rmat: true,
            options: BfsOptions::default(),
            relabel: false,
            roots: 8,
            lanes: 2,
        },
        "rmat-auto" => Shape {
            rmat: true,
            options: BfsOptions {
                direction: DirectionPolicy::auto(),
                huge_pages: true,
                ..BfsOptions::default()
            },
            relabel: true,
            roots: 8,
            lanes: 2,
        },
        _ => Shape {
            rmat: false,
            options: BfsOptions {
                direction: DirectionPolicy::auto(),
                ..BfsOptions::default()
            },
            relabel: false,
            roots: 16,
            // With two lanes on a two-core guest a level's barriers wait on
            // wherever the scheduler put three runnable threads (two
            // workers and the caller waiting at the pool's finish barrier):
            // over ~600 levels a query's time drifted between ≈120 and
            // ≈215 ms from run to run, against ±5% with one lane. One lane
            // keeps the per-level work and the direction flapping.
            lanes: 1,
        },
    }
}

fn generate(rmat_family: bool, seed: u64) -> CsrGraph {
    let mut rng = rng_from_seed(seed);
    if rmat_family {
        rmat(
            &RmatConfig::graph500(RMAT_SCALE, RMAT_EDGE_FACTOR),
            &mut rng,
        )
    } else {
        road_network(ROAD_SIDE, ROAD_SIDE, 0.2, ROAD_SIDE / 16, &mut rng)
    }
}

/// Seconds spent in each set-up layer.
#[derive(Default)]
pub struct SetupTimes {
    total: f64,
    pub relabel: f64,
    pub hugepage: f64,
    pub build: f64,
    /// The new session's first query, which grows its buffers.
    pub first_query: f64,
}

/// Relabels the input and moves the copy onto hugepages, timing each call.
pub fn relabel_and_migrate(
    input: &CsrGraph,
    spans: &mut Spans,
    parent: SpanId,
    t: &mut SetupTimes,
) -> CsrGraph {
    let span = spans.open("graph.relabel", parent);
    let t0 = Instant::now();
    let (mut g, _) = bfs_graph::degree_order(input);
    t.relabel = t0.elapsed().as_secs_f64();
    spans.close(span);
    let span = spans.open("graph.hugepage", parent);
    let t0 = Instant::now();
    g.migrate_to_hugepages();
    t.hugepage = t0.elapsed().as_secs_f64();
    spans.close(span);
    g
}

/// Builds a session and runs its first query from `root`, timing each.
pub fn build_session<'g>(
    g: &'g CsrGraph,
    options: BfsOptions,
    lanes: usize,
    root: VertexId,
    spans: &mut Spans,
    parent: SpanId,
    t: &mut SetupTimes,
) -> (BfsSession<'g>, BfsOutput) {
    let span = spans.open("session.build", parent);
    let t0 = Instant::now();
    let mut session = BfsSession::new(g, Topology::synthetic(1, lanes), options);
    t.build = t0.elapsed().as_secs_f64();
    spans.close(span);
    let span = spans.open("session.first_query", parent);
    let t0 = Instant::now();
    let first = session.run(root);
    t.first_query = t0.elapsed().as_secs_f64();
    spans.close(span);
    (session, first)
}

/// What one timed window measured.
#[derive(Default)]
struct Window {
    /// Wall seconds of each `run` call.
    walls: Vec<f64>,
    /// |E′| / wall of each call, in MTEPS.
    mteps: Vec<f64>,
    /// Wall time of each call minus the engine's own `total_time`, in µs.
    overhead_us: Vec<f64>,
    /// Levels, bottom-up levels and direction switches, from the per-step
    /// trace events (traced window only).
    steps: u64,
    bottom_up_steps: u64,
    switches: u64,
}

/// The roots a window cycles through, their references, and the graph
/// (in original ids) the answers are checked against.
struct Batch<'a> {
    original: &'a CsrGraph,
    roots: &'a [VertexId],
    refs: &'a [Reference],
}

fn window(
    session: &mut BfsSession<'_>,
    batch: &Batch<'_>,
    len: Duration,
    traced: bool,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Window {
    let Batch {
        original,
        roots,
        refs,
    } = *batch;
    let mut w = Window::default();
    let mut answers: Vec<BfsOutput> = roots.iter().map(|_| BfsOutput::default()).collect();
    let start = Instant::now();
    loop {
        // The untraced window runs whole rounds, so every root weighs the
        // same; a traced round on a deep graph can outlast the window, so
        // the traced one may stop inside a round.
        let mut answered = 0;
        for (answer, &root) in answers.iter_mut().zip(roots) {
            if traced && answered > 0 && start.elapsed() >= len {
                break;
            }
            answered += 1;
            let query = out.attempted;
            out.attempted += 1;
            let wall = if traced {
                let sink = RingSink::new(EVENTS_PER_QUERY);
                let t0 = Instant::now();
                session.run_traced_reusing(root, &sink, answer);
                let t1 = Instant::now();
                spans.record("session.run", t0, t1, Some(query));
                let mut prev = None;
                for event in sink.into_events() {
                    if let TraceEvent::Step(step) = event {
                        let dir = step.direction;
                        w.steps += 1;
                        w.bottom_up_steps += u64::from(dir.as_deref() == Some("bottom-up"));
                        w.switches += u64::from(prev.is_some() && prev != dir);
                        prev = dir;
                    }
                }
                t1 - t0
            } else {
                let t0 = Instant::now();
                session.run_reusing(root, answer);
                t0.elapsed()
            };
            let secs = wall.as_secs_f64();
            w.walls.push(secs);
            w.mteps
                .push(ratio(answer.stats.traversed_edges as f64, secs) / 1e6);
            w.overhead_us
                .push((secs - answer.stats.total_time.as_secs_f64()) * 1e6);
        }
        let span = spans.open("check", Spans::ROOT);
        for ((answer, &root), reference) in answers.iter().zip(roots).zip(refs).take(answered) {
            if let Err(e) = check_answer(
                original,
                root,
                reference,
                &answer.depths,
                &answer.parents,
                answer.stats.visited_vertices,
                answer.stats.traversed_edges,
            ) {
                out.wrong(e);
            }
        }
        spans.close(span);
        if start.elapsed() >= len {
            return w;
        }
    }
}

fn hugepage_provenance(status: &HugepageStatus) -> String {
    match status {
        HugepageStatus::Enabled => "enabled".into(),
        HugepageStatus::Disabled => "disabled".into(),
        HugepageStatus::Unavailable(r) => format!("unavailable: {r}"),
    }
}

pub fn run(s: &Settings, spans: &mut Spans) -> Result<Outcome, String> {
    let shape = shape(&s.workload);
    let mut out = Outcome::default();

    let span = spans.open("graph.generate", Spans::ROOT);
    let input = generate(shape.rmat, s.seed);
    spans.close(span);
    let (roots, refs) = giant_component_roots(
        &input,
        shape.roots,
        &mut SplitMix::new(s.seed ^ ROOT_STREAM),
    );

    // Set-up runs from the generated graph in hand to the first answered
    // query: relabel and migration where the workload uses them, the
    // session, and its first query, which grows the session's buffers. It
    // is repeated; the last session is kept for the windows.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut prepared: Option<CsrGraph> = None;
    let setup_start = Instant::now();
    let mut session = loop {
        // The previous set-up's graph goes before the next is made.
        drop(prepared.take());
        let mut t = SetupTimes::default();
        let parent = spans.open("setup", Spans::ROOT);
        let t0 = Instant::now();
        prepared = shape
            .relabel
            .then(|| relabel_and_migrate(&input, spans, parent, &mut t));
        let g = prepared.as_ref().unwrap_or(&input);
        let (session, first) = build_session(
            g,
            shape.options,
            shape.lanes,
            roots[0],
            spans,
            parent,
            &mut t,
        );
        t.total = t0.elapsed().as_secs_f64();
        spans.close(parent);
        setups.push(t);
        out.attempted += 1;
        if let Err(e) = check_answer(
            &input,
            roots[0],
            &refs[0],
            &first.depths,
            &first.parents,
            first.stats.visited_vertices,
            first.stats.traversed_edges,
        ) {
            out.wrong(format!("first query: {e}"));
        }
        if setup_done(setups.len(), setup_start) {
            break session;
        }
    };
    let g = prepared.as_ref().unwrap_or(&input);
    out.provenance.push(format!(
        "engine lanes {}; hugepages: csr {}, arenas {} (thp {})",
        shape.lanes,
        if g.is_hugepage_backed() {
            "huge"
        } else {
            "plain"
        },
        hugepage_provenance(session.engine().hugepage_status()),
        bfs_platform::hugepage::availability_string(),
    ));

    let setup_med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let batch = Batch {
        original: &input,
        roots: &roots,
        refs: &refs,
    };
    if !s.trace {
        let w = window(&mut session, &batch, s.window, false, spans, &mut out);
        out.set("setup_s", setup_med(|t| t.total));
        out.set("mteps", harmonic_mean(&w.mteps));
        out.set("query_p50_ms", median(&w.walls) * 1e3);
        // No HTTP layer here: the session is the server, called back to
        // back by one caller.
        out.set(
            "serve.max_qps",
            w.walls.len() as f64 / w.walls.iter().sum::<f64>(),
        );
        drop(session);
        drop(prepared);
        out.set("rss_peak_mib", rss_peak_mib(s, &input, &roots)?);
        return Ok(out);
    }

    // The engine's always-on registry is read over the untraced half, as
    // per-step tracing slows the engine; the traced half gives the per-step
    // events and the overhead.
    let half = s.window / 2;
    session.reset_metrics();
    let plain = window(&mut session, &batch, half, false, spans, &mut out);
    let span = spans.open("session.metrics_snapshot", Spans::ROOT);
    let snap = session.metrics_snapshot();
    spans.close(span);
    let traced = window(&mut session, &batch, half, true, spans, &mut out);
    let queries = traced.walls.len() as f64;

    // Workloads without the layout levers still time them on their own
    // graph, after the windows, so every layer has a figure on every graph.
    let (relabel_s, hugepage_s) = if shape.relabel {
        (setup_med(|t| t.relabel), setup_med(|t| t.hugepage))
    } else {
        let mut t = SetupTimes::default();
        drop(relabel_and_migrate(&input, spans, Spans::ROOT, &mut t));
        (t.relabel, t.hugepage)
    };
    out.set("graph.relabel_s", relabel_s);
    out.set("graph.hugepage_s", hugepage_s);
    out.set("graph.csr_mib", csr_mib(g));
    out.set("session.build_s", setup_med(|t| t.build));
    out.set("session.first_query_s", setup_med(|t| t.first_query));
    out.set("session.overhead_us", median(&plain.overhead_us));
    engine_layers(&mut out, |name| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value as f64)
    });
    out.set(
        "engine.steps_per_query",
        ratio(traced.steps as f64, queries),
    );
    out.set(
        "direction.bottom_up_steps_per_query",
        ratio(traced.bottom_up_steps as f64, queries),
    );
    out.set(
        "direction.switches_per_query",
        ratio(traced.switches as f64, queries),
    );
    // The serving layers are not on this workload's path.
    for name in [
        "query.wave_size",
        "serve.parse_us",
        "serve.queue_us",
        "serve.execute_us",
        "serve.serialize_us",
        "serve.outside_us",
        "serve.p50_ms",
        "serve.tail_ms",
        "client.late_ms_p99",
    ] {
        out.set(name, 0.0);
    }
    let (m_plain, m_traced) = (median(&plain.walls), median(&traced.walls));
    out.set(
        "trace.overhead_pct",
        ratio(m_traced - m_plain, m_plain) * 100.0,
    );
    Ok(out)
}

/// The engine and direction layers' figures from the engine's counter
/// totals; `total` maps a registry counter name (as `/metrics` spells it
/// between `fastbfs_` and `_total`) to its value over the measured span.
pub fn engine_layers(out: &mut Outcome, total: impl Fn(&str) -> f64) {
    let per = |num: &str, den: &str| ratio(total(num), total(den));
    out.set(
        "engine.phase1_ns_per_edge",
        per("phase1_ns", "scattered_edges"),
    );
    out.set(
        "engine.phase2_ns_per_entry",
        per("phase2_ns", "bin_entries"),
    );
    out.set(
        "engine.rearrange_ns_per_vertex",
        per("rearrange_ns", "enqueued"),
    );
    out.set(
        "engine.duplicate_rate",
        per("duplicate_enqueues", "visited_vertices"),
    );
    out.set(
        "engine.barrier_us_per_step",
        per("barrier_ns", "steps") / 1e3,
    );
    out.set(
        "direction.bottom_up_ns_per_check",
        per("bottom_up_ns", "edge_checks"),
    );
    out.set(
        "direction.checks_per_edge",
        per("edge_checks", "traversed_edges"),
    );
}

/// CSR size computed from its arrays: 8-byte offsets, 4-byte neighbors.
pub fn csr_mib(g: &CsrGraph) -> f64 {
    (g.offsets().len() * 8 + g.raw_neighbors().len() * 4) as f64 / (1u64 << 20) as f64
}

/// Peak resident set, in MiB, of a process that holds only what the
/// program needs: a child `perfbench rss-probe` loads `input` from a raw
/// file, sets the workload up as `fastbfs` would (dropping the original
/// graph after a relabel) and answers every root once; its `VmHWM` is the
/// figure. The benchmark's own graph copies, references and answers live
/// in this process and are not counted.
fn rss_peak_mib(s: &Settings, input: &CsrGraph, roots: &[VertexId]) -> Result<f64, String> {
    let path = s
        .work_dir
        .join(format!("rss-probe-{}-seed{}.csr", s.workload, s.seed));
    write_raw(input, &path)?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let done = std::process::Command::new(exe)
        .arg("rss-probe")
        .arg(&s.workload)
        .arg(&path)
        .args(roots.iter().map(VertexId::to_string))
        .stderr(std::process::Stdio::inherit())
        .output();
    let _ = std::fs::remove_file(&path);
    let done = done.map_err(|e| format!("start rss-probe: {e}"))?;
    let text = String::from_utf8_lossy(&done.stdout);
    match text.trim().parse::<f64>() {
        Ok(mib) if done.status.success() && mib > 0.0 => Ok(mib),
        _ => Err(format!("rss-probe failed ({}): {text}", done.status)),
    }
}

/// Writes the CSR arrays as they lie in memory, after their lengths (all
/// little-endian), so the probe can read them into vectors of their final
/// size and hold no second copy while loading.
fn write_raw(g: &CsrGraph, path: &std::path::Path) -> Result<(), String> {
    use std::io::Write as _;
    let err = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    w.write_all(&(g.offsets().len() as u64).to_le_bytes())
        .map_err(err)?;
    w.write_all(&(g.raw_neighbors().len() as u64).to_le_bytes())
        .map_err(err)?;
    for &o in g.offsets() {
        w.write_all(&o.to_le_bytes()).map_err(err)?;
    }
    for &v in g.raw_neighbors() {
        w.write_all(&v.to_le_bytes()).map_err(err)?;
    }
    w.flush().map_err(err)
}

fn read_raw(path: &std::path::Path) -> Result<CsrGraph, String> {
    use std::io::Read as _;
    let err = |e: std::io::Error| format!("read {}: {e}", path.display());
    let mut r = std::io::BufReader::new(std::fs::File::open(path).map_err(err)?);
    let mut word = [0u8; 8];
    let mut len = || -> Result<usize, String> {
        r.read_exact(&mut word).map_err(err)?;
        Ok(u64::from_le_bytes(word) as usize)
    };
    let (n_offsets, n_neighbors) = (len()?, len()?);
    let mut offsets = Vec::with_capacity(n_offsets);
    for _ in 0..n_offsets {
        r.read_exact(&mut word).map_err(err)?;
        offsets.push(u64::from_le_bytes(word));
    }
    let mut neighbors = Vec::with_capacity(n_neighbors);
    let mut half = [0u8; 4];
    for _ in 0..n_neighbors {
        r.read_exact(&mut half).map_err(err)?;
        neighbors.push(VertexId::from_le_bytes(half));
    }
    CsrGraph::try_from_parts(offsets, neighbors)
}

/// `perfbench rss-probe WORKLOAD FILE ROOT...`: the child of
/// [`rss_peak_mib`]. Prints its peak resident set in MiB.
pub fn rss_probe(args: &[String]) -> Result<f64, String> {
    let [workload, path, roots @ ..] = args else {
        return Err("rss-probe expects WORKLOAD FILE ROOT...".into());
    };
    let shape = shape(workload);
    let roots: Vec<VertexId> = roots
        .iter()
        .map(|r| r.parse().map_err(|_| format!("bad root {r:?}")))
        .collect::<Result<_, _>>()?;
    let input = read_raw(std::path::Path::new(path))?;
    let g = if shape.relabel {
        let (mut g, _) = bfs_graph::degree_order(&input);
        drop(input);
        g.migrate_to_hugepages();
        g
    } else {
        input
    };
    let mut session = BfsSession::new(&g, Topology::synthetic(1, shape.lanes), shape.options);
    let mut answer = BfsOutput::default();
    for &root in &roots {
        session.run_reusing(root, &mut answer);
    }
    Ok(proc_mib("self", "VmHWM"))
}
