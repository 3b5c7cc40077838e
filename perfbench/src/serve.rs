//! `serve-mix`: `fastbfs serve` on a Graph500 RMAT-16 graph (edge factor
//! 16) with one warm session on one engine lane, driven over HTTP by the
//! benchmark's own client in two phases:
//!
//! 1. open loop — Poisson arrivals at a fixed rate well below capacity,
//!    drawn until the phase's time is spent, each request timed from when
//!    it was due (or sent, when its sender was idle); two sender threads, so
//!    a stall makes later requests late. Only a traced run has it, as only
//!    per-layer figures come from it;
//! 2. closed loop — two connections sending back to back, for the whole
//!    window of an untraced run and the other half of a traced one.
//!
//! The server runs on one core and the client on the others (see
//! `placement`).
//!
//! The mix interleaves single-source `/query`, `/query` with `dst`,
//! `/path`, and small `POST /query` batches, so coalesced waves meet solo
//! jobs. No recorded traffic of this server exists to draw the mix from,
//! so its shares are an assumption: equal, one in four of each kind. Every
//! reply is checked after the phases against the reference BFS of the
//! generated graph.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bfs_graph::gen::rmat::{rmat, RmatConfig};
use bfs_graph::rng::rng_from_seed;
use bfs_graph::{CsrGraph, VertexId};
use serde_json::Value;

use crate::check::{has_edge, Reference, UNREACHED};
use crate::client::{self, Reply};
use crate::engine::{self, SetupTimes};
use crate::placement::Placement;
use crate::spans::Spans;
use crate::stats::{
    giant_component_roots, harmonic_mean, mean, median, non_isolated, percentile, proc_mib, ratio,
    setup_done, tail, SplitMix,
};
use crate::{write_graph, Outcome, Settings};

const SCALE: u32 = 16;
const EDGE_FACTOR: u32 = 16;
/// Distinct sources the requests draw from.
const ROOTS: usize = 64;
/// Sources per `POST /query` batch: an assumption, the smallest batch
/// that is more than one query.
const BATCH: usize = 2;
/// Open-loop offered rate, well below what the closed loop reaches: the
/// median stays the time of an unqueued request instead of flipping with
/// the share that queued.
const RATE_QPS: f64 = 40.0;
/// Share of the window given to the open-loop phase in a traced run. The
/// closed loop gives the end-to-end figures and has the rest; an untraced
/// run, which reports only those, gives it the whole window.
const OPEN_SHARE: f64 = 0.5;
/// The closed loop's throughput is the median over slices of this length,
/// so a burst of host steal moves a slice or two instead of the figure.
const SLICE: Duration = Duration::from_secs(1);
/// Engine lanes of the server's one session. With two, the session's
/// workers, the dispatcher waiting at the pool's finish barrier, the HTTP
/// workers and the two client threads share two cores, and the closed-loop
/// figures drifted by ±15% between runs, against ±5% with one.
const LANES: usize = 1;
/// Client threads, and so connections, in either phase.
const CLIENT_THREADS: usize = 2;
/// Untimed requests that warm the session before the phases.
const WARMUP: usize = 32;
const START_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(30);
const REQUEST_STREAM: u64 = 0xC11E_0000_0000_0017;

#[derive(Clone)]
enum Request {
    Reach {
        src: usize,
    },
    ReachDst {
        src: usize,
        dst: VertexId,
    },
    Path {
        src: usize,
        dst: VertexId,
    },
    /// Indexes into the root pool.
    Batch {
        srcs: Vec<usize>,
    },
}

/// The request mix, equal shares of the four kinds: `/query`, `/query`
/// with `dst`, `/path`, and `POST /query` with `BATCH` sources.
fn draw(rng: &mut SplitMix, dsts: &[VertexId]) -> Request {
    let src = rng.below(ROOTS as u64) as usize;
    let dst = dsts[rng.below(dsts.len() as u64) as usize];
    match rng.below(4) {
        0 => Request::Reach { src },
        1 => Request::ReachDst { src, dst },
        2 => Request::Path { src, dst },
        _ => Request::Batch {
            srcs: (0..BATCH)
                .map(|_| rng.below(ROOTS as u64) as usize)
                .collect(),
        },
    }
}

/// One request as sent, with its reply and clock readings.
struct Done {
    req: Request,
    /// When the request was due (the send time in the closed loop).
    due: Instant,
    /// When its latency counts from: the due time if the sender was still
    /// busy with an earlier request then (a stall that delayed the send is
    /// the server's), the send time if it was idle and slept until the due
    /// time (a late wake-up is the client's own).
    from: Instant,
    sent: Instant,
    done: Instant,
    reply: Result<Reply, String>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        (self.done - self.from).as_secs_f64() * 1e3
    }
    fn latency_from_send_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
    fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
    fn ok_body(&self) -> Option<Value> {
        match &self.reply {
            Ok(r) if r.status == 200 => serde_json::parse(std::str::from_utf8(&r.body).ok()?).ok(),
            _ => None,
        }
    }
}

fn send(addr: SocketAddr, req: &Request, roots: &[VertexId]) -> Result<Reply, String> {
    let result = match req {
        Request::Reach { src } => {
            client::request(addr, "GET", &format!("/query?src={}", roots[*src]), "")
        }
        Request::ReachDst { src, dst } => client::request(
            addr,
            "GET",
            &format!("/query?src={}&dst={dst}", roots[*src]),
            "",
        ),
        Request::Path { src, dst } => client::request(
            addr,
            "GET",
            &format!("/path?src={}&dst={dst}", roots[*src]),
            "",
        ),
        Request::Batch { srcs } => {
            let list: Vec<String> = srcs.iter().map(|&i| roots[i].to_string()).collect();
            client::request(
                addr,
                "POST",
                "/query",
                &format!("{{\"sources\":[{}]}}", list.join(",")),
            )
        }
    };
    result.map_err(|e| e.to_string())
}

/// A running `fastbfs serve`; stopped and reaped on drop.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server and asks it `first`; returns the server, the
    /// seconds from process start to that first answer, and the answer.
    fn start(
        fastbfs: &Path,
        graph: &Path,
        addr_file: &Path,
        placement: Option<&Placement>,
        first: &Request,
        roots: &[VertexId],
    ) -> Result<(Server, f64, Done), String> {
        let _ = std::fs::remove_file(addr_file);
        let t0 = Instant::now();
        let spawn = || {
            Command::new(fastbfs)
                .arg("serve")
                .arg("-i")
                .arg(graph)
                .args(["--metrics-addr", "127.0.0.1:0", "--sessions", "1"])
                .args(["--threads", &LANES.to_string()])
                .arg("--addr-file")
                .arg(addr_file)
                .stdout(Stdio::null())
                .spawn()
        };
        let child = match placement {
            Some(p) => p.start_server(spawn)?,
            None => spawn(),
        }
        .map_err(|e| format!("start {}: {e}", fastbfs.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            // The address is written once the listener is bound; a request
            // sent then waits in the backlog until the server answers. One
            // that could not connect (an address read while it was being
            // written) is sent again.
            if let Some(addr) = std::fs::read_to_string(addr_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                server.addr = addr;
                let sent = Instant::now();
                let reply = send(addr, first, roots);
                let done = Instant::now();
                if reply.is_ok() {
                    let answered = Done {
                        req: first.clone(),
                        due: sent,
                        from: sent,
                        sent,
                        done,
                        reply,
                    };
                    return Ok((server, (done - t0).as_secs_f64(), answered));
                }
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("fastbfs serve exited early: {status}"));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("fastbfs serve did not write its address".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Asks the server to quit and waits for it to exit.
    fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let _ = client::get_ok(self.addr, "/quitquitquit");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("fastbfs serve exited with {status}")),
                Ok(None) if t0.elapsed() < STOP_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("fastbfs serve did not stop on /quitquitquit".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Unlabelled `fastbfs_*` series of a `/metrics` page.
fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let page = client::get_ok(addr, "/metrics")?;
    Ok(page
        .lines()
        .filter(|l| l.starts_with("fastbfs_") && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect())
}

/// Growth of counter `fastbfs_<name>_total` between two scrapes.
fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, name: &str) -> f64 {
    let key = format!("fastbfs_{name}_total");
    after.get(&key).copied().unwrap_or(0.0) - before.get(&key).copied().unwrap_or(0.0)
}

/// Open loop: Poisson arrivals at `RATE_QPS` until `len` is spent, sent by
/// `CLIENT_THREADS` threads that each take the next due request.
fn open_loop(
    addr: SocketAddr,
    roots: &[VertexId],
    dsts: &[VertexId],
    len: Duration,
    rng: &mut SplitMix,
) -> Vec<Done> {
    let mut schedule = Vec::new();
    let mut at = rng.exp(1.0 / RATE_QPS);
    while at < len.as_secs_f64() {
        schedule.push((Duration::from_secs_f64(at), draw(rng, dsts)));
        at += rng.exp(1.0 / RATE_QPS);
    }
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENT_THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((offset, req)) = schedule.get(i) else {
                    return;
                };
                let due = start + *offset;
                let now = Instant::now();
                let idle = now < due;
                if idle {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let from = if idle { sent } else { due };
                let reply = send(addr, req, roots);
                let finished = Done {
                    req: req.clone(),
                    due,
                    from,
                    sent,
                    done: Instant::now(),
                    reply,
                };
                done.lock()
                    .expect("no sender panics holding the lock")
                    .push(finished);
            });
        }
    });
    done.into_inner()
        .expect("no sender panics holding the lock")
}

/// Closed loop: `CLIENT_THREADS` connections sending back to back until
/// `len` is spent. Returns the replies and the phase's start.
fn closed_loop(
    addr: SocketAddr,
    roots: &[VertexId],
    dsts: &[VertexId],
    len: Duration,
    seed: u64,
) -> (Vec<Done>, Instant) {
    let start = Instant::now();
    let done = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS as u64 {
            let done = &done;
            scope.spawn(move || {
                let mut rng = SplitMix::new(seed ^ (t + 1).wrapping_mul(0x9E37_79B9));
                let mut mine = Vec::new();
                while start.elapsed() < len {
                    let req = draw(&mut rng, dsts);
                    let sent = Instant::now();
                    let reply = send(addr, &req, roots);
                    mine.push(Done {
                        req,
                        due: sent,
                        from: sent,
                        sent,
                        done: Instant::now(),
                        reply,
                    });
                }
                done.lock()
                    .expect("no sender panics holding the lock")
                    .extend(mine);
            });
        }
    });
    (
        done.into_inner()
            .expect("no sender panics holding the lock"),
        start,
    )
}

/// Completion rate in each whole `SLICE` after `start`, per second: the
/// requests completed in the slice after its first, over the time from
/// its first completion to its last.
fn slice_rates(done: &[Done], start: Instant) -> Vec<f64> {
    let mut times: Vec<f64> = done
        .iter()
        .map(|d| (d.done - start).as_secs_f64())
        .collect();
    times.sort_by(f64::total_cmp);
    let slice = SLICE.as_secs_f64();
    let whole = times.last().map_or(0, |&t| (t / slice) as usize);
    let rates: Vec<f64> = (0..whole)
        .filter_map(|k| {
            let (lo, hi) = (k as f64 * slice, (k + 1) as f64 * slice);
            let first = times.partition_point(|&t| t < lo);
            let end = times.partition_point(|&t| t < hi);
            (end > first + 1).then(|| (end - first - 1) as f64 / (times[end - 1] - times[first]))
        })
        .collect();
    if rates.is_empty() {
        // No whole slice saw two completions: the rate over the phase.
        return vec![done.len() as f64 / start.elapsed().as_secs_f64()];
    }
    rates
}

fn field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("reply has no {key}"))
}

/// A depth or parent that is `null` when the vertex was not reached.
fn opt_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    v.get(key)
        .map(Value::as_u64)
        .ok_or_else(|| format!("reply has no {key}"))
}

/// A vertex id from a reply, if it names a vertex of `g`.
fn vertex(g: &CsrGraph, id: Option<u64>) -> Option<VertexId> {
    VertexId::try_from(id?)
        .ok()
        .filter(|&v| (v as usize) < g.num_vertices())
}

/// Checks one single-source reach row: source, depth, |V′|, |E′|, and the
/// `dst` block when one was asked for.
fn check_reach(
    g: &CsrGraph,
    v: &Value,
    src: VertexId,
    r: &Reference,
    dst: Option<VertexId>,
) -> Result<(), String> {
    let got = (
        field(v, "src")?,
        field(v, "depth")?,
        field(v, "visited_vertices")?,
        field(v, "traversed_edges")?,
    );
    let want = (u64::from(src), u64::from(r.max_depth), r.visited, r.edges);
    if got != want {
        return Err(format!(
            "src {src}: (src, depth, |V'|, |E'|) {got:?}, reference {want:?}"
        ));
    }
    let block = v.get("dst").ok_or("reply has no dst")?;
    let Some(dst) = dst else {
        return match block.get("vertex") {
            None => Ok(()),
            Some(_) => Err(format!("src {src}: dst block without a dst")),
        };
    };
    let depth = r.depths[dst as usize];
    let reached = depth != UNREACHED;
    if field(block, "vertex")? != u64::from(dst)
        || opt_field(block, "depth")? != reached.then_some(u64::from(depth))
    {
        return Err(format!("src {src} dst {dst}: wrong vertex or depth"));
    }
    let parent = opt_field(block, "parent")?;
    let parent_ok = match parent {
        None => !reached,
        Some(_) if !reached => false,
        Some(p) if dst == src => p == u64::from(src),
        Some(p) => vertex(g, Some(p))
            .is_some_and(|p| r.depths[p as usize].wrapping_add(1) == depth && has_edge(g, p, dst)),
    };
    if parent_ok {
        Ok(())
    } else {
        Err(format!(
            "src {src} dst {dst}: parent {parent:?} is not a tree edge one level up"
        ))
    }
}

fn check_reply(
    g: &CsrGraph,
    d: &Done,
    v: &Value,
    roots: &[VertexId],
    refs: &[Reference],
) -> Result<(), String> {
    match &d.req {
        Request::Reach { src } => check_reach(g, v, roots[*src], &refs[*src], None),
        Request::ReachDst { src, dst } => check_reach(g, v, roots[*src], &refs[*src], Some(*dst)),
        Request::Path { src, dst } => {
            let (s, t) = (roots[*src], *dst);
            let depth = refs[*src].depths[t as usize];
            let path: Vec<VertexId> = v
                .get("path")
                .and_then(Value::as_array)
                .ok_or("reply has no path")?
                .iter()
                .map(|x| vertex(g, x.as_u64()).ok_or("path holds a non-vertex"))
                .collect::<Result<_, _>>()?;
            let reached = v.get("reached").and_then(Value::as_bool) == Some(true);
            let ok = if depth == UNREACHED {
                !reached && path.is_empty()
            } else {
                reached
                    && path.len() == depth as usize + 1
                    && path.first() == Some(&s)
                    && path.last() == Some(&t)
                    && path.windows(2).all(|w| has_edge(g, w[0], w[1]))
            };
            if field(v, "src")? != u64::from(s) || field(v, "dst")? != u64::from(t) || !ok {
                return Err(format!(
                    "path {s} -> {t}: {path:?} is not a chain of {depth} edges"
                ));
            }
            Ok(())
        }
        Request::Batch { srcs } => {
            let rows = v
                .get("results")
                .and_then(Value::as_array)
                .ok_or("reply has no results")?;
            if rows.len() != srcs.len() {
                return Err(format!(
                    "batch of {} answered with {} rows",
                    srcs.len(),
                    rows.len()
                ));
            }
            rows.iter()
                .zip(srcs)
                .try_for_each(|(row, &i)| check_reach(g, row, roots[i], &refs[i], None))
        }
    }
}

/// Echoed server spans of a reply, in ns: (parse, queue, execute).
fn echoed(v: &Value) -> Option<(f64, f64, f64)> {
    let s = v.get("spans")?;
    let ns = |k: &str| s.get(k).and_then(Value::as_u64).map(|x| x as f64);
    Some((ns("parse_ns")?, ns("queue_ns")?, ns("execute_ns")?))
}

fn is_single_source(req: &Request) -> bool {
    matches!(req, Request::Reach { .. } | Request::ReachDst { .. })
}

pub fn run(s: &Settings, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let g = rmat(
        &RmatConfig::graph500(SCALE, EDGE_FACTOR),
        &mut rng_from_seed(s.seed),
    );
    let mut rng = SplitMix::new(s.seed ^ REQUEST_STREAM);
    let (roots, refs) = giant_component_roots(&g, ROOTS, &mut rng);
    let dsts = non_isolated(&g, ROOTS, &mut rng);
    let graph_path: PathBuf = s.work_dir.join(format!("serve-mix-seed{}.fbfs", s.seed));
    let addr_file = s.work_dir.join(format!("serve-mix-seed{}.addr", s.seed));
    write_graph(&g, &graph_path)?;

    // The server on one core, this process on the others (see placement).
    let placement = Placement::split();

    // Set-up runs from spawning the server to its first answered query
    // (loading the graph, building the session, and the query that grows
    // its buffers). It is repeated; the last server serves.
    let first = Request::Reach { src: 0 };
    let mut setups = Vec::new();
    let mut firsts = Vec::new();
    let setup_start = Instant::now();
    let mut server = loop {
        let span = spans.open("serve.start", Spans::ROOT);
        let (mut server, secs, answer) = Server::start(
            &s.fastbfs,
            &graph_path,
            &addr_file,
            placement.as_ref(),
            &first,
            &roots,
        )?;
        spans.close(span);
        setups.push(secs);
        firsts.push(answer);
        if setup_done(setups.len(), setup_start) {
            break server;
        }
        server.stop()?;
    };
    let addr = server.addr;
    out.provenance.push(format!(
        "server: one session, engine lanes {LANES}, {}; open loop {RATE_QPS}/s offered",
        placement
            .as_ref()
            .map_or("unplaced (fewer than two cpus)".into(), Placement::describe)
    ));

    let warm = warm_up(addr, &roots, &dsts, &mut rng);

    let (plain_open, traced_open, before_traced, mid, closed_len) = if s.trace {
        let open_len = s.window.mul_f64(OPEN_SHARE);
        let plain = open_loop(addr, &roots, &dsts, open_len / 2, &mut rng);
        let before = scrape(addr)?;
        let traced = open_loop(addr, &roots, &dsts, open_len / 2, &mut rng);
        let mid = scrape(addr)?;
        (plain, traced, before, mid, s.window - open_len)
    } else {
        (
            Vec::new(),
            Vec::new(),
            HashMap::new(),
            HashMap::new(),
            s.window,
        )
    };
    let (closed, closed_start) = closed_loop(addr, &roots, &dsts, closed_len, rng.next_u64());
    let after = scrape(addr)?;
    for (i, d) in traced_open.iter().chain(&closed).enumerate() {
        spans.record("client.request", d.sent, d.done, Some(i as u64));
    }
    let rss_peak_mib = proc_mib(&server.pid(), "VmHWM");
    server.stop()?;
    drop(placement);
    let _ = std::fs::remove_file(&graph_path);
    let _ = std::fs::remove_file(&addr_file);

    // Checks, after the phases.
    let span = spans.open("check", Spans::ROOT);
    let phases = [&plain_open, &traced_open, &closed];
    let check = |d: &Done, out: &mut Outcome| {
        out.attempted += 1;
        match (&d.reply, d.ok_body()) {
            (_, Some(v)) => {
                if let Err(e) = check_reply(&g, d, &v, &roots, &refs) {
                    out.wrong(e);
                }
            }
            (Ok(r), None) => {
                out.failed += 1;
                if r.status == 200 {
                    out.wrong("a 200 reply is not JSON".into());
                }
            }
            (Err(_), None) => out.failed += 1,
        }
    };
    for d in firsts
        .iter()
        .chain(&warm)
        .chain(phases.iter().flat_map(|p| p.iter()))
    {
        check(d, &mut out);
    }
    spans.close(span);

    if !s.trace {
        let single: Vec<&Done> = closed.iter().filter(|d| is_single_source(&d.req)).collect();
        let single_ms: Vec<f64> = single.iter().map(|d| d.latency_from_send_ms()).collect();

        let mteps: Vec<f64> = single
            .iter()
            .filter_map(|d| {
                Some(
                    field(&d.ok_body()?, "traversed_edges").ok()? as f64
                        / (d.latency_from_send_ms() * 1e3),
                )
            })
            .collect();
        out.set("setup_s", median(&setups));
        out.set("mteps", harmonic_mean(&mteps));
        out.set("query_p50_ms", median(&single_ms));
        out.set("serve.max_qps", median(&slice_rates(&closed, closed_start)));
        out.set("rss_peak_mib", rss_peak_mib);
        return Ok(out);
    }

    // Per-layer figures from the traced part: echoed spans of the traced
    // open-loop replies, /metrics deltas over the traced open-loop phase
    // (serving) and over both traced phases (engine), and in-process calls
    // into the graph and session layers on the same graph.
    let traced_spans: Vec<(f64, f64, f64)> = traced_open
        .iter()
        .filter_map(|d| echoed(&d.ok_body()?))
        .collect();
    let parse = mean(&traced_spans.iter().map(|x| x.0).collect::<Vec<_>>());
    let queue = mean(&traced_spans.iter().map(|x| x.1).collect::<Vec<_>>());
    let execute = mean(&traced_spans.iter().map(|x| x.2).collect::<Vec<_>>());
    let serialize = ratio(
        delta(&before_traced, &mid, "serve_serialize_ns"),
        delta(&before_traced, &mid, "serve_requests"),
    );
    let client_ms = mean(
        &traced_open
            .iter()
            .map(Done::latency_from_send_ms)
            .collect::<Vec<_>>(),
    );
    // The open loop's latency (its untraced half): a serving figure, not
    // an end-to-end one, as it moved by more than any bound between sets
    // of runs on a shared two-core host.
    let open_ms: Vec<f64> = plain_open.iter().map(Done::latency_ms).collect();
    out.set("serve.p50_ms", median(&open_ms));
    out.set("serve.tail_ms", tail(&open_ms));
    out.set("serve.parse_us", parse / 1e3);
    out.set("serve.queue_us", queue / 1e3);
    out.set("serve.execute_us", execute / 1e3);
    out.set("serve.serialize_us", serialize / 1e3);
    out.set(
        "serve.outside_us",
        client_ms * 1e3 - (parse + queue + execute + serialize) / 1e3,
    );
    out.set(
        "client.late_ms_p99",
        percentile(
            &traced_open.iter().map(Done::late_ms).collect::<Vec<_>>(),
            0.99,
        ),
    );
    let requests = delta(&mid, &after, "serve_requests");
    let waves = delta(&mid, &after, "serve_coalesced_waves") + requests
        - delta(&mid, &after, "serve_coalesced_requests");
    out.set("query.wave_size", ratio(requests, waves));

    let d = |name: &str| delta(&before_traced, &after, name);
    let queries = d("queries");
    let executed_ns: f64 = traced_open
        .iter()
        .chain(&closed)
        .filter_map(|x| echoed(&x.ok_body()?))
        .map(|x| x.2)
        .sum();
    out.set(
        "session.overhead_us",
        ratio(executed_ns - d("query_ns"), queries) / 1e3,
    );
    engine::engine_layers(&mut out, d);
    out.set("engine.steps_per_query", ratio(d("steps"), queries));
    out.set(
        "direction.bottom_up_steps_per_query",
        ratio(d("bottom_up_steps"), queries),
    );
    out.set(
        "direction.switches_per_query",
        ratio(d("direction_switches"), queries),
    );

    // The graph and session layers, called in-process on the same graph.
    let mut t = SetupTimes::default();
    drop(engine::relabel_and_migrate(&g, spans, Spans::ROOT, &mut t));
    out.set("graph.relabel_s", t.relabel);
    out.set("graph.hugepage_s", t.hugepage);
    let (mut build, mut first_query) = (Vec::new(), Vec::new());
    let build_start = Instant::now();
    while !setup_done(build.len(), build_start) {
        drop(engine::build_session(
            &g,
            Default::default(),
            LANES,
            roots[0],
            spans,
            Spans::ROOT,
            &mut t,
        ));
        build.push(t.build);
        first_query.push(t.first_query);
    }
    out.set("session.build_s", median(&build));
    out.set("session.first_query_s", median(&first_query));
    out.set("graph.csr_mib", engine::csr_mib(&g));
    let plain_ms = median(
        &plain_open
            .iter()
            .map(Done::latency_from_send_ms)
            .collect::<Vec<_>>(),
    );
    let traced_ms = median(
        &traced_open
            .iter()
            .map(Done::latency_from_send_ms)
            .collect::<Vec<_>>(),
    );
    out.set(
        "trace.overhead_pct",
        ratio(traced_ms - plain_ms, plain_ms) * 100.0,
    );
    Ok(out)
}

/// `WARMUP` requests from one connection, before anything is timed.
fn warm_up(
    addr: SocketAddr,
    roots: &[VertexId],
    dsts: &[VertexId],
    rng: &mut SplitMix,
) -> Vec<Done> {
    (0..WARMUP)
        .map(|_| {
            let req = draw(rng, dsts);
            let sent = Instant::now();
            let reply = send(addr, &req, roots);
            Done {
                req,
                due: sent,
                from: sent,
                sent,
                done: Instant::now(),
                reply,
            }
        })
        .collect()
}
