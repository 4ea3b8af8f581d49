//! In-process half of the benchmark (`perfbench/run.py` drives it).
//!
//! Every subcommand runs in a fresh process — `fibertree::telemetry`
//! counters are process-global, so one process per pass keeps the
//! pipeline-counter deltas clean — and prints one JSON object as its
//! last stdout line. Spans are taken here, around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//!
//! ```text
//! perfbench-harness graph   --seed S --scale N
//! perfbench-harness spec    --spec FILE --tensor A=FILE --tensor B=FILE
//! perfbench-harness explore --spec FILE... --tensor A=FILE --tensor B=FILE
//! perfbench-harness request --spec FILE --tensor A=FILE --tensor B=FILE
//! perfbench-harness load    --addr HOST:PORT [--seconds T --conns N --seed S]
//!                           [--warmup 1] [--pings N]
//!                           (--kind NAME --spec FILE --loop-order E=R1,R2|-)...
//! ```
//!
//! `graph` is the graph driver's traced pass (the driver has no CLI).
//! `spec`, `explore` and `request` are traced passes over one catalog
//! spec's stages, the mapper, and the request/hashing layers. `load` is the serve_warm
//! client: every wire interaction with a running `teaal serve` (warm-up,
//! pings, `health`, and the closed loop of eval requests).

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use teaal::accel::GraphDesign;
use teaal::core::TeaalSpec;
use teaal::fibertree::telemetry::{self, PipelineSnapshot};
use teaal::fibertree::{Tensor, TensorData};
use teaal::graph::{run_with_threads, Algorithm};
use teaal::request::{evaluate_request, RequestOverrides};
use teaal::sim::{
    estimate_data, explore_fast_with_context, CompiledPlan, EvalContext, ExploreConfig, OpTable,
    SimReport,
};
use teaal::wire::{self, Frame, FrameKind};
use teaal::workloads::{io as tio, Graph};

/// A JSON value, written by hand (the vendored serde is a no-op stub).
enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(_) => f.write_str("null"),
            J::Int(n) => write!(f, "{n}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", J::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

fn nums(values: &[f64]) -> J {
    J::Arr(values.iter().map(|&x| J::Num(x)).collect())
}

/// Command-line options: `--key value` pairs, keys may repeat.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut out = Vec::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            out.push((key.to_string(), value.clone()));
        }
        Ok(Args(out))
    }

    fn all(&self, key: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn one(&self, key: &str) -> Result<&str, String> {
        self.all(key)
            .first()
            .copied()
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.all(key).first() {
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
            None => Ok(default),
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median wall milliseconds of `reps` calls of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms_since(t)
        })
        .collect();
    median(&mut samples)
}

/// [`time_median`] of a fallible call: the first error aborts.
fn time_median_ok<R, E: fmt::Display>(
    reps: usize,
    mut f: impl FnMut() -> Result<R, E>,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f().map_err(|e| e.to_string())?);
        samples.push(ms_since(t));
    }
    Ok(median(&mut samples))
}

/// Peak resident set of this process (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Pipeline-counter deltas between two snapshots, as flat JSON fields
/// (`pipeline.<stage>.<counter>`, plus executed transforms and
/// decompressions).
fn pipeline_delta(before: &PipelineSnapshot, after: &PipelineSnapshot) -> J {
    let mut fields = Vec::new();
    for ((stage, b), (_, a)) in before.stages().iter().zip(after.stages().iter()) {
        fields.push((format!("{stage}.hits"), J::Int(a.hits - b.hits)));
        fields.push((format!("{stage}.misses"), J::Int(a.misses - b.misses)));
        // Resident bytes; they only shrink under eviction, which the
        // benchmark's unbounded contexts never do.
        fields.push((
            format!("{stage}.bytes"),
            J::Int(a.bytes.saturating_sub(b.bytes)),
        ));
        fields.push((
            format!("{stage}.evictions"),
            J::Int(a.evictions - b.evictions),
        ));
    }
    fields.push((
        "transform_execs".into(),
        J::Int(after.transform_execs - before.transform_execs),
    ));
    fields.push((
        "decompressions".into(),
        J::Int(after.decompressions - before.decompressions),
    ));
    J::Obj(fields)
}

/// Loads `--tensor NAME=FILE` inputs through the workloads layer's
/// reader (the same call `teaal run --tensor` makes), timing it.
fn load_tensors(args: &Args) -> Result<(Vec<Tensor>, f64), String> {
    let t = Instant::now();
    let mut tensors = Vec::new();
    for kv in args.all("tensor") {
        let (name, path) = kv
            .split_once('=')
            .ok_or_else(|| format!("--tensor needs NAME=FILE, got {kv:?}"))?;
        let f = File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
        tensors.push(tio::read_tensor(BufReader::new(f), name).map_err(|e| e.to_string())?);
    }
    Ok((tensors, ms_since(t)))
}

fn read_spec(path: &str) -> Result<(String, TeaalSpec), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec = TeaalSpec::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    Ok((source, spec))
}

fn last_einsum(spec: &TeaalSpec) -> Result<String, String> {
    teaal::core::ir::lower(spec)
        .map_err(|e| e.to_string())?
        .last()
        .map(|p| p.equation.name().to_string())
        .ok_or_else(|| "spec has no einsums".to_string())
}

/// The simulated statistics of one report that must repeat exactly.
fn sim_counts(report: &SimReport) -> Vec<(String, J)> {
    let muls: u64 = report.einsums.iter().map(|e| e.muls).sum();
    let z_nnz = report.final_output().map_or(0, TensorData::nnz) as u64;
    vec![
        ("cycles".into(), J::Num(report.cycles)),
        ("dram_bytes".into(), J::Int(report.dram_bytes())),
        ("muls".into(), J::Int(muls)),
        ("z_nnz".into(), J::Int(z_nnz)),
    ]
}

/// One catalog spec's stages, each timed from outside: parse (core),
/// compile (sim::compile), a cold `run_data` (transforms + execute) and
/// a second one on the same context (transforms served from the cache,
/// so execute only), and the second repeated at two threads.
fn cmd_spec(args: &Args) -> Result<J, String> {
    let start = Instant::now();
    let (tensors, gen_ms) = load_tensors(args)?;
    let data: Vec<TensorData> = tensors.into_iter().map(TensorData::Owned).collect();
    let refs: Vec<&TensorData> = data.iter().collect();
    let (source, spec) = read_spec(args.one("spec")?)?;

    let parse_ms = time_median_ok(21, || TeaalSpec::parse(&source))?;
    let compile_ms = time_median_ok(5, || CompiledPlan::compile(spec.clone()))?;

    let before = telemetry::pipeline_snapshot();
    let ctx = EvalContext::new();
    let parsed = ctx.parse(&source).map_err(|e| e.to_string())?;
    let sim = ctx
        .simulator(&parsed)
        .map_err(|e| e.to_string())?
        .with_threads(1);
    let t = Instant::now();
    let cold = sim.run_data(&refs).map_err(|e| e.to_string())?;
    let cold_ms = ms_since(t);
    let e2e_ms = ms_since(start);
    let rss_mb = peak_rss_mb();
    let cold_pipeline = pipeline_delta(&before, &telemetry::pipeline_snapshot());
    let text = cold.to_string();
    let counts = sim_counts(&cold);
    drop(cold);

    let t = Instant::now();
    let warm = sim.run_data(&refs).map_err(|e| e.to_string())?;
    let execute_ms = ms_since(t);
    let warm_same = warm.to_string() == text;
    drop(warm);

    let sim2 = ctx
        .simulator(&parsed)
        .map_err(|e| e.to_string())?
        .with_threads(2);
    let t = Instant::now();
    let two = sim2.run_data(&refs).map_err(|e| e.to_string())?;
    let threads2_ms = ms_since(t);
    let two_same = two.to_string() == text;
    drop(two);
    let after = telemetry::pipeline_snapshot();

    let mut fields = vec![
        ("gen_ms".into(), J::Num(gen_ms)),
        ("parse_ms".into(), J::Num(parse_ms)),
        ("compile_ms".into(), J::Num(compile_ms)),
        ("cold_ms".into(), J::Num(cold_ms)),
        ("e2e_ms".into(), J::Num(e2e_ms)),
        ("transform_ms".into(), J::Num(cold_ms - execute_ms)),
        ("execute_ms".into(), J::Num(execute_ms)),
        ("threads2_ratio".into(), J::Num(threads2_ms / execute_ms)),
        ("rss_mb".into(), J::Num(rss_mb)),
        ("cold_pipeline".into(), cold_pipeline),
        ("pipeline".into(), pipeline_delta(&before, &after)),
        ("report".into(), J::Str(text)),
        ("correct".into(), J::Bool(warm_same && two_same)),
    ];
    fields.extend(counts);
    Ok(J::Obj(fields))
}

/// The mapper on each spec's last einsum (`teaal explore --fast`'s
/// call), plus the per-candidate cost of its two phases measured
/// separately: one analytical estimate on a warm statistics cache, and
/// one engine run.
fn cmd_explore(args: &Args) -> Result<J, String> {
    let (tensors, _) = load_tensors(args)?;
    let data: Vec<TensorData> = tensors.iter().cloned().map(TensorData::Owned).collect();
    let refs: Vec<&TensorData> = data.iter().collect();
    let mut per_spec = Vec::new();
    let (mut estimate_ms, mut estimates) = (0.0, 0usize);
    let (mut verify_ms, mut verifies) = (0.0, 0usize);
    for path in args.all("spec") {
        let (_, spec) = read_spec(path)?;
        let einsum = last_einsum(&spec)?;
        let ctx = EvalContext::new();
        let config = ExploreConfig {
            threads: 1,
            ..ExploreConfig::default()
        };
        let out = explore_fast_with_context(
            &spec,
            &einsum,
            &tensors,
            OpTable::arithmetic(),
            &config,
            Some(&ctx),
        )
        .map_err(|e| e.to_string())?;

        let sim = ctx
            .simulator(&spec)
            .map_err(|e| e.to_string())?
            .with_threads(1);
        let stats = ctx.stats();
        let reps = 25;
        estimate_ms += time_median_ok(reps, || estimate_data(&sim, &refs, stats))? * reps as f64;
        estimates += reps;
        let bare = teaal::sim::Simulator::new(spec.clone())
            .map_err(|e| e.to_string())?
            .with_threads(1);
        let reps = 3;
        verify_ms += time_median_ok(reps, || bare.run_data(&refs))? * reps as f64;
        verifies += reps;

        per_spec.push((
            path.to_string(),
            J::Obj(vec![
                ("estimator_evals".into(), J::Int(out.estimator_evals as u64)),
                ("engine_evals".into(), J::Int(out.engine_evals as u64)),
            ]),
        ));
    }
    Ok(J::Obj(vec![
        ("specs".into(), J::Obj(per_spec)),
        (
            "estimate_us_per_candidate".into(),
            J::Num(estimate_ms * 1e3 / estimates as f64),
        ),
        (
            "verify_ms_per_candidate".into(),
            J::Num(verify_ms / verifies as f64),
        ),
    ]))
}

/// The request layer as the daemon drives it: input content hashing
/// (`TensorData::content_hash`, recomputed for every report-cache
/// lookup) and a warm `evaluate_request` hit.
fn cmd_request(args: &Args) -> Result<J, String> {
    let (tensors, gen_ms) = load_tensors(args)?;
    let data: Vec<TensorData> = tensors.into_iter().map(TensorData::Owned).collect();
    let refs: Vec<&TensorData> = data.iter().collect();
    let mut hash_ms = Vec::new();
    for d in &data {
        hash_ms.push((
            d.name().to_string(),
            J::Num(time_median(5, || d.content_hash())),
        ));
    }
    let (_, spec) = read_spec(args.one("spec")?)?;
    let ctx = EvalContext::new();
    let overrides = RequestOverrides::default();
    let eval = || {
        evaluate_request(
            &ctx,
            &spec,
            &overrides,
            OpTable::arithmetic(),
            &[],
            &refs,
            None,
        )
        .map_err(|f| f.message)
    };
    let first = eval()?;
    let before = telemetry::pipeline_snapshot();
    let mut same = true;
    let hit_ms = time_median(31, || {
        same &= eval().as_deref() == Ok(first.as_str());
    });
    Ok(J::Obj(vec![
        ("gen_ms".into(), J::Num(gen_ms)),
        ("content_hash_ms".into(), J::Obj(hash_ms)),
        ("hit_ms".into(), J::Num(hit_ms)),
        (
            "pipeline".into(),
            pipeline_delta(&before, &telemetry::pipeline_snapshot()),
        ),
        ("correct".into(), J::Bool(same)),
    ]))
}

/// One request kind of the serve_warm mix.
struct Kind {
    name: String,
    spec: String,
    loop_order: Option<String>,
}

impl Kind {
    fn frame(&self, id: String) -> Frame {
        let frame = Frame::new(FrameKind::Req)
            .field("op", "eval")
            .field("id", id)
            .field("spec", self.spec.as_str());
        match &self.loop_order {
            Some(order) => frame.field("loop_order", order.as_str()),
            None => frame,
        }
    }
}

/// One `teaal/1` client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and reads its reply (`Err` on transport or
    /// framing failure: the connection is then unusable).
    fn call(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.writer
            .write_all(&frame.encode())
            .map_err(|e| e.to_string())?;
        wire::read_frame(&mut self.reader, wire::DEFAULT_MAX_FRAME_BYTES)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "connection closed".to_string())
    }

    /// A non-eval op that must succeed (`ping`, `health`).
    fn op(&mut self, op: &str) -> Result<Frame, String> {
        let reply = self.call(&Frame::new(FrameKind::Req).field("op", op))?;
        match reply.kind {
            FrameKind::Ok => Ok(reply),
            _ => Err(format!("{op} failed: {:?}", reply.get("message"))),
        }
    }
}

fn health(addr: &str) -> Result<J, String> {
    let reply = Client::connect(addr)?.op("health")?;
    Ok(J::Obj(
        reply
            .fields
            .into_iter()
            .filter_map(|(k, v)| v.parse().ok().map(|n| (k, J::Int(n))))
            .collect(),
    ))
}

/// What one client connection observed.
#[derive(Default)]
struct ConnLog {
    /// (kind index, latency ms, completion s since start, ok)
    requests: Vec<(usize, f64, f64, bool)>,
    /// First report per kind, and whether every later one matched it.
    first: BTreeMap<usize, String>,
    consistent: bool,
    errors: Vec<String>,
}

/// A closed loop on one connection: the next request (a kind drawn from
/// a seeded stream) is sent only after the previous reply arrived.
fn client_loop(addr: &str, kinds: &[Kind], seed: u64, start: Instant, stop: Instant) -> ConnLog {
    let mut log = ConnLog {
        consistent: true,
        ..ConnLog::default()
    };
    let mut rng = SplitMix(seed);
    let mut conn: Option<Client> = None;
    let mut n = 0u64;
    while Instant::now() < stop {
        let client = match conn.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => conn.insert(c),
                Err(e) => {
                    log.errors.push(e);
                    return log;
                }
            },
        };
        let k = rng.below(kinds.len() as u64) as usize;
        let frame = kinds[k].frame(format!("{seed}-{n}"));
        n += 1;
        let t = Instant::now();
        let reply = client.call(&frame);
        let ms = ms_since(t);
        let done = start.elapsed().as_secs_f64();
        let ok = matches!(&reply, Ok(r) if r.kind == FrameKind::Ok);
        log.requests.push((k, ms, done, ok));
        match reply {
            Ok(resp) if ok => {
                let report = resp.get("report").unwrap_or("");
                let first = log.first.entry(k).or_insert_with(|| report.to_string());
                log.consistent &= first == report;
            }
            Ok(resp) => log.errors.push(format!(
                "{}: {}",
                kinds[k].name,
                resp.get("code").unwrap_or("?")
            )),
            Err(e) => {
                log.errors.push(format!("{}: {e}", kinds[k].name));
                conn = None;
            }
        }
    }
    log
}

/// The serve_warm client against a running `teaal serve`: optionally
/// warms every kind once (`--warmup 1`, timed) and measures `--pings`
/// ping round trips, then runs `--conns` closed loops for `--seconds`,
/// timing each request from send to the last byte of its reply, between
/// two `health` snapshots.
fn cmd_load(args: &Args) -> Result<J, String> {
    let addr = args.one("addr")?.to_string();
    let seconds: f64 = args.num("seconds", 0.0)?;
    let conns: u64 = args.num("conns", 2)?;
    let seed: u64 = args.num("seed", 1)?;
    let pings: usize = args.num("pings", 0)?;
    let warmup: u8 = args.num("warmup", 0)?;
    let (names, specs, orders) = (args.all("kind"), args.all("spec"), args.all("loop-order"));
    if names.len() != specs.len() || names.len() != orders.len() {
        return Err("need matching --kind/--spec/--loop-order triples".into());
    }
    if names.is_empty() && (seconds > 0.0 || warmup != 0) {
        return Err("--seconds and --warmup need at least one --kind".into());
    }
    let mut kinds = Vec::new();
    for ((name, spec), order) in names.iter().zip(&specs).zip(&orders) {
        kinds.push(Kind {
            name: name.to_string(),
            spec: std::fs::read_to_string(spec).map_err(|e| format!("reading {spec}: {e}"))?,
            loop_order: (*order != "-").then(|| order.to_string()),
        });
    }

    let mut fields = Vec::new();
    if warmup != 0 {
        let t = Instant::now();
        let mut client = Client::connect(&addr)?;
        for kind in &kinds {
            let reply = client.call(&kind.frame(format!("warm-{}", kind.name)))?;
            if reply.kind != FrameKind::Ok {
                return Err(format!(
                    "warm-up {} failed: {:?}",
                    kind.name,
                    reply.get("code")
                ));
            }
        }
        fields.push(("warmup_s".into(), J::Num(t.elapsed().as_secs_f64())));
    }
    if pings > 0 {
        let mut client = Client::connect(&addr)?;
        let mut rtt_ms = Vec::with_capacity(pings);
        for _ in 0..pings {
            let t = Instant::now();
            client.op("ping")?;
            rtt_ms.push(ms_since(t));
        }
        fields.push(("ping_rtt_us".into(), J::Num(median(&mut rtt_ms) * 1e3)));
    }

    let before = health(&addr)?;
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let logs: Vec<ConnLog> = if seconds > 0.0 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|i| {
                    let (addr, kinds) = (&addr, &kinds);
                    scope.spawn(move || client_loop(addr, kinds, seed ^ (i << 32), start, stop))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    } else {
        Vec::new()
    };
    let elapsed = start.elapsed().as_secs_f64();
    let after = health(&addr)?;

    let mut requests: Vec<(usize, f64, f64, bool)> = logs
        .iter()
        .flat_map(|l| l.requests.iter().copied())
        .collect();
    requests.sort_by(|a, b| a.2.total_cmp(&b.2));
    let mut reports: BTreeMap<String, String> = BTreeMap::new();
    let mut consistent = true;
    for log in &logs {
        consistent &= log.consistent;
        for (k, report) in &log.first {
            let prev = reports
                .entry(kinds[*k].name.clone())
                .or_insert_with(|| report.clone());
            consistent &= prev == report;
        }
    }
    let errors: Vec<J> = logs
        .iter()
        .flat_map(|l| l.errors.iter().take(5).map(|e| J::Str(e.clone())))
        .collect();
    let column =
        |f: fn(&(usize, f64, f64, bool)) -> f64| nums(&requests.iter().map(f).collect::<Vec<_>>());
    fields.extend([
        ("lat_ms".into(), column(|r| r.1)),
        ("done_s".into(), column(|r| r.2)),
        (
            "ok".into(),
            J::Arr(requests.iter().map(|r| J::Bool(r.3)).collect()),
        ),
        ("elapsed_s".into(), J::Num(elapsed)),
        ("health_before".into(), before),
        ("health_after".into(), after),
        (
            "reports".into(),
            J::Obj(reports.into_iter().map(|(k, v)| (k, J::Str(v))).collect()),
        ),
        ("errors".into(), J::Arr(errors)),
        ("correct".into(), J::Bool(consistent)),
    ]);
    Ok(J::Obj(fields))
}

/// SplitMix64: the benchmark's own generator, so graph inputs depend
/// only on the seed and never on the program's generators.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A power-law directed graph (skewed sources, uniform destinations,
/// integer weights in 1..=9, duplicate edges dropped), the recipe of the
/// Fig. 13 stand-ins.
fn build_graph(vertices: u64, edges: usize, seed: u64) -> Graph {
    let mut rng = SplitMix(seed ^ 0x5eed_6a17_0000_0000);
    let mut seen = BTreeSet::new();
    let mut entries = Vec::with_capacity(edges);
    for _ in 0..edges {
        let s = ((vertices as f64) * rng.unit().powf(1.8)) as u64 % vertices;
        let d = rng.below(vertices);
        let w = (1 + rng.below(9)) as f64;
        if seen.insert((d, s)) {
            entries.push((vec![d, s], w));
        }
    }
    let adjacency = Tensor::from_entries("G", &["D", "S"], &[vertices, vertices], entries)
        .expect("generated edges are in range");
    let edges = adjacency.nnz();
    Graph {
        adjacency,
        vertices,
        edges,
    }
}

/// Out-neighbour lists `(dst, weight)` by source.
fn out_edges(g: &Graph) -> Vec<Vec<(usize, u64)>> {
    let mut out = vec![Vec::new(); g.vertices as usize];
    for (p, w) in g.adjacency.entries() {
        out[p[1] as usize].push((p[0] as usize, w as u64));
    }
    out
}

/// Reference distances (hop counts when `weighted` is false), computed
/// by the benchmark itself with Dijkstra; unreached is `INFINITY`.
fn reference_distances(out: &[Vec<(usize, u64)>], root: usize, weighted: bool) -> Vec<f64> {
    let mut dist = vec![u64::MAX; out.len()];
    let mut heap = BinaryHeap::new();
    dist[root] = 0;
    heap.push(std::cmp::Reverse((0u64, root)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        for &(u, w) in &out[v] {
            let nd = d + if weighted { w } else { 1 };
            if nd < dist[u] {
                dist[u] = nd;
                heap.push(std::cmp::Reverse((nd, u)));
            }
        }
    }
    dist.into_iter()
        .map(|d| {
            if d == u64::MAX {
                f64::INFINITY
            } else {
                d as f64
            }
        })
        .collect()
}

/// The graph driver's pass: BFS and SSSP on each design through
/// `teaal_graph::run_with_threads` at one thread, once each, with
/// distances checked against the benchmark's own references.
fn cmd_graph(args: &Args) -> Result<J, String> {
    let seed: u64 = args.num("seed", 1)?;
    let scale: u64 = args.num("scale", 24)?;
    // Self-check hook: a nonzero offset shifts the expected root distance,
    // which must make the distance check fail.
    let offset: f64 = args.num("expect-offset", 0.0)?;
    // The `fl` stand-in: 820k vertices / scale, average out-degree 4.
    let vertices = (820_000 / scale.max(1)).max(256);
    let graph = build_graph(vertices, (vertices * 4) as usize, seed);
    let out = out_edges(&graph);
    let root = (0..out.len())
        .max_by_key(|&v| (out[v].len(), std::cmp::Reverse(v)))
        .unwrap_or(0);
    let designs = [
        GraphDesign::Graphicionado,
        GraphDesign::GraphDynS,
        GraphDesign::Proposal,
    ];

    let mut op_ms = Vec::new();
    let mut supersteps = Vec::new();
    let mut apply_ops = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut mismatch: Option<String> = None;
    for algo in [Algorithm::Bfs, Algorithm::Sssp] {
        let mut want = reference_distances(&out, root, algo.weighted());
        want[root] += offset;
        for design in designs {
            let key = format!("{}.{}", design_key(design), algo_key(algo));
            attempted += 1;
            let t = Instant::now();
            let run = run_with_threads(design, algo, &graph, root as u64, 1);
            let ms = ms_since(t);
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    failed += 1;
                    mismatch.get_or_insert(format!("{key}: {e}"));
                    continue;
                }
            };
            if run.distances != want {
                mismatch.get_or_insert(format!("{key}: distances differ from reference"));
            }
            let iters = run.metrics.iterations;
            op_ms.push((key.clone(), J::Num(ms)));
            supersteps.push((key.clone(), J::Int(iters.len() as u64)));
            apply_ops.push((key, J::Int(iters.iter().map(|s| s.apply_ops).sum())));
        }
    }
    Ok(J::Obj(vec![
        ("op_ms".into(), J::Obj(op_ms)),
        ("supersteps".into(), J::Obj(supersteps)),
        ("apply_ops".into(), J::Obj(apply_ops)),
        ("attempted".into(), J::Int(attempted)),
        ("failed".into(), J::Int(failed)),
        ("correct".into(), J::Bool(mismatch.is_none())),
        ("mismatch".into(), J::Str(mismatch.unwrap_or_default())),
    ]))
}

fn design_key(d: GraphDesign) -> &'static str {
    match d {
        GraphDesign::Graphicionado => "graphicionado",
        GraphDesign::GraphDynS => "graphdyns",
        GraphDesign::Proposal => "proposal",
    }
}

fn algo_key(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Bfs => "bfs",
        Algorithm::Sssp => "sssp",
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().collect();
    let Some(command) = raw.get(1) else {
        eprintln!("usage: perfbench-harness <graph|spec|explore|request|load> [--key value]...");
        return ExitCode::from(2);
    };
    let result = Args::parse(&raw[2..]).and_then(|args| match command.as_str() {
        "graph" => cmd_graph(&args),
        "spec" => cmd_spec(&args),
        "explore" => cmd_explore(&args),
        "request" => cmd_request(&args),
        "load" => cmd_load(&args),
        other => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}
