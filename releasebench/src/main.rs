//! `releasebench` — the end-to-end release benchmark.
//!
//! One process starts a `Server` behind a `NetFront` on loopback and drives
//! it with closed-loop `NetClient` connections (at most two: one per core
//! of the 2-core box the bounds were set on). Each run replays a request
//! list fixed by `--seed` and sized to about `--seconds` of load, checks
//! the outputs, and prints one JSON object as the last line of stdout:
//!
//! ```text
//! cargo run --release --offline --manifest-path releasebench/Cargo.toml -- \
//!     --workload search_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs an
//! untraced pass and then a traced one on the same server and reports the
//! per-layer metrics. `README.md` beside this crate explains each workload
//! and which layer metric should move which end-to-end metric.

mod check;
mod layers;
mod load;
mod stats;
mod sys;
mod workload;

use layers::Counters;
use load::Pass;
use pcor_net::{NetConfig, NetFront};
use pcor_service::{BudgetLedger, DatasetRegistry, DurableLedger, Server, ServerConfig, WalConfig};
use pcor_telemetry::SpanRecord;
use stats::{median, median_ms, ms, quantile, ratio};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{RequestList, Workload, DATASET, WORKERS};

/// Times the stack is set up per end-to-end run; `setup_s` is the median.
const SETUP_REPS: usize = 96;
/// Idle time between two set-ups, so they sample more than one of the
/// host's speed phases (each lasts about a second).
const SETUP_GAP: Duration = Duration::from_millis(40);
/// Every analyst's ε grant: far above what a run spends.
const GRANT: f64 = 1e9;
/// How often the traced pass drains the server's span ring (4096 spans).
const DRAIN_EVERY: Duration = Duration::from_millis(20);

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("releasebench: {message}");
            eprintln!(
                "usage: releasebench --workload <search_hot|durable_cheap|batch_stream> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("releasebench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The serving stack under test.
struct Stack {
    server: Arc<Server>,
    front: NetFront,
    wal_dir: Option<PathBuf>,
}

impl Stack {
    /// Registers the dataset, starts the server (opening a fresh WAL on
    /// durable workloads) and binds the front; returns how long that took.
    fn start(list: &RequestList, wal_dir: Option<PathBuf>) -> Result<(Stack, Duration), String> {
        let dataset = list.dataset.clone();
        let started = Instant::now();
        let registry = Arc::new(DatasetRegistry::new());
        registry.register(DATASET, dataset);
        let config = ServerConfig::default().with_workers(WORKERS);
        let server = match &wal_dir {
            Some(dir) => {
                let durable = DurableLedger::open(WalConfig::at(dir), BudgetLedger::new(GRANT))
                    .map_err(|err| format!("opening the WAL: {err}"))?;
                Server::start_durable(config, registry, Arc::new(durable))
            }
            None => Server::start(config, registry, Arc::new(BudgetLedger::new(GRANT))),
        };
        let server = Arc::new(server);
        let front = NetFront::bind(NetConfig::default().with_http_addr(None), Arc::clone(&server))
            .map_err(|err| format!("binding the front: {err}"))?;
        Ok((Stack { server, front, wal_dir }, started.elapsed()))
    }

    /// Stops the front, drains the server and checks its ledger against
    /// the audit log.
    fn stop(self) -> Result<(), String> {
        self.front.shutdown();
        self.server.shutdown();
        let checked = check::ledger_matches_audit(&self.server);
        drop(self.server);
        if let Some(dir) = self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        checked
    }
}

/// A measured pass with the spans it left and the counters it moved.
struct Measured {
    pass: Pass,
    spans: Vec<SpanRecord>,
    delta: Counters,
}

fn measure(stack: &Stack, list: &RequestList, quota: u64, traced: bool) -> Result<Measured, String> {
    let addr = stack.front.rpc_addr();
    let sink = stack.server.telemetry().sink();
    sink.drain();
    let before = Counters::read(&stack.server);
    let (pass, spans) = if traced {
        // The sink keeps only the last 4096 spans, so drain it while the
        // load runs.
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                let mut spans = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    spans.extend(sink.drain());
                    std::thread::sleep(DRAIN_EVERY);
                }
                spans.extend(sink.drain());
                spans
            });
            let pass = load::run(addr, list, quota, true);
            stop.store(true, Ordering::Release);
            (pass, drainer.join().expect("the span drainer does not panic"))
        })
    } else {
        (load::run(addr, list, quota, false), Vec::new())
    };
    let pass = pass.map_err(|err| format!("load: {err}"))?;
    let delta = Counters::read(&stack.server).since(before);
    Ok(Measured { pass, spans, delta })
}

/// Where runs keep digests and WAL directories: beside the executable,
/// inside the build directory.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|err| format!("locating the executable: {err}"))?;
    let dir = exe.parent().unwrap_or(Path::new(".")).join("releasebench-scratch");
    std::fs::create_dir_all(&dir).map_err(|err| format!("creating {}: {err}", dir.display()))?;
    Ok(dir)
}

/// Identifies this build, so digests are compared only between runs of
/// the same executable.
fn build_id() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let stamp = meta
        .as_ref()
        .ok()
        .and_then(|meta| meta.modified().ok())
        .and_then(|time| time.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |since| since.as_nanos() as u64);
    let len = meta.map_or(0, |meta| meta.len());
    format!("{:016x}", workload::mix(stamp ^ workload::mix(len)))
}

/// The figures of a pass that repeat exactly for one seed, after its checks.
struct Exact {
    utility_mean: f64,
    fmcalls_per_item: f64,
}

/// Checks a pass: no envelope failed, every release is valid, and the
/// digest equals that of earlier runs of this build with this seed.
fn check_pass(list: &RequestList, pass: &Pass, scratch: &Path, key: &str) -> Result<Exact, String> {
    let failed: Vec<&str> = pass.all().filter_map(|outcome| outcome.error.as_deref()).collect();
    if let Some(first) = failed.first() {
        return Err(format!("{} envelopes failed, first: {first}", failed.len()));
    }
    check::releases_are_valid(&list.dataset, pass)?;
    let digest = check::digest(pass);
    let repeated = check::repeats(scratch, key, digest)?;
    let (mut count, mut utility, mut calls) = (0usize, 0.0f64, 0usize);
    for released in check::released(pass) {
        count += 1;
        utility += released.utility;
        calls += released.calls;
    }
    println!(
        "released: {count} items, digest {digest:016x} ({})",
        if repeated { "equals the earlier run" } else { "first run of this seed" }
    );
    Ok(Exact {
        utility_mean: ratio(utility, count as f64),
        fmcalls_per_item: ratio(calls as f64, count as f64),
    })
}

/// Sets the stack up once per rep in `reps`, `SETUP_GAP` apart, stopping
/// each stack before the next one starts so two never run at once. Pushes
/// each set-up time to `times` and returns the last stack.
fn set_up(
    list: &RequestList,
    scratch: &Path,
    reps: Range<usize>,
    times: &mut Vec<f64>,
) -> Result<Stack, String> {
    let mut stack: Option<Stack> = None;
    for rep in reps {
        if let Some(previous) = stack.take() {
            previous.stop()?;
            std::thread::sleep(SETUP_GAP);
        }
        let wal_dir =
            list.spec.durable.then(|| scratch.join(format!("wal-{}-{rep}", std::process::id())));
        if let Some(dir) = &wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let (started, took) = Stack::start(list, wal_dir)?;
        times.push(took.as_secs_f64());
        stack = Some(started);
    }
    stack.ok_or_else(|| "no set-up to run".to_string())
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = args.workload.spec();
    let scratch = scratch_dir()?;
    let key = format!("{}-{}-s{}-t{}", build_id(), spec.workload.name(), args.seed, args.seconds);
    let speed_before = sys::host_speed_ms();

    // Request preparation (dataset, outlier pool): untimed, not set-up.
    let list = RequestList::prepare(spec, args.seed)?;
    let quota = spec.quota(args.seconds);

    // Half the set-ups run before the load and half after it, spaced out,
    // so their median spans the host's speed over the whole run.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::with_capacity(reps);
    let stack = set_up(&list, &scratch, 0..reps.div_ceil(2), &mut setup)?;
    load::warm(stack.front.rpc_addr(), &list.warmup()).map_err(|err| format!("warm-up: {err}"))?;

    let mut passes = vec![measure(&stack, &list, quota, false)?];
    if args.trace {
        passes.push(measure(&stack, &list, quota, true)?);
    }
    let mut failures = Vec::new();
    if let Err(message) = stack.stop() {
        failures.push(message);
    }
    if setup.len() < reps {
        set_up(&list, &scratch, setup.len()..reps, &mut setup)?.stop()?;
    }

    let mut exact = None;
    for measured in &passes {
        match check_pass(&list, &measured.pass, &scratch, &key) {
            Ok(checked) => exact = Some(checked),
            Err(message) => failures.push(message),
        }
    }
    let attempted: usize = passes.iter().map(|m| m.pass.all().count()).sum();
    let failed = passes.iter().flat_map(|m| m.pass.all()).filter(|o| o.error.is_some()).count();

    let last = passes.last().expect("at least one pass");
    let metrics = match &exact {
        None => Vec::new(),
        Some(exact) if args.trace => {
            let untraced_p50 = median_ms(passes[0].pass.all().map(|o| o.rtt));
            layers::per_layer(
                &last.pass,
                &last.spans,
                last.delta,
                untraced_p50,
                exact.fmcalls_per_item,
            )
        }
        Some(exact) => end_to_end(last, exact, &setup),
    };
    let speed_after = sys::host_speed_ms();

    println!(
        "releasebench {} seed {} seconds {} trace {}: {} envelopes ({quota} per connection), \
         {} items in {:.3} s",
        spec.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        last.pass.all().count(),
        last.pass.items(),
        last.pass.wall.as_secs_f64(),
    );
    println!("host speed: {speed_before:.1} ms before, {speed_after:.1} ms after (fixed loop)");
    for message in &failures {
        println!("check failed: {message}");
    }
    let correct = failures.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(measured: &Measured, exact: &Exact, setup: &[f64]) -> Vec<Metric> {
    let pass = &measured.pass;
    let items = pass.items() as f64;
    let rtts: Vec<f64> = pass.all().map(|o| ms(o.rtt)).collect();
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("throughput_items_per_s", items / pass.wall.as_secs_f64(), "1/s"),
        m("latency_p50_ms", median(rtts.clone()), "ms"),
        m("latency_p90_ms", quantile(rtts, 0.9), "ms"),
        m("first_item_p50_ms", median_ms(pass.all().map(|o| o.first_reply)), "ms"),
        m("utility_mean", exact.utility_mean, "records"),
        m("cpu_ms_per_item", ratio(ms(measured.delta.cpu), items), "ms"),
        m("setup_s", median(setup.to_vec()), "s"),
        m("peak_rss_mb", sys::usage().peak_rss as f64 / (1024.0 * 1024.0), "MB"),
    ]
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() { metric.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", metric.name, metric.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
