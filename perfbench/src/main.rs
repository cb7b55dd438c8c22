//! Carpool benchmark: four workloads, end-to-end metrics, and a traced
//! per-layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <phy-office|carpool-downlink|mac-library|mac-dense> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed` in set-up, then runs
//! a closed loop (one op after another, from one process) for
//! `--seconds`, checking every output. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` replays the same ops with spans around each call
//! into a layer and prints the per-layer metrics. The last line of
//! standard output is one JSON object. See `perfbench/README.md`.

mod downlink;
mod mac;
mod phy_office;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use stats::Work;
use trace::{Layer, Tracer};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// End-to-end metrics, printed with `--trace 0` by every workload.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("deliver_p50_ms", "ms"),
    ("deliver_p99_ms", "ms"),
    ("sim_s_per_s", "s/s"),
    ("events_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1` by every workload; a
/// layer a workload leaves idle (or cannot reach from outside) reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("channel.build_us", "us"),
    ("channel.transmit_us", "us"),
    ("txcache.hit_ratio", "ratio"),
    ("phy.tx.encode_us", "us"),
    ("phy.rx.sync_us", "us"),
    ("phy.rx.decode_us", "us"),
    ("phy.rx.allocs_per_frame", "count"),
    ("phy.rx.sym_crc_ok_ratio", "ratio"),
    ("bench.tally_us", "us"),
    ("frame.build_us", "us"),
    ("frame.rx_addressed_us", "us"),
    ("frame.rx_bystander_us", "us"),
    ("bloom.fp_ratio", "ratio"),
    ("frame.skip_ratio", "ratio"),
    ("frame.allocs_per_rx", "count"),
    ("par.pool_speedup", "x"),
    ("obs.trace_overhead_frac", "ratio"),
    ("mac.setup_us", "us"),
    ("mac.run_ms", "ms"),
    ("mac.error_model_calls", "count"),
    ("mac.error_model_us", "us"),
    ("mac.engine_self_ms", "ms"),
    ("mac.collision_ratio", "ratio"),
    ("mac.delivery_ratio", "ratio"),
    ("mac.mean_aggregation", "count"),
    ("mac.events_per_sim_s", "1/s"),
    ("mac.allocs_per_run", "count"),
    ("par.shard_speedup", "x"),
    ("layer_coverage", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Set-up repetitions per run; `setup_s` is their median. The first
/// set-up of a run is cold (fresh heap, cold caches); with 21 of them it
/// cannot move the median, and a single set-up of 10 to 150 ms is too
/// short to average out host noise on its own.
const SETUP_REPS: usize = 21;

/// Throughput blocks per run: rates are medians over blocks of about
/// `seconds / BLOCKS` of measured host time.
const BLOCKS: f64 = 16.0;

/// The tail percentile is taken in about `TAIL_WINDOWS` runs of
/// consecutive ops, each at least `MIN_TAIL_WINDOW` long, and is the
/// median over them (see [`stats::windowed_percentile`]). With one
/// whole-run p99 over the ~1300 calls of `phy-office`, a few seconds of
/// host interference set the result.
const TAIL_WINDOWS: usize = 8;
const MIN_TAIL_WINDOW: usize = 200;

/// The traced run fails if the layers explain less than this share of
/// the replayed op time.
const MIN_COVERAGE: f64 = 0.95;

/// Default-seed digests of every workload's prefix outputs.
const RECORDED_DIGESTS: &str = include_str!("../digests.json");
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: carpool-perfbench --workload <phy-office|carpool-downlink|mac-library|mac-dense> --seed <n> --seconds <s> --trace <0|1>";

/// Output checks: every op is one attempt, failed if any of its checks
/// fails, returns `Err`, or panics.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Host time of the three ways the traced run executes each op.
#[derive(Debug, Default)]
pub struct Ledger {
    /// The end-to-end call, pooled and untraced.
    pub pooled_s: f64,
    /// The serial replay with tracing off.
    pub serial_s: f64,
    /// The serial replay with spans and allocation counting on.
    pub traced_s: f64,
}

impl Ledger {
    /// Times `call`, adding to `pooled_s`.
    pub fn pooled<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = call();
        self.pooled_s += t.elapsed().as_secs_f64();
        out
    }

    /// Runs `replay` twice on the same inputs: untraced (slot 0), then
    /// traced with allocation counting (slot 1). Returns both outputs.
    pub fn replays<R>(
        &mut self,
        tr: &mut Tracer,
        mut replay: impl FnMut(&mut Tracer, usize) -> R,
    ) -> [R; 2] {
        let mut quiet = Tracer::new(false);
        let t = Instant::now();
        let untraced = replay(&mut quiet, 0);
        self.serial_s += t.elapsed().as_secs_f64();
        trace::count_allocations(true);
        let t = Instant::now();
        let traced = replay(tr, 1);
        self.traced_s += t.elapsed().as_secs_f64();
        trace::count_allocations(false);
        [untraced, traced]
    }
}

/// Per-layer values a workload measured, by metric name.
pub type LayerValues = Vec<(&'static str, f64)>;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Generates the inputs from `seed`, builds links or models, and
    /// makes one untimed warm pass.
    fn setup(seed: u64) -> Self;

    /// Digest of the outputs of a fixed prefix of the workload, run at
    /// the current pool width from fresh state.
    fn prefix_digest(seed: u64) -> String;

    /// One closed-loop round of ops with tracing off. Pushes the host
    /// latency (seconds) of each measured call and checks every output.
    fn round(&mut self, latencies: &mut Vec<f64>, checks: &mut Checks) -> Work;

    /// Checks over the whole run.
    fn finish(&mut self, _checks: &mut Checks) {}

    /// One traced round: each op runs as the end-to-end call, then as
    /// an untraced and a traced serial replay of the same calls.
    fn traced_round(&mut self, tr: &mut Tracer, ledger: &mut Ledger, checks: &mut Checks);

    /// The per-layer metrics this workload measures.
    fn layer_values(&self, layers: &BTreeMap<&'static str, Layer>, ledger: &Ledger) -> LayerValues;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad(&"expected 0 < seconds <= 3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Result of one benchmark run.
struct Outcome {
    checks: Checks,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// Worker threads of the `carpool-par` pool: every core, at most two, so
/// the load is the same on any host with two or more cores.
fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The digest recorded in `digests.json` for `workload` at the default seed.
fn recorded_digest(workload: &str) -> Option<&'static str> {
    let key = format!("\"{workload}\": \"");
    let start = RECORDED_DIGESTS.find(&key)? + key.len();
    RECORDED_DIGESTS[start..].split('"').next()
}

/// Compares a default-seed digest with the one recorded in `digests.json`.
/// A change to the simulated outputs fails here until the recorded digest
/// is updated with it.
fn compare_recorded(workload: &str, digest: &str) -> Result<(), String> {
    match recorded_digest(workload) {
        Some(d) if d == digest => Ok(()),
        Some(d) => Err(format!(
            "digest {digest} differs from the recorded default-seed digest {d}"
        )),
        None => Err(format!("no recorded default-seed digest for {workload}")),
    }
}

/// Runs the prefix at one thread and at the pool width; a mismatch is a
/// failed check, and so is, at the default seed, a mismatch with the
/// recorded digest. Prints the digest.
fn check_determinism<W: Workload>(args: &Args, width: usize, checks: &mut Checks) {
    carpool_par::set_thread_override(Some(1));
    let serial = W::prefix_digest(args.seed);
    carpool_par::set_thread_override(Some(width));
    let pooled = W::prefix_digest(args.seed);
    checks.check(serial == pooled, || {
        format!("prefix digest differs: 1 thread {serial}, {width} threads {pooled}")
    });
    if args.seed == DEFAULT_SEED {
        let recorded = compare_recorded(&args.workload, &pooled);
        checks.check(recorded.is_ok(), || recorded.err().unwrap_or_default());
    }
    println!("digest {} seed {}: {pooled}", args.workload, args.seed);
}

/// Sets the workload up once and times it. Set-up runs at one thread,
/// then the pool goes back to `width`: the pool keeps no state between
/// calls, so a pooled warm pass would fill nothing more, and the start-up
/// of its workers on a busy host was most of the set-up time's noise.
fn timed_setup<W: Workload>(seed: u64, width: usize) -> (W, f64) {
    carpool_par::set_thread_override(Some(1));
    let t = Instant::now();
    let workload = W::setup(seed);
    let took = t.elapsed().as_secs_f64();
    carpool_par::set_thread_override(Some(width));
    (workload, took)
}

fn end_to_end<W: Workload>(args: &Args, width: usize) -> Outcome {
    let mut checks = Checks::default();
    let (mut w, first) = timed_setup::<W>(args.seed, width);
    let mut setup_times = vec![first];
    check_determinism::<W>(args, width, &mut checks);

    // The other set-ups are spread over the run, so that `setup_s` samples
    // the host over the same span as the rates do. Their time does not
    // count against `--seconds`.
    let again = |times: &mut Vec<f64>| times.push(timed_setup::<W>(args.seed, width).1);
    let due = |n: usize| args.seconds * n as f64 / SETUP_REPS as f64;
    let mut rounds = Vec::new();
    let mut latencies = Vec::new();
    let start = Instant::now();
    let measured = |times: &[f64]| start.elapsed().as_secs_f64() - times[1..].iter().sum::<f64>();
    let mut attempts = 0;
    while attempts == 0 || measured(&setup_times) < args.seconds {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| w.round(&mut latencies, &mut checks))) {
            Ok(work) => rounds.push(work),
            Err(_) => checks.check(false, || "a round panicked".to_string()),
        }
        while setup_times.len() < SETUP_REPS && measured(&setup_times) >= due(setup_times.len()) {
            again(&mut setup_times);
        }
    }
    while setup_times.len() < SETUP_REPS {
        again(&mut setup_times);
    }
    w.finish(&mut checks);

    let blocks = stats::blocks(&rounds, args.seconds / BLOCKS);
    let window = (latencies.len() / TAIL_WINDOWS).max(MIN_TAIL_WINDOW);
    let p99 = stats::windowed_percentile(&latencies, 99.0, window);
    println!(
        "{} ops in {} rounds, {} throughput blocks; p99 over {} window(s) of {window} ops, {} samples beyond it",
        latencies.len(),
        rounds.len(),
        blocks.len(),
        (latencies.len() / window).max(1),
        stats::count_above(&latencies, p99)
    );
    let values = [
        stats::median(&setup_times),
        stats::median_rate(&blocks, |b| b.frames),
        stats::median(&latencies) * 1e3,
        p99 * 1e3,
        stats::median_rate(&blocks, |b| b.sim_s),
        stats::median_rate(&blocks, |b| b.events),
        1.0 - stats::ratio(checks.failed as f64, checks.attempted as f64),
        peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    Outcome { checks, metrics }
}

fn traced<W: Workload>(args: &Args, width: usize) -> Outcome {
    let mut checks = Checks::default();
    let (mut w, _) = timed_setup::<W>(args.seed, width);
    check_determinism::<W>(args, width, &mut checks);

    let mut tr = Tracer::new(true);
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let mut attempts = 0;
    while attempts == 0 || start.elapsed().as_secs_f64() < args.seconds {
        attempts += 1;
        let round = catch_unwind(AssertUnwindSafe(|| {
            w.traced_round(&mut tr, &mut ledger, &mut checks)
        }));
        if round.is_err() {
            trace::count_allocations(false);
            checks.check(false, || "a traced round panicked".to_string());
        }
    }
    let layers = trace::layers(tr.spans());
    let coverage = trace::layer_coverage(tr.spans());
    checks.check(coverage >= MIN_COVERAGE, || {
        format!("layer_coverage {coverage:.4} below {MIN_COVERAGE}")
    });
    write_spans(&tr, args);

    let mut values: BTreeMap<&str, f64> = w.layer_values(&layers, &ledger).into_iter().collect();
    values.insert("layer_coverage", coverage);
    values.insert(
        "trace_overhead_frac",
        stats::ratio(ledger.traced_s, ledger.serial_s) - 1.0,
    );
    for (name, layer) in &layers {
        println!(
            "layer {name:<22} self {:>10.3} ms  spans {:>7}  allocs {:>8}",
            layer.self_ns as f64 / 1e6,
            layer.count,
            layer.allocs
        );
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Outcome { checks, metrics }
}

/// Writes the spans next to the benchmark binary (inside the build
/// directory), one file per workload and seed.
fn write_spans(tr: &Tracer, args: &Args) {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-spans")));
    let Some(dir) = dir else { return };
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| tr.write_tsv(&path)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn run<W: Workload>(args: &Args, width: usize) -> Outcome {
    if args.trace {
        traced::<W>(args, width)
    } else {
        end_to_end::<W>(args, width)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let width = pool_width();
    carpool_par::set_thread_override(Some(width));
    println!(
        "workload {} seed {}, pool width {width}",
        args.workload, args.seed
    );
    let outcome = match args.workload.as_str() {
        "phy-office" => run::<phy_office::PhyOffice>(&args, width),
        "carpool-downlink" => run::<downlink::Downlink>(&args, width),
        "mac-library" => run::<mac::Library>(&args, width),
        "mac-dense" => run::<mac::Dense>(&args, width),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", outcome.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// Names listed under `key` in BENCHMARK.json, in order.
    fn listed(key: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .expect("key present");
        let section = &BENCHMARK_JSON[start..];
        let end = section.find(']').expect("list closes");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap_or("").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_printed_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed("per_layer"), layers);
        assert_eq!(
            listed("workloads"),
            ["phy-office", "carpool-downlink", "mac-library", "mac-dense"]
        );
    }

    #[test]
    fn recorded_digests_cover_every_workload() {
        for w in listed("workloads") {
            let d = recorded_digest(&w).expect("digest recorded");
            assert_eq!(d.len(), 16, "{w}");
            assert_eq!(compare_recorded(&w, d), Ok(()));
            assert!(compare_recorded(&w, "0000000000000000").is_err());
        }
        assert!(compare_recorded("no-such-workload", "0000000000000000").is_err());
    }

    #[test]
    fn a_changed_default_seed_digest_fails_the_run() {
        let args = Args {
            workload: "phy-office".to_string(),
            seed: DEFAULT_SEED,
            seconds: 1.0,
            trace: false,
        };
        let mut checks = Checks::default();
        check_determinism::<Fixed>(&args, 2, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        // Away from the default seed only the thread-count comparison runs.
        let mut checks = Checks::default();
        check_determinism::<Fixed>(&Args { seed: 7, ..args }, 2, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
    }

    /// A workload whose prefix digest never matches a recorded one.
    struct Fixed;

    impl Workload for Fixed {
        fn setup(_seed: u64) -> Self {
            Fixed
        }
        fn prefix_digest(_seed: u64) -> String {
            "not-a-recorded-digest".to_string()
        }
        fn round(&mut self, _: &mut Vec<f64>, _: &mut Checks) -> Work {
            Work::default()
        }
        fn traced_round(&mut self, _: &mut Tracer, _: &mut Ledger, _: &mut Checks) {}
        fn layer_values(&self, _: &BTreeMap<&'static str, Layer>, _: &Ledger) -> LayerValues {
            Vec::new()
        }
    }

    #[test]
    fn args_reject_bad_input() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload mac-dense --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse("--workload x --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload x --seed -1 --seconds 10").is_err());
        assert!(parse("--workload x --seed 1 --seconds 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 10 --bogus 1").is_err());
        assert!(parse("--seed 1 --seconds 10").is_err());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let out = Outcome {
            checks: Checks {
                attempted: 3,
                failed: 0,
            },
            metrics: vec![("setup_s", 0.25, "s"), ("x", f64::NAN, "ms")],
        };
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
