//! The two MAC workloads.
//!
//! `mac-library` is the Fig. 15/16-shaped serial sweep of `run_mac`
//! (calibrated `BerBiasModel`): all five sweep protocols at 10, 20 and
//! 30 stations, with VoIP and with VoIP plus background uplink, 8 s
//! simulated per run. `mac-dense` is `run_dense` over 64 APs with 64
//! stations each for 2 s at OBSS coupling 0.25 and default shards: the
//! only workload that drives `carpool-par::run_sharded`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use carpool_bench::{run_mac, voip_config, SWEEP_PROTOCOLS};
use carpool_mac::error_model::{BerBiasModel, EstimationScheme, FrameErrorModel};
use carpool_mac::sim::{SimConfig, Simulator, UplinkTraffic};
use carpool_mac::{run_dense, ChannelStats, DenseConfig, DenseReport, FlowMetrics, SimReport};
use carpool_obs::Obs;
use carpool_phy::mcs::Mcs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{ratio, Digest, Work};
use crate::trace::{Layer, Tracer, OP};
use crate::{Checks, LayerValues, Ledger, Workload};

const LIBRARY_STAS: [usize; 3] = [10, 20, 30];
const DENSE_APS: usize = 64;
const DENSE_STAS: usize = 64;
const DENSE_DURATION_S: f64 = 2.0;
/// Simulated seconds of the dense warm pass and determinism prefix.
const DENSE_PREFIX_S: f64 = 0.25;

/// During a talkspurt a VoIP source sends one 120 B frame every 10 ms
/// (`carpool_traffic::voip`), so one flow offers at most
/// `duration / 10 ms` frames plus one per talkspurt. Talkspurts average
/// 5 s, so allowing 16 of them bounds any run of at most a few seconds.
fn voip_offered_bound(flows: usize, duration_s: f64) -> u64 {
    flows as u64 * ((duration_s / 0.01).ceil() as u64 + 16)
}

fn flow_ok(f: &FlowMetrics, duration_s: f64, offered_bound: Option<u64>) -> bool {
    let fits = offered_bound.is_none_or(|b| f.delivered_frames + f.dropped_frames <= b);
    let goodput = f.goodput_bps(duration_s);
    fits && goodput.is_finite()
        && goodput >= 0.0
        && f.total_delay.is_finite()
        && f.total_delay >= 0.0
        && f.max_delay >= 0.0
}

/// Counter invariants of one simulated cell: collisions never exceed
/// transmissions, a flow never delivers or drops more frames than it was
/// offered, and goodput and delays are non-negative.
fn report_ok(r: &SimReport, cfg: &SimConfig) -> bool {
    let bound = voip_offered_bound(cfg.num_stas, cfg.duration_s);
    // Background uplink traffic has no hard frame bound.
    let uplink_bound = cfg.uplink.is_none().then_some(bound);
    r.channel.collisions <= r.channel.transmissions
        && flow_ok(&r.downlink, r.duration_s, Some(bound))
        && flow_ok(&r.uplink, r.duration_s, uplink_bound)
}

fn dense_ok(r: &DenseReport, cfg: &DenseConfig) -> bool {
    r.per_domain.len() == cfg.domains
        && r.per_domain.iter().all(|d| report_ok(d, &cfg.cell))
        && r.channel.collisions <= r.channel.transmissions
        && r.events > 0
}

fn delivered(dl: &FlowMetrics, ul: &FlowMetrics) -> f64 {
    (dl.delivered_frames + ul.delivered_frames) as f64
}

/// Error model decorator that counts and times every call.
#[derive(Default)]
struct ModelCounters {
    calls: AtomicU64,
    nanos: AtomicU64,
}

struct TimedModel {
    inner: BerBiasModel,
    counters: Arc<ModelCounters>,
}

impl TimedModel {
    fn timed(&self, f: impl FnOnce() -> f64) -> f64 {
        let t = Instant::now();
        let p = f();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // ordering: statistics; they publish no other data
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.nanos.fetch_add(ns, Ordering::Relaxed);
        p
    }
}

impl FrameErrorModel for TimedModel {
    fn subframe_success_prob(
        &self,
        scheme: EstimationScheme,
        mcs: Mcs,
        start: usize,
        n: usize,
    ) -> f64 {
        self.timed(|| self.inner.subframe_success_prob(scheme, mcs, start, n))
    }

    fn subframe_success_prob_for(
        &self,
        sta: usize,
        scheme: EstimationScheme,
        mcs: Mcs,
        start: usize,
        n: usize,
    ) -> f64 {
        self.timed(|| {
            self.inner
                .subframe_success_prob_for(sta, scheme, mcs, start, n)
        })
    }
}

/// Error model of the replay in `slot`: plain in the untraced replay
/// (as the end-to-end call builds it), counted and timed in the traced one.
fn model(slot: usize, counters: &Arc<ModelCounters>) -> Box<dyn FrameErrorModel> {
    if slot == 1 {
        Box::new(TimedModel {
            inner: BerBiasModel::calibrated(),
            counters: Arc::clone(counters),
        })
    } else {
        Box::new(BerBiasModel::calibrated())
    }
}

/// What the traced MAC replays add up.
#[derive(Default)]
struct MacTally {
    runs: u64,
    channel: ChannelStats,
    downlink: FlowMetrics,
    uplink: FlowMetrics,
    events: u64,
    sim_s: f64,
    counters: Arc<ModelCounters>,
}

impl MacTally {
    fn add(&mut self, channel: &ChannelStats, dl: &FlowMetrics, ul: &FlowMetrics, sim_s: f64) {
        self.runs += 1;
        self.channel.merge(channel);
        self.downlink.merge(dl);
        self.uplink.merge(ul);
        self.sim_s += sim_s;
    }

    fn values(&self, layers: &BTreeMap<&'static str, Layer>) -> LayerValues {
        let runs = self.runs as f64;
        let run = layers.get("mac.run").copied().unwrap_or_default();
        // ordering: read after the replays have returned
        let em_ns = self.counters.nanos.load(Ordering::Relaxed) as f64;
        let em_calls = self.counters.calls.load(Ordering::Relaxed) as f64;
        let ends = self.downlink.delivered_frames
            + self.downlink.dropped_frames
            + self.uplink.delivered_frames
            + self.uplink.dropped_frames;
        vec![
            ("mac.run_ms", ratio(run.self_ns as f64 / 1e6, runs)),
            ("mac.error_model_calls", ratio(em_calls, runs)),
            ("mac.error_model_us", ratio(em_ns / 1e3, runs)),
            (
                "mac.engine_self_ms",
                ratio((run.self_ns as f64 - em_ns) / 1e6, runs),
            ),
            ("mac.collision_ratio", self.channel.collision_ratio()),
            (
                "mac.delivery_ratio",
                ratio(delivered(&self.downlink, &self.uplink), ends as f64),
            ),
            ("mac.mean_aggregation", self.channel.mean_aggregation()),
            ("mac.allocs_per_run", ratio(run.allocs as f64, runs)),
        ]
    }
}

// ---------------------------------------------------------------- library

/// The `mac-library` sweep: 30 runs, each with its own seed drawn from
/// the workload seed. Every round replays the same sweep, so rounds
/// differ only by host noise and a run's figures average over 30
/// traffic draws.
pub fn sweep(seed: u64) -> Vec<SimConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(2 * LIBRARY_STAS.len() * SWEEP_PROTOCOLS.len());
    for background in [false, true] {
        for stas in LIBRARY_STAS {
            for protocol in SWEEP_PROTOCOLS {
                let mut cfg = voip_config(protocol, stas, rng.gen::<u64>() >> 16);
                if background {
                    cfg.uplink = Some(UplinkTraffic::default());
                }
                out.push(cfg);
            }
        }
    }
    out
}

pub struct Library {
    sweep: Vec<SimConfig>,
    tally: MacTally,
}

fn library_work(r: &SimReport, host_s: f64) -> Work {
    Work {
        host_s,
        frames: delivered(&r.downlink, &r.uplink),
        sim_s: r.duration_s,
        events: (r.channel.transmissions + r.channel.collisions) as f64,
    }
}

impl Workload for Library {
    fn setup(seed: u64) -> Self {
        let sweep = sweep(seed);
        std::hint::black_box(run_mac(sweep[0].clone()));
        Library {
            sweep,
            tally: MacTally::default(),
        }
    }

    fn prefix_digest(seed: u64) -> String {
        let mut d = Digest::default();
        for cfg in sweep(seed).into_iter().take(SWEEP_PROTOCOLS.len()) {
            d.debug(&run_mac(cfg));
        }
        d.hex()
    }

    fn round(&mut self, latencies: &mut Vec<f64>, checks: &mut Checks) -> Work {
        let mut work = Work::default();
        for cfg in &self.sweep {
            let t = Instant::now();
            let r = run_mac(cfg.clone());
            let host_s = t.elapsed().as_secs_f64();
            latencies.push(host_s);
            checks.check(report_ok(&r, cfg), || {
                format!(
                    "{:?} at {} STAs: report breaks an invariant",
                    cfg.protocol, cfg.num_stas
                )
            });
            work.add(&library_work(&r, host_s));
        }
        work
    }

    fn traced_round(&mut self, tr: &mut Tracer, ledger: &mut Ledger, checks: &mut Checks) {
        for cfg in &self.sweep {
            let pooled = ledger.pooled(|| run_mac(cfg.clone()));
            let counters = Arc::clone(&self.tally.counters);
            let [quiet, traced] = ledger.replays(tr, |t, slot| {
                let op = t.begin(OP);
                let sim = t.span("mac.setup", || {
                    Simulator::new(cfg.clone(), model(slot, &counters))
                });
                let r = t.span("mac.run", || sim.run());
                t.end(op);
                r
            });
            self.tally.add(
                &traced.channel,
                &traced.downlink,
                &traced.uplink,
                traced.duration_s,
            );
            checks.check(
                report_ok(&pooled, cfg) && pooled == quiet && pooled == traced,
                || {
                    format!(
                        "{:?} at {} STAs: replay differs or breaks an invariant",
                        cfg.protocol, cfg.num_stas
                    )
                },
            );
        }
    }

    fn layer_values(
        &self,
        layers: &BTreeMap<&'static str, Layer>,
        _ledger: &Ledger,
    ) -> LayerValues {
        let mut v = self.tally.values(layers);
        v.push((
            "mac.setup_us",
            layers.get("mac.setup").map_or(0.0, Layer::mean_us),
        ));
        v
    }
}

// ------------------------------------------------------------------ dense

pub fn dense_config(seed: u64, duration_s: f64) -> DenseConfig {
    DenseConfig {
        cell: SimConfig {
            num_stas: DENSE_STAS,
            num_aps: 1,
            duration_s,
            seed,
            ..SimConfig::default()
        },
        domains: DENSE_APS,
        obss_coupling: 0.25,
        shards: 0,
        ..DenseConfig::default()
    }
}

fn dense(cfg: &DenseConfig, slot: usize, counters: &Arc<ModelCounters>) -> Option<DenseReport> {
    run_dense(cfg, |_| model(slot, counters), &Obs::noop()).ok()
}

/// Every op replays the same scenario, drawn from the workload seed.
pub struct Dense {
    config: DenseConfig,
    tally: MacTally,
}

fn dense_seed(seed: u64) -> u64 {
    StdRng::seed_from_u64(seed).gen::<u64>() >> 16
}

impl Workload for Dense {
    fn setup(seed: u64) -> Self {
        let warm = dense_config(dense_seed(seed), DENSE_PREFIX_S);
        std::hint::black_box(dense(&warm, 0, &Arc::default()));
        Dense {
            config: dense_config(dense_seed(seed), DENSE_DURATION_S),
            tally: MacTally::default(),
        }
    }

    fn prefix_digest(seed: u64) -> String {
        let mut d = Digest::default();
        let cfg = dense_config(dense_seed(seed), DENSE_PREFIX_S);
        d.debug(&dense(&cfg, 0, &Arc::default()));
        d.hex()
    }

    fn round(&mut self, latencies: &mut Vec<f64>, checks: &mut Checks) -> Work {
        let cfg = &self.config;
        let t = Instant::now();
        let r = dense(cfg, 0, &self.tally.counters);
        let host_s = t.elapsed().as_secs_f64();
        latencies.push(host_s);
        checks.check(r.as_ref().is_some_and(|r| dense_ok(r, cfg)), || {
            "run_dense failed or its report breaks an invariant".to_string()
        });
        r.map_or(Work::default(), |r| Work {
            host_s,
            frames: delivered(&r.downlink, &r.uplink),
            sim_s: cfg.domains as f64 * r.duration_s,
            events: r.events as f64,
        })
    }

    fn traced_round(&mut self, tr: &mut Tracer, ledger: &mut Ledger, checks: &mut Checks) {
        let cfg = &self.config;
        let counters = Arc::clone(&self.tally.counters);
        let pooled = ledger.pooled(|| dense(cfg, 0, &counters));
        // The replays run the engine on one thread, so the layer times
        // add up to wall time.
        let width = carpool_par::thread_count();
        carpool_par::set_thread_override(Some(1));
        let [quiet, traced] = ledger.replays(tr, |t, slot| {
            let op = t.begin(OP);
            let r = t.span("mac.run", || dense(cfg, slot, &counters));
            t.end(op);
            r
        });
        carpool_par::set_thread_override(Some(width));
        if let Some(r) = &traced {
            self.tally.add(
                &r.channel,
                &r.downlink,
                &r.uplink,
                cfg.domains as f64 * r.duration_s,
            );
            self.tally.events += r.events;
        }
        let ok =
            matches!(&pooled, Some(p) if dense_ok(p, cfg)) && pooled == quiet && pooled == traced;
        checks.check(ok, || {
            "run_dense replay differs, fails, or breaks an invariant".to_string()
        });
    }

    fn layer_values(&self, layers: &BTreeMap<&'static str, Layer>, ledger: &Ledger) -> LayerValues {
        let mut v = self.tally.values(layers);
        v.push((
            "mac.events_per_sim_s",
            ratio(self.tally.events as f64, self.tally.sim_s),
        ));
        v.push(("par.shard_speedup", ratio(ledger.serial_s, ledger.pooled_s)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = sweep(4);
        assert_eq!(a, sweep(4));
        assert_ne!(a, sweep(5));
        assert_eq!(a.len(), 30);
        assert_eq!(a.iter().filter(|c| c.uplink.is_some()).count(), 15);
        assert!(a.iter().all(|c| c.duration_s == 8.0));
        let d = dense_config(dense_seed(4), DENSE_DURATION_S);
        assert_eq!(d, dense_config(dense_seed(4), DENSE_DURATION_S));
        assert_ne!(d, dense_config(dense_seed(5), DENSE_DURATION_S));
        assert_eq!(
            (d.domains, d.cell.num_stas, d.obss_coupling),
            (64, 64, 0.25)
        );
    }

    #[test]
    fn invariants_flag_impossible_reports() {
        let cfg = SimConfig {
            num_stas: 2,
            duration_s: 1.0,
            ..SimConfig::default()
        };
        let mut r = run_mac(cfg.clone());
        assert!(report_ok(&r, &cfg));
        r.channel.collisions = r.channel.transmissions + 1;
        assert!(!report_ok(&r, &cfg));
        let mut r = run_mac(cfg.clone());
        r.downlink.delivered_frames = voip_offered_bound(2, 1.0) + 1;
        assert!(!report_ok(&r, &cfg));
        let mut r = run_mac(cfg.clone());
        r.uplink.total_delay = -1.0;
        assert!(!report_ok(&r, &cfg));
    }

    #[test]
    fn timed_model_matches_the_plain_model() {
        let cfg = SimConfig {
            num_stas: 4,
            duration_s: 1.0,
            ..SimConfig::default()
        };
        let counters = Arc::new(ModelCounters::default());
        let timed = Simulator::new(cfg.clone(), model(1, &counters)).run();
        assert_eq!(timed, run_mac(cfg));
        assert!(counters.calls.load(Ordering::Relaxed) > 0);
    }
}
