//! `carpool-downlink`: Carpool aggregates sent through
//! `CarpoolLink::deliver_all` to 16 stations.
//!
//! Each aggregate carries 2 to 8 subframes to distinct stations, with
//! payload sizes drawn from the campus-library distribution (over 90%
//! under 300 B) and a mixed MCS. The link is static at 35 dB, so every
//! addressed payload must come back byte-exact. Every aggregate is a
//! fresh TX encode, one channel pass feeds 16 receptions, and the
//! stations not addressed take the A-HDR reject path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use carpool::link::CarpoolLink;
use carpool_bloom::DEFAULT_HASHES;
use carpool_channel::link::LinkChannel;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{
    receive_carpool_obs_with_scratch, CarpoolFrame, CarpoolReception, Subframe,
};
use carpool_frame::FrameError;
use carpool_obs::{FlightRecorder, MemoryRecorder, Obs, DEFAULT_TRACE_CAPACITY};
use carpool_phy::math::Complex64;
use carpool_phy::mcs::{Mcs, SYMBOL_DURATION};
use carpool_phy::preamble::PREAMBLE_LEN;
use carpool_phy::rx::{Estimation, FrameDecoder, PhyScratch};
use carpool_phy::tx::SideChannelConfig;
use carpool_traffic::framesize::FrameSizeDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{ratio, Digest, Work};
use crate::trace::{Layer, Tracer, OP};
use crate::{Checks, LayerValues, Ledger, Workload};

const STATIONS: u16 = 16;
const SNR_DB: f64 = 35.0;
const CFO_HZ: f64 = 100.0;
/// Aggregates generated in set-up; a round delivers each once.
const AGGREGATES: usize = 1024;
/// Aggregates in the determinism prefix.
const PREFIX: usize = 8;
const MCS_MIX: [Mcs; 7] = [
    Mcs::BPSK_1_2,
    Mcs::QPSK_1_2,
    Mcs::QPSK_3_4,
    Mcs::QAM16_1_2,
    Mcs::QAM16_3_4,
    Mcs::QAM64_2_3,
    Mcs::QAM64_3_4,
];
/// Baseband sample rate, samples per second.
const SAMPLE_RATE: f64 = 20e6;

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The aggregates of a run, drawn from the workload seed.
///
/// The draw is stratified: every seed uses the same multiset of
/// subframe counts (2 to 8 in equal shares), payload sizes (the
/// library distribution's quantiles at evenly spaced probabilities) and
/// MCSs (equal shares), and the seed shuffles how they combine, which
/// stations receive them, and the payload bytes. The cost mix, and with
/// it the latency tail, is then a property of the workload rather than
/// of the seed's luck.
pub fn aggregates(seed: u64) -> Vec<Vec<Subframe>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts: Vec<usize> = (0..AGGREGATES).map(|i| 2 + i % 7).collect();
    shuffle(&mut counts, &mut rng);
    let total: usize = counts.iter().sum();
    let library = FrameSizeDistribution::library();
    let mut sizes: Vec<usize> = (0..total)
        .map(|k| (library.quantile((k as f64 + 0.5) / total as f64).round() as usize).max(1))
        .collect();
    shuffle(&mut sizes, &mut rng);
    let mut mcs: Vec<Mcs> = (0..total).map(|k| MCS_MIX[k % MCS_MIX.len()]).collect();
    shuffle(&mut mcs, &mut rng);
    let mut next = 0;
    counts
        .into_iter()
        .map(|n| {
            let mut ids: Vec<u16> = (1..=STATIONS).collect();
            shuffle(&mut ids, &mut rng);
            ids[..n]
                .iter()
                .map(|&id| {
                    let payload = (0..sizes[next]).map(|_| rng.gen::<u8>()).collect();
                    let sf = Subframe::new(MacAddress::station(id), mcs[next], payload);
                    next += 1;
                    sf
                })
                .collect()
        })
        .collect()
}

/// The warm pass's aggregate, one 200 B subframe per MCS of the mix. It
/// is the same for every seed, so that set-up costs the same on every
/// seed: one aggregate drawn from the inputs takes 1 to 9 ms to deliver.
fn warm_aggregate() -> Vec<Subframe> {
    MCS_MIX
        .iter()
        .zip(1..)
        .map(|(&mcs, id)| Subframe::new(MacAddress::station(id), mcs, vec![0x5a; 200]))
        .collect()
}

fn link_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 8
}

fn link(seed: u64) -> CarpoolLink {
    CarpoolLink::builder()
        .snr_db(SNR_DB)
        .cfo_hz(CFO_HZ)
        .seed(link_seed(seed))
        .build()
}

/// The channel inside [`link`], built on its own for the replays.
fn channel(seed: u64) -> LinkChannel {
    LinkChannel::builder()
        .snr_db(SNR_DB)
        .cfo_hz(CFO_HZ)
        .seed(link_seed(seed))
        .build()
}

fn stations() -> Vec<MacAddress> {
    (1..=STATIONS).map(MacAddress::station).collect()
}

/// On-air seconds of an aggregate.
fn airtime_s(frame: &CarpoolFrame) -> f64 {
    let symbols: usize = frame.to_specs().iter().map(|s| s.symbol_count()).sum();
    PREAMBLE_LEN as f64 / SAMPLE_RATE + symbols as f64 * SYMBOL_DURATION
}

/// Every addressed station got its payload back byte-exact.
fn delivered_exact(
    subframes: &[Subframe],
    stations: &[MacAddress],
    rx: &[CarpoolReception],
) -> bool {
    rx.len() == stations.len()
        && subframes.iter().enumerate().all(|(j, sf)| {
            stations
                .iter()
                .position(|&s| s == sf.receiver)
                .is_some_and(|k| rx[k].payload_at(j) == Some(&sf.payload[..]))
        })
}

/// Per-reception tallies of the traced replay.
#[derive(Debug, Default)]
struct Tally {
    receptions: u64,
    bystanders: u64,
    bystanders_matched: u64,
    decoded: u64,
    skipped: u64,
}

/// State only the traced run needs: the replay channels, kept in step
/// with the link's own channel, and a link that records observability.
struct Traced {
    channels: [LinkChannel; 2],
    obs_link: CarpoolLink,
    obs_s: f64,
    tally: Tally,
}

pub struct Downlink {
    seed: u64,
    inputs: Vec<Vec<Subframe>>,
    airtime: Vec<f64>,
    stations: Vec<MacAddress>,
    link: CarpoolLink,
    next: usize,
    traced: Option<Traced>,
}

/// `deliver_all` replayed serially through the public calls it makes,
/// with a span around each. Returns the receptions and the received
/// samples.
fn replay(
    frame: CarpoolFrame,
    channel: &mut LinkChannel,
    stations: &[MacAddress],
    estimation: Estimation,
    tr: &mut Tracer,
    tally: Option<&mut Tally>,
) -> Result<(Vec<CarpoolReception>, Vec<Complex64>), FrameError> {
    let side_channel = Some(SideChannelConfig::default());
    let tx = tr.span("phy.tx.encode", || frame.transmit())?;
    let samples = tr.span("channel.transmit", || channel.transmit(&tx.samples));
    // One worker's scratch, reused across its stations, as in deliver_all.
    let mut scratch = PhyScratch::default();
    let mut out = Vec::with_capacity(stations.len());
    for &sta in stations {
        let addressed = frame.subframes().iter().any(|s| s.receiver == sta);
        let name = if addressed {
            "frame.rx_addressed"
        } else {
            "frame.rx_bystander"
        };
        let rx = tr.span(name, || {
            receive_carpool_obs_with_scratch(
                &samples,
                sta,
                estimation,
                DEFAULT_HASHES,
                side_channel,
                &Obs::noop(),
                &mut scratch,
            )
        })?;
        out.push(rx);
    }
    if let Some(t) = tally {
        for (rx, sta) in out.iter().zip(stations) {
            t.receptions += 1;
            t.decoded += rx.symbols_decoded as u64;
            t.skipped += rx.symbols_skipped as u64;
            if !frame.subframes().iter().any(|s| s.receiver == *sta) {
                t.bystanders += 1;
                t.bystanders_matched += u64::from(!rx.matched_indices.is_empty());
            }
        }
    }
    Ok((out, samples))
}

impl Workload for Downlink {
    fn setup(seed: u64) -> Self {
        let inputs = aggregates(seed);
        let airtime = inputs
            .iter()
            .map(|subs| CarpoolFrame::new(subs.clone()).map_or(0.0, |f| airtime_s(&f)))
            .collect();
        let stations = stations();
        // Warm pass on a throwaway link, so the measured link starts fresh.
        let mut warm = link(seed ^ 1);
        if let Ok(frame) = CarpoolFrame::new(warm_aggregate()) {
            let _ = std::hint::black_box(warm.deliver_all(&frame, &stations));
        }
        Downlink {
            seed,
            inputs,
            airtime,
            stations,
            link: link(seed),
            next: 0,
            traced: None,
        }
    }

    fn prefix_digest(seed: u64) -> String {
        let mut l = link(seed);
        let stations = stations();
        let mut d = Digest::default();
        for subs in aggregates(seed).into_iter().take(PREFIX) {
            let rx = CarpoolFrame::new(subs).and_then(|f| l.deliver_all(&f, &stations));
            d.debug(&rx);
        }
        d.hex()
    }

    fn round(&mut self, latencies: &mut Vec<f64>, checks: &mut Checks) -> Work {
        // A round delivers every aggregate once, so rounds have the same
        // mix and their rates differ only by host noise.
        let mut work = Work::default();
        for i in 0..self.inputs.len() {
            let subframes = self.inputs[i].clone();
            let t0 = Instant::now();
            let frame = CarpoolFrame::new(subframes);
            let t1 = Instant::now();
            let rx = frame.and_then(|f| self.link.deliver_all(&f, &self.stations));
            let t2 = Instant::now();
            latencies.push((t2 - t1).as_secs_f64());
            let events = rx
                .as_ref()
                .map_or(0, |r| r.iter().map(|x| x.symbols_decoded).sum::<usize>());
            checks.check(
                rx.as_ref()
                    .is_ok_and(|r| delivered_exact(&self.inputs[i], &self.stations, r)),
                || {
                    format!(
                        "aggregate {i}: addressed payloads not byte-exact ({:?})",
                        rx.err()
                    )
                },
            );
            work.add(&Work {
                host_s: (t2 - t0).as_secs_f64(),
                frames: 1.0,
                sim_s: self.airtime[i],
                events: events as f64,
            });
        }
        work
    }

    fn traced_round(&mut self, tr: &mut Tracer, ledger: &mut Ledger, checks: &mut Checks) {
        let seed = self.seed;
        let ts = self.traced.get_or_insert_with(|| Traced {
            channels: [channel(seed), channel(seed)],
            obs_link: link(seed).with_obs(
                Obs::with_recorder(Arc::new(MemoryRecorder::new()))
                    .with_flight(Arc::new(FlightRecorder::new(DEFAULT_TRACE_CAPACITY))),
            ),
            obs_s: 0.0,
            tally: Tally::default(),
        });
        let i = self.next % self.inputs.len();
        self.next += 1;
        let subframes = &self.inputs[i];
        let stations = &self.stations;
        let estimation = self.link.estimation();
        let Ok(frame) = CarpoolFrame::new(subframes.clone()) else {
            checks.check(false, || format!("aggregate {i} rejected"));
            return;
        };
        let pooled = ledger.pooled(|| self.link.deliver_all(&frame, stations));
        let t = Instant::now();
        let observed = ts.obs_link.deliver_all(&frame, stations);
        ts.obs_s += t.elapsed().as_secs_f64();
        let [quiet, traced] = ledger.replays(tr, |t, slot| {
            let owned = subframes.clone();
            let op = t.begin(OP);
            let frame = t.span("frame.build", || CarpoolFrame::new(owned));
            let tally = (slot == 1).then_some(&mut ts.tally);
            let out = frame
                .and_then(|f| replay(f, &mut ts.channels[slot], stations, estimation, t, tally));
            t.end(op);
            out
        });
        // Probe outside the op: every station syncs on the same samples,
        // so one preamble pass stands for each reception's.
        if let Ok((_, samples)) = &traced {
            let _ = tr.span("phy.rx.sync", || FrameDecoder::new(samples, estimation));
        }
        let ok = match (&pooled, &observed, &quiet, &traced) {
            (Ok(p), Ok(o), Ok((q, _)), Ok((t, _))) => {
                delivered_exact(subframes, stations, p) && p == o && p == q && p == t
            }
            _ => false,
        };
        checks.check(ok, || {
            format!(
                "aggregate {i}: replay, observed or pooled delivery differ or failed ({:?})",
                pooled.err()
            )
        });
    }

    fn layer_values(&self, layers: &BTreeMap<&'static str, Layer>, ledger: &Ledger) -> LayerValues {
        let Some(ts) = &self.traced else {
            return Vec::new();
        };
        let t = &ts.tally;
        let mean = |name: &str| layers.get(name).map_or(0.0, Layer::mean_us);
        let rx_allocs = ["frame.rx_addressed", "frame.rx_bystander"]
            .iter()
            .filter_map(|n| layers.get(n))
            .map(|l| l.allocs as f64)
            .sum::<f64>();
        vec![
            ("channel.transmit_us", mean("channel.transmit")),
            ("phy.tx.encode_us", mean("phy.tx.encode")),
            ("phy.rx.sync_us", mean("phy.rx.sync")),
            ("frame.build_us", mean("frame.build")),
            ("frame.rx_addressed_us", mean("frame.rx_addressed")),
            ("frame.rx_bystander_us", mean("frame.rx_bystander")),
            (
                "bloom.fp_ratio",
                ratio(t.bystanders_matched as f64, t.bystanders as f64),
            ),
            (
                "frame.skip_ratio",
                ratio(t.skipped as f64, (t.decoded + t.skipped) as f64),
            ),
            ("frame.allocs_per_rx", ratio(rx_allocs, t.receptions as f64)),
            ("par.pool_speedup", ratio(ledger.serial_s, ledger.pooled_s)),
            (
                "obs.trace_overhead_frac",
                ratio(ts.obs_s, ledger.pooled_s) - 1.0,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = aggregates(9);
        assert_eq!(a, aggregates(9));
        assert_ne!(a, aggregates(10));
        for subs in &a {
            assert!((2..=8).contains(&subs.len()));
            let mut ids: Vec<Vec<u8>> = subs
                .iter()
                .map(|s| s.receiver.as_bytes().to_vec())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), subs.len(), "receivers are distinct");
        }
        let sizes: Vec<usize> = a.iter().flatten().map(|s| s.payload.len()).collect();
        let small = sizes.iter().filter(|&&n| n < 300).count();
        assert!(
            small * 10 > sizes.len() * 8,
            "library sizes: mostly short frames"
        );
    }

    #[test]
    fn replay_matches_deliver_all() {
        let inputs = aggregates(3);
        let stations = stations();
        let mut l = link(3);
        let mut ch = channel(3);
        for subs in inputs.iter().take(2) {
            let frame = CarpoolFrame::new(subs.clone()).expect("valid aggregate");
            let pooled = l.deliver_all(&frame, &stations).expect("delivers");
            let (replayed, _) = replay(
                frame,
                &mut ch,
                &stations,
                l.estimation(),
                &mut Tracer::new(false),
                None,
            )
            .expect("replays");
            assert!(delivered_exact(subs, &stations, &pooled));
            assert_eq!(pooled, replayed);
        }
    }
}
