//! `phy-office`: the Fig. 3/13-shaped `run_phy` Monte-Carlo.
//!
//! 4 KiB QAM64-3/4 frames with the side channel on cross the office link
//! (Rician K = 15, 4 ms coherence, 100 Hz CFO) at four SNR points from
//! 24 to 30 dB, each under Standard and RTE estimation with the same
//! channel seeds. After the first call the transmitted waveform is a
//! TX-cache hit, so the channel and the receiver do nearly all the work.

use std::collections::BTreeMap;
use std::time::Instant;

use carpool_bench::{pattern_bits, run_phy, Fading, PhyBerResult, PhyRunConfig, OFFICE_FADING};
use carpool_channel::link::LinkChannel;
use carpool_obs::Obs;
use carpool_phy::bits::hamming_distance;
use carpool_phy::mcs::{Mcs, SYMBOL_DURATION};
use carpool_phy::preamble::PREAMBLE_LEN;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{Estimation, FrameDecoder, SectionLayout};
use carpool_phy::tx::{SectionSpec, SideChannelConfig};
use carpool_phy::txcache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{ratio, Digest, Work};
use crate::trace::{Layer, Tracer, OP};
use crate::{Checks, LayerValues, Ledger, Workload};

const SNR_DB: [f64; 4] = [24.0, 26.0, 28.0, 30.0];
const ESTIMATIONS: [Estimation; 2] = [
    Estimation::Standard,
    Estimation::Rte(CalibrationRule::Average),
];
const PAYLOAD_BITS: usize = 4 * 1024 * 8;
/// Frames per `run_phy` call: eight per pool worker. Longer calls keep
/// the p99 of the call latency close to its median on a noisy host
/// (about 1.25 times it here, against 1.5 with 8-frame calls); shorter
/// ones make it track host interference instead of the PHY.
const FRAMES_PER_CALL: usize = 16;
/// Distinct channel-seed sets generated in set-up; a longer run cycles.
const SEED_SETS: usize = 4096;
/// Share of symbol positions, from the end, that make up the tail.
const TAIL_SHARE: usize = 4;
/// Baseband sample rate, samples per second.
const SAMPLE_RATE: f64 = 20e6;

fn config(snr_db: f64, estimation: Estimation, seed: u64) -> PhyRunConfig {
    PhyRunConfig {
        mcs: Mcs::QAM64_3_4,
        payload_bits: PAYLOAD_BITS,
        side_channel: Some(SideChannelConfig::default()),
        estimation,
        snr_db,
        fading: OFFICE_FADING,
        cfo_hz: 100.0,
        frames: FRAMES_PER_CALL,
        seed,
    }
}

/// The `run_phy` calls of one round: every SNR point under both
/// estimations, Standard and RTE sharing their channel seeds.
pub fn round_configs(seed_set: u64) -> Vec<PhyRunConfig> {
    let mut out = Vec::with_capacity(SNR_DB.len() * ESTIMATIONS.len());
    for (i, &snr) in SNR_DB.iter().enumerate() {
        let seed = seed_set.wrapping_add((i * FRAMES_PER_CALL) as u64);
        for est in ESTIMATIONS {
            out.push(config(snr, est, seed));
        }
    }
    out
}

/// Channel-seed sets, one per round, drawn from the workload seed.
pub fn seed_sets(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..SEED_SETS).map(|_| rng.gen::<u64>() >> 16).collect()
}

fn symbols() -> usize {
    Mcs::QAM64_3_4.symbols_for_bits(PAYLOAD_BITS)
}

/// On-air seconds of one frame.
fn frame_airtime_s() -> f64 {
    PREAMBLE_LEN as f64 / SAMPLE_RATE + symbols() as f64 * SYMBOL_DURATION
}

/// `run_phy` leaves a frame that fails to decode out of `data_ber`'s
/// base but not out of the per-symbol BER's, so the two agree only when
/// every frame decoded. When every frame fails, both read 0 and agree, so
/// at the lowest SNR point a result without a single raw bit error also
/// counts as lost: there the office link always leaves raw (hard-decision,
/// pre-Viterbi) errors in a call's 16 frames. Over 276 calls per
/// estimation (seeds 1 to 6) the fewest were 312 errors under RTE and
/// 1717 under Standard. At 28 and 30 dB most RTE calls have none, so the
/// higher points cannot be held to this. Also checks shape and range.
fn consistent(r: &PhyBerResult, snr_db: f64) -> bool {
    let n = r.ber_by_symbol.len();
    let mean = r.ber_by_symbol.iter().sum::<f64>() / n.max(1) as f64;
    n == symbols()
        && (snr_db > SNR_DB[0] || r.ber_by_symbol.iter().any(|&b| b > 0.0))
        && r.data_ber.is_finite()
        && (0.0..=1.0).contains(&r.data_ber)
        && (r.data_ber - mean).abs() <= 1e-9 * r.data_ber.max(1e-12)
}

/// Mean BER over the last quarter of symbol positions.
fn tail_ber(r: &PhyBerResult) -> f64 {
    let n = r.ber_by_symbol.len();
    let tail = &r.ber_by_symbol[n - n / TAIL_SHARE..];
    tail.iter().sum::<f64>() / tail.len().max(1) as f64
}

pub struct PhyOffice {
    seed_sets: Vec<u64>,
    next: usize,
    /// Summed tail BER per (SNR point, estimation) over the run.
    tails: [[f64; 2]; 4],
    // Traced-run ledger.
    frames: u64,
    crc_ok: u64,
    crc_symbols: u64,
    /// TX-cache counters when the traced loop started.
    cache_start: Option<txcache::TxCacheStats>,
}

impl PhyOffice {
    fn next_round(&mut self) -> Vec<PhyRunConfig> {
        let set = self.seed_sets[self.next % self.seed_sets.len()];
        self.next += 1;
        round_configs(set)
    }

    /// `run_phy` replayed call by call through the public pieces it is
    /// built from, with a span around each call into a layer.
    fn replay(
        &mut self,
        cfg: &PhyRunConfig,
        tr: &mut Tracer,
        counting: bool,
    ) -> Result<PhyBerResult, String> {
        let op = tr.begin(OP);
        let out = self.replay_op(cfg, tr, counting);
        tr.end(op);
        out
    }

    fn replay_op(
        &mut self,
        cfg: &PhyRunConfig,
        tr: &mut Tracer,
        counting: bool,
    ) -> Result<PhyBerResult, String> {
        let spec = tr.span("bench.spec", || SectionSpec {
            bits: pattern_bits(cfg.payload_bits, 77),
            mcs: cfg.mcs,
            scramble: true,
            side_channel: cfg.side_channel,
            qbpsk: false,
        });
        let tx = tr
            .span("phy.tx.encode", || {
                txcache::transmit_cached(std::slice::from_ref(&spec), &Obs::noop())
            })
            .map_err(|e| e.to_string())?;
        let layouts = [SectionLayout::of(&spec)];
        let n_sym = tx.sections[0].num_symbols;
        let mut sym_errors = vec![0usize; n_sym];
        let (mut bit_errors, mut bits_total, mut side_errors, mut side_total) = (0, 0, 0, 0);
        for f in 0..cfg.frames {
            let mut link = tr.span("channel.build", || {
                let mut builder = LinkChannel::builder();
                builder
                    .snr_db(cfg.snr_db)
                    .cfo_hz(cfg.cfo_hz)
                    .seed(cfg.seed + f as u64);
                if let Fading::TimeVarying {
                    coherence_s,
                    rician_k,
                } = cfg.fading
                {
                    builder.coherence_time(coherence_s).rician_k(rician_k);
                }
                builder.build()
            });
            let samples = tr.span("channel.transmit", || link.transmit(&tx.samples));
            let mut decoder = tr
                .span("phy.rx.sync", || {
                    FrameDecoder::new(&samples, cfg.estimation)
                })
                .map_err(|e| format!("frame {f}: {e}"))?;
            let sections = tr
                .span("phy.rx.decode", || {
                    layouts
                        .iter()
                        .map(|l| decoder.decode_section(l))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| format!("frame {f}: {e}"))?;
            tr.span("bench.tally", || {
                for (k, (t, r)) in tx.sections[0]
                    .symbol_bits
                    .iter()
                    .zip(&sections[0].raw_symbol_bits)
                    .enumerate()
                {
                    let d = hamming_distance(t, r);
                    sym_errors[k] += d;
                    bit_errors += d;
                    bits_total += t.len();
                }
                if let Some(sc) = cfg.side_channel {
                    let bits_per = sc.modulation.bits_per_symbol();
                    for (t, r) in tx.sections[0]
                        .side_values
                        .iter()
                        .zip(&sections[0].side_values)
                    {
                        side_errors += ((t ^ r) & 1) as usize;
                        if bits_per == 2 {
                            side_errors += (((t ^ r) >> 1) & 1) as usize;
                        }
                        side_total += bits_per;
                    }
                }
            });
            if counting {
                self.frames += 1;
                let crc = &sections[0].crc_ok;
                self.crc_ok += crc.iter().filter(|&&ok| ok).count() as u64;
                self.crc_symbols += crc.len() as u64;
            }
        }
        let sym_bits = cfg.mcs.coded_bits_per_symbol();
        let result = PhyBerResult {
            data_ber: bit_errors as f64 / bits_total.max(1) as f64,
            side_ber: side_errors as f64 / side_total.max(1) as f64,
            ber_by_symbol: sym_errors
                .into_iter()
                .map(|e| e as f64 / (cfg.frames * sym_bits) as f64)
                .collect(),
        };
        Ok(result)
    }
}

fn same(a: &PhyBerResult, b: &PhyBerResult) -> bool {
    a.data_ber.to_bits() == b.data_ber.to_bits()
        && a.side_ber.to_bits() == b.side_ber.to_bits()
        && a.ber_by_symbol.len() == b.ber_by_symbol.len()
        && a.ber_by_symbol
            .iter()
            .zip(&b.ber_by_symbol)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Workload for PhyOffice {
    fn setup(seed: u64) -> Self {
        // Start cold, so every set-up pays the one TX encode the sweep needs.
        txcache::reset();
        let w = PhyOffice {
            seed_sets: seed_sets(seed),
            next: 0,
            tails: [[0.0; 2]; 4],
            frames: 0,
            crc_ok: 0,
            crc_symbols: 0,
            cache_start: None,
        };
        // Warm pass: fills the TX cache. Uses seeds the loop draws last.
        let warm = round_configs(w.seed_sets[SEED_SETS - 1]);
        std::hint::black_box(run_phy(&warm[0]));
        w
    }

    fn prefix_digest(seed: u64) -> String {
        let mut d = Digest::default();
        for cfg in round_configs(seed_sets(seed)[0]) {
            d.debug(&run_phy(&cfg));
        }
        d.hex()
    }

    fn round(&mut self, latencies: &mut Vec<f64>, checks: &mut Checks) -> Work {
        let mut work = Work::default();
        for (i, cfg) in self.next_round().iter().enumerate() {
            let t = Instant::now();
            let r = run_phy(cfg);
            let host_s = t.elapsed().as_secs_f64();
            latencies.push(host_s);
            checks.check(consistent(&r, cfg.snr_db), || {
                format!(
                    "run_phy at {} dB lost a frame or returned a bad BER",
                    cfg.snr_db
                )
            });
            self.tails[i / 2][i % 2] += tail_ber(&r);
            work.add(&Work {
                host_s,
                frames: cfg.frames as f64,
                sim_s: cfg.frames as f64 * frame_airtime_s(),
                events: (cfg.frames * symbols()) as f64,
            });
        }
        work
    }

    fn finish(&mut self, checks: &mut Checks) {
        for (snr, [standard, rte]) in SNR_DB.iter().zip(self.tails) {
            checks.check(rte <= standard, || {
                format!("tail BER at {snr} dB: RTE {rte:.3e} above Standard {standard:.3e}")
            });
        }
    }

    fn traced_round(&mut self, tr: &mut Tracer, ledger: &mut Ledger, checks: &mut Checks) {
        self.cache_start.get_or_insert_with(txcache::stats);
        for cfg in self.next_round() {
            let pooled = ledger.pooled(|| run_phy(&cfg));
            let [quiet, traced] = ledger.replays(tr, |t, slot| self.replay(&cfg, t, slot == 1));
            let ok =
                matches!((&quiet, &traced), (Ok(a), Ok(b)) if same(a, &pooled) && same(b, &pooled));
            checks.check(ok && consistent(&pooled, cfg.snr_db), || {
                format!(
                    "replay at {} dB differs from run_phy or failed: {quiet:?}",
                    cfg.snr_db
                )
            });
        }
    }

    fn layer_values(&self, layers: &BTreeMap<&'static str, Layer>, ledger: &Ledger) -> LayerValues {
        let mean = |name: &str| layers.get(name).map_or(0.0, Layer::mean_us);
        let rx_allocs = ["phy.rx.sync", "phy.rx.decode"]
            .iter()
            .filter_map(|n| layers.get(n))
            .map(|l| l.allocs as f64)
            .sum::<f64>();
        let (now, start) = (txcache::stats(), self.cache_start.unwrap_or_default());
        let hits = now.hits - start.hits;
        let misses = now.misses - start.misses;
        vec![
            ("channel.build_us", mean("channel.build")),
            ("channel.transmit_us", mean("channel.transmit")),
            (
                "txcache.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            ("phy.tx.encode_us", mean("phy.tx.encode")),
            ("phy.rx.sync_us", mean("phy.rx.sync")),
            ("phy.rx.decode_us", mean("phy.rx.decode")),
            (
                "phy.rx.allocs_per_frame",
                ratio(rx_allocs, self.frames as f64),
            ),
            (
                "phy.rx.sym_crc_ok_ratio",
                ratio(self.crc_ok as f64, self.crc_symbols as f64),
            ),
            ("bench.tally_us", mean("bench.tally")),
            ("par.pool_speedup", ratio(ledger.serial_s, ledger.pooled_s)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(seed_sets(5), seed_sets(5));
        assert_ne!(seed_sets(5), seed_sets(6));
        let a = round_configs(seed_sets(5)[0]);
        let b = round_configs(seed_sets(5)[0]);
        let c = round_configs(seed_sets(6)[0]);
        let key = |v: &[PhyRunConfig]| {
            v.iter()
                .map(|c| (c.seed, c.snr_db.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        // Standard and RTE share channel seeds at every SNR point.
        for pair in a.chunks(2) {
            assert_eq!(pair[0].seed, pair[1].seed);
            assert_eq!(pair[0].estimation, Estimation::Standard);
            assert_ne!(pair[1].estimation, Estimation::Standard);
        }
    }

    #[test]
    fn consistency_check_spots_a_lost_frame() {
        let n = symbols();
        let ok = PhyBerResult {
            data_ber: 0.01,
            side_ber: 0.0,
            ber_by_symbol: vec![0.01; n],
        };
        assert!(consistent(&ok, SNR_DB[0]));
        // One of four frames dropped: data_ber's base shrinks by a quarter.
        let lost = PhyBerResult {
            data_ber: 0.01 * 4.0 / 3.0,
            ..ok.clone()
        };
        assert!(!consistent(&lost, SNR_DB[0]));
        assert!((tail_ber(&ok) - 0.01).abs() < 1e-15);
    }

    #[test]
    fn consistency_check_spots_every_frame_lost() {
        // What `run_phy` returns when no frame decodes: an empty tally
        // with the full per-symbol length.
        let none = PhyBerResult {
            data_ber: 0.0,
            side_ber: 0.0,
            ber_by_symbol: vec![0.0; symbols()],
        };
        assert!(!consistent(&none, SNR_DB[0]));
        // Above the lowest point every raw bit may come through right.
        assert!(consistent(&none, SNR_DB[3]));
        // What it returns when the transmit fails.
        for snr in SNR_DB {
            assert!(!consistent(&PhyBerResult::default(), snr));
        }
    }
}
