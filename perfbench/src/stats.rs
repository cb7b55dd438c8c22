//! Summary statistics and the output digest.

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Samples strictly above `cut`.
pub fn count_above(samples: &[f64], cut: f64) -> usize {
    samples.iter().filter(|&&s| s > cut).count()
}

/// The `p`-th percentile taken in each of `⌊n / window⌋` equal runs of
/// consecutive samples (one run when there are fewer), then the median
/// over runs. A stall that hits one stretch of the run moves one window,
/// not the result.
pub fn windowed_percentile(samples: &[f64], p: f64, window: usize) -> f64 {
    let n = samples.len();
    let k = (n / window.max(1)).max(1);
    let per_window: Vec<f64> = (0..k)
        .map(|i| percentile(&samples[i * n / k..(i + 1) * n / k], p))
        .collect();
    median(&per_window)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One unit of closed-loop work: its host time and what it produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Host seconds spent in the measured calls.
    pub host_s: f64,
    /// Frames fully received (PHY frames, aggregates or MAC frames).
    pub frames: f64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Simulator events processed.
    pub events: f64,
}

impl Work {
    /// Component-wise sum.
    pub fn add(&mut self, other: &Work) {
        self.host_s += other.host_s;
        self.frames += other.frames;
        self.sim_s += other.sim_s;
        self.events += other.events;
    }
}

/// Groups consecutive rounds into blocks of at least `block_s` host
/// seconds (a short tail joins the block before it) and returns each
/// block's summed work. Rates are then taken per block and reported as
/// medians, so a stall from a neighbouring process moves one block, not
/// the result.
pub fn blocks(rounds: &[Work], block_s: f64) -> Vec<Work> {
    let mut out: Vec<Work> = Vec::new();
    let mut current = Work::default();
    for r in rounds {
        current.add(r);
        if current.host_s >= block_s {
            out.push(current);
            current = Work::default();
        }
    }
    if current.host_s > 0.0 {
        match out.last_mut() {
            Some(last) if current.host_s < block_s / 2.0 => last.add(&current),
            _ => out.push(current),
        }
    }
    out
}

/// Median over blocks of `rate(block)`.
pub fn median_rate(blocks: &[Work], rate: impl Fn(&Work) -> f64) -> f64 {
    median(
        &blocks
            .iter()
            .map(|b| ratio(rate(b), b.host_s))
            .collect::<Vec<_>>(),
    )
}

/// FNV-1a, 64 bit: a stable digest of the simulated outputs, so two
/// builds can show that their statistics are byte-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the `Debug` rendering of `value`, which prints every field
    /// (floats in shortest round-trip form).
    pub fn debug<T: std::fmt::Debug>(&mut self, value: &T) {
        self.bytes(format!("{value:?}").as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 99.0), 99.0);
        assert_eq!(count_above(&s, percentile(&s, 99.0)), 1);
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(count_above(&s, percentile(&s, 99.0)), 20);
    }

    #[test]
    fn windowed_percentile_takes_the_median_over_windows() {
        // Three windows of 1000; the middle one holds a stall.
        let mut s: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut s[1000..2000] {
            *x += 500.0;
        }
        assert_eq!(windowed_percentile(&s, 99.0, 1000), 989.0);
        // Fewer samples than one window: the plain percentile.
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(windowed_percentile(&short, 99.0, 1000), 99.0);
        // 2500 samples make two windows of 1250.
        let s: Vec<f64> = (0..2500).map(f64::from).collect();
        let expected = (percentile(&s[..1250], 99.0) + percentile(&s[1250..], 99.0)) / 2.0;
        assert_eq!(windowed_percentile(&s, 99.0, 1000), expected);
        assert_eq!(windowed_percentile(&[], 99.0, 1000), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn blocks_group_rounds_and_fold_short_tail() {
        let round = Work {
            host_s: 0.4,
            frames: 4.0,
            sim_s: 1.0,
            events: 10.0,
        };
        let b = blocks(&[round; 7], 1.0);
        // 3 + 3 rounds make two blocks; the lone 0.4 s tail is shorter
        // than half a block and joins the second.
        assert_eq!(b.len(), 2);
        assert!((b[1].host_s - 1.6).abs() < 1e-12);
        assert_eq!(b[1].frames, 16.0);
        assert!((median_rate(&b, |w| w.frames) - 10.0).abs() < 1e-9);
        assert!(blocks(&[], 1.0).is_empty());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = Digest::default();
        a.debug(&(1.5f64, vec![1u8, 2]));
        let mut b = Digest::default();
        b.debug(&(1.5f64, vec![1u8, 2]));
        assert_eq!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.debug(&(1.5000000000000002f64, vec![1u8, 2]));
        assert_ne!(a.hex(), c.hex());
        // FNV-1a reference value for the empty input.
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }
}
