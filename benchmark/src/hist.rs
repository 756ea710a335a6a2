//! Log-bucket latency histogram: fixed memory, ≤ 1 % relative error,
//! mergeable across client threads, and able to record a failed op as +∞
//! (a failed op misses every latency percentile).
//!
//! A value `v ≥ 64` lands in the bucket addressed by its power of two and
//! its next [`SUB_BITS`] mantissa bits, so a bucket spans `1/64` of its
//! value (1.56 %) and its midpoint is within 0.79 % of every value in it.
//! Values below 64 have a bucket each.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// One linear run for `0..64`, then 58 octaves of 64 sub-buckets.
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// A histogram of `u64` samples (this benchmark records nanoseconds).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    finite: u64,
    infinite: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            finite: 0,
            infinite: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let sub = (v >> (octave - SUB_BITS)) as usize & (SUB - 1);
    (octave - SUB_BITS + 1) as usize * SUB + sub
}

/// Midpoint of bucket `b` (the exact value for the linear run).
fn value_of(b: usize) -> f64 {
    if b < SUB {
        return b as f64;
    }
    let octave = (b / SUB) as u32 + SUB_BITS - 1;
    let width = 1u64 << (octave - SUB_BITS);
    let low = (1u64 << octave) + (b % SUB) as u64 * width;
    low as f64 + (width - 1) as f64 / 2.0
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.finite += 1;
    }

    /// Records an op that never produced a reply.
    pub fn record_infinite(&mut self) {
        self.infinite += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.finite += other.finite;
        self.infinite += other.infinite;
    }

    /// Samples recorded, failed ops included.
    pub fn len(&self) -> u64 {
        self.finite + self.infinite
    }

    /// The `q`-quantile (`0 < q ≤ 1`) by the nearest-rank rule: the smallest
    /// recorded value with at least `⌈q·n⌉` samples at or below it.  0.0 for
    /// an empty histogram, +∞ when the rank falls among the failed ops.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank > self.finite {
            return f64::INFINITY;
        }
        let mut seen = 0;
        for (bucket, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return value_of(bucket);
            }
        }
        unreachable!("finite counts sum to self.finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The same nearest-rank quantile over an exact sort.
    fn exact(samples: &mut [u64], q: f64) -> f64 {
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        samples[rank - 1] as f64
    }

    /// Three latency classes three orders of magnitude apart, like the
    /// point / list / heavy reads of `tpcw_browse`.
    fn multi_modal(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| match rng.random_range(0..100u32) {
                0..=69 => rng.random_range(12_000..90_000u64),
                70..=93 => rng.random_range(400_000..2_500_000u64),
                _ => rng.random_range(30_000_000..200_000_000u64),
            })
            .collect()
    }

    #[test]
    fn quantiles_within_one_percent_of_exact_sort() {
        for seed in 1..=5 {
            let mut samples = multi_modal(seed, 20_000);
            let mut hist = Hist::default();
            samples.iter().for_each(|&v| hist.record(v));
            for q in [0.01, 0.25, 0.5, 0.7, 0.9, 0.94, 0.95, 0.99, 0.999, 1.0] {
                let want = exact(&mut samples, q);
                let got = hist.quantile(q);
                assert!(
                    (got - want).abs() <= 0.01 * want,
                    "seed {seed} q {q}: histogram {got} vs exact {want}"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact_and_buckets_round_trip() {
        let mut hist = Hist::default();
        (0..64).for_each(|v| hist.record(v));
        assert_eq!(hist.quantile(0.5), 31.0);
        assert_eq!(hist.quantile(1.0), 63.0);
        for v in [64, 65, 127, 128, 1_000, 123_456_789, u64::MAX] {
            let mid = value_of(bucket_of(v));
            assert!((mid - v as f64).abs() <= 0.01 * v as f64, "{v} -> {mid}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merging_client_histograms_equals_recording_into_one() {
        let samples = multi_modal(9, 10_000);
        let mut whole = Hist::default();
        let (mut a, mut b) = (Hist::default(), Hist::default());
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a.len(), whole.len());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn failed_ops_count_as_infinite_latency() {
        let mut hist = Hist::default();
        (1..=95).for_each(|v| hist.record(v * 1_000));
        (0..5).for_each(|_| hist.record_infinite());
        assert_eq!(hist.len(), 100);
        assert!(hist.quantile(0.95).is_finite());
        assert_eq!(hist.quantile(0.96), f64::INFINITY);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
