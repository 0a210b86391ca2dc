//! Log-linear histograms for latency- and size-shaped distributions.

use crate::doc::{Doc, DocError};
use crate::json::Value;

/// Linear sub-buckets per power-of-two octave. 16 sub-buckets bound the
/// relative quantization error of any recorded value by 1/16 ≈ 6.25 %.
const SUBS: u64 = 16;

/// Number of addressable buckets: values below [`SUBS`] get an exact
/// bucket each; every octave above contributes [`SUBS`] buckets.
const BUCKETS: usize = ((64 - 4) * SUBS as usize) + SUBS as usize;

fn bucket_of(value: u64) -> usize {
    if value < SUBS {
        return value as usize;
    }
    let msb = 63 - u64::from(value.leading_zeros());
    let sub = (value >> (msb - 4)) - SUBS;
    ((msb - 3) * SUBS + sub) as usize
}

/// Inclusive lower bound of a bucket.
fn bucket_low(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBS {
        return index;
    }
    let msb = index / SUBS + 3;
    let sub = index % SUBS;
    (SUBS + sub) << (msb - 4)
}

/// A fixed-memory log-linear histogram of `u64` samples.
///
/// Values are quantized into power-of-two octaves with 16 linear
/// sub-buckets each, so any percentile estimate is within ~6 % of the
/// true sample value while the whole structure stays a few kilobytes —
/// safe to keep per-phase or per-instruction-class without blowing up
/// memory on billion-event runs.
///
/// # Example
///
/// ```
/// use emx_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.min(), 1);
/// assert_eq!(h.max(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.07, "p50 = {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram. Does not allocate until the first record.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Merges another histogram into this one, bucket-wise. Equivalent
    /// to having recorded every one of `other`'s samples here (up to
    /// the shared quantization, which both sides use identically).
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (slot, &n) in self.counts.iter_mut().zip(&other.counts) {
            *slot += n;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at (or just above) the `p`-th percentile, `0 ≤ p ≤ 100`.
    ///
    /// Returns the midpoint of the bucket where the cumulative count
    /// crosses `p` percent of the samples, clamped to the exact recorded
    /// `[min, max]` range — so `percentile(0.0)` is exactly [`Histogram::min`]
    /// and `percentile(100.0)` exactly [`Histogram::max`].
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // The endpoints are known exactly; bucket midpoints are not.
        if p <= 0.0 {
            return self.min;
        }
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen >= rank {
                let low = bucket_low(i);
                let high = if i + 1 < BUCKETS {
                    bucket_low(i + 1) - 1
                } else {
                    u64::MAX
                };
                let mid = low + (high - low) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs, in value
    /// order. The lower bound is inclusive; the next bucket's lower
    /// bound (or `u64::MAX` for the last addressable bucket) is the
    /// exclusive upper bound. This is the full serialized shape of the
    /// distribution — two histograms with identical bucket lists report
    /// identical percentiles.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_low(i), n))
    }

    /// Serializes the full histogram — scalar summary plus every
    /// non-empty bucket — as a JSON object that [`Histogram::from_json`]
    /// reconstructs exactly (same buckets, same percentiles).
    ///
    /// `min`, `max` and `sum` are decimal **strings** because they are
    /// u64/u128 quantities that a JSON double cannot always hold
    /// exactly; `count` and the per-bucket counts are plain numbers.
    /// Buckets are `[index, count]` pairs in index order, where `index`
    /// addresses the fixed log-linear bucket grid (16 sub-buckets per
    /// octave), so documents from any build of this crate line up
    /// bucket-for-bucket.
    pub fn to_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("count", self.total);
        doc.set("min", self.min().to_string());
        doc.set("max", self.max.to_string());
        doc.set("sum", self.sum.to_string());
        let mut buckets = Value::array();
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                let mut pair = Value::array();
                pair.push(i as u64);
                pair.push(n);
                buckets.push(pair);
            }
        }
        doc.set("buckets", buckets);
        doc
    }

    /// Reconstructs a histogram serialized by [`Histogram::to_json`],
    /// given as a [`Value`] or as a [`Doc`] inside a larger document.
    ///
    /// # Errors
    ///
    /// A [`DocError`] naming the field when one is missing or malformed,
    /// a bucket index is out of range, or the bucket counts do not sum
    /// back to `count` — a corrupt document is rejected, never silently
    /// truncated.
    pub fn from_json<'a, 'p>(doc: impl Into<Doc<'a, 'p>>) -> Result<Histogram, DocError> {
        fn decimal<T: std::str::FromStr>(doc: &Doc, key: &str) -> Result<T, DocError> {
            let field = doc.field(key)?;
            field
                .str()?
                .parse()
                .map_err(|_| field.error("expected a decimal string"))
        }
        let doc = doc.into();
        let count = doc.field("count")?.u64()?;
        if count == 0 {
            return Ok(Histogram::new());
        }
        let min = decimal(&doc, "min")?;
        let max = decimal(&doc, "max")?;
        let sum = decimal(&doc, "sum")?;
        let mut counts = vec![0u64; BUCKETS];
        let mut total = 0u64;
        for pair in doc.field("buckets")?.items()? {
            let mut fields = pair.items()?;
            let (Some(index), Some(n), None) = (fields.next(), fields.next(), fields.next()) else {
                return Err(pair.error("expected an [index, count] pair"));
            };
            let slot = counts
                .get_mut(index.uint::<usize>()?)
                .ok_or_else(|| index.error(format_args!("expected a bucket index < {BUCKETS}")))?;
            let n = n.u64()?;
            total = total
                .checked_add(n)
                .ok_or_else(|| pair.error("total count overflows"))?;
            *slot += n;
        }
        if total != count {
            return Err(doc.error(format_args!(
                "bucket counts sum to {total} but `count` is {count}"
            )));
        }
        if min > max {
            return Err(doc.error("min exceeds max"));
        }
        Ok(Histogram {
            counts,
            total,
            sum,
            min,
            max,
        })
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b == prev || b == prev + 1, "gap at value {v}");
            assert!(bucket_low(b) <= v, "lower bound above value at {v}");
            prev = b;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(3);
        }
        assert_eq!(h.percentile(50.0), 3);
        assert_eq!(h.percentile(100.0), 3);
        assert_eq!(h.mean(), 3.0);
    }

    #[test]
    fn percentiles_of_uniform_range() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, expect) in [(10.0, 1_000.0), (50.0, 5_000.0), (90.0, 9_000.0)] {
            let got = h.percentile(p) as f64;
            assert!(
                (got - expect).abs() / expect < 0.07,
                "p{p} = {got}, want ≈{expect}"
            );
        }
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 10_000);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 1..=100u64 {
            a.record(v);
            both.record(v);
        }
        for v in 500..=600u64 {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);

        // Merging an empty histogram is a no-op either way.
        let empty = Histogram::new();
        let before = a.clone();
        a.merge(&empty);
        assert_eq!(a, before);
        let mut fresh = Histogram::new();
        fresh.merge(&before);
        assert_eq!(fresh, before);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 17, 900, 65_536, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let doc = h.to_json();
        let text = doc.to_string();
        let back = Histogram::from_json(&Value::parse(&text).expect("valid JSON")).expect("parses");
        assert_eq!(back, h);
        for p in [0.0, 10.0, 50.0, 90.0, 99.9, 100.0] {
            assert_eq!(back.percentile(p), h.percentile(p));
        }
        assert_eq!(back.mean(), h.mean());

        let empty = Histogram::new();
        let back = Histogram::from_json(&empty.to_json()).expect("parses");
        assert_eq!(back, empty);
    }

    #[test]
    fn from_json_rejects_corrupt_documents() {
        let mut h = Histogram::new();
        h.record(42);
        let good = h.to_json().to_string();

        for (bad, why) in [
            (
                good.replace("\"count\": 1", "\"count\": 2"),
                "count mismatch",
            ),
            (good.replace("\"min\": \"42\"", "\"min\": \"x\""), "bad min"),
            (
                good.replace("\"min\": \"42\"", "\"min\": \"99\""),
                "min > max",
            ),
            (
                good.replace("\"sum\": \"42\"", "\"other\": \"42\""),
                "no sum",
            ),
            (
                good.replace("\"buckets\"", "\"nothing\""),
                "missing buckets",
            ),
        ] {
            let doc = Value::parse(&bad).expect("still valid JSON");
            assert!(Histogram::from_json(&doc).is_err(), "accepted {why}");
        }

        let mut out_of_range = Value::object();
        out_of_range.set("count", 1u64);
        out_of_range.set("min", "1");
        out_of_range.set("max", "1");
        out_of_range.set("sum", "1");
        let mut pair = Value::array();
        pair.push(10_000_000u64);
        pair.push(1u64);
        let mut buckets = Value::array();
        buckets.push(pair);
        out_of_range.set("buckets", buckets);
        assert!(Histogram::from_json(&out_of_range).is_err());
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX);
    }
}
