//! Log-bucketed latency histograms for the serve-scale measurement plane.
//!
//! Integer-only by construction: values are simulated cycles (`u64`),
//! buckets are logarithmic with 8 linear sub-buckets per octave (≤ 12.5 %
//! relative width), and percentiles are reported as the *upper bound* of
//! the bucket containing the requested rank. Two runs that produce the
//! same latencies therefore produce byte-identical JSON — no float
//! formatting, no interpolation, no platform-dependent rounding.
//!
//! Merging is commutative and associative (bucket-wise addition), so
//! per-node histograms fold into one machine-wide histogram in any order
//! with the same result — the deterministic cross-node merge the serve
//! subsystem relies on.

use crate::json::{FromJson, Json, ToJson};

/// Linear sub-buckets per octave (and the width of the exact low range).
const SUB: u64 = 8;
/// log2(SUB).
const SUB_BITS: u32 = 3;
/// Bucket count covering the full `u64` range: SUB exact buckets for
/// values `0..SUB`, then SUB sub-buckets for each of the 61 octaves.
const BUCKETS: usize = (SUB + 61 * SUB) as usize;

/// Index of the bucket containing `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = msb - SUB_BITS; // 0 for v in [SUB, 2*SUB)
    (SUB + octave as u64 * SUB + ((v >> octave) - SUB)) as usize
}

/// Largest value mapping to bucket `i` (the reported percentile bound).
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let octave = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    // Bucket spans [ (SUB+sub) << octave, ((SUB+sub+1) << octave) - 1 ].
    ((SUB + sub + 1) << octave).wrapping_sub(1)
}

/// A log-bucketed histogram of `u64` samples (latencies in cycles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    max: u64,
    /// Saturating sum of all samples (mean diagnostics only; percentiles
    /// never touch it).
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            max: 0,
            total: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.total = self.total.saturating_add(v);
    }

    /// Bucket-wise sum; commutative and associative, so any merge order
    /// over per-node histograms yields identical bytes.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.total = self.total.saturating_add(other.total);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Saturating sum of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The value at permille rank `p` (500 = p50, 990 = p99), reported as
    /// the upper bound of the containing bucket; 0 when empty. `p` ≥ 1000
    /// returns the exact maximum.
    pub fn percentile_per_mille(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 1000 {
            return self.max;
        }
        // Rank = ceil(count * p / 1000), at least 1.
        let rank = (self.count.saturating_mul(p)).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the true maximum (the last occupied
                // bucket's upper bound can exceed it).
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

impl ToJson for LatencyHistogram {
    /// Sparse encoding: only occupied buckets, as `[index, count]` pairs in
    /// ascending index order — canonical bytes for identical contents.
    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::U64(i as u64), Json::U64(c)]))
            .collect();
        Json::obj(vec![
            ("buckets", Json::Arr(buckets)),
            ("count", self.count.to_json()),
            ("max", self.max.to_json()),
            ("total", self.total.to_json()),
        ])
    }
}

impl FromJson for LatencyHistogram {
    fn from_json(j: &Json) -> Result<Self, String> {
        let mut h = LatencyHistogram::new();
        for pair in j.req("buckets")?.as_arr()? {
            let p = pair.as_arr()?;
            if p.len() != 2 {
                return Err(format!("bucket pair has {} elements", p.len()));
            }
            let i = p[0].as_u64()? as usize;
            if i >= BUCKETS {
                return Err(format!("bucket index {i} out of range"));
            }
            h.counts[i] = p[1].as_u64()?;
        }
        h.count = j.field("count")?;
        h.max = j.field("max")?;
        h.total = j.field("total")?;
        let sum = h
            .counts
            .iter()
            .try_fold(0u64, |s, &c| s.checked_add(c))
            .ok_or("bucket counts overflow u64")?;
        if sum != h.count {
            return Err(format!("bucket sum {sum} != count {}", h.count));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        // Exact low range.
        for v in 0..SUB {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // Bucket index is monotone and upper bounds are consistent.
        let probes = [
            8u64,
            15,
            16,
            17,
            100,
            1000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_of(v);
            assert!(v <= bucket_upper(i), "v={v} above upper of bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "v={v} not above bucket {}", i - 1);
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Log-8 sub-bucketing: upper/lower ≤ 1.125 for any bucket ≥ SUB.
        for v in [20u64, 123, 4096, 1_000_000, 123_456_789] {
            let up = bucket_upper(bucket_of(v));
            assert!(up >= v);
            assert!((up as f64) / (v as f64) < 1.13, "v={v} upper={up}");
        }
    }

    #[test]
    fn percentiles_track_known_distributions() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.percentile_per_mille(500);
        assert!((500..=563).contains(&p50), "p50={p50}"); // ≤ 12.5% bucket
        let p99 = h.percentile_per_mille(990);
        assert!((990..=1023).contains(&p99), "p99={p99}");
        assert_eq!(h.percentile_per_mille(1000), 1000);
        assert_eq!(LatencyHistogram::new().percentile_per_mille(500), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in 0..500u64 {
            a.record(v * 7 % 10_000);
            b.record(v * 13 % 100_000);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json().to_string(), ba.to_json().to_string());
        assert_eq!(ab.count(), 1000);
    }

    #[test]
    fn json_round_trips_and_rejects_inconsistent_counts() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 9, 17, 4096, 1 << 33] {
            h.record(v);
        }
        let j = h.to_json();
        let back = LatencyHistogram::from_json(&j).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_json().to_string(), j.to_string());

        let bad = Json::parse(
            &j.to_string()
                .replace("\"count\":6", "\"count\":7")
                .replace("\"count\": 6", "\"count\": 7"),
        )
        .unwrap();
        assert!(LatencyHistogram::from_json(&bad)
            .unwrap_err()
            .contains("bucket sum"));
    }
}
