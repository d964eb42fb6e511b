//! Summary statistics, the peak heap count, and the printed result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub(crate) fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The `q`-quantile of sorted `v` by linear interpolation between order
/// statistics.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub(crate) fn median(v: &[f64]) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

pub(crate) fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geometric mean of an empty sample");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The 90th percentile of the log-normal distribution fitted to `v`:
/// `exp(mean(ln v) + z₀.₉ · sd(ln v))`. Its median is [`geomean`].
pub(crate) fn lognormal_p90(v: &[f64]) -> f64 {
    const Z90: f64 = 1.281_551_565_545;
    let logs: Vec<f64> = v.iter().map(|x| x.ln()).collect();
    let mean = logs.iter().sum::<f64>() / logs.len() as f64;
    let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / (logs.len().max(2) - 1) as f64;
    (mean + Z90 * var.sqrt()).exp()
}

/// The system allocator, counting the bytes of live heap allocations so the
/// benchmark can report their peak. Resident memory (`VmHWM`) is not used:
/// it depends on where the allocator happened to place blocks, and on
/// `replay_oltp` it differed by 24% between two seeds whose traces differed
/// in length by 0.05%. The live-byte count depends only on what the
/// program allocates, so it repeats exactly for the same code and inputs.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A statistic only: the counters publish no other data, so `Relaxed`.
fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s implementation upholds the `GlobalAlloc` contract; the
// counting only reads sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s requirements for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for `layout`
        // and a valid `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// The most heap this process has held live at once, in MB (2^20 bytes).
pub(crate) fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
}

/// A finished run: comment lines, one line per metric, and the JSON
/// result as the last line.
#[derive(Debug)]
pub struct Report {
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The machine-readable last line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!("metric {} {} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&self.json_line());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // ln values 0 and 2: mean 1, sample sd √2.
        let p90 = (1.0 + 1.281_551_565_545 * 2f64.sqrt()).exp();
        assert!((lognormal_p90(&[1.0, 2f64.exp()]) - p90).abs() < 1e-9);
        assert!((lognormal_p90(&[3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn the_json_line_carries_every_metric_with_its_unit() {
        let r = Report {
            notes: vec!["x".into()],
            attempted: 3,
            failed: 0,
            correct: true,
            metrics: vec![metric("job_p50_ms", 1.25, "ms")],
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"job_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(r.render().starts_with("# x\nmetric job_p50_ms 1.25 ms\n"));
    }
}
