//! Host clock, host-speed calibration, and the in-memory span recorder
//! behind `--trace 1`.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the simulator is
//! instrumented. They stay in memory and are written once, at exit, as
//! Chrome Trace Event JSON (opens in Perfetto or `chrome://tracing`).

use std::hint::black_box;
use std::time::Instant;

/// The host's monotonic clock. Every host-time number the benchmark
/// reports starts from a reading taken here.
pub(crate) fn now() -> Instant {
    // ccsim-lint: allow(wall-clock): the benchmark measures host time on purpose; no reading reaches a simulation input
    // ccsim-lint: allow(determinism-taint): readings only become reported durations, never job inputs or output digests
    Instant::now()
}

/// Run `f` once, returning its result and how long it took in seconds.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median duration of [`Calibration::run_ms`] between jobs on the host the
/// benchmark was defined on (2 vCPUs of an Intel Xeon at 2.0 GHz), in ms.
pub(crate) const CALIBRATION_NOMINAL_MS: f64 = 8.4;

/// A fixed kernel that uses no simulator code: random read-modify-writes
/// over a 4 MB table, memory-latency bound like the simulator's directory,
/// cache and trace walks. On a shared machine the host's speed drifts by
/// tens of percent over seconds; this kernel, timed between jobs, tracks
/// that drift, and no change to the simulator can move it. Host times
/// scaled by `CALIBRATION_NOMINAL_MS / run_ms()` read as milliseconds at
/// the reference speed. The table is allocated once, so it adds a constant
/// 4 MB to the process's resident memory.
pub(crate) struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    const SLOTS: usize = 1 << 19;

    pub(crate) fn new() -> Calibration {
        let mut c = Calibration {
            table: vec![0; Self::SLOTS],
        };
        c.run_ms();
        c
    }

    /// Run the kernel once; its duration in ms.
    pub(crate) fn run_ms(&mut self) -> f64 {
        let table = &mut self.table;
        timed(|| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..2_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut table[x as usize & (Self::SLOTS - 1)];
                *slot = slot.wrapping_add(i);
            }
            black_box(&table[0]);
        })
        .0 * 1e3
    }
}

/// One closed span: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Debug)]
pub(crate) struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The timed job this span belongs to (`None` for the layer pass).
    pub job: Option<u64>,
}

/// Records nested spans while enabled; a disabled tracer only runs the
/// closures, reading no clock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: None,
        }
    }

    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag the spans opened from now on with a job id.
    pub(crate) fn set_job(&mut self, job: Option<u64>) {
        self.job = job;
    }

    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.elapsed_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.elapsed_ns();
        r
    }

    /// Close every span a panicking job left open, at the current time.
    pub(crate) fn close_abandoned(&mut self) {
        let t = self.elapsed_ns();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = t;
        }
    }

    /// The spans as a Chrome Trace Event document: one complete (`"X"`)
    /// event per span, timestamps in microseconds, with the span id, its
    /// parent's id (-1 at the root) and the job id in `args`.
    pub(crate) fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let job = s.job.map_or(-1, |j| j as i64);
            out.push_str(&format!(
                "{{\"name\":{:?},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{job}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_job() {
        let mut tr = Tracer::new(true);
        tr.set_job(Some(7));
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].job, Some(7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 3), 3);
        assert!(tr.spans().is_empty());
    }
}
