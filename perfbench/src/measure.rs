//! Measurement primitives: the span tracer, percentiles, process
//! counters read from `/proc`, a bitwise frame hash for the output
//! checks, and the seeded generators every workload draws from.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use paradise_engine::{DataType, Frame, Schema, Value};

/// One timed call into a layer: name, interval, causing span, cycle.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cycle: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder. Spans are only recorded while `enabled`;
/// a disabled tracer costs one branch per boundary.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    cycle: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            cycle: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Record (or stop recording) the spans that follow, attributing
    /// them to `cycle`.
    pub fn set(&mut self, enabled: bool, cycle: u64) {
        self.enabled = enabled;
        self.cycle = cycle;
    }

    pub fn begin(&mut self, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let span = Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cycle: self.cycle,
        };
        self.spans.push(span);
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        // spans close innermost-first; tolerate a skipped close
        if let Some(pos) = self.open.iter().rposition(|&open| open == id) {
            self.open.truncate(pos);
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Per-name span statistics: durations and self times (the span minus
/// the time its child spans cover), both in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct SpanSummary {
    pub durations: Vec<f64>,
    pub self_times: Vec<f64>,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<String, SpanSummary> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<String, SpanSummary> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name.clone()).or_default();
        entry.durations.push(span.duration_ns() as f64 / 1e6);
        entry
            .self_times
            .push(span.duration_ns().saturating_sub(children) as f64 / 1e6);
    }
    out
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed by all threads of this process, in ms
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time the host steals from the guest
/// and time spent blocked are not counted.
pub fn process_cpu_ms() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the
    // kernel defines; `clock_gettime` writes only through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Busy-wait for `d`: the self-check's injected delay
/// must occupy the cycle the way real work would.
pub fn spin_for(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// splitmix64 step — every seeded draw of the benchmark goes through it.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of stream `stream` at cycle `cycle` of a run seeded `seed`.
pub fn derive(seed: u64, stream: u64, cycle: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ cycle)
}

/// A `(uid, v)` user batch whose uids are drawn uniformly from a fixed
/// population `0..users`, so the set of live groups — and with it the
/// released frame — stays the same size over the whole run.
pub fn user_batch(seed: u64, rows: usize, users: u64) -> Frame {
    let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)]);
    let mut s = seed;
    let data = (0..rows)
        .map(|_| {
            s = mix(s);
            let uid = (s % users) as i64;
            s = mix(s);
            vec![Value::Int(uid), Value::Int((s % 100) as i64)]
        })
        .collect();
    Frame::new(schema, data).expect("generated rows match the schema")
}

/// FNV-1a over a frame's schema and every value's bits: two frames
/// hash equal only if they are bitwise identical (up to collisions).
pub fn frame_hash(frame: &Frame) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(format!("{:?}", frame.schema).as_bytes());
    eat(&(frame.len() as u64).to_le_bytes());
    for row in frame.iter_rows() {
        for value in row {
            match value {
                Value::Null => eat(&[0]),
                Value::Bool(b) => eat(&[1, u8::from(b)]),
                Value::Int(i) => {
                    eat(&[2]);
                    eat(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    eat(&[3]);
                    eat(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[4]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0f64], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.set(true, 3);
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        spin_for(Duration::from_millis(2));
        tr.end(inner);
        tr.end(outer);
        tr.set(false, 4);
        tr.time("ignored", || ());
        let summary = summarize(tr.spans());
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].cycle, 3);
        let outer = &summary["outer"];
        let inner = &summary["inner"];
        assert!(inner.durations[0] >= 2.0);
        assert!((outer.self_times[0] - (outer.durations[0] - inner.durations[0])).abs() < 1e-9);
        assert_eq!(inner.self_times[0], inner.durations[0]);
    }

    #[test]
    fn frame_hash_sees_every_bit() {
        let a = user_batch(1, 50, 10);
        assert_eq!(frame_hash(&a), frame_hash(&user_batch(1, 50, 10)));
        assert_ne!(frame_hash(&a), frame_hash(&user_batch(2, 50, 10)));
        let floats = |z: f64| {
            let schema = Schema::from_pairs(&[("z", DataType::Float)]);
            Frame::new(schema, vec![vec![Value::Float(1.5)], vec![Value::Float(z)]]).unwrap()
        };
        // equal under `==`, different bits
        assert_ne!(frame_hash(&floats(0.0)), frame_hash(&floats(-0.0)));
    }

    #[test]
    fn user_batches_stay_in_the_population() {
        let batch = user_batch(9, 1_000, 500);
        for v in batch.column_values(0) {
            let Value::Int(uid) = v else {
                panic!("uid is an integer")
            };
            assert!((0..500).contains(&uid));
        }
        assert_eq!(batch.len(), 1_000);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_ms();
        spin_for(Duration::from_millis(30));
        // milliseconds, and it moves (other test threads may hold the CPU)
        assert!(process_cpu_ms() - before > 1.0);
    }
}
