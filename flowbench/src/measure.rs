//! Timing primitives shared by every workload: the seeded generator,
//! sample statistics, process CPU time, and the span recorder behind
//! the traced run.

use std::collections::BTreeMap;
use std::time::Instant;

use emx_obs::{Collector, SpanId, Track};

/// SplitMix64: small, seedable and identical on every platform, so one
/// `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// Nearest-rank quantile of `samples` (`q` in `0..=1`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// CPU seconds (user + system) consumed so far by this process, all
/// threads included, read from `/proc/self/stat` (clock ticks of
/// 1/100 s, the fixed Linux `USER_HZ`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may contain spaces; fields
    // after it are space-separated, utime and stime being the 12th and
    // 13th of them.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Layer times and counts of one traced operation.
#[derive(Default)]
pub struct OpRecord {
    pub total_ms: f64,
    /// Top-level layers, in first-entered order. They do not overlap, so
    /// their sum plus the unattributed remainder is `total_ms`.
    pub layers: Vec<(&'static str, f64)>,
    /// Sub-layer figures (times inside a layer, counts, ratios).
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Records spans around the benchmark's calls into each layer. A
/// disabled tracer runs every closure bare: no clock reads, no spans.
pub struct Tracer {
    enabled: bool,
    obs: Collector,
    track: Track,
    current: OpRecord,
    /// One record per traced operation.
    pub ops: Vec<OpRecord>,
    /// Figures recorded outside any operation (set-up and probes).
    pub setup: BTreeMap<&'static str, f64>,
    in_op: bool,
    op_span: Option<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            obs: if enabled {
                Collector::new()
            } else {
                Collector::disabled()
            },
            track: Track::Host,
            current: OpRecord::default(),
            ops: Vec::new(),
            setup: BTreeMap::new(),
            in_op: false,
            op_span: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread, sharing this one's clock origin and
    /// recording on its own request lane.
    pub fn child(&self, lane: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            obs: self.obs.fork(),
            track: Track::Request(lane),
            current: OpRecord::default(),
            ops: Vec::new(),
            setup: BTreeMap::new(),
            in_op: false,
            op_span: None,
        }
    }

    /// Folds a child tracer's operations and spans back into this one.
    pub fn absorb(&mut self, child: Tracer) {
        self.ops.extend(child.ops);
        self.obs.absorb(child.obs);
    }

    /// Enables or disables recording from here on (the traced run times
    /// an untraced phase first, to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin_op(&mut self, name: &'static str) {
        self.in_op = true;
        self.current = OpRecord::default();
        if self.enabled {
            self.op_span = Some(self.obs.begin_on(name, self.track));
        }
    }

    pub fn end_op(&mut self, total_ms: f64) {
        self.in_op = false;
        if let Some(span) = self.op_span.take() {
            self.obs.end(span);
        }
        if self.enabled {
            let mut record = std::mem::take(&mut self.current);
            record.total_ms = total_ms;
            self.ops.push(record);
        }
    }

    /// Runs `f` as the layer `name`, adding its wall time to the current
    /// operation (or to the set-up figures outside one).
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let span = self.obs.begin_on(name, self.track);
        let start = Instant::now();
        let out = f();
        let ms = ms_since(start);
        self.obs.end(span);
        if self.in_op {
            match self.current.layers.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += ms,
                None => self.current.layers.push((name, ms)),
            }
        } else {
            *self.setup.entry(name).or_default() += ms;
        }
        out
    }

    /// Adds `value` to the figure `name` of the current operation (or of
    /// set-up outside one).
    pub fn add(&mut self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        let map = if self.in_op {
            &mut self.current.metrics
        } else {
            &mut self.setup
        };
        *map.entry(name).or_default() += value;
    }

    /// The figure `name` for the report: its mean per traced operation
    /// when operations recorded it, else its set-up value, else 0 (the
    /// workload never enters that layer).
    pub fn figure(&self, name: &str) -> f64 {
        let per_op: Vec<f64> = self
            .ops
            .iter()
            .filter_map(|op| {
                op.metrics.get(name).copied().or_else(|| {
                    op.layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, ms)| *ms)
                })
            })
            .collect();
        if !per_op.is_empty() {
            // Mean over all traced operations, so layer means add up to
            // the mean operation time.
            return per_op.iter().sum::<f64>() / self.ops.len() as f64;
        }
        self.setup.get(name).copied().unwrap_or(0.0)
    }

    /// Mean time per traced operation, and the mean of each top-level
    /// layer, in first-entered order.
    pub fn layer_table(&self) -> (f64, Vec<(&'static str, f64)>) {
        let n = self.ops.len().max(1) as f64;
        let mut table: Vec<(&'static str, f64)> = Vec::new();
        for op in &self.ops {
            for &(name, ms) in &op.layers {
                match table.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += ms,
                    None => table.push((name, ms)),
                }
            }
        }
        for (_, total) in &mut table {
            *total /= n;
        }
        let total = self.ops.iter().map(|op| op.total_ms).sum::<f64>() / n;
        (total, table)
    }

    pub fn collector(&self) -> &Collector {
        &self.obs
    }
}
