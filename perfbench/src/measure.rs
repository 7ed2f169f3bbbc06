//! Measuring tools shared by the workloads: latency samples, an in-memory
//! span recorder, metric lists and the few facts read from the host.

use cracker_core::CrackStats;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-call latencies in microseconds.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns as f64 / 1_000.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn extend_scaled(&mut self, other: Samples, by: f64) {
        self.0.extend(other.0.into_iter().map(|v| v * by));
    }

    /// Nearest-rank quantile, `q` in `(0, 1]`; 0 when there are no samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable_by(f64::total_cmp);
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// What a timed operation was, for the latency it adds to.
pub enum Kind {
    Read,
    Write,
    Other,
}

/// The probe time on a quiet 2-vCPU x86-64 VM; time metrics are scaled to
/// it.
const NOMINAL_PROBE_NS: f64 = 1_000_000.0;

/// A fixed piece of the harness's own work that stands for the host's
/// speed at the moment: random reads over a 16 MB buffer, partitions of a
/// 512 KB array, and a copy into a fresh 2 MB allocation.
///
/// The host is shared, and its other tenants slow memory- and cache-bound
/// code by up to 2x, in bursts of a fraction of a second to minutes. A
/// reference loop of this kind slows with it, while code of the program
/// is not in it. So the benchmark runs the probe after every block of
/// operations and scales the block's time by `NOMINAL_PROBE_NS / probe`:
/// the time metrics read as on a quiet host, and a change to the program
/// still moves them in full.
pub struct Probe {
    gather: Arc<Vec<u64>>,
    part: Vec<u64>,
    x: u64,
}

impl Probe {
    /// The read-only buffer probes gather from; threads share one.
    pub fn buffer() -> Arc<Vec<u64>> {
        Arc::new(
            (0..2u64 << 20)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        )
    }

    pub fn new(gather: Arc<Vec<u64>>) -> Self {
        Probe {
            gather,
            part: (0..1u64 << 16)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            x: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Nanoseconds of the fastest of three probe passes, after a warm-up
    /// pass so the caches the program left behind do not count.
    pub fn measure(&mut self) -> u64 {
        self.pass();
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                self.pass();
                t0.elapsed().as_nanos() as u64
            })
            .min()
            .expect("three passes")
    }

    fn pass(&mut self) {
        let mut acc = 0u64;
        let n = self.gather.len() as u64;
        for _ in 0..40_000 {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            acc = acc.wrapping_add(self.gather[(self.x % n) as usize]);
        }
        for _ in 0..4 {
            let s = &mut self.part[..];
            let pivot = s[(self.x % s.len() as u64) as usize];
            let (mut i, mut j) = (0, s.len() - 1);
            while i < j {
                if s[i] < pivot {
                    i += 1;
                } else {
                    s.swap(i, j);
                    j -= 1;
                }
            }
            self.x = self.x.wrapping_add(acc | 1);
        }
        // A fresh allocation, as the program's large buffers are: its pages
        // fault in as the copy first touches them.
        let copy = self.gather[..1 << 18].to_vec();
        std::hint::black_box((acc, copy));
    }

    /// How much slower than nominal the host is right now.
    pub fn factor(&mut self) -> f64 {
        self.measure() as f64 / NOMINAL_PROBE_NS
    }
}

/// One client's timed operations, cut into blocks of a fixed number of
/// operations, each followed (off the clock) by a probe of the host.
pub struct Blocks {
    size: u64,
    sample_every: u64,
    seen: u64,
    probe: Probe,
    current: Block,
    done: Vec<Block>,
}

#[derive(Default)]
struct Block {
    ops: u64,
    ns: u64,
    factor: f64,
    reads: Samples,
    writes: Samples,
}

/// Time metrics of a client's blocks, each block scaled to a quiet host
/// by the probe that followed it.
#[derive(Default)]
pub struct Summary {
    /// Operations, and their time inside the program in nanoseconds:
    /// unscaled and scaled.
    ops: u64,
    raw_ns: f64,
    scaled_ns: f64,
    /// Per block: probe time in nanoseconds.
    probes: Vec<f64>,
    /// Per block: median read latency, and the number of reads behind it.
    read_p50: Vec<f64>,
    reads_per_block: Vec<f64>,
    /// Read and write latencies of all blocks.
    reads: Samples,
    pub writes: Samples,
}

impl Summary {
    /// Operations per scaled second inside the program.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / (self.scaled_ns / 1e9)
    }

    pub fn absorb(&mut self, other: Summary) {
        self.ops += other.ops;
        self.raw_ns += other.raw_ns;
        self.scaled_ns += other.scaled_ns;
        self.probes.extend(other.probes);
        self.read_p50.extend(other.read_p50);
        self.reads_per_block.extend(other.reads_per_block);
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
    }

    /// Read latencies every workload reports, and the facts behind the
    /// figures for the run record. The median is the median over blocks
    /// of each block's median; the 99th percentile is over all reads.
    pub fn report(&mut self, out: &mut crate::Outcome) {
        let e = &mut out.end_to_end;
        e.put("read_p50_us", median(self.read_p50.clone()), "us");
        e.put("read_p99_us", self.reads.quantile(0.99), "us");
        out.fact("read_samples", self.reads.len() as f64);
        out.fact("blocks", self.probes.len() as f64);
        out.fact("probe_ms", median(self.probes.clone()) / 1e6);
        out.fact("unscaled_ops_per_s", self.ops as f64 / (self.raw_ns / 1e9));
        out.fact(
            "reads_per_block_min",
            self.reads_per_block
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
        );
    }
}

impl Blocks {
    pub fn new(size: u64, probe: Probe) -> Self {
        Blocks {
            size,
            sample_every: 1,
            seen: 0,
            probe,
            current: Block::default(),
            done: Vec::new(),
        }
    }

    /// Keep the latency of every `every`-th operation only, for loops that
    /// run too many operations to keep them all.
    pub fn sampling(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }

    /// Adds one operation that took `ns`; runs the probe when the block
    /// is full.
    pub fn record(&mut self, kind: Kind, ns: u64) {
        let b = &mut self.current;
        b.ops += 1;
        b.ns += ns;
        if self.seen.is_multiple_of(self.sample_every) {
            match kind {
                Kind::Read => b.reads.push_ns(ns),
                Kind::Write => b.writes.push_ns(ns),
                Kind::Other => {}
            }
        }
        self.seen += 1;
        if b.ops >= self.size {
            self.end_block();
        }
    }

    /// Closes the current block early, for workloads whose blocks follow
    /// an event rather than an operation count.
    pub fn end_block(&mut self) {
        self.current.factor = self.probe.factor();
        self.done.push(std::mem::take(&mut self.current));
    }

    /// Every whole block (the partial last block counts only when no
    /// block completed).
    pub fn summary(mut self) -> Summary {
        if self.done.is_empty() {
            self.current.factor = self.probe.factor();
            self.done.push(self.current);
        }
        let mut s = Summary::default();
        for mut b in self.done {
            s.ops += b.ops;
            s.raw_ns += b.ns as f64;
            s.scaled_ns += b.ns as f64 / b.factor;
            s.probes.push(b.factor * NOMINAL_PROBE_NS);
            s.read_p50.push(b.reads.quantile(0.50) / b.factor);
            s.reads_per_block.push(b.reads.len() as f64);
            s.reads.extend_scaled(b.reads, 1.0 / b.factor);
            s.writes.extend_scaled(b.writes, 1.0 / b.factor);
        }
        s
    }
}

/// One timed interval around a call into the program.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// The harness operation the span belongs to.
    pub op: u64,
}

/// Keeps spans in memory; they are written out once the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of the spans called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push_ns(s.end_ns - s.start_ns);
        }
        out
    }

    /// Writes the spans as tab-separated lines: op, id, parent (or -),
    /// name, start and end in nanoseconds since the run started.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("op\tid\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        fs::write(path, text)
    }
}

/// Metric name, value and unit, in the order they are reported.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// The crack counters of the core and the overlay, as per-layer metrics.
pub fn put_crack_stats(l: &mut Metrics, s: &CrackStats) {
    l.put("core.cracks", s.cracks as f64, "count");
    l.put("core.tuples_touched", s.tuples_touched as f64, "count");
    l.put("core.tuples_moved", s.tuples_moved as f64, "count");
    l.put("core.edge_scanned", s.edge_scanned as f64, "count");
    l.put("core.fusions", s.fusions as f64, "count");
    l.put("overlay.merges", s.merges as f64, "count");
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total bytes of the regular files directly inside `dir`, split into
/// redo-log files (`wal.*`) and everything else.
pub fn dir_bytes(dir: &Path) -> (u64, u64) {
    let (mut wal, mut other) = (0, 0);
    if let Ok(entries) = fs::read_dir(dir) {
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            if e.file_name().to_string_lossy().starts_with("wal.") {
                wal += meta.len();
            } else {
                other += meta.len();
            }
        }
    }
    (wal, other)
}

/// Median of a few values; 0 when there are none.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    values[values.len() / 2]
}

/// An order-independent digest of a multiset of rows, so the harness can
/// compare an answer with its reference whatever order the rows come in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RowDigest {
    pub rows: u64,
    pub hash: u64,
}

impl RowDigest {
    pub fn add_row(&mut self, row: &[i64]) {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for &v in row {
            h = mix(h ^ v as u64);
        }
        self.rows += 1;
        self.hash = self.hash.wrapping_add(h);
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
