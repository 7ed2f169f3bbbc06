//! `latched_read_2c`: two client threads share one latched cracked column
//! (`Sharded { shards: 64 }`, 4,000,000 Zipf-skewed rows) and each runs a
//! closed loop of `ZipfQueries` counts. The column only answers reads, so
//! every answer is fixed whatever the interleaving.

use crate::measure::{median, peak_rss_mib, put_crack_stats, Blocks, Kind, Probe, Summary, Tracer};
use crate::{Args, Outcome};
use engine::{AdaptiveDb, ConcurrencyMode, ConcurrentColumn, Table};
use std::path::Path;
use std::time::Instant;
use workload::{Op, Scenario, SortedOracle, Window, ZipfQueries};

const TABLE: &str = "t";
const COL: &str = "v";
const N: usize = 4_000_000;
const DOMAIN: usize = 1_000_000;
const SKEW: f64 = 1.1;
const SHARDS: usize = 64;
/// Client threads: one per core of a 2-vCPU host.
const CLIENTS: usize = 2;
/// Windows each client cycles through; the first pass over them (about a
/// tenth of a run's counts) is where the cracks happen.
const WINDOWS_PER_CLIENT: usize = 500_000;
/// Counts each client issues per `--seconds`: about what one client
/// sustains beside the other on a 2-vCPU x86-64 VM.
const OPS_PER_SECOND: u64 = 360_000;
/// Counts per block, of which every `SAMPLE_EVERY`-th is timed alone.
const BLOCK_OPS: u64 = 1 << 16;
/// Latency of every 16th count is kept.
const SAMPLE_EVERY: u64 = 16;
/// Operations come in blocks of 64; one block in `TRACE_STRIDE` is traced,
/// which keeps the spans of a run of tens of millions of counts in memory.
const TRACE_BLOCK: u64 = 64;
const TRACE_STRIDE: u64 = 16;

/// One client's loop, and what it saw.
struct Client {
    /// The first answer to each window, and how often the window ran.
    first: Vec<Option<usize>>,
    runs: Vec<u64>,
    /// Per window, answers that differed from its first answer.
    changed: Vec<u64>,
    plain: (u64, u64),
    traced: (u64, u64),
    tracer: Tracer,
    blocks: Blocks,
}

fn client(col: &ConcurrentColumn<i64>, windows: &[Window], args: &Args, probe: Probe) -> Client {
    let target = args.ops(OPS_PER_SECOND);
    let cap = args.wall_cap().as_nanos() as u64;
    let start = Instant::now();
    let mut c = Client {
        first: vec![None; windows.len()],
        runs: vec![0; windows.len()],
        changed: vec![0; windows.len()],
        plain: (0, 0),
        traced: (0, 0),
        tracer: Tracer::new(start),
        blocks: Blocks::new(BLOCK_OPS, probe).sampling(SAMPLE_EVERY),
    };
    let mut i = 0u64;
    loop {
        let slot = i as usize % windows.len();
        let pred = windows[slot].to_pred();
        let traced = args.trace && (i / TRACE_BLOCK) % TRACE_STRIDE == 1;
        let (n, ns) = if traced {
            let span = c.tracer.open("latch.count", None, i);
            let n = col.count(pred);
            (n, c.tracer.close(span))
        } else {
            let t0 = Instant::now();
            let n = col.count(pred);
            (n, t0.elapsed().as_nanos() as u64)
        };
        if traced {
            c.traced.0 += 1;
            c.traced.1 += ns;
        } else {
            c.plain.0 += 1;
            c.plain.1 += ns;
            c.blocks.record(Kind::Read, ns);
        }
        c.runs[slot] += 1;
        match c.first[slot] {
            None => c.first[slot] = Some(n),
            Some(f) if f != n => c.changed[slot] += 1,
            Some(_) => {}
        }
        i += 1;
        if i == target || (i.is_multiple_of(64) && start.elapsed().as_nanos() as u64 >= cap) {
            break;
        }
    }
    c
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let err = |e: engine::EngineError| e.to_string();
    let mut zipf = ZipfQueries::new(N, DOMAIN, SKEW, CLIENTS * WINDOWS_PER_CLIENT, args.seed);
    let base = zipf.base().to_vec();
    let windows: Vec<Window> = zipf
        .by_ref()
        .map(|op| match op {
            Op::Select(w) => w,
            _ => unreachable!("ZipfQueries only selects"),
        })
        .collect();
    drop(zipf);
    let per_client: Vec<Vec<Window>> = (0..CLIENTS)
        .map(|c| windows.iter().skip(c).step_by(CLIENTS).copied().collect())
        .collect();

    // Set-up: load and build the shared latched column, three times; the
    // median is reported and the last database is kept.
    let buffer = Probe::buffer();
    let mut probe = Probe::new(buffer.clone());
    let mut times = Vec::new();
    let mut db = None;
    for _ in 0..3 {
        drop(db.take());
        let input = base.clone();
        let t0 = Instant::now();
        let mut d = AdaptiveDb::new().with_concurrency(ConcurrencyMode::Sharded { shards: SHARDS });
        d.register(Table::from_int_columns(TABLE, vec![(COL, input)]).map_err(err)?)
            .map_err(err)?;
        d.shared_cracker(TABLE, COL).map_err(err)?;
        times.push(t0.elapsed().as_secs_f64() / probe.factor());
        db = Some(d);
    }
    let mut db = db.expect("three set-ups ran");
    let setup_s = median(times);
    let col = db.shared_cracker(TABLE, COL).map_err(err)?;
    let stats_before = col.stats();

    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|w| {
                let probe = Probe::new(buffer.clone());
                s.spawn(move || client(col, w, args, probe))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let peak = peak_rss_mib();
    let crack = col.stats().delta_since(&stats_before);

    // Off the clock: the first answer to every window against the sorted
    // oracle; every later answer had to equal the first. When the first
    // is wrong, every answer to that window counts as failed.
    let oracle = SortedOracle::new(&base);
    let mut out = Outcome::default();
    for (c, windows) in clients.iter().zip(&per_client) {
        out.attempted += c.plain.0 + c.traced.0;
        for (slot, w) in windows.iter().enumerate() {
            match c.first[slot] {
                Some(n) if n != oracle.count(*w) => out.failed += c.runs[slot],
                _ => out.failed += c.changed[slot],
            }
        }
    }

    let mut tracer = Tracer::new(Instant::now());
    let mut mean_ns = Vec::new();
    let (mut rate, mut summary) = (0.0, Summary::default());
    let (mut plain, mut traced) = ((0u64, 0u64), (0u64, 0u64));
    for c in clients {
        mean_ns.push(c.plain.1 as f64 / c.plain.0.max(1) as f64);
        plain = (plain.0 + c.plain.0, plain.1 + c.plain.1);
        traced = (traced.0 + c.traced.0, traced.1 + c.traced.1);
        let s = c.blocks.summary();
        rate += s.rate();
        summary.absorb(s);
        tracer.absorb(c.tracer);
    }
    summary.report(&mut out);
    let e = &mut out.end_to_end;
    e.put("setup_s", setup_s, "s");
    e.put("ops_per_s", rate, "1/s");
    e.put("peak_rss_mb", peak, "MiB");
    let ok = out.attempted - out.failed;
    e.put("ok_ratio", ok as f64 / out.attempted.max(1) as f64, "ratio");
    out.fact("rows", N as f64);
    out.fact("data_bytes", (N * 8) as f64);
    out.fact("clients", CLIENTS as f64);

    if args.trace {
        let mut count = tracer.durations("latch.count");
        let mean = mean_ns.iter().sum::<f64>() / mean_ns.len() as f64;
        let slowest = mean_ns.iter().copied().fold(0.0, f64::max);
        let rate = |(ops, ns): (u64, u64)| ops as f64 / (ns as f64 / 1e9);
        let l = &mut out.per_layer;
        l.put("latch.count_p50_us", count.quantile(0.50), "us");
        l.put("latch.count_p99_us", count.quantile(0.99), "us");
        l.put("latch.thread_skew", slowest / mean, "ratio");
        put_crack_stats(l, &crack);
        l.put("trace.overhead", 1.0 - rate(traced) / rate(plain), "ratio");
        let path = out_dir.join("spans-latched_read_2c.tsv");
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}
