//! `durable_updates`: the engine API with no SQL. One column of 200,000
//! rows under `attach_durability(dir, 1)`, so every staged update is
//! fsync'd before it applies; counts and staged inserts and deletes from
//! `UpdateHeavy` (two updates per count, in bursts of eight), and a
//! checkpoint after every 1,000 updates. Afterwards the database is
//! dropped and recovered from its directory alone, and must answer as
//! before.

use crate::measure::{
    dir_bytes, median, peak_rss_mib, put_crack_stats, Blocks, Kind, Probe, Tracer,
};
use crate::{Args, Outcome};
use cracker_core::CrackerConfig;
use engine::{AdaptiveDb, OutputMode, RangeQuery, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::Path;
use std::time::Instant;
use workload::{Mqs, Op, Profile, Scenario, SortedOracle, UpdateHeavy, Window};

const TABLE: &str = "t";
const COL: &str = "v";
const N: usize = 200_000;
const CHECKPOINT_EVERY: u64 = 1_000;
/// Group commit of 1: each update is fsync'd before it applies.
const GROUP_COMMIT: usize = 1;
/// Operations a run issues per `--seconds`: about what the workload
/// sustains on a 2-vCPU x86-64 VM. A third are selects.
const OPS_PER_SECOND: u64 = 6_000;
/// Updates per block: one overlay merge cycle at the default merge
/// threshold. Whether a cycle's pending deletes fit the overlay's dense
/// bitmap or spill into its hash side set depends on the first deletes
/// after the merge, and decides how fast every count of the cycle is, so
/// blocks follow cycles and the figures are medians over them.
const BLOCK_UPDATES: u64 = 1_024;
/// Consecutive operations run traced, then as many untraced, in turn.
const TRACE_BLOCK: u64 = 64;
/// Windows the recovery gate asks before and after reopening.
const GATE_WINDOWS: usize = 256;

/// One operation of the timed phase and what it returned.
enum Done {
    Select(Window, Result<u64, String>),
    Insert(u32, i64, Result<(), String>),
    Delete(u32, Result<bool, String>),
    Checkpoint(Result<u64, String>),
}

fn count(db: &mut AdaptiveDb, w: Window) -> Result<u64, String> {
    db.select(&RangeQuery::new(TABLE, COL, w.to_pred()), OutputMode::Count)
        .map(|(_, stats)| stats.result_count)
        .map_err(|e| e.to_string())
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let err = |e: engine::EngineError| e.to_string();
    // The selects hike: windows of the paper's 2% selectivity that drift
    // with growing overlap. A homerun zooms on one random target instead,
    // and where that target lands decides the cost of every select after
    // it (a 4x spread of median select time across seeds).
    let selects = (args.ops(OPS_PER_SECOND) / 3) as usize;
    let mqs = Mqs {
        profile: Profile::Hiking,
        ..Mqs::paper_default(N, selects, 0.02)
    };
    let mut stream = UpdateHeavy::new(mqs, 2.0, 8, args.seed);
    let base = stream.base().to_vec();
    let dir = out_dir.join(format!("durable-{}", std::process::id()));

    // Set-up: load and the initial checkpoint, five times; the median is
    // reported and the last database is kept.
    let mut probe = Probe::new(Probe::buffer());
    let mut times = Vec::new();
    let mut db = None;
    for _ in 0..5 {
        drop(db.take());
        let _ = fs::remove_dir_all(&dir);
        let input = base.clone();
        let t0 = Instant::now();
        let mut d = AdaptiveDb::new();
        d.register(Table::from_int_columns(TABLE, vec![(COL, input)]).map_err(err)?)
            .map_err(err)?;
        d.attach_durability(&dir, GROUP_COMMIT).map_err(err)?;
        times.push(t0.elapsed().as_secs_f64() / probe.factor());
        db = Some(d);
    }
    let mut db = db.expect("five set-ups ran");
    let setup_s = median(times);

    let wall = Instant::now();
    let mut blocks = Blocks::new(u64::MAX, probe);
    let mut tracer = Tracer::new(wall);
    let mut log = Vec::new();
    let mut checkpoints = 0u64;
    let (mut wal_sizes, mut ckpt_sizes) = (Vec::new(), Vec::new());
    let (mut plain, mut traced) = ((0u64, 0u64), (0u64, 0u64));
    let crack_before = db.total_crack_stats();
    let mut updates = 0u64;
    let mut i = 0u64;
    while wall.elapsed() < args.wall_cap() {
        let Some(op) = stream.next() else { break };
        let is_traced = args.trace && (i / TRACE_BLOCK) % 2 == 1;
        let (name, is_read) = match op {
            Op::Select(_) => ("engine.select", true),
            Op::Insert { .. } => ("engine.stage_insert", false),
            Op::Delete { .. } => ("engine.stage_delete", false),
        };
        let t0 = Instant::now();
        let span = is_traced.then(|| tracer.open(name, None, i));
        let done = match op {
            Op::Select(w) => Done::Select(w, count(&mut db, w)),
            Op::Insert { oid, value } => Done::Insert(
                oid,
                value,
                db.stage_insert(TABLE, COL, oid, value).map_err(err),
            ),
            Op::Delete { oid } => Done::Delete(oid, db.stage_delete(TABLE, COL, oid).map_err(err)),
        };
        let ns = match span {
            Some(id) => tracer.close(id),
            None => t0.elapsed().as_nanos() as u64,
        };
        log.push(done);
        i += 1;
        if is_traced {
            traced.0 += 1;
            traced.1 += ns;
        } else {
            plain.0 += 1;
            plain.1 += ns;
            blocks.record(if is_read { Kind::Read } else { Kind::Write }, ns);
        }
        if !is_read {
            updates += 1;
            if updates.is_multiple_of(BLOCK_UPDATES) {
                blocks.end_block();
            }
            if updates.is_multiple_of(CHECKPOINT_EVERY) {
                wal_sizes.push(dir_bytes(&dir).0 as f64);
                let t0 = Instant::now();
                let span = args
                    .trace
                    .then(|| tracer.open("storage.checkpoint", None, i));
                let r = db.checkpoint().map_err(err);
                let ns = match span {
                    Some(id) => tracer.close(id),
                    None => t0.elapsed().as_nanos() as u64,
                };
                blocks.record(Kind::Other, ns);
                checkpoints += 1;
                ckpt_sizes.push(dir_bytes(&dir).1 as f64);
                log.push(Done::Checkpoint(r));
                i += 1;
            }
        }
    }
    let peak = peak_rss_mib();
    let crack = db.total_crack_stats().delta_since(&crack_before);
    let (wal_bytes, other_bytes) = dir_bytes(&dir);

    // Off the clock: replay every operation on the sorted oracle.
    let mut oracle = SortedOracle::new(&base);
    let mut failed = 0u64;
    for done in &log {
        let ok = match done {
            Done::Select(w, r) => *r == Ok(oracle.count(*w) as u64),
            Done::Insert(oid, value, r) => {
                oracle.insert(*oid, *value);
                r.is_ok()
            }
            Done::Delete(oid, r) => *r == Ok(oracle.delete(*oid)),
            Done::Checkpoint(r) => r.is_ok(),
        };
        if !ok {
            failed += 1;
        }
    }

    // The durability gate: drop the database, reopen it from the directory
    // alone, and ask the same windows before and after.
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0xD0_0D);
    let mut gate: Vec<Window> = log
        .iter()
        .rev()
        .filter_map(|d| match d {
            Done::Select(w, _) => Some(*w),
            _ => None,
        })
        .take(GATE_WINDOWS / 2)
        .collect();
    while gate.len() < GATE_WINDOWS {
        let lo = rng.gen_range(1..=N as i64);
        gate.push(Window::new(lo, lo + rng.gen_range(1..=N as i64 / 10)));
    }
    gate.push(Window::new(i64::MIN / 2, i64::MAX / 2));
    let want: Vec<Result<u64, String>> = gate.iter().map(|w| Ok(oracle.count(*w) as u64)).collect();
    let before: Vec<_> = gate.iter().map(|w| count(&mut db, *w)).collect();
    drop(db);
    let t0 = Instant::now();
    let recovered = AdaptiveDb::recover(&dir, CrackerConfig::default(), GROUP_COMMIT);
    let recover_s = t0.elapsed().as_secs_f64();
    let mut out = Outcome {
        attempted: log.len() as u64,
        failed,
        ..Default::default()
    };
    match recovered {
        Ok(mut db) => {
            let after: Vec<_> = gate.iter().map(|w| count(&mut db, *w)).collect();
            let differ =
                |got: &[Result<u64, String>]| got.iter().zip(&want).filter(|(g, w)| g != w).count();
            let (b, a) = (differ(&before), differ(&after));
            if b + a > 0 {
                out.broken_gates.push(format!(
                    "recovery: of {} windows, {b} answered wrongly before the restart and {a} after",
                    gate.len()
                ));
            }
        }
        Err(e) => out.broken_gates.push(format!("recovery: {e}")),
    }
    let _ = fs::remove_dir_all(&dir);

    let live = oracle.len() as f64;
    let disk_per_row = (wal_bytes + other_bytes) as f64 / live;
    let mut q = blocks.summary();
    q.report(&mut out);
    let (write_p50, write_p99) = (q.writes.quantile(0.50), q.writes.quantile(0.99));
    let e = &mut out.end_to_end;
    e.put("setup_s", setup_s, "s");
    e.put("ops_per_s", q.rate(), "1/s");
    e.put("write_p50_us", write_p50, "us");
    e.put("write_p99_us", write_p99, "us");
    e.put("peak_rss_mb", peak, "MiB");
    e.put("disk_bytes_per_row", disk_per_row, "B/row");
    let ok = out.attempted - out.failed;
    e.put("ok_ratio", ok as f64 / out.attempted.max(1) as f64, "ratio");
    out.fact("rows", N as f64);
    out.fact("data_bytes", (N * 8) as f64);
    out.fact("live_rows_at_end", live);
    out.fact("write_samples", q.writes.len() as f64);
    out.fact("checkpoints", checkpoints as f64);

    if args.trace {
        let traced_rate = traced.0 as f64 / (traced.1 as f64 / 1e9);
        let plain_rate = plain.0 as f64 / (plain.1 as f64 / 1e9);
        let mut select = tracer.durations("engine.select");
        let mut ckpt = tracer.durations("storage.checkpoint");
        let l = &mut out.per_layer;
        l.put("engine.select_p50_us", select.quantile(0.50), "us");
        l.put("engine.select_p99_us", select.quantile(0.99), "us");
        l.put(
            "engine.stage_insert_us",
            tracer.durations("engine.stage_insert").quantile(0.5),
            "us",
        );
        l.put(
            "engine.stage_delete_us",
            tracer.durations("engine.stage_delete").quantile(0.5),
            "us",
        );
        l.put("storage.checkpoint_p50_us", ckpt.quantile(0.5), "us");
        l.put("storage.checkpoint_total_us", ckpt.sum(), "us");
        // Checkpoint footprint just after each checkpoint; log bytes one
        // checkpoint interval wrote, just before the next.
        l.put("storage.checkpoint_bytes", median(ckpt_sizes), "B");
        l.put("storage.wal_bytes", median(wal_sizes), "B");
        l.put("storage.recover_s", recover_s, "s");
        put_crack_stats(l, &crack);
        l.put("trace.overhead", 1.0 - traced_rate / plain_rate, "ratio");
        let path = out_dir.join("spans-durable_updates.tsv");
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.fact("recover_s", recover_s);
    Ok(out)
}
