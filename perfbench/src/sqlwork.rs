//! The two SQL workloads: `sql_explore` (reads only, 2M rows) and
//! `sql_ingest` (reads beside INSERT and DELETE, 200k rows). Both send
//! statement text to one `SqlSession` over `t(k, a, b, c)`.

use crate::measure::{
    median, peak_rss_mib, put_crack_stats, Blocks, Kind, Probe, RowDigest, Samples, Tracer,
};
use crate::{Args, Outcome};
use cracker_core::CrackStats;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sql::{QueryOutput, SqlResult, SqlSession};
use std::path::Path;
use std::time::Instant;
use workload::{Op, Scenario, Shift, ShiftingHotSet, Tapestry};

const TABLE: &str = "t";
/// Statements between jumps of the hot set to new territory.
const HOT_PERIOD: usize = 2_000;
/// Consecutive operations run traced, then as many untraced, in turn.
const TRACE_BLOCK: u64 = 64;
/// Salts separating the harness's random streams from the data seed.
const B_SALT: u64 = 0xB0B0_0001;
const C_SALT: u64 = 0xC0C0_0002;
const MIX_SALT: u64 = 0x3113_0003;
/// Rows per INSERT statement in `sql_ingest`.
const INSERT_ROWS: usize = 32;
/// Width of a `sql_ingest` DELETE range: ~20 rows of 200k.
const DELETE_WIDTH: i64 = 20;
/// Statements a run issues per `--seconds`: about what each workload
/// sustains on a 2-vCPU x86-64 VM.
const EXPLORE_OPS_PER_SECOND: u64 = 12_000;
const INGEST_OPS_PER_SECOND: u64 = 600;
/// `sql_ingest` statements per block: one cycle of its statement mix.
const INGEST_BLOCK: u64 = 200;

/// One generated statement. Bounds are inclusive, as in SQL `BETWEEN`.
#[derive(Clone, Debug)]
enum Stmt {
    Count {
        lo: i64,
        hi: i64,
    },
    Sum {
        lo: i64,
        hi: i64,
        blo: i64,
        bhi: i64,
    },
    Project {
        lo: i64,
        hi: i64,
    },
    Insert(Vec<[i64; 4]>),
    Delete {
        lo: i64,
        hi: i64,
    },
}

impl Stmt {
    fn sql(&self) -> String {
        match self {
            Stmt::Count { lo, hi } => {
                format!("select count(*) from {TABLE} where a between {lo} and {hi}")
            }
            Stmt::Sum { lo, hi, blo, bhi } => format!(
                "select sum(c) from {TABLE} where a between {lo} and {hi} and b between {blo} and {bhi}"
            ),
            Stmt::Project { lo, hi } => {
                format!("select c from {TABLE} where b between {lo} and {hi}")
            }
            Stmt::Insert(rows) => {
                let values: Vec<String> = rows
                    .iter()
                    .map(|[k, a, b, c]| format!("({k}, {a}, {b}, {c})"))
                    .collect();
                format!("insert into {TABLE} values {}", values.join(", "))
            }
            Stmt::Delete { lo, hi } => {
                format!("delete from {TABLE} where a between {lo} and {hi}")
            }
        }
    }

    fn is_read(&self) -> bool {
        matches!(
            self,
            Stmt::Count { .. } | Stmt::Sum { .. } | Stmt::Project { .. }
        )
    }

    fn span_name(&self) -> &'static str {
        match self {
            Stmt::Insert(_) => "sql.insert",
            Stmt::Delete { .. } => "sql.delete",
            _ => "sql.execute",
        }
    }
}

/// What a statement returned, reduced to what the check needs.
#[derive(Debug, PartialEq, Eq)]
enum Answer {
    Rows(RowDigest),
    Message(String),
    Error(String),
}

fn answer(result: SqlResult<QueryOutput>) -> Answer {
    match result {
        Ok(QueryOutput::Table { rows, .. }) => Answer::Rows(digest(rows.iter().map(Vec::as_slice))),
        Ok(QueryOutput::Affected { message }) => Answer::Message(message),
        Err(e) => Answer::Error(e.to_string()),
    }
}

fn digest<'a>(rows: impl Iterator<Item = &'a [i64]>) -> RowDigest {
    let mut d = RowDigest::default();
    for row in rows {
        d.add_row(row);
    }
    d
}

/// The harness's own copy of `t`, column by column.
#[derive(Clone)]
struct Cols {
    k: Vec<i64>,
    a: Vec<i64>,
    b: Vec<i64>,
    c: Vec<i64>,
}

impl Cols {
    /// `a` and `b` are permutations of `1..=n`; `c` is uniform in
    /// `0..1000`; `k` numbers the rows.
    fn generate(hot: &ShiftingHotSet, seed: u64) -> Cols {
        let n = hot.base().len();
        let mut rng = SmallRng::seed_from_u64(seed ^ C_SALT);
        Cols {
            k: (0..n as i64).collect(),
            a: hot.base().to_vec(),
            b: Tapestry::generate(n, 1, seed ^ B_SALT).column(0).to_vec(),
            c: (0..n).map(|_| rng.gen_range(0..1000)).collect(),
        }
    }

    fn len(&self) -> usize {
        self.a.len()
    }

    fn named(&self) -> Vec<(String, Vec<i64>)> {
        vec![
            ("k".into(), self.k.clone()),
            ("a".into(), self.a.clone()),
            ("b".into(), self.b.clone()),
            ("c".into(), self.c.clone()),
        ]
    }

    /// The reference answer by a scan of every row.
    fn scan(&self, stmt: &Stmt) -> RowDigest {
        let within = |v: i64, lo: i64, hi: i64| lo <= v && v <= hi;
        let mut d = RowDigest::default();
        match *stmt {
            Stmt::Count { lo, hi } => {
                let n = self.a.iter().filter(|&&v| within(v, lo, hi)).count();
                d.add_row(&[n as i64]);
            }
            Stmt::Sum { lo, hi, blo, bhi } => {
                let s: i64 = (0..self.len())
                    .filter(|&i| within(self.a[i], lo, hi) && within(self.b[i], blo, bhi))
                    .map(|i| self.c[i])
                    .sum();
                d.add_row(&[s]);
            }
            Stmt::Project { lo, hi } => {
                for i in 0..self.len() {
                    if within(self.b[i], lo, hi) {
                        d.add_row(&[self.c[i]]);
                    }
                }
            }
            Stmt::Insert(_) | Stmt::Delete { .. } => unreachable!("not a read"),
        }
        d
    }

    /// Applies a write; returns the message the session must have given.
    fn apply(&mut self, stmt: &Stmt) -> String {
        match stmt {
            Stmt::Insert(rows) => {
                for &[k, a, b, c] in rows {
                    self.k.push(k);
                    self.a.push(a);
                    self.b.push(b);
                    self.c.push(c);
                }
                format!("inserted {} rows into {TABLE}", rows.len())
            }
            &Stmt::Delete { lo, hi } => {
                let keep: Vec<bool> = self.a.iter().map(|&v| v < lo || v > hi).collect();
                let doomed = keep.iter().filter(|&&k| !k).count();
                for col in [&mut self.k, &mut self.a, &mut self.b, &mut self.c] {
                    let mut i = 0;
                    col.retain(|_| {
                        i += 1;
                        keep[i - 1]
                    });
                }
                format!("deleted {doomed} rows from {TABLE}")
            }
            _ => unreachable!("not a write"),
        }
    }
}

/// The read half of both SQL workloads: windows of ~0.1% of the domain
/// inside a hot set that jumps to new territory every `HOT_PERIOD`
/// statements, so cold cracks recur throughout the run. Half the reads
/// count on `a`; a quarter sum `c` under `a` and a wide `b` range (a
/// conjunctive residual gather); a quarter project `c` under `b` (the
/// sideways cracker map).
struct Reads {
    hot: ShiftingHotSet,
    rng: SmallRng,
    n: i64,
}

impl Reads {
    fn new(n: usize, seed: u64) -> Reads {
        let hot = ShiftingHotSet::new(n, usize::MAX, HOT_PERIOD, Shift::Jump, seed)
            .with_widths(n as i64 / 20, n as i64 / 1000);
        Reads {
            hot,
            rng: SmallRng::seed_from_u64(seed ^ MIX_SALT),
            n: n as i64,
        }
    }

    fn next(&mut self) -> Stmt {
        let Some(Op::Select(w)) = self.hot.next() else {
            unreachable!("the hot set only selects, without end")
        };
        let (lo, hi) = (w.lo, w.hi - 1);
        match self.rng.gen_range(0..4) {
            0 | 1 => Stmt::Count { lo, hi },
            2 => {
                let blo = self.rng.gen_range(1..=self.n / 2);
                Stmt::Sum {
                    lo,
                    hi,
                    blo,
                    bhi: blo + self.n / 2,
                }
            }
            _ => Stmt::Project { lo, hi },
        }
    }
}

/// Loads `cols` into a fresh session `reps` times; returns the last
/// session and the median load time (load plus first catalog sync),
/// each load scaled by the probe that follows it.
fn load(cols: &Cols, reps: usize, probe: &mut Probe) -> Result<(SqlSession, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut session = None;
    for _ in 0..reps {
        drop(session.take());
        let input = cols.named();
        let t0 = Instant::now();
        let mut s = SqlSession::new();
        s.load_table(TABLE, input).map_err(|e| e.to_string())?;
        s.adaptive();
        times.push(t0.elapsed().as_secs_f64() / probe.factor());
        session = Some(s);
    }
    Ok((session.expect("reps >= 1"), median(times)))
}

/// Everything the timed phase leaves behind.
struct Phase {
    log: Vec<(Stmt, Answer)>,
    /// Untraced operations.
    blocks: Blocks,
    /// Untraced and traced operations, and the time spent inside them.
    plain: (u64, u64),
    traced: (u64, u64),
    crack: CrackStats,
    rows_out: u64,
}

/// Runs `ops` statements from `next`, timing each call into the session.
/// Traced operations split each statement into the calls a user would
/// make step by step: `parse_one`, then `prepare` and `execute_prepared`
/// for a read, or `execute_batch` for a write.
fn drive(
    session: &mut SqlSession,
    mut next: impl FnMut() -> Stmt,
    ops: u64,
    blocks: Blocks,
    args: &Args,
    tracer: &mut Tracer,
) -> Phase {
    let wall = Instant::now();
    let mut ph = Phase {
        log: Vec::with_capacity(ops as usize),
        blocks,
        plain: (0, 0),
        traced: (0, 0),
        crack: CrackStats::default(),
        rows_out: 0,
    };
    let mut rebuilt = false;
    let mut i = 0u64;
    while i < ops && wall.elapsed() < args.wall_cap() {
        let stmt = next();
        let text = stmt.sql();
        let traced = args.trace && (i / TRACE_BLOCK) % 2 == 1;
        // Counters are read only in traced runs, and never while a DELETE
        // has left the session to rebuild: reading them then would move
        // the rebuild out of the statement that pays for it.
        let before = if !args.trace || rebuilt {
            CrackStats::default()
        } else {
            session.adaptive().total_crack_stats()
        };
        let (result, ns) = if traced {
            let op = tracer.open("op", None, i);
            let result = run_traced(session, &stmt, &text, tracer, op, i);
            (result, tracer.close(op))
        } else {
            let t0 = Instant::now();
            let result = session.execute_one(&text);
            (result, t0.elapsed().as_nanos() as u64)
        };
        rebuilt = matches!(stmt, Stmt::Delete { .. });
        if args.trace && !rebuilt {
            let delta = session.adaptive().total_crack_stats().delta_since(&before);
            ph.crack.absorb(&delta);
        }
        if traced {
            ph.traced.0 += 1;
            ph.traced.1 += ns;
        } else {
            ph.plain.0 += 1;
            ph.plain.1 += ns;
            let kind = if stmt.is_read() {
                Kind::Read
            } else {
                Kind::Write
            };
            ph.blocks.record(kind, ns);
        }
        let ans = answer(result);
        if let Answer::Rows(d) = &ans {
            ph.rows_out += d.rows;
        }
        ph.log.push((stmt, ans));
        i += 1;
    }
    ph
}

fn run_traced(
    session: &mut SqlSession,
    stmt: &Stmt,
    text: &str,
    tracer: &mut Tracer,
    op: u32,
    i: u64,
) -> SqlResult<QueryOutput> {
    let parsed = tracer.span("sql.parse", Some(op), i, || sql::parse_one(text))?;
    if stmt.is_read() {
        let prepared = tracer.span("sql.prepare", Some(op), i, || session.prepare(text))?;
        tracer.span(stmt.span_name(), Some(op), i, || {
            session.execute_prepared(&prepared, &[])
        })
    } else {
        let mut out = tracer.span(stmt.span_name(), Some(op), i, || {
            session.execute_batch(std::slice::from_ref(&parsed))
        })?;
        Ok(out.pop().expect("one statement in, one output out"))
    }
}

/// Metrics both SQL workloads report from a finished phase.
fn report(
    out: &mut Outcome,
    session: &mut SqlSession,
    ph: Phase,
    tracer: &Tracer,
    setup_s: f64,
    peak_mib: f64,
) {
    let plain_rate = ph.plain.0 as f64 / (ph.plain.1 as f64 / 1e9);
    let mut q = ph.blocks.summary();
    q.report(out);
    let (write_p50, write_p99) = (q.writes.quantile(0.50), q.writes.quantile(0.99));
    let e = &mut out.end_to_end;
    e.put("setup_s", setup_s, "s");
    e.put("ops_per_s", q.rate(), "1/s");
    if q.writes.len() > 0 {
        e.put("write_p50_us", write_p50, "us");
        e.put("write_p99_us", write_p99, "us");
    }
    e.put("peak_rss_mb", peak_mib, "MiB");
    let ok = out.attempted - out.failed;
    e.put("ok_ratio", ok as f64 / out.attempted.max(1) as f64, "ratio");
    out.fact("write_samples", q.writes.len() as f64);

    if tracer.spans().is_empty() {
        return;
    }
    // Per SELECT: parse, lower (= prepare - parse, which includes the
    // buffer sync prepare runs) and execute, as shares of the whole op.
    let (mut parse, mut lower, mut execute) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut parse_sum, mut lower_sum, mut exec_sum, mut op_sum) = (0u64, 0u64, 0u64, 0u64);
    let spans = tracer.spans();
    for (i, s) in spans.iter().enumerate() {
        // A traced SELECT records parse, prepare and execute in a row.
        let (Some(parse_span), Some(exec_span), Some(root)) = (
            i.checked_sub(1).map(|p| &spans[p]),
            spans.get(i + 1),
            s.parent.map(|p| &spans[p as usize]),
        ) else {
            continue;
        };
        if s.name != "sql.prepare" || exec_span.name != "sql.execute" {
            continue;
        }
        let p = parse_span.end_ns - parse_span.start_ns;
        let l = (s.end_ns - s.start_ns).saturating_sub(p);
        let x = exec_span.end_ns - exec_span.start_ns;
        parse.push_ns(p);
        lower.push_ns(l);
        execute.push_ns(x);
        parse_sum += p;
        lower_sum += l;
        exec_sum += x;
        op_sum += root.end_ns - root.start_ns;
    }
    let share = |part: u64| part as f64 / op_sum.max(1) as f64;
    let traced_rate = ph.traced.0 as f64 / (ph.traced.1 as f64 / 1e9);
    let db = session.adaptive();
    let l = &mut out.per_layer;
    l.put("sql.parse_us", parse.quantile(0.5), "us");
    l.put("sql.parse_share", share(parse_sum), "ratio");
    l.put("sql.lower_us", lower.quantile(0.5), "us");
    l.put("sql.lower_share", share(lower_sum), "ratio");
    l.put("sql.execute_us", execute.quantile(0.5), "us");
    l.put("sql.execute_share", share(exec_sum), "ratio");
    l.put("sql.rows_out", ph.rows_out as f64, "count");
    l.put(
        "sql.insert_us",
        tracer.durations("sql.insert").quantile(0.5),
        "us",
    );
    l.put(
        "sql.delete_us",
        tracer.durations("sql.delete").quantile(0.5),
        "us",
    );
    put_crack_stats(l, &ph.crack);
    l.put(
        "core.touched_per_row_out",
        ph.crack.tuples_touched as f64 / ph.rows_out.max(1) as f64,
        "ratio",
    );
    l.put(
        "engine.cracked_columns",
        db.cracked_columns() as f64,
        "count",
    );
    l.put("engine.maps", db.map_count() as f64, "count");
    l.put("trace.overhead", 1.0 - traced_rate / plain_rate, "ratio");
}

/// Counts the statements whose answer differs from the reference.
fn count_wrong(log: &[(Stmt, Answer)], mut expect: impl FnMut(&Stmt) -> Answer) -> u64 {
    let mut wrong = 0;
    for (stmt, got) in log {
        let want = expect(stmt);
        if *got != want {
            if wrong < 5 {
                eprintln!(
                    "perfbench: wrong answer to {:?}: got {got:?}, want {want:?}",
                    stmt.sql()
                );
            }
            wrong += 1;
        }
    }
    wrong
}

fn finish_trace(tracer: &Tracer, args: &Args, out_dir: &Path) -> Result<(), String> {
    if args.trace {
        let path = out_dir.join(format!("spans-{}.tsv", args.workload));
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// `sql_explore`: 2,000,000 rows (64 MB of columns, each 16 MB column
/// four times a 4 MiB L2), read-only statements as text.
pub fn explore(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    const N: usize = 2_000_000;
    let mut reads = Reads::new(N, args.seed);
    let cols = Cols::generate(&reads.hot, args.seed);
    let mut probe = Probe::new(Probe::buffer());
    let (mut session, setup_s) = load(&cols, 3, &mut probe)?;
    let mut tracer = Tracer::new(Instant::now());
    // One block per hot-set period: each holds one cold jump.
    let blocks = Blocks::new(HOT_PERIOD as u64, probe);
    let ph = drive(
        &mut session,
        || reads.next(),
        args.ops(EXPLORE_OPS_PER_SECOND),
        blocks,
        args,
        &mut tracer,
    );
    let peak = peak_rss_mib();

    // Off the clock: `a` and `b` are permutations of 1..=n, so the rows
    // holding values lo..=hi are found by inverting them, and every answer
    // is rebuilt from those rows alone.
    let invert = |col: &[i64]| -> Result<Vec<u32>, String> {
        let mut inv = vec![u32::MAX; col.len()];
        for (row, &v) in col.iter().enumerate() {
            let slot = inv
                .get_mut((v - 1) as usize)
                .filter(|s| **s == u32::MAX)
                .ok_or("column is not a permutation of 1..=n")?;
            *slot = row as u32;
        }
        Ok(inv)
    };
    let (inv_a, inv_b) = (invert(&cols.a)?, invert(&cols.b)?);
    fn rows_of(inv: &[u32], lo: i64, hi: i64) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = (lo.max(1), hi.min(inv.len() as i64));
        (lo..=hi).map(move |v| inv[(v - 1) as usize] as usize)
    }
    let mut out = Outcome {
        attempted: ph.log.len() as u64,
        ..Default::default()
    };
    out.failed = count_wrong(&ph.log, |stmt| {
        let mut d = RowDigest::default();
        match *stmt {
            Stmt::Count { lo, hi } => d.add_row(&[rows_of(&inv_a, lo, hi).count() as i64]),
            Stmt::Sum { lo, hi, blo, bhi } => d.add_row(&[rows_of(&inv_a, lo, hi)
                .filter(|&r| blo <= cols.b[r] && cols.b[r] <= bhi)
                .map(|r| cols.c[r])
                .sum()]),
            Stmt::Project { lo, hi } => {
                for r in rows_of(&inv_b, lo, hi) {
                    d.add_row(&[cols.c[r]]);
                }
            }
            _ => unreachable!("sql_explore only reads"),
        }
        Answer::Rows(d)
    });
    out.fact("rows", N as f64);
    out.fact("data_bytes", (N * 4 * 8) as f64);
    report(&mut out, &mut session, ph, &tracer, setup_s, peak);
    finish_trace(&tracer, args, out_dir)?;
    Ok(out)
}

/// `sql_ingest`: 200,000 rows (each 1.6 MB column fits a 4 MiB L2);
/// 85% reads, 14.5% 32-row INSERTs, 0.5% narrow DELETEs.
pub fn ingest(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    const N: usize = 200_000;
    let mut reads = Reads::new(N, args.seed);
    let cols = Cols::generate(&reads.hot, args.seed);
    let mut probe = Probe::new(Probe::buffer());
    let (mut session, setup_s) = load(&cols, 9, &mut probe)?;
    let mut rng = SmallRng::seed_from_u64(args.seed ^ MIX_SALT ^ 1);
    let mut next_k = N as i64;
    // Every cycle of 200 statements holds exactly 170 reads, 29 INSERTs and
    // one DELETE, in random order: each DELETE costs a rebuild and cold
    // cracks after it, so a count left to chance would make the work of a
    // run depend on the seed.
    #[derive(Clone, Copy)]
    enum Next {
        Read,
        Insert,
        Delete,
    }
    let mut deck = Vec::new();
    let mut next = || {
        if deck.is_empty() {
            deck = [
                vec![Next::Read; 170],
                vec![Next::Insert; 29],
                vec![Next::Delete],
            ]
            .concat();
            deck.shuffle(&mut rng);
        }
        match deck.pop().expect("refilled above") {
            Next::Read => reads.next(),
            Next::Insert => Stmt::Insert(
                (0..INSERT_ROWS)
                    .map(|_| {
                        next_k += 1;
                        let n = N as i64;
                        [
                            next_k,
                            rng.gen_range(1..=n),
                            rng.gen_range(1..=n),
                            rng.gen_range(0..1000),
                        ]
                    })
                    .collect(),
            ),
            Next::Delete => {
                let lo = rng.gen_range(1..=N as i64 - DELETE_WIDTH);
                Stmt::Delete {
                    lo,
                    hi: lo + DELETE_WIDTH - 1,
                }
            }
        }
    };
    let mut tracer = Tracer::new(Instant::now());
    let blocks = Blocks::new(INGEST_BLOCK, probe);
    let ph = drive(
        &mut session,
        &mut next,
        args.ops(INGEST_OPS_PER_SECOND),
        blocks,
        args,
        &mut tracer,
    );
    let peak = peak_rss_mib();

    // Off the clock: replay the statements on the harness's copy, reads
    // answered by a scan of every row.
    let mut mirror = cols.clone();
    let mut out = Outcome {
        attempted: ph.log.len() as u64,
        ..Default::default()
    };
    out.failed = count_wrong(&ph.log, |stmt| {
        if stmt.is_read() {
            Answer::Rows(mirror.scan(stmt))
        } else {
            Answer::Message(mirror.apply(stmt))
        }
    });
    out.fact("rows_at_start", N as f64);
    out.fact("rows_at_end", mirror.len() as f64);
    out.fact("data_bytes_at_start", (N * 4 * 8) as f64);
    report(&mut out, &mut session, ph, &tracer, setup_s, peak);
    finish_trace(&tracer, args, out_dir)?;
    Ok(out)
}
