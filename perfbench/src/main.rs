//! The repository benchmark: four workloads that drive the cracking store
//! through the surfaces its users call, from SQL text down to fsync.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sql_explore --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run it from the repository root. It prints a `run` line (what was
//! measured, and where), a `report` line (every end-to-end metric that
//! applies to the workload, with sample counts) and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the gated end-to-end metrics; with `--trace 1` they are
//! the per-layer metrics, timed from spans this harness records around its
//! calls into each layer, and the spans are written to `.perfbench_out/`.
//! Every answer is checked off the clock; the exit code is non-zero when
//! any answer or gate is wrong.

mod durable;
mod latched;
mod measure;
mod sqlwork;

use measure::{json_num, json_str, Metrics};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics every workload reports steadily enough to gate on
/// (`BENCHMARK.json` holds their bounds).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Metrics of the traced run. A layer a workload leaves idle reports 0.
/// The last five are end-to-end figures that are not gated: read
/// latencies move with the overlay's dense-or-hashed delete set and the
/// per-process kernel calibration more than a bound allows, and writes
/// and disk use apply to two workloads and one. Untraced runs print them
/// too, on the `report` line.
const PER_LAYER: [(&str, &str); 36] = [
    ("sql.parse_us", "us"),
    ("sql.parse_share", "ratio"),
    ("sql.lower_us", "us"),
    ("sql.lower_share", "ratio"),
    ("sql.execute_us", "us"),
    ("sql.execute_share", "ratio"),
    ("sql.rows_out", "count"),
    ("sql.insert_us", "us"),
    ("sql.delete_us", "us"),
    ("core.cracks", "count"),
    ("core.tuples_touched", "count"),
    ("core.tuples_moved", "count"),
    ("core.edge_scanned", "count"),
    ("core.fusions", "count"),
    ("core.touched_per_row_out", "ratio"),
    ("overlay.merges", "count"),
    ("engine.select_p50_us", "us"),
    ("engine.select_p99_us", "us"),
    ("engine.stage_insert_us", "us"),
    ("engine.stage_delete_us", "us"),
    ("engine.cracked_columns", "count"),
    ("engine.maps", "count"),
    ("storage.checkpoint_p50_us", "us"),
    ("storage.checkpoint_total_us", "us"),
    ("storage.checkpoint_bytes", "B"),
    ("storage.wal_bytes", "B"),
    ("storage.recover_s", "s"),
    ("latch.count_p50_us", "us"),
    ("latch.count_p99_us", "us"),
    ("latch.thread_skew", "ratio"),
    ("trace.overhead", "ratio"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("disk_bytes_per_row", "B/row"),
];

/// What one run is asked to do.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Wall-clock limit of a timed phase: three times `--seconds`, so a
    /// program that got much slower still ends in time.
    pub fn wall_cap(&self) -> Duration {
        Duration::from_secs(3 * self.seconds)
    }

    /// The operations a timed phase issues. Runs are fixed work, not fixed
    /// time: the same seed and `--seconds` give the same operations, so a
    /// faster program ends sooner instead of running into a later, more
    /// (or less) adapted part of the stream. `per_second` is what the
    /// workload sustains on a 2-vCPU x86-64 VM, so a run lasts about
    /// `--seconds` there.
    pub fn ops(&self, per_second: u64) -> u64 {
        self.seconds * per_second
    }
}

/// What a workload hands back: counts, metrics and facts for the record.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Operations that erred or answered wrongly.
    pub failed: u64,
    /// Gates beyond per-operation answers (the recovery gate); each entry
    /// names a gate that failed.
    pub broken_gates: Vec<String>,
    /// Every end-to-end metric that applies to the workload.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// Data sizes and sample counts for the run record.
    pub facts: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn fact(&mut self, name: &'static str, value: f64) {
        self.facts.push((name, value));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the default configuration only.
    for var in ["CRACKER_KERNEL", "DBCRACKER_EXEC"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set; unset it to measure the default configuration");
            return ExitCode::from(2);
        }
    }
    let out_dir = PathBuf::from(".perfbench_out");
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "sql_explore" => sqlwork::explore(&args, &out_dir),
        "sql_ingest" => sqlwork::ingest(&args, &out_dir),
        "durable_updates" => durable::run(&args, &out_dir),
        "latched_read_2c" => latched::run(&args, &out_dir),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    println!("run {}", run_record(&args, &outcome));
    println!("report {}", outcome.end_to_end.to_json());
    for gate in &outcome.broken_gates {
        eprintln!("perfbench: gate failed: {gate}");
    }
    let correct = outcome.failed == 0 && outcome.broken_gates.is_empty();
    let mut metrics = Metrics::default();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = outcome.per_layer.get(name);
            metrics.put(
                name,
                value.or(outcome.end_to_end.get(name)).unwrap_or(0.0),
                unit,
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = outcome
                .end_to_end
                .get(name)
                .unwrap_or_else(|| panic!("workload did not measure {name}"));
            metrics.put(name, value, unit);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Seed, sizes, host and source identity, so a number can be traced back
/// to what produced it.
fn run_record(args: &Args, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"commit\": {}, \"source_fnv64\": \"{:016x}\"",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&cpu),
        json_str(&git_commit().unwrap_or_else(|| "unknown".into())),
        source_digest(),
    );
    for (name, value) in &outcome.facts {
        out.push_str(&format!(", {}: {}", json_str(name), json_num(*value)));
    }
    out.push('}');
    out
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            let (id, name) = l.split_once(' ')?;
            (name == reference).then(|| id.to_string())
        })
}

/// FNV-1a over the sources the benchmark builds, so runs of the same code
/// can be recognised without git.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if !p.ends_with("target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml")];
    for dir in ["crates", "shims", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
