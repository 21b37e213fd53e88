//! The repo benchmark: five workloads, host-time end-to-end metrics,
//! simulated results, per-layer drives and a traced run, all measured from
//! outside by timing calls into the crates' public functions. See
//! `../README.md` for the tables and `../../BENCHMARK.json` for the contract.
//!
//! ```text
//! tsue-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out DIR]
//! tsue-benchmark --describe        # prints BENCHMARK.json
//! ```
//! With `--workload` it runs that workload in this process and prints, as the
//! last line of standard output, one JSON object with the run's metrics.
//! Without, it runs itself once per workload, so each has a process (and a
//! peak resident set) of its own, and appends every result to
//! `DIR/results.jsonl`.

mod adapter;
mod catalogue;
mod engine;
mod replay;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use catalogue::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Spans;
use stats::{median, Digest};

/// How one workload is run.
pub struct Run {
    /// `--seed`: every input is generated from it.
    pub seed: u64,
    /// `--seconds`: how long the measuring loop repeats its pass.
    pub seconds: f64,
    /// Also trace: harness spans, the repo's own tracing, the layer drives.
    pub traced: bool,
}

impl Run {
    /// Whether the loop that began at `start` and has finished `passes`
    /// equal passes starts another: it does while at least half of one fits
    /// into `seconds`, so the measured time centres on `seconds`.
    pub fn fits_another(&self, start: Instant, passes: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / passes as f64 / 2.0 < self.seconds
    }

    /// The seed the generators get: `--seed` spread over 48 bits, so that
    /// neighbouring seeds share no client stream (client `c` draws from
    /// `seed + c`) and no salted side stream overflows.
    pub fn input_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16
    }
}

/// The counts of a replay pass the share estimates are built from.
pub struct ReplayCounts {
    /// `Disk::submit` calls.
    pub disk_rw_ops: f64,
    /// `Network::send` calls.
    pub net_msgs: f64,
    /// Events the simulator executed.
    pub sim_events: f64,
    /// Host seconds of the pass, set-up excluded.
    pub busy_s: f64,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by catalogue name.
    pub values: BTreeMap<String, f64>,
    /// Client ops (or engine calls) attempted in measured passes.
    pub attempted: u64,
    /// Of those, ops that failed an output check.
    pub failed: u64,
    /// Output checks that failed, in words.
    pub problems: Vec<String>,
    /// Hash of every exact simulated result and counter.
    pub digest: Digest,
    /// Remarks printed with the metrics (sample counts, caveats).
    pub notes: Vec<String>,
    /// Replay workloads only.
    pub counts: Option<ReplayCounts>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

/// Batches each layer drive runs; the median per metric is reported.
const DRIVE_BATCHES: usize = 5;

/// Runs every layer drive and records the median of each metric.
fn run_drives(o: &mut Outcome, seed: u64, spans: &mut Spans) {
    let start = Instant::now();
    let root = spans.add("drives", start, start, None, 0);
    for (layer, mut drive) in adapter::layers::drives(seed) {
        let t0 = Instant::now();
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for _ in 0..DRIVE_BATCHES {
            drive(&mut |name, value| samples.entry(name).or_default().push(value));
        }
        spans.add(layer, t0, Instant::now(), Some(root), 0);
        for (name, values) in samples {
            o.set(name, median(&values));
        }
    }
    spans.end(root, Instant::now());
}

/// Estimated shares of a replay pass's host time: each layer's isolated
/// per-call cost times the pass's own call counts. Isolated calls run warmer
/// than in situ and the disk's is a fresh device's, so these are lower
/// bounds; the residual holds the drivers, the oracle, telemetry and, on
/// `replay-gc`, the FTL's garbage collection.
fn estimate_shares(o: &mut Outcome) {
    let Some(c) = &o.counts else { return };
    let v = |name: &str| o.values[name];
    let busy_ns = c.busy_s * 1e9;
    let disk = c.disk_rw_ops * v("simdisk.submit_fresh_ns") / busy_ns;
    let net = c.net_msgs * v("simnet.send_ns") / busy_ns;
    let des = c.sim_events * v("simdes.event_boxed_ns") / busy_ns;
    o.set("ecfs.replay.est_simdisk_share", disk);
    o.set("ecfs.replay.est_simnet_share", net);
    o.set("ecfs.replay.est_simdes_share", des);
    o.set("ecfs.replay.est_residual_share", 1.0 - disk - net - des);
}

fn json_line(o: &Outcome, traced: bool) -> Result<String, String> {
    let metrics = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut fields = Vec::new();
    for Metric { name, unit, .. } in metrics {
        // A layer this workload does not run reads 0 (per-layer only).
        let value = match o.values.get(*name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.problems.is_empty(),
        o.attempted,
        o.failed,
        fields.join(", ")
    ))
}

fn print_report(workload: &str, run: &Run, o: &Outcome) {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {workload}  seed {:#x}  seconds {}  traced {}  host threads {threads}",
        run.seed, run.seconds, run.traced
    );
    let row = |m: &Metric| match o.values.get(m.name) {
        Some(v) => println!(
            "  {:<40} {v:>16.4} {:<7} [{}]",
            m.name,
            m.unit,
            m.clock.tag()
        ),
        None => println!("  {:<40} {:>16} {:<7}", m.name, "n/a", m.unit),
    };
    println!("end-to-end, from the untraced passes:");
    END_TO_END.iter().for_each(row);
    println!(
        "per-layer{}:",
        if run.traced {
            ""
        } else {
            " (run with --trace 1 for the rest)"
        }
    );
    for m in &PER_LAYER {
        if run.traced || o.values.contains_key(m.name) {
            row(m);
        }
    }
    for note in &o.notes {
        println!("note: {note}");
    }
    println!("sim_digest {}", o.digest);
    for p in &o.problems {
        println!("FAILED CHECK: {p}");
    }
}

fn run_workload(workload: &str, run: &Run, out_dir: &Path) -> ExitCode {
    let mut spans = Spans::new();
    let mut o = if workload.starts_with("replay-") {
        replay::run(workload, run, &mut spans)
    } else {
        engine::run(workload, run, &mut spans)
    };
    if run.traced {
        run_drives(&mut o, run.input_seed(), &mut spans);
        estimate_shares(&mut o);
    }
    o.set("failed_op_share", o.failed as f64 / o.attempted as f64);
    o.set("peak_rss_mib", stats::peak_rss_mib());
    print_report(workload, run, &o);
    if run.traced {
        let path = out_dir.join(format!("spans-{workload}.json"));
        let written = std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
        match written {
            Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    match json_line(&o, run.traced) {
        Ok(line) => {
            println!("{line}");
            if o.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("no result: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs this program once per workload and appends each result, with its
/// workload, seed and digest, to `out_dir/results.jsonl`.
fn run_all(run: &Run, out_dir: &Path) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this program");
    let mut records = String::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(out_dir)
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run this program again");
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        println!();
        ok &= output.status.success();
        let digest = text
            .lines()
            .find_map(|l| l.strip_prefix("sim_digest "))
            .unwrap_or("");
        if let Some(result) = text.lines().last().filter(|l| l.starts_with('{')) {
            records += &format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"sim_digest\": \"{digest}\", \
                 \"result\": {result}}}\n",
                w.name, run.seed, run.traced as u8
            );
        }
    }
    let path = out_dir.join("results.jsonl");
    let appended = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(records.as_bytes())
    });
    match appended {
        Ok(()) => println!("results appended to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: tsue-benchmark [--workload NAME] [--seed N] [--seconds S] \
         [--trace 0|1 | --traced] [--out DIR] | --describe\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut run = Run {
        seed: 0x7565_7374,
        seconds: catalogue::RUN_SECONDS as f64,
        traced: false,
    };
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let parsed = match flag.as_str() {
            "--describe" => {
                print!("{}", catalogue::benchmark_json());
                return ExitCode::SUCCESS;
            }
            "--traced" => {
                run.traced = true;
                Ok(())
            }
            "--workload" => value().and_then(|v| {
                let known = WORKLOADS.iter().find(|w| w.name == v);
                workload = Some(known.ok_or(format!("unknown workload {v}"))?.name);
                Ok(())
            }),
            "--seed" => value().and_then(|v| {
                run.seed = parse_seed(&v).ok_or(format!("bad seed {v}"))?;
                Ok(())
            }),
            "--seconds" => value().and_then(|v| {
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {v}"))?;
                Ok(())
            }),
            "--trace" => value().and_then(|v| {
                run.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
                Ok(())
            }),
            "--out" => value().map(|v| out_dir = PathBuf::from(v)),
            other => Err(format!("unknown argument {other}")),
        };
        if let Err(problem) = parsed {
            return usage(&problem);
        }
    }
    match workload {
        Some(w) => run_workload(w, &run, &out_dir),
        None => run_all(&run, &out_dir),
    }
}
