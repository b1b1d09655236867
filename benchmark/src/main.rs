//! The repo's benchmark: four operator regimes, one traffic script, nine
//! end-to-end metrics, per-layer ceilings. See `benchmark/README.md`.
//!
//! ```text
//! gofmm-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--out DIR]
//! gofmm-benchmark --compare A.json B.json
//! gofmm-benchmark --emit-manifest
//! ```
//!
//! Each (workload, trace mode) run prints `workload metric value unit` lines
//! and then one JSON object `{correct, attempted, failed, metrics}`; with
//! `--workload` and `--trace` both given that object is the last line of
//! standard output. The exit code is non-zero if any operation failed.

mod alloc;
mod json;
mod layers;
mod metrics;
mod script;
mod serve;
mod spans;
mod stats;
mod workloads;

use json::Json;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Operations attempted and failed in one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: usize,
    pub failed: usize,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

impl Metric {
    pub fn exact(name: &str, unit: &str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit: unit.into(),
            summary: Summary::exact(value),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("value".into(), Json::Num(self.summary.value)),
            ("unit".into(), Json::Str(self.unit.clone())),
            ("q1".into(), Json::Num(self.summary.q1)),
            ("q3".into(), Json::Num(self.summary.q3)),
            ("n".into(), Json::Num(self.summary.n as f64)),
        ])
    }

    fn from_json(name: &str, value: &Json) -> Option<Self> {
        let num = |key| value.get(key).and_then(Json::as_f64);
        Some(Metric {
            name: name.into(),
            unit: value.get("unit")?.as_str()?.into(),
            summary: Summary {
                value: num("value")?,
                q1: num("q1")?,
                q3: num("q3")?,
                n: num("n")? as usize,
            },
        })
    }
}

/// One (workload, trace mode) run as it goes into the report file.
#[derive(Clone, Debug, PartialEq)]
struct RunRecord {
    workload: String,
    traced: bool,
    counts: Counts,
    metrics: Vec<Metric>,
}

impl RunRecord {
    fn correct(&self) -> bool {
        self.counts.failed == 0
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (value and unit only).
    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(m.summary.value)),
                    ("unit".into(), Json::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.counts.attempted as f64)),
            ("failed".into(), Json::Num(self.counts.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_line()
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("trace".into(), Json::Bool(self.traced)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.counts.attempted as f64)),
            ("failed".into(), Json::Num(self.counts.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Option<Self> {
        let flag = |key| match value.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        };
        let count = |key| value.get(key).and_then(Json::as_f64).map(|v| v as usize);
        Some(RunRecord {
            workload: value.get("workload")?.as_str()?.into(),
            traced: flag("trace")?,
            counts: Counts {
                attempted: count("attempted")?,
                failed: count("failed")?,
            },
            metrics: value
                .get("metrics")?
                .as_object()?
                .iter()
                .map(|(name, m)| Metric::from_json(name, m))
                .collect::<Option<_>>()?,
        })
    }
}

/// The host the numbers belong to; written at the top of every report.
fn host_header(seed: u64, nproc: usize, load1: f64) -> Vec<(String, Json)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let threads = workloads::WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), Json::Num(w.threads_used(nproc) as f64)))
        .collect();
    vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "simd_level".into(),
            Json::Str(gofmm_suite::linalg::simd_level().name().into()),
        ),
        (
            "GOFMM_FORCE_SCALAR".into(),
            Json::Str(std::env::var("GOFMM_FORCE_SCALAR").unwrap_or_default()),
        ),
        ("rustc".into(), Json::Str(env("GOFMM_BENCH_RUSTC"))),
        ("git_commit".into(), Json::Str(env("GOFMM_BENCH_COMMIT"))),
        ("seed".into(), Json::Num(seed as f64)),
        ("threads_used".into(), Json::Obj(threads)),
        ("load_average_1m".into(), Json::Num(load1)),
    ]
}

fn load_average_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// A per-run directory for store files, removed when the run ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create(path: PathBuf) -> std::io::Result<Self> {
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct RunOptions<'a> {
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &'a Path,
    nproc: usize,
}

fn end_to_end_metrics(out: &script::ScriptOutput) -> Vec<Metric> {
    let metric = |name: &str, unit: &str, summary: Summary| Metric {
        name: name.into(),
        unit: unit.into(),
        summary,
    };
    let per_s = |count: usize| move |ms: f64| count as f64 / (1e-3 * ms);
    vec![
        metric("setup_s", "s", Summary::fast(&out.setup_s)),
        metric("apply_r4_ms", "ms", Summary::fast(&out.apply_r4.ms)),
        metric(
            "apply_r64_cols_per_s",
            "1/s",
            Summary::fast(&out.apply_r64.ms).map_decreasing(per_s(64)),
        ),
        metric("solve_r4_ms", "ms", Summary::fast(&out.solve_r4.ms)),
        metric("pcg_r4_to_tol_ms", "ms", out.pcg.to_tol_ms()),
        metric("serve_rtt_ms", "ms", Summary::fast(&out.round_trip_ms)),
        metric(
            "serve_backlog32_rps",
            "1/s",
            Summary::fast(&out.backlog_ms).map_decreasing(per_s(serve::SAT_IN_FLIGHT)),
        ),
        Metric::exact("apply_digits", "digits", -out.eps2.log10()),
        Metric::exact(
            "footprint_mib",
            "MiB",
            out.footprint_bytes as f64 / (1024.0 * 1024.0),
        ),
    ]
}

fn run_one(workload: &Workload, traced: bool, opts: &RunOptions<'_>) -> RunRecord {
    let mut counts = Counts::default();
    let rec = spans::Recorder::new(traced);
    let workload = if opts.smoke {
        workload.scaled_down(8)
    } else {
        workload.clone()
    };
    let budget = if opts.smoke {
        script::Budget::smoke(traced)
    } else {
        script::Budget::for_run(&workload, opts.seconds, traced)
    };
    let expected: Vec<&str> = if traced {
        metrics::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };

    let tmp_path = opts.out_dir.join(format!(
        "tmp-{}-{}-{}",
        std::process::id(),
        workload.name,
        u8::from(traced)
    ));
    let mut measured = Vec::new();
    match TempDir::create(tmp_path) {
        Err(err) => {
            eprintln!("cannot create the run's temp dir: {err}");
            counts.attempted += 1;
            counts.failed += 1;
        }
        Ok(tmp) => {
            let root = rec.open("run", spans::ROOT);
            if let Some(out) = script::run(
                &workload,
                opts.seed,
                opts.nproc,
                &budget,
                &tmp.0,
                &mut counts,
                &rec,
            ) {
                if traced {
                    let sizes = if opts.smoke {
                        layers::ProbeSizes::smoke()
                    } else {
                        layers::ProbeSizes::full()
                    };
                    measured = layers::probe(
                        &workload,
                        opts.seed,
                        opts.nproc,
                        &out,
                        sizes,
                        &tmp.0,
                        &mut counts,
                        &rec,
                    );
                } else {
                    measured = end_to_end_metrics(&out);
                }
                // The regimes are properties of the full-size problems.
                if !opts.smoke {
                    counts.attempted += 1;
                    let broken =
                        layers::regime_violations(&workload, &out.op, out.apply_r4_store.faults);
                    if !broken.is_empty() {
                        counts.failed += 1;
                        for what in broken {
                            eprintln!("REGIME VIOLATED on {}: {what}", workload.name);
                        }
                    }
                }
            }
            drop(root);
        }
    }
    if traced {
        let path = opts.out_dir.join(format!("trace-{}.json", workload.name));
        let text = spans::chrome_trace(&rec.snapshot(), workload.name);
        if let Err(err) = std::fs::write(&path, text) {
            eprintln!("cannot write {}: {err}", path.display());
        }
    }

    // Exactly the metrics of the table, in its order; anything missing or
    // not finite is a failed operation.
    let mut metrics = Vec::new();
    for name in expected {
        counts.attempted += 1;
        match measured.iter().find(|m| m.name == name) {
            Some(m) if m.summary.value.is_finite() => metrics.push(m.clone()),
            found => {
                eprintln!("metric {name} is missing or not finite: {found:?}");
                counts.failed += 1;
            }
        }
    }
    RunRecord {
        workload: workload.name.into(),
        traced,
        counts,
        metrics,
    }
}

fn write_report(
    path: &Path,
    header: Vec<(String, Json)>,
    runs: &[RunRecord],
) -> std::io::Result<()> {
    let mut members = header;
    members.push((
        "runs".into(),
        Json::Arr(runs.iter().map(RunRecord::to_json).collect()),
    ));
    std::fs::write(path, Json::Obj(members).to_line() + "\n")
}

fn read_runs(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("runs")
        .and_then(Json::as_array)
        .and_then(|runs| runs.iter().map(RunRecord::from_json).collect())
        .ok_or_else(|| format!("{}: not a benchmark report", path.display()))
}

/// Verdict of one end-to-end metric between two reports. `worse` is how far
/// `b` is on the bad side of `a`, as a share of `a`'s median.
fn verdict(a: &Summary, b: &Summary, better: metrics::Better, bound: f64) -> (f64, &'static str) {
    let worse = match better {
        metrics::Better::Lower => (b.value - a.value) / a.value,
        metrics::Better::Higher => (a.value - b.value) / a.value,
    };
    let spread = |s: &Summary| (s.q3 - s.q1) / s.value;
    let status = if spread(a).max(spread(b)) > bound {
        "unresolved"
    } else if worse > bound {
        "worse"
    } else {
        "ok"
    };
    (worse, status)
}

/// `--compare A B`: every workload x end-to-end metric of the untraced runs.
fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_runs, b_runs) = (read_runs(a_path)?, read_runs(b_path)?);
    println!(
        "{:<20} {:<22} {:>12} {:>12} {:>8} {:>6}  status",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let mut any_worse = false;
    for a in a_runs.iter().filter(|r| !r.traced) {
        let Some(b) = b_runs
            .iter()
            .find(|r| !r.traced && r.workload == a.workload)
        else {
            continue;
        };
        for spec in &metrics::END_TO_END {
            let find = |r: &RunRecord| {
                r.metrics
                    .iter()
                    .find(|m| m.name == spec.name)
                    .map(|m| m.summary)
            };
            let (Some(sa), Some(sb)) = (find(a), find(b)) else {
                println!("{:<20} {:<22} missing", a.workload, spec.name);
                any_worse = true;
                continue;
            };
            let (worse, status) = verdict(&sa, &sb, spec.better, spec.bound);
            any_worse |= status == "worse";
            println!(
                "{:<20} {:<22} {:>12.5} {:>12.5} {:>+7.1}% {:>5.0}%  {status}",
                a.workload,
                spec.name,
                sa.value,
                sb.value,
                100.0 * worse,
                100.0 * spec.bound
            );
        }
    }
    Ok(!any_worse)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    emit_manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        compare: None,
        emit_manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if workloads::find(name).is_none() {
            let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; one of {names:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("gofmm-benchmark: {err}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", metrics::manifest_text());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(err) => {
                eprintln!("gofmm-benchmark: {err}");
                ExitCode::from(2)
            }
        };
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load1 = load_average_1m();
    if load1 > 0.5 {
        eprintln!("warning: 1-minute load average is {load1}; timings will be noisy");
    }
    for w in &workloads::WORKLOADS {
        if w.threads_used(nproc) != w.threads {
            eprintln!(
                "warning: {} wants {} threads, the host has {nproc}: using {}",
                w.name,
                w.threads,
                w.threads_used(nproc)
            );
        }
    }
    if let Err(err) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "gofmm-benchmark: cannot create {}: {err}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }

    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        out_dir: &args.out_dir,
        nproc,
    };
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => workloads::find(name).into_iter().collect(),
        None => workloads::WORKLOADS.iter().collect(),
    };
    // Untraced first: end-to-end numbers are measured with tracing off.
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut runs = Vec::new();
    for &traced in modes {
        for workload in &selected {
            let run = run_one(workload, traced, &opts);
            for m in &run.metrics {
                println!("{} {} {} {}", run.workload, m.name, m.summary.value, m.unit);
            }
            println!(
                "{} ops_attempted {} count",
                run.workload, run.counts.attempted
            );
            println!("{} ops_failed {} count", run.workload, run.counts.failed);
            println!("{}", run.result_line());
            runs.push(run);
        }
    }

    let mut name = format!("report-seed{}", args.seed);
    if let Some(workload) = &args.workload {
        name += &format!("-{workload}");
    }
    if let Some(traced) = args.trace {
        name += &format!("-trace{}", u8::from(traced));
    }
    if args.smoke {
        name += "-smoke";
    }
    let path = args.out_dir.join(name + ".json");
    if let Err(err) = write_report(&path, host_header(args.seed, nproc, load1), &runs) {
        eprintln!("gofmm-benchmark: cannot write {}: {err}", path.display());
        return ExitCode::from(2);
    }
    eprintln!("report: {}", path.display());
    if runs.iter().all(RunRecord::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let runs = vec![RunRecord {
            workload: "lowrank3d-n8k".into(),
            traced: false,
            counts: Counts {
                attempted: 1234,
                failed: 0,
            },
            metrics: vec![
                Metric {
                    name: "apply_r4_ms".into(),
                    unit: "ms".into(),
                    summary: Summary::of(&[33.25, 31.0625, 0.1 + 0.2, 40.5]),
                },
                Metric::exact("footprint_mib", "MiB", 21.859375),
            ],
        }];
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_report(&path, host_header(7, 2, 0.25), &runs).unwrap();
        assert_eq!(read_runs(&path).unwrap(), runs);
        std::fs::remove_dir_all(&dir).unwrap();

        let line = Json::parse(&runs[0].result_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line
            .get("metrics")
            .and_then(|m| m.get("footprint_mib"))
            .unwrap();
        assert_eq!(m.as_object().unwrap().len(), 2);
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(21.859375));
    }

    #[test]
    fn verdicts_separate_ok_worse_and_unresolved() {
        use metrics::Better::{Higher, Lower};
        let tight = |value: f64| Summary {
            value,
            q1: 0.99 * value,
            q3: 1.01 * value,
            n: 30,
        };
        assert_eq!(verdict(&tight(10.0), &tight(10.5), Lower, 0.1).1, "ok");
        assert_eq!(verdict(&tight(10.0), &tight(11.5), Lower, 0.1).1, "worse");
        assert_eq!(verdict(&tight(10.0), &tight(8.0), Lower, 0.1).1, "ok");
        assert_eq!(verdict(&tight(10.0), &tight(8.0), Higher, 0.1).1, "worse");
        let wide = Summary {
            value: 10.0,
            q1: 9.0,
            q3: 11.0,
            n: 30,
        };
        assert_eq!(verdict(&wide, &tight(12.0), Lower, 0.1).1, "unresolved");
        let (worse, _) = verdict(&tight(10.0), &tight(11.0), Lower, 0.25);
        assert!((worse - 0.1).abs() < 1e-12);
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let args = parse("--workload lowrank3d-n8k --seed 9 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (
                args.workload.as_deref(),
                args.seed,
                args.seconds,
                args.trace
            ),
            (Some("lowrank3d-n8k"), 9, 5.0, Some(true))
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--seed",
            "--frob",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
