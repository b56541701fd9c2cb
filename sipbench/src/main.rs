//! `sipbench` — one CPU-bound, layer-attributed benchmark for the AIP engine.
//!
//! A single process and a single closed-loop client: the catalog is
//! generated from `--seed`, every distinct cell of a workload is checked
//! against the oracle, then the workload runs as identical passes and the
//! medians are reported. See `README.md` for the workloads and what each
//! metric is expected to move; `BENCHMARK.json` at the repository root is
//! printed by `--benchmark-json` and checked against it by a unit test.

mod adapter;
mod json;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use adapter::{bench_err, Result};
use json::Json;
use run::{Budget, Config};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Better, MetricDef, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "\
usage: sipbench [--all | --workload NAME] [--seed S] [--seconds T | --passes N]
                [--trace 0|1 | --traced] [--out DIR] [--aa] [--smoke]
       sipbench --benchmark-json

  --workload NAME   run one workload (cpu.baseline, cpu.aip, cpu.dop2,
                    delay.paper, net.remote)
  --all             run every workload (or the one named by --workload)
  --seed S          data-generation seed (default 1)
  --seconds T       start passes until T seconds of passes have run
  --passes N        run exactly N passes (default: the workload's own count)
  --trace 1         traced run: per-layer metrics and a span file instead of
                    the end-to-end metrics (--traced is the same)
  --out DIR         where the JSON files go (default sipbench_out)
  --aa              run everything twice, the second time on seed S+1, and
                    exit non-zero if an end-to-end metric differs by more
                    than its bound
  --smoke           SF 0.01, one pass, one set-up: a few seconds per workload
  --benchmark-json  print the BENCHMARK.json this binary implements";

/// Scale factor of every workload, and of `--smoke`.
const SF: f64 = 0.1;
const SMOKE_SF: f64 = 0.01;
/// `--seconds` the driver passes: long enough for 12+ passes of the CPU
/// workloads and 3 of `delay.paper`.
const RUN_SECONDS: u64 = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    budget: Option<Budget>,
    traced: bool,
    out: PathBuf,
    aa: bool,
    smoke: bool,
    benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        budget: None,
        traced: false,
        out: PathBuf::from("sipbench_out"),
        aa: false,
        smoke: false,
        benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| bench_err(format!("{flag} needs a value")))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T> {
            v.parse()
                .map_err(|_| bench_err(format!("{flag}: cannot read {v:?}")))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--all" => args.all = true,
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => {
                let s: f64 = num(flag, value()?)?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bench_err("--seconds must be positive"));
                }
                args.budget = Some(Budget::Seconds(s));
            }
            "--passes" => {
                let n: u32 = num(flag, value()?)?;
                if n == 0 {
                    return Err(bench_err("--passes must be at least 1"));
                }
                args.budget = Some(Budget::Passes(n));
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bench_err(format!("--trace takes 0 or 1, not {other:?}"))),
                }
            }
            "--traced" => args.traced = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(bench_err(format!("unknown argument {other:?}"))),
        }
    }
    Ok(args)
}

/// The workloads the arguments select; an unknown name is an error.
fn selected(args: &Args) -> Result<Vec<Workload>> {
    match &args.workload {
        Some(name) => workloads::find(name).map(|w| vec![w]).ok_or_else(|| {
            let known: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
            bench_err(format!(
                "unknown workload {name:?}; known: {}",
                known.join(", ")
            ))
        }),
        None if args.all || args.aa || args.smoke => Ok(workloads::all()),
        None => Err(bench_err("name a workload with --workload, or pass --all")),
    }
}

/// What one run of one workload produced.
struct Report {
    workload: Workload,
    seed: u64,
    traced: bool,
    attempted: u64,
    failed: u64,
    /// Values of `END_TO_END` (untraced) or `PER_LAYER` (traced), in order.
    metrics: Vec<(MetricDef, f64)>,
    /// The whole account, written to `<out>/<workload>[.layers].json`.
    detail: Json,
    /// Spans of a traced run, written to `<out>/trace_<workload>.json`.
    spans: Option<Json>,
}

fn run_workload(w: &Workload, args: &Args, seed: u64) -> Result<Report> {
    let cfg = Config {
        seed,
        sf: if args.smoke { SMOKE_SF } else { SF },
        budget: match (args.budget, args.smoke) {
            (Some(b), _) => b,
            (None, true) => Budget::Passes(1),
            (None, false) => Budget::Passes(w.default_passes),
        },
    };
    let mut tr = Tracer::new(args.traced);

    // setup_s is the median of several set-ups; a traced run reports no
    // setup_s and sets up once.
    let mut ready = run::setup(w, &cfg, &mut tr)?;
    let mut setups = vec![ready.setup_s];
    if !(args.smoke || args.traced) {
        for _ in 1..SETUP_REPS {
            // Free the previous catalog first: two at once would double
            // the footprint and slow the second set-up.
            drop(ready);
            ready = run::setup(w, &cfg, &mut tr)?;
            setups.push(ready.setup_s);
        }
    }

    let passes = run::passes(w, &ready, cfg.budget, &mut tr, args.traced);
    let timed = run::reduce(w, &ready, &passes);
    let attempted = ready.attempted + timed.attempted;
    let failed = ready.failed + timed.failed;

    let mut detail = vec![
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("seed", Json::Int(seed)),
        ("scale_factor", Json::Num(cfg.sf)),
        ("traced", Json::Bool(args.traced)),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("passes", Json::Int(passes.len() as u64)),
        ("rows_offered_per_pass", Json::Int(ready.rows_offered)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("failed_ratio", Json::Num(failed as f64 / attempted as f64)),
        ("pass_s", summary_json(&timed.pass_s)),
        ("cell_latency_ms", summary_json(&timed.latency_ms)),
        ("query_p90_ms", Json::Num(timed.query_p90_ms)),
        (
            "cells",
            Json::Arr(
                w.cells
                    .iter()
                    .zip(&timed.per_cell)
                    .zip(&ready.expected_rows)
                    .map(|((cell, (ms, mb)), &rows)| {
                        Json::obj([
                            ("cell", Json::str(cell.label())),
                            ("latency_ms", summary_json(ms)),
                            ("median_peak_state_mb", Json::Num(*mb)),
                            ("rows_out", Json::Int(rows)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];

    let (metrics, spans): (Vec<(MetricDef, f64)>, _) = if args.traced {
        let layers = layers::measure(w, &ready, &passes, &timed, &mut tr)?;
        detail.push((
            "program_phase_share",
            Json::obj(
                layers
                    .program_phase_share
                    .iter()
                    .map(|&(name, share)| (name, Json::Num(share))),
            ),
        ));
        detail.push((
            "spans_by_name",
            Json::Arr(
                tr.rollup()
                    .into_iter()
                    .map(|(name, calls, total_s, self_s)| {
                        Json::obj([
                            ("name", Json::Str(name)),
                            ("calls", Json::Int(calls)),
                            ("total_s", Json::Num(total_s)),
                            ("self_s", Json::Num(self_s)),
                        ])
                    })
                    .collect(),
            ),
        ));
        let metrics = PER_LAYER
            .iter()
            .map(|def| {
                let found = layers.values.iter().find(|(name, _)| *name == def.name);
                (
                    *def,
                    found
                        .expect("layers::measure reports every PER_LAYER metric")
                        .1,
                )
            })
            .collect();
        (metrics, Some(tr.to_json()))
    } else {
        let values = [
            timed.rows_per_s,
            timed.peak_state_mb,
            stats::median(&setups),
        ];
        (END_TO_END.iter().copied().zip(values).collect(), None)
    };
    detail.push(("metrics", metrics_json(&metrics)));

    Ok(Report {
        workload: w.clone(),
        seed,
        traced: args.traced,
        attempted,
        failed,
        metrics,
        detail: Json::obj(detail),
        spans,
    })
}

fn summary_json(s: &stats::Summary) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Int(s.n as u64)),
    ])
}

fn metrics_json(metrics: &[(MetricDef, f64)]) -> Json {
    Json::obj(metrics.iter().map(|(def, value)| {
        (
            def.name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]),
        )
    }))
}

/// The result line the driver reads: the last line of standard output.
fn result_line(r: &Report) -> String {
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Int(r.attempted)),
        ("failed", Json::Int(r.failed)),
        ("metrics", metrics_json(&r.metrics)),
    ])
    .line()
}

fn print_report(r: &Report) {
    let w = &r.workload;
    println!(
        "== {} (seed {}, {}) ==",
        w.name,
        r.seed,
        if r.traced { "traced" } else { "untraced" }
    );
    if let Json::Obj(fields) = &r.detail {
        for (key, value) in fields {
            match key.as_str() {
                "passes"
                | "rows_offered_per_pass"
                | "pass_s"
                | "cell_latency_ms"
                | "query_p90_ms"
                | "failed_ratio"
                | "program_phase_share" => {
                    println!("  {key}: {}", value.line())
                }
                "cells" => {
                    if let Json::Arr(cells) = value {
                        for c in cells {
                            println!("  cell {}", c.line());
                        }
                    }
                }
                _ => {}
            }
        }
    }
    for (def, value) in &r.metrics {
        println!("{:14} {:26} {:>16.6} {}", w.name, def.name, value, def.unit);
    }
}

fn write_report(r: &Report, out: &Path) -> Result<()> {
    let write = |name: String, body: String| {
        let path = out.join(name);
        std::fs::write(&path, body)
            .map_err(|e| bench_err(format!("cannot write {}: {e}", path.display())))
    };
    std::fs::create_dir_all(out)
        .map_err(|e| bench_err(format!("cannot create {}: {e}", out.display())))?;
    let suffix = if r.traced { ".layers" } else { "" };
    write(
        format!("{}{suffix}.json", r.workload.name),
        r.detail.pretty(),
    )?;
    if let Some(spans) = &r.spans {
        write(format!("trace_{}.json", r.workload.name), spans.pretty())?;
    }
    Ok(())
}

/// Run the selected workloads once, printing and writing each report.
fn run_set(ws: &[Workload], args: &Args, seed: u64, out: &Path) -> Result<Vec<Report>> {
    let mut reports = Vec::new();
    for w in ws {
        let report = run_workload(w, args, seed)?;
        print_report(&report);
        write_report(&report, out)?;
        println!("{}", result_line(&report));
        reports.push(report);
    }
    Ok(reports)
}

/// By how much of `a` did the metric get worse in `b`? Negative = better.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Two full sets of the same binary back to back, the second on the next
/// seed; true when every end-to-end metric of every workload agrees within
/// its bound, in either direction.
fn run_aa(ws: &[Workload], args: &Args) -> Result<bool> {
    let first = run_set(ws, args, args.seed, &args.out.join("a"))?;
    let next = args.seed.wrapping_add(1);
    let second = run_set(ws, args, next, &args.out.join("b"))?;
    println!("== A/A: seed {} against seed {next} ==", args.seed);
    println!(
        "{:14} {:16} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut within = true;
    for (a, b) in first.iter().zip(&second) {
        within &= a.failed == 0 && b.failed == 0;
        for ((def, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
            let diff = worsening(def, *va, *vb);
            // Layer metrics have no bound and are listed without a verdict.
            let breach = !a.traced && diff.abs() > def.bound;
            within &= !breach;
            println!(
                "{:14} {:16} {:>16.6} {:>16.6} {:>+8.2}% {:>5.0}%{}",
                a.workload.name,
                def.name,
                va,
                vb,
                diff * 100.0,
                def.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    Ok(within)
}

/// The `BENCHMARK.json` this binary implements.
fn benchmark_json() -> Json {
    let metric = |m: &MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "sipbench/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("sipbench")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::all()
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

fn real_main() -> Result<bool> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.benchmark_json {
        print!("{}", benchmark_json().pretty());
        return Ok(true);
    }
    let ws = selected(&args)?;
    if args.aa {
        return run_aa(&ws, &args);
    }
    let reports = run_set(&ws, &args, args.seed, &args.out)?;
    Ok(reports.iter().all(|r| r.failed == 0))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sipbench: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn benchmark_json_at_the_root_is_what_this_binary_implements() {
        assert_eq!(
            benchmark_json().pretty(),
            include_str!("../../BENCHMARK.json"),
            "regenerate with: sipbench --benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "cpu.aip",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("cpu.aip"));
        assert_eq!(a.seed, 7);
        assert_eq!(a.budget, Some(Budget::Seconds(10.0)));
        assert!(a.traced);
        assert_eq!(selected(&a).unwrap()[0].name, "cpu.aip");
    }

    #[test]
    fn bad_arguments_are_errors() {
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--passes", "0"]).is_err());
        assert!(args(&["--trace", "yes"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        // An unknown workload is an error, not a silent exit 0; so is
        // naming none.
        assert!(selected(&args(&["--workload", "cpu"]).unwrap()).is_err());
        assert!(selected(&args(&[]).unwrap()).is_err());
        assert_eq!(selected(&args(&["--all"]).unwrap()).unwrap().len(), 5);
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let (up, down) = (END_TO_END[0], END_TO_END[1]);
        assert_eq!((up.better, down.better), (Better::Higher, Better::Lower));
        assert!((worsening(&up, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(&down, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }

    /// The rows a pass offers are a constant of the catalog: table lengths
    /// summed over the scans of each cell's unrewritten plan.
    #[test]
    fn rows_offered_come_from_table_lengths() {
        let data = adapter::generate(0.002, 3).unwrap();
        let len = |t: &str| data.table_rows(t).unwrap();
        // Q2A scans PART once and LINEITEM twice, under every strategy.
        let q2a = adapter::build_query(&data, "Q2A").unwrap();
        assert_eq!(
            adapter::rows_offered(&data, &q2a).unwrap(),
            len("part") + 2 * len("lineitem")
        );
        // A whole workload: set-up sums its cells and verifies each.
        let w = workloads::find("cpu.aip").unwrap();
        let cfg = Config {
            seed: 3,
            sf: 0.002,
            budget: Budget::Passes(1),
        };
        let ready = run::setup(&w, &cfg, &mut Tracer::new(false)).unwrap();
        let per_query: u64 = ready
            .queries
            .iter()
            .map(|(_, q)| adapter::rows_offered(&ready.data, q).unwrap())
            .sum();
        assert_eq!(ready.rows_offered, 2 * per_query);
        assert_eq!((ready.attempted, ready.failed), (10, 0));
        let passes = run::passes(&w, &ready, cfg.budget, &mut Tracer::new(false), false);
        let timed = run::reduce(&w, &ready, &passes);
        assert_eq!((timed.attempted, timed.failed), (10, 0));
        assert!(timed.rows_per_s > 0.0 && timed.query_p90_ms > 0.0 && timed.peak_state_mb > 0.0);
    }
}
