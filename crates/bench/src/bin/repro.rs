//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p sip-bench --bin repro -- --figure all --sf 0.05 --repeats 3
//! cargo run --release -p sip-bench --bin repro -- --figure fig5
//! ```
//!
//! Figures: table1, fig1, fig2, fig5..fig14 (time/space pairs run
//! together), overhead, kernels, recovery, ablation-sets, ablation-fpr,
//! ablation-minmax, profile, all.
//! An unknown name prints the usage and exits non-zero.
//!
//! `--json <dir>` additionally writes one machine-readable
//! `BENCH_<figure>.json` per measured figure into `<dir>` (created if
//! missing), so the perf trajectory can be tracked across PRs.
//!
//! `--profile <dir>` runs the span-traced query profiles (Q4A at dop
//! 1/2/4), prints their EXPLAIN ANALYZE trees, and writes one schema-checked `PROFILE_<run>.json`
//! [`sip_engine::QueryProfile`] artifact per run into `<dir>`.

use sip_bench::figures::{FigureReport, Harness};
use sip_bench::measure::ExperimentConfig;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    figure: String,
    config: ExperimentConfig,
    json_dir: Option<PathBuf>,
    profile_dir: Option<PathBuf>,
}

/// Parse the command line (`argv` without the program name).
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut figure = "all".to_string();
    let mut config = ExperimentConfig::default();
    let mut json_dir = None;
    let mut profile_dir = None;
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--figure" | "-f" => figure = take(&mut i)?,
            "--json" => json_dir = Some(PathBuf::from(take(&mut i)?)),
            "--profile" => profile_dir = Some(PathBuf::from(take(&mut i)?)),
            "--sf" => {
                config.scale_factor = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --sf: {e}"))?
            }
            "--repeats" | "-r" => {
                config.repeats = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --repeats: {e}"))?
            }
            "--seed" => {
                config.seed = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--batch" | "--batch-size" => {
                config.batch_size = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --batch-size: {e}"))?
            }
            "--channel-capacity" => {
                config.channel_capacity = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --channel-capacity: {e}"))?
            }
            "--dop" => {
                config.dop = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --dop: {e}"))?
            }
            "--timeout-ms" => {
                config.timeout_ms = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --timeout-ms: {e}"))?,
                )
            }
            "--retries" => {
                config.retries = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --retries: {e}"))?
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !is_known_figure(&figure) {
        return Err(format!("unknown figure {figure}\n\n{}", usage()));
    }
    Ok(Args {
        figure,
        config,
        json_dir,
        profile_dir,
    })
}

/// Which figure(s) were asked for.
struct Selection {
    run_all: bool,
    fig: String,
}

impl Selection {
    fn wants(&self, name: &str) -> bool {
        debug_assert!(FIGURES.contains(&name), "{name} missing from FIGURES");
        self.run_all || self.fig == name || alias(&self.fig) == name
    }
}

/// Run a text-only section (Table I, plan dumps) when selected.
fn run_section(
    sel: &Selection,
    name: &str,
    failed: &mut bool,
    body: impl FnOnce() -> Result<String, sip_common::SipError>,
) {
    if !sel.wants(name) {
        return;
    }
    eprintln!("# running {name} ...");
    match body() {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("error in {name}: {e}");
            *failed = true;
        }
    }
}

/// Run a measured section when selected: markdown to stdout, plus one
/// `BENCH_<figure>.json` per report when `--json` was given.
fn run_figures(
    sel: &Selection,
    name: &str,
    json_dir: Option<&PathBuf>,
    config: &ExperimentConfig,
    failed: &mut bool,
    body: impl FnOnce() -> Result<Vec<FigureReport>, sip_common::SipError>,
) {
    if !sel.wants(name) {
        return;
    }
    eprintln!("# running {name} ...");
    match body() {
        Ok(reports) => {
            for r in &reports {
                println!("{}", r.to_markdown());
                if let Some(dir) = json_dir {
                    let path = dir.join(format!("BENCH_{}.json", r.id));
                    match std::fs::write(&path, r.to_json(config)) {
                        Ok(()) => eprintln!("# wrote {}", path.display()),
                        Err(e) => {
                            eprintln!("error writing {}: {e}", path.display());
                            *failed = true;
                        }
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("error in {name}: {e}");
            *failed = true;
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (flag, dir) in [("--json", &args.json_dir), ("--profile", &args.profile_dir)] {
        if let Some(dir) = dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {flag} dir {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "# generating data (sf={}, seed={}, repeats={}) ...",
        args.config.scale_factor, args.config.seed, args.config.repeats
    );
    let harness = match Harness::new(args.config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sel = Selection {
        run_all: args.figure.eq_ignore_ascii_case("all"),
        fig: args.figure.to_ascii_lowercase(),
    };
    let mut failed = false;
    let json = args.json_dir.as_ref();
    let cfg = &args.config;

    run_section(&sel, "table1", &mut failed, || Ok(harness.table1()));
    run_section(&sel, "fig1", &mut failed, || harness.fig1());
    run_section(&sel, "fig2", &mut failed, || harness.fig2());
    let pair =
        |r: Result<(FigureReport, FigureReport), sip_common::SipError>| r.map(|(t, s)| vec![t, s]);
    run_figures(&sel, "fig5", json, cfg, &mut failed, || {
        pair(harness.fig5_7())
    });
    run_figures(&sel, "fig6", json, cfg, &mut failed, || {
        pair(harness.fig6_8())
    });
    run_figures(&sel, "fig9", json, cfg, &mut failed, || {
        pair(harness.fig9_11())
    });
    run_figures(&sel, "fig10", json, cfg, &mut failed, || {
        pair(harness.fig10_12())
    });
    run_figures(&sel, "fig13", json, cfg, &mut failed, || {
        pair(harness.fig13_14())
    });
    run_figures(&sel, "overhead", json, cfg, &mut failed, || {
        harness.overhead().map(|r| vec![r])
    });
    run_figures(&sel, "kernels", json, cfg, &mut failed, || {
        harness.kernels().map(|r| vec![r])
    });
    run_figures(&sel, "recovery", json, cfg, &mut failed, || {
        harness.recovery().map(|r| vec![r])
    });
    run_figures(&sel, "ablation-sets", json, cfg, &mut failed, || {
        harness.ablation_sets().map(|r| vec![r])
    });
    run_figures(&sel, "ablation-fpr", json, cfg, &mut failed, || {
        harness.ablation_fpr().map(|r| vec![r])
    });
    run_figures(&sel, "ablation-minmax", json, cfg, &mut failed, || {
        harness.ablation_minmax().map(|r| vec![r])
    });

    // The profile section is opt-in via `--profile DIR` (or `--figure
    // profile` for the text trees alone): span-level tracing over Q4A at
    // dop 1/2/4, each run serialized as a PROFILE_<run>.json QueryProfile
    // artifact next to its EXPLAIN ANALYZE tree.
    if args.profile_dir.is_some() || sel.fig == "profile" {
        eprintln!("# running profile ...");
        match harness.profile() {
            Ok((text, artifacts)) => {
                println!("{text}");
                if let Some(dir) = &args.profile_dir {
                    for (name, body) in &artifacts {
                        let path = dir.join(name);
                        match std::fs::write(&path, body) {
                            Ok(()) => eprintln!("# wrote {}", path.display()),
                            Err(e) => {
                                eprintln!("error writing {}: {e}", path.display());
                                failed = true;
                            }
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("error in profile: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Every name `--figure` accepts besides the aliases: the sections and
/// measured figures `main` dispatches, `profile`, and `all`.
const FIGURES: &[&str] = &[
    "all",
    "table1",
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig9",
    "fig10",
    "fig13",
    "overhead",
    "kernels",
    "recovery",
    "ablation-sets",
    "ablation-fpr",
    "ablation-minmax",
    "profile",
];

/// Does `--figure name` select anything? Case-insensitive, aliases
/// included, so a typo fails instead of silently running nothing.
fn is_known_figure(name: &str) -> bool {
    FIGURES.contains(&alias(&name.to_ascii_lowercase()))
}

/// The `--help` text. The flag descriptions are one multi-line literal
/// so their indentation survives (a `\` line continuation would strip
/// it).
fn usage() -> String {
    format!(
        "usage: repro [--figure {}] [--sf F] [--repeats N] [--seed S] \
[--batch-size N] [--channel-capacity N] [--dop N] \
[--timeout-ms N] [--retries N] [--json DIR] [--profile DIR]

  --figure NAME         one section or figure (default all); fig7, fig8,
                        fig11, fig12 and fig14 run their time/space pair
  --batch-size N        rows per engine batch (default 1024); also the
                        batch of the `kernels` micro-figure
  --channel-capacity N  bounded-channel backpressure window, in batches
                        (default 16)
  --dop N               degree of partition parallelism of the `recovery`
                        figure and the profiles (default 4; recovery and
                        the Zipf profile use at least 2)
  --timeout-ms N        per-query deadline in milliseconds; a run past it
                        fails with `deadline exceeded` plus per-phase
                        time shares (default: no deadline; 0 is rejected)
  --retries N           retry budget (total attempts) for the whole-run
                        retry loop (default 0 = fail-fast, no recovery)
  --json DIR            also write BENCH_<figure>.json per measured
                        figure into DIR (created if missing)
  --profile DIR         run the span-traced query profiles (Q4A at dop
                        1/2/4), print their EXPLAIN ANALYZE trees, and
                        write one
                        schema-checked PROFILE_<run>.json per run into
                        DIR (created if missing)",
        FIGURES.join("|")
    )
}

/// Figure aliases: asking for a space figure runs its time/space pair.
fn alias(f: &str) -> &str {
    match f {
        "fig7" => "fig5",
        "fig8" => "fig6",
        "fig11" => "fig9",
        "fig12" => "fig10",
        "fig14" => "fig13",
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_validate_against_the_known_list() {
        for name in FIGURES {
            assert!(is_known_figure(name), "{name}");
        }
        for name in ["fig7", "fig8", "fig11", "fig12", "fig14", "FIG5", "All"] {
            assert!(is_known_figure(name), "{name}");
        }
        for name in [
            "nosuchfig",
            "adaptive",
            "scaling",
            "admit",
            "columnar",
            "fig3",
            "",
        ] {
            assert!(!is_known_figure(name), "{name}");
        }
        assert!(usage().contains(&FIGURES.join("|")));
    }

    /// The salting figure and its fan-in flag are gone: asking for either
    /// is a parse error, which `main` turns into exit status 1.
    #[test]
    fn skew_figure_and_fanin_flag_are_rejected() {
        let parse = |args: &[&str]| {
            let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_args(&argv).map(|_| ())
        };
        let err = parse(&["--figure", "skew"]).unwrap_err();
        assert!(err.starts_with("unknown figure skew"), "{err}");
        let err = parse(&["--merge-fanin", "2"]).unwrap_err();
        assert!(err.starts_with("unknown argument --merge-fanin"), "{err}");
        assert!(parse(&["--figure", "recovery", "--dop", "2"]).is_ok());
    }
}
