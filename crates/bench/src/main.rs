//! The experiment harness CLI.
//!
//! ```text
//! cargo run -p lyra-bench --release -- tab5            # one experiment
//! cargo run -p lyra-bench --release -- all --small     # everything, CI size
//! cargo run -p lyra-bench --release -- fig10 --full    # paper scale
//! cargo run -p lyra-bench --release -- list
//! cargo run -p lyra-bench --release -- smoke           # observed end-to-end run
//! cargo run -p lyra-bench --release -- explain 17      # one job's decision chain
//! cargo run -p lyra-bench --release -- timeline        # sparkline telemetry dashboard
//! cargo run -p lyra-bench --release -- prom --out m.prom  # Prometheus exposition
//! ```
//!
//! Results print as tables/series on stdout; `--quiet` suppresses the
//! tables and `--json [dir]` replaces them with one machine-readable
//! JSON line per experiment (and, when a directory is given, one JSON
//! file per experiment). `plot <file.json>...` renders archived results
//! as SVG line charts next to the JSON. `explain <job-id> [--log
//! <file.jsonl>]` reconstructs the scheduler's causal chain for one job
//! from a recorded event log (or from a fresh small observed run).

use lyra_bench::{experiments, Scale};
use lyra_obs::OutputMode;
use lyra_sim::{run_scenario_observed, ObserverConfig, Scenario};
use std::io::Write as _;

/// The complete usage listing — every subcommand, including the
/// telemetry pair (`timeline`, `prom`). One source of truth for both
/// the help path and the bad-arguments path.
fn usage_text() -> String {
    format!(
        "usage: lyra-bench <id>... [--small|--medium|--full] [--quiet] [--json [dir]]\n\
         \x20      lyra-bench help | --help | list\n\
         \x20      lyra-bench plot <file.json>... | smoke [--log <file.jsonl>]\n\
         \x20      lyra-bench explain <job-id> [--log <file.jsonl>]\n\
         \x20      lyra-bench attribute <job-id>|--top <n> [--log <file.jsonl>]\n\
         \x20      lyra-bench export-trace [--log <file.jsonl>] [--out <file.json>]\n\
         \x20      lyra-bench events --filter job=<id>,kind=<kind>,cause=<cause> [--log <file.jsonl>]\n\
         \x20      lyra-bench why <job-id> [--log <file.jsonl>]\n\
         \x20      lyra-bench blame [--top <n>] [--log <file.jsonl>]\n\
         \x20      lyra-bench export-provenance [--log <file.jsonl>] [--out <file.json>]\n\
         \x20      lyra-bench timeline [--log <file.jsonl>] [--width <cols>]\n\
         \x20      lyra-bench prom [--out <file.prom>]\n\
         \x20      lyra-bench perf [--smoke]\n\
         \x20      lyra-bench golden [--bless|--mutate]\n\
         \x20      lyra-bench ablate [--smoke] [--policy <name>] [--seed <s>] [--out <file>]\n\
         \x20      lyra-bench checkpoint --at <seconds> --out <file.ckpt> [--log <file.jsonl>]\n\
         \x20      lyra-bench resume --ckpt <file.ckpt>\n\
         \x20      lyra-bench crash-storm [--kills <n>] [--seed <s>] [--dir <path>]\n\
         ids: {}  (or `all`)\n\
         event kinds: {}\n\
         delay causes: {}",
        experiments::ALL.join(" "),
        lyra_obs::KIND_NAMES.join(" "),
        lyra_obs::DelayCause::ALL
            .iter()
            .map(|c| c.label())
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// Bad arguments: usage on stderr, exit 2.
fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// `help` / `--help`: usage on stdout, exit 0 — asking for help is not
/// an error.
fn help() -> ! {
    println!("{}", usage_text());
    std::process::exit(0);
}

/// Runs one small observed Basic scenario and returns its report; used
/// by `smoke` and by `explain` when no `--log` file is given.
fn observed_small_run(sink: Option<&str>) -> lyra_sim::SimReport {
    // Seed 5 and the Small cluster match tab5's Basic row, which
    // exercises loaning, reclaiming and preemption even at Small scale.
    let (jobs, inference) = Scale::Small.traces(5);
    let mut scenario = Scenario::basic();
    scenario.cluster = Scale::Small.cluster_config();
    let observer = ObserverConfig {
        sink_path: sink.map(std::path::PathBuf::from),
        ..ObserverConfig::default()
    };
    run_scenario_observed(&scenario, &jobs, &inference, observer)
        .unwrap_or_else(|e| panic!("observed run failed: {e}"))
}

/// `smoke [--log <file>]`: one observed end-to-end run with every
/// observability pillar checked — used by ci.sh as the bench smoke
/// test. Exits non-zero if the run produced no events, no metric
/// snapshots, no span profile or no delay attribution, or if the
/// exported Chrome trace fails the `trace_event` schema check. With
/// `--log`, also writes the JSONL event log to `file` (feed it to
/// `explain`/`attribute`/`export-trace`/`events --log <file>`).
fn smoke(log_path: Option<&str>) -> ! {
    let report = observed_small_run(log_path);
    println!(
        "smoke: {} jobs completed, {} events, {} metric snapshots, {} profiled phases",
        report.completed,
        report.events.len(),
        report.metrics.len(),
        report.profile.0.len()
    );
    print!("{}", report.profile.render());
    print!("{}", report.attribution.render_table());
    let events = lyra_obs::parse_log(&report.events.join("\n"))
        .unwrap_or_else(|e| panic!("smoke: event log does not parse: {e}"));
    let trace = lyra_obs::export_chrome_trace(&events);
    let stats = lyra_obs::validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("smoke: exported Chrome trace is malformed: {e}"));
    println!(
        "smoke: chrome trace ok ({} events, {} tracks, {} span pairs)",
        stats.events, stats.tracks, stats.span_pairs
    );
    let ok = report.completed > 0
        && !report.events.is_empty()
        && !report.metrics.is_empty()
        && !report.profile.0.is_empty()
        && report.attribution.jobs > 0
        && stats.span_pairs > 0;
    if !ok {
        eprintln!("smoke: missing observability output");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// The JSONL event log named by `--log`, or a fresh small observed run.
/// A bad path is a clean user error, not a panic.
fn load_log(log_path: Option<&str>) -> String {
    match log_path {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read event log {path}: {e}");
            std::process::exit(1);
        }),
        None => observed_small_run(None).events.join("\n"),
    }
}

/// Parses a JSONL event log, exiting cleanly on malformed input.
fn parse_log_or_exit(jsonl: &str) -> Vec<lyra_obs::TimedEvent> {
    lyra_obs::parse_log(jsonl).unwrap_or_else(|e| {
        eprintln!("event log does not parse: {e}");
        std::process::exit(1);
    })
}

/// `explain <job-id>`: narrate the causal chain for one job from a
/// recorded event log, or from a fresh small observed run.
fn explain(job: u64, log_path: Option<&str>) -> ! {
    let jsonl = load_log(log_path);
    let events = parse_log_or_exit(&jsonl);
    print!("{}", lyra_obs::explain_job(&events, job));
    std::process::exit(0);
}

/// `attribute <job-id>` / `attribute --top <n>`: the per-job JCT
/// decomposition (ranked causes + timeline) or the cluster-wide ranking
/// by time lost, derived by replaying the event log.
fn attribute(job: Option<u64>, top: Option<usize>, log_path: Option<&str>) -> ! {
    let jsonl = load_log(log_path);
    let events = parse_log_or_exit(&jsonl);
    let attrs = lyra_obs::attribute_log(&events);
    match (job, top) {
        (Some(id), _) => {
            let Some(attr) = attrs.iter().find(|a| a.job == id) else {
                eprintln!("attribute: job {id} does not appear in the event log");
                std::process::exit(1);
            };
            print!("{}", lyra_obs::render_job(attr, 40));
        }
        (None, Some(n)) => {
            print!("{}", lyra_obs::render_top(&attrs, n));
            print!("{}", lyra_obs::summarize(&attrs).render_table());
        }
        (None, None) => usage(),
    }
    std::process::exit(0);
}

/// `export-trace`: write the event log as Chrome/Perfetto `trace_event`
/// JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>). The
/// exported file is schema-validated before the command reports success.
fn export_trace(log_path: Option<&str>, out: &str) -> ! {
    let jsonl = load_log(log_path);
    let events = parse_log_or_exit(&jsonl);
    let trace = lyra_obs::export_chrome_trace(&events);
    let stats = lyra_obs::validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("exported trace failed validation: {e}"));
    std::fs::write(out, &trace).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote {out}: {} events, {} tracks, {} span pairs",
        stats.events, stats.tracks, stats.span_pairs
    );
    std::process::exit(0);
}

/// `events --filter job=<id>,kind=<kind>,cause=<cause>`: slice a JSONL
/// event log, printing the raw lines that match every criterion (a job
/// filter matches any event touching that job, audit records included;
/// a cause filter matches events naming that [`lyra_obs::DelayCause`]).
fn events_cmd(filter: &str, log_path: Option<&str>) -> ! {
    let mut job: Option<u64> = None;
    let mut kind: Option<String> = None;
    let mut cause: Option<lyra_obs::DelayCause> = None;
    for part in filter.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('=') {
            Some(("job", v)) => {
                job = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("events: bad job id in filter: {v}");
                    std::process::exit(2);
                }));
            }
            Some(("kind", v)) => {
                // Validate against the authoritative event-kind list so a
                // typo fails loudly instead of silently matching nothing.
                if !lyra_obs::KIND_NAMES.contains(&v) {
                    eprintln!(
                        "events: unknown event kind {v:?} (known kinds: {})",
                        lyra_obs::KIND_NAMES.join(", ")
                    );
                    std::process::exit(2);
                }
                kind = Some(v.to_string());
            }
            Some(("cause", v)) => {
                // Same deal for the delay-cause taxonomy.
                cause = Some(lyra_obs::DelayCause::from_label(v).unwrap_or_else(|| {
                    eprintln!(
                        "events: unknown delay cause {v:?} (known causes: {})",
                        lyra_obs::DelayCause::ALL
                            .iter()
                            .map(|c| c.label())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(2);
                }));
            }
            _ => {
                eprintln!(
                    "events: bad filter term {part:?} (use job=<id>,kind=<kind>,cause=<cause>)"
                );
                std::process::exit(2);
            }
        }
    }
    if job.is_none() && kind.is_none() && cause.is_none() {
        eprintln!("events: empty filter (use job=<id>,kind=<kind>,cause=<cause>)");
        std::process::exit(2);
    }
    let jsonl = load_log(log_path);
    let lines: Vec<&str> = jsonl.lines().filter(|l| !l.trim().is_empty()).collect();
    let events = parse_log_or_exit(&jsonl);
    // A torn final line (crash-cut log) parses to one fewer event than
    // there are lines; the zip below then skips it.
    if lines.len() != events.len() {
        eprintln!(
            "events: warning: {} lines but {} parsed events (torn final line?)",
            lines.len(),
            events.len()
        );
    }
    let mut matched = 0usize;
    for (line, ev) in lines.iter().zip(&events) {
        let job_ok = job.is_none_or(|id| ev.event.touches_job(id));
        let kind_ok = kind.as_deref().is_none_or(|k| ev.event.kind_name() == k);
        let cause_ok = cause.is_none_or(|c| ev.event.cause() == Some(c));
        if job_ok && kind_ok && cause_ok {
            println!("{line}");
            matched += 1;
        }
    }
    eprintln!("events: {matched} of {} lines matched", lines.len());
    std::process::exit(0);
}

/// `why <job-id>`: render the decision provenance for one job — each
/// delay interval annotated with the causal chain of scheduler
/// decisions (victim ranking, loan demand, faults, …) that produced
/// it, walked back through the provenance graph.
fn why_cmd(job: u64, log_path: Option<&str>) -> ! {
    let jsonl = load_log(log_path);
    let events = parse_log_or_exit(&jsonl);
    match lyra_obs::why_from_log(&events, job) {
        Ok(text) => {
            print!("{text}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("why: {e}");
            std::process::exit(1);
        }
    }
}

/// `blame [--top <n>]`: the reclaim decisions ranked by the victim
/// delay they caused, with the loan-demand decision each ranking
/// answered. Same seed, same bytes.
fn blame_cmd(top: usize, log_path: Option<&str>) -> ! {
    let jsonl = load_log(log_path);
    let events = parse_log_or_exit(&jsonl);
    print!("{}", lyra_obs::blame_from_log(&events, top));
    std::process::exit(0);
}

/// `export-provenance`: the Chrome/Perfetto trace with provenance flow
/// arrows — each reclaim preemption linked back to the victim-ranking
/// decision that chose it, each loan-enabled scale-out to its grant.
/// Schema-validated before the command reports success.
fn export_provenance(log_path: Option<&str>, out: &str) -> ! {
    let jsonl = load_log(log_path);
    let events = parse_log_or_exit(&jsonl);
    let trace = lyra_obs::export_provenance_trace(&events);
    let stats = lyra_obs::validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("provenance trace failed validation: {e}"));
    std::fs::write(out, &trace).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote {out}: {} events, {} tracks, {} span pairs, {} flow events",
        stats.events, stats.tracks, stats.span_pairs, stats.flow_events
    );
    std::process::exit(0);
}

/// `timeline [--log <file.jsonl>] [--width <cols>]`: the sparkline
/// dashboard of the telemetry folded from an event log — the recorded
/// `--log`, or a fresh small observed run's. Both render identically
/// for the same run. Alert transitions are listed under the chart.
fn timeline_cmd(log_path: Option<&str>, width: usize) -> ! {
    let events = parse_log_or_exit(&load_log(log_path));
    let telemetry = lyra_obs::EventFolds::replay(&events).telemetry;
    let alerts = lyra_bench::timeline::alerts_from_log(&events);
    print!(
        "{}",
        lyra_bench::timeline::render_dashboard(&telemetry, &alerts, width)
    );
    std::process::exit(0);
}

/// `prom [--out <file.prom>]`: run one small observed scenario and
/// write its telemetry + metrics registry in Prometheus text
/// exposition format 0.0.4 (stdout when `--out` is omitted). Same
/// seed, same bytes.
fn prom_cmd(out: Option<&str>) -> ! {
    let report = observed_small_run(None);
    let text = lyra_obs::render_prometheus(&report.telemetry, report.metrics.last());
    match out {
        Some(path) => {
            std::fs::write(path, &text).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path} ({} lines)", text.lines().count());
        }
        None => print!("{text}"),
    }
    std::process::exit(0);
}

/// True if `arg` is a flag, subcommand or experiment id — i.e. not a
/// directory operand for `--json [dir]`.
fn is_operand_like(arg: &str) -> bool {
    arg.starts_with("--")
        || matches!(
            arg,
            "all" | "list"
                | "help"
                | "plot"
                | "smoke"
                | "explain"
                | "attribute"
                | "export-trace"
                | "export-provenance"
                | "events"
                | "why"
                | "blame"
                | "timeline"
                | "prom"
                | "perf"
                | "golden"
                | "ablate"
                | "checkpoint"
                | "resume"
                | "crash-storm"
        )
        || experiments::ALL.contains(&arg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut scale = Scale::Medium;
    let mut json_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--small" => scale = Scale::Small,
            "--medium" => scale = Scale::Medium,
            "--full" => scale = Scale::Full,
            "--quiet" => lyra_obs::output::set_mode(OutputMode::Quiet),
            "--json" => {
                lyra_obs::output::set_mode(OutputMode::Json);
                // Back-compat: `--json results/` also archives one JSON
                // file per experiment into the directory.
                if let Some(next) = args.get(i + 1) {
                    if !is_operand_like(next) {
                        json_dir = Some(next.clone());
                        i += 1;
                    }
                }
            }
            "help" | "--help" => help(),
            "list" => {
                for id in experiments::ALL {
                    println!("{id}");
                }
                return;
            }
            "timeline" => {
                let mut log_path: Option<String> = None;
                let mut width = lyra_bench::timeline::DEFAULT_WIDTH;
                let mut k = i + 1;
                while k < args.len() {
                    match args[k].as_str() {
                        "--log" => {
                            log_path = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        "--width" => {
                            let raw = args.get(k + 1).cloned().unwrap_or_else(|| usage());
                            width = raw.parse().unwrap_or_else(|_| {
                                eprintln!("timeline: --width expects columns, got {raw:?}");
                                std::process::exit(2);
                            });
                            k += 2;
                        }
                        other => {
                            eprintln!("timeline: unknown argument {other:?}");
                            usage();
                        }
                    }
                }
                timeline_cmd(log_path.as_deref(), width);
            }
            "prom" => {
                let mut out: Option<String> = None;
                let mut k = i + 1;
                while k < args.len() {
                    match args[k].as_str() {
                        "--out" => {
                            out = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        other => {
                            eprintln!("prom: unknown argument {other:?}");
                            usage();
                        }
                    }
                }
                prom_cmd(out.as_deref());
            }
            "smoke" => {
                let log_path = match args.get(i + 1).map(String::as_str) {
                    Some("--log") => Some(args.get(i + 2).cloned().unwrap_or_else(|| usage())),
                    _ => None,
                };
                smoke(log_path.as_deref());
            }
            "perf" => {
                let smoke = args.get(i + 1).map(String::as_str) == Some("--smoke");
                std::process::exit(lyra_bench::perf::run(smoke));
            }
            "golden" => {
                let (bless, mutate) = match args.get(i + 1).map(String::as_str) {
                    Some("--bless") => (true, false),
                    Some("--mutate") => (false, true),
                    None => (false, false),
                    Some(_) => usage(),
                };
                std::process::exit(lyra_bench::golden::run(bless, mutate));
            }
            "ablate" => {
                let mut smoke = false;
                let mut seed: u64 = 0;
                let mut policy: Option<String> = None;
                let mut out: Option<String> = None;
                let mut k = i + 1;
                while k < args.len() {
                    match args[k].as_str() {
                        "--smoke" => {
                            smoke = true;
                            k += 1;
                        }
                        "--policy" => {
                            policy = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        "--seed" => {
                            let raw = args.get(k + 1).cloned().unwrap_or_else(|| usage());
                            seed = raw.parse().unwrap_or_else(|_| {
                                eprintln!("ablate: --seed expects an integer, got {raw:?}");
                                std::process::exit(2);
                            });
                            k += 2;
                        }
                        "--out" => {
                            out = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        other => {
                            eprintln!("ablate: unknown argument {other:?}");
                            usage();
                        }
                    }
                }
                std::process::exit(lyra_bench::ablate::run(
                    smoke,
                    seed,
                    policy.as_deref(),
                    out.as_deref(),
                ));
            }
            "checkpoint" => {
                let mut at: Option<f64> = None;
                let mut out: Option<String> = None;
                let mut log: Option<String> = None;
                let mut k = i + 1;
                while k < args.len() {
                    match args[k].as_str() {
                        "--at" => {
                            let raw = args.get(k + 1).cloned().unwrap_or_else(|| usage());
                            at = Some(raw.parse().unwrap_or_else(|_| {
                                eprintln!("checkpoint: --at expects seconds, got {raw:?}");
                                std::process::exit(2);
                            }));
                            k += 2;
                        }
                        "--out" => {
                            out = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        "--log" => {
                            log = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        other => {
                            eprintln!("checkpoint: unknown argument {other:?}");
                            usage();
                        }
                    }
                }
                let (Some(at), Some(out)) = (at, out) else {
                    eprintln!("checkpoint: --at and --out are required");
                    usage();
                };
                std::process::exit(lyra_bench::crash::checkpoint_cmd(
                    at,
                    std::path::Path::new(&out),
                    log.as_deref().map(std::path::Path::new),
                ));
            }
            "resume" => {
                let mut ckpt: Option<String> = None;
                let mut k = i + 1;
                while k < args.len() {
                    match args[k].as_str() {
                        "--ckpt" => {
                            ckpt = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        other => {
                            eprintln!("resume: unknown argument {other:?}");
                            usage();
                        }
                    }
                }
                let Some(ckpt) = ckpt else {
                    eprintln!("resume: --ckpt is required");
                    usage();
                };
                std::process::exit(lyra_bench::crash::resume_cmd(std::path::Path::new(&ckpt)));
            }
            "crash-storm" => {
                let mut kills: usize = 10;
                let mut seed: u64 = 1;
                let mut dir = std::env::temp_dir().join("lyra-crash-storm");
                let mut k = i + 1;
                while k < args.len() {
                    let parse_next = |what: &str, raw: Option<&String>| -> String {
                        raw.cloned().unwrap_or_else(|| {
                            eprintln!("crash-storm: {what} expects a value");
                            std::process::exit(2);
                        })
                    };
                    match args[k].as_str() {
                        "--kills" => {
                            let raw = parse_next("--kills", args.get(k + 1));
                            kills = raw.parse().unwrap_or_else(|_| {
                                eprintln!("crash-storm: --kills expects a count, got {raw:?}");
                                std::process::exit(2);
                            });
                            k += 2;
                        }
                        "--seed" => {
                            let raw = parse_next("--seed", args.get(k + 1));
                            seed = raw.parse().unwrap_or_else(|_| {
                                eprintln!("crash-storm: --seed expects an integer, got {raw:?}");
                                std::process::exit(2);
                            });
                            k += 2;
                        }
                        "--dir" => {
                            dir = parse_next("--dir", args.get(k + 1)).into();
                            k += 2;
                        }
                        other => {
                            eprintln!("crash-storm: unknown argument {other:?}");
                            usage();
                        }
                    }
                }
                std::process::exit(lyra_bench::crash::storm_cmd(kills, seed, &dir));
            }
            "explain" => {
                let job: u64 = args
                    .get(i + 1)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| usage());
                let log_path = match args.get(i + 2).map(String::as_str) {
                    Some("--log") => Some(args.get(i + 3).cloned().unwrap_or_else(|| usage())),
                    _ => None,
                };
                explain(job, log_path.as_deref());
            }
            "attribute" => {
                let (job, top, next) = match args.get(i + 1).map(String::as_str) {
                    Some("--top") => {
                        let n: usize = args
                            .get(i + 2)
                            .and_then(|a| a.parse().ok())
                            .unwrap_or_else(|| usage());
                        (None, Some(n), i + 3)
                    }
                    Some(id) => {
                        let id: u64 = id.parse().ok().unwrap_or_else(|| usage());
                        (Some(id), None, i + 2)
                    }
                    None => usage(),
                };
                let log_path = match args.get(next).map(String::as_str) {
                    Some("--log") => Some(args.get(next + 1).cloned().unwrap_or_else(|| usage())),
                    _ => None,
                };
                attribute(job, top, log_path.as_deref());
            }
            "why" => {
                let job: u64 = args
                    .get(i + 1)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| usage());
                let log_path = match args.get(i + 2).map(String::as_str) {
                    Some("--log") => Some(args.get(i + 3).cloned().unwrap_or_else(|| usage())),
                    _ => None,
                };
                why_cmd(job, log_path.as_deref());
            }
            "blame" => {
                let mut top: usize = 10;
                let mut log_path: Option<String> = None;
                let mut k = i + 1;
                while k < args.len() {
                    match args[k].as_str() {
                        "--top" => {
                            let raw = args.get(k + 1).cloned().unwrap_or_else(|| usage());
                            top = raw.parse().unwrap_or_else(|_| {
                                eprintln!("blame: --top expects a count, got {raw:?}");
                                std::process::exit(2);
                            });
                            k += 2;
                        }
                        "--log" => {
                            log_path = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        other => {
                            eprintln!("blame: unknown argument {other:?}");
                            usage();
                        }
                    }
                }
                blame_cmd(top, log_path.as_deref());
            }
            "export-provenance" => {
                let mut log_path: Option<String> = None;
                let mut out = "provenance.json".to_string();
                let mut k = i + 1;
                while k < args.len() {
                    match args[k].as_str() {
                        "--log" => {
                            log_path = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        "--out" => {
                            out = args.get(k + 1).cloned().unwrap_or_else(|| usage());
                            k += 2;
                        }
                        _ => usage(),
                    }
                }
                export_provenance(log_path.as_deref(), &out);
            }
            "export-trace" => {
                let mut log_path: Option<String> = None;
                let mut out = "trace.json".to_string();
                let mut k = i + 1;
                while k < args.len() {
                    match args[k].as_str() {
                        "--log" => {
                            log_path = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        "--out" => {
                            out = args.get(k + 1).cloned().unwrap_or_else(|| usage());
                            k += 2;
                        }
                        _ => usage(),
                    }
                }
                export_trace(log_path.as_deref(), &out);
            }
            "events" => {
                let mut log_path: Option<String> = None;
                let mut filter: Option<String> = None;
                let mut k = i + 1;
                while k < args.len() {
                    match args[k].as_str() {
                        "--log" => {
                            log_path = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        "--filter" => {
                            filter = Some(args.get(k + 1).cloned().unwrap_or_else(|| usage()));
                            k += 2;
                        }
                        _ => usage(),
                    }
                }
                let filter = filter.unwrap_or_else(|| usage());
                events_cmd(&filter, log_path.as_deref());
            }
            "plot" => {
                for path in &args[i + 1..] {
                    let json = std::fs::read_to_string(path)
                        .unwrap_or_else(|e| panic!("read {path}: {e}"));
                    let result: lyra_bench::ExperimentResult = serde_json::from_str(&json)
                        .unwrap_or_else(|e| panic!("parse {path}: {e}"));
                    let svg = lyra_bench::plot::plot_experiment(&result);
                    let out = path.replace(".json", ".svg");
                    std::fs::write(&out, svg).expect("write svg");
                    println!("wrote {out}");
                }
                return;
            }
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage();
    }
    for id in &ids {
        lyra_obs::emitln!("==== {id} ({scale:?}) ====");
        let start = std::time::Instant::now();
        let Some(result) = experiments::run(id, scale) else {
            eprintln!("unknown experiment: {id}");
            std::process::exit(2);
        };
        lyra_obs::emitln!("[{id} done in {:.1}s]\n", start.elapsed().as_secs_f64());
        let payload = serde_json::to_string(&result).expect("serialise result");
        lyra_obs::output::emit_json(&payload);
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create output dir");
            let path = format!("{dir}/{id}.json");
            let mut f = std::fs::File::create(&path).expect("create json file");
            let pretty = serde_json::to_string_pretty(&result).expect("serialise result");
            f.write_all(pretty.as_bytes()).expect("write json");
            lyra_obs::emitln!("wrote {path}");
        }
    }
}
