//! `e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`: run one
//! workload of the benchmark and end standard output with one JSON object.
//! Everything else a run says goes to standard error.

use ntt_e2e::metrics::{benchmark_json, END_TO_END, PER_LAYER};
use ntt_e2e::phase::{Opts, Workload};
use ntt_e2e::serving::Shape;
use ntt_e2e::stats::{in_declared_order, result_line};
use ntt_e2e::trace::Recorder;
use ntt_e2e::{host, probes, serving, train};
use std::path::PathBuf;

const USAGE: &str = "usage: e2e --workload <wire_paper|wire_tiny|batch_paper|train_paper> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--flip-expected-bit] | --print-benchmark-json";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut flip_expected_bit = false;
    let mut fresh_process_sample = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} wants a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("no workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {v} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
                });
            }
            "--smoke" => smoke = true,
            "--flip-expected-bit" => flip_expected_bit = true,
            "--fresh-process-sample" => fresh_process_sample = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir: PathBuf = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("bench-e2e");
    Ok(Opts {
        workload: workload.ok_or_else(|| format!("--workload is missing\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is missing\n{USAGE}"))?,
        seconds: seconds.ok_or_else(|| format!("--seconds is missing\n{USAGE}"))?,
        trace: trace.ok_or_else(|| format!("--trace is missing\n{USAGE}"))?,
        smoke,
        flip_expected_bit,
        fresh_process_sample,
        out_dir,
    })
}

/// Refuse to measure what would not be the program at its defaults.
fn guard(opts: &Opts) -> Result<(), String> {
    if std::env::var_os("NTT_CHAOS").is_some() {
        return Err("NTT_CHAOS is set: a run with injected faults is not a measurement".into());
    }
    if env!("E2E_PROFILE") != "release" && !opts.smoke {
        return Err(format!(
            "this is a {} build; time a --release build (or pass --smoke)",
            env!("E2E_PROFILE")
        ));
    }
    if opts.trace && !ntt_obs::enabled() {
        return Err("--trace 1 reads ntt-obs counters and histograms; unset NTT_OBS=off".into());
    }
    Ok(())
}

fn stamp(opts: &Opts) {
    eprintln!(
        "e2e: workload {} seed {} seconds {} trace {}{}{}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.smoke { " smoke" } else { "" },
        if opts.flip_expected_bit {
            " flip-expected-bit"
        } else {
            ""
        },
    );
    // Commit, CPU model, cores, NTT_THREADS and NTT_OBS as found.
    eprintln!("e2e: host {}", ntt_bench::report::host_context_json());
    eprintln!(
        "e2e: allowed CPUs {}, load {}, {}, profile {}",
        host::allowed_cpus(),
        host::loadavg(),
        env!("E2E_RUSTC"),
        env!("E2E_PROFILE"),
    );
}

/// Run the workload; `Ok` carries the result line and whether every
/// operation passed.
fn run(opts: &Opts) -> Result<(String, bool), String> {
    let obs_before = ntt_obs::snapshot();
    let mut rec = opts.trace.then(Recorder::new);
    let mut layers = Vec::new();
    let (outcome, artifacts) = match opts.workload {
        Workload::WirePaper | Workload::WireTiny | Workload::BatchPaper => {
            let shape = if opts.workload == Workload::WireTiny {
                Shape::tiny(opts.seed, opts.smoke)
            } else {
                Shape::paper(opts.seed, opts.smoke)
            };
            // Probes first: their trees must fit the span file before the
            // timed phase fills what is left of it.
            if let Some(rec) = rec.as_mut() {
                layers = probes::all(opts, &shape, None, rec)?;
            }
            let outcome = if opts.workload == Workload::BatchPaper {
                serving::run_batch(opts, &shape, rec.as_mut())?
            } else {
                serving::run_wire(opts, &shape, rec.as_mut())?
            };
            (outcome, None)
        }
        Workload::TrainPaper => {
            let shape = Shape::paper(opts.seed, opts.smoke);
            let (outcome, artifacts) = train::run(opts, shape.cfg, rec.as_mut())?;
            (outcome, Some((shape, artifacts)))
        }
    };
    let summary = outcome.summarize()?;
    let printed = if let Some(rec) = rec.as_mut() {
        if let Some((shape, artifacts)) = &artifacts {
            layers = probes::all(opts, shape, Some(artifacts), rec)?;
        }
        layers.extend(probes::health(&obs_before));
        layers.extend(summary.bench()?);
        layers.push(("bench.clock_ns", host::clock_ns()));
        let path = opts
            .out_dir
            .join(format!("trace_{}.json", opts.workload.name()));
        rec.write_json(&path, opts.workload.name(), opts.seed)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("e2e: {} spans in {}", rec.spans().len(), path.display());
        in_declared_order(PER_LAYER, &layers)?
    } else {
        in_declared_order(END_TO_END, &summary.end_to_end())?
    };
    let passed = summary.failed == 0;
    let line = result_line(passed, summary.attempted, summary.failed, &printed)?;
    Ok((line, passed))
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--print-benchmark-json"] {
        print!("{}", benchmark_json());
        return 0;
    }
    let outcome = parse(&args).and_then(|opts| {
        guard(&opts)?;
        if opts.fresh_process_sample {
            let shape = Shape::paper(opts.seed, opts.smoke);
            let (setup_s, peak_mb) = train::sample(&opts, shape.cfg)?;
            return Ok((format!("{setup_s} {peak_mb}"), true));
        }
        stamp(&opts);
        run(&opts)
    });
    match outcome {
        Ok((line, passed)) => {
            println!("{line}");
            if passed {
                0
            } else {
                eprintln!("e2e: at least one operation failed its check");
                1
            }
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            2
        }
    }
}

fn main() {
    // Every guard (servers, the CPU restriction, checkpoint files) has
    // been dropped by the time `real_main` returns.
    std::process::exit(real_main());
}
