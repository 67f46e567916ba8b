//! `benchmark` — the one benchmark of this repository.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out PATH]
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH]
//! benchmark compare BASE.json[,…] NEW.json[,…]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints the
//! result as the last line of standard output. Without, it runs every
//! workload in a fresh child process each, so peak memory and set-up time
//! are per workload. See `README.md` beside this package.

use stackbench::harness::json::Json;
use stackbench::harness::report::Outcome;
use stackbench::harness::run::Options;
use stackbench::harness::{alloc, env, report, run, stack, traced, workloads};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    opts: Options,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out PATH] | benchmark compare BASE.json[,…] NEW.json[,…]";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        opts: Options {
            seed: 42,
            seconds: 10.0,
            smoke: false,
        },
        trace: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => parsed.opts.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(parsed.opts.seconds.is_finite() && parsed.opts.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if parsed.opts.smoke && !seconds_given {
        parsed.opts.seconds = 0.5;
    }
    Ok(parsed)
}

/// Seed, commit, machine and effective configuration: what a reader needs
/// to know the run was what it claims to be.
fn context() -> Vec<(&'static str, Json)> {
    let c = stack::server_config(0);
    let config = Json::obj([
        ("workers", Json::Num(c.workers as f64)),
        ("transport", Json::str(format!("{:?}", c.transport))),
        ("session_ttl_s", Json::Num(c.session_ttl.as_secs_f64())),
        (
            "plan_cache_capacity",
            Json::Num(c.plan_cache_capacity as f64),
        ),
        ("exec_threads", Json::Num(c.exec_threads as f64)),
        (
            "session_budget_bytes",
            Json::Num(c.session_budget_bytes as f64),
        ),
        ("slow_query_millis", Json::Num(c.slow_query_millis as f64)),
        ("trace_sample_untraced", Json::Num(0.0)),
        ("trace_sample_traced", Json::Num(1.0)),
        ("max_inflight", Json::Num(c.max_inflight as f64)),
        ("max_pipeline", Json::Num(c.max_pipeline as f64)),
        ("shed_pool_queue", Json::Num(c.shed_pool_queue as f64)),
        (
            "default_deadline_millis",
            Json::Num(c.default_deadline_millis as f64),
        ),
    ]);
    vec![
        ("commit", Json::str(env::git_commit())),
        ("nproc", Json::Num(env::nproc() as f64)),
        ("config", config),
        (
            "scrubbed_env",
            Json::Arr(env::SCRUBBED.iter().map(|v| Json::str(*v)).collect()),
        ),
    ]
}

fn run_one(name: &str, args: &Args) -> Result<Outcome, String> {
    let shape = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        format!(
            "unknown workload `{name}`; the workloads are {}",
            names.join(", ")
        )
    })?;
    Ok(if args.trace {
        traced::traced(shape, &args.opts)
    } else {
        run::untraced(shape, &args.opts)
    })
}

fn write_out(path: &PathBuf, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Run every workload, each in a fresh child process so that peak memory
/// and set-up time are its own, untraced and — with `--trace 1` — traced
/// too. Prints every child's listing and, last, one document holding all
/// result documents.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for shape in workloads::ALL {
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let doc_path =
                env::out_dir().join(format!("result-{}-{}.json", shape.name, u8::from(traced)));
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", shape.name])
                .args(["--seed", &args.opts.seed.to_string()])
                .args(["--seconds", &args.opts.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&doc_path);
            if args.opts.smoke {
                child.arg("--smoke");
            }
            // `output` waits for the child to end.
            let output = child
                .output()
                .map_err(|e| format!("cannot start the {} run: {e}", shape.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            lines.pop(); // the child's contract line; its document is read below
            for line in lines {
                println!("{line}");
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            all_correct &= output.status.success();
            let text = std::fs::read_to_string(&doc_path)
                .map_err(|e| format!("{} left no result: {e}", shape.name))?;
            runs.push(
                Json::parse(text.trim()).map_err(|e| format!("{}: {e}", doc_path.display()))?,
            );
        }
    }
    let all = Json::obj([("runs", Json::Arr(runs))]);
    if let Some(path) = &args.out {
        write_out(path, &all)?;
    }
    println!("{}", all.render());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn real_main() -> Result<ExitCode, String> {
    env::scrub_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = argv.as_slice() else {
            return Err(USAGE.to_string());
        };
        let any_worse = report::compare(base, new)?;
        return Ok(if any_worse {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        });
    }
    let args = parse(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let nproc = env::nproc();
    if nproc < stack::MIN_CPUS && !args.opts.smoke {
        return Err(format!(
            "{nproc} CPU available: the load shape needs {}; only --smoke runs on fewer",
            stack::MIN_CPUS
        ));
    }
    let Some(name) = args.workload.as_deref() else {
        return run_all(&args);
    };
    let outcome = run_one(name, &args)?;
    for e in &outcome.errors {
        eprintln!("{name}: {e}");
    }
    print!("{}", outcome.listing());
    if let Some(path) = &args.out {
        write_out(path, &outcome.document(&context()))?;
    }
    println!("{}", outcome.contract_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
