//! `rpr` — the preferred-repairs command line.
//!
//! ```text
//! rpr classify  FILE
//! rpr check     FILE [REPAIR_NAME]
//! rpr repairs   FILE [--semantics all|pareto|global|completion] [--max-work N]
//! rpr construct FILE
//! rpr cqa       FILE "q(?x) <- R(?x, c)" [--semantics …] [--max-work N]
//! ```
//!
//! `FILE` is a `.rpr` workspace (see `rpr_cli::format`). `check`,
//! `repairs`, `cqa` and `certify` always run under one engine
//! [`Budget`] shared by the whole run; with none of `--timeout-ms`,
//! `--max-work` or `--cancel-after-ms` it is `--max-work 4194304`.
//! Exit codes: 0 success, 1 usage error, 2 parse/command error (also a
//! tripped budget), 4 budget exceeded with a partial result
//! (`--on-exceed partial`), 5 cancelled.

use rpr_cli::commands::{self, BoundedRun, RunStatus};
use rpr_cli::format::parse_workspace;
use rpr_cli::store;
use rpr_core::Budget;
use std::process::ExitCode;
use std::time::Duration;

/// The work allowance of a bounded command given no budget flag.
const DEFAULT_MAX_WORK: u64 = 1 << 22;

const USAGE: &str = "\
usage: rpr <command> <file.rpr> [args]

commands:
  classify  FILE [--explain]          report both dichotomy classifications
                                      (--explain adds Armstrong certificates)
  check     FILE [NAME] [--jobs N]    check candidate repair(s) declared in the file
  repairs   FILE [--semantics S] [--max-work N] [--jobs N]
                                      enumerate repairs (S: all|pareto|global|completion)
  construct FILE                      build one globally-optimal repair (always PTIME)
  cqa       FILE QUERY [--semantics S] [--max-work N] [--jobs N]
                                      certain/possible answers, e.g. \"q(?x) <- R(?x, c)\"
  discover  FILE [--max-lhs N]        mine the FDs holding in the declared facts
  lint      FILE                      normal-form + dichotomy report per relation
  export    FILE OUT                  convert: .rprb writes binary, otherwise text
                                      (all commands read both forms)
  stats     FILE                      conflict statistics of the instance
  derive    FILE \"R: 1 -> 2\"          Armstrong-axiom proof that the FD is implied
  delta     FILE OPSFILE [--out OUT]  apply insert/delete/prefer/unprefer ops through
                                      the incremental session (cross-checked against
                                      a cold rebuild; --out writes the mutated
                                      workspace, .rprb for binary)
  certify   FILE [NAME] [--classify]  emit verdict certificates (one canonical JSON
                                      document per line; --classify certifies the
                                      dichotomy classification instead)
  audit     FILE                      independently re-validate certificates with
                                      rpr-audit (exit 0 all valid, 2 otherwise)
  serve     [--addr HOST:PORT] [--jobs N] [--queue N] [--cache N]
            [--cache-bytes-max N] [--timeout-ms MS] [--max-work N]
            [--idle-timeout-ms MS] [--requests-per-conn N]
            [--max-connections N] [--self-audit]
                                      run the repair-checking HTTP service
                                      (keep-alive; POST /check /classify /cqa /delta,
                                      GET /healthz /metrics; --self-audit re-checks
                                      every issued certificate before responding;
                                      --cache-bytes-max caps shard-store bytes,
                                      evicting cold shards LRU-first)
  request   URL [FILE] [--repairs A,B] [--query Q] [--semantics S]
            [--timeout-ms MS] [--max-work N]
                                      send one request to a running server, e.g.
                                      rpr request http://127.0.0.1:7171/check db.rpr

options:
  --jobs N            worker threads for check/repairs/cqa parallel fan-out
                      (default: available parallelism; 1 = sequential)
  --timeout-ms MS     wall-clock deadline for check/repairs/cqa/certify
  --max-work N        work-unit allowance for check/repairs/cqa/certify, shared
                      by the whole run (default 4194304 when none of
                      --timeout-ms/--max-work/--cancel-after-ms is given)
  --cancel-after-ms MS  fire the cooperative cancel token after MS
  --on-exceed MODE    fail (default): a tripped budget is an error (exit 2)
                      partial: report the partial result, exit 4
                      (cancellation always reports partial and exits 5)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(CliResult { report, exit, note }) => {
            print!("{report}");
            if let Some(note) = note {
                eprintln!("{note}");
            }
            ExitCode::from(exit)
        }
        Err(UsageOr::Usage(msg)) => {
            eprintln!("{msg}\n{USAGE}");
            ExitCode::from(1)
        }
        Err(UsageOr::Command(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// What the process prints and how it exits.
struct CliResult {
    report: String,
    exit: u8,
    /// An extra stderr line (the budget-report JSON on degraded runs).
    note: Option<String>,
}

impl CliResult {
    fn ok(report: String) -> Self {
        CliResult { report, exit: 0, note: None }
    }
}

enum UsageOr {
    Usage(String),
    Command(String),
}

enum OnExceed {
    Fail,
    Partial,
}

fn opt_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn opt_parse<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, UsageOr> {
    match opt_value(args, flag) {
        Some(v) => {
            v.parse().map(Some).map_err(|_| UsageOr::Command(format!("bad {flag} value `{v}`")))
        }
        None => Ok(None),
    }
}

/// Folds a bounded command's result into output + exit code under the
/// `--on-exceed` policy (a command error exits 2).
fn resolve_bounded(
    run: Result<BoundedRun, commands::CommandError>,
    on_exceed: &OnExceed,
) -> Result<CliResult, UsageOr> {
    let run = run.map_err(|e| UsageOr::Command(e.to_string()))?;
    match run.status {
        RunStatus::Done => Ok(CliResult::ok(run.report)),
        RunStatus::Exceeded(report) => match on_exceed {
            OnExceed::Fail => Err(UsageOr::Command(format!(
                "budget exceeded ({report}) — raise --timeout-ms/--max-work or pass --on-exceed partial"
            ))),
            OnExceed::Partial => {
                Ok(CliResult { report: run.report, exit: 4, note: Some(report.to_json()) })
            }
        },
        RunStatus::Cancelled => {
            Ok(CliResult { report: run.report, exit: 5, note: Some("cancelled".to_owned()) })
        }
        RunStatus::Panicked(report) => Err(UsageOr::Command(report.to_string())),
    }
}

fn run(args: &[String]) -> Result<CliResult, UsageOr> {
    let command = args.first().ok_or_else(|| UsageOr::Usage("missing command".into()))?;
    // Unknown flags are otherwise ignored, so a removed safety flag must
    // fail loudly rather than silently run unguarded.
    if args.iter().any(|a| a == "--budget") {
        return Err(UsageOr::Usage(
            "--budget was removed: use --max-work N (one allowance for the whole run)".into(),
        ));
    }
    // Network commands take no workspace file argument up front, and
    // `audit` reads certificate lines rather than a workspace.
    match command.as_str() {
        "serve" => return run_serve(args),
        "request" => return run_request(args),
        "audit" => return run_audit(args),
        _ => {}
    }
    let path = args.get(1).ok_or_else(|| UsageOr::Usage("missing workspace file".into()))?;
    let raw =
        std::fs::read(path).map_err(|e| UsageOr::Command(format!("cannot read {path}: {e}")))?;
    let ws = if store::is_binary(&raw) {
        store::decode(&raw).map_err(|e| UsageOr::Command(e.to_string()))?
    } else {
        let text = String::from_utf8(raw)
            .map_err(|_| UsageOr::Command(format!("{path} is neither UTF-8 text nor .rprb")))?;
        parse_workspace(&text).map_err(|e| UsageOr::Command(e.to_string()))?
    };

    let semantics = opt_value(args, "--semantics").unwrap_or_else(|| "global".to_owned());
    // Worker threads for the check session's parallel fan-out
    // (`0`/absent → available parallelism, shared with `rpr serve`).
    let jobs: usize = rpr_core::resolve_jobs(opt_parse(args, "--jobs")?);

    // Execution control of check/repairs/cqa/certify: one engine budget
    // meters the whole run.
    let timeout_ms: Option<u64> = opt_parse(args, "--timeout-ms")?;
    let max_work: Option<u64> = opt_parse(args, "--max-work")?;
    let cancel_after_ms: Option<u64> = opt_parse(args, "--cancel-after-ms")?;
    let on_exceed = match opt_value(args, "--on-exceed").as_deref() {
        None | Some("fail") => OnExceed::Fail,
        Some("partial") => OnExceed::Partial,
        Some(other) => {
            return Err(UsageOr::Command(format!(
                "bad --on-exceed value `{other}` (use fail|partial)"
            )))
        }
    };
    let max_work = match (timeout_ms, max_work, cancel_after_ms) {
        (None, None, None) => Some(DEFAULT_MAX_WORK),
        (_, w, _) => w,
    };
    let mut budget = Budget::unlimited();
    if let Some(ms) = timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(w) = max_work {
        budget = budget.with_max_work(w);
    }
    if let Some(ms) = cancel_after_ms {
        budget.cancel_token().cancel_after(Duration::from_millis(ms));
    }

    match command.as_str() {
        "classify" => {
            if args.iter().any(|a| a == "--explain") {
                Ok(CliResult::ok(commands::classify_explain(&ws)))
            } else {
                Ok(CliResult::ok(commands::classify(&ws)))
            }
        }
        "check" => {
            let name = args.get(2).filter(|a| !a.starts_with("--")).map(|s| s.as_str());
            resolve_bounded(commands::check(&ws, name, jobs, &budget), &on_exceed)
        }
        "repairs" => resolve_bounded(commands::repairs(&ws, &semantics, jobs, &budget), &on_exceed),
        "construct" => Ok(CliResult::ok(commands::construct(&ws))),
        "discover" => {
            let max_lhs: usize = match opt_value(args, "--max-lhs") {
                Some(m) => {
                    m.parse().map_err(|_| UsageOr::Command(format!("bad --max-lhs value `{m}`")))?
                }
                None => 3,
            };
            Ok(CliResult::ok(commands::discover(&ws, max_lhs)))
        }
        "lint" => Ok(CliResult::ok(commands::lint(&ws))),
        "derive" => {
            let fd_text =
                args.get(2).ok_or_else(|| UsageOr::Usage("derive needs an FD argument".into()))?;
            commands::derive(&ws, fd_text)
                .map(CliResult::ok)
                .map_err(|e| UsageOr::Command(e.to_string()))
        }
        "delta" => {
            let ops_path = args
                .get(2)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| UsageOr::Usage("delta needs an ops file".into()))?;
            let ops_text = std::fs::read_to_string(ops_path)
                .map_err(|e| UsageOr::Command(format!("cannot read {ops_path}: {e}")))?;
            let (mut report, mutated) =
                commands::delta(&ws, &ops_text).map_err(|e| UsageOr::Command(e.to_string()))?;
            if let Some(out) = opt_value(args, "--out") {
                if out.ends_with(".rprb") {
                    let bytes =
                        store::encode(&mutated).map_err(|e| UsageOr::Command(e.to_string()))?;
                    std::fs::write(&out, &bytes)
                        .map_err(|e| UsageOr::Command(format!("cannot write {out}: {e}")))?;
                    report.push_str(&format!("wrote {out} ({} bytes, binary)\n", bytes.len()));
                } else {
                    let text = rpr_cli::format::render_workspace(&mutated);
                    std::fs::write(&out, &text)
                        .map_err(|e| UsageOr::Command(format!("cannot write {out}: {e}")))?;
                    report.push_str(&format!("wrote {out} ({} bytes, text)\n", text.len()));
                }
            }
            Ok(CliResult::ok(report))
        }
        "export" => {
            let out =
                args.get(2).ok_or_else(|| UsageOr::Usage("export needs an output path".into()))?;
            // Extension picks the format: .rprb binary, anything else text.
            if out.ends_with(".rprb") {
                let bytes = store::encode(&ws).map_err(|e| UsageOr::Command(e.to_string()))?;
                std::fs::write(out, &bytes)
                    .map_err(|e| UsageOr::Command(format!("cannot write {out}: {e}")))?;
                Ok(CliResult::ok(format!("wrote {out} ({} bytes, binary)\n", bytes.len())))
            } else {
                let text = rpr_cli::format::render_workspace(&ws);
                std::fs::write(out, &text)
                    .map_err(|e| UsageOr::Command(format!("cannot write {out}: {e}")))?;
                Ok(CliResult::ok(format!("wrote {out} ({} bytes, text)\n", text.len())))
            }
        }
        "certify" => {
            let name = args.get(2).filter(|a| !a.starts_with("--")).map(|s| s.as_str());
            let classify_only = args.iter().any(|a| a == "--classify");
            resolve_bounded(commands::certify(&ws, name, classify_only, &budget), &on_exceed)
        }
        "stats" => Ok(CliResult::ok(commands::stats(&ws))),
        "cqa" => {
            let query = args
                .get(2)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| UsageOr::Usage("cqa needs a query argument".into()))?;
            resolve_bounded(commands::cqa(&ws, query, &semantics, jobs, &budget), &on_exceed)
        }
        other => Err(UsageOr::Usage(format!("unknown command `{other}`"))),
    }
}

/// `rpr audit FILE` — independently re-validate certificates (one
/// JSON document per line, as `rpr certify` and the serve `certify`
/// flag emit them). Exit 0 when every certificate passes, 2 otherwise.
fn run_audit(args: &[String]) -> Result<CliResult, UsageOr> {
    let path =
        args.get(1).ok_or_else(|| UsageOr::Usage("audit needs a certificate file".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| UsageOr::Command(format!("cannot read {path}: {e}")))?;
    let (report, all_ok) = commands::audit(&text);
    Ok(CliResult { report, exit: if all_ok { 0 } else { 2 }, note: None })
}

/// `rpr serve` — run the repair-checking HTTP service until drained
/// (SIGINT/SIGTERM or `POST /shutdown`).
fn run_serve(args: &[String]) -> Result<CliResult, UsageOr> {
    use rpr_serve::{ServeConfig, Server};
    let defaults = ServeConfig::default();
    // The spread covers `corrupt_certificates`, which only exists when
    // rpr-serve is built with `--features faults`.
    #[allow(clippy::needless_update)]
    let config = ServeConfig {
        addr: opt_value(args, "--addr").unwrap_or(defaults.addr),
        jobs: opt_parse(args, "--jobs")?,
        queue_capacity: opt_parse(args, "--queue")?.unwrap_or(defaults.queue_capacity),
        cache_capacity: opt_parse(args, "--cache")?.unwrap_or(defaults.cache_capacity),
        cache_bytes_max: opt_parse(args, "--cache-bytes-max")?.or(defaults.cache_bytes_max),
        default_timeout_ms: opt_parse(args, "--timeout-ms")?.or(defaults.default_timeout_ms),
        default_max_work: opt_parse(args, "--max-work")?,
        install_signal_handlers: true,
        idle_timeout_ms: opt_parse(args, "--idle-timeout-ms")?.unwrap_or(defaults.idle_timeout_ms),
        max_requests_per_conn: opt_parse(args, "--requests-per-conn")?
            .unwrap_or(defaults.max_requests_per_conn),
        max_connections: opt_parse(args, "--max-connections")?.unwrap_or(defaults.max_connections),
        self_audit: args.iter().any(|a| a == "--self-audit"),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).map_err(|e| UsageOr::Command(format!("cannot bind: {e}")))?;
    let addr = server.local_addr().map_err(|e| UsageOr::Command(e.to_string()))?;
    // Announced on stdout, flushed, so scripts (and the integration
    // test) can pick up an ephemeral port from the first line.
    println!("rpr-serve listening on http://{addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let admitted = server.run().map_err(|e| UsageOr::Command(format!("serve: {e}")))?;
    Ok(CliResult::ok(format!("drained after {admitted} connection(s)\n")))
}

/// `rpr request` — a one-shot client for a running `rpr serve`,
/// packaging a workspace file into the JSON body the service expects.
fn run_request(args: &[String]) -> Result<CliResult, UsageOr> {
    use rpr_serve::{client_call, Json};
    let url = args
        .get(1)
        .ok_or_else(|| UsageOr::Usage("request needs a URL (http://HOST:PORT/ENDPOINT)".into()))?;
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (addr, path) = match rest.split_once('/') {
        Some((addr, path)) => (addr, format!("/{path}")),
        None => return Err(UsageOr::Usage(format!("URL `{url}` names no endpoint path"))),
    };

    let (method, body) = if matches!(path.as_str(), "/healthz" | "/metrics") {
        ("GET", Vec::new())
    } else if path == "/shutdown" {
        ("POST", Vec::new())
    } else {
        // POST endpoints ship the workspace text (binary stores are
        // re-rendered: the wire format is always .rpr text).
        let file = args
            .get(2)
            .filter(|a| !a.starts_with("--"))
            .ok_or_else(|| UsageOr::Usage(format!("request to {path} needs a workspace file")))?;
        let raw = std::fs::read(file)
            .map_err(|e| UsageOr::Command(format!("cannot read {file}: {e}")))?;
        let text = if store::is_binary(&raw) {
            let ws = store::decode(&raw).map_err(|e| UsageOr::Command(e.to_string()))?;
            rpr_cli::format::render_workspace(&ws)
        } else {
            String::from_utf8(raw)
                .map_err(|_| UsageOr::Command(format!("{file} is neither UTF-8 text nor .rprb")))?
        };
        let mut fields = vec![("workspace".to_owned(), Json::str(text))];
        if let Some(names) = opt_value(args, "--repairs") {
            fields
                .push(("repairs".to_owned(), Json::Arr(names.split(',').map(Json::str).collect())));
        }
        if let Some(query) = opt_value(args, "--query") {
            fields.push(("query".to_owned(), Json::str(query)));
        }
        if let Some(semantics) = opt_value(args, "--semantics") {
            fields.push(("semantics".to_owned(), Json::str(semantics)));
        }
        if let Some(ms) = opt_parse::<u64>(args, "--timeout-ms")? {
            fields.push(("timeout_ms".to_owned(), Json::Int(ms as i64)));
        }
        if let Some(work) = opt_parse::<u64>(args, "--max-work")? {
            fields.push(("max_work".to_owned(), Json::Int(work as i64)));
        }
        ("POST", Json::Obj(fields.into_iter().collect()).render().into_bytes())
    };

    let (status, response) = client_call(addr, method, &path, &body)
        .map_err(|e| UsageOr::Command(format!("request to {addr}: {e}")))?;
    let mut report = String::from_utf8_lossy(&response).into_owned();
    if !report.ends_with('\n') {
        report.push('\n');
    }
    // Exit codes mirror the local commands: 200 → 0, budget-exceeded
    // partial → 4, drain/saturation → 5, anything else → 2.
    let exit = match status {
        200 => 0,
        422 => 4,
        503 => 5,
        _ => 2,
    };
    Ok(CliResult { report, exit, note: Some(format!("http status {status}")) })
}
