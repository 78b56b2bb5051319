//! The CLI commands, as library functions returning report strings
//! (the binary in `main.rs` is a thin shell around these, which keeps
//! everything testable).

use crate::format::Workspace;
use crate::query_parse::parse_query;
use rpr_classify::{classify_relation, classify_schema, classify_schema_ccp, RelationClass};
use rpr_core::{
    construct_globally_optimal_repair, is_completion_optimal, is_pareto_optimal, Budget,
    BudgetReport, CheckOutcome, CheckSession, Outcome, PanicReport,
};
use rpr_cqa::{answers_session_bounded, repairs_under_session_bounded, RepairSemantics};
use rpr_data::FactSet;
use rpr_fd::{
    discover_fds_for, is_3nf, is_bcnf, merge_by_lhs, minimal_cover, CsrConflictGraph,
    DiscoveryOptions,
};
use std::fmt::Write;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CommandError(pub String);

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CommandError {}

fn fail(msg: impl Into<String>) -> CommandError {
    CommandError(msg.into())
}

/// `rpr classify FILE --explain` — the classification with Armstrong
/// equivalence certificates and §5.2 witnesses.
pub fn classify_explain(ws: &Workspace) -> String {
    let mut out = rpr_classify::explain_schema(&ws.schema);
    out.push_str(&classify(ws));
    out
}

/// `rpr classify FILE` — report both dichotomies for the workspace's
/// schema.
pub fn classify(ws: &Workspace) -> String {
    let mut out = String::new();
    let sig = ws.schema.signature();
    let class = classify_schema(&ws.schema);
    let _ = writeln!(out, "Theorem 3.1 (conflict-restricted priorities): {}", class.complexity());
    for (rel, c) in class.per_relation() {
        let name = sig.symbol(*rel).name();
        match c {
            RelationClass::SingleFd(fd) => {
                let _ = writeln!(out, "  {name}: single FD — Δ ≡ {{{} → {}}}", fd.lhs, fd.rhs);
            }
            RelationClass::TwoKeys(a, b) => {
                let _ = writeln!(out, "  {name}: two keys — Δ ≡ {{{a} → all, {b} → all}}");
            }
            RelationClass::Hard(hc) => {
                let _ = writeln!(out, "  {name}: coNP-complete — {hc}");
            }
        }
    }
    let ccp = classify_schema_ccp(&ws.schema);
    let _ = writeln!(out, "Theorem 7.1 (cross-conflict priorities): {}", ccp.complexity());
    let _ = writeln!(out, "  {ccp:?}");
    out
}

/// The candidates a `check`/`certify` run covers: the named repair, or
/// every declared one.
fn targets(ws: &Workspace, name: Option<&str>) -> Result<Vec<(String, FactSet)>, CommandError> {
    match name {
        Some(n) => {
            let j = ws.repair(n).ok_or_else(|| fail(format!("no repair named `{n}`")))?;
            Ok(vec![(n.to_owned(), j.clone())])
        }
        None if ws.repairs.is_empty() => Err(fail("no `repair` declarations in the workspace")),
        None => Ok(ws.repairs.clone()),
    }
}

/// Checks every candidate under `budget`. A lone candidate fans its own
/// shards out across the session's workers; several fan out across
/// candidates instead.
fn check_all(
    session: &CheckSession<'_>,
    js: &[FactSet],
    budget: &Budget,
) -> Vec<Outcome<CheckOutcome>> {
    match js {
        [j] => vec![session.check_bounded(j, budget)],
        _ => session.check_batch_bounded(js, budget),
    }
}

/// `rpr certify FILE [NAME]` — canonical verdict certificates, one
/// JSON document per line, each independently re-checkable with
/// `rpr audit` (or any other implementation of the certificate
/// format). `--classify` certifies the dichotomy classification
/// instead of candidate repairs.
///
/// The candidate checks run bounded under `budget`; a candidate whose
/// check did not finish gets no certificate, and the [`RunStatus`] says
/// why.
///
/// # Errors
/// On unknown repair names or validation failures.
pub fn certify(
    ws: &Workspace,
    name: Option<&str>,
    classify_only: bool,
    budget: &Budget,
) -> Result<BoundedRun, CommandError> {
    let pi = ws.prioritized().map_err(|e| fail(e.to_string()))?;
    let session = CheckSession::new(&ws.schema, &pi);
    let mut out = String::new();
    let mut emit = |cert: &rpr_core::Certificate| {
        out.push_str(&rpr_format::render_certificate(&ws.schema, &ws.instance, &ws.priority, cert));
        out.push('\n');
    };
    let mut status = RunStatus::Done;
    if classify_only {
        emit(&session.certify_classification());
    } else {
        let js: Vec<FactSet> = targets(ws, name)?.into_iter().map(|(_, j)| j).collect();
        for (j, outcome) in js.iter().zip(check_all(&session, &js, budget)) {
            status = merge_status(status, status_of(&outcome));
            if let Outcome::Done(verdict) = outcome {
                emit(&session.certify(j, &verdict));
            }
        }
    }
    Ok(BoundedRun { report: out, status })
}

/// `rpr audit FILE` — re-validates certificates (one JSON document per
/// non-empty line, as `rpr certify` emits them) with the independent
/// `rpr-audit` checker. Returns the per-line report and whether every
/// certificate passed.
pub fn audit(text: &str) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let mut total = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        total += 1;
        match rpr_audit::audit(line) {
            Ok(report) => {
                let what = match &report.verdict {
                    Some(v) => format!("check verdict `{v}`"),
                    None => report.kind.clone(),
                };
                let _ = writeln!(
                    out,
                    "line {}: OK — {what} ({} facts, {} relations)",
                    i + 1,
                    report.facts,
                    report.relations
                );
            }
            Err(e) => {
                all_ok = false;
                let _ = writeln!(out, "line {}: FAILED — {e}", i + 1);
            }
        }
    }
    if total == 0 {
        return ("no certificates found (expected one JSON document per line)\n".to_owned(), false);
    }
    let _ = writeln!(
        out,
        "{total} certificate(s): {}",
        if all_ok { "all valid" } else { "AUDIT FAILED" }
    );
    (out, all_ok)
}

fn semantics_from(name: &str) -> Result<RepairSemantics, CommandError> {
    name.parse().map_err(CommandError)
}

/// How a bounded command run ended — drives the binary's exit code
/// (`0` done, `4` budget-exceeded-partial, `5` cancelled).
#[derive(Clone, Debug)]
pub enum RunStatus {
    /// The command ran to completion.
    Done,
    /// A budget limit tripped; the report text holds whatever partial
    /// result could be certified.
    Exceeded(BudgetReport),
    /// The cancel token fired.
    Cancelled,
    /// A worker panic was isolated into the result.
    Panicked(PanicReport),
}

/// The result of a bounded command: the report text plus how the run
/// ended.
#[derive(Clone, Debug)]
pub struct BoundedRun {
    /// The human-readable report (a partial one on degraded runs).
    pub report: String,
    /// How the run ended.
    pub status: RunStatus,
}

fn status_of<T>(outcome: &Outcome<T>) -> RunStatus {
    match outcome {
        Outcome::Done(_) => RunStatus::Done,
        Outcome::Exceeded { report, .. } => RunStatus::Exceeded(report.clone()),
        Outcome::Cancelled { .. } => RunStatus::Cancelled,
        Outcome::Panicked { report, .. } => RunStatus::Panicked(report.clone()),
    }
}

/// Folds one candidate's status into a run's: cancellation dominates
/// (the whole run was interrupted); a budget trip dominates a panic
/// (the panic is per-candidate).
fn merge_status(run: RunStatus, candidate: RunStatus) -> RunStatus {
    match (run, candidate) {
        (RunStatus::Cancelled, _) | (_, RunStatus::Cancelled) => RunStatus::Cancelled,
        (s @ RunStatus::Exceeded(_), _) => s,
        (_, s @ RunStatus::Exceeded(_)) => s,
        (s @ RunStatus::Panicked(_), _) => s,
        (_, s @ RunStatus::Panicked(_)) => s,
        (RunStatus::Done, RunStatus::Done) => RunStatus::Done,
    }
}

/// `rpr check FILE [NAME]` — check the named candidate repair (or all
/// declared repairs) for global optimality under `budget`. One
/// [`CheckSession`] with `jobs` workers is built for the workspace and
/// shared by all candidates. A finished verdict also reports Pareto-
/// and completion-optimality; one panicking or budget-tripping
/// candidate degrades only its own line.
///
/// # Errors
/// On unknown repair names or validation failures (degradation is not
/// an error — it is reported in the [`RunStatus`]).
pub fn check(
    ws: &Workspace,
    name: Option<&str>,
    jobs: usize,
    budget: &Budget,
) -> Result<BoundedRun, CommandError> {
    let pi = ws.prioritized().map_err(|e| fail(e.to_string()))?;
    let targets = targets(ws, name)?;
    let session = CheckSession::new(&ws.schema, &pi).with_jobs(jobs);
    let cg = session.conflict_graph();
    let js: Vec<FactSet> = targets.iter().map(|(_, j)| j.clone()).collect();
    let outcomes = check_all(&session, &js, budget);
    let mut out = String::new();
    let mut status = RunStatus::Done;
    for ((n, j), outcome) in targets.iter().zip(&outcomes) {
        let _ = write!(out, "{n}: ");
        match outcome {
            Outcome::Done(CheckOutcome::Optimal) => {
                let _ = writeln!(out, "globally-optimal repair ✓");
            }
            Outcome::Done(CheckOutcome::Improvable(imp)) => {
                let _ = writeln!(out, "NOT globally optimal");
                let _ = writeln!(
                    out,
                    "  improvement: remove {} / add {}",
                    ws.instance.render_set(&imp.removed),
                    ws.instance.render_set(&imp.added)
                );
            }
            Outcome::Done(CheckOutcome::Inconsistent(a, b)) => {
                let _ = writeln!(
                    out,
                    "not even consistent: {} conflicts with {}",
                    ws.instance.fact(*a).display(ws.schema.signature()),
                    ws.instance.fact(*b).display(ws.schema.signature())
                );
            }
            Outcome::Exceeded { report, .. } => {
                let _ = writeln!(out, "undecided — budget exceeded ({report})");
            }
            Outcome::Cancelled { .. } => {
                let _ = writeln!(out, "undecided — cancelled");
            }
            Outcome::Panicked { report, .. } => {
                let _ = writeln!(out, "undecided — {report}");
            }
        }
        if matches!(outcome, Outcome::Done(_)) {
            let _ = writeln!(
                out,
                "  pareto-optimal: {}  completion-optimal: {}",
                is_pareto_optimal(cg, &ws.priority, j),
                is_completion_optimal(cg, &ws.priority, j)
            );
        }
        status = merge_status(status, status_of(outcome));
    }
    Ok(BoundedRun { report: out, status })
}

/// `rpr repairs FILE [--semantics S]` — enumerate the repairs of the
/// chosen semantics under `budget`; the globally-optimal filter fans
/// out across candidates on one amortized session with `jobs` workers.
/// On degradation the report lists the certified partial repair set
/// (when the semantics admits one — see
/// `rpr_cqa::repairs_under_bounded`).
///
/// # Errors
/// On bad semantics names.
pub fn repairs(
    ws: &Workspace,
    semantics: &str,
    jobs: usize,
    budget: &Budget,
) -> Result<BoundedRun, CommandError> {
    let sem = semantics_from(semantics)?;
    let pi = ws.prioritized().map_err(|e| fail(e.to_string()))?;
    let session = CheckSession::new(&ws.schema, &pi).with_jobs(jobs);
    let outcome = repairs_under_session_bounded(sem, &session, budget);
    let status = status_of(&outcome);
    let mut out = String::new();
    let partial = !matches!(status, RunStatus::Done);
    match outcome.into_partial() {
        Some(list) => {
            let qualifier = if partial { " (partial)" } else { "" };
            let _ = writeln!(out, "{} {semantics} repair(s){qualifier}:", list.len());
            for j in &list {
                let _ = writeln!(out, "  {}", ws.instance.render_set(j));
            }
        }
        None => {
            let _ = writeln!(out, "no certified {semantics} repairs before the stop");
        }
    }
    Ok(BoundedRun { report: out, status })
}

/// `rpr cqa FILE QUERY [--semantics S]` — certain and possible answers
/// over the chosen repair semantics under `budget`. The session is
/// built once per invocation; the repair quantification reuses its
/// cached conflict graph and classification. Partial answers quantify
/// over the partial repair set: certain is an upper bound, possible a
/// lower bound.
///
/// # Errors
/// On query parse errors or bad semantics.
pub fn cqa(
    ws: &Workspace,
    query: &str,
    semantics: &str,
    jobs: usize,
    budget: &Budget,
) -> Result<BoundedRun, CommandError> {
    let sem = semantics_from(semantics)?;
    let q = parse_query(&ws.instance, query).map_err(|e| fail(e.to_string()))?;
    let pi = ws.prioritized().map_err(|e| fail(e.to_string()))?;
    let session = CheckSession::new(&ws.schema, &pi).with_jobs(jobs);
    let outcome = answers_session_bounded(&session, &q, sem, budget);
    let status = status_of(&outcome);
    let mut out = String::new();
    let partial = !matches!(status, RunStatus::Done);
    match outcome.into_partial() {
        Some(res) => {
            let qualifier = if partial { " (partial)" } else { "" };
            let _ = writeln!(
                out,
                "{} {semantics} repair(s) quantified over{qualifier}",
                res.repair_count
            );
            let fmt = |s: &std::collections::BTreeSet<rpr_data::Tuple>| {
                let items: Vec<String> = s.iter().map(|t| t.to_string()).collect();
                items.join(", ")
            };
            let _ = writeln!(out, "certain : {}", fmt(&res.certain));
            let _ = writeln!(out, "possible: {}", fmt(&res.possible));
            if partial {
                let _ =
                    writeln!(out, "(partial: certain is an upper bound, possible a lower bound)");
            }
        }
        None => {
            let _ = writeln!(out, "no certified partial answers before the stop");
        }
    }
    Ok(BoundedRun { report: out, status })
}

/// `rpr construct FILE` — build one globally-optimal repair
/// (polynomial, any schema).
pub fn construct(ws: &Workspace) -> String {
    let cg = CsrConflictGraph::new(&ws.schema, &ws.instance);
    let j = construct_globally_optimal_repair(&cg, &ws.priority);
    format!("globally-optimal repair: {}\n", ws.instance.render_set(&j))
}

/// `rpr discover FILE [--max-lhs N]` — mine the FDs holding in the
/// declared facts (ignoring the declared `fd` lines), report them as a
/// minimal cover, and classify the *mined* schema under both theorems.
pub fn discover(ws: &Workspace, max_lhs: usize) -> String {
    let sig = ws.schema.signature();
    let mut out = String::new();
    let mut mined_all = Vec::new();
    for rel in sig.rel_ids() {
        let name = sig.symbol(rel).name();
        let mined = discover_fds_for(&ws.instance, rel, DiscoveryOptions { max_lhs });
        let cover = merge_by_lhs(&minimal_cover(&mined));
        let _ = writeln!(out, "{name}: {} minimal FD(s) hold in the data", cover.len());
        for fd in &cover {
            let _ =
                writeln!(out, "  fd {name}: {} -> {}", render_attrs(fd.lhs), render_attrs(fd.rhs));
        }
        mined_all.extend(cover);
    }
    // Classify the mined dependency set.
    match rpr_fd::Schema::new(sig.clone(), mined_all) {
        Ok(mined_schema) => {
            let class = classify_schema(&mined_schema);
            let ccp = classify_schema_ccp(&mined_schema);
            let _ = writeln!(
                out,
                "mined schema classification: {} (classical), {} (ccp)",
                class.complexity(),
                ccp.complexity()
            );
        }
        Err(e) => {
            let _ = writeln!(out, "mined schema could not be assembled: {e}");
        }
    }
    out
}

fn render_attrs(a: rpr_data::AttrSet) -> String {
    if a.is_empty() {
        "-".to_owned()
    } else {
        a.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ")
    }
}

/// `rpr stats FILE` — conflict statistics of the workspace instance.
pub fn stats(ws: &Workspace) -> String {
    rpr_fd::ConflictStats::compute(&ws.schema, &ws.instance).to_string()
}

/// `rpr derive FILE "R: 1 -> 2 3"` — test whether the FD is implied by
/// the workspace's declared FDs and, if so, print an Armstrong-axiom
/// proof tree (Theorem 6.3 with receipts).
///
/// # Errors
/// On malformed FD syntax or unknown relations.
pub fn derive(ws: &Workspace, fd_text: &str) -> Result<String, CommandError> {
    let sig = ws.schema.signature();
    let (rel_name, spec) =
        fd_text.split_once(':').ok_or_else(|| fail("expected `NAME: lhs -> rhs`"))?;
    let rel = sig.require(rel_name.trim()).map_err(|e| fail(e.to_string()))?;
    let (lhs_text, rhs_text) =
        spec.split_once("->").ok_or_else(|| fail("expected `lhs -> rhs`"))?;
    let parse_side = |text: &str| -> Result<rpr_data::AttrSet, CommandError> {
        let text = text.trim();
        if text.is_empty() || text == "-" || text == "∅" {
            return Ok(rpr_data::AttrSet::EMPTY);
        }
        let mut out = rpr_data::AttrSet::EMPTY;
        for tok in text.split([' ', ',']).filter(|t| !t.is_empty()) {
            let n: usize = tok.parse().map_err(|_| fail(format!("bad attribute `{tok}`")))?;
            if n == 0 || n > sig.arity(rel) {
                return Err(fail(format!("attribute {n} outside the arity")));
            }
            out = out.insert(n);
        }
        Ok(out)
    };
    let target = rpr_fd::Fd::new(rel, parse_side(lhs_text)?, parse_side(rhs_text)?);
    match rpr_fd::derive(ws.schema.fds(), target) {
        Some(proof) => {
            debug_assert!(proof.verify(ws.schema.fds()));
            Ok(format!(
                "Δ ⊨ {} → {}   ({} inference steps)\n{proof}",
                target.lhs,
                target.rhs,
                proof.len()
            ))
        }
        None => Ok(format!("Δ ⊭ {} → {} (not implied)\n", target.lhs, target.rhs)),
    }
}

/// `rpr lint FILE` — normal-form analysis per relation, connected to
/// the dichotomy: BCNF relations are exactly the key-equivalent ones
/// (the §5.2 Case-1 frontier), and non-BCNF FD sets are where repair
/// checking turns coNP-complete.
pub fn lint(ws: &Workspace) -> String {
    let sig = ws.schema.signature();
    let mut out = String::new();
    for rel in sig.rel_ids() {
        let name = sig.symbol(rel).name();
        let fds = ws.schema.fds_for(rel);
        let arity = sig.arity(rel);
        let bcnf = is_bcnf(fds, arity);
        let third = is_3nf(fds, arity);
        let class = classify_relation(fds, rel, arity);
        let _ = writeln!(
            out,
            "{name}: BCNF={bcnf} 3NF={third} repair-checking={}",
            if class.is_tractable() { "PTIME" } else { "coNP-complete" }
        );
        for v in rpr_fd::violations(fds, arity) {
            let _ = writeln!(
                out,
                "  violation ({:?}): {} -> {}",
                v.kind,
                render_attrs(v.fd.lhs),
                render_attrs(v.fd.rhs)
            );
        }
        if let RelationClass::Hard(hc) = class {
            let _ = writeln!(out, "  hard case: {hc}");
        }
    }
    out
}

/// `rpr delta FILE OPSFILE [--out OUT]` — apply a delta-op script
/// (`insert`/`delete`/`prefer`/`unprefer` lines) to the workspace
/// through the incremental [`rpr_core::DeltaSession`] path, then
/// cross-check the patched artifacts against the brute-force oracle
/// rebuild ([`rpr_format::apply_ops_to_workspace`]). Returns the
/// report plus the mutated workspace (for `--out`).
///
/// # Errors
/// On malformed ops, ops the session rejects (absent facts, deletes
/// with incident edges, priority cycles, …), or — never expected — an
/// incremental/oracle divergence.
pub fn delta(ws: &Workspace, ops_text: &str) -> Result<(String, Workspace), CommandError> {
    use rpr_format::{apply_ops_to_workspace, parse_delta_script, workspace_fingerprint};

    let ops = parse_delta_script(ws.instance.signature(), ops_text)
        .map_err(|e| fail(format!("ops: {e}")))?;
    let before = workspace_fingerprint(ws);
    let pi = ws.prioritized().map_err(|e| fail(e.to_string()))?;
    let mut session = rpr_core::DeltaSession::prepare(std::sync::Arc::new(ws.schema.clone()), pi);
    let report = session.apply_delta(&ops).map_err(|e| fail(e.to_string()))?;
    let mutated = apply_ops_to_workspace(ws, &ops).map_err(|e| fail(e.to_string()))?;
    let after = workspace_fingerprint(&mutated);
    if session.fingerprint() != after {
        return Err(fail("internal: patched session diverged from the oracle rebuild"));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "applied {} op(s): {} insert(s), {} delete(s), {} priority op(s)",
        report.applied, report.inserts, report.deletes, report.priority_ops
    );
    let _ = writeln!(
        out,
        "path: {}",
        if report.rebuilt {
            "rebuilt (churn above the patch threshold)"
        } else {
            "patched in place"
        }
    );
    let _ = writeln!(out, "fingerprint: {} -> {}", before.to_hex(), after.to_hex());
    let _ = writeln!(
        out,
        "facts: {} -> {}; priority edges: {} -> {}",
        ws.instance.len(),
        mutated.instance.len(),
        ws.priority.edge_count(),
        mutated.priority.edge_count()
    );
    Ok((out, mutated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_workspace;
    use rpr_core::GRepairChecker;
    use rpr_priority::PriorityMode;

    /// The work allowance the unit tests run every bounded command
    /// under.
    fn budget() -> Budget {
        Budget::unlimited().with_max_work(1 << 20)
    }

    /// A command's report, asserting that the run finished.
    fn done(run: Result<BoundedRun, CommandError>) -> String {
        let run = run.unwrap();
        assert!(matches!(run.status, RunStatus::Done), "{:?}", run.status);
        run.report
    }

    const RUNNING: &str = "\
relation BookLoc/3
relation LibLoc/2

fd BookLoc: 1 -> 2
fd LibLoc: 1 -> 2
fd LibLoc: 2 -> 1

fact BookLoc(b1, fiction, lib1)
fact BookLoc(b1, drama, lib3)
fact LibLoc(lib1, almaden)
fact LibLoc(lib1, edenvale)
fact LibLoc(lib3, almaden)

prefer BookLoc(b1, fiction, lib1) > BookLoc(b1, drama, lib3)
prefer LibLoc(lib1, edenvale) > LibLoc(lib1, almaden)

repair good: BookLoc(b1, fiction, lib1); LibLoc(lib1, edenvale); LibLoc(lib3, almaden)
repair bad: BookLoc(b1, drama, lib3); LibLoc(lib1, almaden)
";

    #[test]
    fn classify_reports_both_theorems() {
        let ws = parse_workspace(RUNNING).unwrap();
        let report = classify(&ws);
        assert!(report.contains("Theorem 3.1"));
        assert!(report.contains("PTIME"));
        assert!(report.contains("single FD"));
        assert!(report.contains("two keys"));
        assert!(report.contains("Theorem 7.1"));
        assert!(report.contains("coNP-complete")); // ccp side is hard here
    }

    #[test]
    fn check_reports_optimality_and_witnesses() {
        let ws = parse_workspace(RUNNING).unwrap();
        let report = done(check(&ws, Some("good"), 1, &budget()));
        assert!(report.contains("good: globally-optimal repair"));
        let report = done(check(&ws, Some("bad"), 1, &budget()));
        assert!(report.contains("NOT globally optimal"));
        assert!(report.contains("improvement: remove"));
        // All declared repairs when no name given.
        let report = done(check(&ws, None, 1, &budget()));
        assert!(report.contains("good:"));
        assert!(report.contains("bad:"));
        // Unknown names error.
        assert!(check(&ws, Some("nope"), 1, &budget()).is_err());
    }

    #[test]
    fn repairs_enumeration_by_semantics() {
        let ws = parse_workspace(RUNNING).unwrap();
        let all = done(repairs(&ws, "all", 1, &budget()));
        let global = done(repairs(&ws, "global", 1, &budget()));
        let n_all: usize = all.lines().next().unwrap().split(' ').next().unwrap().parse().unwrap();
        let n_global: usize =
            global.lines().next().unwrap().split(' ').next().unwrap().parse().unwrap();
        assert!(n_global <= n_all);
        assert!(n_all >= 2);
        assert!(repairs(&ws, "bogus", 1, &budget()).is_err());
    }

    #[test]
    fn construct_is_always_available() {
        let ws = parse_workspace(RUNNING).unwrap();
        let report = construct(&ws);
        assert!(report.contains("globally-optimal repair:"));
        // The constructed repair passes the checker.
        let cg = CsrConflictGraph::new(&ws.schema, &ws.instance);
        let j = construct_globally_optimal_repair(&cg, &ws.priority);
        let pi = ws.prioritized().unwrap();
        assert!(GRepairChecker::new(ws.schema.clone()).check(&pi, &j).is_optimal());
    }

    #[test]
    fn discover_mines_and_classifies() {
        let ws = parse_workspace(RUNNING).unwrap();
        let report = discover(&ws, 2);
        assert!(report.contains("BookLoc:"), "{report}");
        assert!(report.contains("mined schema classification:"), "{report}");
        // The workspace data is DIRTY (lib1 has two locations), so
        // mining correctly reports that no FD constrains LibLoc:
        assert!(report.contains("LibLoc: 0 minimal FD(s)"), "{report}");
        // Mining a *clean* repair of the data recovers LibLoc's key.
        let cg = CsrConflictGraph::new(&ws.schema, &ws.instance);
        let clean = construct_globally_optimal_repair(&cg, &ws.priority);
        let clean_ws = Workspace {
            schema: ws.schema.clone(),
            instance: ws.instance.materialize(&clean),
            priority: rpr_priority::PriorityRelation::empty(clean.len()),
            mode: PriorityMode::ConflictRestricted,
            repairs: Vec::new(),
        };
        let report = discover(&clean_ws, 2);
        assert!(report.contains("fd LibLoc:"), "{report}");
    }

    #[test]
    fn lint_connects_normal_forms_to_the_dichotomy() {
        let ws = parse_workspace(RUNNING).unwrap();
        let report = lint(&ws);
        // BookLoc's 1→2 over arity 3 violates BCNF, yet is tractable
        // (single FD); LibLoc is BCNF (two keys).
        assert!(report.contains("BookLoc: BCNF=false"), "{report}");
        assert!(report.contains("repair-checking=PTIME"), "{report}");
        assert!(report.contains("LibLoc: BCNF=true"), "{report}");
        assert!(report.contains("violation"), "{report}");
    }

    #[test]
    fn derive_prints_proof_trees() {
        let ws = parse_workspace(RUNNING).unwrap();
        // LibLoc: {1,2} -> 1 is implied (trivially) and 1 -> 2 is given.
        let out = derive(&ws, "LibLoc: 1 -> 2").unwrap();
        assert!(out.contains("Δ ⊨"), "{out}");
        assert!(out.contains("given"), "{out}");
        // BookLoc: 2 -> 1 is not implied.
        let out = derive(&ws, "BookLoc: 2 -> 1").unwrap();
        assert!(out.contains("not implied"), "{out}");
        // Errors.
        assert!(derive(&ws, "no colon").is_err());
        assert!(derive(&ws, "Nope: 1 -> 2").is_err());
        assert!(derive(&ws, "LibLoc: 9 -> 2").is_err());
    }

    #[test]
    fn cqa_answers_tighten_with_semantics() {
        let ws = parse_workspace(RUNNING).unwrap();
        let q = "q(?loc) <- BookLoc(b1, ?g, ?lib), LibLoc(?lib, ?loc)";
        let all = done(cqa(&ws, q, "all", 1, &budget()));
        let global = done(cqa(&ws, q, "global", 1, &budget()));
        assert!(all.contains("certain : \n") || all.contains("certain :"));
        assert!(global.contains("(edenvale)"));
        assert!(cqa(&ws, "broken", "all", 1, &budget()).is_err());
    }

    #[test]
    fn delta_patches_and_cross_checks() {
        let ws = parse_workspace(RUNNING).unwrap();
        let (report, mutated) = delta(
            &ws,
            "# grow the catalog\ninsert BookLoc(b2, poetry, lib3)\nprefer LibLoc(lib3, almaden) > LibLoc(lib1, almaden)\n",
        )
        .unwrap();
        assert!(
            report.contains("applied 2 op(s): 1 insert(s), 0 delete(s), 1 priority op(s)"),
            "{report}"
        );
        assert!(report.contains("patched in place"), "{report}");
        assert!(report.contains("fingerprint: "), "{report}");
        assert_eq!(mutated.instance.len(), ws.instance.len() + 1);
        assert_eq!(mutated.priority.edge_count(), ws.priority.edge_count() + 1);
        // The mutated workspace is itself checkable.
        done(check(&mutated, Some("good"), 1, &budget()));
        // Rejections surface the delta grammar / session diagnostics.
        assert!(delta(&ws, "banana\n").unwrap_err().to_string().contains("expected `insert`"));
        assert!(delta(&ws, "delete LibLoc(nope, nope)\n")
            .unwrap_err()
            .to_string()
            .contains("not in the instance"));
    }
}
