//! Answer checking: every response is compared with the expected answer
//! the generator computed in-process.

use crate::gen::{Expect, Req};
use crate::json::{self, Json};

/// What a correct response reported, for reconciliation with `/metrics`.
#[derive(Default)]
pub struct Seen {
    /// `Some(cached)` for `/check` responses.
    pub cached: Option<bool>,
    pub certificates: u64,
    pub delta_ops: u64,
}

fn want(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Checks one response against `req`'s expected answer.
pub fn verify(req: &Req, status: u16, body: &[u8]) -> Result<Seen, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_owned())?;
    let doc = json::parse(text)?;
    let mut seen = Seen::default();
    match &req.expect {
        Expect::Check { cached, results, certify } => {
            want(status == 200, || format!("status {status}: {text}"))?;
            want(doc.str_at("status") == Some("done"), || format!("status field: {text}"))?;
            seen.cached = doc.bool_at("cached");
            want(seen.cached == Some(*cached), || format!("cached should be {cached}"))?;
            let got = doc.arr_at("results").unwrap_or(&[]);
            want(got.len() == results.len(), || format!("{} results", got.len()))?;
            for (g, (name, verdict)) in got.iter().zip(results) {
                want(g.str_at("repair") == Some(name), || format!("repair {name}"))?;
                want(g.str_at("status") == Some("done"), || format!("{name} not done"))?;
                want(g.str_at("verdict") == Some(verdict), || {
                    format!("{name}: verdict {:?}, expected {verdict}", g.str_at("verdict"))
                })?;
                want(g.bool_at("optimal") == Some(*verdict == "optimal"), || {
                    format!("{name}: optimal flag disagrees with verdict")
                })?;
                let has_cert = matches!(g.get("certificate"), Some(Json::Str(_)));
                want(has_cert == *certify, || format!("{name}: certificate present {has_cert}"))?;
                seen.certificates += u64::from(has_cert);
            }
        }
        Expect::Trip { cached, work_done, max_work } => {
            want(status == 422, || format!("trip status {status}: {text}"))?;
            want(doc.str_at("status") == Some("exceeded"), || format!("status field: {text}"))?;
            seen.cached = doc.bool_at("cached");
            want(seen.cached == Some(*cached), || format!("cached should be {cached}"))?;
            let first = doc.arr_at("results").and_then(|r| r.first());
            want(first.and_then(|r| r.str_at("status")) == Some("exceeded"), || {
                "result not exceeded".to_owned()
            })?;
            let report = doc.get("budget_report").ok_or("no budget_report")?;
            want(report.str_at("reason") == Some("work-exhausted"), || format!("report: {text}"))?;
            want(report.u64_at("work_done") == Some(*work_done), || {
                format!("work_done {:?}, expected {work_done}", report.u64_at("work_done"))
            })?;
            want(report.u64_at("max_work") == Some(*max_work), || format!("report: {text}"))?;
        }
        Expect::Delta { previous, fingerprint, applied, rebuilt, total, reused } => {
            want(status == 200, || format!("delta status {status}: {text}"))?;
            want(doc.str_at("status") == Some("done"), || format!("status field: {text}"))?;
            want(doc.str_at("previous_fingerprint") == Some(previous), || {
                "previous fingerprint".to_owned()
            })?;
            want(doc.str_at("fingerprint") == Some(fingerprint), || {
                format!("fingerprint {:?}, expected {fingerprint}", doc.str_at("fingerprint"))
            })?;
            want(doc.u64_at("applied") == Some(*applied), || format!("applied: {text}"))?;
            want(doc.bool_at("rebuilt") == Some(*rebuilt), || format!("rebuilt: {text}"))?;
            want(doc.u64_at("components_total") == Some(*total as u64), || {
                format!("components_total: {text}")
            })?;
            want(doc.u64_at("components_reused") == Some(*reused as u64), || {
                format!("components_reused: {text}")
            })?;
            seen.delta_ops = *applied;
        }
    }
    Ok(seen)
}
