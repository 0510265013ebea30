//! The `repro --via-server` smoke path: drives an E10-style stochastic
//! replicate sweep through a running `molseq-serve` instance over the
//! wire, and checks the server's headline guarantees end to end:
//!
//! * the same submission fetched twice is **byte-identical** (so two
//!   servers at different worker counts can be diffed by the caller);
//! * the second submission **hits the compiled-CRN cache**;
//! * a cancelled job drains with every cell `Cancelled`;
//! * optionally, a step-budgeted tenant is cut **deterministically**
//!   (`BudgetExceeded` on every cell) without disturbing the main sweep.
//!
//! With a summary directory, the main sweep's rows and the final server
//! counters are persisted through the same [`SweepSummary`] pipeline the
//! experiments use (`via-server.summary.{json,csv}`,
//! `server-stats.summary.{json,csv}`), so `trend` can gate on them like
//! on any other experiment. Both artifacts are deterministic: rows carry
//! no wall clocks, and every counter the probes touch is
//! scheduling-independent.

use molseq_serve::{
    check_horizon, rows_to_summary, stats_summary, CellRow, CellSpec, Client, Method, Program,
    SubmitRequest,
};
use molseq_sweep::{JobStatus, SweepSummary};
use std::path::Path;

/// The main sweep under `method`: stochastic decay replicates at a few
/// amplitudes plus one rate-override cell for the rebind path. The decay
/// motif has no reverse pair, so for the hybrid method it is swapped for
/// the clocked production/consumption motif — otherwise the hybrid
/// integrator would delegate wholesale to SSA and the probe would not
/// exercise the continuous subsystem over the wire at all.
///
/// `batch` goes on the wire verbatim: `None` omits the field, letting
/// the server auto-select a work-unit width from the cell count;
/// `Some(w)` pins it. Either way the rows must be byte-identical — the
/// batched ODE engine is bit-equal to the scalar integrator lane by
/// lane, and SSA and tau-leap units run their cells one after another.
fn main_sweep(method: Method, batch: Option<usize>) -> SubmitRequest {
    let mut cells = Vec::new();
    for amplitude in [8, 32] {
        for rep in 0..4 {
            cells.push(CellSpec {
                label: format!("n={amplitude} rep={rep}"),
                k_fast: None,
                k_slow: None,
            });
        }
    }
    cells.push(CellSpec {
        label: "k=500/2".to_owned(),
        k_fast: Some(500.0),
        k_slow: Some(2.0),
    });
    let (network, t_end, record_interval) = match method {
        Method::Hybrid => (
            "0 -> R @fast\nR + X -> X @slow\nX -> Y @slow".to_owned(),
            2.0,
            Some(0.25),
        ),
        Method::Ssa | Method::Ode | Method::Tau => ("X -> Y @slow".to_owned(), 1.0e4, None),
    };
    SubmitRequest {
        tenant: "repro".to_owned(),
        program: Program::Crn(network),
        init: vec![("X".to_owned(), 32.0)],
        method,
        t_end,
        record_interval,
        seed: 11,
        injections: vec![(1.0, "X".to_owned(), 5.0)],
        batch,
        cells,
    }
}

/// Checks a `repro --t-end` override of the main sweep's horizon as the
/// server checks the submit ([`check_horizon`]): a finite positive time
/// asking for at most 2^20 trace samples at the sweep's recording
/// interval for `method`.
///
/// # Errors
///
/// The server's message for a horizon it would refuse.
pub fn check_t_end(method: Method, t_end: f64) -> Result<(), String> {
    let request = main_sweep(method, None);
    check_horizon(t_end, request.record_interval).map_err(|e| e.message().to_owned())
}

/// A job that cannot finish on its own (a two-way flip keeps firing SSA
/// events for an astronomical horizon) — the cancellation probe. Its
/// sparse recording interval keeps the request under the server's
/// trace-sample cap.
fn endless_job(tenant: &str) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_owned(),
        program: Program::Crn("X -> Y @slow\nY -> X @slow".to_owned()),
        init: vec![("X".to_owned(), 64.0)],
        method: Method::Ssa,
        t_end: 1.0e9,
        record_interval: Some(1.0e4),
        seed: 5,
        injections: vec![],
        batch: Some(1),
        cells: (0..2)
            .map(|i| CellSpec {
                label: format!("endless rep={i}"),
                k_fast: None,
                k_slow: None,
            })
            .collect(),
    }
}

fn render_rows(rows: &[CellRow]) -> String {
    let mut out = String::new();
    for row in rows {
        row.to_json().render_compact(&mut out);
        out.push('\n');
    }
    out
}

fn counter(stats: &[(String, f64)], name: &str) -> f64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

fn persist(dir: &Path, id: &str, summary: &SweepSummary) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create summary dir {}: {e}", dir.display()))?;
    for (ext, body) in [("json", summary.to_json()), ("csv", summary.to_csv())] {
        let path = dir.join(format!("{id}.summary.{ext}"));
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs the smoke suite against the server at `addr`, driving the main
/// sweep with `method` (`repro --method ssa|ode|tau|hybrid` picks the
/// integrator raced over the wire; the default is SSA).
///
/// `batch` is the main sweep's lock-step width: `None` leaves the wire
/// field out so the server auto-selects a width from the cell count,
/// `Some(w)` pins it (`repro --batch`). `t_end` optionally overrides the
/// main sweep's horizon (`repro --t-end`, validated at flag parse just
/// as the server validates the wire field at submit).
///
/// `budget_tenant` optionally names a tenant the server was configured
/// to step-budget; the budget probe submits under that name and expects
/// every cell cut. The budget probe always runs the scalar SSA sweep —
/// the tenant's step budget is calibrated against it — so its outcome
/// does not move with `method`, `batch`, or `t_end`. `summary_dir`
/// persists the deterministic artifacts.
///
/// Returns the human-readable report on success.
///
/// # Errors
///
/// A description of the first failed connection, probe, or persistence
/// step — callers exit nonzero on it.
pub fn run_via_server(
    addr: &str,
    method: Method,
    batch: Option<usize>,
    t_end: Option<f64>,
    budget_tenant: Option<&str>,
    summary_dir: Option<&Path>,
) -> Result<String, String> {
    let mut report = String::new();
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    // probe 1: byte-identical resubmission + compiled-CRN cache reuse
    let mut request = main_sweep(method, batch);
    if let Some(horizon) = t_end {
        request.t_end = horizon;
    }
    let first = client
        .submit(&request)
        .map_err(|e| format!("main sweep rejected: {e}"))?;
    let rows = client
        .fetch_all(&first.job_id)
        .map_err(|e| format!("main sweep failed: {e}"))?;
    let not_ok = rows.iter().filter(|r| r.status != JobStatus::Ok).count();
    if not_ok > 0 {
        return Err(format!("main sweep: {not_ok}/{} cells not Ok", rows.len()));
    }
    let again = client
        .submit(&request)
        .map_err(|e| format!("resubmission rejected: {e}"))?;
    let rows_again = client
        .fetch_all(&again.job_id)
        .map_err(|e| format!("resubmission failed: {e}"))?;
    if render_rows(&rows) != render_rows(&rows_again) {
        return Err("resubmitted sweep is not byte-identical to the first run".to_owned());
    }
    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    let hits = counter(&stats, "cache_hits");
    if hits < 1.0 {
        return Err(format!("expected compiled-CRN cache hits, saw {hits}"));
    }
    report.push_str(&format!(
        "via-server: main sweep ({}) {} cells Ok twice, byte-identical; cache {} hit(s) / {} miss(es)\n",
        method.as_str(),
        rows.len(),
        hits,
        counter(&stats, "cache_misses"),
    ));

    // probe 2: cancellation drains the job with every cell Cancelled
    let endless = client
        .submit(&endless_job("repro"))
        .map_err(|e| format!("cancel probe rejected: {e}"))?;
    client
        .cancel(&endless.job_id)
        .map_err(|e| format!("cancel failed: {e}"))?;
    let cancelled = client
        .fetch_all(&endless.job_id)
        .map_err(|e| format!("cancelled job did not drain: {e}"))?;
    let uncancelled = cancelled
        .iter()
        .filter(|r| r.status != JobStatus::Cancelled)
        .count();
    if uncancelled > 0 {
        return Err(format!(
            "cancel probe: {uncancelled}/{} cells not Cancelled",
            cancelled.len()
        ));
    }
    report.push_str(&format!(
        "via-server: cancel probe drained {} cells, all Cancelled\n",
        cancelled.len()
    ));

    // probe 3 (optional): a step-budgeted tenant is cut deterministically
    if let Some(tenant) = budget_tenant {
        let heavy = SubmitRequest {
            tenant: tenant.to_owned(),
            init: vec![("X".to_owned(), 500.0)],
            ..main_sweep(Method::Ssa, Some(1))
        };
        let ack = client
            .submit(&heavy)
            .map_err(|e| format!("budget probe rejected: {e}"))?;
        let cut = client
            .fetch_all(&ack.job_id)
            .map_err(|e| format!("budget probe failed: {e}"))?;
        let unbudgeted = cut
            .iter()
            .filter(|r| r.status != JobStatus::BudgetExceeded)
            .count();
        if unbudgeted > 0 {
            return Err(format!(
                "budget probe: {unbudgeted}/{} cells not BudgetExceeded under tenant `{tenant}`",
                cut.len()
            ));
        }
        report.push_str(&format!(
            "via-server: budget probe cut all {} cells of tenant `{tenant}` deterministically\n",
            cut.len()
        ));
    }

    if let Some(dir) = summary_dir {
        persist(dir, "via-server", &rows_to_summary(&rows, 1))?;
        let stats = client
            .stats()
            .map_err(|e| format!("final stats failed: {e}"))?;
        persist(dir, "server-stats", &stats_summary(&stats))?;
        report.push_str(&format!(
            "via-server: summaries persisted to {}\n",
            dir.display()
        ));
    }
    Ok(report)
}
