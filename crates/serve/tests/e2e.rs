//! End-to-end acceptance tests: real TCP servers, the reference client,
//! and the wire protocol — no in-process shortcuts.
//!
//! The three claims under test:
//!
//! 1. the same submission produces **byte-identical** results whatever
//!    the server's worker count, and a resubmission **hits the
//!    compiled-CRN cache**;
//! 2. a tenant exceeding its step budget is cut **deterministically**
//!    without disturbing other tenants' results;
//! 3. admission control rejects a tenant at its in-flight limit, and
//!    cancellation both stops the job and frees the slot.

use molseq_serve::{
    rows_to_summary, CellRow, CellSpec, Client, ClientError, Method, Program, Server, ServerConfig,
    SubmitRequest, TenantPolicy,
};
use molseq_sweep::{JobBudget, JobStatus};

/// A stochastic decay sweep: `amplitude` copies of X decaying to Y,
/// `reps` seeds, plus one cell with an explicit rate override so the
/// rebind path is always exercised. The long horizon is recorded every
/// 100 time units, under the server's trace-sample cap (the draws and
/// final states do not depend on the interval).
fn decay_submit(tenant: &str, amplitude: f64, reps: usize) -> SubmitRequest {
    let mut cells: Vec<CellSpec> = (0..reps)
        .map(|i| CellSpec {
            label: format!("rep={i}"),
            k_fast: None,
            k_slow: None,
        })
        .collect();
    cells.push(CellSpec {
        label: "k=500/2".to_owned(),
        k_fast: Some(500.0),
        k_slow: Some(2.0),
    });
    SubmitRequest {
        tenant: tenant.to_owned(),
        program: Program::Crn("X -> Y @slow".to_owned()),
        init: vec![("X".to_owned(), amplitude)],
        method: Method::Ssa,
        t_end: 1.0e6,
        record_interval: Some(100.0),
        seed: 11,
        injections: vec![(0.5, "X".to_owned(), 3.0)],
        batch: Some(1),
        cells,
    }
}

/// Renders rows plus their aggregate summary to the exact bytes a client
/// would persist (worker count pinned so only genuine result fields can
/// differ).
fn render(rows: &[CellRow]) -> String {
    let mut out = String::new();
    for row in rows {
        row.to_json().render_compact(&mut out);
        out.push('\n');
    }
    out.push_str(&rows_to_summary(rows, 1).to_json());
    out
}

fn counter(stats: &[(String, f64)], name: &str) -> f64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("counter `{name}` missing from {stats:?}"))
}

#[test]
fn same_submission_is_byte_identical_across_worker_counts_and_hits_the_cache() {
    let serial = Server::start(ServerConfig::default().with_workers(1)).expect("server boots");
    let threaded = Server::start(ServerConfig::default().with_workers(4)).expect("server boots");
    let mut on_serial = Client::connect(serial.addr()).expect("client connects");
    let mut on_threaded = Client::connect(threaded.addr()).expect("client connects");
    let request = decay_submit("acme", 40.0, 6);

    let first = on_serial.submit(&request).expect("submission is valid");
    assert_eq!(first.cells, 7);
    assert_eq!(first.species, vec!["X".to_owned(), "Y".to_owned()]);
    let rows_serial = on_serial.fetch_all(&first.job_id).expect("job completes");
    assert_eq!(rows_serial.len(), 7);
    assert!(rows_serial.iter().all(|r| r.status == JobStatus::Ok));
    // all 43 molecules (40 initial + 3 injected) end up decayed into Y
    for row in &rows_serial {
        assert_eq!(row.final_state, vec![0.0, 43.0], "{}", row.label);
    }

    // (a) byte-identical results, independent of worker count
    let ack = on_threaded.submit(&request).expect("submission is valid");
    let rows_threaded = on_threaded.fetch_all(&ack.job_id).expect("job completes");
    assert_eq!(render(&rows_serial), render(&rows_threaded));

    // (b) resubmitting reuses the compiled network: one miss, then hits
    let stats = on_serial.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "cache_misses"), 1.0);
    assert_eq!(counter(&stats, "cache_hits"), 0.0);
    let again = on_serial.submit(&request).expect("resubmission is valid");
    let rows_again = on_serial.fetch_all(&again.job_id).expect("job completes");
    assert_eq!(render(&rows_serial), render(&rows_again));
    let stats = on_serial.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "cache_misses"), 1.0);
    assert_eq!(counter(&stats, "cache_hits"), 1.0);
    assert_eq!(counter(&stats, "jobs_completed"), 2.0);
    assert_eq!(counter(&stats, "cells_ok"), 14.0);

    // non-waiting page reads after completion reproduce the stream
    let mut paged = Vec::new();
    loop {
        let page = on_serial
            .fetch(&first.job_id, paged.len(), false)
            .expect("fetch round trip");
        paged.extend(page.rows);
        if page.done && paged.len() >= page.next {
            break;
        }
    }
    assert_eq!(paged, rows_serial);

    on_serial.shutdown().expect("shutdown round trip");
    on_threaded.shutdown().expect("shutdown round trip");
    serial.join();
    threaded.join();
}

#[test]
fn budget_cuts_one_tenant_deterministically_without_disturbing_another() {
    let strict = TenantPolicy {
        max_inflight: 4,
        budget: JobBudget::unlimited().with_max_steps(25),
    };
    let config = ServerConfig::default()
        .with_workers(4)
        .with_tenant_policy("greedy", strict);
    let server = Server::start(config).expect("server boots");
    let mut greedy = Client::connect(server.addr()).expect("client connects");
    let mut modest = Client::connect(server.addr()).expect("client connects");

    // the greedy job needs ~203 SSA events, far past its 25-step budget;
    // the modest job runs the same shape within an unlimited budget
    let greedy_ack = greedy
        .submit(&decay_submit("greedy", 200.0, 4))
        .expect("submission is valid");
    let modest_ack = modest
        .submit(&decay_submit("modest", 30.0, 4))
        .expect("submission is valid");

    let greedy_rows = greedy.fetch_all(&greedy_ack.job_id).expect("job completes");
    for row in &greedy_rows {
        assert_eq!(row.status, JobStatus::BudgetExceeded, "{}", row.label);
        assert!(row.detail.contains("steps"), "detail: {}", row.detail);
        assert!(row.final_state.is_empty());
    }

    let modest_rows = modest.fetch_all(&modest_ack.job_id).expect("job completes");
    assert!(modest_rows.iter().all(|r| r.status == JobStatus::Ok));

    // isolation: the modest tenant's rows match a run on an idle server
    // with no budget-constrained neighbour, byte for byte
    let alone = Server::start(ServerConfig::default().with_workers(4)).expect("server boots");
    let mut solo = Client::connect(alone.addr()).expect("client connects");
    let solo_ack = solo
        .submit(&decay_submit("modest", 30.0, 4))
        .expect("submission is valid");
    let solo_rows = solo.fetch_all(&solo_ack.job_id).expect("job completes");
    assert_eq!(render(&modest_rows), render(&solo_rows));

    let stats = greedy.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "cells_budget_exceeded"), 5.0);
    assert_eq!(counter(&stats, "cells_ok"), 5.0);
    // both jobs used the same network: the second submission was a hit
    assert_eq!(counter(&stats, "cache_misses"), 1.0);
    assert_eq!(counter(&stats, "cache_hits"), 1.0);

    greedy.shutdown().expect("shutdown round trip");
    server.join();
    solo.shutdown().expect("shutdown round trip");
    alone.join();
}

#[test]
fn admission_control_rejects_at_the_inflight_limit_and_cancel_frees_the_slot() {
    let one_at_a_time = TenantPolicy {
        max_inflight: 1,
        budget: JobBudget::unlimited(),
    };
    // four workers: both long cells and the small job run concurrently,
    // so the small job cannot queue behind the work it must not disturb
    let config = ServerConfig::default()
        .with_workers(4)
        .with_tenant_policy("busy", one_at_a_time);
    let server = Server::start(config).expect("server boots");
    let mut busy = Client::connect(server.addr()).expect("client connects");
    let mut other = Client::connect(server.addr()).expect("client connects");

    // a job that cannot finish on its own: the two-way flip keeps firing
    // SSA events for the whole (astronomical) horizon, so it is
    // guaranteed to still be running through the admission and
    // cancellation checks below; cancellation cuts it at the next event.
    // The sparse interval keeps it under the trace-sample cap.
    let long = SubmitRequest {
        tenant: "busy".to_owned(),
        program: Program::Crn("X -> Y @slow\nY -> X @slow".to_owned()),
        init: vec![("X".to_owned(), 100.0)],
        method: Method::Ssa,
        t_end: 1.0e9,
        record_interval: Some(1.0e4),
        seed: 3,
        injections: vec![],
        batch: Some(1),
        cells: (0..2)
            .map(|i| CellSpec {
                label: format!("long rep={i}"),
                k_fast: None,
                k_slow: None,
            })
            .collect(),
    };
    let running = busy.submit(&long).expect("first job is admitted");

    // the tenant is at its in-flight limit: the next submission bounces
    let rejected = busy.submit(&long);
    match rejected {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("in-flight"), "rejection message: {msg}");
        }
        other => panic!("expected a server rejection, got {other:?}"),
    }

    // an unrelated tenant is not affected by the rejection or the load
    let small = other
        .submit(&decay_submit("calm", 20.0, 2))
        .expect("other tenant admitted");
    let small_rows = other.fetch_all(&small.job_id).expect("job completes");
    assert!(small_rows.iter().all(|r| r.status == JobStatus::Ok));

    // cancel the long job: every cell ends Cancelled, cooperatively
    busy.cancel(&running.job_id).expect("cancel round trip");
    let cancelled_rows = busy.fetch_all(&running.job_id).expect("job drains");
    assert_eq!(cancelled_rows.len(), 2);
    for row in &cancelled_rows {
        assert_eq!(row.status, JobStatus::Cancelled, "{}", row.label);
        assert!(!row.detail.is_empty());
    }
    let status = busy.status(&running.job_id).expect("status round trip");
    assert_eq!(status.state, "cancelled");
    assert_eq!(status.completed, 2);

    // the cancellation released the tenant's slot
    let after = busy.submit(&decay_submit("busy", 10.0, 1));
    assert!(after.is_ok(), "slot should be free again: {after:?}");
    busy.fetch_all(&after.unwrap().job_id)
        .expect("job completes");

    let stats = busy.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "tenant_rejections"), 1.0);
    assert_eq!(counter(&stats, "rejections.busy"), 1.0);
    assert_eq!(counter(&stats, "jobs_cancelled"), 1.0);
    assert_eq!(counter(&stats, "cells_cancelled"), 2.0);

    busy.shutdown().expect("shutdown round trip");
    server.join();
}

/// [`render`] with the batching bookkeeping metrics dropped: those two
/// columns legitimately differ across widths, everything else must be
/// byte-identical.
fn render_without_batch_columns(rows: &[CellRow]) -> String {
    let stripped: Vec<CellRow> = rows
        .iter()
        .map(|row| {
            let mut row = row.clone();
            row.metrics
                .retain(|(name, _)| name != "batch_width" && name != "lanes_retired");
            row
        })
        .collect();
    render(&stripped)
}

#[test]
fn batched_ode_submission_matches_scalar_byte_for_byte() {
    let server = Server::start(ServerConfig::default().with_workers(2)).expect("server boots");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let mut submit = SubmitRequest {
        tenant: "acme".to_owned(),
        program: Program::Crn("X -> Y @fast\nY -> Z @slow".to_owned()),
        init: vec![("X".to_owned(), 8.0)],
        method: Method::Ode,
        t_end: 4.0,
        record_interval: Some(0.5),
        seed: 7,
        injections: vec![(1.0, "X".to_owned(), 2.0)],
        batch: Some(1),
        cells: (0..5)
            .map(|i| CellSpec {
                label: format!("ratio={}", 100 * (i + 1)),
                k_fast: Some((100 * (i + 1)) as f64),
                k_slow: Some(1.0),
            })
            .collect(),
    };
    let scalar_ack = client.submit(&submit).expect("scalar submission is valid");
    let scalar_rows = client.fetch_all(&scalar_ack.job_id).expect("job completes");
    assert!(scalar_rows.iter().all(|r| r.status == JobStatus::Ok));

    // widths that divide the job, leave a short tail group, and exceed
    // the cell count entirely: all bit-identical to the scalar rows
    for batch in [2usize, 4, 8] {
        submit.batch = Some(batch);
        let ack = client.submit(&submit).expect("batched submission is valid");
        let rows = client.fetch_all(&ack.job_id).expect("job completes");
        assert_eq!(
            render_without_batch_columns(&scalar_rows),
            render_without_batch_columns(&rows),
            "batch {batch}"
        );
    }

    client.shutdown().expect("shutdown round trip");
    server.join();
}

/// An injection scheduled exactly at `t_end` lands in every ODE cell
/// whatever the batch width: a two-cell submit returns the same rows at
/// `batch: 1` (each cell a one-lane run) and at `batch: 2` (one
/// lock-step pair), and every final state holds the injected amount.
#[test]
fn an_ode_injection_at_t_end_lands_at_every_batch_width() {
    let server = Server::start(ServerConfig::default().with_workers(1)).expect("server boots");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let mut submit = SubmitRequest {
        tenant: "acme".to_owned(),
        program: Program::Crn("X -> Y @slow".to_owned()),
        init: vec![("X".to_owned(), 1.0)],
        method: Method::Ode,
        t_end: 2.0,
        record_interval: Some(0.1),
        seed: 7,
        injections: vec![(2.0, "X".to_owned(), 5.0)],
        batch: Some(1),
        cells: [1.0, 0.5]
            .iter()
            .map(|&k| CellSpec {
                label: format!("k_slow={k}"),
                k_fast: Some(1000.0),
                k_slow: Some(k),
            })
            .collect(),
    };
    let mut renders = Vec::new();
    for batch in [1, 2] {
        submit.batch = Some(batch);
        let ack = client.submit(&submit).expect("submission is valid");
        let rows = client.fetch_all(&ack.job_id).expect("job completes");
        for row in &rows {
            assert_eq!(row.status, JobStatus::Ok, "batch {batch}: {}", row.label);
            // X decays to e^{-2k} by t = 2, then receives 5 more
            assert!(row.final_state[0] > 5.0, "batch {batch}: {row:?}");
        }
        renders.push(render_without_batch_columns(&rows));
    }
    assert_eq!(renders[0], renders[1]);

    client.shutdown().expect("shutdown round trip");
    server.join();
}

#[test]
fn batched_stochastic_submissions_match_scalar_byte_for_byte() {
    // an SSA or tau-leap unit runs its cells one after another through
    // the scalar engines, so the streamed rows — the `batch_width` and
    // `lanes_retired` columns included — cannot change with the width
    let server = Server::start(ServerConfig::default().with_workers(2)).expect("server boots");
    let mut client = Client::connect(server.addr()).expect("client connects");
    for method in [Method::Ssa, Method::Tau] {
        let mut submit = SubmitRequest {
            method,
            ..decay_submit("acme", 40.0, 6)
        };
        let scalar_ack = client.submit(&submit).expect("scalar submission is valid");
        let scalar_rows = client.fetch_all(&scalar_ack.job_id).expect("job completes");
        assert!(
            scalar_rows.iter().all(|r| r.status == JobStatus::Ok),
            "{method:?}"
        );

        // a dividing width, a short tail group, and a width past the
        // cell count — all three must reproduce the scalar rows
        for batch in [2usize, 4, 8] {
            submit.batch = Some(batch);
            let ack = client.submit(&submit).expect("batched submission is valid");
            let rows = client.fetch_all(&ack.job_id).expect("job completes");
            assert_eq!(
                render(&scalar_rows),
                render(&rows),
                "{method:?} batch {batch}"
            );
        }
    }
    client.shutdown().expect("shutdown round trip");
    server.join();
}

#[test]
fn omitted_batch_width_is_auto_selected_and_matches_an_explicit_width() {
    // leaving `batch` off the wire lets the server pick a width from the
    // submitted cell count; the rows — including the `batch_width`
    // bookkeeping column — must be byte-identical to pinning that width
    // explicitly
    let server = Server::start(ServerConfig::default().with_workers(2)).expect("server boots");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let mut submit = decay_submit("acme", 40.0, 6); // 7 cells, under the auto cap
    submit.batch = None;
    let auto_ack = client
        .submit(&submit)
        .expect("auto-width submission is valid");
    let auto_rows = client.fetch_all(&auto_ack.job_id).expect("job completes");
    assert!(auto_rows.iter().all(|r| r.status == JobStatus::Ok));

    submit.batch = Some(7);
    let pinned_ack = client.submit(&submit).expect("pinned submission is valid");
    let pinned_rows = client.fetch_all(&pinned_ack.job_id).expect("job completes");
    assert_eq!(render(&auto_rows), render(&pinned_rows));

    // hybrid cannot group, so an omitted width resolves to one cell per
    // unit — and is accepted, not rejected
    let hybrid = SubmitRequest {
        method: Method::Hybrid,
        program: Program::Crn("0 -> R @fast\nR + X -> X @slow\nX -> Y @slow".to_owned()),
        t_end: 2.0,
        batch: None,
        ..decay_submit("acme", 20.0, 1)
    };
    let ack = client
        .submit(&hybrid)
        .expect("auto width degrades to scalar for hybrid");
    let rows = client.fetch_all(&ack.job_id).expect("job completes");
    assert!(rows.iter().all(|r| r.status == JobStatus::Ok));

    client.shutdown().expect("shutdown round trip");
    server.join();
}

#[test]
fn batch_rejections_distinguish_bad_widths_from_unsupported_methods() {
    let server = Server::start(ServerConfig::default().with_workers(1)).expect("server boots");
    let mut client = Client::connect(server.addr()).expect("client connects");

    // an unusable width is a parse-layer error whatever the method
    let mut zero_width = decay_submit("acme", 10.0, 1);
    zero_width.batch = Some(0);
    let rejected = client.submit(&zero_width);
    assert!(
        matches!(rejected, Err(ClientError::Server(ref msg)) if msg.contains("at least 1")),
        "{rejected:?}"
    );

    // a fine width on a method with no batched engine is a different,
    // method-aware error that names the offender and the alternatives
    let hybrid_grouped = SubmitRequest {
        method: Method::Hybrid,
        program: Program::Crn("0 -> R @fast\nR + X -> X @slow\nX -> Y @slow".to_owned()),
        t_end: 2.0,
        batch: Some(2),
        ..decay_submit("acme", 20.0, 3)
    };
    let rejected = client.submit(&hybrid_grouped);
    match rejected {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("hybrid"), "message: {msg}");
            assert!(msg.contains("batchable methods"), "message: {msg}");
        }
        other => panic!("expected a server rejection, got {other:?}"),
    }

    client.shutdown().expect("shutdown round trip");
    server.join();
}

#[test]
fn bounded_cache_evicts_and_recompiles_identically() {
    let config = ServerConfig::default()
        .with_workers(1)
        .with_cache_capacity(1);
    let server = Server::start(config).expect("server boots");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let first = decay_submit("acme", 10.0, 1);
    let mut other = decay_submit("acme", 10.0, 1);
    other.program = Program::Crn("X -> Y @slow\nY -> Z @slow".to_owned());

    // first → miss; other → miss + evicts first; first again → miss +
    // evicts other, and — the point — reproduces the original rows
    let mut renders = Vec::new();
    for submit in [&first, &other, &first] {
        let ack = client.submit(submit).expect("submission is valid");
        let rows = client.fetch_all(&ack.job_id).expect("job completes");
        renders.push(render(&rows));
    }
    assert_eq!(renders[0], renders[2], "recompiled rows match the original");

    let stats = client.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "cache_misses"), 3.0);
    assert_eq!(counter(&stats, "cache_hits"), 0.0);
    assert_eq!(counter(&stats, "cache_evictions"), 2.0);

    client.shutdown().expect("shutdown round trip");
    server.join();
}

#[test]
fn a_panicking_job_leaves_the_server_serving_other_tenants() {
    // Fault injection: the worker that finishes the marked cell panics
    // while holding the job's progress lock — the worst-case poisoning
    // failure a real panic could produce. The wounded job must settle as
    // Failed and every other tenant must keep getting served.
    let config = ServerConfig::default()
        .with_workers(2)
        .with_fault_injection("kaboom");
    let server = Server::start(config).expect("server boots");
    let mut victim = Client::connect(server.addr()).expect("client connects");
    let mut bystander = Client::connect(server.addr()).expect("client connects");

    let mut doomed = decay_submit("victim", 10.0, 1);
    doomed.cells[0].label = "kaboom".to_owned();
    let doomed_ack = victim.submit(&doomed).expect("submission is valid");

    // poll with non-waiting fetches: the panic happens before the job
    // ever signals progress, so recovery fires on first contact with the
    // poisoned lock
    let rows = loop {
        let page = victim
            .fetch(&doomed_ack.job_id, 0, false)
            .expect("connection survives the panic");
        if page.done {
            break page.rows;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(rows.len(), 2);
    assert!(
        rows.iter()
            .any(|r| r.status == JobStatus::Failed && r.detail.contains("panicked")),
        "rows: {rows:?}"
    );
    let status = victim
        .status(&doomed_ack.job_id)
        .expect("status round trip");
    assert_eq!(status.state, "done");
    assert_eq!(status.completed, 2);

    // another tenant is served as if nothing happened
    let calm = bystander
        .submit(&decay_submit("calm", 20.0, 2))
        .expect("other tenant admitted");
    let calm_rows = bystander.fetch_all(&calm.job_id).expect("job completes");
    assert!(calm_rows.iter().all(|r| r.status == JobStatus::Ok));

    // and the victim tenant's slot was handed back: it can submit again
    let retry = victim
        .submit(&decay_submit("victim", 5.0, 1))
        .expect("slot was released");
    let retry_rows = victim.fetch_all(&retry.job_id).expect("job completes");
    assert!(retry_rows.iter().all(|r| r.status == JobStatus::Ok));

    victim.shutdown().expect("shutdown round trip");
    server.join();
}

#[test]
fn hybrid_submission_is_byte_identical_across_worker_counts() {
    // the clocked-motif shape the hybrid engine targets: a fast
    // zeroth-order/first-order pair holds R at its set point while the
    // slow computation reaction fires discretely
    let submit = SubmitRequest {
        tenant: "acme".to_owned(),
        program: Program::Crn("0 -> R @fast\nR + X -> X @slow\nX -> Y @slow".to_owned()),
        init: vec![("X".to_owned(), 50.0)],
        method: Method::Hybrid,
        t_end: 2.0,
        record_interval: Some(0.25),
        seed: 13,
        injections: vec![],
        batch: Some(1),
        cells: (0..4)
            .map(|i| CellSpec {
                label: format!("rep={i}"),
                k_fast: None,
                k_slow: None,
            })
            .collect(),
    };
    let serial = Server::start(ServerConfig::default().with_workers(1)).expect("server boots");
    let threaded = Server::start(ServerConfig::default().with_workers(4)).expect("server boots");
    let mut on_serial = Client::connect(serial.addr()).expect("client connects");
    let mut on_threaded = Client::connect(threaded.addr()).expect("client connects");

    let a = on_serial.submit(&submit).expect("submission is valid");
    let rows_serial = on_serial.fetch_all(&a.job_id).expect("job completes");
    assert!(rows_serial.iter().all(|r| r.status == JobStatus::Ok));
    let b = on_threaded.submit(&submit).expect("submission is valid");
    let rows_threaded = on_threaded.fetch_all(&b.job_id).expect("job completes");
    assert_eq!(render(&rows_serial), render(&rows_threaded));

    // the hybrid engine actually engaged: continuous steps were taken
    let fast_steps = rows_serial[0]
        .metrics
        .iter()
        .find(|(name, _)| name == "hybrid_fast_steps")
        .map(|(_, v)| *v)
        .expect("hybrid metric column present");
    assert!(fast_steps > 0.0);

    on_serial.shutdown().expect("shutdown round trip");
    on_threaded.shutdown().expect("shutdown round trip");
    serial.join();
    threaded.join();
}

#[test]
fn malformed_and_unknown_requests_fail_cleanly_without_killing_the_connection() {
    let server = Server::start(ServerConfig::default().with_workers(1)).expect("server boots");
    let mut client = Client::connect(server.addr()).expect("client connects");

    let unknown = client.status("j-999");
    assert!(matches!(unknown, Err(ClientError::Server(ref msg)) if msg.contains("unknown job")));

    let bad_network = client.submit(&SubmitRequest {
        program: Program::Crn("not a network ->".to_owned()),
        ..decay_submit("acme", 10.0, 1)
    });
    assert!(matches!(bad_network, Err(ClientError::Server(_))));

    let bad_species = client.submit(&SubmitRequest {
        init: vec![("Zz".to_owned(), 1.0)],
        ..decay_submit("acme", 10.0, 1)
    });
    assert!(
        matches!(bad_species, Err(ClientError::Server(ref msg)) if msg.contains("unknown species"))
    );

    // a failed submission must not leak the reserved admission slot
    for _ in 0..6 {
        let ok = client
            .submit(&decay_submit("acme", 5.0, 1))
            .expect("valid submissions still admitted");
        client.fetch_all(&ok.job_id).expect("job completes");
    }

    client.shutdown().expect("shutdown round trip");
    server.join();
}

#[test]
fn unusable_horizons_and_rate_overrides_are_rejected_before_any_worker_runs() {
    let server = Server::start(ServerConfig::default().with_workers(1)).expect("server boots");
    let mut client = Client::connect(server.addr()).expect("client connects");

    // a horizon the integrators cannot reach dies at the protocol layer
    for bad in [-1.0, 0.0] {
        let rejected = client.submit(&SubmitRequest {
            t_end: bad,
            ..decay_submit("acme", 10.0, 1)
        });
        assert!(
            matches!(rejected, Err(ClientError::Server(ref msg)) if msg.contains("t_end")),
            "t_end {bad}: {rejected:?}"
        );
    }
    // a NaN horizon cannot even be carried by JSON: it serialises as
    // null and is rejected as a missing numeric field — still before
    // any plan is built
    let rejected = client.submit(&SubmitRequest {
        t_end: f64::NAN,
        ..decay_submit("acme", 10.0, 1)
    });
    assert!(
        matches!(rejected, Err(ClientError::Server(_))),
        "{rejected:?}"
    );

    // non-finite numbers the Rust client cannot serialise still arrive
    // over the raw wire (`1e999` parses to infinity): an infinite
    // horizon and an infinite per-cell rate override must both bounce
    // at the protocol layer with errors naming the field
    {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        let stream = TcpStream::connect(server.addr()).expect("raw connection");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let base = concat!(
            "{\"op\": \"submit\", \"tenant\": \"acme\", \"network\": \"X -> Y @slow\", ",
            "\"init\": [[\"X\", 10]], \"method\": \"ssa\", \"seed\": 1, \"injections\": [], "
        );
        for (raw, field) in [
            (
                format!("{base}\"t_end\": 1e999, \"cells\": [{{\"label\": \"c\"}}]}}\n"),
                "t_end",
            ),
            (
                format!(
                    "{base}\"t_end\": 5, \"cells\": [{{\"label\": \"c\", \"k_fast\": 1e999}}]}}\n"
                ),
                "k_fast",
            ),
        ] {
            let mut writer = &stream;
            writer.write_all(raw.as_bytes()).expect("line written");
            writer.flush().expect("line flushed");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply arrives");
            assert!(
                reply.contains("\"ok\":false") && reply.contains(field),
                "reply for bad {field}: {reply}"
            );
        }
    }

    // nothing above was admitted, let alone run
    let stats = client.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "jobs_submitted"), 0.0);
    assert_eq!(counter(&stats, "cells_ok"), 0.0);

    client.shutdown().expect("shutdown round trip");
    server.join();
}

#[test]
fn unusable_record_intervals_bounce_and_oversized_counts_fail_their_cell() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = Server::start(ServerConfig::default().with_workers(1)).expect("server boots");

    // a sampling interval of zero or below would spin a worker's
    // recording loop forever; over the raw wire (where `1e999` parses to
    // infinity) every unusable interval must bounce naming the field
    {
        let stream = TcpStream::connect(server.addr()).expect("raw connection");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let base = concat!(
            "{\"op\": \"submit\", \"tenant\": \"acme\", \"network\": \"X -> Y @slow\", ",
            "\"init\": [[\"X\", 10]], \"method\": \"ssa\", \"seed\": 1, \"injections\": [], ",
            "\"t_end\": 5, \"cells\": [{\"label\": \"c\"}], "
        );
        for dt in ["0", "-1", "1e999"] {
            let raw = format!("{base}\"record_interval\": {dt}}}\n");
            let mut writer = &stream;
            writer.write_all(raw.as_bytes()).expect("line written");
            writer.flush().expect("line flushed");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply arrives");
            assert!(
                reply.contains("\"ok\":false") && reply.contains("record_interval"),
                "reply for record_interval {dt}: {reply}"
            );
        }
    }

    let mut client = Client::connect(server.addr()).expect("client connects");
    let stats = client.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "jobs_submitted"), 0.0);

    // an init above 2^53 is finite and non-negative, so it is admitted;
    // the stochastic engine must then fail the cell with a typed error
    // instead of wrapping the count on the first `0 -> X` firing
    let ack = client
        .submit(&SubmitRequest {
            program: Program::Crn("0 -> X @slow".to_owned()),
            init: vec![("X".to_owned(), 1.0e300)],
            t_end: 1.0,
            injections: vec![],
            ..decay_submit("acme", 0.0, 0)
        })
        .expect("admitted");
    let rows = client.fetch_all(&ack.job_id).expect("job completes");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].status, JobStatus::Failed, "{:?}", rows[0]);
    assert!(rows[0].detail.contains("2^53"), "{}", rows[0].detail);

    // the worker survived: a valid job still runs
    let ok = client
        .submit(&decay_submit("acme", 5.0, 1))
        .expect("valid submission admitted");
    let rows = client.fetch_all(&ok.job_id).expect("job completes");
    assert!(rows.iter().all(|r| r.status == JobStatus::Ok));

    client.shutdown().expect("shutdown round trip");
    server.join();
}

/// A submit asking for more trace samples than the server records
/// (`ceil(t_end / record_interval)` above 2^20, with the default interval
/// of 0.1) used to be acknowledged and then abort the whole process on
/// the trace allocation. It must bounce at the wire naming both fields,
/// while a job at the cap and a normal job on the same connection still
/// run to completion.
#[test]
fn a_submit_over_the_trace_sample_cap_bounces_and_the_server_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = Server::start(ServerConfig::default().with_workers(1)).expect("server boots");
    let stream = TcpStream::connect(server.addr()).expect("raw connection");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut send = |line: String| {
        let mut writer = &stream;
        writer.write_all(line.as_bytes()).expect("line written");
        writer.write_all(b"\n").expect("newline written");
        writer.flush().expect("line flushed");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply arrives");
        reply
    };
    let submit = |horizon: &str| {
        format!(
            "{{\"op\": \"submit\", \"tenant\": \"acme\", \"network\": \"X -> Y @slow\", \
             \"init\": [[\"X\", 30]], \"method\": \"ssa\", \"seed\": 1, {horizon}, \
             \"cells\": [{{\"label\": \"c\"}}]}}"
        )
    };

    for horizon in [
        "\"t_end\": 1e12",
        "\"t_end\": 2e7, \"record_interval\": 10",
        "\"t_end\": 1048577, \"record_interval\": 1",
    ] {
        let reply = send(submit(horizon));
        assert!(
            reply.contains("\"ok\":false")
                && reply.contains("t_end")
                && reply.contains("record_interval"),
            "reply for {horizon}: {reply}"
        );
    }

    // exactly at the cap, and an ordinary job: both admitted and run
    for horizon in ["\"t_end\": 1048576, \"record_interval\": 1", "\"t_end\": 5"] {
        let ack = send(submit(horizon));
        assert!(ack.contains("\"ok\":true"), "ack for {horizon}: {ack}");
        let job = ack
            .split("\"job\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("ack names the job")
            .to_owned();
        let page = loop {
            let page = send(format!(
                "{{\"op\": \"fetch\", \"job\": \"{job}\", \"from\": 0, \"wait\": true}}"
            ));
            if page.contains("\"done\":true") {
                break page;
            }
        };
        assert!(
            page.contains("\"status\":\"Ok\""),
            "rows for {horizon}: {page}"
        );
    }

    let mut client = Client::connect(server.addr()).expect("client connects");
    let stats = client.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "jobs_submitted"), 2.0);
    assert_eq!(counter(&stats, "cells_ok"), 2.0);
    client.shutdown().expect("shutdown round trip");
    server.join();
}

#[test]
fn a_server_that_dies_between_submit_and_fetch_surfaces_connection_closed() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, TcpListener};

    // a stand-in for a server killed mid-conversation: accept one
    // connection, answer the submission, then go away. The write side is
    // half-closed (instead of dropping the socket) and the read side
    // keeps draining, so the client deterministically sees a clean EOF
    // rather than racing a TCP reset.
    let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let addr = listener.local_addr().expect("addr");
    let dying = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("one connection");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("submit arrives");
        let mut writer = &stream;
        writer
            .write_all(
                b"{\"ok\": true, \"job\": \"j-1\", \"cells\": 1, \"species\": [\"X\", \"Y\"]}\n",
            )
            .expect("ack written");
        writer.flush().expect("ack flushed");
        stream.shutdown(Shutdown::Write).expect("server goes away");
        // drain whatever the client still sends so its writes don't RST
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });

    let mut client = Client::connect(addr).expect("client connects");
    let ack = client
        .submit(&decay_submit("acme", 10.0, 1))
        .expect("submission acknowledged before the server dies");

    // the fetch after the server's death must be the distinct
    // connection-closed error, not a generic I/O fault
    let lost = client.fetch(&ack.job_id, 0, true);
    match lost {
        Err(ClientError::ConnectionClosed) => {}
        other => panic!("expected ClientError::ConnectionClosed, got {other:?}"),
    }
    // the stand-in drains until the client hangs up — hang up first
    drop(client);
    dying.join().expect("stand-in exits");
}

/// The netlist front-end over the wire: a circuit that exists only as
/// netlist text — never hand-assembled in Rust — compiles server-side,
/// runs byte-identically at any worker count, shares a cache entry with
/// a submission of its own lowered CRN text, and keeps distinct cache
/// entries from other netlists. Malformed netlists bounce at the
/// protocol layer with their source position, before any worker runs.
#[test]
fn netlist_programs_run_over_the_wire_and_cache_by_structure() {
    let seqdet = include_str!("../../../examples/netlists/seqdet.nl");
    let mavg2 = include_str!("../../../examples/netlists/mavg2.nl");

    let submit_netlist = |src: &str| SubmitRequest {
        tenant: "hdl".to_owned(),
        program: Program::Netlist(src.to_owned()),
        init: vec![],
        method: Method::Ode,
        t_end: 40.0,
        record_interval: None,
        seed: 5,
        injections: vec![],
        batch: Some(1),
        cells: vec![
            CellSpec {
                label: "default".to_owned(),
                k_fast: None,
                k_slow: None,
            },
            CellSpec {
                label: "k=500/2".to_owned(),
                k_fast: Some(500.0),
                k_slow: Some(2.0),
            },
        ],
    };

    let serial = Server::start(ServerConfig::default().with_workers(1)).expect("server boots");
    let threaded = Server::start(ServerConfig::default().with_workers(4)).expect("server boots");
    let mut on_serial = Client::connect(serial.addr()).expect("client connects");
    let mut on_threaded = Client::connect(threaded.addr()).expect("client connects");

    // (a) a malformed netlist dies at the protocol layer, with its
    // source position, before admission — exercised over the raw wire
    {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        let stream = TcpStream::connect(serial.addr()).expect("raw connection");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let raw = concat!(
            "{\"op\": \"submit\", \"tenant\": \"hdl\", ",
            "\"program\": {\"netlist\": \"module m {\\n  wire y = nope\\n}\"}, ",
            "\"init\": [], \"method\": \"ode\", \"t_end\": 5, \"seed\": 1, ",
            "\"injections\": [], \"cells\": [{\"label\": \"c\"}]}\n"
        );
        let mut writer = &stream;
        writer.write_all(raw.as_bytes()).expect("line written");
        writer.flush().expect("line flushed");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply arrives");
        assert!(
            reply.contains("\"ok\":false") && reply.contains("line 2"),
            "bad netlist reply: {reply}"
        );
    }
    let stats = on_serial.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "jobs_submitted"), 0.0);

    // (b) the sequence detector runs byte-identically at 1 vs 4 workers
    let request = submit_netlist(seqdet);
    let ack_serial = on_serial.submit(&request).expect("netlist admitted");
    assert!(
        ack_serial.species.iter().any(|s| s == "s2.R"),
        "state registers are visible as species: {:?}",
        ack_serial.species
    );
    let rows_serial = on_serial.fetch_all(&ack_serial.job_id).expect("completes");
    assert!(rows_serial.iter().all(|r| r.status == JobStatus::Ok));
    let ack_threaded = on_threaded.submit(&request).expect("netlist admitted");
    let rows_threaded = on_threaded
        .fetch_all(&ack_threaded.job_id)
        .expect("completes");
    assert_eq!(render(&rows_serial), render(&rows_threaded));

    // (c) submitting the netlist's own lowered CRN text (with the
    // compiled initial state spelled out) is the *same* submission:
    // byte-identical rows and a cache hit, not a new entry
    let system = molseq_sync::compile_netlist_source(seqdet, molseq_sync::ClockSpec::default())
        .expect("netlist compiles locally");
    let crn_text = system.crn().to_string();
    let init_state = system.initial_state();
    let init: Vec<(String, f64)> = (0..system.crn().species_count())
        .map(molseq_crn::SpeciesId::from_index)
        .filter(|&id| init_state.get(id) != 0.0)
        .map(|id| (system.crn().species_name(id).to_owned(), init_state.get(id)))
        .collect();
    let stats = on_serial.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "cache_misses"), 1.0);
    let as_crn = SubmitRequest {
        program: Program::Crn(crn_text),
        init,
        ..submit_netlist(seqdet)
    };
    let ack_crn = on_serial.submit(&as_crn).expect("lowered CRN admitted");
    assert_eq!(ack_crn.species, ack_serial.species);
    let rows_crn = on_serial.fetch_all(&ack_crn.job_id).expect("completes");
    assert_eq!(render(&rows_serial), render(&rows_crn));
    let stats = on_serial.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "cache_misses"), 1.0);
    assert_eq!(counter(&stats, "cache_hits"), 1.0);

    // (d) a different netlist gets its own cache entry; resubmitting the
    // first is still a hit
    let other = on_serial
        .submit(&submit_netlist(mavg2))
        .expect("second netlist admitted");
    on_serial.fetch_all(&other.job_id).expect("completes");
    let again = on_serial.submit(&request).expect("resubmission admitted");
    let rows_again = on_serial.fetch_all(&again.job_id).expect("completes");
    assert_eq!(render(&rows_serial), render(&rows_again));
    let stats = on_serial.stats().expect("stats round trip");
    assert_eq!(counter(&stats, "cache_misses"), 2.0);
    assert_eq!(counter(&stats, "cache_hits"), 2.0);

    on_serial.shutdown().expect("shutdown round trip");
    on_threaded.shutdown().expect("shutdown round trip");
    serial.join();
    threaded.join();
}
