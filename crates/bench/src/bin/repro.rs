//! Regenerates every figure and table of the reproduction.
//!
//! ```sh
//! cargo run --release -p molseq-bench --bin repro            # everything
//! cargo run --release -p molseq-bench --bin repro e3 e6      # a subset
//! cargo run --release -p molseq-bench --bin repro --quick    # reduced workloads
//! cargo run --release -p molseq-bench --bin repro --jobs 8   # sweep cells on 8 workers
//! cargo run --release -p molseq-bench --bin repro --summary out/  # persist sweep summaries
//! ```
//!
//! `--jobs N` controls how many worker threads the sweep-backed
//! experiments use: `--jobs 1` forces serial execution, `--jobs 0` (the
//! default) sizes the pool from the machine. Reports are byte-identical
//! at every worker count.
//!
//! `--batch WIDTH` runs the ODE sweep experiments through the lock-step
//! batched ODE engine, WIDTH cells per group (power of 2; `1`, the
//! default, is the plain scalar path); stochastic sweeps always run
//! scalar cells. Simulation results are bit-identical at every width,
//! so reports don't change; only wall time and the ODE cells'
//! `batch_width`/`lanes_retired` metric columns do. With `--via-server`
//! the width goes on the wire instead; leaving the flag off lets the
//! server auto-select a width from the submitted cell count.
//!
//! `--summary DIR` writes each sweep's engine summary (status, timing and
//! step meter per cell) to `DIR/<id>.summary.json` and `.csv`.
//! `--cell-steps N` / `--cell-wall SECS` impose a cooperative per-cell
//! budget, enforced inside the integration loops via step hooks; cells
//! that exceed it are reported as budget failures, not crashes. Step
//! budgets are deterministic; wall budgets are machine-dependent and
//! therefore break byte-reproducibility of failure rows.
//!
//! `--trend-against DIR` (requires `--summary`) compares the summaries
//! this run just persisted against a previously persisted baseline
//! directory and exits `1` when a deterministic simulator counter moved
//! or a cell's wall clock regressed beyond tolerance — see the `trend`
//! binary for the standalone comparator and the tolerance knobs.
//!
//! `--via-server HOST:PORT` skips the local experiments and instead
//! drives an E10-style stochastic sweep through a running `serve`
//! instance over the wire, twice, verifying byte-identical results and
//! compiled-CRN cache hits, plus a cancellation probe — and, with
//! `--server-budget-tenant NAME`, a deterministic budget-cut probe
//! against a tenant the server step-budgets. `--method
//! ssa|ode|tau|hybrid` picks the simulator the main sweep runs under
//! (default `ssa`; `--method hybrid` drives the hybrid ODE/SSA engine
//! over the wire on a motif with a fast reverse pair). `--t-end SECS`
//! overrides the main sweep's horizon — validated here exactly as the
//! server validates the wire field, so a NaN/infinite/non-positive
//! horizon, or one asking for more than 2^20 trace samples at the
//! sweep's recording interval, exits `2` before anything is submitted.
//! `--summary DIR`
//! persists the sweep rows and the server counters through the standard
//! summary pipeline (`via-server.summary.*`, `server-stats.summary.*`).
//!
//! `--netlist FILE` runs a textual netlist (see `DESIGN.md` §14) as a
//! fixed deterministic ODE sweep — on an in-process single-worker server
//! by default, or over the wire against `--via-server HOST:PORT` as the
//! protocol's `{"netlist": ...}` program form. A netlist that does not
//! parse or compile exits `2` with its source position before anything
//! is submitted. `--netlist-builtin seqdet` runs the hand-assembled
//! counterpart of `examples/netlists/seqdet.nl` (shipped as its lowered
//! CRN text), producing byte-identical rows and summaries — the CI
//! stage diffs the two. `--summary DIR` persists
//! `netlist.summary.{json,csv}`.

use molseq_bench::{all_experiments, ExpCtx};
use molseq_sweep::{compare_dirs, JobBudget, TrendOptions};
use std::path::Path;
use std::time::{Duration, Instant};

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: repro [--quick] [--jobs N] [--batch WIDTH] [--summary DIR] \
         [--cell-steps N] [--cell-wall SECS] [--trend-against DIR] \
         [--via-server HOST:PORT] [--method ssa|ode|tau|hybrid] \
         [--t-end SECS] [--server-budget-tenant NAME] \
         [--netlist FILE | --netlist-builtin NAME] [experiment ids...]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut jobs: usize = 0;
    // None = flag absent: scalar locally, server-chosen width over the wire
    let mut batch: Option<usize> = None;
    let mut t_end: Option<f64> = None;
    let mut summary_dir: Option<String> = None;
    let mut trend_against: Option<String> = None;
    let mut via_server: Option<String> = None;
    let mut method: Option<molseq_serve::Method> = None;
    let mut budget_tenant: Option<String> = None;
    let mut netlist_file: Option<String> = None;
    let mut netlist_builtin: Option<String> = None;
    let mut budget = JobBudget::unlimited();
    let mut selected: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jobs" => {
                let Some(n) = iter.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--jobs expects a worker count (0 = one per core)");
                    std::process::exit(2);
                };
                jobs = n;
            }
            "--batch" => {
                // the SoA lanes want a power-of-2 width so chunks stay
                // register-aligned; 0 would mean "no lanes at all"
                let Some(n) = iter
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n.is_power_of_two())
                else {
                    eprintln!("--batch expects a power-of-2 lane count (1 = scalar)");
                    std::process::exit(2);
                };
                batch = Some(n);
            }
            "--t-end" => {
                // mirror the server's submit-time validation: a NaN,
                // infinite, or non-positive horizon must die here, before
                // any worker runs (same treatment `--cell-wall` gets)
                let Some(secs) = iter
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|&s| s.is_finite() && s > 0.0)
                else {
                    eprintln!("--t-end expects a finite positive horizon in seconds");
                    std::process::exit(2);
                };
                t_end = Some(secs);
            }
            "--summary" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--summary expects a directory path");
                    std::process::exit(2);
                };
                summary_dir = Some(dir.clone());
            }
            "--cell-steps" => {
                // a zero budget would fail every cell on its first step —
                // always a typo, never a useful run
                let Some(n) = iter.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) else {
                    eprintln!("--cell-steps expects a positive step count");
                    std::process::exit(2);
                };
                budget = budget.with_max_steps(n);
            }
            "--cell-wall" => {
                // `Duration::from_secs_f64` panics on negative/NaN/overflow
                // input; validate here and exit 2 like every other bad flag
                let secs = iter.next().and_then(|v| v.parse::<f64>().ok());
                let wall = secs
                    .filter(|&s| s > 0.0)
                    .and_then(|s| Duration::try_from_secs_f64(s).ok());
                let Some(wall) = wall else {
                    eprintln!("--cell-wall expects a positive duration in seconds");
                    std::process::exit(2);
                };
                budget = budget.with_max_wall(wall);
            }
            "--via-server" => {
                let Some(addr) = iter.next() else {
                    eprintln!("--via-server expects a HOST:PORT address");
                    std::process::exit(2);
                };
                via_server = Some(addr.clone());
            }
            "--netlist" => {
                let Some(path) = iter.next() else {
                    eprintln!("--netlist expects a netlist file path");
                    std::process::exit(2);
                };
                netlist_file = Some(path.clone());
            }
            "--netlist-builtin" => {
                let Some(name) = iter.next() else {
                    eprintln!("--netlist-builtin expects a circuit name (available: seqdet)");
                    std::process::exit(2);
                };
                netlist_builtin = Some(name.clone());
            }
            "--method" => {
                let Some(m) = iter
                    .next()
                    .and_then(|v| molseq_serve::Method::parse(v).ok())
                else {
                    eprintln!("--method expects one of: ssa, ode, tau, hybrid");
                    std::process::exit(2);
                };
                method = Some(m);
            }
            "--server-budget-tenant" => {
                let Some(name) = iter.next() else {
                    eprintln!("--server-budget-tenant expects a tenant name");
                    std::process::exit(2);
                };
                budget_tenant = Some(name.clone());
            }
            "--trend-against" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--trend-against expects a baseline summary directory");
                    std::process::exit(2);
                };
                trend_against = Some(dir.clone());
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                usage_and_exit();
            }
            other => selected.push(other),
        }
    }
    if trend_against.is_some() && summary_dir.is_none() {
        eprintln!("--trend-against needs --summary DIR to have a candidate to compare");
        std::process::exit(2);
    }
    if budget_tenant.is_some() && via_server.is_none() {
        eprintln!("--server-budget-tenant only makes sense with --via-server");
        std::process::exit(2);
    }
    if method.is_some() && via_server.is_none() {
        eprintln!("--method only makes sense with --via-server (local experiments pick their own integrators)");
        std::process::exit(2);
    }
    if t_end.is_some() && via_server.is_none() {
        eprintln!("--t-end only makes sense with --via-server (local experiments pick their own horizons)");
        std::process::exit(2);
    }
    if netlist_file.is_some() || netlist_builtin.is_some() {
        if netlist_file.is_some() && netlist_builtin.is_some() {
            eprintln!("--netlist and --netlist-builtin are mutually exclusive");
            std::process::exit(2);
        }
        if !selected.is_empty() {
            eprintln!("--netlist runs the netlist sweep, not local experiments");
            std::process::exit(2);
        }
        if method.is_some() || t_end.is_some() || budget_tenant.is_some() {
            eprintln!("--netlist pins its own method and horizon (drop --method/--t-end/--server-budget-tenant)");
            std::process::exit(2);
        }
        // a bad netlist (or unknown builtin) is a usage error: exit 2,
        // with the parse position, before anything is submitted
        let source = match (&netlist_file, &netlist_builtin) {
            (Some(path), _) => molseq_bench::netlist_from_file(Path::new(path)),
            (_, Some(name)) => molseq_bench::netlist_builtin(name),
            _ => unreachable!("guarded above"),
        };
        let source = match source {
            Ok(source) => source,
            Err(e) => {
                eprintln!("netlist: {e}");
                std::process::exit(2);
            }
        };
        match molseq_bench::run_netlist(
            &source,
            via_server.as_deref(),
            summary_dir.as_deref().map(Path::new),
        ) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("netlist: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(addr) = via_server {
        if !selected.is_empty() {
            eprintln!("--via-server runs the server smoke suite, not local experiments");
            std::process::exit(2);
        }
        let method = method.unwrap_or(molseq_serve::Method::Ssa);
        if let Some(horizon) = t_end {
            // the rest of the server's submit-time check: the sample cap
            if let Err(e) = molseq_bench::via_server::check_t_end(method, horizon) {
                eprintln!("--t-end: {e}");
                std::process::exit(2);
            }
        }
        match molseq_bench::run_via_server(
            &addr,
            method,
            batch,
            t_end,
            budget_tenant.as_deref(),
            summary_dir.as_deref().map(Path::new),
        ) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("via-server: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut ctx = if quick {
        ExpCtx::quick()
    } else {
        ExpCtx::full()
    }
    .with_jobs(jobs)
    .with_batch(batch.unwrap_or(1))
    .with_budget(budget);
    if let Some(dir) = &summary_dir {
        ctx = ctx.with_summary_dir(dir.clone());
    }

    let experiments = all_experiments();
    // validate the whole selection upfront: every unknown id is an error,
    // even when other requested ids are valid — a typo must not silently
    // shrink the run
    let unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|id| !experiments.iter().any(|(known, _, _)| known == id))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s): {}", unknown.join(" "));
        let available: Vec<&str> = experiments.iter().map(|(id, _, _)| *id).collect();
        eprintln!("available: {}", available.join(" "));
        std::process::exit(2);
    }

    for (id, _title, runner) in experiments {
        if !selected.is_empty() && !selected.contains(&id) {
            continue;
        }
        let start = Instant::now();
        let report = runner(&ctx);
        println!("{report}");
        println!("  (generated in {:.1?})\n", start.elapsed());
    }

    if let Some(baseline) = trend_against {
        let candidate = summary_dir.expect("checked together with --trend-against");
        // a subset run (`repro e10 --trend-against full-baseline/`) is the
        // common case, so experiments present on only one side don't gate
        let opts = TrendOptions::default().with_require_matching_experiments(false);
        match compare_dirs(Path::new(&baseline), Path::new(&candidate), &opts) {
            Ok(report) => {
                print!(
                    "trend: {baseline} (baseline) vs {candidate} (this run)\n\n{}",
                    report.to_markdown()
                );
                if report.is_regression() {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("trend: {e}");
                std::process::exit(2);
            }
        }
    }
}
