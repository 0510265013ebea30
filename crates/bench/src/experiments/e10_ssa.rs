//! E10 — stochastic validity: the clocked constructs at finite molecule
//! counts, under Gillespie dynamics. The ODE picture assumes continuous
//! concentrations; a DNA implementation has discrete molecules and every
//! reaction is a race of random events.
//!
//! Two probes with opposite sensitivities:
//!
//! * the **binary counter** — its carry logic compares quantities by
//!   annihilation, which is conservation-based and therefore *count-exact*:
//!   it decodes correctly even at single-digit amplitudes;
//! * the **moving-average filter** — halving is a pairing reaction, so an
//!   odd molecule is lost to the parity leak each time a sum is odd: a
//!   genuine ±½-molecule quantization error whose *relative* size falls as
//!   `1/N`.
//!
//! Expected shape: logic reliability is essentially perfect at all counts;
//! arithmetic precision improves inversely with amplitude.
//!
//! Replicates are sweep cells, stamped out by a
//! [`Replicator`](molseq_kinetics::Replicator) through
//! [`ssa_replicate_units`](crate::ssa_replicate_units): each network is
//! compiled once and shared across its seeds, and every replicate is a
//! scalar SSA cell (the context's batch width applies to ODE sweeps
//! only). Replicate seeds derive from the base seed and replicate number
//! only, so the report is byte-identical at any worker count, and stable
//! when the grid grows.

use crate::{ssa_replicate_units, ExpCtx, Report};
use molseq_crn::RateAssignment;
use molseq_dsp::{moving_average, rmse, Filter};
use molseq_kinetics::{
    CompiledCrn, MetricsSink, Replicator, Schedule, SimError, SimSpec, SsaOptions, State, StepHook,
    Trace,
};
use molseq_sweep::{run_units, JobError, SweepUnit};
use molseq_sync::{BinaryCounter, ClockSpec, SyncRun};

/// Decodes one stochastic counter trace: three pulses at amplitude `n`;
/// returns the decoded final count (`None` for a domain failure — a
/// stalled or mis-decoding run), or `Err` if the job budget interrupted
/// the simulation.
fn decode_counter(
    counter: &BinaryCounter,
    result: Result<Trace, SimError>,
) -> Result<Option<u32>, JobError> {
    let trace = match result {
        Ok(t) => t,
        Err(SimError::Interrupted { time, reason }) => {
            return Err(JobError::BudgetExceeded(format!(
                "interrupted at t = {time}: {reason}"
            )))
        }
        Err(_) => return Ok(None),
    };
    let run = SyncRun::from_trace(counter.system(), trace);
    let Some(last) = run.cycles().checked_sub(1) else {
        return Ok(None);
    };
    Ok(counter.decode(&run, last).ok())
}

/// Scores one stochastic filter trace at integer amplitude `n`: returns
/// the RMS error against the ideal response, in *relative* units of `n`
/// (`None` for a stalled run), or `Err` if the job budget interrupted the
/// simulation.
fn filter_rms(
    filter: &Filter,
    samples: &[f64],
    n: f64,
    result: Result<Trace, SimError>,
) -> Result<Option<f64>, JobError> {
    let trace = match result {
        Ok(t) => t,
        Err(SimError::Interrupted { time, reason }) => {
            return Err(JobError::BudgetExceeded(format!(
                "interrupted at t = {time}: {reason}"
            )))
        }
        Err(_) => return Ok(None),
    };
    let run = SyncRun::from_trace(filter.system(), trace);
    if run.cycles() < samples.len() {
        return Ok(None);
    }
    let Ok(series) = run.register_series("y") else {
        return Ok(None);
    };
    let measured: Vec<f64> = series[..samples.len()].to_vec();
    let ideal = filter.ideal_response(samples);
    Ok(Some(rmse(&measured, &ideal) / n))
}

/// Per-replicate SSA options for the counter panel. Dimer ignition is
/// slower at integer counts (a feedback intermediate must exist as a
/// whole molecule), so cycles stretch vs the ODE run — hence the long
/// horizon.
fn counter_opts<'h>(seed: u64, hook: StepHook<'h>, sink: MetricsSink<'h>) -> SsaOptions<'h> {
    SsaOptions::default()
        .with_t_end(220.0)
        .with_record_interval(1.0)
        .with_seed(seed)
        .with_step_hook(hook)
        .with_metrics(sink)
}

/// Per-replicate SSA options for the filter panel.
fn filter_opts<'h>(seed: u64, hook: StepHook<'h>, sink: MetricsSink<'h>) -> SsaOptions<'h> {
    SsaOptions::default()
        .with_t_end(400.0)
        .with_record_interval(1.0)
        .with_seed(seed)
        .with_step_hook(hook)
        .with_metrics(sink)
}

/// Runs the experiment.
pub fn run(ctx: &ExpCtx) -> Report {
    let quick = ctx.quick;
    let mut report = Report::new("e10", "stochastic validity at small counts");

    // panel 1: the counter is count-exact
    let amplitudes: Vec<f64> = if quick {
        vec![8.0]
    } else {
        vec![4.0, 8.0, 32.0]
    };
    let runs: u64 = if quick { 2 } else { 6 };
    // one build + compile per amplitude, shared by all of its replicates;
    // the pulse schedule and initial state are fixed per amplitude, so
    // they too are built once and shared across the replicates
    let counters: Vec<(f64, BinaryCounter, CompiledCrn, State, Option<Schedule>)> = amplitudes
        .iter()
        .map(|&n| {
            let counter = BinaryCounter::build(2, n, ClockSpec::default()).expect("counter builds");
            let compiled = CompiledCrn::new(
                counter.system().crn(),
                &SimSpec::new(RateAssignment::default()),
            );
            let init = counter.system().initial_state();
            let pulses = counter.pulse_train(&[true, true, true, false, false, false]);
            let schedule = counter
                .system()
                .input_trigger("pulse", &pulses)
                .ok()
                .map(|trigger| Schedule::new().trigger(trigger));
            (n, counter, compiled, init, schedule)
        })
        .collect();
    let counter_units: Vec<SweepUnit<'_, Option<u32>>> = counters
        .iter()
        .flat_map(|(n, counter, compiled, init, schedule)| {
            let rep = Replicator::new(compiled, 11);
            let label = format!("counter n={n}");
            match schedule {
                Some(schedule) => ssa_replicate_units(
                    counter.system().crn(),
                    rep,
                    init,
                    schedule,
                    counter_opts,
                    &label,
                    runs as usize,
                    move |_job, result| decode_counter(counter, result),
                ),
                // an un-triggerable system stalls by definition
                None => rep
                    .jobs(label, runs as usize, |_c, _seed, _job| Ok(None))
                    .into_iter()
                    .map(SweepUnit::Single)
                    .collect(),
            }
        })
        .collect();
    let counter_out = run_units(&counter_units, &ctx.sweep_options());
    ctx.persist_summary("e10-counter", &counter_out.summary);

    report.line(format!(
        "counter (2 bits, 3 pulses) under Gillespie dynamics, {runs} seeds per amplitude:"
    ));
    report.line("amplitude | correct decodes".to_owned());
    for (row, &n) in amplitudes.iter().enumerate() {
        let cells = &counter_out.cells[row * runs as usize..(row + 1) * runs as usize];
        let correct = cells.iter().filter(|c| c.value() == Some(&Some(3))).count();
        report.line(format!("{n:9.0} | {correct}/{runs}"));
        if n == *amplitudes.last().expect("nonempty") {
            report.metric("counter success rate", correct as f64 / runs as f64);
        }
    }

    // panel 2: the filter's quantization error falls with amplitude
    let filter_amplitudes: Vec<f64> = if quick {
        vec![10.0, 40.0]
    } else {
        vec![5.0, 10.0, 20.0, 40.0, 80.0]
    };
    let filter_runs: u64 = if quick { 2 } else { 4 };
    // the filter network does not depend on the amplitude: compile once
    let filter = moving_average(2, ClockSpec::default()).expect("filter builds");
    let filter_compiled = CompiledCrn::new(
        filter.system().crn(),
        &SimSpec::new(RateAssignment::default()),
    );
    let filter_init = filter.system().initial_state();
    let filter_rep = Replicator::new(&filter_compiled, 101);
    // per-amplitude input stream (odd/even mix so parity losses actually
    // occur) and its injection schedule
    let filter_panels: Vec<(f64, Vec<f64>, Option<Schedule>)> = filter_amplitudes
        .iter()
        .map(|&n| {
            let samples: Vec<f64> = [1.0, 3.0, 2.0, 5.0, 4.0, 1.0]
                .iter()
                .map(|&k| (k / 5.0 * n).round())
                .collect();
            let schedule = filter
                .system()
                .input_trigger("x", &samples)
                .ok()
                .map(|trigger| Schedule::new().trigger(trigger));
            (n, samples, schedule)
        })
        .collect();
    let filter_units: Vec<SweepUnit<'_, Option<f64>>> = filter_panels
        .iter()
        .flat_map(|(n, samples, schedule)| {
            let filter = &filter;
            let n = *n;
            let label = format!("filter n={n}");
            match schedule {
                Some(schedule) => ssa_replicate_units(
                    filter.system().crn(),
                    filter_rep,
                    &filter_init,
                    schedule,
                    filter_opts,
                    &label,
                    filter_runs as usize,
                    move |_job, result| filter_rms(filter, samples, n, result),
                ),
                None => filter_rep
                    .jobs(label, filter_runs as usize, |_c, _seed, _job| Ok(None))
                    .into_iter()
                    .map(SweepUnit::Single)
                    .collect(),
            }
        })
        .collect();
    let filter_out = run_units(&filter_units, &ctx.sweep_options());
    ctx.persist_summary("e10-filter", &filter_out.summary);

    report.line(format!(
        "moving-average filter, odd/even stream, {filter_runs} seeds per amplitude:"
    ));
    report.line("amplitude | mean relative RMS error | stalled runs".to_owned());
    for (row, &n) in filter_amplitudes.iter().enumerate() {
        let cells = &filter_out.cells[row * filter_runs as usize..(row + 1) * filter_runs as usize];
        let errors: Vec<f64> = cells
            .iter()
            .filter_map(|c| c.value().copied().flatten())
            .collect();
        let stalled = cells.len() - errors.len();
        let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        report.line(format!("{n:9.0} | {mean:22.4} | {stalled:12}"));
        if n == *filter_amplitudes.last().expect("nonempty") {
            report.metric("filter relative RMS at largest amplitude", mean);
        }
        if n == filter_amplitudes[0] {
            report.metric("filter relative RMS at smallest amplitude", mean);
        }
    }
    report.line(
        "expected: conservation-based logic is count-exact at any amplitude; pairing-based arithmetic carries a ±half-molecule quantization error that shrinks as 1/N"
            .to_owned(),
    );
    report
}

#[cfg(test)]
mod tests {
    use crate::ExpCtx;

    #[test]
    fn counter_is_count_exact_and_filter_quantizes() {
        let report = super::run(&ExpCtx::quick());
        let success = report.metric_value("counter success rate").unwrap();
        assert!(success > 0.49, "{report}");
        let noise = report
            .metric_value("filter relative RMS at largest amplitude")
            .unwrap();
        assert!(noise < 0.2, "{report}");
    }

    #[test]
    fn parallel_report_matches_serial() {
        let serial = super::run(&ExpCtx::quick().with_jobs(1));
        let parallel = super::run(&ExpCtx::quick().with_jobs(4));
        assert_eq!(serial.to_string(), parallel.to_string());
    }
}
