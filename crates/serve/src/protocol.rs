//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line, answered by exactly one
//! JSON object on one line. Responses always carry `"ok"`; failures carry
//! `"error"` with a human-readable message. The document model is
//! [`molseq_sweep::JsonValue`] — the same hand-rolled, stub-compatible
//! JSON layer the sweep artifacts use — so the protocol needs no
//! deserialization support from the vendored serde.
//!
//! Operations:
//!
//! * `submit` — a batch of sweep cells over one program: a tagged
//!   `program` object carrying either reaction text in the
//!   [`Crn`](molseq_crn::Crn) `Display`/`FromStr` format
//!   (`{"crn": "..."}`) or netlist source compiled server-side
//!   (`{"netlist": "..."}`; see `molseq_netlist`). The legacy bare
//!   `network` string field is still accepted on input as a `crn`
//!   program. Netlist text is validated **at parse time**: a malformed
//!   netlist is rejected with line/column info before any admission,
//!   compilation, or worker involvement. Replies with a job id.
//! * `status` — queued/running/done counts for a job.
//! * `fetch` — the job's completed rows from a given index, optionally
//!   blocking until more are ready. Rows stream back in **index order**
//!   (the contiguous completed prefix), so what a streaming client
//!   accumulates is byte-identical to a batch fetch after completion.
//! * `cancel` — raise the job's [`CancelToken`](molseq_sweep::CancelToken).
//! * `stats` — server counters (cache hits/misses, queue depths,
//!   per-tenant rejections), sorted by name.
//! * `shutdown` — stop accepting and drain.
//!
//! Result rows deliberately carry **no wall-clock readings** — only the
//! deterministic fields (status, detail, metrics, final state) — so two
//! runs of the same submission are byte-comparable regardless of worker
//! count or machine.

use molseq_sweep::{JobRecord, JobStatus, JsonValue, SweepSummary};
use std::fmt;

/// Why a wire message could not be understood.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    msg: String,
}

impl ProtocolError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ProtocolError { msg: msg.into() }
    }

    /// The human-readable failure description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for ProtocolError {}

/// Which simulator a submission runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Exact stochastic simulation (Gillespie SSA).
    Ssa,
    /// Deterministic mass-action ODE integration.
    Ode,
    /// Hybrid ODE/SSA multiscale simulation: fast reversible pairs as a
    /// continuous subsystem, slow reactions as exact discrete events.
    Hybrid,
    /// Explicit tau-leaping: Poisson batches of reactions per leap, with
    /// an exact-step fallback when propensities are small.
    Tau,
}

impl Method {
    /// The wire name (`"ssa"` / `"ode"` / `"hybrid"` / `"tau"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Ssa => "ssa",
            Method::Ode => "ode",
            Method::Hybrid => "hybrid",
            Method::Tau => "tau",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] for anything but `"ssa"`, `"ode"`, `"hybrid"` or
    /// `"tau"`.
    pub fn parse(s: &str) -> Result<Self, ProtocolError> {
        match s {
            "ssa" => Ok(Method::Ssa),
            "ode" => Ok(Method::Ode),
            "hybrid" => Ok(Method::Hybrid),
            "tau" => Ok(Method::Tau),
            other => Err(ProtocolError::new(format!("unknown method `{other}`"))),
        }
    }

    /// Whether the server has a lock-step batched engine for this method.
    /// ODE, SSA and tau-leap lanes advance together bit-identically to
    /// their scalar runs; the hybrid engine has no batched counterpart.
    #[must_use]
    pub fn supports_batch(self) -> bool {
        !matches!(self, Method::Hybrid)
    }
}

/// What a submission runs: the tagged `program` field of a submit
/// request.
///
/// Both forms resolve to a [`Crn`](molseq_crn::Crn) server-side and share
/// the compiled-network cache (keyed by `Crn::structural_hash`), so two
/// identical netlists — or a netlist and the reaction text it lowers to —
/// hit the same cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Program {
    /// Reaction text in the `Crn` `Display`/`FromStr` format.
    Crn(String),
    /// Netlist source text (modules; the last module is the top). The
    /// server elaborates and lowers it with the default clock, and the
    /// compiled system's initial state seeds the run (the request's
    /// `init` entries override by species name).
    Netlist(String),
}

/// One sweep cell of a submission: a label plus an optional rate-constant
/// override (both of `k_fast`/`k_slow`, or neither — the server rejects a
/// half-specified pair).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Human-readable cell label, carried into result rows.
    pub label: String,
    /// Fast-category rate constant override.
    pub k_fast: Option<f64>,
    /// Slow-category rate constant override.
    pub k_slow: Option<f64>,
}

/// A batch-simulation submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The tenant this job is accounted to (admission control and budgets
    /// are per tenant).
    pub tenant: String,
    /// What to run: reaction text or netlist source.
    pub program: Program,
    /// Initial amounts by species name; unmentioned species start at 0.
    pub init: Vec<(String, f64)>,
    /// Which simulator to run.
    pub method: Method,
    /// Simulated end time.
    pub t_end: f64,
    /// Trace recording interval (simulator default when absent).
    pub record_interval: Option<f64>,
    /// The sweep master seed; each cell's seed derives from it and the
    /// cell index exactly as [`molseq_sweep::derive_seed`] does.
    pub seed: u64,
    /// Timed injections `(time, species name, amount)`.
    pub injections: Vec<(f64, String, f64)>,
    /// Lock-step batch width: consecutive runs of this many cells advance
    /// together through the batched kinetics engine (ODE, SSA or
    /// tau-leap; the hybrid method has no batched engine and rejects
    /// explicit widths above 1). `Some(1)` forces every cell onto the
    /// scalar path; `None` (field omitted on the wire) lets the server
    /// pick a width from the submitted cell count. Results are
    /// bit-identical at every width, so the choice only moves wall time
    /// and the `batch_width`/`lanes_retired` metric columns.
    pub batch: Option<usize>,
    /// The cells to run, in index order.
    pub cells: Vec<CellSpec>,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a new job.
    Submit(Box<SubmitRequest>),
    /// Query a job's progress.
    Status {
        /// The job to query.
        job_id: String,
    },
    /// Fetch completed rows.
    Fetch {
        /// The job to read from.
        job_id: String,
        /// First row index wanted.
        from: usize,
        /// Block until at least one new row (or a terminal state) is
        /// available.
        wait: bool,
    },
    /// Cancel a job.
    Cancel {
        /// The job to cancel.
        job_id: String,
    },
    /// Read the server counters.
    Stats,
    /// Stop the server.
    Shutdown,
}

/// One completed cell as it travels over the wire: the deterministic
/// subset of a sweep cell (no wall clock).
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// The cell's index in the submission.
    pub index: usize,
    /// The cell's label.
    pub label: String,
    /// How the cell ended.
    pub status: JobStatus,
    /// Failure detail (empty for `Ok`).
    pub detail: String,
    /// Recorded metrics, in a fixed deterministic order.
    pub metrics: Vec<(String, f64)>,
    /// Final state vector, in species registration order (empty unless
    /// the cell succeeded).
    pub final_state: Vec<f64>,
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn num(v: f64) -> JsonValue {
    JsonValue::from_f64(v)
}

fn string(s: &str) -> JsonValue {
    JsonValue::String(s.to_owned())
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, ProtocolError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ProtocolError::new(format!("missing string field `{key}`")))
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, ProtocolError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ProtocolError::new(format!("missing numeric field `{key}`")))
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, ProtocolError> {
    let n = get_f64(v, key)?;
    if n.fract() != 0.0 || !(0.0..9.0e15).contains(&n) {
        return Err(ProtocolError::new(format!(
            "field `{key}` is not a non-negative integer"
        )));
    }
    Ok(n as usize)
}

fn opt_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

impl Request {
    /// Renders this request as one compact JSON line (no trailing
    /// newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let doc = match self {
            Request::Submit(req) => {
                let cells: Vec<JsonValue> = req
                    .cells
                    .iter()
                    .map(|c| {
                        let mut members = vec![("label", string(&c.label))];
                        if let Some(k) = c.k_fast {
                            members.push(("k_fast", num(k)));
                        }
                        if let Some(k) = c.k_slow {
                            members.push(("k_slow", num(k)));
                        }
                        obj(members)
                    })
                    .collect();
                let init: Vec<JsonValue> = req
                    .init
                    .iter()
                    .map(|(name, amount)| JsonValue::Array(vec![string(name), num(*amount)]))
                    .collect();
                let injections: Vec<JsonValue> = req
                    .injections
                    .iter()
                    .map(|(time, name, amount)| {
                        JsonValue::Array(vec![num(*time), string(name), num(*amount)])
                    })
                    .collect();
                let program = match &req.program {
                    Program::Crn(text) => obj(vec![("crn", string(text))]),
                    Program::Netlist(text) => obj(vec![("netlist", string(text))]),
                };
                let mut members = vec![
                    ("op", string("submit")),
                    ("tenant", string(&req.tenant)),
                    ("program", program),
                    ("init", JsonValue::Array(init)),
                    ("method", string(req.method.as_str())),
                    ("t_end", num(req.t_end)),
                ];
                if let Some(dt) = req.record_interval {
                    members.push(("record_interval", num(dt)));
                }
                members.push(("seed", num(req.seed as f64)));
                if !req.injections.is_empty() {
                    members.push(("injections", JsonValue::Array(injections)));
                }
                if let Some(width) = req.batch {
                    members.push(("batch", num(width as f64)));
                }
                members.push(("cells", JsonValue::Array(cells)));
                obj(members)
            }
            Request::Status { job_id } => {
                obj(vec![("op", string("status")), ("job", string(job_id))])
            }
            Request::Fetch { job_id, from, wait } => obj(vec![
                ("op", string("fetch")),
                ("job", string(job_id)),
                ("from", num(*from as f64)),
                ("wait", JsonValue::Bool(*wait)),
            ]),
            Request::Cancel { job_id } => {
                obj(vec![("op", string("cancel")), ("job", string(job_id))])
            }
            Request::Stats => obj(vec![("op", string("stats"))]),
            Request::Shutdown => obj(vec![("op", string("shutdown"))]),
        };
        let mut out = String::new();
        doc.render_compact(&mut out);
        out
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on malformed JSON, an unknown `op`, or missing
    /// fields.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let doc = JsonValue::parse(line)
            .map_err(|e| ProtocolError::new(format!("malformed request: {e}")))?;
        let op = get_str(&doc, "op")?;
        match op.as_str() {
            "submit" => Ok(Request::Submit(Box::new(parse_submit(&doc)?))),
            "status" => Ok(Request::Status {
                job_id: get_str(&doc, "job")?,
            }),
            "fetch" => Ok(Request::Fetch {
                job_id: get_str(&doc, "job")?,
                from: get_usize(&doc, "from").unwrap_or(0),
                wait: matches!(doc.get("wait"), Some(JsonValue::Bool(true))),
            }),
            "cancel" => Ok(Request::Cancel {
                job_id: get_str(&doc, "job")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::new(format!("unknown op `{other}`"))),
        }
    }
}

/// Resolves the tagged `program` field (or the legacy bare `network`
/// string). Netlist text is parsed and elaborated here, so a malformed
/// netlist fails with line/column info before any worker — the same
/// fail-at-the-wire posture as the `t_end` and rate-override checks.
fn parse_program_field(doc: &JsonValue) -> Result<Program, ProtocolError> {
    match (doc.get("program"), doc.get("network")) {
        (Some(_), Some(_)) => Err(ProtocolError::new(
            "give either `program` or the legacy `network` field, not both",
        )),
        (None, None) => Err(ProtocolError::new(
            "missing `program` (an object tagged {\"crn\": text} or {\"netlist\": text})",
        )),
        (None, Some(_)) => Ok(Program::Crn(get_str(doc, "network")?)),
        (Some(p), None) => match (p.get("crn"), p.get("netlist")) {
            (Some(text), None) => {
                let text = text
                    .as_str()
                    .ok_or_else(|| ProtocolError::new("`program.crn` is not a string"))?;
                Ok(Program::Crn(text.to_owned()))
            }
            (None, Some(text)) => {
                let text = text
                    .as_str()
                    .ok_or_else(|| ProtocolError::new("`program.netlist` is not a string"))?;
                molseq_netlist::parse_netlist(text).map_err(|e| {
                    ProtocolError::new(format!("`program.netlist` does not parse: {e}"))
                })?;
                Ok(Program::Netlist(text.to_owned()))
            }
            _ => Err(ProtocolError::new(
                "`program` must carry exactly one of `crn` or `netlist`",
            )),
        },
    }
}

fn parse_submit(doc: &JsonValue) -> Result<SubmitRequest, ProtocolError> {
    let init = match doc.get("init") {
        None => Vec::new(),
        Some(v) => {
            v.as_array()
                .ok_or_else(|| ProtocolError::new("`init` is not an array"))?
                .iter()
                .map(|pair| {
                    let items = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                        ProtocolError::new("init entry is not a [name, amount] pair")
                    })?;
                    let name = items[0]
                        .as_str()
                        .ok_or_else(|| ProtocolError::new("init species name is not a string"))?;
                    let amount = items[1]
                        .as_f64()
                        .ok_or_else(|| ProtocolError::new("init amount is not a number"))?;
                    Ok((name.to_owned(), amount))
                })
                .collect::<Result<_, ProtocolError>>()?
        }
    };
    let injections = match doc.get("injections") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| ProtocolError::new("`injections` is not an array"))?
            .iter()
            .map(|triple| {
                let items = triple.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                    ProtocolError::new("injection entry is not a [time, species, amount] triple")
                })?;
                let time = items[0]
                    .as_f64()
                    .ok_or_else(|| ProtocolError::new("injection time is not a number"))?;
                let name = items[1]
                    .as_str()
                    .ok_or_else(|| ProtocolError::new("injection species is not a string"))?;
                let amount = items[2]
                    .as_f64()
                    .ok_or_else(|| ProtocolError::new("injection amount is not a number"))?;
                Ok((time, name.to_owned(), amount))
            })
            .collect::<Result<_, ProtocolError>>()?,
    };
    let cells = doc
        .get("cells")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ProtocolError::new("missing `cells` array"))?
        .iter()
        .map(|cell| {
            let label = get_str(cell, "label")?;
            let k_fast = opt_f64(cell, "k_fast");
            let k_slow = opt_f64(cell, "k_slow");
            // a non-finite override would silently poison every
            // propensity downstream; reject it at the wire like the
            // other numeric fields
            for (name, value) in [("k_fast", k_fast), ("k_slow", k_slow)] {
                if value.is_some_and(|k| !k.is_finite()) {
                    return Err(ProtocolError::new(format!(
                        "cell `{label}`: `{name}` override must be finite"
                    )));
                }
            }
            Ok(CellSpec {
                label,
                k_fast,
                k_slow,
            })
        })
        .collect::<Result<Vec<_>, ProtocolError>>()?;
    let seed = match doc.get("seed") {
        None => 0,
        Some(_) => {
            let n = get_f64(doc, "seed")?;
            if n.fract() != 0.0 || !(0.0..9.0e15).contains(&n) {
                return Err(ProtocolError::new("`seed` is not a non-negative integer"));
            }
            n as u64
        }
    };
    let batch = match doc.get("batch") {
        None => None,
        Some(_) => {
            let n = get_usize(doc, "batch")?;
            if n == 0 {
                return Err(ProtocolError::new("`batch` must be at least 1"));
            }
            Some(n)
        }
    };
    // reject an unusable horizon at the wire, before any admission or
    // compilation work: NaN travels as JSON null (caught as a missing
    // numeric field above), but ±inf, zero and negative times parse fine
    // and would otherwise reach the workers
    let t_end = get_f64(doc, "t_end")?;
    if !t_end.is_finite() || t_end <= 0.0 {
        return Err(ProtocolError::new("`t_end` must be a finite positive time"));
    }
    // a sampling interval of zero or below would spin a worker's
    // recording loop forever; an absent (or null) one takes the default
    let record_interval = opt_f64(doc, "record_interval");
    if record_interval.is_some_and(|dt| !dt.is_finite() || dt <= 0.0) {
        return Err(ProtocolError::new(
            "`record_interval` must be a finite positive time",
        ));
    }
    let program = parse_program_field(doc)?;
    Ok(SubmitRequest {
        tenant: get_str(doc, "tenant")?,
        program,
        init,
        method: Method::parse(&get_str(doc, "method")?)?,
        t_end,
        record_interval,
        seed,
        injections,
        batch,
        cells,
    })
}

impl CellRow {
    /// This row as a JSON value (the element type of fetch responses).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("index", num(self.index as f64)),
            ("label", string(&self.label)),
            ("status", string(self.status.as_str())),
            ("detail", string(&self.detail)),
            (
                "metrics",
                JsonValue::Array(
                    self.metrics
                        .iter()
                        .map(|(name, v)| JsonValue::Array(vec![string(name), num(*v)]))
                        .collect(),
                ),
            ),
            (
                "final_state",
                JsonValue::Array(self.final_state.iter().map(|&v| num(v)).collect()),
            ),
        ])
    }

    /// Parses a row from a fetch response element.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on a value that does not match the row schema.
    pub fn from_json(v: &JsonValue) -> Result<CellRow, ProtocolError> {
        let status_name = get_str(v, "status")?;
        let status = JobStatus::parse(&status_name)
            .ok_or_else(|| ProtocolError::new(format!("unknown status `{status_name}`")))?;
        let metrics = v
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ProtocolError::new("missing `metrics` array"))?
            .iter()
            .map(|pair| {
                let items = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                    ProtocolError::new("metric entry is not a [name, value] pair")
                })?;
                let name = items[0]
                    .as_str()
                    .ok_or_else(|| ProtocolError::new("metric name is not a string"))?;
                // null is how non-finite values travel, as in the artifacts
                let value = match &items[1] {
                    JsonValue::Null => f64::NAN,
                    other => other
                        .as_f64()
                        .ok_or_else(|| ProtocolError::new("metric value is not a number"))?,
                };
                Ok((name.to_owned(), value))
            })
            .collect::<Result<_, ProtocolError>>()?;
        let final_state = v
            .get("final_state")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ProtocolError::new("missing `final_state` array"))?
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| ProtocolError::new("final_state entry is not a number"))
            })
            .collect::<Result<_, ProtocolError>>()?;
        Ok(CellRow {
            index: get_usize(v, "index")?,
            label: get_str(v, "label")?,
            status,
            detail: get_str(v, "detail")?,
            metrics,
            final_state,
        })
    }

    /// This row as a sweep [`JobRecord`] with a zero wall clock, so sets
    /// of fetched rows can be aggregated into a [`SweepSummary`] and fed
    /// through the persisted-artifact / trend pipeline.
    #[must_use]
    pub fn to_job_record(&self) -> JobRecord {
        JobRecord {
            index: self.index,
            label: self.label.clone(),
            status: self.status,
            wall_secs: 0.0,
            detail: self.detail.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

/// Aggregates fetched rows into a [`SweepSummary`] with zeroed wall
/// clocks, suitable for `to_json`/`to_csv` persistence and `trend`
/// comparison. Because every field is deterministic, two summaries built
/// from the same submission are byte-identical however many workers the
/// server ran.
#[must_use]
pub fn rows_to_summary(rows: &[CellRow], workers: usize) -> SweepSummary {
    let jobs: Vec<JobRecord> = rows.iter().map(CellRow::to_job_record).collect();
    let count = |status: JobStatus| jobs.iter().filter(|j| j.status == status).count();
    SweepSummary {
        total: jobs.len(),
        succeeded: count(JobStatus::Ok),
        failed: count(JobStatus::Failed),
        panicked: count(JobStatus::Panicked),
        budget_exceeded: count(JobStatus::BudgetExceeded),
        cancelled: count(JobStatus::Cancelled),
        workers,
        wall_secs: 0.0,
        min_job_secs: 0.0,
        mean_job_secs: 0.0,
        max_job_secs: 0.0,
        jobs,
    }
}

/// Wraps a `stats` counter snapshot in a one-row [`SweepSummary`] (label
/// `server-stats`), so server counters land in the same persisted-summary
/// pipeline the experiments use and `trend` can gate on them. Counters
/// must already be sorted by name — the server emits them that way.
#[must_use]
pub fn stats_summary(counters: &[(String, f64)]) -> SweepSummary {
    let row = CellRow {
        index: 0,
        label: "server-stats".to_owned(),
        status: JobStatus::Ok,
        detail: String::new(),
        metrics: counters.to_vec(),
        final_state: Vec::new(),
    };
    rows_to_summary(std::slice::from_ref(&row), 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_submit() -> SubmitRequest {
        SubmitRequest {
            tenant: "acme".to_owned(),
            program: Program::Crn("X -> Y @fast\n".to_owned()),
            init: vec![("X".to_owned(), 10.0)],
            method: Method::Ssa,
            t_end: 5.0,
            record_interval: Some(1.0),
            seed: 42,
            injections: vec![(2.0, "X".to_owned(), 3.0)],
            batch: Some(1),
            cells: vec![
                CellSpec {
                    label: "rep=0".to_owned(),
                    k_fast: None,
                    k_slow: None,
                },
                CellSpec {
                    label: "k=500".to_owned(),
                    k_fast: Some(500.0),
                    k_slow: Some(1.0),
                },
            ],
        }
    }

    #[test]
    fn requests_round_trip_through_their_lines() {
        let requests = vec![
            Request::Submit(Box::new(sample_submit())),
            Request::Status {
                job_id: "j-1".to_owned(),
            },
            Request::Fetch {
                job_id: "j-1".to_owned(),
                from: 3,
                wait: true,
            },
            Request::Cancel {
                job_id: "j-2".to_owned(),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn submit_defaults_apply_when_fields_are_absent() {
        // the legacy bare `network` field still reads as a crn program
        let line = "{\"op\":\"submit\",\"tenant\":\"t\",\"network\":\"X -> Y @fast\",\
                    \"method\":\"ode\",\"t_end\":1,\"cells\":[{\"label\":\"only\"}]}";
        let Request::Submit(req) = Request::parse(line).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(req.program, Program::Crn("X -> Y @fast".to_owned()));
        assert_eq!(req.seed, 0);
        assert!(req.init.is_empty());
        assert!(req.injections.is_empty());
        assert_eq!(req.record_interval, None);
        assert_eq!(req.method, Method::Ode);
        assert_eq!(req.cells[0].k_fast, None);
        // an omitted width is *not* a width of 1: it asks the server to
        // pick one from the cell count
        assert_eq!(req.batch, None);
    }

    #[test]
    fn netlist_programs_round_trip() {
        let mut submit = sample_submit();
        submit.program = Program::Netlist(
            "module m {\n  input x\n  reg d\n  d <= x\n  output y = d\n}\n".to_owned(),
        );
        submit.init = Vec::new();
        submit.injections = Vec::new();
        let line = Request::Submit(Box::new(submit.clone())).to_line();
        assert!(line.contains("\"netlist\""), "{line}");
        assert_eq!(
            Request::parse(&line).unwrap(),
            Request::Submit(Box::new(submit))
        );
    }

    #[test]
    fn malformed_netlists_fail_at_parse_time_with_position() {
        let line = "{\"op\":\"submit\",\"tenant\":\"t\",\
                    \"program\":{\"netlist\":\"module m {\\n  wire y = nope\\n}\\n\"},\
                    \"method\":\"ode\",\"t_end\":1,\"cells\":[{\"label\":\"c\"}]}";
        let err = Request::parse(line).unwrap_err();
        assert!(err.message().contains("netlist"), "{err}");
        assert!(err.message().contains("line 2"), "{err}");
        assert!(err.message().contains("column 12"), "{err}");
    }

    #[test]
    fn program_field_must_be_exactly_one_form() {
        let both_fields = "{\"op\":\"submit\",\"tenant\":\"t\",\"network\":\"X -> Y @fast\",\
                           \"program\":{\"crn\":\"X -> Y @fast\"},\
                           \"method\":\"ode\",\"t_end\":1,\"cells\":[{\"label\":\"c\"}]}";
        let err = Request::parse(both_fields).unwrap_err();
        assert!(err.message().contains("not both"), "{err}");

        let neither = "{\"op\":\"submit\",\"tenant\":\"t\",\
                       \"method\":\"ode\",\"t_end\":1,\"cells\":[{\"label\":\"c\"}]}";
        let err = Request::parse(neither).unwrap_err();
        assert!(err.message().contains("program"), "{err}");

        let both_tags = "{\"op\":\"submit\",\"tenant\":\"t\",\
                         \"program\":{\"crn\":\"X -> Y @fast\",\"netlist\":\"module m {\\n}\\n\"},\
                         \"method\":\"ode\",\"t_end\":1,\"cells\":[{\"label\":\"c\"}]}";
        let err = Request::parse(both_tags).unwrap_err();
        assert!(err.message().contains("exactly one"), "{err}");
    }

    #[test]
    fn batch_width_round_trips_and_zero_is_rejected() {
        let mut submit = sample_submit();
        submit.batch = Some(4);
        let line = Request::Submit(Box::new(submit.clone())).to_line();
        assert_eq!(
            Request::parse(&line).unwrap(),
            Request::Submit(Box::new(submit))
        );
        let zero = "{\"op\":\"submit\",\"tenant\":\"t\",\"network\":\"X -> Y @fast\",\
                    \"method\":\"ode\",\"t_end\":1,\"batch\":0,\"cells\":[{\"label\":\"c\"}]}";
        let err = Request::parse(zero).unwrap_err();
        assert!(err.message().contains("batch"), "{err}");
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"op\":\"explode\"}").is_err());
        let missing_cells =
            "{\"op\":\"submit\",\"tenant\":\"t\",\"network\":\"\",\"method\":\"ssa\",\"t_end\":1}";
        let err = Request::parse(missing_cells).unwrap_err();
        assert!(err.message().contains("cells"), "{err}");
        assert!(Method::parse("nrm").is_err());
    }

    #[test]
    fn every_method_round_trips_through_its_wire_name() {
        for method in [Method::Ssa, Method::Ode, Method::Hybrid, Method::Tau] {
            assert_eq!(Method::parse(method.as_str()).unwrap(), method);
        }
    }

    #[test]
    fn only_the_hybrid_method_lacks_a_batched_engine() {
        assert!(Method::Ode.supports_batch());
        assert!(Method::Ssa.supports_batch());
        assert!(Method::Tau.supports_batch());
        assert!(!Method::Hybrid.supports_batch());
    }

    #[test]
    fn unusable_t_end_is_rejected_at_parse_time() {
        let line = |t_end: &str| {
            format!(
                "{{\"op\":\"submit\",\"tenant\":\"t\",\"network\":\"X -> Y @fast\",\
                 \"method\":\"ssa\",\"t_end\":{t_end},\"cells\":[{{\"label\":\"c\"}}]}}"
            )
        };
        for bad in ["-1", "0", "1e999", "-1e999"] {
            let err = Request::parse(&line(bad)).unwrap_err();
            assert!(err.message().contains("t_end"), "{bad}: {err}");
        }
        // NaN cannot travel as a JSON number: the renderer emits null,
        // which the parser rejects as a missing numeric field — still
        // before any worker sees the job
        let mut submit = sample_submit();
        submit.t_end = f64::NAN;
        let err = Request::parse(&Request::Submit(Box::new(submit)).to_line()).unwrap_err();
        assert!(err.message().contains("t_end"), "{err}");
        assert!(Request::parse(&line("5")).is_ok());
    }

    #[test]
    fn unusable_record_interval_is_rejected_at_parse_time() {
        let line = |dt: &str| {
            format!(
                "{{\"op\":\"submit\",\"tenant\":\"t\",\"network\":\"X -> Y @fast\",\
                 \"method\":\"ssa\",\"t_end\":1,\"record_interval\":{dt},\
                 \"cells\":[{{\"label\":\"c\"}}]}}"
            )
        };
        for bad in ["0", "-0.5", "1e999", "-1e999"] {
            let err = Request::parse(&line(bad)).unwrap_err();
            assert!(err.message().contains("record_interval"), "{bad}: {err}");
        }
        assert!(Request::parse(&line("0.25")).is_ok());
        // null is an absent field: the engine default applies
        assert!(Request::parse(&line("null")).is_ok());
    }

    #[test]
    fn non_finite_rate_overrides_are_rejected_at_parse_time() {
        let line = |k: &str| {
            format!(
                "{{\"op\":\"submit\",\"tenant\":\"t\",\"network\":\"X -> Y @fast\",\
                 \"method\":\"ssa\",\"t_end\":1,\
                 \"cells\":[{{\"label\":\"c\",\"k_fast\":{k},\"k_slow\":1}}]}}"
            )
        };
        for bad in ["1e999", "-1e999"] {
            let err = Request::parse(&line(bad)).unwrap_err();
            assert!(err.message().contains("k_fast"), "{bad}: {err}");
            assert!(err.message().contains("`c`"), "{bad}: {err}");
        }
        assert!(Request::parse(&line("500")).is_ok());
    }

    #[test]
    fn cell_rows_round_trip_including_non_finite_metrics() {
        let row = CellRow {
            index: 3,
            label: "rep=3".to_owned(),
            status: JobStatus::BudgetExceeded,
            detail: "steps 11 > limit 10".to_owned(),
            metrics: vec![
                ("final_time".to_owned(), 4.5),
                ("residual".to_owned(), f64::NAN),
                ("ssa_events".to_owned(), 120.0),
            ],
            final_state: vec![0.0, 2.0, 8.0],
        };
        let parsed = CellRow::from_json(&row.to_json()).unwrap();
        assert_eq!(parsed.index, row.index);
        assert_eq!(parsed.status, row.status);
        assert_eq!(parsed.final_state, row.final_state);
        assert!(parsed.metrics[1].1.is_nan());
        assert_eq!(parsed.metrics[0], row.metrics[0]);
        assert_eq!(parsed.metrics[2], row.metrics[2]);
    }

    #[test]
    fn rows_to_summary_counts_by_status_and_zeroes_clocks() {
        let row = |index, status| CellRow {
            index,
            label: format!("r{index}"),
            status,
            detail: String::new(),
            metrics: vec![("ssa_events".to_owned(), 10.0)],
            final_state: Vec::new(),
        };
        let rows = vec![
            row(0, JobStatus::Ok),
            row(1, JobStatus::Cancelled),
            row(2, JobStatus::BudgetExceeded),
        ];
        let summary = rows_to_summary(&rows, 4);
        assert_eq!(summary.total, 3);
        assert_eq!(summary.succeeded, 1);
        assert_eq!(summary.cancelled, 1);
        assert_eq!(summary.budget_exceeded, 1);
        assert_eq!(summary.wall_secs, 0.0);
        assert_eq!(summary.jobs[1].wall_secs, 0.0);
        // metric columns come from the shared sorted-union helper
        assert_eq!(summary.metric_columns(), vec!["ssa_events"]);
    }

    #[test]
    fn stats_summary_is_one_ok_row_with_counter_metrics() {
        let counters = vec![
            ("cache_hits".to_owned(), 3.0),
            ("cache_misses".to_owned(), 1.0),
        ];
        let s = stats_summary(&counters);
        assert_eq!((s.total, s.succeeded), (1, 1));
        assert_eq!(s.jobs[0].label, "server-stats");
        assert_eq!(s.jobs[0].metrics, counters);
        assert_eq!(s.metric_columns(), vec!["cache_hits", "cache_misses"]);
    }
}
