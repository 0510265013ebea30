#!/usr/bin/env bash
# Local CI gate. Run from the repo root:
#
#   ./ci.sh
#
# Stages (all offline — the workspace vendors every dependency):
#   1. formatting     cargo fmt --all --check
#   2. lints          cargo clippy --workspace --all-targets, warnings are errors
#                     (so is any use of a #[deprecated] item)
#   3. tier-1 gate    cargo build --release && cargo test -q
#   4. workspace      cargo test -q --workspace (every crate, incl. vendor stubs)
#   5. benches        cargo bench --no-run (benches must keep compiling)
#   6. kernel smoke   one pass over the kinetics hot-path workloads
#   7. sweep smoke    repro --quick --jobs 2 --summary on a stochastic
#                     experiment: report must match --jobs 1 byte-for-byte
#                     and the persisted summaries must parse and carry the
#                     per-cell simulator-metrics columns
#   8. trend gate     trend over the two stage-7 summary directories must
#                     pass (deterministic counters identical across worker
#                     counts); the checked-in fixture pair with an injected
#                     step-count regression must fail; --append must fold a
#                     trajectory entry into a BENCH-style file
#   9. stiff clock    repro e13 --quick: the implicit tau-leaper must
#                     complete the stiff clocked motif while the explicit
#                     leaper exhausts its budget, at a step ratio >= 10,
#                     deterministically across worker counts
#  10. tolerance      trend --tolerance NAME=REL must gate with the
#                     override applied and reject malformed values
#  11. batch server   boot `serve` on an ephemeral port at --workers 1 and
#                     --workers 4; `repro --via-server` must produce
#                     byte-identical persisted summaries at both counts,
#                     report nonzero compiled-CRN cache hits, and pass the
#                     cancel and budget-exceeded probes; the server must
#                     exit cleanly on the wire shutdown op
#  12. batched ODE     repro e6 on its full 7-cell grid at --batch 2/4/8
#                     (lane groups 2+2+2 plus a one-lane singleton, 4+3
#                     — width 3 runs the dynamic-width kernels — and 7)
#                     must reproduce the one-lane run: reports
#                     byte-identical, summary labels, statuses and
#                     deterministic counters byte-identical, batch_width
#                     columns reading those groups, wall and batch-shape
#                     metrics tolerance-gated by trend; non-power-of-2
#                     --batch values are usage
#                     errors, and trend --history renders the perf
#                     trajectory with a passing drift gate — while
#                     unfillable --gate-last windows (K > history length,
#                     single-entry history) are usage errors (exit 2),
#                     never vacuous passes
#  13. hybrid gate     repro e14 --quick: the hybrid ODE/SSA integrator
#                     must reproduce the stiff clocked motif's observable
#                     with <= 1/5 of pure SSA's exact-event count (in
#                     practice orders of magnitude fewer), byte-identically
#                     across worker counts; stage 11 additionally
#                     byte-compares the hybrid via-server sweep across
#                     server worker counts
#  14. stoch widths    stochastic cells run scalar at every batch width:
#                     repro e10 at --batch 4 must reproduce the scalar
#                     sweep (report byte-identical, summary CSVs
#                     byte-identical once only the wall clock is
#                     stripped); over the wire, an omitted batch width
#                     must auto-select from the cell count and byte-match
#                     the explicitly pinned width, a tau-leap sweep's
#                     persisted summaries at --batch 4 must byte-match
#                     its --batch 1 run, and an unusable or over-cap
#                     --t-end must be a usage error
#  15. netlist gate    every example netlist must compile and run through
#                     `repro --netlist`; the seqdet netlist's persisted
#                     sweep summary must byte-match the hand-assembled
#                     `--netlist-builtin seqdet` run locally and over the
#                     wire at --workers 1 and --workers 4 (all four
#                     byte-identical); a malformed netlist must exit 2
#                     with its source position before anything is
#                     submitted
#  16. benchmark pkg   perfbench/ is a workspace of its own, so stages
#                     1-5 never build it: fmt, clippy -D warnings and its
#                     tests run against its manifest, and one short
#                     ssa_panels run and one short ode_sweep run (the
#                     one-lane ODE driver) must pass their output checks
#  17. ODE oracle      the ignored circuit oracle
#                     (tests/ode_circuit_oracle.rs), in release: the
#                     ode_sweep circuits at the cycle harness's
#                     tolerances must stay within 1e-4 of the amplitude
#                     of a 1e-9/1e-12 reference on every register and
#                     cycle, with no dense-LU fallback, and every run
#                     must locate each trigger firing at its crossing
#                     (located count = marks), and the harness runs
#                     together may reject at most 15 % of their trial
#                     steps; it prints each cell's deviation,
#                     located-firing counts and accepted and rejected
#                     harness steps
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: test =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== benches compile =="
cargo bench --workspace --no-run

echo "== kernel smoke =="
cargo bench -p molseq-bench --bench kinetics -- --test

echo "== sweep smoke: parallel determinism + per-cell metrics =="
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
target/release/repro e10 --quick --jobs 1 --summary "$SWEEP_TMP/j1" > "$SWEEP_TMP/report_j1.txt"
target/release/repro e10 --quick --jobs 2 --summary "$SWEEP_TMP/j2" > "$SWEEP_TMP/report_j2.txt"
# the "(generated in ...)" wall-clock line is the only permitted difference
diff <(grep -v "generated in" "$SWEEP_TMP/report_j1.txt") \
     <(grep -v "generated in" "$SWEEP_TMP/report_j2.txt") \
  || { echo "ci: repro e10 report differs between --jobs 1 and --jobs 2" >&2; exit 1; }
for summary in "$SWEEP_TMP"/j1/*.summary.json "$SWEEP_TMP"/j2/*.summary.json; do
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$summary" > /dev/null \
      || { echo "ci: summary is not valid JSON: $summary" >&2; exit 1; }
  else
    grep -q '"jobs"' "$summary" \
      || { echo "ci: summary missing jobs array: $summary" >&2; exit 1; }
  fi
done
for csv in "$SWEEP_TMP"/j1/*.summary.csv; do
  head -n 1 "$csv" | grep -q "ssa_events" \
    || { echo "ci: summary CSV missing simulator-metrics columns: $csv" >&2; exit 1; }
done

echo "== trend gate: counters stable across worker counts, fixtures gate =="
# the --jobs 1 and --jobs 2 runs of stage 7 are the same experiments on the
# same seeds, so every deterministic counter must match; per-cell wall
# clocks legitimately inflate under worker contention (2 workers on a
# 1-core container), so wall gating is disabled for this comparison
target/release/trend "$SWEEP_TMP/j1" "$SWEEP_TMP/j2" \
  --wall-tol 1000000 > "$SWEEP_TMP/trend.md" \
  || { echo "ci: trend gate failed between --jobs 1 and --jobs 2 summaries" >&2
       cat "$SWEEP_TMP/trend.md" >&2; exit 1; }
# the checked-in fixture pair carries an injected step-count regression and
# must make the gate fire with exit code 1 exactly
set +e
target/release/trend crates/bench/tests/fixtures/trend/baseline \
                     crates/bench/tests/fixtures/trend/regressed > "$SWEEP_TMP/trend_fixture.md"
TREND_STATUS=$?
set -e
[ "$TREND_STATUS" -eq 1 ] \
  || { echo "ci: fixture regression not caught (trend exited $TREND_STATUS, want 1)" >&2; exit 1; }
grep -q "ode_steps_accepted" "$SWEEP_TMP/trend_fixture.md" \
  || { echo "ci: trend report does not name the regressed counter" >&2; exit 1; }
# appending a trajectory entry must keep the BENCH file valid JSON (wall
# gating stays off here too — this step checks the append, not the gate)
cp BENCH_kinetics.json "$SWEEP_TMP/bench.json"
target/release/trend "$SWEEP_TMP/j1" "$SWEEP_TMP/j2" --wall-tol 1000000 \
  --append "$SWEEP_TMP/bench.json" --label ci-smoke > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$SWEEP_TMP/bench.json" > /dev/null \
    || { echo "ci: --append corrupted the BENCH file" >&2; exit 1; }
fi
grep -q '"label": "ci-smoke"' "$SWEEP_TMP/bench.json" \
  || { echo "ci: --append did not record the trajectory entry" >&2; exit 1; }

echo "== stiff-clock gate: implicit tau-leaping >= 10x cheaper than explicit =="
target/release/repro e13 --quick --jobs 1 --summary "$SWEEP_TMP/e13_j1" > "$SWEEP_TMP/report_e13_j1.txt"
target/release/repro e13 --quick --jobs 2 --summary "$SWEEP_TMP/e13_j2" > "$SWEEP_TMP/report_e13_j2.txt"
diff <(grep -v "generated in" "$SWEEP_TMP/report_e13_j1.txt") \
     <(grep -v "generated in" "$SWEEP_TMP/report_e13_j2.txt") \
  || { echo "ci: repro e13 report differs between --jobs 1 and --jobs 2" >&2; exit 1; }
grep -q "explicit runs exhausting the budget = 1.0000" "$SWEEP_TMP/report_e13_j1.txt" \
  || { echo "ci: explicit leaper did not exhaust its budget on the stiff clock" >&2; exit 1; }
grep -q "implicit runs completing within budget = 1.0000" "$SWEEP_TMP/report_e13_j1.txt" \
  || { echo "ci: implicit leaper did not complete the stiff clock within budget" >&2; exit 1; }
E13_RATIO="$(sed -n 's/.*explicit\/implicit step ratio = //p' "$SWEEP_TMP/report_e13_j1.txt")"
[ -n "$E13_RATIO" ] \
  || { echo "ci: repro e13 report is missing the step-ratio metric" >&2; exit 1; }
awk -v r="$E13_RATIO" 'BEGIN { exit (r >= 10.0) ? 0 : 1 }' \
  || { echo "ci: implicit leaper only ${E13_RATIO}x cheaper than explicit (want >= 10x)" >&2; exit 1; }
head -n 1 "$SWEEP_TMP"/e13_j1/e13.summary.csv | grep -q "tau_leaps_implicit" \
  || { echo "ci: e13 summary CSV missing the implicit-leap column" >&2; exit 1; }

echo "== trend --tolerance smoke =="
# the override must be accepted and the gate still pass on identical runs
target/release/trend "$SWEEP_TMP/e13_j1" "$SWEEP_TMP/e13_j2" --wall-tol 1000000 \
  --tolerance newton_iterations=0.2 > "$SWEEP_TMP/trend_tol.md" \
  || { echo "ci: trend --tolerance gate failed on identical e13 summaries" >&2
       cat "$SWEEP_TMP/trend_tol.md" >&2; exit 1; }
# malformed override values must be rejected as usage errors (exit 2)
set +e
target/release/trend "$SWEEP_TMP/e13_j1" "$SWEEP_TMP/e13_j2" --tolerance bogus > /dev/null 2>&1
TOL_STATUS=$?
set -e
[ "$TOL_STATUS" -eq 2 ] \
  || { echo "ci: malformed --tolerance not rejected (trend exited $TOL_STATUS, want 2)" >&2; exit 1; }

echo "== batch server: worker-count determinism, cache hits, cancel + budget =="
serve_roundtrip() { # <workers> <outdir>
  local workers="$1" outdir="$2" boot_log addr serve_pid
  boot_log="$SWEEP_TMP/serve_w${workers}.log"
  target/release/serve --workers "$workers" --budget-tenant strict=25 > "$boot_log" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    grep -q "listening on " "$boot_log" && break
    kill -0 "$serve_pid" 2>/dev/null \
      || { echo "ci: serve (--workers $workers) died before binding" >&2; exit 1; }
    sleep 0.1
  done
  addr="$(sed -n 's/^listening on //p' "$boot_log")"
  [ -n "$addr" ] || { echo "ci: serve did not announce its address" >&2
                      kill "$serve_pid" 2>/dev/null; exit 1; }
  target/release/repro --via-server "$addr" --server-budget-tenant strict \
    --summary "$outdir" > "$outdir.report.txt" \
    || { echo "ci: repro --via-server failed against --workers $workers" >&2
         kill "$serve_pid" 2>/dev/null; exit 1; }
  # same server, hybrid method: the multiscale engine over the wire
  target/release/repro --via-server "$addr" --method hybrid \
    --summary "${outdir}_hybrid" > "${outdir}_hybrid.report.txt" \
    || { echo "ci: repro --via-server --method hybrid failed against --workers $workers" >&2
         kill "$serve_pid" 2>/dev/null; exit 1; }
  # the wire shutdown op, via bash's built-in tcp redirection
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
  printf '{"op":"shutdown"}\n' >&3
  head -n 1 <&3 > /dev/null
  exec 3<&- 3>&-
  wait "$serve_pid" \
    || { echo "ci: serve (--workers $workers) exited nonzero after shutdown" >&2; exit 1; }
}
serve_roundtrip 1 "$SWEEP_TMP/srv_w1"
serve_roundtrip 4 "$SWEEP_TMP/srv_w4"
# the persisted sweep rows and server counters must not depend on the
# server's worker count — byte-for-byte
for artifact in via-server.summary.json via-server.summary.csv \
                server-stats.summary.json server-stats.summary.csv; do
  cmp "$SWEEP_TMP/srv_w1/$artifact" "$SWEEP_TMP/srv_w4/$artifact" \
    || { echo "ci: $artifact differs between --workers 1 and --workers 4" >&2; exit 1; }
  cmp "$SWEEP_TMP/srv_w1_hybrid/$artifact" "$SWEEP_TMP/srv_w4_hybrid/$artifact" \
    || { echo "ci: hybrid $artifact differs between --workers 1 and --workers 4" >&2; exit 1; }
done
grep -q "main sweep (hybrid) 9 cells Ok twice, byte-identical" "$SWEEP_TMP/srv_w1_hybrid.report.txt" \
  || { echo "ci: hybrid via-server sweep did not complete byte-identically" >&2; exit 1; }
head -n 1 "$SWEEP_TMP/srv_w1_hybrid/via-server.summary.csv" | grep -q "hybrid_fast_steps" \
  || { echo "ci: hybrid via-server summary missing the hybrid metric columns" >&2; exit 1; }
grep -q "cache 1 hit(s)" "$SWEEP_TMP/srv_w1.report.txt" \
  || { echo "ci: via-server run did not report a compiled-CRN cache hit" >&2; exit 1; }
grep -q "all Cancelled" "$SWEEP_TMP/srv_w1.report.txt" \
  || { echo "ci: via-server cancel probe did not drain as Cancelled" >&2; exit 1; }
grep -q "budget probe cut all" "$SWEEP_TMP/srv_w1.report.txt" \
  || { echo "ci: via-server budget probe did not cut the strict tenant" >&2; exit 1; }
grep -q '\["cache_hits",2' "$SWEEP_TMP/srv_w1/server-stats.summary.json" \
  || { echo "ci: server-stats summary does not carry the cache-hit counter" >&2; exit 1; }
# the stats artifact rides the standard summary pipeline: trend must accept
# it as a baseline/candidate pair across the two worker counts
target/release/trend "$SWEEP_TMP/srv_w1" "$SWEEP_TMP/srv_w4" > "$SWEEP_TMP/trend_serve.md" \
  || { echo "ci: trend gate failed across server worker counts" >&2
       cat "$SWEEP_TMP/trend_serve.md" >&2; exit 1; }

echo "== batched ODE: lock-step batch reproduces the one-lane sweep =="
# the full e6 grid (7 ratios; --quick sweeps only 2, a single width-2
# group at every --batch) so the widths reach 2, 3, 4 and 7
target/release/repro e6 --jobs 2 --summary "$SWEEP_TMP/e6_scalar" > "$SWEEP_TMP/report_e6_scalar.txt"
target/release/repro e6 --jobs 2 --batch 2 --summary "$SWEEP_TMP/e6_b2" > "$SWEEP_TMP/report_e6_b2.txt"
target/release/repro e6 --jobs 2 --batch 4 --summary "$SWEEP_TMP/e6_b4" > "$SWEEP_TMP/report_e6_b4.txt"
target/release/repro e6 --jobs 1 --batch 8 --summary "$SWEEP_TMP/e6_b8" > "$SWEEP_TMP/report_e6_b8.txt"
# the lane-group width each cell reports, in cell order (0 = scalar)
batch_widths() {
  awk -F, 'NR==1 { for (i=1;i<=NF;i++) if ($i=="batch_width") c = i; next } { printf "%s ", $c }' "$1"
}
for spec in "e6_b2:2 2 2 2 2 2 0 " "e6_b4:4 4 4 4 3 3 3 " "e6_b8:7 7 7 7 7 7 7 "; do
  got=$(batch_widths "$SWEEP_TMP/${spec%%:*}/e6.summary.csv")
  [ "$got" = "${spec#*:}" ] \
    || { echo "ci: ${spec%%:*} batch widths are '$got', want '${spec#*:}'" >&2; exit 1; }
done
for batched in e6_b2 e6_b4 e6_b8; do
  # the experiment report (moving-average traces, fitted slopes) must not
  # depend on the batch width at all
  diff <(grep -v "generated in" "$SWEEP_TMP/report_e6_scalar.txt") \
       <(grep -v "generated in" "$SWEEP_TMP/report_$batched.txt") \
    || { echo "ci: repro e6 report differs between scalar and $batched" >&2; exit 1; }
  # summary rows: every column except the wall clock and the batch-shape
  # metrics (batch_width, lanes_retired) must be byte-identical
  for csv in "$SWEEP_TMP/$batched"/*.summary.csv; do
    base_csv="$SWEEP_TMP/e6_scalar/$(basename "$csv")"
    strip_batch_columns() {
      awk -F, 'NR==1 { for (i=1;i<=NF;i++) drop[i] = ($i=="wall_secs" || $i=="batch_width" || $i=="lanes_retired") }
               { out=""; for (i=1;i<=NF;i++) if (!drop[i]) out = out (out=="" ? "" : ",") $i; print out }' "$1"
    }
    cmp <(strip_batch_columns "$base_csv") <(strip_batch_columns "$csv") \
      || { echo "ci: $csv deterministic columns differ from the scalar run" >&2; exit 1; }
  done
  # the wall clock and batch-shape metrics are gated, not byte-compared:
  # trend's symmetric per-metric bands absorb them, everything else exact
  target/release/trend "$SWEEP_TMP/e6_scalar" "$SWEEP_TMP/$batched" --wall-tol 1000000 \
    --tolerance batch_width=1000000000 --tolerance lanes_retired=1000000000 \
    > "$SWEEP_TMP/trend_$batched.md" \
    || { echo "ci: trend gate failed between scalar and $batched e6 summaries" >&2
         cat "$SWEEP_TMP/trend_$batched.md" >&2; exit 1; }
done
# --batch only takes power-of-2 lane counts; 0 and 3 are usage errors
for bad in 0 3; do
  set +e
  target/release/repro e6 --quick --batch "$bad" > /dev/null 2>&1
  BATCH_STATUS=$?
  set -e
  [ "$BATCH_STATUS" -eq 2 ] \
    || { echo "ci: repro --batch $bad not rejected (exited $BATCH_STATUS, want 2)" >&2; exit 1; }
done
# trend --history must render the checked-in perf trajectory and pass its
# drift gate (entries from other experiment sets are skipped, not compared)
target/release/trend --history BENCH_kinetics.json --gate-last 2 > "$SWEEP_TMP/history.md" \
  || { echo "ci: trend --history gate failed on BENCH_kinetics.json" >&2
       cat "$SWEEP_TMP/history.md" >&2; exit 1; }
grep -q "drift gate" "$SWEEP_TMP/history.md" \
  || { echo "ci: trend --history report is missing the drift gate" >&2; exit 1; }
# unfillable --gate-last windows are usage errors, never vacuous passes:
# a window wider than the history, and any window over a one-entry history
for gate_case in "BENCH_kinetics.json 99" \
                 "crates/bench/tests/fixtures/trend/history_single.json 1"; do
  read -r gate_file gate_k <<< "$gate_case"
  set +e
  target/release/trend --history "$gate_file" --gate-last "$gate_k" \
    > /dev/null 2> "$SWEEP_TMP/gate_err.txt"
  GATE_STATUS=$?
  set -e
  [ "$GATE_STATUS" -eq 2 ] \
    || { echo "ci: --gate-last $gate_k on $gate_file not rejected (exited $GATE_STATUS, want 2)" >&2; exit 1; }
  grep -q "gate-last" "$SWEEP_TMP/gate_err.txt" \
    || { echo "ci: --gate-last rejection for $gate_file lacks a clear message" >&2; exit 1; }
done

echo "== hybrid gate: hybrid ODE/SSA <= 1/5 of pure SSA's exact events =="
target/release/repro e14 --quick --jobs 1 --summary "$SWEEP_TMP/e14_j1" > "$SWEEP_TMP/report_e14_j1.txt"
target/release/repro e14 --quick --jobs 2 --summary "$SWEEP_TMP/e14_j2" > "$SWEEP_TMP/report_e14_j2.txt"
diff <(grep -v "generated in" "$SWEEP_TMP/report_e14_j1.txt") \
     <(grep -v "generated in" "$SWEEP_TMP/report_e14_j2.txt") \
  || { echo "ci: repro e14 report differs between --jobs 1 and --jobs 2" >&2; exit 1; }
E14_RATIO="$(sed -n 's/.*SSA\/hybrid event ratio = //p' "$SWEEP_TMP/report_e14_j1.txt")"
[ -n "$E14_RATIO" ] \
  || { echo "ci: repro e14 report is missing the event-ratio metric" >&2; exit 1; }
awk -v r="$E14_RATIO" 'BEGIN { exit (r >= 5.0) ? 0 : 1 }' \
  || { echo "ci: hybrid drew ${E14_RATIO}x fewer events than pure SSA (want >= 5x)" >&2; exit 1; }
E14_ERR="$(sed -n 's/.*worst clock-observable relative error = //p' "$SWEEP_TMP/report_e14_j1.txt")"
awk -v e="$E14_ERR" 'BEGIN { exit (e <= 0.35) ? 0 : 1 }' \
  || { echo "ci: hybrid/SSA clock observable off by ${E14_ERR} (want <= 0.35)" >&2; exit 1; }
head -n 1 "$SWEEP_TMP"/e14_j1/e14.summary.csv | grep -q "hybrid_slow_events" \
  || { echo "ci: e14 summary CSV missing the hybrid metric columns" >&2; exit 1; }

echo "== stochastic widths: SSA/tau cells run scalar at every batch width =="
# local: --batch only groups ODE sweeps, so the e10 replicate sweep under
# --batch 4 must reproduce the scalar stage-7 run — report byte-identical,
# summary rows byte-identical with only the wall clock stripped (the
# batch_width/lanes_retired columns read 0 at every width)
target/release/repro e10 --quick --jobs 2 --batch 4 --summary "$SWEEP_TMP/e10_b4" > "$SWEEP_TMP/report_e10_b4.txt"
diff <(grep -v "generated in" "$SWEEP_TMP/report_j1.txt") \
     <(grep -v "generated in" "$SWEEP_TMP/report_e10_b4.txt") \
  || { echo "ci: repro e10 report differs between scalar and --batch 4" >&2; exit 1; }
strip_wall_column() {
  awk -F, 'NR==1 { for (i=1;i<=NF;i++) drop[i] = ($i=="wall_secs") }
           { out=""; for (i=1;i<=NF;i++) if (!drop[i]) out = out (out=="" ? "" : ",") $i; print out }' "$1"
}
for csv in "$SWEEP_TMP/e10_b4"/*.summary.csv; do
  base_csv="$SWEEP_TMP/j1/$(basename "$csv")"
  cmp <(strip_wall_column "$base_csv") <(strip_wall_column "$csv") \
    || { echo "ci: $csv differs from the scalar e10 run beyond wall_secs" >&2; exit 1; }
done
# over the wire: boot one server for the width probes
BATCH_BOOT_LOG="$SWEEP_TMP/serve_batch.log"
target/release/serve --workers 2 > "$BATCH_BOOT_LOG" &
BATCH_SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on " "$BATCH_BOOT_LOG" && break
  kill -0 "$BATCH_SERVE_PID" 2>/dev/null \
    || { echo "ci: serve (batch probe) died before binding" >&2; exit 1; }
  sleep 0.1
done
BATCH_ADDR="$(sed -n 's/^listening on //p' "$BATCH_BOOT_LOG")"
[ -n "$BATCH_ADDR" ] || { echo "ci: serve (batch probe) did not announce its address" >&2
                          kill "$BATCH_SERVE_PID" 2>/dev/null; exit 1; }
# an omitted batch width auto-selects from the cell count (the 9-cell main
# sweep lands on the cap, 8), so it must byte-match pinning --batch 8 —
# batch_width columns included, no stripping
target/release/repro --via-server "$BATCH_ADDR" --summary "$SWEEP_TMP/srv_auto" > /dev/null \
  || { echo "ci: repro --via-server (auto width) failed" >&2
       kill "$BATCH_SERVE_PID" 2>/dev/null; exit 1; }
target/release/repro --via-server "$BATCH_ADDR" --batch 8 --summary "$SWEEP_TMP/srv_b8" > /dev/null \
  || { echo "ci: repro --via-server --batch 8 failed" >&2
       kill "$BATCH_SERVE_PID" 2>/dev/null; exit 1; }
for artifact in via-server.summary.json via-server.summary.csv; do
  cmp "$SWEEP_TMP/srv_auto/$artifact" "$SWEEP_TMP/srv_b8/$artifact" \
    || { echo "ci: $artifact differs between auto-selected and explicit batch widths" >&2; exit 1; }
done
# tau-leaping over the wire: a width-4 unit runs its cells one after
# another through the scalar leaper, so --batch 4 must byte-match the
# --batch 1 rows, batch-shape columns included
target/release/repro --via-server "$BATCH_ADDR" --method tau --batch 1 --summary "$SWEEP_TMP/srv_tau1" > /dev/null \
  || { echo "ci: repro --via-server --method tau --batch 1 failed" >&2
       kill "$BATCH_SERVE_PID" 2>/dev/null; exit 1; }
target/release/repro --via-server "$BATCH_ADDR" --method tau --batch 4 --summary "$SWEEP_TMP/srv_tau4" > /dev/null \
  || { echo "ci: repro --via-server --method tau --batch 4 failed" >&2
       kill "$BATCH_SERVE_PID" 2>/dev/null; exit 1; }
for artifact in via-server.summary.json via-server.summary.csv; do
  cmp "$SWEEP_TMP/srv_tau1/$artifact" "$SWEEP_TMP/srv_tau4/$artifact" \
    || { echo "ci: tau $artifact differs between --batch 1 and --batch 4" >&2; exit 1; }
done
exec 3<>"/dev/tcp/${BATCH_ADDR%:*}/${BATCH_ADDR##*:}"
printf '{"op":"shutdown"}\n' >&3
head -n 1 <&3 > /dev/null
exec 3<&- 3>&-
wait "$BATCH_SERVE_PID" \
  || { echo "ci: serve (batch probe) exited nonzero after shutdown" >&2; exit 1; }
# an unusable horizon, or one asking for more than 2^20 trace samples at
# the sweep's recording interval, is a usage error before anything
# touches the wire
for bad_t_end in -1 1e12; do
  set +e
  target/release/repro --via-server "$BATCH_ADDR" --t-end "$bad_t_end" > /dev/null 2>&1
  TEND_STATUS=$?
  set -e
  [ "$TEND_STATUS" -eq 2 ] \
    || { echo "ci: repro --t-end $bad_t_end not rejected (exited $TEND_STATUS, want 2)" >&2; exit 1; }
done

echo "== netlist front-end: textual circuits byte-match their hand-assembled twins =="
# every example netlist compiles and runs end to end (in-process server)
for nl in examples/netlists/*.nl; do
  target/release/repro --netlist "$nl" > /dev/null \
    || { echo "ci: repro --netlist $nl failed" >&2; exit 1; }
done
# locally: the seqdet netlist and its hand-assembled twin (shipped as the
# lowered CRN text) must persist byte-identical sweep summaries
target/release/repro --netlist examples/netlists/seqdet.nl --summary "$SWEEP_TMP/nl_file" > /dev/null
target/release/repro --netlist-builtin seqdet --summary "$SWEEP_TMP/nl_builtin" > /dev/null
for artifact in netlist.summary.json netlist.summary.csv; do
  cmp "$SWEEP_TMP/nl_file/$artifact" "$SWEEP_TMP/nl_builtin/$artifact" \
    || { echo "ci: $artifact differs between the netlist and its hand-assembled twin" >&2; exit 1; }
done
# over the wire: byte-identical at --workers 1 and --workers 4, and both
# identical to the local run
for workers in 1 4; do
  NL_BOOT_LOG="$SWEEP_TMP/serve_nl_w$workers.log"
  target/release/serve --workers "$workers" > "$NL_BOOT_LOG" &
  NL_SERVE_PID=$!
  for _ in $(seq 1 100); do
    grep -q "listening on " "$NL_BOOT_LOG" && break
    kill -0 "$NL_SERVE_PID" 2>/dev/null \
      || { echo "ci: serve (netlist probe, $workers workers) died before binding" >&2; exit 1; }
    sleep 0.1
  done
  NL_ADDR="$(sed -n 's/^listening on //p' "$NL_BOOT_LOG")"
  [ -n "$NL_ADDR" ] || { echo "ci: serve (netlist probe) did not announce its address" >&2
                         kill "$NL_SERVE_PID" 2>/dev/null; exit 1; }
  target/release/repro --netlist examples/netlists/seqdet.nl --via-server "$NL_ADDR" \
    --summary "$SWEEP_TMP/nl_w$workers" > /dev/null \
    || { echo "ci: repro --netlist --via-server ($workers workers) failed" >&2
         kill "$NL_SERVE_PID" 2>/dev/null; exit 1; }
  exec 3<>"/dev/tcp/${NL_ADDR%:*}/${NL_ADDR##*:}"
  printf '{"op":"shutdown"}\n' >&3
  head -n 1 <&3 > /dev/null
  exec 3<&- 3>&-
  wait "$NL_SERVE_PID" \
    || { echo "ci: serve (netlist probe, $workers workers) exited nonzero" >&2; exit 1; }
done
for artifact in netlist.summary.json netlist.summary.csv; do
  cmp "$SWEEP_TMP/nl_w1/$artifact" "$SWEEP_TMP/nl_w4/$artifact" \
    || { echo "ci: $artifact differs between 1 and 4 server workers" >&2; exit 1; }
  cmp "$SWEEP_TMP/nl_file/$artifact" "$SWEEP_TMP/nl_w1/$artifact" \
    || { echo "ci: $artifact differs between the local and via-server netlist runs" >&2; exit 1; }
done
# a malformed netlist is a usage error carrying its source position,
# rejected before anything is submitted
printf 'module m {\n  wire y = nope\n}\n' > "$SWEEP_TMP/bad.nl"
set +e
NL_BAD_MSG="$(target/release/repro --netlist "$SWEEP_TMP/bad.nl" 2>&1 > /dev/null)"
NL_BAD_STATUS=$?
set -e
[ "$NL_BAD_STATUS" -eq 2 ] \
  || { echo "ci: bad netlist not rejected (exited $NL_BAD_STATUS, want 2)" >&2; exit 1; }
echo "$NL_BAD_MSG" | grep -q "line 2" \
  || { echo "ci: bad-netlist error does not carry its source position: $NL_BAD_MSG" >&2; exit 1; }

echo "== benchmark package: fmt, clippy, tests, checked ssa_panels and ode_sweep runs =="
# a kinetics API change (a removed method, a renamed type) must break here,
# not in the next benchmark run
cargo fmt --manifest-path perfbench/Cargo.toml --check
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo test -q --offline --manifest-path perfbench/Cargo.toml
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
  --workload ssa_panels --seed 1 --seconds 1 --trace 0 > "$SWEEP_TMP/perfbench_ssa.txt" \
  || { echo "ci: perfbench ssa_panels failed its output checks" >&2
       tail -n 20 "$SWEEP_TMP/perfbench_ssa.txt" >&2; exit 1; }
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
  --workload ode_sweep --seed 1 --seconds 1 --trace 0 > "$SWEEP_TMP/perfbench_ode.txt" \
  || { echo "ci: perfbench ode_sweep failed its output checks" >&2
       tail -n 20 "$SWEEP_TMP/perfbench_ode.txt" >&2; exit 1; }

echo "== ODE oracle: the harness's tolerances within 1e-4 of the amplitude of a tight reference, <= 15 % of its trial steps rejected =="
# ignored by tier-1, whose unoptimized build would take minutes; in
# release it takes well under a minute
cargo test -q --release --test ode_circuit_oracle -- --ignored --nocapture

echo "ci: all stages passed"
