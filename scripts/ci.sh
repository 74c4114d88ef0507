#!/usr/bin/env bash
# Repository CI gate: build, test, lint, and a smoke run that proves the
# observability pipeline produces a valid machine-readable artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The replay-recovery property suite is the correctness gate for the
# message-logging subsystem; run it explicitly so a filtered workspace
# test run can never silently skip it.
echo "==> cargo test -p relog -q (replay proptests)"
cargo test -p relog -q

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

mck="$PWD/target/release/mck"

echo "==> smoke: mck run --metrics"
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
"$mck" run --protocol qbc --horizon 1000 --t-switch 200 \
    --metrics "$out_dir/run.json" --trace "$out_dir/trace.jsonl" >/dev/null
# The artifact must parse and validate (mck inspect does both).
"$mck" inspect "$out_dir/run.json" | grep -q "mck.run/v1"
# The trace stream must be non-empty JSONL.
[ -s "$out_dir/trace.jsonl" ]

echo "==> smoke: determinism across --jobs"
"$mck" run --protocol qbc --horizon 1000 --t-switch 200 \
    --jobs 1 > "$out_dir/seq.txt"
"$mck" run --protocol qbc --horizon 1000 --t-switch 200 \
    --jobs 4 > "$out_dir/par.txt"
diff -q "$out_dir/seq.txt" "$out_dir/par.txt"

# Coordinated baselines through the CLI: the class comparison runs
# Chandy-Lamport, Prakash-Singhal and Koo-Toueg next to the CIC protocols.
# Its rows are a pure function of the seed (byte-identical across --jobs),
# and only Koo-Toueg, the one blocking protocol, may suppress sends.
echo "==> smoke: coordinated baselines (mck classes, --jobs 1 vs 4)"
"$mck" classes --reps 1 --jobs 1 > "$out_dir/classes1.txt"
"$mck" classes --reps 1 --jobs 4 > "$out_dir/classes4.txt"
diff -q "$out_dir/classes1.txt" "$out_dir/classes4.txt"
for proto in CL PS KT; do
    grep -q "^ *$proto " "$out_dir/classes1.txt"
done
# Table rows start on line 4; the last column counts blocked sends.
blocking="$(awk 'NR > 3 && $1 != "KT" && $NF != 0 { print $1 }' "$out_dir/classes1.txt")"
if [ -n "$blocking" ]; then
    echo "protocols other than KT blocked sends: $blocking" >&2
    exit 1
fi

# Intra-run parallel backend parity: --par-workers (the conservative
# cell-partitioned backend, crates/pardes) must produce a byte-identical
# mck.run/v1 artifact to the serial run; the deterministic
# view diff pins every config, outcome, and metrics byte.
echo "==> smoke: serial vs parallel backend byte parity"
mkdir -p "$out_dir/pd_ser" "$out_dir/pd_par"
"$mck" run --protocol qbc --horizon 1000 --t-switch 200 \
    --metrics "$out_dir/pd_ser/run.json" >/dev/null
"$mck" run --protocol qbc --horizon 1000 --t-switch 200 \
    --par-workers 4 \
    --metrics "$out_dir/pd_par/run.json" >/dev/null
"$mck" inspect --deterministic "$out_dir/pd_ser/run.json" > "$out_dir/pd_ser/det.json"
"$mck" inspect --deterministic "$out_dir/pd_par/run.json" > "$out_dir/pd_par/det.json"
diff -q "$out_dir/pd_ser/det.json" "$out_dir/pd_par/det.json"

# Observation-only overlays: --profile/--progress (and --metrics) must not
# change one byte of stdout or of the mck.run/v1 artifact. Run artifacts
# carry no wall-clock members (timing goes to stderr and to mck.profile/v1),
# so the comparison is a plain byte diff — no field stripping.
echo "==> smoke: profile/progress overlay parity"
mkdir -p "$out_dir/ov_plain" "$out_dir/ov_prof"
(cd "$out_dir/ov_plain" && "$mck" run --protocol qbc --horizon 1000 \
    --t-switch 200 --metrics run.json > stdout.txt)
(cd "$out_dir/ov_prof" && "$mck" run --protocol qbc --horizon 1000 \
    --t-switch 200 --metrics run.json --profile --progress \
    > stdout.txt 2>/dev/null)
diff -q "$out_dir/ov_plain/run.json" "$out_dir/ov_prof/run.json"
diff -q "$out_dir/ov_plain/stdout.txt" "$out_dir/ov_prof/stdout.txt"

# mck profile: the span-attribution artifact validates, its folded-stack
# and Prometheus renditions are non-empty, and its deterministic view
# (everything outside `timing` members) is byte-stable across runs.
echo "==> smoke: mck profile determinism (inspect --deterministic)"
mkdir -p "$out_dir/prof1" "$out_dir/prof2"
"$mck" profile --protocol qbc --horizon 1000 --t-switch 200 \
    --out "$out_dir/prof1/PROFILE.json" --folded "$out_dir/prof1/out.folded" \
    --prom "$out_dir/prof1/out.prom" >/dev/null 2>&1
"$mck" profile --protocol qbc --horizon 1000 --t-switch 200 \
    --out "$out_dir/prof2/PROFILE.json" >/dev/null 2>&1
"$mck" inspect "$out_dir/prof1/PROFILE.json" | grep -q "mck.profile/v1"
[ -s "$out_dir/prof1/out.folded" ]
grep -q "# TYPE" "$out_dir/prof1/out.prom"
"$mck" inspect --deterministic "$out_dir/prof1/PROFILE.json" > "$out_dir/prof1/det.json"
"$mck" inspect --deterministic "$out_dir/prof2/PROFILE.json" > "$out_dir/prof2/det.json"
diff -q "$out_dir/prof1/det.json" "$out_dir/prof2/det.json"

# Pessimistic logging must be deterministic: two runs of the same seed
# emit byte-identical mck.rollback_logging/v1 artifacts, and logging must
# not perturb the trajectory (the report rows match the logging-off run).
echo "==> smoke: logging determinism (--logging pessimistic)"
mkdir -p "$out_dir/log1" "$out_dir/log2"
"$mck" rollback --reps 1 --seed 7 --logging pessimistic \
    --out-dir "$out_dir/log1" >/dev/null
"$mck" rollback --reps 1 --seed 7 --logging pessimistic \
    --out-dir "$out_dir/log2" >/dev/null
diff -q "$out_dir/log1/ROLLBACK_LOGGING.json" "$out_dir/log2/ROLLBACK_LOGGING.json"
"$mck" inspect "$out_dir/log1/ROLLBACK_LOGGING.json" \
    | grep -q "mck.rollback_logging/v1"

# Scenario smoke: bundled scenario files must load, run deterministically
# (two runs of the same seed produce byte-identical artifacts and traces),
# and inspect as mck.scenario/v1 documents.
echo "==> smoke: scenario determinism (scenarios/markov_grid.json)"
"$mck" inspect scenarios/markov_grid.json | grep -q "mck.scenario/v1"
mkdir -p "$out_dir/sc1" "$out_dir/sc2"
"$mck" run --scenario scenarios/markov_grid.json \
    --horizon 1000 --t-switch 200 \
    --metrics "$out_dir/sc1/run.json" --trace "$out_dir/sc1/trace.jsonl" >/dev/null
"$mck" run --scenario scenarios/markov_grid.json \
    --horizon 1000 --t-switch 200 \
    --metrics "$out_dir/sc2/run.json" --trace "$out_dir/sc2/trace.jsonl" >/dev/null
diff -q "$out_dir/sc1/run.json" "$out_dir/sc2/run.json"
diff -q "$out_dir/sc1/trace.jsonl" "$out_dir/sc2/trace.jsonl"

# Figures parity: the paper scenario spells the default environment out
# explicitly, so applying it must not change a single byte of any output —
# neither a raw run nor the seed figure numbers. The runs execute inside
# their own directories with identical relative --metrics paths so stdout
# (which echoes the path) is byte-comparable with a plain diff.
echo "==> smoke: paper-scenario parity (run + fig 1)"
mkdir -p "$out_dir/pp_plain" "$out_dir/pp_paper"
(cd "$out_dir/pp_plain" && "$mck" run --protocol qbc --horizon 1000 \
    --t-switch 200 --metrics run.json > stdout.txt)
(cd "$out_dir/pp_paper" && "$mck" run --protocol qbc --horizon 1000 \
    --t-switch 200 --scenario "$OLDPWD/scenarios/paper.json" \
    --metrics run.json > stdout.txt)
diff -q "$out_dir/pp_plain/stdout.txt" "$out_dir/pp_paper/stdout.txt"
diff -q "$out_dir/pp_plain/run.json" "$out_dir/pp_paper/run.json"
mkdir -p "$out_dir/fig_plain" "$out_dir/fig_paper"
"$mck" fig 1 --reps 1 --out-dir "$out_dir/fig_plain" >/dev/null
"$mck" fig 1 --reps 1 --scenario scenarios/paper.json \
    --out-dir "$out_dir/fig_paper" >/dev/null
diff -q "$out_dir/fig_plain/FIG1.json" "$out_dir/fig_paper/FIG1.json"

# The non-paper bundled scenarios run a full T_switch sweep per protocol
# end-to-end and emit valid mck.sweep/v1 artifacts.
echo "==> smoke: scenario sweeps (markov_grid + hotspot, mck sweep --scenario)"
for sc in markov_grid hotspot; do
    for proto in TP BCS QBC; do
        "$mck" sweep --scenario "scenarios/$sc.json" --protocol "$proto" \
            --reps 1 --out-dir "$out_dir/sweep_$sc" >/dev/null
        "$mck" inspect "$out_dir/sweep_$sc/SWEEP_$proto.json" | grep -q "mck.sweep/v1"
    done
done

# Log-size figures (ROADMAP item): the sweep emits a valid
# mck.log_size/v1 artifact.
echo "==> smoke: mck log-size"
"$mck" log-size --reps 1 --out-dir "$out_dir" >/dev/null
"$mck" inspect "$out_dir/BENCH_log_size.json" | grep -q "mck.log_size/v1"

# Scale telemetry: a mini population sweep emits a valid
# mck.bench_scale/v1 artifact whose deterministic view is seed-stable.
echo "==> smoke: mck scale mini-sweep"
mkdir -p "$out_dir/scale1" "$out_dir/scale2"
"$mck" scale --n-list 10,20 --horizon 300 \
    --out-dir "$out_dir/scale1" >/dev/null 2>&1
"$mck" scale --n-list 10,20 --horizon 300 \
    --out-dir "$out_dir/scale2" >/dev/null 2>&1
"$mck" inspect "$out_dir/scale1/BENCH_scale.json" | grep -q "mck.bench_scale/v1"
"$mck" inspect --deterministic "$out_dir/scale1/BENCH_scale.json" \
    > "$out_dir/scale1/det.json"
"$mck" inspect --deterministic "$out_dir/scale2/BENCH_scale.json" \
    > "$out_dir/scale2/det.json"
diff -q "$out_dir/scale1/det.json" "$out_dir/scale2/det.json"

# Scale regression gate: event throughput at N=1000 must stay within 5x
# of N=10. A reintroduced O(total-hosts) scan on a hot path (broadcast,
# delivery, coordinator collection) blows far past that budget; genuine
# cache effects do not.
echo "==> smoke: mck scale --check-regression (10 vs 1000 hosts)"
mkdir -p "$out_dir/scale_reg"
"$mck" scale --n-list 10,1000 --horizon 300 --check-regression \
    --out-dir "$out_dir/scale_reg" >/dev/null

# Metrics overhead gate: a 10^4-host run registers four names per host at
# run end, which must cost next to nothing next to the run itself (the
# registry indexes its names; a linear name scan made this 2.7x). Best of
# 3 interleaved runs with and without --metrics; on/off must stay <= 1.25.
echo "==> smoke: metrics overhead at N=10^4 (on/off <= 1.25)"
big_run=("$mck" run --mh 10000 --mss 312 --horizon 100)
best_off=0
best_on=0
for _ in 1 2 3; do
    t0=${EPOCHREALTIME/[.,]/}
    "${big_run[@]}" >/dev/null
    t1=${EPOCHREALTIME/[.,]/}
    "${big_run[@]}" --metrics "$out_dir/big_run.json" >/dev/null
    t2=${EPOCHREALTIME/[.,]/}
    if [ "$best_off" -eq 0 ] || [ $((t1 - t0)) -lt "$best_off" ]; then best_off=$((t1 - t0)); fi
    if [ "$best_on" -eq 0 ] || [ $((t2 - t1)) -lt "$best_on" ]; then best_on=$((t2 - t1)); fi
done
# The gate must time the world it names, not the 10-host default.
grep -q '"n_mhs": 10000' "$out_dir/big_run.json"
echo "metrics off $((best_off / 1000)) ms, on $((best_on / 1000)) ms"
if [ $((best_on * 100)) -gt $((best_off * 125)) ]; then
    echo "metrics overhead above 1.25x at N=10^4" >&2
    exit 1
fi

# Failure injection must be a pure function of the seed: two runs of the
# same seed produce byte-identical reports, crash times and all. The
# flaky_commuters scenario exercises the Markov mobility + failure path.
echo "==> smoke: failure-injection determinism (mck crash + scenario)"
"$mck" run --protocol tp --horizon 2000 --t-switch 200 \
    --logging optimistic --flush-latency 5 --fail-mtbf 300 > "$out_dir/crash1.txt"
"$mck" run --protocol tp --horizon 2000 --t-switch 200 \
    --logging optimistic --flush-latency 5 --fail-mtbf 300 > "$out_dir/crash2.txt"
diff -q "$out_dir/crash1.txt" "$out_dir/crash2.txt"
grep -q "crashes" "$out_dir/crash1.txt"
"$mck" inspect scenarios/flaky_commuters.json | grep -q "mck.scenario/v1"
"$mck" run --scenario scenarios/flaky_commuters.json \
    --horizon 2000 > "$out_dir/flaky1.txt"
"$mck" run --scenario scenarios/flaky_commuters.json \
    --horizon 2000 > "$out_dir/flaky2.txt"
diff -q "$out_dir/flaky1.txt" "$out_dir/flaky2.txt"
mkdir -p "$out_dir/crash_art"
"$mck" crash --reps 1 --t-switch-list 500 \
    --out-dir "$out_dir/crash_art" >/dev/null
"$mck" inspect "$out_dir/crash_art/RECOVERY.json" | grep -q "mck.recovery/v1"

# Optimistic logging with a zero flush window degenerates exactly to
# pessimistic logging: identical crashes, undone work, and stable-write
# totals. Only the peak-occupancy gauge may differ — batched flushes
# change *when* bytes land on stable storage, not how many.
echo "==> smoke: optimistic/pessimistic parity at zero flush latency"
"$mck" run --protocol qbc --horizon 2000 --t-switch 200 \
    --logging pessimistic --fail-mtbf 400 > "$out_dir/parity_pess.txt"
"$mck" run --protocol qbc --horizon 2000 --t-switch 200 \
    --logging optimistic --flush-latency 0 --fail-mtbf 400 > "$out_dir/parity_opt.txt"
diff <(grep -v "peak" "$out_dir/parity_pess.txt") \
     <(grep -v "peak" "$out_dir/parity_opt.txt")

# Serve smoke: boot `mck serve` on an ephemeral port, issue the same run
# twice over raw HTTP (bash /dev/tcp; no external client needed), and
# verify the second response is a cache hit with byte-identical artifact
# payload. --max-requests bounds the accept loop so the server drains and
# exits by itself after the third request.
echo "==> smoke: mck serve end-to-end cache hit"
mkdir -p "$out_dir/serve_cache"
"$mck" serve --port 0 --cache-dir "$out_dir/serve_cache" --max-requests 3 \
    > "$out_dir/serve.txt" &
serve_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$out_dir/serve.txt" 2>/dev/null && break
    sleep 0.1
done
port="$(sed -n 's|.*http://127.0.0.1:||p' "$out_dir/serve.txt" | head -1)"
serve_req() { # method path body -> raw response on stdout
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf '%s %s HTTP/1.1\r\nhost: ci\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
        "$1" "$2" "${#3}" "$3" >&3
    cat <&3
    exec 3>&-
}
serve_body='{"protocol":"QBC","horizon":1000,"t_switch":200}'
serve_req POST /run "$serve_body" > "$out_dir/serve_cold.http"
serve_req POST /run "$serve_body" > "$out_dir/serve_warm.http"
serve_req GET /metrics "" > "$out_dir/serve_metrics.http"
wait "$serve_pid"
grep -q "x-mck-cache: miss" "$out_dir/serve_cold.http"
grep -q "x-mck-cache: hit" "$out_dir/serve_warm.http"
# The artifact payload after the header block must be byte-identical.
sed '1,/^\r$/d' "$out_dir/serve_cold.http" > "$out_dir/serve_cold.json"
sed '1,/^\r$/d' "$out_dir/serve_warm.http" > "$out_dir/serve_warm.json"
diff -q "$out_dir/serve_cold.json" "$out_dir/serve_warm.json"
grep -q "serve_sim_events" "$out_dir/serve_metrics.http"
grep -q "1 hits, 1 misses" "$out_dir/serve.txt"
# The cache directory inspects as a mck.cache_index/v1 table, and the
# CLI's cached run path shares the server's entry (same canonical key).
"$mck" inspect "$out_dir/serve_cache" | grep -q "mck.cache_index/v1"
"$mck" run --protocol qbc --horizon 1000 --t-switch 200 \
    --cache-dir "$out_dir/serve_cache" >/dev/null 2> "$out_dir/serve_cli.err"
grep -q "cache hit" "$out_dir/serve_cli.err"

# Cold-vs-warm latency gate: serve-bench asserts warm responses are
# byte-identical and execute zero simulation events, and the speedup
# floor proves a hit never recomputes. The committed BENCH_serve.json
# records ~185x on an idle host; 25x here leaves margin for loaded CI
# machines while still being unreachable by any recomputing path.
echo "==> smoke: mck serve-bench (cold vs warm latency)"
"$mck" serve-bench --warm 5 --min-speedup 25 \
    --out-dir "$out_dir" >/dev/null 2>&1
"$mck" inspect "$out_dir/BENCH_serve.json" | grep -q "mck.serve_bench/v1"

# Model checking: every schedule of the 2 MH x 2 MSS world (horizon 3)
# must satisfy the safety invariants for each CIC protocol — exhaustively,
# within a fixed state budget, not one seed's ordering. Exit status is the
# verdict (a violation or a blown budget is non-zero). Then the mutation
# gate: a planted forced-checkpoint bug must be caught, its minimal
# counterexample written as a mck.mc/v1 artifact, and the recorded
# schedule must replay to exactly the recorded violation.
echo "==> smoke: mck check exhaustive (BCS/QBC/TP, 2x2, horizon 3)"
for proto in BCS QBC TP; do
    "$mck" check --protocol "$proto" --mh 2 --mss 2 --horizon 3 \
        --max-states 100000 > "$out_dir/mc_$proto.txt"
    grep -q "complete: true" "$out_dir/mc_$proto.txt"
    grep -q "no violation" "$out_dir/mc_$proto.txt"
done
echo "==> smoke: mck check --mutate finds and replays a counterexample"
"$mck" check --protocol BCS --mutate --out "$out_dir/MC_mutated.json" \
    > "$out_dir/mc_mutated.txt"
grep -q "VIOLATION" "$out_dir/mc_mutated.txt"
"$mck" inspect "$out_dir/MC_mutated.json" | grep -q "mck.mc/v1"
"$mck" check --replay "$out_dir/MC_mutated.json" | grep -q "reproduced:"

# Model-checker throughput bench: the full protocol x world-size grid
# must check clean and complete; the artifact records states/sec.
echo "==> smoke: mck mc-bench"
"$mck" mc-bench --out-dir "$out_dir" >/dev/null 2>&1
"$mck" inspect "$out_dir/BENCH_mc.json" | grep -q "mck.bench_mc/v1"

# Non-gating bench smoke: time the figure grid through the parallel sweep
# executor and emit the mck.bench_sweep/v1 artifact. Wall-clock numbers
# are host-dependent, so a failure here warns instead of failing CI.
echo "==> smoke: mck sweep-bench (non-gating)"
if "$mck" sweep-bench --reps 1 \
        --out-dir "$out_dir" >/dev/null 2>&1 \
    && "$mck" inspect "$out_dir/BENCH_sweep.json" \
        | grep -q "mck.bench_sweep/v1"; then
    "$mck" inspect "$out_dir/BENCH_sweep.json"
else
    echo "warning: sweep-bench smoke failed (non-gating)"
fi

# Parallel speedup gate: par-bench first asserts serial and parallel
# artifacts are byte-identical at every N (aborting otherwise), then
# enforces the 2x events/sec floor at N=10^4 with 4 workers. On hosts
# without the cores to make 2x physically achievable the gate reports
# and skips instead of failing; the byte-identity assertion always runs.
echo "==> smoke: mck par-bench --check-regression (N=10^4, 4 workers)"
mkdir -p "$out_dir/par_bench"
"$mck" par-bench --n-list 1000,10000 --par-workers 4 --check-regression \
    --out-dir "$out_dir/par_bench" >/dev/null
"$mck" inspect "$out_dir/par_bench/BENCH_par.json" | grep -q "mck.bench_par/v1"

echo "ci: all green"
