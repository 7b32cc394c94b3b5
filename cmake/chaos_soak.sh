#!/usr/bin/env bash
# Chaos soak for the durable serving stack, driven through the real
# binaries (rdcn_sim / rdcn_serve / rdcn_serve_client):
#
#   round 1  SIGKILL the daemon mid-run — the write-ahead journal is the
#            only survivor.
#   round 2  restart on the same dirs: the orphaned run is recovered and
#            recomputed; ATTACH by its original id streams a result
#            bit-identical to a direct rdcn_sim run; a resubmission is
#            answered from the disk cache with the same bytes; SIGTERM
#            with a run in flight drains gracefully (run finishes, exit 0).
#   round 3  restart again with a randomly chosen (but per-choice
#            deterministic) fault spec armed: the client's retry loop
#            must still land an ok run with identical bytes, and SIGTERM
#            must still exit 0.
#   round 4  multi-tenant overload: two greedy clients hammer a
#            one-executor daemon under per-client quotas while a light
#            priority-2 tenant submits one small run — everyone's retry
#            loops must land ok runs (the light one without starving),
#            the per-client admission metrics must be exposed, and the
#            daemon must still drain to exit 0.
#
# Registered as the tier2 ctest rdcn_chaos_soak (release CI job only);
# the ctest TIMEOUT is the no-hang backstop.
#
# Usage: chaos_soak.sh <rdcn_sim> <rdcn_serve> <rdcn_serve_client> <workdir>
set -u

SIM=$1
SERVE=$2
CLIENT=$3
WORK=$4

# Long enough that SIGKILL lands with most of the run still ahead (the
# first of 16 checkpoints is ~6% in).  The whole run must outlast
# wait_for's 0.1 s poll plus scheduling delay: at 1.6M requests it took
# ~0.1 s, and the kill often landed after the last checkpoint.
SPEC='workload=zipf:skew=1.1;algorithms=bma;b=4;racks=16;requests=6400000;trials=1;checkpoints=16;seed=3'

rm -rf "$WORK"
mkdir -p "$WORK"
JOURNAL=$WORK/journal
CACHE=$WORK/cache

fail() {
  echo "chaos_soak: FAIL: $*" >&2
  # Keep the evidence: every daemon and client log of the run, tail first,
  # on stderr (ctest --output-on-failure prints it; $WORK is wiped on the
  # next run).
  for log in "$WORK"/*.log; do
    [ -f "$log" ] || continue
    echo "---- tail of $log ----" >&2
    tail -n 40 "$log" >&2
  done
  # Leave nothing behind to outlive the test.
  [ -n "${DAEMON_PID:-}" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  exit 1
}

# Polls for $2 to appear in file $1 (the daemon binding, a checkpoint
# reaching the client, ...) for up to ~20 s.
wait_for() {
  for _ in $(seq 1 200); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  fail "timed out waiting for '$2' in $1: $(cat "$1" 2>/dev/null)"
}

# ---- ground truth: direct in-process run ------------------------------
TRUTH=$WORK/truth.csv
"$SIM" --workload=zipf:skew=1.1 --algorithms=bma --b=4 --racks=16 \
  --requests=6400000 --trials=1 --checkpoints=16 --seed=3 \
  --csv="$TRUTH" >/dev/null || fail "direct rdcn_sim run failed"

# ---- round 1: SIGKILL mid-run -----------------------------------------
"$SERVE" --socket="$WORK/a.sock" --journal="$JOURNAL" --disk-cache="$CACHE" \
  --executors=1 --threads=1 >"$WORK/daemon_a.log" 2>&1 &
DAEMON_PID=$!
wait_for "$WORK/daemon_a.log" "listening"

"$CLIENT" --socket="$WORK/a.sock" --retries=2 "--spec=$SPEC" \
  >"$WORK/client_a.log" 2>&1 &
CLIENT_A=$!
# The run is provably mid-flight once a checkpoint reaches the client.
wait_for "$WORK/client_a.log" "CHECKPOINT"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null
wait "$CLIENT_A" 2>/dev/null  # dies with the daemon; outcome irrelevant
# Round 2 recovers an orphan only if the kill beat the last checkpoint.
grep -q "seq=16 " "$WORK/client_a.log" &&
  fail "SIGKILL landed after the run's last checkpoint (run too short)"
echo "chaos_soak: round 1 ok (daemon SIGKILLed mid-run)"

# ---- round 2: recovery, ATTACH, cached resubmit, graceful drain -------
"$SERVE" --socket="$WORK/b.sock" --journal="$JOURNAL" --disk-cache="$CACHE" \
  --executors=1 --threads=1 >"$WORK/daemon_b.log" 2>&1 &
DAEMON_PID=$!
wait_for "$WORK/daemon_b.log" "listening"

# The first admission of round 1 deterministically got id 1; the
# restarted daemon must still answer for it.
"$CLIENT" --socket="$WORK/b.sock" --attach=1 --csv="$WORK/attached.csv" \
  >"$WORK/attach.log" 2>&1 || fail "ATTACH client failed: $(cat "$WORK/attach.log")"
grep -q "attached: id=1" "$WORK/attach.log" ||
  fail "missing ATTACH acknowledgement: $(cat "$WORK/attach.log")"
grep -q "run: status=ok" "$WORK/attach.log" ||
  fail "recovered run did not finish ok: $(cat "$WORK/attach.log")"
cmp -s "$TRUTH" "$WORK/attached.csv" ||
  fail "recovered run's CSV differs from the direct run"

# The recovered result landed in the disk cache: a resubmission is a hit
# with the same bytes.
"$CLIENT" --socket="$WORK/b.sock" "--spec=$SPEC" --csv="$WORK/resub.csv" \
  --quiet >"$WORK/resub.log" 2>&1 || fail "resubmit failed: $(cat "$WORK/resub.log")"
grep -q "cached=1" "$WORK/resub.log" ||
  fail "resubmission was not served from cache: $(cat "$WORK/resub.log")"
cmp -s "$TRUTH" "$WORK/resub.csv" ||
  fail "cached resubmission's CSV differs from the direct run"

# Graceful drain: SIGTERM with a fresh (different-seed, so uncached) run
# in flight — the run must finish ok and the daemon must exit 0.
DRAIN_SPEC=${SPEC/seed=3/seed=4}
"$CLIENT" --socket="$WORK/b.sock" --retries=1 "--spec=$DRAIN_SPEC" \
  >"$WORK/drain.log" 2>&1 &
DRAIN_CLIENT=$!
wait_for "$WORK/drain.log" "CHECKPOINT"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
rc=$?
[ "$rc" -eq 0 ] || fail "SIGTERM drain exited $rc: $(cat "$WORK/daemon_b.log")"
wait "$DRAIN_CLIENT" || fail "drained run failed: $(cat "$WORK/drain.log")"
grep -q "run: status=ok" "$WORK/drain.log" ||
  fail "in-flight run was not drained to completion: $(cat "$WORK/drain.log")"
echo "chaos_soak: round 2 ok (recovered, attached, cached, drained)"

# ---- round 3: randomized (deterministic-per-choice) fault soak --------
FAULTS=(
  ""
  "serve.send.drop=after:1,times:2"
  "serve.send.short_write=after:2,times:2"
  "serve.disk_cache.write_fail=times:1"
)
RANDOM=$$
FAULT=${FAULTS[RANDOM % ${#FAULTS[@]}]}
echo "chaos_soak: round 3 fault spec: '${FAULT:-none}'"

"$SERVE" --socket="$WORK/c.sock" --journal="$JOURNAL" --disk-cache="$CACHE" \
  --executors=1 --threads=1 ${FAULT:+--faults="$FAULT"} \
  >"$WORK/daemon_c.log" 2>&1 &
DAEMON_PID=$!
wait_for "$WORK/daemon_c.log" "listening"

# The armed faults tear connections / drop cache writes; the client's
# retry-and-ATTACH loop must still land an ok run with identical bytes.
"$CLIENT" --socket="$WORK/c.sock" "--spec=$SPEC" --csv="$WORK/soak.csv" \
  --retries=8 --quiet >"$WORK/soak.log" 2>&1 ||
  fail "soak run failed under faults '$FAULT': $(cat "$WORK/soak.log")"
grep -q "run: status=ok" "$WORK/soak.log" ||
  fail "soak run did not finish ok: $(cat "$WORK/soak.log")"
cmp -s "$TRUTH" "$WORK/soak.csv" ||
  fail "soak run's CSV differs from the direct run (faults '$FAULT')"

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
rc=$?
[ "$rc" -eq 0 ] || fail "round 3 SIGTERM exited $rc: $(cat "$WORK/daemon_c.log")"
echo "chaos_soak: round 3 ok (faults '${FAULT:-none}')"

# ---- round 4: multi-tenant overload under quotas ----------------------
# Fresh dirs: cached results from earlier rounds would answer the greedy
# submissions instantly and there would be no contention to survive.
# quota-rps=1 guarantees each greedy client's second submission is
# REJECTed (reason=quota) at least once and must come back through the
# retry loop; the light tenant has its own untouched bucket and lane.
GSPEC='workload=zipf:skew=1.1;algorithms=bma;b=4;racks=16;requests=400000;trials=1;checkpoints=8'
LSPEC='workload=zipf:skew=1.1;algorithms=bma;b=2;racks=8;requests=4000;trials=1;checkpoints=2;seed=9'
"$SERVE" --socket="$WORK/d.sock" --executors=1 --threads=1 --queue=8 \
  --quota-rps=1 --quota-burst=1 --quota-concurrent=4 --max-rss-mb=8192 \
  --progress-timeout-ms=60000 >"$WORK/daemon_d.log" 2>&1 &
DAEMON_PID=$!
wait_for "$WORK/daemon_d.log" "listening"

"$CLIENT" --socket="$WORK/d.sock" --client=greedy1 --retries=10 \
  "--spec=${GSPEC};seed=5" "--spec2=${GSPEC};seed=6" --quiet \
  >"$WORK/greedy1.log" 2>&1 &
GREEDY1=$!
"$CLIENT" --socket="$WORK/d.sock" --client=greedy2 --retries=10 \
  "--spec=${GSPEC};seed=7" "--spec2=${GSPEC};seed=8" --quiet \
  >"$WORK/greedy2.log" 2>&1 &
GREEDY2=$!

# The light tenant arrives behind the greedy backlog and must still get
# served promptly: fair admission + priority 2 keep its lane alive.
"$CLIENT" --socket="$WORK/d.sock" --client=light --priority=2 --retries=10 \
  "--spec=$LSPEC" --metrics-out="$WORK/overload_metrics.txt" --quiet \
  >"$WORK/light.log" 2>&1 || fail "light tenant failed: $(cat "$WORK/light.log")"
grep -q "run: status=ok" "$WORK/light.log" ||
  fail "light tenant's run did not finish ok: $(cat "$WORK/light.log")"
grep -q 'client="light"' "$WORK/overload_metrics.txt" ||
  fail "per-client admission metrics missing the light tenant"

wait "$GREEDY1" || fail "greedy1 failed: $(cat "$WORK/greedy1.log")"
wait "$GREEDY2" || fail "greedy2 failed: $(cat "$WORK/greedy2.log")"
grep -q "run: status=ok" "$WORK/greedy1.log" ||
  fail "greedy1's runs did not finish ok: $(cat "$WORK/greedy1.log")"

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
rc=$?
[ "$rc" -eq 0 ] || fail "round 4 SIGTERM exited $rc: $(cat "$WORK/daemon_d.log")"
echo "chaos_soak: round 4 ok (two greedy tenants + one light, quotas honored)"

echo "chaos_soak: OK"
