#!/usr/bin/env bash
# End-to-end daemon smoke test: start unicleand on a generated HOSP sample,
# run a batch clean plus one streaming DELTA through uniclean_client, assert
# both journals are byte-identical to in-process uniclean_cli runs on the
# same inputs, read the daemon's STATS through `uniclean_client --stats`,
# then SIGTERM the daemon and assert a graceful drain (exit 0 with the
# shutdown summary). A --snapshot-dir daemon then demonstrates the
# crash path: its cold start persists a snapshot, kill -9 simulates a crash,
# and the restarted daemon warm-starts from the file with a byte-identical
# journal; restarted once more over rules whose md3 thresholds were edited
# (names kept), it refuses the snapshot and serves the edited rules'
# journal. A second daemon with a tiny --max-queue then
# takes concurrent clients: the excess are rejected kUnavailable with a
# retry-after hint and --max-retries backoff drives every one of them to a
# byte-identical journal. Last, two daemons each snapshot one ruleset (of
# two samples) into one shared --snapshot-dir, and a third daemon serving
# both rulesets warm-starts each from its file and serves both journals
# byte-identical to in-process runs. Driven by CTest and by the CI
# serve-smoke job.
#
# usage: serve_smoke_test.sh CLI SAMPLER DAEMON CLIENT WORK_DIR
set -u

CLI=$1
SAMPLER=$2
DAEMON=$3
CLIENT=$4
WORK=$5

fail() {
  echo "serve_smoke_test: FAIL: $*" >&2
  [ -n "${DAEMON_PID:-}" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  LOG="$WORK/${DAEMON_LOG:-daemon.log}"
  [ -f "$LOG" ] && sed 's/^/  daemon: /' "$LOG" >&2
  exit 1
}

# start_daemon LOG ARGS...: starts unicleand with ARGS on an ephemeral
# port, logging to LOG, and waits for its port file.
start_daemon() {
  DAEMON_LOG=$1
  shift
  rm -f port.txt
  "$DAEMON" "$@" --port 0 --port-file port.txt >"$DAEMON_LOG" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 300); do
    [ -f port.txt ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died at startup"
    sleep 0.2
  done
  fail "daemon never wrote the port file"
}

# drain_daemon: SIGTERM the daemon and require a graceful exit 0.
drain_daemon() {
  kill -TERM "$DAEMON_PID" || fail "SIGTERM"
  for _ in $(seq 1 300); do
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.2
  done
  if kill -0 "$DAEMON_PID" 2>/dev/null; then fail "daemon did not drain"; fi
  wait "$DAEMON_PID"
  STATUS=$?
  DAEMON_PID=
  [ "$STATUS" -eq 0 ] || fail "daemon exited $STATUS after SIGTERM"
}

rm -rf "$WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"
cd "$WORK" || fail "cannot cd $WORK"

"$SAMPLER" --out-dir . --tuples 1000 --master 60 >/dev/null \
  || fail "make_hosp_sample"
{ head -1 dirty.csv; tail -3 dirty.csv; } > edits.csv

# In-process references: the batch journal and the post-delta canonical one.
"$CLI" --data dirty.csv --master master.csv --rules rules.txt \
  --confidence confidence.csv --journal cli_batch.csv --out /dev/null \
  >/dev/null 2>&1 || fail "uniclean_cli batch run"
"$CLI" --data dirty.csv --master master.csv --rules rules.txt \
  --confidence confidence.csv --journal cli_delta.csv --out /dev/null \
  --delta edits.csv >/dev/null 2>&1 || fail "uniclean_cli delta run"

start_daemon daemon.log --master master.csv --rules rules.txt \
  --schema dirty.csv --workers 2

"$CLIENT" --port-file port.txt --ping >/dev/null || fail "ping"
"$CLIENT" --port-file port.txt --clean dirty.csv --confidence confidence.csv \
  --journal wire_batch.csv --delta edits.csv --delta-journal wire_delta.csv \
  >/dev/null || fail "client clean+delta"

cmp -s cli_batch.csv wire_batch.csv \
  || fail "batch journal differs from the in-process run"
cmp -s cli_delta.csv wire_delta.csv \
  || fail "delta canonical journal differs from the in-process run"

# STATS across processes: the client decodes the binary reply and renders
# the JSON document, which counts the one CLEAN above.
"$CLIENT" --port-file port.txt --stats > stats.json || fail "client --stats"
grep -q '"CLEAN": {"count": 1,' stats.json \
  || fail "--stats does not count the batch CLEAN"
grep -q '"rulesets": \[' stats.json || fail "--stats has no rulesets"

drain_daemon
grep -q "unicleand summary" daemon.log || fail "no shutdown summary logged"

# --- Snapshot scenario: cold start persists a snapshot, a kill -9 "crash"
# loses nothing, and the restarted daemon warm-starts from the file with a
# byte-identical journal.
mkdir -p snapshots
start_daemon snap_daemon1.log --master master.csv --rules rules.txt \
  --schema dirty.csv --workers 2 --snapshot-dir snapshots
[ -s snapshots/default.ucsnap ] || fail "cold start left no snapshot behind"
grep -q "engine ready in .*cold build" snap_daemon1.log \
  || fail "first snapshot-dir start was not a cold build"
"$CLIENT" --port-file port.txt --clean dirty.csv \
  --confidence confidence.csv --journal snap_batch1.csv >/dev/null \
  || fail "clean against the snapshot-writing daemon"
cmp -s cli_batch.csv snap_batch1.csv \
  || fail "snapshot-writing daemon journal differs from the in-process run"
kill -9 "$DAEMON_PID" 2>/dev/null  # simulated crash: no drain, no cleanup
wait "$DAEMON_PID" 2>/dev/null
DAEMON_PID=

start_daemon snap_daemon2.log --master master.csv --rules rules.txt \
  --schema dirty.csv --workers 2 --snapshot-dir snapshots
grep -q "engine ready in .*snapshot snapshots/default.ucsnap" snap_daemon2.log \
  || fail "restarted daemon did not warm-start from the snapshot"
"$CLIENT" --port-file port.txt --clean dirty.csv \
  --confidence confidence.csv --journal snap_batch2.csv >/dev/null \
  || fail "clean against the snapshot-warmed daemon"
cmp -s cli_batch.csv snap_batch2.csv \
  || fail "snapshot-warmed daemon journal differs from the in-process run"
drain_daemon

# --- Rules-edit restart: md3's thresholds change, every rule name kept.
# The snapshot's match lists were computed under the old predicates, so the
# restarted daemon must refuse it through the engine fingerprint, cold-build
# and serve exactly what uniclean_cli writes over the edited rules.
cp rules.txt rules_orig.txt
sed -e '/^MD md3:/s/~jw:[0-9.]*/~jw:0.60/' \
  -e '/^MD md3:/s/~edit:[0-9]*/~edit:12/' rules_orig.txt > rules.txt
cmp -s rules.txt rules_orig.txt && fail "the md3 edit changed nothing"
"$CLI" --data dirty.csv --master master.csv --rules rules.txt \
  --confidence confidence.csv --journal cli_edited.csv --out /dev/null \
  >/dev/null 2>&1 || fail "uniclean_cli run over the edited rules"
cmp -s cli_batch.csv cli_edited.csv \
  && fail "the md3 edit changed no repair of the sample"
start_daemon snap_daemon3.log --master master.csv --rules rules.txt \
  --schema dirty.csv --workers 2 --snapshot-dir snapshots
grep -q "snapshot snapshots/default.ucsnap rejected (FailedPrecondition" \
  snap_daemon3.log \
  || fail "the daemon did not refuse the snapshot of the pre-edit rules"
"$CLIENT" --port-file port.txt --clean dirty.csv \
  --confidence confidence.csv --journal snap_batch3.csv >/dev/null \
  || fail "clean against the rules-edit daemon"
cmp -s cli_edited.csv snap_batch3.csv \
  || fail "rules-edit daemon journal differs from the in-process run"
drain_daemon
mv rules_orig.txt rules.txt

# --- Overload scenario: tiny queue, concurrent clients, backoff to success.
start_daemon daemon.log --master master.csv --rules rules.txt \
  --schema dirty.csv --workers 1 --max-queue 1 \
  --request-timeout-ms 60000 --log-requests requests.log

N_CLIENTS=8
CLIENT_PIDS=
for i in $(seq 1 "$N_CLIENTS"); do
  "$CLIENT" --port-file port.txt --clean dirty.csv \
    --confidence confidence.csv --max-retries 25 \
    --journal "overload_$i.csv" >"client_$i.log" 2>&1 &
  CLIENT_PIDS="$CLIENT_PIDS $!"
done
for pid in $CLIENT_PIDS; do
  wait "$pid" || fail "an overloaded client did not retry to success"
done
for i in $(seq 1 "$N_CLIENTS"); do
  cmp -s cli_batch.csv "overload_$i.csv" \
    || fail "overloaded client $i journal differs from the in-process run"
done

drain_daemon
grep -q "overload:" daemon.log || fail "no overload line in the summary"
# 8 concurrent 1000-tuple cleans against one worker + one queue slot must
# have refused something; the request log records each refusal too.
grep -Eq "overload: [1-9][0-9]* rejected" daemon.log \
  || fail "expected at least one admission rejection under overload"
grep -q '"status": "Unavailable"' requests.log \
  || fail "request log has no Unavailable rejection line"
grep -q '"status": "OK"' requests.log \
  || fail "request log has no successful request line"

# --- Shared snapshot dir: daemon X snapshots ruleset a, daemon Y ruleset
# b (a second sample), each in its own process and so its own interning
# history. Daemon Z serves both and must warm-start each from its file.
"$SAMPLER" --out-dir b --tuples 200 --master 60 --seed 2 >/dev/null \
  || fail "make_hosp_sample --seed 2"
"$CLI" --data b/dirty.csv --master b/master.csv --rules b/rules.txt \
  --confidence b/confidence.csv --journal cli_b.csv --out /dev/null \
  >/dev/null 2>&1 || fail "uniclean_cli run over the second sample"
mkdir -p shared
start_daemon shared_x.log --name a --master master.csv --rules rules.txt \
  --schema dirty.csv --workers 2 --snapshot-dir shared
drain_daemon
[ -s shared/a.ucsnap ] || fail "daemon X left no shared/a.ucsnap"
start_daemon shared_y.log --name b --master b/master.csv \
  --rules b/rules.txt --schema b/dirty.csv --workers 2 --snapshot-dir shared
drain_daemon
[ -s shared/b.ucsnap ] || fail "daemon Y left no shared/b.ucsnap"
start_daemon shared_z.log --name a --master master.csv --rules rules.txt \
  --schema dirty.csv --ruleset b:b/master.csv:b/rules.txt:b/dirty.csv \
  --workers 2 --snapshot-dir shared
for name in a b; do
  grep -q "ruleset '$name' engine ready in .*(snapshot shared/$name.ucsnap)" \
    shared_z.log \
    || fail "daemon Z did not warm-start ruleset $name from shared/$name.ucsnap"
done
"$CLIENT" --port-file port.txt --ruleset a --clean dirty.csv \
  --confidence confidence.csv --journal shared_a.csv >/dev/null \
  || fail "clean of ruleset a against daemon Z"
"$CLIENT" --port-file port.txt --ruleset b --clean b/dirty.csv \
  --confidence b/confidence.csv --journal shared_b.csv >/dev/null \
  || fail "clean of ruleset b against daemon Z"
cmp -s cli_batch.csv shared_a.csv \
  || fail "daemon Z's ruleset a journal differs from the in-process run"
cmp -s cli_b.csv shared_b.csv \
  || fail "daemon Z's ruleset b journal differs from the in-process run"
drain_daemon

echo "serve_smoke_test: PASS (journals byte-identical, graceful drain," \
     "snapshot warm restart, stale snapshot refused after a rules edit," \
     "overload rejected + retried to success, shared snapshot dir)"
exit 0
