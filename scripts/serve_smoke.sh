#!/usr/bin/env bash
# End-to-end smoke of the always-on analysis daemon — the exact
# transcript TUTORIAL.md section 7 walks through, kept runnable so CI
# replays it verbatim (the serve-smoke job):
#
#   1. record a racy and a clean kernel trace offline,
#   2. analyze both offline and keep their verdict digests,
#   3. boot `rma_race serve` on an ephemeral port with the event
#      journal and the /metrics endpoint on,
#   4. run two client sessions (racy, clean) plus one that hangs up
#      mid-stream, scraping /metrics while the daemon is live,
#   5. assert the streamed digests byte-equal the offline ones, and
#   6. shut the daemon down cleanly and check the journal saw it all,
#   7. boot a second daemon and SIGTERM it the moment its port line
#      appears: it must still exit 0 and print its stats line.
#
# Usage: scripts/serve_smoke.sh [workdir]
#   DUNE="opam exec -- dune" scripts/serve_smoke.sh   # under opam (CI)

set -euo pipefail

DUNE=${DUNE:-dune}
WORK=${1:-$(mktemp -d)}
mkdir -p "$WORK"
echo "serve_smoke: working in $WORK"

RACY_KERNEL=rrb_lockall_remote_conflict_put_put_race
CLEAN_KERNEL=rrb_lockall_remote_disjoint_put_put_safe

# --- 1+2: offline reference ------------------------------------------------
$DUNE exec bin/rma_race_cli.exe -- record "$RACY_KERNEL" --out "$WORK/racy.rma"
$DUNE exec bin/rma_race_cli.exe -- record "$CLEAN_KERNEL" --out "$WORK/clean.rma"
$DUNE exec bin/rma_race_cli.exe -- analyze "$WORK/racy.rma" | tee "$WORK/racy.offline.txt"
$DUNE exec bin/rma_race_cli.exe -- analyze "$WORK/clean.rma" | tee "$WORK/clean.offline.txt"
RACY_DIGEST=$(sed -n 's/^digest: //p' "$WORK/racy.offline.txt")
CLEAN_DIGEST=$(sed -n 's/^digest: //p' "$WORK/clean.offline.txt")
test -n "$RACY_DIGEST" && test -n "$CLEAN_DIGEST"

# --- 3: boot the daemon -----------------------------------------------------
$DUNE exec bin/rma_race_cli.exe -- serve --port 0 --max-sessions 4 \
  --obs-events "$WORK/serve-events.jsonl" --obs-serve 0 \
  >"$WORK/serve-stdout.log" 2>"$WORK/serve-stderr.log" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

PORT=""
for _ in $(seq 1 150); do
  PORT=$(sed -n 's/^serve-port: //p' "$WORK/serve-stderr.log" | head -n 1)
  [ -n "$PORT" ] && break
  sleep 0.2
done
test -n "$PORT"
echo "serve_smoke: daemon on port $PORT"

# --- 4: two sessions + one churn client ------------------------------------
$DUNE exec examples/serve_client.exe -- --port "$PORT" \
  --trace "$WORK/racy.rma" --session racy-smoke | tee "$WORK/racy.session.txt"
$DUNE exec examples/serve_client.exe -- --port "$PORT" \
  --trace "$WORK/clean.rma" --session clean-smoke | tee "$WORK/clean.session.txt"
# A client that vanishes mid-stream must not disturb anything else.
$DUNE exec examples/serve_client.exe -- --port "$PORT" \
  --trace "$WORK/racy.rma" --session churn-smoke --abort-after 7

# Scrape the coexisting telemetry endpoint while the daemon is live: the
# per-session run ids must be labelled, not clobbered.
OBS_PORT=$(sed -n 's/^obs-serve-port: //p' "$WORK/serve-stderr.log" | head -n 1)
if [ -n "$OBS_PORT" ] && command -v curl >/dev/null 2>&1; then
  curl -fsS "http://127.0.0.1:$OBS_PORT/metrics" >"$WORK/metrics.txt"
  grep -q '^rma_session_info{' "$WORK/metrics.txt"
  grep -q 'session="racy-smoke"' "$WORK/metrics.txt"
  grep -q 'state="closed:completed"' "$WORK/metrics.txt"
  echo "serve_smoke: /metrics labels sessions by run_id"
fi

# --- 5: verdict assertions ---------------------------------------------------
grep -q '"type":"race"' "$WORK/racy.session.txt"
grep -q "\"digest\":\"$RACY_DIGEST\"" "$WORK/racy.session.txt"
grep -q "\"digest\":\"$CLEAN_DIGEST\"" "$WORK/clean.session.txt"
if grep -q '"type":"race"' "$WORK/clean.session.txt"; then
  echo "serve_smoke: FAIL — clean session streamed a race" >&2
  exit 1
fi
echo "serve_smoke: streamed digests byte-equal the offline analyze path"

# --- 6: clean shutdown -------------------------------------------------------
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
grep -q 'serve: .* accepted' "$WORK/serve-stdout.log"
grep -q '"event":"serve_start"' "$WORK/serve-events.jsonl"
grep -q '"event":"session_admitted"' "$WORK/serve-events.jsonl"
grep -q '"event":"session_summary"' "$WORK/serve-events.jsonl"
grep -q '"reason":"disconnected"' "$WORK/serve-events.jsonl"
grep -q '"event":"serve_stop"' "$WORK/serve-events.jsonl"

# --- 7: SIGTERM at start-up --------------------------------------------------
# The signal handlers are installed before the port line is printed, so a
# caller that stops the daemon as soon as it learns the port still gets a
# clean exit and the stats line.
$DUNE exec bin/rma_race_cli.exe -- serve --port 0 \
  >"$WORK/early-stdout.log" 2>"$WORK/early-stderr.log" &
EARLY_PID=$!
trap 'kill "$EARLY_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 3000); do
  grep -q '^serve-port: ' "$WORK/early-stderr.log" && break
  sleep 0.01
done
grep -q '^serve-port: ' "$WORK/early-stderr.log"
kill -TERM "$EARLY_PID"
EARLY_STATUS=0
wait "$EARLY_PID" || EARLY_STATUS=$?
trap - EXIT
if [ "$EARLY_STATUS" -ne 0 ]; then
  echo "serve_smoke: FAIL — daemon stopped at start-up exited $EARLY_STATUS" >&2
  exit 1
fi
grep -q '^serve: .* accepted' "$WORK/early-stdout.log"
echo "serve_smoke: SIGTERM at start-up exits 0 with the stats line"
echo "serve_smoke: OK"
