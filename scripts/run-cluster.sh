#!/usr/bin/env bash
# run-cluster.sh — build the cluster binaries and run a real multi-process
# sweep: one stpmaster coordinator, N stpserve server nodes, and N stpload
# client nodes, all separate OS processes wired together over the
# line-JSON control plane and peer-addressed UDP data plane.
#
# Usage:
#   scripts/run-cluster.sh [nodes-per-role] [report-path]
#
# Defaults: 2 nodes per role, report to bench-cluster.json (git-ignored;
# the committed BENCH_cluster.json is rewritten only when named). Extra
# sweep axes come from the environment:
#   SESSIONS=4,16  RATES=0,100  IMPAIRS=none,burst-drop  PROTO=alpha
#   DEADLINE=30s   TICK=1ms     SEED=1
#
# Exits non-zero if the sweep reports any prefix-safety violation, any
# process fails, or the report is not valid JSON.
set -euo pipefail

NODES="${1:-2}"
REPORT="${2:-bench-cluster.json}"
SESSIONS="${SESSIONS:-4,16}"
RATES="${RATES:-0,100}"
IMPAIRS="${IMPAIRS:-none,burst-drop}"
PROTO="${PROTO:-alpha}"
DEADLINE="${DEADLINE:-30s}"
TICK="${TICK:-1ms}"
SEED="${SEED:-1}"

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
LOGS="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$BIN"
}
trap cleanup EXIT

echo "run-cluster: building binaries"
go build -o "$BIN/stpmaster" ./cmd/stpmaster
go build -o "$BIN/stpserve" ./cmd/stpserve
go build -o "$BIN/stpload" ./cmd/stpload

# The master binds :0 and prints the concrete control address; parse it
# so parallel runs never fight over a fixed port.
"$BIN/stpmaster" sweep -listen 127.0.0.1:0 \
    -servers "$NODES" -clients "$NODES" \
    -proto "$PROTO" -sessions "$SESSIONS" -rates "$RATES" -impairs "$IMPAIRS" \
    -tick "$TICK" -deadline "$DEADLINE" -seed "$SEED" \
    -report "$REPORT" -v >"$LOGS/master.log" 2>&1 &
MASTER_PID=$!
pids+=("$MASTER_PID")

MASTER_ADDR=""
for _ in $(seq 1 100); do
    MASTER_ADDR="$(sed -n 's/^stpmaster: control plane on \([^ ,]*\).*/\1/p' "$LOGS/master.log" | head -1)"
    [ -n "$MASTER_ADDR" ] && break
    kill -0 "$MASTER_PID" 2>/dev/null || { cat "$LOGS/master.log"; echo "run-cluster: master died before binding"; exit 1; }
    sleep 0.1
done
[ -n "$MASTER_ADDR" ] || { cat "$LOGS/master.log"; echo "run-cluster: master never announced its address"; exit 1; }
echo "run-cluster: master on $MASTER_ADDR, starting $NODES server + $NODES client nodes"

for i in $(seq 1 "$NODES"); do
    "$BIN/stpserve" -master "$MASTER_ADDR" -node-name "srv-$i" -v >"$LOGS/srv-$i.log" 2>&1 &
    pids+=("$!")
    "$BIN/stpload" -master "$MASTER_ADDR" -node-name "cli-$i" -v >"$LOGS/cli-$i.log" 2>&1 &
    pids+=("$!")
done

code=0
wait "$MASTER_PID" || code=$?
for pid in "${pids[@]}"; do
    [ "$pid" = "$MASTER_PID" ] && continue
    wait "$pid" || { echo "run-cluster: node pid $pid failed"; code=1; }
done
pids=()
cat "$LOGS/master.log"
if [ "$code" -ne 0 ]; then
    echo "run-cluster: FAILED (exit $code); node logs in $LOGS"
    exit "$code"
fi

python3 - "$REPORT" "$NODES" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
nodes = int(sys.argv[2])
assert doc["servers"] == nodes and doc["clients"] == nodes, (doc["servers"], doc["clients"])
assert doc["cells"], "sweep produced no cells"
assert doc["total_violations"] == 0, f'{doc["total_violations"]} prefix-safety violations'
for cell in doc["cells"]:
    assert cell["frames_tx"] > 0 and cell["frames_rx"] > 0, cell["cell"]
    assert len(cell["nodes"]) == 2 * nodes, cell["cell"]
print(f'run-cluster: OK — {len(doc["cells"])} cells, '
      f'{doc["total_completed"]}/{doc["total_sessions"]} sessions complete, 0 violations')
EOF
rm -rf "$LOGS"
