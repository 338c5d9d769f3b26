#!/usr/bin/env sh
# serve_demo.sh — end-to-end smoke of the jupiterd network runtime.
#
# Starts jupiterd on ephemeral ports with the frontier GC on (-gc-every 4),
# runs two jupiterctl clients typing concurrently into the same document (one
# drops its connection mid-stream to exercise resume), waits for both to reach
# the same global sequence barrier, and asserts they print the identical
# document; then a third client joins the collected document late and must
# print it too. Also checks the metrics endpoint reports every op applied.
# Exits non-zero on divergence or any failure.
#
# Usage: scripts/serve_demo.sh   (or: make serve-demo)
set -eu

TMP="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
	if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
		kill -TERM "$DAEMON_PID" 2>/dev/null || true
		wait "$DAEMON_PID" 2>/dev/null || true
	fi
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "serve-demo: building jupiterd and jupiterctl"
go build -o "$TMP/jupiterd" ./cmd/jupiterd
go build -o "$TMP/jupiterctl" ./cmd/jupiterctl

"$TMP/jupiterd" -addr 127.0.0.1:0 -metrics 127.0.0.1:0 -gc-every 4 -v 2>"$TMP/jupiterd.log" &
DAEMON_PID=$!

# The daemon logs its bound addresses; wait for them to appear.
ADDR=""
for _ in $(seq 1 100); do
	ADDR="$(sed -n 's/.*serving on \([0-9.]*:[0-9]*\).*/\1/p' "$TMP/jupiterd.log" | head -n1)"
	[ -n "$ADDR" ] && break
	kill -0 "$DAEMON_PID" 2>/dev/null || { echo "serve-demo: jupiterd died:"; cat "$TMP/jupiterd.log"; exit 1; }
	sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve-demo: jupiterd never reported its address"; cat "$TMP/jupiterd.log"; exit 1; }
METRICS="$(sed -n 's|.*metrics on http://\([0-9.]*:[0-9]*\)/.*|\1|p' "$TMP/jupiterd.log" | head -n1)"
echo "serve-demo: jupiterd on $ADDR (metrics $METRICS)"

# Two concurrent clients; 6 + 5 = 11 ops total. Client B cuts its own
# connection after 2 ops and must transparently resume. Both block on the
# global sequence barrier before printing, so their outputs must match.
"$TMP/jupiterctl" -addr "$ADDR" -doc demo -type 'hello ' -wait-seq 11 >"$TMP/a.out" 2>"$TMP/a.log" &
A_PID=$!
"$TMP/jupiterctl" -addr "$ADDR" -doc demo -type 'world' -drop-after 2 -wait-seq 11 -v >"$TMP/b.out" 2>"$TMP/b.log" &
B_PID=$!
wait "$A_PID" || { echo "serve-demo: client A failed:"; cat "$TMP/a.log"; exit 1; }
wait "$B_PID" || { echo "serve-demo: client B failed:"; cat "$TMP/b.log"; exit 1; }

A="$(cat "$TMP/a.out")"
B="$(cat "$TMP/b.out")"
echo "serve-demo: client A sees: $A"
echo "serve-demo: client B sees: $B"
[ -n "$A" ] || { echo "serve-demo: FAIL: client A printed nothing"; exit 1; }
[ "$A" = "$B" ] || { echo "serve-demo: FAIL: clients diverged"; exit 1; }
[ "${#A}" -eq 11 ] || { echo "serve-demo: FAIL: expected 11 characters, got ${#A}"; exit 1; }

# A late joiner is rooted at the GC frontier and replays what lies past it:
# it must land on the same 11 characters.
"$TMP/jupiterctl" -addr "$ADDR" -doc demo -wait-seq 11 >"$TMP/c.out" 2>"$TMP/c.log" || {
	echo "serve-demo: client C (late join under GC) failed:"; cat "$TMP/c.log"; exit 1; }
C="$(cat "$TMP/c.out")"
echo "serve-demo: client C sees: $C"
[ "$A" = "$C" ] || { echo "serve-demo: FAIL: late joiner diverged"; exit 1; }

# The resume path must actually have fired (client B reconnected).
grep -q "resumed at frame" "$TMP/jupiterd.log" || {
	echo "serve-demo: FAIL: no resume observed in jupiterd log"; cat "$TMP/jupiterd.log"; exit 1; }

# Live metrics: every op applied, none lost.
if [ -n "$METRICS" ]; then
	SNAP="$(curl -fsS "http://$METRICS/" 2>/dev/null || wget -qO- "http://$METRICS/")"
	echo "$SNAP" | grep -q '"ops_applied": 11' || {
		echo "serve-demo: FAIL: metrics disagree:"; echo "$SNAP"; exit 1; }
fi

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
echo "serve-demo: OK — converged on \"$A\" with resume, a late join under GC and clean shutdown"
