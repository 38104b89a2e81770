#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test of the sharded cluster: build
# adbserverd and adbsh, boot adbserverd as a cluster front over two
# durable in-process shards (checkpointing every 8 commits) on a random
# port, run a scripted remote session through the ordinary shell
# (single-shard commits, a cross-shard relay rule, the merged firing
# subscription), assert that an actually cross-shard commit is refused and
# that the shards checkpoint, then SIGKILL the front, restart it over the
# same directory and assert that the rules, the data and the relayed
# firing survive and that relays still forward. Ends with a SIGTERM and a
# clean graceful drain (exit 0), then checks that the four flag
# combinations a cluster front refuses exit non-zero with their message.
set -eu

GO="${GO:-go}"
tmp="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$tmp/adbserverd" ./cmd/adbserverd
"$GO" build -o "$tmp/adbsh" ./cmd/adbsh

# start_server runs in the main shell (not a command substitution) so
# server_pid survives; the bound address lands in $tmp/port.
start_server() { # logfile
    rm -f "$tmp/port"
    "$tmp/adbserverd" -addr 127.0.0.1:0 -port-file "$tmp/port" -local 2 \
        -data "$tmp/data" -snapshot-every 8 -keep-snapshots 1 2>"$1" &
    server_pid=$!
    i=0
    while [ ! -s "$tmp/port" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "cluster-smoke: server never published its port" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.1
    done
}

start_server "$tmp/server.log"
addr="$(cat "$tmp/port")"

# Under FNV-1a mod 2, item "m0" hashes to shard 0 and event symbol
# "sig1" to shard 1 — so "alarm" is a genuinely cross-shard rule: it
# homes on shard 0 and needs a relay trigger on shard 1. The emit
# routes to shard 1, the relay forwards the occurrence home, and the
# merged stream delivers hot@2 then hot@3 + alarm@3.
cat > "$tmp/session" << 'EOF'
commit 1 m0=3
trigger hot :: item("m0") > 5
trigger alarm :: @sig1 and item("m0") > 0
commit 2 m0=9
emit 3 @sig1
show rules
follow 3
EOF

out="$("$tmp/adbsh" -connect "$addr" "$tmp/session")"
echo "$out"
case "$out" in
*"FIRE hot at 2"*) ;;
*) echo "cluster-smoke: single-shard firing missing" >&2; exit 1 ;;
esac
case "$out" in
*"FIRE alarm at"*) ;;
*) echo "cluster-smoke: relayed cross-shard firing missing" >&2; exit 1 ;;
esac
case "$out" in
*"__relay"*) echo "cluster-smoke: relay trigger leaked into show rules" >&2; exit 1 ;;
*) ;;
esac

# A commit touching items on both shards must be refused, not half-applied.
echo "commit 9 m0=1 m1=1" > "$tmp/crossshard"
rc=0
err="$("$tmp/adbsh" -connect "$addr" "$tmp/crossshard" 2>&1)" || rc=$?
if [ "$rc" -eq 0 ]; then
    echo "cluster-smoke: cross-shard commit was accepted" >&2
    exit 1
fi
case "$err" in
*"spans multiple shards"*) ;;
*) echo "cluster-smoke: refusal lacked the cross-shard error: $err" >&2; exit 1 ;;
esac

# Ten more commits on shard 0, none firing: past -snapshot-every 8, so
# shard 0 has checkpointed, and the storage query sums the shards'.
ts=10
while [ "$ts" -le 19 ]; do
    printf 'commit %d m0=1\n' "$ts"
    ts=$((ts + 1))
done > "$tmp/filler"
"$tmp/adbsh" -connect "$addr" "$tmp/filler" > /dev/null
snaps="$(printf 'storage\n' | "$tmp/adbsh" -connect "$addr" |
    tr ' ' '\n' | sed -n 's/^snapshots=//p')"
if [ "${snaps:-0}" -lt 1 ]; then
    echo "cluster-smoke: no shard checkpointed (snapshots=$snaps)" >&2
    exit 1
fi

# SIGKILL, then restart over the same directory: each shard recovers
# from its snapshot and log tail, the rules and relays come back, and the
# front rebuilds the merged log without forwarding anything twice.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
start_server "$tmp/server2.log"
addr="$(cat "$tmp/port")"
grep -q "shard 0: recovered: snapshot LSN [1-9]" "$tmp/server2.log" || {
    echo "cluster-smoke: shard 0 did not recover from its snapshot" >&2
    cat "$tmp/server2.log" >&2
    exit 1
}
printf 'show rules\nshow db\nshow firings\nemit 20 @sig1\nfollow 4\n' > "$tmp/after"
out="$("$tmp/adbsh" -connect "$addr" "$tmp/after")"
echo "$out"
for rule in hot alarm; do
    case "$out" in
    *"$rule (trigger"*) ;;
    *) echo "cluster-smoke: rule $rule lost across the restart" >&2; exit 1 ;;
    esac
done
case "$out" in
*"__relay"*) echo "cluster-smoke: relay trigger leaked into show rules after the restart" >&2; exit 1 ;;
*) ;;
esac
case "$out" in
*"m0=1"*) ;;
*) echo "cluster-smoke: the last committed value was lost across the restart" >&2; exit 1 ;;
esac
case "$out" in
*"alarm at 3"*) ;;
*) echo "cluster-smoke: the relayed firing was lost across the restart" >&2; exit 1 ;;
esac
case "$out" in
*"FIRE alarm at 20"*) ;;
*) echo "cluster-smoke: the relay stopped forwarding after the restart" >&2; exit 1 ;;
esac

# Graceful drain: SIGTERM must yield exit 0 and the drain log line.
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
if [ "$rc" -ne 0 ]; then
    echo "cluster-smoke: server exited $rc on SIGTERM" >&2
    cat "$tmp/server2.log" >&2
    exit 1
fi
grep -q "clean drain" "$tmp/server2.log" || {
    echo "cluster-smoke: no clean-drain log line" >&2
    cat "$tmp/server2.log" >&2
    exit 1
}

# refused checks that adbserverd exits non-zero with the message on the
# flags; a cluster front refuses these before it listens or opens a shard.
refused() { # message flags...
    want="$1"
    shift
    rc=0
    err="$("$tmp/adbserverd" -addr 127.0.0.1:0 "$@" 2>&1)" || rc=$?
    if [ "$rc" -eq 0 ]; then
        echo "cluster-smoke: adbserverd $* was accepted" >&2
        exit 1
    fi
    case "$err" in
    *"$want"*) ;;
    *) echo "cluster-smoke: adbserverd $* refused without \"$want\": $err" >&2; exit 1 ;;
    esac
}
refused "take neither -replica-of nor -lease" -local 2 -data "$tmp/refused" -replica-of 127.0.0.1:1
refused "take neither -replica-of nor -lease" -local 2 -lease "$tmp/lease"
refused "-local and -shards are mutually exclusive" -local 2 -shards 127.0.0.1:1
refused "-data applies to -local shards only" -shards 127.0.0.1:1 -data "$tmp/refused"
echo "cluster-smoke: ok"
