#!/bin/sh
# retain_smoke.sh — end-to-end smoke test of the storage lifecycle:
# build adbserverd and adbsh, boot a durable server with an aggressive
# retention policy (tiny WAL segments, short checkpoint cadence, 1-deep
# snapshot chain), drive enough commits to rotate segments and GC the log
# head, assert the storage query reports a bounded hot set, then SIGKILL
# the server and check crash recovery still serves the data and reports
# sane storage, ending with a graceful drain.
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
    "$tmp/adbserverd" -addr 127.0.0.1:0 -port-file "$tmp/port" \
        -data "$tmp/data" \
        -snapshot-every 8 -wal-segment-bytes 1024 -keep-snapshots 1 \
        >"$1" 2>&1 &
    server_pid=$!
    i=0
    while [ ! -s "$tmp/port" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "retain-smoke: server never published its port" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.1
    done
}

storage_field() { # addr field
    printf 'storage\n' | "$tmp/adbsh" -connect "$1" |
        tr ' ' '\n' | sed -n "s/^$2=//p"
}

start_server "$tmp/server.log"
addr="$(cat "$tmp/port")"

# 60 commits: enough to checkpoint ~7 times and rotate past 1 KiB
# segments repeatedly.
ts=1
while [ "$ts" -le 60 ]; do
    printf 'commit %d a=%d\n' "$ts" "$ts"
    ts=$((ts + 1))
done > "$tmp/session"
"$tmp/adbsh" -connect "$addr" "$tmp/session" > /dev/null

out="$(printf 'storage\n' | "$tmp/adbsh" -connect "$addr")"
echo "$out"

# GC must have truncated the log head: the oldest retained LSN is past 1.
head_lsn="$(storage_field "$addr" head_lsn)"
if [ "${head_lsn:-0}" -le 1 ]; then
    echo "retain-smoke: GC never truncated the wal head (head_lsn=$head_lsn)" >&2
    exit 1
fi

# The hot set is bounded: a handful of live segments, 1-deep chain.
segs="$(storage_field "$addr" segments)"
if [ "${segs:-99}" -gt 6 ]; then
    echo "retain-smoke: $segs live segments; rotation/GC not bounding the log" >&2
    exit 1
fi
snaps="$(storage_field "$addr" snapshots)"
if [ "${snaps:-99}" -gt 1 ]; then
    echo "retain-smoke: snapshot chain depth $snaps exceeds keep-snapshots=1" >&2
    exit 1
fi
ondisk="$(ls "$tmp/data"/wal.0* | wc -l)"
if [ "$ondisk" != "$segs" ]; then
    echo "retain-smoke: $ondisk wal segments on disk, storage reports $segs" >&2
    exit 1
fi

# SIGKILL, then restart over the same directory: every acked commit was
# fsynced, so crash recovery replays the bounded hot set and the server
# still answers with the last committed value.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
start_server "$tmp/server2.log"
addr="$(cat "$tmp/port")"
out="$(printf 'show db\ncommit 61 a=61\nstorage\n' | "$tmp/adbsh" -connect "$addr")"
echo "$out"
case "$out" in
*"a=60"*) ;;
*) echo "retain-smoke: recovered server lost the last committed value" >&2; exit 1 ;;
esac
segs2="$(storage_field "$addr" segments)"
if [ "${segs2:-99}" -gt 6 ]; then
    echo "retain-smoke: recovered server reports $segs2 live segments" >&2
    exit 1
fi

kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
if [ "$rc" -ne 0 ]; then
    echo "retain-smoke: recovered server exited $rc on SIGTERM" >&2
    cat "$tmp/server2.log" >&2
    exit 1
fi
echo "retain-smoke: ok"
