#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the network service layer:
# build adbserverd and adbsh, boot the server on a random port, run a
# scripted remote session (rules, commits, firing subscription, queries),
# run the same session minus the subscription through adbsh's in-process
# server and assert it prints the same, then SIGTERM the server and assert
# a clean graceful drain (exit 0).
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

"$tmp/adbserverd" -addr 127.0.0.1:0 -port-file "$tmp/port" 2>"$tmp/server.log" &
server_pid=$!

# Wait for the server to publish its bound address.
i=0
while [ ! -s "$tmp/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: server never published its port" >&2
        cat "$tmp/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr="$(cat "$tmp/port")"

cat > "$tmp/session" << 'EOF'
commit 1 a=3
trigger hot :: item("a") > 5
constraint nonneg :: item("a") >= 0
commit 2 a=9
commit 3 a=-1
show db
show rules
show firings
health
follow 1
EOF

out="$("$tmp/adbsh" -connect "$addr" "$tmp/session")"
echo "$out"
case "$out" in
*"ABORT at 3: nonneg"*) ;;
*) echo "serve-smoke: constraint abort not reported" >&2; exit 1 ;;
esac
case "$out" in
*"hot at 2"*) ;;
*) echo "serve-smoke: firing missing from show firings" >&2; exit 1 ;;
esac
case "$out" in
*"FIRE hot at 2"*) ;;
*) echo "serve-smoke: subscription did not deliver the firing" >&2; exit 1 ;;
esac

# The same session without -connect: adbsh serves its own engine in
# process, through the same interpreter, so every line must print what it
# printed over the wire. FIRE lines aside: the in-process engine prints
# them as rules fire, a remote session only on follow (remote-only, so
# left out here).
grep -v '^follow' "$tmp/session" > "$tmp/local-session"
local_out="$("$tmp/adbsh" "$tmp/local-session")"
case "$local_out" in
*"FIRE hot at 2"*) ;;
*) echo "serve-smoke: in-process adbsh printed no firing" >&2; exit 1 ;;
esac
printf '%s\n' "$out" | grep -v '^FIRE ' > "$tmp/remote.out"
printf '%s\n' "$local_out" | grep -v '^FIRE ' > "$tmp/local.out"
diff -u "$tmp/remote.out" "$tmp/local.out" || {
    echo "serve-smoke: in-process adbsh differs from adbsh -connect" >&2
    exit 1
}

# Graceful drain: SIGTERM must yield exit 0 and the drain log line.
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
if [ "$rc" -ne 0 ]; then
    echo "serve-smoke: server exited $rc on SIGTERM" >&2
    cat "$tmp/server.log" >&2
    exit 1
fi
grep -q "clean drain" "$tmp/server.log" || {
    echo "serve-smoke: no clean-drain log line" >&2
    cat "$tmp/server.log" >&2
    exit 1
}
echo "serve-smoke: ok"
