#!/usr/bin/env bash
# End-to-end serve test driven through scripts/aalwines-client: start the
# daemon with a preloaded demo network and an access log, query it (cold,
# then cached), scrape both metrics formats, and check that SIGTERM drains
# to exit 0.  Exits 127 (ctest SKIP) without curl.
set -eu

bin="$1"
client="$2"
port="${AALWINES_SERVE_TEST_PORT:-18923}"
access_log="${TMPDIR:-/tmp}/serve_roundtrip_access.$$.log"

command -v curl >/dev/null 2>&1 || exit 127

"$bin" serve --port "$port" --demo figure1 --workers 2 \
       --access-log "$access_log" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

# Bounded retry on the health endpoint: succeed as soon as the daemon
# answers, bail out early if it died, and fail loudly (instead of letting a
# later query produce a confusing connection error) when the budget runs
# out on a slow runner.
ready=
for _ in $(seq 150); do
    if "$client" -s "127.0.0.1:$port" health >/dev/null 2>&1; then
        ready=1
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve_roundtrip: daemon exited before answering health checks" >&2
        wait "$pid" || true
        exit 1
    fi
    sleep 0.1
done
if [ -z "$ready" ]; then
    echo "serve_roundtrip: daemon not healthy within 15s" >&2
    exit 1
fi

out=$("$client" -s "127.0.0.1:$port" query n1 '<ip> [.#v0] .* [v3#.] <ip> 0')
echo "$out" | grep -q '"answer": "yes"'
echo "$out" | grep -q '"cached": false'

out=$("$client" -s "127.0.0.1:$port" query n1 '<ip> [.#v0] .* [v3#.] <ip> 0')
echo "$out" | grep -q '"answer": "yes"'
echo "$out" | grep -q '"cached": true'

# A query through the daemon must produce the same answer document as the
# one-shot CLI: identical bytes once the per-run fields ("seconds" wall
# clock, the server-only "cached" marker) are dropped.
if command -v python3 >/dev/null 2>&1; then
    fresh_query='<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1'
    server_out=$("$client" -s "127.0.0.1:$port" query n1 "$fresh_query")
    echo "$server_out" | grep -q '"cached": false'
    cli_out=$("$bin" --demo figure1 -q "$fresh_query" --json)
    SERVER_OUT="$server_out" CLI_OUT="$cli_out" python3 - <<'PYEOF'
import json, os, sys
server = json.loads(os.environ["SERVER_OUT"])
cli = json.loads(os.environ["CLI_OUT"])[0]
for doc in (server, cli):
    doc.pop("cached", None)
    doc.pop("seconds", None)
a = json.dumps(server, sort_keys=True, indent=2)
b = json.dumps(cli, sort_keys=True, indent=2)
if a != b:
    sys.exit("serve_roundtrip: daemon answer differs from one-shot CLI\n"
             f"--- daemon ---\n{a}\n--- cli ---\n{b}")
PYEOF
fi

"$client" -s "127.0.0.1:$port" metrics | grep -q '"aalwines-metrics-2"'

# Prometheus exposition: validated line-by-line when the checker is present.
prom=$("$client" -s "127.0.0.1:$port" metrics --prometheus)
echo "$prom" | grep -q '^# TYPE aalwines_server_requests_total counter$'
echo "$prom" | grep -q '^# TYPE aalwines_request_duration_seconds histogram$'
check_prom="$(dirname "$client")/check-prometheus"
if command -v python3 >/dev/null 2>&1 && [ -x "$check_prom" ]; then
    echo "$prom" | "$check_prom"
fi

# The explain subcommand renders the per-phase breakdown of a stats query.
if command -v python3 >/dev/null 2>&1; then
    "$client" -s "127.0.0.1:$port" explain n1 '<ip> [.#v0] .* [v3#.] <ip> 0' \
        | grep -q 'over pass:'
fi

kill -TERM "$pid"
wait "$pid" # graceful drain must exit 0
trap - EXIT

# Every request above must have produced one JSON line in the access log.
[ -s "$access_log" ]
requests=$(wc -l < "$access_log")
[ "$requests" -ge 5 ]
grep -q '"queryHash"' "$access_log"
head -n 1 "$access_log" | grep -q '"id":1,'
rm -f "$access_log"
echo ok
