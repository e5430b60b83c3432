#!/usr/bin/env bash
# End-to-end ctest: generate a tiny graph, persist a BcIndex snapshot with
# bccs_build, and check that bccs_query serves identical answers from the
# text graph and from the snapshot, and that bccs_serve --stream (the only
# batch front-end) does too; that a corrupted snapshot is rejected; that the
# engine flags both tools share (tools/engine_flags.h) validate strictly in
# both (bad values and ids or k's that do not fit 32 bits exit 2 with a
# reason) and behave (mixed-lane streams report per-lane percentiles and
# qps, approx streams are deterministic across thread counts, and the two
# per-round validity mechanisms — Online's delta counter and LP's leader
# pair — stream bit-identical answers across thread counts); that removed
# flags are unknown to both tools; and that the dynamic update
# flow works: bccs_update appends to the snapshot's changelog, which
# bccs_query replays (build -> update -> query-from-replayed-snapshot ==
# query-from-updated-text-graph), --updates-file applies a batch
# in-process, invalid update batches are rejected, and --compact /
# --compact-threshold fold the changelog into the payload with answers
# unchanged. The bccs_serve socket front-end (--listen) is driven over a
# real loopback connection: pipelined query/update/query with request ids
# answer with per-connection epoch views matching bccs_query on the
# equivalent graphs, a reconnect resending an applied update id gets the
# kept ack replayed instead of re-applying, and SIGTERM drains admitted
# items, flushes response tails, and exits 0.
#
# Registered under the ctest labels "e2e" and "sanitize" — the latter is the
# suite exercised in the ASan+UBSan preset (cmake --preset asan-ubsan).
#
# When a fault-injection library is passed as the second argument (built as
# tests/fault_fs in non-sanitized configurations), the script finishes with
# the quick crash matrix — kill-at-every-durability-write recovery checks
# (the full matrix is the ctest labeled "crash").
#
# usage: tools/e2e_snapshot_test.sh BIN_DIR [FAULT_LIB]
set -euo pipefail

bin="${1:?usage: e2e_snapshot_test.sh BIN_DIR [FAULT_LIB]}"
fault_lib="${2:-}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

"$bin/bccs_generate" --communities 4 --group-size 10 --labels 2 --seed 3 \
  --out "$tmp/g.txt" >/dev/null

"$bin/bccs_build" --graph "$tmp/g.txt" --out "$tmp/g.snap" >/dev/null \
  || fail "bccs_build failed"
[ -s "$tmp/g.snap" ] || fail "snapshot file missing or empty"

# Two query vertices of different labels (the first of each label group).
q1="$(awk '$1=="l" && $3==0 {print $2; exit}' "$tmp/g.txt")"
q2="$(awk '$1=="l" && $3==1 {print $2; exit}' "$tmp/g.txt")"
[ -n "$q1" ] && [ -n "$q2" ] || fail "could not pick query vertices"

run_query() { # $1: --graph/--index-file source args...
  "$bin/bccs_query" "$@" --ql "$q1" --qr "$q2" --method l2p \
    | grep -E '^(community|no community)' || true
}

from_graph="$(run_query --graph "$tmp/g.txt")"
from_snap="$(run_query --index-file "$tmp/g.snap")"
[ -n "$from_graph" ] || fail "no query output from the text-graph path"
[ "$from_graph" = "$from_snap" ] \
  || fail "snapshot answers differ: '$from_graph' vs '$from_snap'"

# bccs_serve --stream is the batch front-end. Its per-item lines, with the
# "(T s)" timing stripped, are what batch runs compare.
serve_items() { # $@: bccs_serve args
  "$bin/bccs_serve" "$@" | grep -E '^\[[0-9]+\]' | sed 's/  ([0-9.]* s)$//'
}

# Batch path: the snapshot-backed index is shared across worker threads;
# the two-query stream is tiled three times.
for _ in 1 2 3; do
  printf 'q %s %s\nq %s %s\n' "$q1" "$q2" "$q2" "$q1"
done > "$tmp/batch.txt"
batch_graph="$(serve_items --graph "$tmp/g.txt" --stream "$tmp/batch.txt" \
  --method l2p --threads 2)"
batch_snap="$(serve_items --index-file "$tmp/g.snap" --stream "$tmp/batch.txt" \
  --method l2p --threads 2)"
[ "$(printf '%s\n' "$batch_graph" | wc -l)" -eq 6 ] || fail "no batch output"
[ "$batch_graph" = "$batch_snap" ] || fail "batch answers differ"

# bccs_query's batch flags are gone: each is rejected as unknown.
for gone in "--batch-file $tmp/batch.txt" "--repeat 3" "--threads 2" "--lane bulk" \
            "--result-cache 4" "--approx-adaptive"; do
  # shellcheck disable=SC2086
  if "$bin/bccs_query" --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" $gone \
      >/dev/null 2>"$tmp/gone.err"; then
    fail "removed flag accepted by bccs_query: $gone"
  fi
  grep -q "unknown flag" "$tmp/gone.err" || fail "removed flag not reported unknown: $gone"
done
if "$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/batch.txt" --approx-adaptive \
    >/dev/null 2>&1; then
  fail "removed flag accepted by bccs_serve: --approx-adaptive"
fi

# A snapshot must not silently serve a graph that changed on disk: editing
# the graph invalidates the source stamp, forcing a rebuild that restamps
# the snapshot.
printf '# edited after snapshot\n' >> "$tmp/g.txt"
"$bin/bccs_query" --graph "$tmp/g.txt" --index-file "$tmp/g.snap" \
  --ql "$q1" --qr "$q2" --method l2p >/dev/null 2>"$tmp/stale.err" \
  || fail "query with a stale snapshot failed"
grep -q "stale" "$tmp/stale.err" || fail "stale snapshot was not detected"
"$bin/bccs_query" --graph "$tmp/g.txt" --index-file "$tmp/g.snap" \
  --ql "$q1" --qr "$q2" --method l2p >/dev/null 2>"$tmp/restamp.err" \
  || fail "query with the restamped snapshot failed"
if grep -q "stale" "$tmp/restamp.err"; then
  fail "restamped snapshot still reported stale"
fi

# A corrupted snapshot must be rejected, not served.
cp "$tmp/g.snap" "$tmp/bad.snap"
printf '\x5a' | dd of="$tmp/bad.snap" bs=1 seek=100 conv=notrunc 2>/dev/null
if "$bin/bccs_query" --index-file "$tmp/bad.snap" --ql "$q1" --qr "$q2" \
    --method l2p >/dev/null 2>&1; then
  fail "corrupted snapshot was accepted"
fi

# --- Serving engine flags ---------------------------------------------------

# expect_reject PATTERN CMD...: CMD must exit 2 with PATTERN on stderr.
expect_reject() {
  local want="$1"
  shift
  local rc=0
  "$@" >/dev/null 2>"$tmp/reject.err" || rc=$?
  [ "$rc" -eq 2 ] || fail "exit $rc, want 2: $*"
  grep -q -- "$want" "$tmp/reject.err" || fail "no reason matching '$want': $*"
}
query_cmd=("$bin/bccs_query" --graph "$tmp/g.txt" --ql "$q1" --qr "$q2")
serve_cmd=("$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/batch.txt")

# Both tools parse the engine flags with one strict contract: unknown
# methods list the valid ones, and a numeric value that is not a clean
# integer in its field's range is rejected instead of falling back or
# narrowing (--k1 4294967297 must not run as --k1 1).
for cmd in query serve; do
  declare -n tool="${cmd}_cmd"
  expect_reject "valid methods" "${tool[@]}" --method bogus
  for bad in "--deadline-ms 0" "--deadline-ms -3" "--deadline-ms abc" \
             "--approx-samples 0" "--approx-samples xyz" "--approx-threshold 0" \
             "--k1 -2" "--k2 xyz" "--k1 4294967297" "--k2 4294967296" \
             "--b 0" "--b -1" "--b abc" \
             "--cache-bytes -5" "--cache-bytes xyz" "--cache-bytes 2.5"; do
    # shellcheck disable=SC2086
    expect_reject "must be an integer" "${tool[@]}" $bad
  done
  "${tool[@]}" --approx-threshold 8 >/dev/null 2>"$tmp/thresh.err" \
    || fail "bccs_$cmd --approx-threshold alone failed"
  grep -q "no effect without --approx-samples" "$tmp/thresh.err" \
    || fail "bccs_$cmd did not warn about --approx-threshold alone"
  # The per-round validity mechanism follows the method; no flag picks it.
  expect_reject "unknown flag" "${tool[@]}" --no-incremental-butterflies
  unset -n tool
done

# Query ids must be clean integers that fit a vertex id: no abort on
# garbage, no wrap-around of 2^32 to vertex 0.
expect_reject "not a vertex id" "$bin/bccs_query" --graph "$tmp/g.txt" --queries a,b
expect_reject "not a vertex id" "$bin/bccs_query" --graph "$tmp/g.txt" \
  --queries 4294967296,12
expect_reject "must be vertex ids" "$bin/bccs_query" --graph "$tmp/g.txt" \
  --ql 4294967296 --qr "$q2"

# bccs_serve's own count flags share the strict contract.
for bad in "--threads -1" "--threads abc" "--threads 1.5" "--bulk-cap -1" \
           "--result-cache -1" "--result-cache abc" "--result-cache 1.5"; do
  # shellcheck disable=SC2086
  if "${serve_cmd[@]}" $bad >/dev/null 2>&1; then
    fail "invalid flag value accepted by bccs_serve: $bad"
  fi
done

# A typo'd huge --threads is clamped to the hardware, not spawned.
"${serve_cmd[@]}" --threads 99999 >/dev/null 2>"$tmp/clamp.err" \
  || fail "clamped thread count failed"
grep -q "clamped to hardware concurrency" "$tmp/clamp.err" \
  || fail "huge --threads was not clamped"

# Mixed-lane stream (per-line lane column) reports per-lane percentiles,
# serves every query within a generous deadline, and reports its qps.
printf 'q %s %s interactive\nq %s %s bulk\nq %s %s\n' \
  "$q1" "$q2" "$q2" "$q1" "$q1" "$q2" > "$tmp/lanes.txt"
lanes_out="$("$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/lanes.txt" \
  --threads 2 --deadline-ms 10000)"
echo "$lanes_out" | grep -q "lane interactive" || fail "no interactive lane summary"
echo "$lanes_out" | grep -q "lane bulk" || fail "no bulk lane summary"
echo "$lanes_out" | grep -q "; 0 timed out" || fail "generous deadline timed out"
echo "$lanes_out" | grep -q '^served 3 items .*qps=[0-9]' || fail "no qps in served line"
printf 'q %s %s sideways\n' "$q1" "$q2" > "$tmp/bad_lane.txt"
if "$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/bad_lane.txt" \
    >/dev/null 2>&1; then
  fail "invalid lane was accepted"
fi

# Approx streams (Online-BCC: on this graph LP's leaders always hold, so it
# never samples): each estimate samples clamp(alive / 4, 64, N) pairs, a
# pure function of the seed and the candidate size, so answers are
# identical across thread counts.
approx_1="$(serve_items --graph "$tmp/g.txt" --stream "$tmp/lanes.txt" \
  --threads 1 --method online --approx-samples 64 --approx-threshold 1)"
approx_2="$(serve_items --graph "$tmp/g.txt" --stream "$tmp/lanes.txt" \
  --threads 2 --method online --approx-samples 64 --approx-threshold 1)"
[ -n "$approx_1" ] || fail "no approx batch output"
[ "$approx_1" = "$approx_2" ] || fail "approx answers differ across thread counts"
"$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/lanes.txt" --threads 2 \
  --method online --approx-samples 256 --approx-threshold 1 | grep -q 'approx_checks=[1-9]' \
  || fail "approx stream never took the sampled path"

# --- Per-round validity: the delta counter (online) == the leader pair (lp) -

# Both mechanisms are exact, so for each thread count the Online stream
# (delta counter) must answer exactly like the LP stream (leader pair).
for t in 1 2; do
  online="$(serve_items --graph "$tmp/g.txt" --stream "$tmp/lanes.txt" \
    --threads "$t" --method online)"
  lp="$(serve_items --graph "$tmp/g.txt" --stream "$tmp/lanes.txt" \
    --threads "$t" --method lp)"
  [ -n "$online" ] || fail "no batch output (threads $t)"
  [ "$online" = "$lp" ] || fail "online and lp answers differ (threads $t)"
done

# Both tools print the per-phase breakdown, including the delta counter's
# time and round counters.
"$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/lanes.txt" --threads 1 \
  | grep -q '^phases: .*delta=.*delta_rounds=' || fail "no per-phase breakdown in bccs_serve"
"${query_cmd[@]}" | grep -q '^phases: .*delta=.*delta_rounds=' \
  || fail "no per-phase breakdown in bccs_query"

# --- Dynamic graphs: changelog + --updates-file -----------------------------

# Delete one existing edge through bccs_update: the batch is appended as one
# record to the rotated changelog next to the snapshot (no payload rewrite)
# and the updated graph written as text.
eu="$(awk '$1=="e" {print $2; exit}' "$tmp/g.txt")"
ev="$(awk '$1=="e" {print $3; exit}' "$tmp/g.txt")"
[ -n "$eu" ] && [ -n "$ev" ] || fail "could not pick an edge to delete"
printf -- '- %s %s\n' "$eu" "$ev" > "$tmp/updates.txt"
snap_bytes="$(wc -c < "$tmp/g.snap")"
"$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/updates.txt" \
  --write-graph "$tmp/g2.txt" >/dev/null || fail "bccs_update failed"
[ -f "$tmp/g.snap.log.000001" ] || fail "bccs_update wrote no changelog segment"
[ "$(wc -c < "$tmp/g.snap")" -eq "$snap_bytes" ] \
  || fail "bccs_update rewrote or appended to the snapshot file"

# build -> update -> query-from-replayed-snapshot: the replayed snapshot
# must answer exactly like the updated text graph.
upd_snap="$(run_query --index-file "$tmp/g.snap")"
upd_graph="$(run_query --graph "$tmp/g2.txt")"
[ -n "$upd_graph" ] || fail "no output from the updated text graph"
[ "$upd_snap" = "$upd_graph" ] \
  || fail "replayed snapshot answers differ: '$upd_snap' vs '$upd_graph'"

# The changelog record re-stamped the snapshot with g2.txt's identity, so
# the combined path accepts it without a rebuild.
"$bin/bccs_query" --graph "$tmp/g2.txt" --index-file "$tmp/g.snap" \
  --ql "$q1" --qr "$q2" --method l2p >/dev/null 2>"$tmp/upd_stamp.err" \
  || fail "query with the re-stamped updated snapshot failed"
if grep -qE "stale|rebuild" "$tmp/upd_stamp.err"; then
  fail "re-stamped updated snapshot was not accepted"
fi

# --updates-file: applying the batch in-process over the original graph
# must answer exactly like the updated text graph.
upd_flag="$("$bin/bccs_query" --graph "$tmp/g.txt" --updates-file "$tmp/updates.txt" \
  --ql "$q1" --qr "$q2" --method lp | grep -E '^(community|no community)')" || true
upd_graph_lp="$("$bin/bccs_query" --graph "$tmp/g2.txt" --ql "$q1" --qr "$q2" \
  --method lp | grep -E '^(community|no community)')" || true
[ -n "$upd_flag" ] || fail "no output from --updates-file"
[ "$upd_flag" = "$upd_graph_lp" ] \
  || fail "--updates-file answers differ: '$upd_flag' vs '$upd_graph_lp'"

# Re-inserting the deleted edge chains a second changelog record; the
# replayed state is back to the original graph and answers match the very
# first run.
printf -- '+ %s %s\n' "$eu" "$ev" > "$tmp/updates2.txt"
"$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/updates2.txt" \
  >/dev/null || fail "second bccs_update failed"
roundtrip="$(run_query --index-file "$tmp/g.snap")"
[ "$roundtrip" = "$from_graph" ] \
  || fail "delete+insert round trip changed answers: '$roundtrip' vs '$from_graph'"

# Invalid update batches are rejected with the offending update named.
printf -- '- 0 0\n' > "$tmp/bad_updates.txt"
if "$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/bad_updates.txt" \
    >/dev/null 2>"$tmp/bad_upd.err"; then
  fail "invalid update batch was accepted by bccs_update"
fi
grep -q "update #0" "$tmp/bad_upd.err" || fail "invalid update not named"
if "$bin/bccs_query" --graph "$tmp/g.txt" --updates-file "$tmp/bad_updates.txt" \
    --ql "$q1" --qr "$q2" >/dev/null 2>&1; then
  fail "invalid update batch was accepted by bccs_query"
fi

# --compact seals the changelog and folds it into a rewritten payload,
# dropping the folded segments; answers hold.
"$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/updates.txt" \
  --compact >/dev/null || fail "bccs_update --compact failed"
ls "$tmp"/g.snap.log.* >/dev/null 2>&1 && fail "--compact left changelog segments behind"
compacted="$(run_query --index-file "$tmp/g.snap")"
[ "$compacted" = "$upd_graph" ] \
  || fail "compacted snapshot answers differ: '$compacted' vs '$upd_graph'"

# --- Compaction policy: --compact-threshold ---------------------------------

# A fresh snapshot of the updated graph; two appends with
# --compact-threshold 1: the first leaves its record in the unsealed tail
# (no sealed segment yet, so no fold), the second rotates the tail
# (--segment-blocks 1), reaching the threshold, and folds it.
"$bin/bccs_build" --graph "$tmp/g2.txt" --out "$tmp/g3.snap" >/dev/null \
  || fail "bccs_build for --compact-threshold failed"
e2u="$(awk '$1=="e" {print $2}' "$tmp/g2.txt" | sed -n 2p)"
e2v="$(awk '$1=="e" {print $3}' "$tmp/g2.txt" | sed -n 2p)"
[ -n "$e2u" ] && [ -n "$e2v" ] || fail "could not pick a second edge"
printf -- '- %s %s\n' "$e2u" "$e2v" > "$tmp/ac1.txt"
printf -- '+ %s %s\n' "$e2u" "$e2v" > "$tmp/ac2.txt"

if "$bin/bccs_update" --snapshot "$tmp/g3.snap" --updates "$tmp/ac1.txt" \
    --compact-threshold 0 >/dev/null 2>&1; then
  fail "--compact-threshold 0 was accepted"
fi

ac1_out="$("$bin/bccs_update" --snapshot "$tmp/g3.snap" --updates "$tmp/ac1.txt" \
  --compact-threshold 1)" || fail "first --compact-threshold update failed"
echo "$ac1_out" | grep -q "compacted" && fail "fold fired below the threshold"
ac2_out="$("$bin/bccs_update" --snapshot "$tmp/g3.snap" --updates "$tmp/ac2.txt" \
  --segment-blocks 1 --compact-threshold 1)" || fail "second --compact-threshold update failed"
echo "$ac2_out" | grep -q "compacted: folded segments through 1" \
  || fail "fold did not fire at the threshold"
ls "$tmp"/g3.snap.log.* >/dev/null 2>&1 && fail "the fold left changelog segments behind"
# The folded snapshot has an empty changelog and serves the delete+insert
# round trip (== g2) correctly.
ac3_out="$("$bin/bccs_update" --snapshot "$tmp/g3.snap" --recover-only)" \
  || fail "post-compaction recovery failed"
echo "$ac3_out" | grep -q "(0 changelog records)" \
  || fail "folded snapshot still replays changelog records"
[ "$(run_query --index-file "$tmp/g3.snap")" = "$(run_query --graph "$tmp/g2.txt")" ] \
  || fail "folded snapshot answers differ from g2"

# --- Streaming serve loop: bccs_serve ---------------------------------------

# A mixed stream over the original graph: the pre-update query runs in
# epoch 1, the update publishes epoch 2 (prepared off-thread against a
# pinned copy-on-write epoch), and the post-update queries observe it.
printf 'q %s %s interactive\nu - %s %s\nq %s %s bulk\nq %s %s\n' \
  "$q1" "$q2" "$eu" "$ev" "$q1" "$q2" "$q2" "$q1" > "$tmp/stream.txt"
serve_out="$("$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/stream.txt" \
  --threads 2 --bulk-cap 1)" || fail "bccs_serve failed"
echo "$serve_out" | grep -q '^\[0\] epoch=1 query' || fail "pre-update query not in epoch 1"
echo "$serve_out" | grep -q '^\[1\] epoch=2 update -' || fail "update did not publish epoch 2"
echo "$serve_out" | grep -q '^\[2\] epoch=2 query' || fail "post-update query not in epoch 2"
echo "$serve_out" | grep -q 'final epoch 2' || fail "final epoch wrong"
echo "$serve_out" | grep -q 'lane interactive' || fail "no interactive lane summary"

# The post-update answer equals serving the updated text graph directly.
serve_members="$(echo "$serve_out" | sed -n 's/^\[2\].*-> \([0-9]*\) members.*/\1/p')"
graph_members="$("$bin/bccs_query" --graph "$tmp/g2.txt" --ql "$q1" --qr "$q2" \
  --method lp | sed -n 's/^community (\([0-9]*\) members.*/\1/p')"
[ -n "$serve_members" ] || fail "no member count in bccs_serve output"
[ "$serve_members" = "$graph_members" ] \
  || fail "streamed post-update answer differs: $serve_members vs $graph_members"

# Malformed stream lines are rejected.
printf 'x nonsense\n' > "$tmp/bad_stream.txt"
if "$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/bad_stream.txt" \
    >/dev/null 2>&1; then
  fail "malformed stream line was accepted"
fi

# A cached serve run answers identically to the uncached one above and
# reports its hit/miss counters in the shutdown summary.
cached_out="$("$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/stream.txt" \
  --result-cache 64 --method lp)" || fail "cached bccs_serve failed"
cached_members="$(printf '%s\n' "$cached_out" \
  | sed -n 's/^\[2\].*-> \([0-9]*\) members.*/\1/p')"
[ "$cached_members" = "$serve_members" ] \
  || fail "cached streamed answer differs: $cached_members vs $serve_members"
printf '%s\n' "$cached_out" | grep -q "^cache: result " \
  || fail "cached bccs_serve printed no cache summary"

# --- Socket front-end: bccs_serve --listen -----------------------------------

# Bad-flag matrix: server flags validate strictly and in combination.
for bad_args in "--listen abc" "--listen -1" "--listen 65536" \
                "--listen 0 --max-connections 0" \
                "--listen 0 --max-connections -2" \
                "--listen 0 --max-connections abc" \
                "--max-connections 4" \
                "--listen 0 --stream $tmp/stream.txt"; do
  # shellcheck disable=SC2086
  if "$bin/bccs_serve" --graph "$tmp/g.txt" $bad_args >/dev/null 2>&1; then
    fail "invalid --listen flag combination accepted: $bad_args"
  fi
done

# Live server on an ephemeral port, driven by a scripted bash /dev/tcp
# client: pipelined query/update/query with request ids, answers matching
# bccs_query on the equivalent graphs, then idempotent-retry and SIGTERM
# drain checks.
"$bin/bccs_serve" --graph "$tmp/g.txt" --listen 0 --threads 2 \
  > "$tmp/serve_net.log" 2>&1 &
net_pid=$!
net_port=""
for _ in $(seq 1 100); do
  net_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$tmp/serve_net.log")"
  [ -n "$net_port" ] && break
  sleep 0.1
done
[ -n "$net_port" ] || { kill "$net_pid" 2>/dev/null; fail "server printed no port"; }

exec 9<>"/dev/tcp/127.0.0.1/$net_port" || fail "cannot connect to $net_port"
printf 'ping\nq %s %s interactive id=1\nu - %s %s id=2\nq %s %s id=3\nquit\n' \
  "$q1" "$q2" "$eu" "$ev" "$q1" "$q2" >&9
net_resp="$(timeout 60 cat <&9)" || fail "no response from the socket server"
exec 9<&- 9>&- || true
echo "$net_resp" | grep -q '^pong$' || fail "no pong: $net_resp"
echo "$net_resp" | grep -q '^ok 1 q epoch=1 ' || fail "pre-update query wrong: $net_resp"
echo "$net_resp" | grep -q '^ok 2 u epoch=2 +0 -1$' || fail "update ack wrong: $net_resp"
echo "$net_resp" | grep -q '^ok 3 q epoch=2 ' || fail "post-update query wrong: $net_resp"
# The post-update community size equals querying the updated text graph.
net_members="$(echo "$net_resp" | sed -n 's/^ok 3 q epoch=2 n=\([0-9]*\) .*/\1/p')"
[ "$net_members" = "$graph_members" ] \
  || fail "socket answer differs from bccs_query: $net_members vs $graph_members"

# Idempotent retry: a reconnect resending the applied update's id replays
# the kept ack bit-identically — it must NOT re-apply (a re-executed delete
# of the now-missing edge would answer "rej").
exec 9<>"/dev/tcp/127.0.0.1/$net_port" || fail "cannot reconnect"
printf 'u - %s %s id=2\nquit\n' "$eu" "$ev" >&9
retry_resp="$(timeout 60 cat <&9)" || fail "no response to the retried update"
exec 9<&- 9>&- || true
echo "$retry_resp" | grep -q '^ok 2 u epoch=2 +0 -1$' \
  || fail "retried update id was not replayed: $retry_resp"

# SIGTERM: drain admitted items, flush tails, exit 0 with the summaries.
kill -TERM "$net_pid"
net_rc=0
wait "$net_pid" || net_rc=$?
[ "$net_rc" -eq 0 ] || fail "--listen SIGTERM exit code $net_rc"
grep -q 'signal 15: drained' "$tmp/serve_net.log" || fail "no drain line in server log"
grep -q '^net: 2 connections accepted' "$tmp/serve_net.log" \
  || fail "no net summary in server log"
grep -q 'replayed' "$tmp/serve_net.log" || fail "no retry summary in server log"
grep -q '^served 3 items (1 updates, 1 applied)' "$tmp/serve_net.log" \
  || fail "wrong served summary: $(grep '^served' "$tmp/serve_net.log")"
grep -q 'final epoch 2' "$tmp/serve_net.log" \
  || fail "retry double-applied: $(grep '^served' "$tmp/serve_net.log")"

# --- Crash-safe durability: changelog append, restart replay, fault matrix --

# A durable serve run appends its applied update to a rotated changelog
# segment; a restart replays it and answers from the recovered state.
"$bin/bccs_build" --graph "$tmp/g.txt" --out "$tmp/g4.snap" >/dev/null \
  || fail "bccs_build for durability failed"
printf 'u - %s %s\nq %s %s\n' "$eu" "$ev" "$q1" "$q2" > "$tmp/dstream.txt"
dur_out="$("$bin/bccs_serve" --index-file "$tmp/g4.snap" --stream "$tmp/dstream.txt" \
  --fsync every-append --segment-blocks 1 --threads 2)" \
  || fail "durable bccs_serve failed"
echo "$dur_out" | grep -q 'durable: 1 updates appended' \
  || fail "durable serve summary missing"
ls "$tmp"/g4.snap.log.* >/dev/null 2>&1 || fail "no changelog segment written"

printf 'q %s %s\n' "$q1" "$q2" > "$tmp/dstream2.txt"
re_out="$("$bin/bccs_serve" --index-file "$tmp/g4.snap" --stream "$tmp/dstream2.txt" \
  --threads 1)" || fail "restart bccs_serve failed"
echo "$re_out" | grep -q 'recovery: 1 updates replayed' \
  || fail "restart did not replay the changelog"
re_members="$(echo "$re_out" | sed -n 's/^\[0\].*-> \([0-9]*\) members.*/\1/p')"
[ "$re_members" = "$graph_members" ] \
  || fail "recovered answer differs: $re_members vs $graph_members"

# Durability flags demand a writable snapshot to append to.
if "$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/dstream2.txt" \
    --fsync every-append >/dev/null 2>&1; then
  fail "--fsync without --index-file was accepted"
fi

# Quick fault-injection matrix: kill bccs_update at durability write points
# and check zero acked loss + clean-prefix recovery. Skipped in sanitized
# builds (no interposer library); `ctest -L crash` runs the full matrix.
if [ -n "$fault_lib" ] && [ -f "$fault_lib" ]; then
  script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
  "$script_dir/../tests/fault_fs/crash_matrix.sh" "$bin" "$fault_lib" quick \
    >/dev/null || fail "quick crash matrix failed"
fi

echo "e2e snapshot test passed"
