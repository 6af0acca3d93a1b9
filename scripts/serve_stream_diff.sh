#!/bin/sh
# Daemon-stream identity gate (DESIGN.md $16).
#
# Feeds one fixed job stream to two pitfalls-served binaries -- typically
# the merge-base build and the tree under test -- and requires their stdout
# streams and their per-session journal files to be byte-identical. The
# stream holds attack jobs under flip, drop, burst and lockdown policies,
# journaled session attacks whose collection crosses the journal's flush
# points, a session lockdown, and, in a second wave, its budget-refilled
# continuation plus a longer continuation of a finished session (a replay
# that runs dry mid-collection and goes on live).
#
# A second, cross-binary leg keeps the checkpoint format readable across
# versions: the old daemon runs wave 1 alone and leaves its checkpoint and
# session files; the new daemon resumes wave 2 from them (resubmitted
# wave-1 jobs come back from the journal, the continuations replay the
# session journals). Its stdout and files must equal the new daemon
# resuming from files it wrote itself.
#
# Usage: serve_stream_diff.sh <old-daemon> <new-daemon> [work_dir]
set -u

old=${1:?usage: serve_stream_diff.sh <old-daemon> <new-daemon> [work_dir]}
new=${2:?usage: serve_stream_diff.sh <old-daemon> <new-daemon> [work_dir]}
work=${3:-serve_stream_diff_work}

for bin in "$old" "$new"; do
  if [ ! -x "$bin" ]; then
    echo "serve_stream_diff: missing daemon binary $bin" >&2
    exit 2
  fi
done

rm -rf "$work"
mkdir -p "$work/old" "$work/new" "$work/cross_old" "$work/cross_new"

C1=0110100101101001011010010110100101101001011010010110100101101001

cat > "$work/jobs.txt" <<EOF
{"type":"job","id":"a1","kind":"auth","token":999999,"seed":7,"rounds":16}
{"type":"job","id":"q1","kind":"query","token":5,"seed":1,"challenges":["$C1"]}
{"type":"job","id":"f1","kind":"attack","token":12,"seed":3,"budget":300,"eval":100,"policy":{"flip_rate":0.1}}
{"type":"job","id":"d1","kind":"attack","token":77,"seed":4,"budget":300,"eval":100,"policy":{"drop_rate":0.2}}
{"type":"job","id":"b1","kind":"attack","token":500000,"seed":6,"budget":300,"eval":100,"policy":{"burst_rate":0.05,"burst_length":6}}
{"type":"job","id":"k1","kind":"attack","token":999998,"seed":8,"budget":300,"eval":100,"policy":{"flip_rate":0.02,"drop_rate":0.1,"query_budget":150}}
{"type":"job","id":"s1","kind":"attack","token":31337,"seed":9,"budget":700,"eval":100,"policy":{"flip_rate":0.05,"drop_rate":0.1},"session":"S1"}
{"type":"job","id":"L1a","kind":"attack","token":500000,"seed":11,"budget":600,"eval":100,"policy":{"flip_rate":0.03,"drop_rate":0.05,"query_budget":400},"session":"L1"}
{"type":"run"}
{"type":"job","id":"L1b","kind":"attack","token":500000,"seed":11,"budget":600,"eval":100,"policy":{"flip_rate":0.03,"drop_rate":0.05,"query_budget":900},"session":"L1"}
{"type":"job","id":"s1b","kind":"attack","token":31337,"seed":9,"budget":900,"eval":100,"policy":{"flip_rate":0.05,"drop_rate":0.1},"session":"S1"}
{"type":"drain"}
EOF

# The same stream cut at the wave boundary: wave 1 drains, wave 2 resumes.
sed -n '1,8p' "$work/jobs.txt" > "$work/wave1.txt"
echo '{"type":"drain"}' >> "$work/wave1.txt"
{
  sed -n '1p;3p;7p' "$work/jobs.txt"
  sed -n '10,$p' "$work/jobs.txt"
} > "$work/wave2.txt"

status=0
for side in old new; do
  eval "bin=\$$side"
  if ! "$bin" --tokens 1000000 --seed 42 --checkpoint "$work/$side/ck.snap" \
      < "$work/jobs.txt" > "$work/$side/stream.out"; then
    echo "serve_stream_diff: $side daemon failed" >&2
    exit 1
  fi
done

if cmp -s "$work/old/stream.out" "$work/new/stream.out"; then
  echo "  daemon streams byte-identical"
else
  echo "serve_stream_diff: daemon streams differ" >&2
  diff "$work/old/stream.out" "$work/new/stream.out" | head -20 >&2
  status=1
fi
for file in ck.snap ck.snap.sess-S1.snap ck.snap.sess-L1.snap; do
  if cmp -s "$work/old/$file" "$work/new/$file"; then
    echo "  $file byte-identical"
  else
    echo "serve_stream_diff: $file differs (or is missing)" >&2
    status=1
  fi
done
# Cross-binary resume: wave 1 by <first-daemon>, wave 2 by the new daemon.
for first in old new; do
  eval "bin=\$$first"
  dir="$work/cross_$first"
  if ! "$bin" --tokens 1000000 --seed 42 --checkpoint "$dir/ck.snap" \
      < "$work/wave1.txt" > "$dir/wave1.out" ||
     ! "$new" --tokens 1000000 --seed 42 --checkpoint "$dir/ck.snap" \
      --resume < "$work/wave2.txt" > "$dir/wave2.out"; then
    echo "serve_stream_diff: cross-binary leg ($first daemon first) failed" >&2
    exit 1
  fi
done
if cmp -s "$work/cross_old/wave2.out" "$work/cross_new/wave2.out"; then
  echo "  wave 2 resumed from old-daemon files byte-identical"
else
  echo "serve_stream_diff: wave 2 resumed from old-daemon files differs" >&2
  diff "$work/cross_old/wave2.out" "$work/cross_new/wave2.out" | head -20 >&2
  status=1
fi
for file in ck.snap ck.snap.sess-S1.snap ck.snap.sess-L1.snap; do
  if ! cmp -s "$work/cross_old/$file" "$work/cross_new/$file"; then
    echo "serve_stream_diff: cross-binary $file differs (or is missing)" >&2
    status=1
  fi
done
if [ "$(grep -c '"type":"resumed"' "$work/cross_new/wave2.out")" -ne 3 ]; then
  echo "serve_stream_diff: wave 2 did not resume the 3 journaled jobs" >&2
  status=1
fi

if ! grep -q '"status":"lockdown"' "$work/new/stream.out"; then
  echo "serve_stream_diff: no job tripped the lockdown" >&2
  status=1
fi
exit $status
