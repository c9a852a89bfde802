#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test
# suite. Run from the workspace root; everything must pass.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> perfbench fmt + clippy (a separate workspace; the steps above never see it)"
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> perfbench unit tests (a separate workspace; --workspace never builds it)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> obs smoke (full-trace flows, both placer backends + JSON validation)"
./target/release/obs_smoke
python3 -c "
import json
trace = json.load(open('traces/trace_smoke.json'))
assert len(trace['traceEvents']) >= 6, trace.keys()
metrics = json.load(open('traces/metrics_smoke.json'))
assert 'route/overflow' in metrics['series']
for counter in ('place/hpwl_cache_hits', 'place/hpwl_cache_inits'):
    assert metrics['counters'].get(counter, 0) > 0, (counter, metrics['counters'].keys())
print('obs trace OK:', len(trace['traceEvents']), 'events')
metrics = json.load(open('traces/metrics_smoke_analytical.json'))
assert 'place/nesterov_iters' in metrics['counters'], metrics['counters'].keys()
assert 'place/overflow' in metrics['series'], metrics['series'].keys()
print('analytical obs trace OK:', metrics['counters']['place/nesterov_iters'], 'nesterov iters')
"

echo "==> dse smoke (NDJSON server cold/warm sweep + persisted-cache validation)"
DSE_CACHE=target/dse_smoke_cache
rm -rf "$DSE_CACHE"
DSE_REQ='{"cmd":"ping"}
{"cmd":"sweep","spec":{"flow":"Macro-3D","tile":"mini","knobs":{"sizing_rounds":"1","route_iterations":"1"}},"axes":[{"knob":"macro_metals","values":["4","6"]},{"knob":"util_logic","values":["0.55","0.65"]}]}
{"cmd":"stats"}
{"cmd":"shutdown"}'
printf '%s\n' "$DSE_REQ" | ./target/release/dse_server --workers 2 --cache-dir "$DSE_CACHE" \
  > target/dse_smoke_cold.ndjson
printf '%s\n' "$DSE_REQ" | ./target/release/dse_server --workers 2 --cache-dir "$DSE_CACHE" \
  > target/dse_smoke_warm.ndjson
python3 -c "
import json
def load(path):
    return [json.loads(l) for l in open(path) if l.strip()]
cold, warm = load('target/dse_smoke_cold.ndjson'), load('target/dse_smoke_warm.ndjson')
for name, lines in (('cold', cold), ('warm', warm)):
    assert all(l['ok'] for l in lines), (name, lines)
    points = [l for l in lines if 'point' in l]
    assert len(points) == 4, (name, len(points))
    done = [l for l in lines if l.get('sweep_done')]
    assert len(done) == 1 and done[0]['points'] == 4, (name, done)
    assert done[0]['stats']['schema_version'] == 1, done[0]['stats']
cold_fp = [l['fingerprint'] for l in cold if 'point' in l]
warm_fp = [l['fingerprint'] for l in warm if 'point' in l]
assert cold_fp == warm_fp, 'cold/warm fingerprints differ'
stats = [l for l in warm if l.get('sweep_done')][0]['stats']
assert stats['cache_hits'] > 0, stats
assert stats['disk_hits'] > 0, stats
assert stats['flows_executed'] == 0, stats
print('dse server smoke OK: 4 points, warm cache hits', stats['cache_hits'])
"

echo "==> config refusals (range rules and a failed --out write, through the release binaries)"
# One server session: a config object with util_logic in percent and
# out-of-range knobs are each refused at submit, naming the field, with
# no job created and no counter moved. The session must still answer
# ping afterwards.
python3 - > target/dse_refusals_req.ndjson <<'PY'
import json
def submit(**spec):
    return {'cmd': 'submit', 'spec': dict(flow='Macro-3D', tile='mini', **spec)}
for request in [submit(config={'util_logic': 60}),
                submit(knobs={'halo_um': '-50'}), submit(knobs={'route_iterations': '0'}),
                submit(knobs={'scale': 'nan'}), submit(knobs={'budget_wall_s': 'nan'}),
                {'cmd': 'stats'}, {'cmd': 'ping'}]:
    print(json.dumps(request))
PY
./target/release/dse_server --workers 1 < target/dse_refusals_req.ndjson \
  > target/dse_refusals.ndjson
python3 -c "
import json
lines = [json.loads(l) for l in open('target/dse_refusals.ndjson') if l.strip()]
assert len(lines) == 7, lines
fields = ('util_logic', 'halo_um', 'route.iterations', 'scale', 'budget_wall_s')
for line, field in zip(lines[:5], fields):
    assert line['ok'] is False and field in line['error'], (field, line)
stats = lines[5]['stats']
for counter in ('flows_executed', 'jobs_done', 'jobs_failed', 'cache_misses'):
    assert stats[counter] == 0, (counter, stats)
assert lines[6] == {'ok': True, 'reply': 'pong'}, lines[6]
print('config refusals OK:', '; '.join(l['error'] for l in lines[:5]))
"
# a table that cannot be written is a failed run
if ./target/release/dse_sweep --tile mini --set route_iterations=1 --set sizing_rounds=0 \
  --workers 1 --out /dev/full 2> target/dse_sweep_full.err; then
  echo "dse_sweep --out /dev/full exited 0"
  exit 1
fi
grep -q "write table" target/dse_sweep_full.err
echo "dse_sweep --out /dev/full fails: $(tail -1 target/dse_sweep_full.err)"

# sweep_reuse_gate NAME AXIS AXIS DEPTHS: a 2x2 Macro-3D mini sweep on one
# worker, with stage reuse and again with --no-stage-reuse (the scratch
# run). Both must list 4 points; the sorted reuse depths must equal
# DEPTHS (a Python list); the scratch run must be all-cold; and every
# point's fingerprint and degraded flag must equal its scratch-run twin's
# (a restored route keeps its residual overflow).
sweep_reuse_gate() {
  local name=$1 depths=$4
  local sweep=(./target/release/dse_sweep --flow Macro-3D --tile mini --set route_iterations=2
    --axis "$2" --axis "$3" --workers 1)
  "${sweep[@]}" --out "target/sweep_${name}_on.txt"
  "${sweep[@]}" --no-stage-reuse --out "target/sweep_${name}_off.txt"
  python3 - "target/sweep_${name}_on.txt" "target/sweep_${name}_off.txt" "$depths" <<'PY'
import json, sys
def rows(path):
    out = {}
    for line in open(path):
        parts = line.split()
        if parts and parts[0].count('=') >= 2:  # '<axis>=..,<axis>=..'
            out[parts[0]] = (int(parts[6]), parts[7], parts[8])  # (reuse depth, fingerprint, degraded)
    return out
on, off = rows(sys.argv[1]), rows(sys.argv[2])
want = json.loads(sys.argv[3])
assert len(on) == 4 and len(off) == 4, (on, off)
depths = sorted(d for d, _, _ in on.values())
assert depths == want, 'reuse depths %s, want %s: %s' % (depths, want, on)
assert all(d == 0 for d, _, _ in off.values()), 'reuse off must run everything cold: %s' % off
for label in on:
    assert on[label][1] == off[label][1], 'fingerprint mismatch at %s' % label
    assert on[label][2] == off[label][2], 'degraded flag mismatch at %s' % label
print('%s: depths %s, fingerprints and degraded flags equal to scratch run' % (sys.argv[1], depths))
PY
}

echo "==> sweep-reuse gates (stage-graph prefix reuse, depth + determinism)"
# util_logic changes the floorplan key (two cold prefixes), sizing_rounds
# only the STA key (one depth-4 re-entry per prefix).
sweep_reuse_gate reuse util_logic=0.55,0.6 sizing_rounds=1,2 '[0, 0, 4, 4]'
# The F2F bond pitch keys only the STA stage (the router never reads
# it), so a pitch x sizing_rounds grid shares one routed prefix: one
# cold point, then three depth-4 re-entries on the restored route.
sweep_reuse_gate pitch f2f_pitch_um=1,10 sizing_rounds=1,2 '[0, 4, 4, 4]'

echo "CI OK"
