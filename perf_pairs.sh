#!/usr/bin/env bash
# Alternating parent/change perfbench pairs: the measurement protocol
# for a performance claim on a host whose speed drifts from minute to
# minute (see perfbench/README.md, "Noise").
#
#   ./perf_pairs.sh <parent-rev> [--workload W] [--seed S] [--seconds T]
#                   [--pairs N] [--trace]
#
# The change is the working tree; the parent is <parent-rev>, exported
# with `git archive` into target/perf_pairs/<sha>/ (a plain tree, so no
# worktree registration is left in .git). Both sides build perfbench
# in release mode, then run N pairs of
#   perfbench --workload W --seed S --seconds T --trace 0
# back to back, the side that runs first alternating (the parent first
# in odd pairs). Defaults: dse_sweep, seed 17, 50 s, 10 pairs.
#
# Prints every pair's end-to-end metrics, then per metric each side's
# median and quartiles, the pairs the change won (direction from
# BENCHMARK.json) and the median gap against the parent's quartile
# spread, and whether each pair's op fingerprints
# (.perfbench/<W>-s<S>-t0.json) matched. Raw result lines land in
# target/perf_pairs/runs/. Exits non-zero if a run fails, reports an
# incorrect op, or the fingerprint lists differ.
#
# With --trace the pairs run `--trace 1` instead, and the script
# prints, for each per-layer metric of BENCHMARK.json, each side's
# median and the median over the pairs of the change/parent ratio
# (a ratio of two zeros reads 1). The op fingerprints then come from
# .perfbench/<W>-s<S>-t1.json, and the raw files carry a -t1 tag.
set -euo pipefail
cd "$(dirname "$0")"

usage() {
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
workload=dse_sweep seed=17 seconds=50 pairs=10 trace=0
while [ $# -gt 0 ]; do
    if [ "$1" = --trace ]; then
        trace=1
        shift
        continue
    fi
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --pairs) pairs=$2 ;;
        *) usage ;;
    esac
    shift 2
done

sha=$(git rev-parse --verify "$parent_rev^{commit}")
root=$PWD
work=$root/target/perf_pairs
parent_dir=$work/$sha
runs=$work/runs
mkdir -p "$runs"

if [ ! -f "$parent_dir/perfbench/Cargo.toml" ]; then
    echo "==> exporting $parent_rev ($sha) to $parent_dir"
    rm -rf "$parent_dir.tmp"
    mkdir -p "$parent_dir.tmp"
    git archive "$sha" | tar -x -C "$parent_dir.tmp"
    mv "$parent_dir.tmp" "$parent_dir"
fi

for side_dir in "$parent_dir" "$root"; do
    echo "==> building perfbench in $side_dir"
    (cd "$side_dir" && cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml)
done

# untraced runs keep their untagged file names
tag=$workload-s$seed
[ "$trace" = 0 ] || tag=$tag-t1

# run <side> <dir> <pair>: one perfbench run; keeps its result line
# and a copy of its op-fingerprint record
run() {
    local side=$1 dir=$2 pair=$3
    local out=$runs/$tag-$side-$pair
    (cd "$dir" && ./perfbench/target/release/perfbench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace "$trace") > "$out.log" 2> "$out.err" || {
        echo "perfbench failed on the $side side, pair $pair (see $out.err)" >&2
        exit 1
    }
    tail -n 1 "$out.log" > "$out.json"
    cp "$dir/.perfbench/$workload-s$seed-t$trace.json" "$out.record.json"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent_dir" "$pair"
        run change "$root" "$pair"
    else
        run change "$root" "$pair"
        run parent "$parent_dir" "$pair"
    fi
    echo "pair $pair done ($(date +%H:%M:%S))"
done

python3 - "$runs" "$workload" "$seed" "$pairs" "$tag" "$trace" <<'EOF'
import json, statistics, sys

runs, workload, seed, pairs, tag = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5]
trace = sys.argv[6] == '1'
bench = json.load(open('BENCHMARK.json'))
better = {m['name']: m['better'] for m in bench['end_to_end']}
names = list(better)

def load(side, pair):
    base = '%s/%s-%s-%d' % (runs, tag, side, pair)
    result = json.load(open(base + '.json'))
    ops = [(o['label'], o['fingerprint']) for o in json.load(open(base + '.record.json'))['ops']]
    return result, ops

if trace:
    layers = [m['name'] for m in bench['per_layer']]
    ok = True
    values = {side: {m: [] for m in layers} for side in ('parent', 'change')}
    ratios = {m: [] for m in layers}
    print('\n%s, seed %s, %d traced pairs (parent first in odd pairs)' % (workload, seed, pairs))
    for pair in range(1, pairs + 1):
        (p, p_ops), (c, c_ops) = load('parent', pair), load('change', pair)
        same = p_ops == c_ops
        ok &= same and p['correct'] and c['correct']
        for m in layers:
            pv, cv = p['metrics'][m]['value'], c['metrics'][m]['value']
            values['parent'][m].append(pv)
            values['change'][m].append(cv)
            ratios[m].append(cv / pv if pv else (1.0 if cv == 0 else float('inf')))
        print('pair %2d  ops %d/%d failed %d/%d  fingerprints %s' % (
            pair, p['attempted'], c['attempted'], p['failed'], c['failed'],
            'same' if same else 'DIFFER'))
    print('\n%-28s %14s %14s  %s' % ('metric', 'parent median', 'change median',
                                     'change/parent, median of pairs'))
    for m in layers:
        pm, cm = statistics.median(values['parent'][m]), statistics.median(values['change'][m])
        note = '  (identical in every pair)' if values['parent'][m] == values['change'][m] else ''
        print('%-28s %14.6g %14.6g  %.3f%s' % (m, pm, cm, statistics.median(ratios[m]), note))
    print('\nop fingerprints: %s' % ('identical in every pair' if ok else 'MISMATCH or failed ops'))
    sys.exit(0 if ok else 1)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method='inclusive')
    return q1, q2, q3

ok = True
values = {side: {m: [] for m in names} for side in ('parent', 'change')}
wins = {m: 0 for m in names}
print('\n%s, seed %s, %d pairs (parent first in odd pairs)' % (workload, seed, pairs))
for pair in range(1, pairs + 1):
    (p, p_ops), (c, c_ops) = load('parent', pair), load('change', pair)
    same = p_ops == c_ops
    ok &= same and p['correct'] and c['correct']
    cells = []
    for m in names:
        pv, cv = p['metrics'][m]['value'], c['metrics'][m]['value']
        values['parent'][m].append(pv)
        values['change'][m].append(cv)
        won = cv < pv if better[m] == 'lower' else cv > pv
        wins[m] += won
        cells.append('%s %.4g/%.4g' % (m, pv, cv))
    print('pair %2d  %s  ops %d/%d failed %d/%d  fingerprints %s' % (
        pair, '  '.join(cells), p['attempted'], c['attempted'], p['failed'], c['failed'],
        'same' if same else 'DIFFER'))

print('\n%-14s %-30s %-30s %s' % ('metric', 'parent median [q1, q3]', 'change median [q1, q3]',
                                  'change better, delta, |gap| vs parent q3-q1'))
for m in names:
    p1, pm, p3 = quartiles(values['parent'][m])
    c1, cm, c3 = quartiles(values['change'][m])
    delta = (cm - pm) / pm * 100 if pm else 0.0
    gap, spread = abs(cm - pm), p3 - p1
    if values['parent'][m] == values['change'][m]:
        verdict = 'identical in every pair'
    else:
        verdict = 'resolved' if gap > spread else 'unresolved'
    print('%-14s %-30s %-30s %d/%d, %+.1f %%, %.4g vs %.4g (%s)' % (
        m, '%.4g [%.4g, %.4g]' % (pm, p1, p3), '%.4g [%.4g, %.4g]' % (cm, c1, c3),
        wins[m], pairs, delta, gap, spread, verdict))
print('\nop fingerprints: %s' % ('identical in every pair' if ok else 'MISMATCH or failed ops'))
sys.exit(0 if ok else 1)
EOF
