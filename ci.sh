#!/usr/bin/env sh
# Tier-1 verification: build, test, lint — one reproducible command.
# Works fully offline (proptest is a path-dep shim under crates/).
set -eux

cargo build --release
# The root manifest's `default-members` lists every crate, so this runs
# the whole workspace's tests.
cargo test -q
# The phy goldens once more in release mode (the run above is debug).
cargo test -q --release -p witag-phy
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc must build clean: the observability schema and Recorder contract
# live partly in doc comments, so doc warnings are treated as errors.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Static-assurance gate: witag-lint walks every workspace source file,
# builds the whole-workspace call graph, and fails (nonzero exit) on any
# per-file finding (determinism / panic-freedom / no_alloc / hygiene) or
# interprocedural finding (transitive no_alloc, panic reachability,
# determinism taint, obs-schema consistency). The committed
# witag-lint/2 JSON artifact must match what the tree produces — a stale
# LINT_report.json fails the drift check below.
cargo run -q --release -p witag-lint -- --threads 1 --json LINT_report.json
python3 -c "
import json
r = json.load(open('LINT_report.json'))
assert r['schema'] == 'witag-lint/2', r['schema']
assert r['findings'] == [], r['findings']
"
git diff --exit-code -- LINT_report.json

# Parallel determinism: the report must be byte-identical no matter how
# many worker threads scanned the files.
cargo run -q --release -p witag-lint -- --threads 4 --json /tmp/witag_lint_t4.json
cmp LINT_report.json /tmp/witag_lint_t4.json

# Sim-time scale tables: `net_scale` (fleet and metro fair-vs-serial,
# ARQ vs fountain) is deterministic, so its output must match the
# checked-in `net_scale` section of experiments_output.txt byte for byte.
# The claims those tables carry are pinned as tests in
# tests/net_determinism.rs; timing lives in perfbench/.
cargo run -q --release -p witag-bench --bin net_scale > /tmp/witag_net_scale.txt
python3 - <<'EOF'
import re
text = open('experiments_output.txt').read()
parts = re.split(r'^######## (\w+) ########\n', text, flags=re.M)
names = parts[1::2]
sections = dict(zip(names, parts[2::2]))
want = sections['net_scale']
# Sections are separated by one blank line; the last one is not.
if names[-1] != 'net_scale':
    want = want[:-1]
got = open('/tmp/witag_net_scale.txt').read()
assert got == want, 'net_scale output differs from experiments_output.txt'
print('net_scale: matches experiments_output.txt')
EOF

# Trace smoke: a parallel sweep streamed to a witag-obs/2 JSONL trace,
# then aggregated by `report`. Asserts the trace carries the schema
# header and that the aggregator sees events (docs/OBS_SCHEMA.md).
cargo run -q --release -p witag-cli -- sweep --from 1 --to 2 --step 1 \
    --rounds 10 --threads 2 --trace /tmp/witag_trace_smoke.jsonl
head -n 1 /tmp/witag_trace_smoke.jsonl | grep -q '"schema":"witag-obs/2"'
cargo run -q --release -p witag-cli -- report /tmp/witag_trace_smoke.jsonl \
    | grep -q 'sweep_point'

# Fleet smoke: a contended multi-tag run under the airtime-fair scheduler,
# traced and then aggregated — the report must see the net.* events.
cargo run -q --release -p witag-cli -- net --clients 2 --tags 8 \
    --scheduler fair --trace /tmp/witag_net_trace_smoke.jsonl
grep -q '"kind":"net.grant"' /tmp/witag_net_trace_smoke.jsonl
cargo run -q --release -p witag-cli -- report /tmp/witag_net_trace_smoke.jsonl \
    | grep -q 'fleet sessions'

# Rateless transport smoke: the same contended fleet over the fountain
# transport. The trace must carry the fountain session events and still
# aggregate cleanly.
cargo run -q --release -p witag-cli -- net --clients 2 --tags 8 \
    --scheduler fair --transport fountain \
    --trace /tmp/witag_fountain_trace_smoke.jsonl
grep -q '"kind":"net.session_done"' /tmp/witag_fountain_trace_smoke.jsonl
cargo run -q --release -p witag-cli -- report /tmp/witag_fountain_trace_smoke.jsonl \
    | grep -q 'fleet sessions'

# Metro smoke: the spatial-cell engine at toy scale. The trace must carry
# the metro-specific kinds (cell topology up front, a budget-epoch close
# per cell) and still aggregate cleanly through `report`.
cargo run -q --release -p witag-cli -- net --cells 4 --readers 4 --tags 200 \
    --duty 0.08 --horizon 10000 --trace /tmp/witag_metro_trace_smoke.jsonl
grep -q '"kind":"net.cell_assign"' /tmp/witag_metro_trace_smoke.jsonl
grep -q '"kind":"net.cell_epoch"' /tmp/witag_metro_trace_smoke.jsonl
cargo run -q --release -p witag-cli -- report /tmp/witag_metro_trace_smoke.jsonl \
    | grep -q 'fleet sessions'

# MOXcatter smoke: the spatial-multiplexing scenario — a streams × distance
# sweep traced to JSONL. The trace must carry the phy.mimo.* family (one
# sound per point, one stream row per spatial stream) and the sweep must
# show the headline effect: at 2 streams the single tag corrupts both
# block-ACK bitmaps.
cargo run -q --release -p witag-cli -- mox --streams 1,2 --from 1 --to 3 \
    --step 1 --threads 2 --trace /tmp/witag_mox_trace_smoke.jsonl
grep -q '"kind":"phy.mimo.sound"' /tmp/witag_mox_trace_smoke.jsonl
grep -q '"kind":"phy.mimo.stream"' /tmp/witag_mox_trace_smoke.jsonl
cargo run -q --release -p witag-cli -- report /tmp/witag_mox_trace_smoke.jsonl \
    | grep -q 'phy.mimo.sound'
python3 - <<'EOF'
import json
hits = {}
for line in open('/tmp/witag_mox_trace_smoke.jsonl'):
    e = json.loads(line)
    if e.get('kind') == 'phy.mimo.sound':
        streams = {}
        hits[e['index']] = (e['streams'], streams)
    elif e.get('kind') == 'phy.mimo.stream':
        hits[e['index']][1][e['stream']] = e['hit']
assert hits, 'mox trace carried no phy.mimo.sound events'
for index, (n, streams) in hits.items():
    assert len(streams) == n, f'point {index}: {len(streams)} stream rows, want {n}'
    if n >= 2:
        assert all(streams.values()), \
            f'point {index}: tag must corrupt every multiplexed stream, got {streams}'
print(f'mox gate: {len(hits)} sweep points — ok')
EOF

# Docs link check: every relative markdown link in the top-level docs and
# docs/ must resolve to a real file — ARCHITECTURE.md, DESIGN.md,
# EXPERIMENTS.md and OBS_SCHEMA.md cross-reference each other heavily and
# a rename must not leave dangling pointers.
python3 - <<'EOF'
import os, re
roots = ['README.md', 'DESIGN.md', 'EXPERIMENTS.md', 'ROADMAP.md'] + \
    [os.path.join('docs', f) for f in sorted(os.listdir('docs')) if f.endswith('.md')]
bad = []
for path in roots:
    text = open(path).read()
    for m in re.finditer(r'\]\(([^)\s]+)\)', text):
        target = m.group(1).split('#')[0]
        if not target or target.startswith(('http://', 'https://', 'mailto:')):
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
        if not os.path.exists(resolved):
            bad.append(f'{path}: {m.group(1)}')
assert not bad, '\n'.join(bad)
print(f'docs link check: {len(roots)} files ok')
EOF
