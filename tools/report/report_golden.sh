#!/bin/sh
# report_golden.sh MCT_SIM MCT_REPORT SOURCE_DIR WORKDIR
#
# Pins the mct_report command line byte for byte. Short deterministic
# mct_sim runs write the inputs into WORKDIR/in (an eval run with every
# telemetry surface and a manifest, a second-seed eval, an mct run
# that closes one decision with attribution, the pinned perf-smoke
# baseline run and a slower configuration of it); a hand-written
# mct-host-v1 document stands in for a host profile, whose real
# values are wall-clock measurements. Every mct_report invocation then
# runs from WORKDIR on relative paths, with its expected exit code,
# and the cksum of its stdout and of every file it writes (all under
# WORKDIR/out) is compared against tools/report/report_golden.txt.
#
# On a mismatch the diff names the invocation and the file that
# moved. WORKDIR/actual.txt then holds the new digests; copy it over
# tools/report/report_golden.txt only when the change of bytes is
# intended.
set -u
sim=$1
report=$2
src=$3
dir=$4

rm -rf "$dir" && mkdir -p "$dir/in" "$dir/out" && cd "$dir" || exit 1

# sim ARGS...: run mct_sim inside in/, stdout discarded.
sim() {
    (cd in && "$sim" "$@" > /dev/null) || {
        echo "report_golden: mct_sim $* failed" >&2
        exit 1
    }
}

# rep NAME STATUS ARGS...: run mct_report with stdout to out/NAME.stdout
# and require exit status STATUS.
rep() {
    name=$1
    want=$2
    shift 2
    "$report" "$@" > "out/$name.stdout"
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "report_golden: '$name' exited $got, want $want:" \
            "mct_report $*" >&2
        exit 1
    fi
}

# Two rules the eval run trips: one raises in the first window and
# clears in the second, the other raises in the last window and stays
# active.
cat > in/alerts.txt <<'EOF'
alert ipc-high
  metric sim.objective.ipc
  condition above
  threshold 0.70
  severity info
alert span-burst
  metric sim.spans.recorded
  condition above
  threshold 6000
  severity warn
EOF

cat > in/host.json <<'EOF'
{"schema":"mct-host-v1","mode":"eval","app":"lbm","config":"ba-_ew-_wq-_f1.0_s-_c","final":{"sim.mips":12.5,"sim.host.wall_seconds":0.088,"sim.host.cpu_seconds":0.086,"sim.host.cpu_util":0.977,"sim.host.rss_kb":9000,"sim.host.rss_hwm_kb":9120,"sim.host.heap_kb":2048,"sim.host.instructions":1100000,"sim.host.timeline_dropped":0},"periodic":[{"inst":600000,"delta":{"sim.mips":12.0,"sim.host.wall_seconds":0.05,"sim.host.cpu_seconds":0.049,"sim.host.rss_kb":9000}}],"stages":[{"name":"replay","seconds":0.008,"cpu_seconds":0.0079,"calls":1},{"name":"step","seconds":0.08,"calls":4}]}
EOF

cp "$src/bench/baseline/BENCH_baseline.json" in/base.json
sim eval --app lbm --warmup 100000 --measure 1000000 \
    --stats-every 250000 --stats-json s.json --trace-out t.jsonl \
    --spans-out sp.jsonl --span-sample 32 --timeline-out tl.json \
    --alerts alerts.txt --alerts-out al.jsonl --manifest-out m.json
sim eval --app lbm --warmup 100000 --measure 1000000 --seed 2 \
    --stats-json s2.json --manifest-out m2.json
sim mct --app lbm --warmup 50000 --insts 2500000 --stats-json ms.json \
    --provenance-out p.jsonl --manifest-out mm.json
sim eval --app lbm --warmup 200000 --measure 1000000 --span-sample 32 \
    --stats-json fresh.json
sim eval --app lbm --warmup 200000 --measure 1000000 --span-sample 32 \
    --fast 3.0 --stats-json slow.json

rep show_all 0 show --stats-json in/s.json --spans in/sp.jsonl \
    --host in/host.json --windows 2
rep show_stats 0 show --stats-json in/s.json
rep show_host 0 show --host in/host.json
rep explain_run 0 explain in/ms.json --provenance in/p.jsonl
rep explain_decisions 0 explain --provenance in/p.jsonl --decisions 1
rep timeline 0 timeline --timeline in/tl.json --alerts in/al.jsonl
rep diff_clean 0 diff --base in/base.json --new in/fresh.json \
    --thresholds "$src/tools/report/thresholds.txt" \
    --out out/diff_clean.json
rep diff_degraded 1 diff --base in/fresh.json --new in/slow.json \
    --out out/diff_degraded.json
rep aggregate 0 aggregate in/m.json in/m2.json in/mm.json \
    --group-by seed --out out/fleet.json

LC_ALL=C find out -type f | LC_ALL=C sort |
    while read -r f; do
        printf '%s %s\n' "$f" "$(cksum < "$f")"
    done > actual.txt
diff -u "$src/tools/report/report_golden.txt" actual.txt
