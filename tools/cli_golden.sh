#!/bin/sh
# cli_golden.sh MCT_SIM SOURCE_DIR WORKDIR
#
# Pins the mct_sim command line byte for byte. Runs a fixed set of
# short invocations, one directory each under WORKDIR, and compares
# the cksum of every output they leave behind (stdout plus every file
# written) against tools/cli_golden.txt. Host-profile outputs are
# wall-clock measurements and are left out.
#
# On a mismatch the diff names the invocation and the file that
# moved. WORKDIR/actual.txt then holds the new digests; copy it over
# tools/cli_golden.txt only when the change of bytes is intended.
set -u
sim=$1
src=$2
dir=$3
alerts=$src/tools/report/alerts.txt

rm -rf "$dir" && mkdir -p "$dir" && cd "$dir" || exit 1

# run DIR OUT ARGS...: run mct_sim inside DIR with stdout to DIR/OUT.
run() {
    d=$1
    o=$2
    shift 2
    mkdir -p "$d"
    (cd "$d" && "$sim" "$@" > "$o") || {
        echo "cli_golden: '$d' failed: mct_sim $*" >&2
        exit 1
    }
}

run eval_plain stdout eval --app lbm --warmup 100000 --measure 1000000
run eval_stats_every stdout eval --app milc --warmup 50000 \
    --measure 400000 --stats-every 100000
run eval_surfaces stdout eval --app lbm --warmup 100000 \
    --measure 1000000 --stats-every 250000 --stats-json s.json \
    --trace-out t.jsonl --trace-chrome tc.json --spans-out sp.jsonl \
    --span-sample 32 --spans-chrome spc.json --timeline-out tl.json \
    --alerts "$alerts" --alerts-out al.jsonl --manifest-out m.json
run eval_faults stdout eval --app lbm --warmup 100000 --measure 1000000 \
    --faults drift --fault-seed 7 --stats-every 200000 \
    --stats-json s.json --alerts "$alerts" --alerts-out al.jsonl \
    --timeline-out tl.json
run eval_ckpt stdout eval --app lbm --warmup 100000 --measure 1000000 \
    --stats-every 250000 --stats-json s.json --ckpt-out ck \
    --ckpt-every 300000
run mct_surfaces stdout mct --app lbm --warmup 50000 --insts 2500000 \
    --stats-every 500000 --stats-json s.json --provenance-out p.jsonl \
    --provenance-chrome pc.json
run mct_ckpt stdout mct --app lbm --warmup 50000 --insts 2500000 \
    --stats-json s.json --ckpt-out ck --ckpt-every 700000
# Resuming the finished run replays its last stretch from the newest
# slot; the resumed stats document must equal the uninterrupted one.
run mct_ckpt resumed.stdout mct --app lbm --warmup 50000 \
    --insts 2500000 --stats-json resumed.json --ckpt-out ck \
    --ckpt-every 700000 --resume
run trace stdout trace --app milc --ops 5000 --out milc.trace \
    --manifest-out m.json
run trace replay.stdout eval --trace milc.trace --warmup 20000 \
    --measure 40000

LC_ALL=C find . -type f ! -name actual.txt | LC_ALL=C sort |
    while read -r f; do
        printf '%s %s\n' "${f#./}" "$(cksum < "$f")"
    done > actual.txt
diff -u "$src/tools/cli_golden.txt" actual.txt
