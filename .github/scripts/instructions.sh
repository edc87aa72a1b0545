#!/bin/sh
# Exact instruction counts of the ftnoc binary on a fixed set of tiny
# shapes (ROADMAP item 20):
#
#     .github/scripts/instructions.sh BIN > INSTRUCTIONS.txt
#     .github/scripts/instructions.sh PARENT_BIN HEAD_BIN
#
# The first form prints one manifest line per shape. The second counts
# both binaries, prints both manifests, and exits 1 when a head shape's
# long run minus its short run (the instructions of the router-cycles
# between them) exceeds the parent's by more than SPREAD instructions
# (default 0): CI's `instructions` job. The whole-run counts also carry
# start-up, which moves by a few hundred instructions between builds
# whose simulated path is the same (relocations, layout), so the gate
# reads the difference, where start-up cancels.
#
# Each shape runs at two lengths under istep.c (built next to the binary
# if it is missing), which single-steps the whole process: the counts
# are exact and need no hardware counter, so two builds compare without
# pairs or a quiet host. `marginal` is (long - short) / (router-cycles of
# long - router-cycles of short): start-up cancels and what is left is
# the cost of one router-cycle of that shape. An instruction is not a
# nanosecond (cache misses and mispredicts do not show), so this sits
# beside the wall-clock pair protocol and does not replace it. Every
# shape is a 4x4 mesh (16 routers), each run well under a minute
# stepped; one binary's set takes eight to ten minutes.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# count ARG...: runs $bin ARG... under istep; sets `n` to its
# instruction count and `cycles` to the run's cycles (read from a `run`
# shape's --report-json).
count() {
    "$istep" "$bin" "$@" > "$tmp/out" 2> "$tmp/err" || {
        cat "$tmp/out" "$tmp/err" >&2
        echo "instructions.sh: $bin $* failed" >&2
        exit 1
    }
    n=$(sed -n 's/^istep: \([0-9]*\) instructions$/\1/p' "$tmp/err" | tail -n 1)
    cycles=$(sed -n 's/^{"cycles":\([0-9]*\),.*/\1/p' "$tmp/out")
}

# line NAME N1 CYCLES1 N2 CYCLES2
line() {
    awk -v name="$1" -v n1="$2" -v c1="$3" -v n2="$4" -v c2="$5" 'BEGIN {
        printf "%-10s %8.1f  %9d  %9d  %4d  %4d\n", name, (n2 - n1) / (16 * (c2 - c1)), n1, n2, c1, c2
    }'
}

# shape NAME SHORT LONG ARG...: one `run` shape at --packets SHORT and LONG.
shape() {
    name=$1 short=$2 long=$3
    shift 3
    count run --topology 4x4 --warmup 0 --seed 1 --report-json --packets "$short" "$@"
    n1=$n c1=$cycles
    count run --topology 4x4 --warmup 0 --seed 1 --report-json --packets "$long" "$@"
    line "$name" "$n1" "$c1" "$n" "$cycles"
}

# manifest BIN: every shape of BIN.
manifest() {
    bin=$1
    istep=$(dirname "$bin")/istep
    [ -x "$istep" ] || cc -O2 -o "$istep" "$here/istep.c"
    echo "# name  marginal  short  long  cycles-short  cycles-long: instructions"
    echo "# per router-cycle and per whole run, counted by .github/scripts/instructions.sh"
    echo "# with $(rustc --version)"
    shape light 10 30 --inj 0.05
    shape saturated 20 60 --inj 0.4
    shape faulted 20 50 --inj 0.2 --routing fta --error-rate 0.01 --fault link:5:e@15
    shape traced 20 50 --inj 0.25 --trace "$tmp/trace.jsonl"
    spec="w=4,h=4,inj=0.3,seed=1"
    count fuzz --repro "$spec,cycles=10"
    n1=$n
    count fuzz --repro "$spec,cycles=30"
    line fuzz "$n1" 10 "$n" 30
}

if [ $# -eq 1 ]; then
    manifest "$1"
    exit 0
fi
[ $# -eq 2 ] || {
    echo "usage: instructions.sh BIN | instructions.sh PARENT_BIN HEAD_BIN" >&2
    exit 2
}
manifest "$1" > "$tmp/parent.txt"
manifest "$2" > "$tmp/head.txt"
echo "parent ($1):"
cat "$tmp/parent.txt"
echo "head ($2):"
cat "$tmp/head.txt"
awk -v spread="${SPREAD:-0}" '
    /^#/ { next }
    FNR == NR { parent[$1] = $4 - $3; next }
    {
        head = $4 - $3
        if (head > parent[$1] + spread) {
            printf "%s: %d instructions between its two lengths against the parent'"'"'s %d (+%d, spread %d)\n", $1, head, parent[$1], head - parent[$1], spread
            bad = 1
        }
    }
    END { exit bad }
' "$tmp/parent.txt" "$tmp/head.txt"
