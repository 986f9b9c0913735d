#!/bin/sh
# Regenerates results/fig<N>.tsv with the invocations that produced the
# recorded files: Figure 2 at 25 000 ops on 18-bit trees, Figures 3-8 at
# 12 000 ops on 17-bit trees (the host had one CPU and an evening).
# Run it detached, with nothing else on the machine.
cd "$(dirname "$0")/.." || exit 1
run() {
  fig=$1; shift
  go run ./cmd/benchfig -fig "$fig" "$@" -trials 2 -threads 1,4,8 \
    > "results/fig$fig.tsv" 2> "results/fig$fig.err" || exit 1
  echo "fig$fig done $(date +%H:%M:%S)" >> results/progress.log
}
run 2 -ops 25000 -treebits 18
for f in 3 4 5 6 7 8; do
  run "$f" -ops 12000 -treebits 17
done
echo ALLDONE >> results/progress.log
