#!/bin/sh
# Regenerates results/fig2.tsv … fig8.tsv: every figure at 1, 2, 4 and 8
# threads with the default -ops (200 000 per thread per series) and
# -treebits (21). Each panel's series take turns, a tenth at a time, and
# report ratios to the figure's baseline, so host drift lands on every
# series alike; still, run it detached with nothing else on the machine.
cd "$(dirname "$0")/.." || exit 1
echo "start $(date +%H:%M:%S)" > results/progress.log
for fig in 2 3 4 5 6 7 8; do
  go run ./cmd/benchfig -fig "$fig" -threads 1,2,4,8 \
    > "results/fig$fig.tsv" 2> "results/fig$fig.err" || exit 1
  echo "fig$fig done $(date +%H:%M:%S)" >> results/progress.log
done
echo ALLDONE >> results/progress.log
