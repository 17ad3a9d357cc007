#!/usr/bin/env bash
# End-to-end run of the installed console script: usage: pipeline.sh WORK_DIR
#
# argparse builds some flags from dataclass fields, so every subcommand's
# parser is built once. Then a 2-layer model goes through synthetic-data,
# train, rerank and eval: the benchmark's models have 1 layer, so only this
# run reaches the full-length attention of a layer before the last end to
# end. The reranked run is also scored with exponential gains, and the
# first-stage run as is.
set -euo pipefail
work=$1
reranklab --help
for cmd in train rerank eval bench-optim synthetic-data report; do
  reranklab "$cmd" --help > /dev/null
done
reranklab synthetic-data --out "$work/data" --triplets 32 --eval-queries 3 --candidates 8 --relevant 2
printf '%s\n' "[run]" "name = two-layer" "out_dir = $work/out" "[data]" \
  "triplets = $work/data/triplets.tsv" "[model]" "d_model = 16" "n_layers = 2" "n_heads = 2" \
  "d_ff = 32" "[train]" "optimizer = lion" "batch_size = 8" "epochs = 1" > "$work/run.ini"
reranklab train --config "$work/run.ini"
reranklab rerank --checkpoint "$work/out/two-layer-lion-epoch1.ckpt" --queries "$work/data/queries.tsv" \
  --passages "$work/data/passages.tsv" --candidates "$work/data/candidates.run" --out "$work/reranked.run"
reranklab eval --run "$work/reranked.run" --qrels "$work/data/qrels.txt" --out "$work/metrics"
reranklab eval --run "$work/reranked.run" --qrels "$work/data/qrels.txt" --exponential-gain --binarize-at 2 --k 5
reranklab eval --run "$work/data/candidates.run" --qrels "$work/data/qrels.txt"
