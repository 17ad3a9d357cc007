#!/usr/bin/env bash
# End-to-end run of the installed console script: usage: pipeline.sh WORK_DIR
#
# argparse builds some flags from dataclass fields, so every subcommand's
# parser is built once. Then a 2-layer model goes through synthetic-data,
# train, rerank and eval, once per optimizer: the benchmark's models have 1
# layer, so only this run reaches the full-length attention of a layer
# before the last end to end, next to the last layer's CLS-row query and
# the embedding scatter. Training runs 2 epochs, each written as it ends
# through a temp file and a rename: both epochs' checkpoints are loaded and
# serialized again, and must give their files' bytes back, and no *.tmp file
# may be left in the output directory. The Lion run is also scored with
# exponential gains, and the first-stage run as is.
set -euo pipefail
work=$1
reranklab --help
for cmd in train rerank eval bench-optim synthetic-data report; do
  reranklab "$cmd" --help > /dev/null
done
reranklab synthetic-data --out "$work/data" --triplets 32 --eval-queries 3 --candidates 8 --relevant 2
printf '%s\n' "[run]" "name = two-layer" "out_dir = $work/out" "[data]" \
  "triplets = $work/data/triplets.tsv" "[model]" "d_model = 16" "n_layers = 2" "n_heads = 2" \
  "d_ff = 32" "[train]" "optimizer = lion" "batch_size = 8" "epochs = 2" > "$work/run.ini"
for optimizer in lion adamw; do
  reranklab train --config "$work/run.ini" --optimizer "$optimizer"
  python - "$work/out/two-layer-$optimizer-epoch1.ckpt" "$work/out/two-layer-$optimizer-epoch2.ckpt" <<'EOF'
import sys
from pathlib import Path

from reranklab.checkpoint import checkpoint_text, load_checkpoint

for path in map(Path, sys.argv[1:]):
    bundle = load_checkpoint(path)
    if checkpoint_text(bundle.model, bundle.vocab, bundle.optimizer) != path.read_text(encoding="utf-8"):
        sys.exit(f"{path} does not reload bit-identically")
EOF
  if compgen -G "$work/out/*.tmp" > /dev/null; then
    echo "temp files left in $work/out:" "$work"/out/*.tmp >&2
    exit 1
  fi
  reranklab rerank --checkpoint "$work/out/two-layer-$optimizer-epoch2.ckpt" --queries "$work/data/queries.tsv" \
    --passages "$work/data/passages.tsv" --candidates "$work/data/candidates.run" --out "$work/reranked-$optimizer.run"
  reranklab eval --run "$work/reranked-$optimizer.run" --qrels "$work/data/qrels.txt" --out "$work/metrics-$optimizer"
done
reranklab eval --run "$work/reranked-lion.run" --qrels "$work/data/qrels.txt" --exponential-gain --binarize-at 2 --k 5
reranklab eval --run "$work/data/candidates.run" --qrels "$work/data/qrels.txt"
