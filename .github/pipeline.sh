#!/usr/bin/env bash
# End-to-end run of the installed console script: usage: pipeline.sh WORK_DIR
#
# argparse builds some flags from dataclass fields, so every subcommand's
# parser is built once. Then a 2-layer model goes through synthetic-data,
# train, rerank and eval, once per optimizer: the benchmark's models have 1
# layer, so only this run reaches the full-length attention of a layer
# before the last end to end, next to the last layer's CLS-row query and
# the embedding scatter. It has 4 heads of width 4, so it is also the only
# end-to-end run of a head count other than the benchmark's 2 through the
# last layer's absorbed keys and values, in training and in rerank.
# Training runs 2 epochs, each written as it ends:
# both epochs' checkpoints are loaded and serialized again, and must give
# their files' bytes back. Each optimizer then trains again into
# out-again, and both epochs' checkpoints and the loss log must match the
# first run's byte for byte: a step's forward and backward buffers are
# reused from step to step, and this is the only end-to-end run of the
# full-length backward rules on them. The Lion run is also scored with exponential
# gains, and the first-stage run as is. A copy of the Lion reranked run
# that starts with a UTF-8 byte-order mark must give the same metrics.tsv
# bytes as the run itself. report prints the Lion run's stats,
# loss log and metrics. bench-optim then trains both optimizers from the
# same config, and tabulates a two-row --import file.
# Three malformed inputs must fail cleanly: a copy of the AdamW epoch-2
# checkpoint whose [config] claims 100000000 layers makes rerank exit 2
# within 60 seconds, without building that model, a candidates run that
# lists one line twice makes rerank exit 3, and a two-row --import file
# that gives one label twice makes bench-optim exit 3. None may print a
# traceback.
# Every file is written through a temp file and a rename, so at the end no
# *.tmp file may be left anywhere under WORK_DIR. Every directory a command
# populated must hold its manifest.json, and every file a manifest lists
# must be in that manifest's directory.
set -euo pipefail
work=$1
reranklab --help
for cmd in train rerank eval bench-optim synthetic-data report; do
  reranklab "$cmd" --help > /dev/null
done
reranklab synthetic-data --out "$work/data" --triplets 32 --eval-queries 3 --candidates 8 --relevant 2
printf '%s\n' "[run]" "name = two-layer" "out_dir = $work/out" "[data]" \
  "triplets = $work/data/triplets.tsv" "[model]" "d_model = 16" "n_layers = 2" "n_heads = 4" \
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
  reranklab train --config "$work/run.ini" --optimizer "$optimizer" --out "$work/out-again"
  for file in "two-layer-$optimizer-epoch1.ckpt" "two-layer-$optimizer-epoch2.ckpt" "loss-$optimizer.tsv"; do
    cmp "$work/out/$file" "$work/out-again/$file"
  done
  reranklab rerank --checkpoint "$work/out/two-layer-$optimizer-epoch2.ckpt" --queries "$work/data/queries.tsv" \
    --passages "$work/data/passages.tsv" --candidates "$work/data/candidates.run" --out "$work/reranked-$optimizer.run"
  reranklab eval --run "$work/reranked-$optimizer.run" --qrels "$work/data/qrels.txt" --out "$work/metrics-$optimizer"
done
reranklab eval --run "$work/reranked-lion.run" --qrels "$work/data/qrels.txt" --exponential-gain --binarize-at 2 --k 5
reranklab eval --run "$work/data/candidates.run" --qrels "$work/data/qrels.txt"
{ printf '\xef\xbb\xbf'; cat "$work/reranked-lion.run"; } > "$work/reranked-lion-bom.run"
reranklab eval --run "$work/reranked-lion-bom.run" --qrels "$work/data/qrels.txt" --out "$work/metrics-lion-bom"
cmp "$work/metrics-lion/metrics.tsv" "$work/metrics-lion-bom/metrics.tsv"
reranklab report "$work/out/stats-lion.txt" "$work/out/loss-lion.tsv" "$work/metrics-lion/metrics.tsv" > /dev/null
reranklab bench-optim --config "$work/run.ini" --out "$work/bench"
printf 'encoder-small\t33.09\t32.21\nencoder-long-context\t77.04\t74.35\n' > "$work/means.tsv"
reranklab bench-optim --import "$work/means.tsv" --out "$work/bench-import"
# expect_exit CODE COMMAND...: COMMAND must exit CODE without a Python traceback on stderr
expect_exit() {
  local want=$1 status=0
  shift
  "$@" 2> "$work/stderr.txt" || status=$?
  if [ "$status" -ne "$want" ] || grep -q Traceback "$work/stderr.txt"; then
    echo "expected exit $want without a traceback, got $status from: $*" >&2
    cat "$work/stderr.txt" >&2
    exit 1
  fi
}
sed 's/^n_layers=2$/n_layers=100000000/' "$work/out/two-layer-adamw-epoch2.ckpt" > "$work/many-layers.ckpt"
grep -qx 'n_layers=100000000' "$work/many-layers.ckpt"
expect_exit 2 timeout 60 reranklab rerank --checkpoint "$work/many-layers.ckpt" --queries "$work/data/queries.tsv" \
  --passages "$work/data/passages.tsv" --candidates "$work/data/candidates.run" --out "$work/many-layers.run"
{ cat "$work/data/candidates.run"; head -n 1 "$work/data/candidates.run"; } > "$work/repeated.run"
expect_exit 3 reranklab rerank --checkpoint "$work/out/two-layer-adamw-epoch2.ckpt" --queries "$work/data/queries.tsv" \
  --passages "$work/data/passages.tsv" --candidates "$work/repeated.run" --out "$work/repeated-reranked.run"
printf 'encoder-small\t33.09\t32.21\nencoder-small\t77.04\t74.35\n' > "$work/repeated-means.tsv"
expect_exit 3 reranklab bench-optim --import "$work/repeated-means.tsv"
leftover=$(find "$work" -name '*.tmp')
if [ -n "$leftover" ]; then
  echo "temp files left under $work:" $leftover >&2
  exit 1
fi
dirs=("$work/data" "$work/out" "$work/out-again" "$work"/metrics-* "$work/bench" "$work/bench-import")
for dir in "${dirs[@]}"; do
  if [ ! -f "$dir/manifest.json" ]; then
    echo "no manifest.json in $dir" >&2
    exit 1
  fi
done
python - "${dirs[@]}" <<'EOF'
import json
import sys
from pathlib import Path

for path in map(Path, sys.argv[1:]):
    listed = json.loads((path / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
    missing = [name for name in listed if not (path / name).is_file()]
    if missing:
        sys.exit(f"{path}/manifest.json lists files that are not there: {missing}")
EOF
