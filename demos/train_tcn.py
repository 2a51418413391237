#!/usr/bin/env python3
"""End-to-end TCN training run on a synthetic interaction task."""

from twistnet.data import PRODUCT_SIGN, Pipeline, stratified_split, synth_interaction
from twistnet.featcomb import CombinationSpec
from twistnet.model import ModelConfig, build_tcn
from twistnet.ndcore import Rng
from twistnet.train import TrainConfig, evaluate, train_loop

# Data: 2000 samples whose label is the sign of x0*x1, 80/20 train/test.
ds = synth_interaction(2000, 6, PRODUCT_SIGN, 0.1, Rng(0))
train, _, test = stratified_split(ds, (0.8, 0.0, 0.2), Rng(0))

# Combine features with m=2 products, then z-score with train statistics;
# the fitted pipeline applies the same steps to the test split.
pipeline, train_c = Pipeline.fit(train, CombinationSpec(m=2))
test_c = pipeline.apply(test)
print(f"features: {ds.n_features} raw -> {train_c.n_features} combined")

# Default stack: dense(20) -> relu -> residual -> batchnorm -> relu
# -> dropout(0.5) -> dense(10) -> relu -> dense(2), trained with Adam and
# early stopping.
model = build_tcn(train_c.n_features, train_c.n_classes, ModelConfig(seed=0))
print(f"model: {model.parameter_count()} parameters in {len(model.layers)} layers")

cfg = TrainConfig(seed=0)
model, history = train_loop(model, train_c, cfg)

# A sparse view of the loss curve; a tenth of the train split served as the
# early-stopping validation set.
records = history.epochs
shown = {0, len(records) - 1, history.best_epoch - 1}
shown.update(range(4, len(records), 5))
for i in sorted(shown):
    r = records[i]
    print(f"epoch {r.epoch:3d}  train loss {r.train_loss:.4f}  "
          f"val loss {r.val_loss:.4f}  val acc {r.val_accuracy:.3f}")
print(f"stopped after epoch {history.stopped_epoch}, "
      f"kept weights from epoch {history.best_epoch}")

result = evaluate(model, test_c)
print(f"test accuracy {result.accuracy:.4f}, mean loss {result.mean_loss:.4f}")
print("confusion (rows true, cols predicted):")
for row, name in zip(result.confusion, test_c.class_names):
    print(f"  {name:>4s} {row.tolist()}")
