#!/usr/bin/env python3
"""Why combine features at all? A linear model before and after."""

import numpy as np

from twistnet.data import PRODUCT_SIGN, Pipeline, stratified_split, synth_interaction
from twistnet.featcomb import CombinationSpec
from twistnet.model import KIND_LOGISTIC, ModelConfig, build_baseline
from twistnet.ndcore import Rng
from twistnet.train import TrainConfig, evaluate, train_loop

# The ProductSign label is sign(x0 * x1). Each raw feature alone carries no
# information about it, so a linear model on raw inputs is stuck near chance.
# The m=2 products contain the answer as a single column.

ds = synth_interaction(2000, 6, PRODUCT_SIGN, 0.1, Rng(0))
train, _, test = stratified_split(ds, (0.8, 0.0, 0.2), Rng(0))


def fit_logistic(spec):
    """Test accuracy of a logistic model on the features ``spec`` combines
    (None: the raw ones), z-scored with train statistics."""
    pipeline, tr = Pipeline.fit(train, spec)
    model = build_baseline(KIND_LOGISTIC, tr.n_features, tr.n_classes, ModelConfig(seed=0))
    model, _ = train_loop(model, tr, TrainConfig(seed=0))
    return evaluate(model, pipeline.apply(test)).accuracy


acc_raw = fit_logistic(None)

# Same rows, but every pairwise product as its own column in place of the raw ones.
spec = CombinationSpec(m=2)
acc_comb = fit_logistic(spec)

print(f"logistic on raw features:      accuracy {acc_raw:.4f}")
print(f"logistic on m=2 combinations:  accuracy {acc_comb:.4f}")
print(f"lift: {acc_comb - acc_raw:+.4f}")

# The signal really does live in one combined column: correlation of each
# column with the label singles out comb_0_1.
_, comb = Pipeline.fit(train, spec)
corr = [abs(float(np.corrcoef(comb.features[:, j], comb.labels)[0, 1]))
        for j in range(comb.n_features)]
top = int(np.argmax(corr))
print(f"most label-correlated combined column: {comb.feature_names[top]} "
      f"(|r| = {corr[top]:.3f})")
