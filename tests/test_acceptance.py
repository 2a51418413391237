"""Acceptance gate: seven criteria, one printed pass/fail line each.

Run under pytest (the conftest echoes the lines in the terminal summary) or
directly with ``python3 tests/test_acceptance.py``.
"""

import json
import tempfile
import time
from pathlib import Path

import numpy as np

import helpers
from helpers import central_diff, fd_wrt, rel_err

from twistnet.cli import main as cli_main
from twistnet.data import (
    PRODUCT_SIGN,
    THREE_WAY_PRODUCT_SIGN,
    Dataset,
    save_csv,
    stratified_split,
    synth_interaction,
    zscore_apply,
    zscore_fit,
)
from twistnet.featcomb import (
    MULTIPLICATIVE,
    PAIRWISE_SUM,
    CombinationSpec,
    combine_backward,
    combine_multiplicative,
    combine_pairwise_sum,
    enumerate_subsets,
    transform_dataset,
)
from twistnet.layers import (
    INFER,
    TRAIN,
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    ReLULayer,
    ResidualBlock,
    softmax_cross_entropy,
)
from twistnet.model import (
    KIND_LOGISTIC,
    ModelConfig,
    build_baseline,
    build_tcn,
)
from twistnet.ndcore import Rng
from twistnet.train import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    find_check_batch,
    grad_check_report,
    train_loop,
)

PER_LAYER_TOL = 1e-5
END_TO_END_TOL = 1e-4


def report(name, ok, detail):
    line = f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    helpers.ACCEPTANCE_LINES.append(line)
    return ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------

def _sum_objective(layer, x, c, mode=INFER, rng=None):
    def loss():
        y, _ = layer.forward(x, mode, rng)
        return float(np.sum(c * y))
    return loss


def layer_suite(seed):
    """Max relative FD error for each layer kind and both combiners."""
    r = np.random.default_rng(seed)
    errs = {}

    worst = 0.0
    for act in ("relu", "identity"):
        layer = Dense(r.normal(size=(3, 5)), r.normal(size=3), act)
        x = np.asarray(r.normal(size=(4, 5)))
        c = r.normal(size=(4, 3))
        _, cache = layer.forward(x)
        gx, (gw, gb) = layer.backward(cache, c)
        f = _sum_objective(layer, x, c)
        worst = max(worst, rel_err(gw, fd_wrt(layer.weights, f)),
                    rel_err(gb, fd_wrt(layer.bias, f)), rel_err(gx, fd_wrt(x, f)))
    errs["dense"] = worst

    layer = ReLULayer()
    x = np.asarray(r.normal(size=(4, 6)))
    c = r.normal(size=(4, 6))
    _, cache = layer.forward(x)
    gx, _ = layer.backward(cache, c)
    errs["relu"] = rel_err(gx, fd_wrt(x, _sum_objective(layer, x, c)))

    bn = BatchNorm.init(4)
    bn.gamma = r.normal(size=4) + 2.0
    bn.beta = r.normal(size=4)
    x = np.asarray(r.normal(size=(6, 4)))
    c = r.normal(size=(6, 4))
    _, cache = bn.forward(x, TRAIN)
    gx, (gg, gb) = bn.backward(cache, c)
    f = _sum_objective(bn, x, c, TRAIN)
    errs["batchnorm"] = max(rel_err(gx, fd_wrt(x, f)), rel_err(gg, fd_wrt(bn.gamma, f)),
                            rel_err(gb, fd_wrt(bn.beta, f)))

    # dropout's gradient-checkable path is the disabled one: exact identity
    drop = Dropout(0.5)
    x = np.asarray(r.normal(size=(4, 5)))
    c = r.normal(size=(4, 5))
    _, cache = drop.forward(x, INFER)
    gx, _ = drop.backward(cache, c)
    errs["dropout"] = rel_err(gx, fd_wrt(x, _sum_objective(drop, x, c)))

    block = ResidualBlock.init(4, Rng(seed))
    block.b1[:] = r.normal(size=4) * 0.1
    block.b2[:] = r.normal(size=4) * 0.1
    x = np.asarray(r.normal(size=(5, 4)))
    c = r.normal(size=(5, 4))
    _, cache = block.forward(x)
    gx, (g1, g2, g3, g4) = block.backward(cache, c)
    f = _sum_objective(block, x, c)
    errs["residual"] = max(
        rel_err(g1, fd_wrt(block.w1, f)), rel_err(g2, fd_wrt(block.b1, f)),
        rel_err(g3, fd_wrt(block.w2, f)), rel_err(g4, fd_wrt(block.b2, f)),
        rel_err(gx, fd_wrt(x, f)),
    )

    conv = Conv1D(r.normal(size=(2, 3)), r.normal(size=2), stride=2)
    x = np.asarray(r.normal(size=(3, 9)))
    c = r.normal(size=(3, 2 * conv.output_length(9)))
    _, cache = conv.forward(x)
    gx, (gk, gb) = conv.backward(cache, c)
    f = _sum_objective(conv, x, c)
    errs["conv1d"] = max(rel_err(gk, fd_wrt(conv.kernels, f)),
                         rel_err(gb, fd_wrt(conv.bias, f)), rel_err(gx, fd_wrt(x, f)))

    logits = np.asarray(r.normal(size=(5, 3)))
    labels = r.integers(0, 3, size=5)
    _, grad = softmax_cross_entropy(logits, labels)
    numeric = fd_wrt(logits, lambda: softmax_cross_entropy(logits, labels)[0])
    errs["softmax_ce"] = rel_err(grad, numeric)

    worst = 0.0
    x = r.normal(size=6) + 0.1
    for m in (2, 3):
        subsets = enumerate_subsets(6, m)
        upstream = r.normal(size=len(subsets))
        for approach, combine in ((MULTIPLICATIVE, combine_multiplicative),
                                  (PAIRWISE_SUM, combine_pairwise_sum)):
            analytic = combine_backward(x, subsets, approach, upstream)
            numeric = central_diff(lambda v: float(np.dot(upstream, combine(v, subsets))), x)
            worst = max(worst, rel_err(analytic, numeric))
    errs["combiners"] = worst
    return errs


def end_to_end_error(seed):
    raw = synth_interaction(200, 6, PRODUCT_SIGN, 0.1, Rng(seed))
    combined = transform_dataset(raw.features, CombinationSpec(m=2)).values
    feats = (combined - combined.mean(axis=0)) / combined.std(axis=0)
    model = build_tcn(feats.shape[1], 2, ModelConfig(seed=seed))
    batch, labels = find_check_batch(model, feats, raw.labels)
    overall, _ = grad_check_report(model, batch, labels)
    return overall


def criterion_1():
    start = time.perf_counter()
    layer_worst = {}
    for seed in range(5):
        for kind, err in layer_suite(seed).items():
            layer_worst[kind] = max(err, layer_worst.get(kind, 0.0))
    e2e = max(end_to_end_error(seed) for seed in range(5))
    elapsed = time.perf_counter() - start
    worst = max(layer_worst.values())
    ok = worst < PER_LAYER_TOL and e2e < END_TO_END_TOL and elapsed < 30.0
    detail = (f"per-layer max {worst:.2e} (tol 1e-5), end-to-end max {e2e:.2e} "
              f"(tol 1e-4), seeds 0-4, {elapsed:.1f}s (limit 30s)")
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 2: algebraic oracles
# ---------------------------------------------------------------------------

def criterion_2():
    r = np.random.default_rng(0)
    worst_identity = 0.0
    for _ in range(200):
        n = int(r.integers(3, 11))
        x = r.normal(size=n) * 3.0
        got = combine_pairwise_sum(x, [tuple(range(n))])[0]
        want = (x.sum() ** 2 - (x**2).sum()) / 2.0
        worst_identity = max(worst_identity, rel_err(got, want))

    worst_m2 = 0.0
    for _ in range(200):
        n = int(r.integers(2, 9))
        x = r.normal(size=n)
        subsets = enumerate_subsets(n, 2)
        a = combine_multiplicative(x, subsets)
        b = combine_pairwise_sum(x, subsets)
        worst_m2 = max(worst_m2, float(np.max(np.abs(a - b))))

    X = np.asarray(r.normal(size=(5, 7)))
    worst_perm = 0.0
    for spec in (CombinationSpec(m=2), CombinationSpec(m=3),
                 CombinationSpec(m=3, approach=PAIRWISE_SUM)):
        base = np.sort(transform_dataset(X, spec).values, axis=1)
        for _ in range(100):
            perm = r.permutation(7)
            shuffled = np.sort(transform_dataset(X[:, perm], spec).values, axis=1)
            worst_perm = max(worst_perm, float(np.max(np.abs(base - shuffled))))

    ok = worst_identity < 1e-9 and worst_m2 < 1e-12 and worst_perm < 1e-12
    detail = (f"full-set identity {worst_identity:.2e} (tol 1e-9), m=2 coincidence "
              f"{worst_m2:.2e} (tol 1e-12), permutation multiset {worst_perm:.2e} (tol 1e-12)")
    return ok, detail


# ---------------------------------------------------------------------------
# criteria 3 and 4: discriminating experiments
# ---------------------------------------------------------------------------

def _task_splits(rule, seed, m):
    raw = synth_interaction(2000, 6, rule, 0.1, Rng(seed))
    tr_raw, _, te_raw = stratified_split(raw, (0.8, 0.0, 0.2), Rng(seed))
    if m is None:
        tr, te = tr_raw, te_raw
    else:
        spec = CombinationSpec(m=m)
        tr_c = transform_dataset(tr_raw.features, spec).values
        te_c = transform_dataset(te_raw.features, spec).values
        names = [f"c{i}" for i in range(tr_c.shape[1])]
        tr = Dataset(tr_c, tr_raw.labels, raw.class_names, names)
        te = Dataset(te_c, te_raw.labels, raw.class_names, names)
    stats = zscore_fit(tr)
    return zscore_apply(tr, stats), zscore_apply(te, stats)


def criterion_3():
    start = time.perf_counter()
    raw_accs, comb_accs = [], []
    for seed in range(3):
        tr, te = _task_splits(PRODUCT_SIGN, seed, None)
        model = build_baseline(KIND_LOGISTIC, tr.n_features, 2, ModelConfig(seed=seed))
        model, _ = train_loop(model, tr, TrainConfig(seed=seed))
        raw_accs.append(evaluate(model, te).accuracy)
        tr, te = _task_splits(PRODUCT_SIGN, seed, 2)
        model = build_baseline(KIND_LOGISTIC, tr.n_features, 2, ModelConfig(seed=seed))
        model, _ = train_loop(model, tr, TrainConfig(seed=seed))
        comb_accs.append(evaluate(model, te).accuracy)
    elapsed = time.perf_counter() - start
    raw_mean = float(np.mean(raw_accs))
    comb_mean = float(np.mean(comb_accs))
    ok = raw_mean <= 0.60 and comb_mean >= 0.97 and elapsed < 60.0
    detail = (f"logistic raw {raw_mean:.4f} (need <= 0.60) vs m=2 combined "
              f"{comb_mean:.4f} (need >= 0.97), 3 seeds, {elapsed:.1f}s (limit 60s)")
    return ok, detail


def criterion_4():
    start = time.perf_counter()
    outcomes = []
    for rule, m, bar in ((PRODUCT_SIGN, 2, 0.95), (THREE_WAY_PRODUCT_SIGN, 3, 0.90)):
        accs = []
        for seed in range(3):
            tr, te = _task_splits(rule, seed, m)
            model = build_tcn(tr.n_features, 2, ModelConfig(seed=seed))
            model, _ = train_loop(model, tr, TrainConfig(seed=seed))
            accs.append(evaluate(model, te).accuracy)
        hits = sum(a >= bar for a in accs)
        outcomes.append((rule, bar, accs, hits))
    elapsed = time.perf_counter() - start
    ok = all(hits >= 2 for _, _, _, hits in outcomes) and elapsed < 300.0
    parts = [
        f"{rule} {hits}/3 seeds >= {bar} (accs {', '.join(f'{a:.3f}' for a in accs)})"
        for rule, bar, accs, hits in outcomes
    ]
    detail = "; ".join(parts) + f"; {elapsed:.1f}s (limit 300s)"
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 5: byte-level training determinism
# ---------------------------------------------------------------------------

def criterion_5(workdir):
    workdir = Path(workdir)
    csv_path = workdir / "c5_train.csv"
    save_csv(synth_interaction(60, 4, PRODUCT_SIGN, 0.1, Rng(0)), csv_path)
    outdir = workdir / "c5_run"
    cfg_path = workdir / "c5.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(csv_path),
        "label_column": "label",
        "output_dir": str(outdir),
        "train": {"max_epochs": 12},
    }), encoding="utf-8")

    if cli_main(["train", "--config", str(cfg_path)]) != 0:
        return False, "first training run exited nonzero"
    first_ckpt = (outdir / "checkpoint.json").read_text()
    first_results = (outdir / "results.json").read_text()
    if cli_main(["train", "--config", str(cfg_path)]) != 0:
        return False, "second training run exited nonzero"
    same_ckpt = (outdir / "checkpoint.json").read_text() == first_ckpt

    lines_a = first_results.splitlines()
    lines_b = (outdir / "results.json").read_text().splitlines()
    diff = [a for a, b in zip(lines_a, lines_b) if a != b]
    clean = (len(lines_a) == len(lines_b)
             and all("wall_time_seconds" in ln for ln in diff))
    ok = same_ckpt and clean
    detail = (f"checkpoints byte-identical: {same_ckpt}; results lines differing "
              f"beyond wall_time_seconds: {0 if clean else len(diff)}")
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 6: exact residual identity
# ---------------------------------------------------------------------------

def criterion_6():
    block = ResidualBlock(np.zeros((4, 4)), np.zeros(4), np.zeros((4, 4)), np.zeros(4))
    x = np.asarray(np.random.default_rng(0).normal(size=(6, 4)))
    y, cache = block.forward(x)
    upstream = np.asarray(np.random.default_rng(1).normal(size=(6, 4)))
    grad_x, _ = block.backward(cache, upstream)
    forward_exact = np.array_equal(y, x)
    backward_exact = np.array_equal(grad_x, upstream)
    ok = forward_exact and backward_exact
    detail = (f"zero-init block: forward identity exact {forward_exact}, "
              f"upstream passthrough exact {backward_exact} (0 ulp)")
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 7: Adam first-step oracle
# ---------------------------------------------------------------------------

def criterion_7():
    p = np.array([1.0])
    adam_step(p, np.array([2.0]), AdamState(p), TrainConfig())
    got = float(p[0])
    ok = abs(got - 0.9990) < 1e-6
    detail = f"w' = {got:.10f}, expected 0.9990 within 1e-6"
    return ok, detail


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    ok, line = report("C1 gradient suite", *criterion_1())
    assert ok, line


def test_criterion_2_algebraic_oracles():
    ok, line = report("C2 algebraic oracles", *criterion_2())
    assert ok, line


def test_criterion_3_interaction_linearization():
    ok, line = report("C3 interaction linearization", *criterion_3())
    assert ok, line


def test_criterion_4_full_stack_accuracy():
    ok, line = report("C4 full-stack accuracy", *criterion_4())
    assert ok, line


def test_criterion_5_training_determinism(tmp_path):
    ok, line = report("C5 training determinism", *criterion_5(tmp_path))
    assert ok, line


def test_criterion_6_residual_identity():
    ok, line = report("C6 residual identity", *criterion_6())
    assert ok, line


def test_criterion_7_adam_oracle():
    ok, line = report("C7 Adam oracle", *criterion_7())
    assert ok, line


if __name__ == "__main__":
    failures = 0
    with tempfile.TemporaryDirectory() as td:
        for name, fn in (
            ("C1 gradient suite", criterion_1),
            ("C2 algebraic oracles", criterion_2),
            ("C3 interaction linearization", criterion_3),
            ("C4 full-stack accuracy", criterion_4),
            ("C5 training determinism", lambda: criterion_5(td)),
            ("C6 residual identity", criterion_6),
            ("C7 Adam oracle", criterion_7),
        ):
            ok, _ = report(name, *fn())
            failures += 0 if ok else 1
    raise SystemExit(1 if failures else 0)
