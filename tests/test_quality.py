"""Quality table: held-out MAP of every loss and both hash families.

Marked slow, so the default test run deselects it; run it with
`python -m pytest -q -m slow`. The paper's claim is one framework for many
losses and hash functions. Here each of ksh, bre, splh, ee and exph,
with kernel and raw features, trains on 1000 clustered points (10
clusters, d = 16, spread 0.45) at m = 32, and 300 held-out queries are
ranked against the encoded training set. Every cell must reach a MAP
floor and beat a random-hyperplane model (Charikar's baseline) by a
margin, at two seeds. One random model's MAP spreads widely (0.180-0.240
over 30 draws at seed 21, standard deviation 0.014), so the baseline is
the mean over RANDOM_MODELS of them.
"""

import numpy as np
import pytest

from tshash.codegen import TrainConfig, learn_codes
from tshash.data import (
    KernelConfig,
    derive_seed,
    generate_clusters,
    rbf_bandwidth,
    sample_anchors,
    supervision_from_labels,
)
from tshash.hashfn import ClassifierConfig, HashModel, encode, train_model
from tshash.loss import LOSS_TAGS, LossKind
from tshash.retrieval import CodeDatabase, GroundTruth, evaluate

pytestmark = pytest.mark.slow

N, QUERIES, CLUSTERS, D, SPREAD = 1000, 300, 10, 16, 0.45
M, ANCHORS, EPOCHS, K = 32, 300, 20, 100
# ksh and bre take every label pair; the other losses take this many partners a point.
PARTNERS = 100
RANDOM_MODELS = 10

# Measured at seeds 21 / 22: random hyperplanes 0.203 / 0.206 (the mean of
# 10 models), learned cells 0.328-0.347 / 0.341-0.353.
MAP_MIN = 0.30
MARGIN_MIN = 0.10


def held_out_map(model, train, queries):
    gt = GroundTruth([np.flatnonzero(train.labels == label) for label in queries.labels])
    db = CodeDatabase(encode(model, train.features))
    return evaluate(db, encode(model, queries.features), gt, k=K).map


@pytest.mark.parametrize("seed", [21, 22])
def test_every_loss_beats_random_hyperplanes(seed):
    train = generate_clusters(N, CLUSTERS, D, SPREAD, seed)
    queries = generate_clusters(QUERIES, CLUSTERS, D, SPREAD, seed + 1000)

    # Gaussian hyperplanes through the training mean.
    random_maps = [
        held_out_map(HashModel(w, -(train.features.mean(axis=0) @ w), np.zeros(M, bool), "raw", D),
                     train, queries)
        for w in np.random.default_rng(seed).standard_normal((RANDOM_MODELS, D, M))
    ]
    random_map = float(np.mean(random_maps))

    kcfg = KernelConfig(sample_anchors(train, ANCHORS, derive_seed(seed, 3)), rbf_bandwidth(train, 1.0))
    ccfg = ClassifierConfig(epochs=EPOCHS, seed=derive_seed(seed, 2))
    table = {}
    for tag in LOSS_TAGS:
        partners = N - 1 if tag in ("ksh", "bre") else PARTNERS
        sup = supervision_from_labels(train, partners, derive_seed(seed, 0))
        codes, _ = learn_codes(sup, TrainConfig(LossKind(tag, M), seed=derive_seed(seed, 1)))
        for feature in ("kernel", "raw"):
            model = train_model(train, codes, feature, kcfg if feature == "kernel" else None, ccfg)
            table[tag, feature] = held_out_map(model, train, queries)

    lines = [f"random hyperplanes: {random_map:.3f} ({min(random_maps):.3f}-{max(random_maps):.3f})"]
    lines += [f"{tag} {feature}: {value:.3f}" for (tag, feature), value in table.items()]
    report = "\n".join(lines)
    for value in table.values():
        assert value >= MAP_MIN, report
        assert value - random_map >= MARGIN_MIN, report
