"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with ``pytest -s`` to see the
lines as they happen).

Criteria 7-10 evaluate the full desk-scale pipeline, which runs once as a
session fixture (several minutes of CPU time).
"""

import math
import threading
import time

import numpy as np
import pytest

from ftlwss import baselines, federation as fed, harness, multicoset as mc, pruning
from ftlwss import tensornet as tn


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("pipeline")
    config = harness.scaled_default()
    start = time.monotonic()
    result = harness.run_pipeline(config, outdir)
    elapsed = time.monotonic() - start
    return config, result, elapsed


def rows_at(result, snr_db):
    return {(r.domain, r.scheme): r.p_acc for r in result.rows if r.snr_db == snr_db}


def test_criterion_1_measurement_matrix_orthogonality():
    # 1000 random valid coset patterns, L in 4..64, unit Nyquist period
    rng = np.random.default_rng(1)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        ell = int(rng.integers(4, 65))
        n_cosets = int(rng.integers(1, ell + 1))
        offsets = tuple(int(c) for c in np.sort(rng.choice(ell, n_cosets, replace=False)))
        m = mc.build_measurement_matrix(mc.CosetPattern(offsets, ell, 1.0))
        gram = m.values @ m.values.conj().T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(n_cosets) / ell))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report("1 (measurement-matrix orthogonality)", ok,
           f"max |A A^H - I/(L T^2)| = {worst:.3e} over 1000 patterns in {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_2_gradient_correctness():
    # full finite-difference check, double precision, every layer type;
    # two valid 3x3 convolutions force at least 5 input rows, so the tiny
    # net uses 6x8 rather than the nominal 4x8 (see the decisions ledger)
    spec = tn.DetectorSpec(in_rows=6, in_cols=8, conv1_filters=4,
                           conv2_filters=3, hidden_units=8)
    rng = np.random.default_rng(2)
    weights = tn.init_weights(spec, rng, dtype=np.float64)
    x = rng.normal(size=(2, 6, 8, 2))
    labels = (rng.random((2, 6)) < 0.4).astype(np.int8)
    start = time.monotonic()
    worst_eval = tn.finite_difference_check(spec, weights, x, labels)
    # train mode under the spec's own dropout rates (0.2 and 0.5), every
    # pass drawing one set of masks from the seed
    worst_train = tn.finite_difference_check(spec, weights, x, labels, dropout_seed=2)
    elapsed = time.monotonic() - start
    worst = max(worst_eval, worst_train)
    ok = worst < 1e-6 and elapsed < 30.0
    report("2 (gradient correctness)", ok,
           f"max rel err {worst:.3e} (eval {worst_eval:.3e}, fixed-dropout {worst_train:.3e}) "
           f"in {elapsed:.2f}s over all {sum(a.size for a in weights.arrays().values())} parameters")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_3_pruning_accounting():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(20, 500))
        weights = rng.normal(size=n)
        while len(np.unique(np.abs(weights))) != n:
            weights = rng.normal(size=n)
        for ratio in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            threshold = pruning.pruning_threshold(weights, ratio)
            _, mask = pruning.apply_pruning(weights, threshold)
            assert int((~mask).sum()) == math.ceil(ratio * n) - 1, (n, ratio)
            checked += 1

    # mask survives training epochs with zero leakage
    spec = tn.DetectorSpec(in_rows=6, in_cols=8, conv1_filters=3,
                           conv2_filters=2, hidden_units=6)
    model = tn.init_weights(spec, rng, dtype=np.float32)
    pruned, _ = pruning.prune_model(model, 0.8)
    features = rng.normal(size=(24, 6, 8, 2)).astype(np.float32)
    labels = (rng.random((24, 6)) < 0.4).astype(np.int8)
    tuned = pruning.fine_tune(spec, pruned, features, labels, features[:8], labels[:8],
                              np.random.default_rng(4), lr=0.05, batch_size=8, epochs=3)
    leaked = int((tuned.weights.fc1_w[~pruned.prune_mask] != 0).sum())
    ok = leaked == 0
    report("3 (pruning accounting)", ok,
           f"{checked} ratio/vector combinations exact; {leaked} mask leaks after 3 epochs")
    assert leaked == 0


TOY_SPEC = tn.DetectorSpec(in_rows=5, in_cols=5, conv1_filters=1, conv2_filters=1,
                           hidden_units=2, dropout_conv=0.2, dropout_fc=0.5)


def _toy_sus(n_sus, rng):
    sus = []
    for i in range(n_sus):
        features = rng.normal(size=(12, 5, 5, 2)).astype(np.float32)
        labels = (rng.random((12, 5)) < 0.4).astype(np.int8)
        sus.append(fed.LocalSu(su_id=i + 1, features=features, labels=labels))
    return sus


def _straight_line_replay(spec, init, sus, cfg, seed):
    """Independent single-process transcription of the adaptation procedure:
    initialize the global model, then for every round run each SU's local
    epochs (domain-specific updates plus gradient accumulation) and apply the
    size-weighted server step. No transports, no message codec.
    """
    theta = init.copy()
    for round_idx in range(cfg.rounds):
        uploads = []
        for su in sorted(sus, key=lambda s: s.su_id):
            rng = fed.su_round_rng(seed, su.su_id, round_idx)
            local = theta.copy()
            acc = {n: np.zeros_like(getattr(local, n)) for n in tn.DOMAIN_SPECIFIC_PARAMS}
            count = su.features.shape[0]
            for _ in range(cfg.local_epochs):
                order = rng.permutation(count)
                for start in range(0, count, cfg.batch_size):
                    idx = order[start:start + cfg.batch_size]
                    _, cache = tn.forward(spec, local, su.features[idx], train=True, rng=rng)
                    grads = {n: g for n, g in tn.backward(spec, local, cache, su.labels[idx]).items()
                             if n in tn.DOMAIN_SPECIFIC_PARAMS}
                    local = tn.sgd_step(local, grads, cfg.lr)
                    for name in tn.DOMAIN_SPECIFIC_PARAMS:
                        acc[name] += grads[name]
            uploads.append((su.su_id, count, acc))
        total = sum(count for _, count, _ in uploads)
        step = {n: np.zeros_like(getattr(theta, n)) for n in tn.DOMAIN_SPECIFIC_PARAMS}
        for _, count, acc in uploads:
            coeff = np.float32(count / total)
            for name in tn.DOMAIN_SPECIFIC_PARAMS:
                step[name] += coeff * acc[name]
        fields = dict(theta.arrays())
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            fields[name] = fields[name] - np.float32(cfg.lr) * step[name]
        mask = theta.prune_mask
        if mask is not None:
            fields["fc1_w"] = np.where(mask, fields["fc1_w"], np.float32(0))
            mask = mask.copy()
        theta = tn.ModelWeights(**fields, prune_mask=mask)
    return theta


def test_criterion_4_adaptation_round_oracle_equivalence():
    rng = np.random.default_rng(5)
    init = tn.init_weights(TOY_SPEC, rng, dtype=np.float32)
    mask = rng.random(init.fc1_w.shape) > 0.3
    init.fc1_w = np.where(mask, init.fc1_w, 0.0).astype(np.float32)
    init.prune_mask = mask
    n_params = sum(a.size for a in init.arrays().values())
    sus = _toy_sus(3, rng)
    cfg = fed.FtlConfig(n_sus=3, rounds=5, local_epochs=2, batch_size=6, lr=0.05)
    seed = 99

    replayed = _straight_line_replay(TOY_SPEC, init, sus, cfg, seed)
    inproc = fed.run_ftl(TOY_SPEC, init, cfg, fed.InProcessTransport(sus, cfg, seed))

    server = fed.SocketServerTransport(n_sus=3, timeout_s=30.0, max_retries=1)
    workers = [threading.Thread(target=fed.run_su_client,
                                args=(server.address, su.su_id, su.features, su.labels, cfg, seed),
                                daemon=True) for su in sus]
    for worker in workers:
        worker.start()
    try:
        socketed = fed.run_ftl(TOY_SPEC, init, cfg, server)
    finally:
        server.close()
        for worker in workers:
            worker.join(timeout=10)

    inproc_exact = all(np.array_equal(getattr(inproc, n), getattr(replayed, n))
                       for n in tn.PARAM_NAMES)
    socket_exact = all(np.array_equal(getattr(socketed, n), getattr(inproc, n))
                       for n in tn.PARAM_NAMES)
    gf_frozen = all(getattr(inproc, n).tobytes() == getattr(init, n).tobytes()
                    for n in tn.GENERAL_FEATURE_PARAMS)
    ok = inproc_exact and socket_exact and gf_frozen
    report("4 (adaptation oracle equivalence)", ok,
           f"toy model {n_params} params, 5 rounds: replay bit-exact={inproc_exact}, "
           f"socket 0 ULP={socket_exact}, general-feature frozen={gf_frozen}")
    assert inproc_exact and socket_exact and gf_frozen


def test_criterion_5_aggregation_weighted_mean_oracle():
    rng = np.random.default_rng(6)
    spec = TOY_SPEC
    weights = tn.init_weights(spec, rng, dtype=np.float64)
    shapes = spec.param_shapes()
    uploads, sizes = [], []
    for su_id in range(1, 6):
        size = int(rng.integers(1, 1000))
        sizes.append(size)
        uploads.append(fed.GradientUpload(
            round_idx=0, su_id=su_id, n_samples=size,
            **{n: rng.normal(size=shapes[n]) for n in tn.DOMAIN_SPECIFIC_PARAMS}))
    lr = 0.37
    out = fed.aggregate(weights, uploads, lr)
    total = sum(sizes)
    worst = 0.0
    for name in tn.DOMAIN_SPECIFIC_PARAMS:
        expected = getattr(weights, name).astype(np.float64).copy()
        mean = sum((size / total) * getattr(up, name) for size, up in zip(sizes, uploads))
        expected -= lr * mean
        worst = max(worst, float(np.max(np.abs(getattr(out, name) - expected))))
    ok = worst < 1e-12
    report("5 (aggregation weighted-mean oracle)", ok,
           f"max abs diff vs independent sum = {worst:.3e} (double precision)")
    assert worst < 1e-12


def test_criterion_6_somp_recovery():
    # identifiable regime: noiseless row-sparse measurements on the deployed
    # full-spark pattern, sparsity below the coset count (support recovery at
    # sparsity == coset count is provably non-identifiable: any P independent
    # columns fit exactly; see the decisions ledger)
    rng = np.random.default_rng(7)
    ell, n_cosets, n_snapshots = 16, 6, 32
    pattern = mc.default_pattern(n_cosets, ell, 1.0)
    matrix = mc.build_measurement_matrix(pattern).values

    def trial(k):
        support = np.sort(rng.choice(ell, size=k, replace=False))
        x = np.zeros((ell, n_snapshots), dtype=complex)
        for row in support:
            x[row] = rng.normal(size=n_snapshots) + 1j * rng.normal(size=n_snapshots)
        result = baselines.somp_detect((matrix @ x)[None], matrix, k)[0]
        got = np.sort(np.array([c - 1 for c in result.support]))
        return np.array_equal(got, support)

    exact = sum(trial(int(rng.integers(1, n_cosets))) for _ in range(150))
    rate_feasible = exact / 150
    over = sum(trial(9) for _ in range(100))
    rate_over = over / 100
    ok = rate_feasible == 1.0 and rate_over < 0.5
    report("6 (SOMP exact recovery)", ok,
           f"K < P: {exact}/150 exact ({rate_feasible:.0%}); "
           f"K=9 > P=6: {over}/100 exact ({rate_over:.0%}, expected poor)")
    assert rate_feasible == 1.0
    assert rate_over < 0.5


@pytest.mark.slow
def test_criterion_7_regular_training_accuracy(pipeline):
    config, result, elapsed = pipeline
    table = rows_at(result, 10.0)
    ell = config.sensing.n_subbands
    details, ok = [], True
    for domain in config.domains.target_names():
        base = (ell - config.domains.n_active(domain)) / ell
        acc = table[(domain, harness.SCHEME_RT)]
        good = acc >= 0.95 and acc > base + 0.05
        ok &= good
        details.append(f"{domain}: rt={acc:.4f} (floor 0.95, base {base:.3f})")
    runtime_ok = elapsed < 15 * 60
    ok &= runtime_ok
    report("7 (regular training sanity)", ok,
           "; ".join(details) + f"; pipeline {elapsed:.0f}s (< 900s: {runtime_ok})")
    assert runtime_ok
    for domain in config.domains.target_names():
        base = (ell - config.domains.n_active(domain)) / ell
        acc = table[(domain, harness.SCHEME_RT)]
        assert acc > base + 0.05, f"{domain} barely beats the all-zero baseline"
        assert acc >= 0.95, f"{domain}: rt accuracy {acc:.4f} below the 0.95 floor"


@pytest.mark.slow
def test_criterion_8_pruning_retains_accuracy(pipeline):
    config, result, _ = pipeline
    drop = result.source_p_acc_unpruned - result.source_p_acc_pruned
    ok = drop < 0.02
    report("8 (pruning retains accuracy)", ok,
           f"source accuracy {result.source_p_acc_unpruned:.4f} -> "
           f"{result.source_p_acc_pruned:.4f} after 0.8 pruning + fine-tune "
           f"(degradation {drop:+.4f} < 0.02)")
    assert drop < 0.02


@pytest.mark.slow
def test_criterion_9_adaptation_trend(pipeline):
    config, result, _ = pipeline
    table = rows_at(result, 10.0)
    targets = config.domains.target_names()
    highest = max(targets, key=config.domains.n_active)
    lowest = min(targets, key=config.domains.n_active)

    ftl_high = table[(highest, harness.SCHEME_FTL)]
    tl_high = table[(highest, harness.SCHEME_TL)]
    somp_high = table[(highest, harness.SCHEME_SOMP)]
    beats = ftl_high > tl_high and ftl_high > somp_high

    low_scores = {scheme: acc for (domain, scheme), acc in table.items() if domain == lowest}
    best_low = max(low_scores.values())
    ftl_low = low_scores[harness.SCHEME_FTL]
    within = ftl_low >= best_low - 0.05

    ok = beats and within
    report("9 (federated adaptation trend)", ok,
           f"{highest}: ftl={ftl_high:.4f} vs tl={tl_high:.4f}, somp={somp_high:.4f} "
           f"(must exceed both: {beats}); {lowest}: ftl={ftl_low:.4f} vs best={best_low:.4f} "
           f"(within 0.05: {within})")
    assert beats, "federated model must beat single-source transfer and SOMP on the dense domain"
    assert within, f"federated model trails the best scheme by {best_low - ftl_low:.4f} > 0.05 on {lowest}"


@pytest.mark.slow
def test_criterion_10_zero_shot(pipeline):
    config, result, _ = pipeline
    table = rows_at(result, 10.0)
    domain = config.ftl.zero_shot_domain
    ell = config.sensing.n_subbands
    base = (ell - config.domains.n_active(domain)) / ell
    acc = table[(domain, harness.SCHEME_FTL_ZERO_SHOT)]
    ok = acc >= base + 0.05
    report("10 (zero-shot adaptation)", ok,
           f"{domain} excluded from the rounds: p_acc={acc:.4f} vs all-zero base {base:.3f} "
           f"(needs +0.05)")
    assert acc >= base + 0.05
