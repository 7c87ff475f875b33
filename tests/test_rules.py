import math
import re
from dataclasses import fields

import pytest

from ftlwss import federation as fed
from ftlwss import harness, rules
from ftlwss import multicoset as mc
from ftlwss import tensornet as tn

# a valid object of each checked class outside the experiment config
VALID = {
    tn.DetectorSpec: dict(in_rows=8, in_cols=8),
    fed.FtlConfig: dict(n_sus=2, rounds=3),
    mc.CosetPattern: dict(offsets=(0, 2), n_subbands=8, nyquist_period_s=1.0),
    harness.SweepRow: dict(domain="T1", scheme="ftl", snr_db=10.0, p_acc=0.5, n_test=8),
}
DECLARED = [(cls, f) for cls in VALID for f in fields(cls) if f.metadata]


def build(cls, name, value):
    return cls(**{**VALID[cls], name: value})


def past(f, limit, direction):
    """The value of ``f``'s type just past ``limit`` in ``direction`` (+1 or -1)."""
    return limit + direction if f.type == "int" else math.nextafter(limit, direction * math.inf)


@pytest.mark.parametrize("cls, f", DECLARED, ids=[f"{cls.__name__}.{f.name}" for cls, f in DECLARED])
def test_every_declared_bound_holds_from_python(cls, f):
    bound = f.metadata
    # a closed bound itself builds
    for op in ("ge", "le"):
        if op in bound:
            assert getattr(build(cls, f.name, bound[op]), f.name) == bound[op]
    outside = [past(f, bound["ge"], -1)] if "ge" in bound else [bound["gt"]]
    outside += [bound["lt"]] if "lt" in bound else [past(f, bound["le"], +1)] if "le" in bound else []
    message = "^" + re.escape(f"{f.name} must be {rules._bound_text(bound)}, got ")
    for value in outside:
        with pytest.raises(ValueError, match=message):
            build(cls, f.name, value)
    for value in (True, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"^{f.name} must be {f.type} \\(no bool, nan or infinity\\)"):
            build(cls, f.name, value)


@pytest.mark.parametrize("make, name", [
    # each but the last built: a NaN rate trained to an all-NaN model, a
    # boolean width built a one-unit net; the fractional offset was rejected
    # by a check of its own
    (lambda: fed.FtlConfig(n_sus=1, rounds=1, lr=float("nan")), "lr"),
    (lambda: fed.FtlConfig(n_sus=1, rounds=2.5), "rounds"),
    (lambda: tn.DetectorSpec(in_rows=8, in_cols=8, hidden_units=True), "hidden_units"),
    (lambda: tn.DetectorSpec(in_rows=6.5, in_cols=8), "in_rows"),
    (lambda: mc.CosetPattern((0, 2.5), 8, 1.0), "offsets"),
], ids=["ftl-lr-nan", "ftl-rounds-fraction", "spec-hidden-bool", "spec-rows-fraction",
        "pattern-offset-fraction"])
def test_checked_classes_name_the_field_they_reject(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        make()

