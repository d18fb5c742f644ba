"""The tracer patches and restores lookup sites without touching results."""

from fedtsgan import cli

from tracer import PER_LAYER, Tracer

TINY = """
[dataset]
kind = sine2
n_per_class = 16
t_steps = 12
seed = 5

[partition]
party_0 = 0
party_1 = 1

[train]
topology = vfl
latent_dim = 3
batch_size = 6
max_iters = 5
checkpoint_every = 2
eval_samples = 8
seed = 11
gen_hidden = 6,5
disc_hidden = 6,4
fe_hidden = 5
feature_dim = 4
shared_hidden = 6

[dp]
clip = 0.5
sigma = 1.0

[output]
dir = {out}
"""

OUTPUTS = ("history.csv", "best_generators.npz", "final_generators.npz")


def test_tracer_restores_every_name_it_patches():
    tracer = Tracer().install()
    patched = tracer.patched()
    try:
        assert len(patched) > len(PER_LAYER)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    assert tracer.patched() == []


def _train(tmp_path, name, tracer=None):
    out = tmp_path / name
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(TINY.format(out=out))
    if tracer is not None:
        tracer.install()
    try:
        assert cli.main(["train", "--config", str(cfg)]) == 0
    finally:
        if tracer is not None:
            tracer.restore()
    return {f: (out / f).read_bytes() for f in OUTPUTS}


def test_traced_train_is_byte_identical(tmp_path):
    plain = _train(tmp_path, "plain")
    tracer = Tracer()
    traced = _train(tmp_path, "traced", tracer)
    assert traced == plain
    report = tracer.report(1)
    assert report["federation.messages"] == 5 * 2 * 5
    assert report["dpmech.perturb_first_layer.calls"] == (2 + 2) * 5
    assert report["cli.main.self_s"] > 0.0
    assert tracer.counters["clip_bound_violations"] == 0
    assert tracer.trainings == [
        {"topology": "vfl", "parties": 2, "attributes": 2, "dp": True,
         "iterations": 5, "messages": 50, "perturb_calls": 20}
    ]
    # spans nest: every parent opened before and closed after its child
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start <= end <= p_end, name
