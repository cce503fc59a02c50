import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph import gradcheck
from momentgraph.errors import ConfigError
from momentgraph.gradcheck import GRADCHECK_LENGTHS, N_HUMANS, N_OBJECTS, format_results, run_gradcheck, tiny_instance


def test_tiny_instance_builds_the_lengths_asked():
    model, batch = tiny_instance(lengths=GRADCHECK_LENGTHS + (9,))
    # every length as given, unclamped, with the same humans and objects in every frame
    assert [p.sample.features.features.shape[0] for p in batch] == [4, 3, 9]
    for prep in batch:
        t = prep.sample.features.features.shape[0]
        assert np.bincount(prep.human_frame_ids, minlength=t).tolist() == [N_HUMANS] * t
        assert np.bincount(prep.object_frame_ids, minlength=t).tolist() == [N_OBJECTS] * t
    # the gradient-check batch is ragged in both t and query length
    assert len(batch[0].word_ids) != len(batch[1].word_ids)


def test_subsampling_is_deterministic():
    one = run_gradcheck(entries_per_block=2, seed=5)
    two = run_gradcheck(entries_per_block=2, seed=5)
    assert [(r.name, r.max_rel_err) for r in one] == [(r.name, r.max_rel_err) for r in two]


def test_corrupt_block_negative_control(monkeypatch):
    # the check must fail on a block whose analytic gradient is offset
    models, backward = [], ad.backward

    def instance(**kwargs):
        model, batch = tiny_instance(**kwargs)
        models.append(model)
        return model, batch

    def offset_backward(loss):
        backward(loss)
        models[-1].params["temporal.w_start"].grad += 1.0

    monkeypatch.setattr(gradcheck, "tiny_instance", instance)
    monkeypatch.setattr(ad, "backward", offset_backward)
    results = run_gradcheck(entries_per_block=2)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["temporal.w_start"]


def test_format_lists_every_block():
    results = run_gradcheck(entries_per_block=1)
    text = format_results(results)
    assert f"{len(results)} blocks" in text
    for r in results[:3]:
        assert r.name in text


@pytest.mark.parametrize("entries", [0, -1])
def test_entries_below_one_is_config_error(entries):
    # 0 would check nothing and pass; a negative count has no sample to draw
    with pytest.raises(ConfigError, match=f"at least 1 entry per block, got {entries}"):
        run_gradcheck(entries_per_block=entries)
