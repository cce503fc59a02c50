import numpy as np
import pytest

from momentgraph.errors import CheckpointError
from momentgraph.gradcheck import tiny_instance
from momentgraph.graph import VARIANTS
from momentgraph.model import MomentModel


class TestForward:
    def test_output_shapes(self):
        model, prep = tiny_instance(seed=0)
        out = model.forward(prep)
        t = prep.features.shape[0]
        for key in ("start_dist", "end_dist", "y"):
            assert out[key].data.shape == (1, t)
        assert out["a_ctx"].data.shape == (t, model.config.latent)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_variants_run(self, variant):
        model, prep = tiny_instance(variant=variant, seed=1)
        total, kl, sp = model.loss(prep)
        assert np.isfinite(total.data).all()
        assert total.item() == pytest.approx(kl.item() + sp.item(), abs=1e-12)

    def test_no_graph_ignores_query(self):
        model, prep = tiny_instance(variant="no_graph", seed=2)
        base = model.predict(prep)
        prep.tokens = ["person", "throw"]  # different query, same visuals
        again = model.predict(prep)
        np.testing.assert_array_equal(base.start_dist, again.start_dist)

    def test_no_graph_pools_each_frame_mean(self):
        model, prep = tiny_instance(variant="no_graph", seed=10)
        keep_h, keep_o = prep.human_frame_ids != 0, prep.object_frame_ids != 0  # frame 0 has no detections
        prep.humans_stacked, prep.human_frame_ids = prep.humans_stacked[keep_h], prep.human_frame_ids[keep_h]
        prep.objects_stacked, prep.object_frame_ids = prep.objects_stacked[keep_o], prep.object_frame_ids[keep_o]
        pooled = np.zeros((prep.features.shape[0], model.config.d_o))
        for i in range(1, pooled.shape[0]):
            frame = [prep.humans_stacked[prep.human_frame_ids == i], prep.objects_stacked[prep.object_frame_ids == i]]
            pooled[i] = np.concatenate(frame).mean(axis=0)
        w, b = model.nograph_params.w.data, model.nograph_params.b.data
        expected = np.concatenate([prep.features, pooled], axis=1) @ w + b
        np.testing.assert_array_equal(model.spatial_forward(prep, None).data, expected)

    def test_full_variant_uses_query(self):
        model, prep = tiny_instance(seed=3)
        base = model.predict(prep)
        prep.tokens = ["person", "throw"]
        again = model.predict(prep)
        assert not np.array_equal(base.start_dist, again.start_dist)

    def test_node_dropping_variants(self):
        _, prep_full = tiny_instance(seed=4)
        model_nh, prep_nh = tiny_instance(variant="no_human_node", seed=4)
        model_no, prep_no = tiny_instance(variant="no_object_node", seed=4)
        assert prep_nh.humans_stacked.shape == (0, model_nh.config.d_o)
        assert prep_nh.human_frame_ids.shape == (0,)
        assert prep_no.objects_stacked.shape == (0, model_no.config.d_o)
        assert prep_no.object_frame_ids.shape == (0,)
        assert prep_full.humans_stacked.shape[0] > 0
        # dropping one node kind leaves the other kind's rows untouched
        np.testing.assert_array_equal(prep_nh.objects_stacked, prep_full.objects_stacked)
        np.testing.assert_array_equal(prep_nh.object_frame_ids, prep_full.object_frame_ids)
        np.testing.assert_array_equal(prep_no.humans_stacked, prep_full.humans_stacked)
        np.testing.assert_array_equal(prep_no.human_frame_ids, prep_full.human_frame_ids)

    def test_no_node_types_routes_all_to_objects(self):
        _, prep = tiny_instance(variant="no_node_types", seed=5)
        t = prep.features.shape[0]
        assert prep.humans_stacked.shape[0] == 0
        assert (np.bincount(prep.object_frame_ids, minlength=t) > 0).all()

    def test_predict_deterministic(self):
        model, prep = tiny_instance(seed=6)
        one = model.predict(prep)
        two = model.predict(prep)
        np.testing.assert_array_equal(one.start_dist, two.start_dist)
        assert one.start_index == two.start_index


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model, prep = tiny_instance(seed=7)
        path = tmp_path / "m.ckpt"
        model.save(str(path))
        fresh, _ = tiny_instance(seed=99)
        fresh.load(str(path))
        for name, p in model.params.items():
            assert fresh.params[name].data.tobytes() == p.data.tobytes()
        np.testing.assert_array_equal(
            fresh.predict(prep).start_dist, model.predict(prep).start_dist
        )

    def test_variant_mismatch_rejected(self, tmp_path):
        model, _ = tiny_instance(seed=8)
        path = tmp_path / "m.ckpt"
        model.save(str(path))
        other, _ = tiny_instance(variant="no_graph", seed=8)
        with pytest.raises(CheckpointError, match="mismatch"):
            other.load(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        model, _ = tiny_instance(seed=9)
        path = tmp_path / "m.ckpt"
        model.params["temporal.w_start"].data = np.zeros((3, 1))
        model.save(str(path))
        fresh, _ = tiny_instance(seed=9)
        with pytest.raises(CheckpointError, match="temporal.w_start"):
            fresh.load(str(path))
