import re
import tracemalloc

import numpy as np
import pytest

from privlabel.core import RecordSet
from privlabel.data import (
    PublicSet,
    SyntheticSpec,
    class_means,
    generate_synthetic,
    load_embeddings_csv,
    write_public_csv,
    write_records_csv,
)
from privlabel.geometry import pairwise_distances


def spec(**overrides):
    base = dict(
        classes=2, per_class=60, dim=4, separation=10.0, std=1.0, pub_per_class=20
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSynthetic:
    def test_bench_world_memory_is_its_output_and_the_label_masks(self):
        # each split is drawn into the one array it returns; the peak is the
        # 4.2 MiB of record arrays and the label check's two boolean masks
        # (1.1 MiB)
        world = spec(classes=10, per_class=6000, dim=8, separation=12.0, pub_per_class=500)
        tracemalloc.start()
        try:
            generate_synthetic(world, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2**20

    def test_well_separated_mixture_is_nearest_neighbor_learnable(self):
        records, public = generate_synthetic(spec(separation=10.0), seed=3)
        # 1-NN against the private records classifies nearly every pub sample
        dists = pairwise_distances(public.embeddings, records.embeddings)
        nearest = np.argmax(records.labels[np.argmin(dists, axis=1)], axis=1)
        assert (nearest == public.true_labels).mean() >= 0.999

    def test_seed_reproducibility(self):
        a_rec, a_pub = generate_synthetic(spec(), seed=11)
        b_rec, b_pub = generate_synthetic(spec(), seed=11)
        assert np.array_equal(a_rec.embeddings, b_rec.embeddings)
        assert np.array_equal(a_rec.labels, b_rec.labels)
        assert np.array_equal(a_pub.embeddings, b_pub.embeddings)

    def test_mnist_shaped_construction(self):
        records, public = generate_synthetic(
            spec(classes=10, per_class=600, dim=10, pub_per_class=50), seed=1
        )
        assert records.m == 6000
        assert records.label_count == 10
        assert public.n == 500

    def test_multilabel_union(self):
        records, _ = generate_synthetic(spec(classes=4, multilabel_r=2), seed=2)
        assert records.r == 2

    def test_separation_recorded(self):
        assert spec(separation=8.0, std=2.0).separability == pytest.approx(4.0)

    def test_class_means_pairwise_distance(self):
        means = class_means(spec(classes=3, dim=5, separation=6.0))
        d = pairwise_distances(means, means)
        off = d[~np.eye(3, dtype=bool)]
        assert (off >= 6.0 - 1e-9).all()

    def test_low_dim_circle_layout(self):
        means = class_means(spec(classes=5, dim=2, separation=4.0))
        d = pairwise_distances(means, means)
        off = d[~np.eye(5, dtype=bool)]
        assert off.min() == pytest.approx(4.0, rel=1e-9)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            spec(classes=1)
        with pytest.raises(ValueError):
            spec(std=0.0)
        with pytest.raises(ValueError):
            spec(multilabel_r=5)


class TestCsv:
    def test_round_trip_records(self, tmp_path):
        records, _ = generate_synthetic(spec(), seed=5)
        path = tmp_path / "priv.csv"
        write_records_csv(path, records)
        loaded = load_embeddings_csv(path)
        assert isinstance(loaded, RecordSet)
        assert np.array_equal(loaded.embeddings, records.embeddings)
        assert np.array_equal(loaded.labels, records.labels)

    def test_round_trip_public(self, tmp_path):
        _, public = generate_synthetic(spec(), seed=5)
        path = tmp_path / "pub.csv"
        write_public_csv(path, public.embeddings)
        loaded = load_embeddings_csv(path)
        assert isinstance(loaded, PublicSet)
        assert loaded.true_labels is None
        assert np.array_equal(loaded.embeddings, public.embeddings)

    def test_two_row_file(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("id,label,e1,e2\na,0,1.5,2.5\nb,1,0.25,-3\n")
        loaded = load_embeddings_csv(path)
        assert loaded.m == 2
        assert loaded.labels.tolist() == [[1, 0], [0, 1]]

    def test_multi_hot_label_parse(self, tmp_path):
        path = tmp_path / "multi.csv"
        path.write_text("id,label,e1\n0,3|7,0.5\n1,1|2,0.25\n")
        loaded = load_embeddings_csv(path, label_count=8)
        assert loaded.labels[0].tolist() == [0, 0, 0, 1, 0, 0, 0, 1]

    def test_missing_column_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,label,e1,e2\n0,1,0.5,0.5\n1,0,0.25\n")
        with pytest.raises(ValueError, match="line 3"):
            load_embeddings_csv(path)

    def test_non_numeric_embedding_names_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("id,label,e1\n0,1,zap\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("label", ["1", ""])
    def test_non_finite_embedding_names_line(self, tmp_path, bad, label):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"id,label,e1,e2\n0,{label},0.5,0.5\na,{label},0.1,{bad}\n")
        with pytest.raises(ValueError, match="line 3: non-finite"):
            load_embeddings_csv(path)

    @pytest.mark.parametrize("label_count", [None, 3])
    @pytest.mark.parametrize("label", ["x", "1|"])
    def test_malformed_label_names_line(self, tmp_path, label_count, label):
        path = tmp_path / "label.csv"
        path.write_text(f"id,label,e1\n0,1,0.5\n1,{label},0.25\n")
        with pytest.raises(ValueError, match=re.escape(f"line 3: malformed label '{label}'")):
            load_embeddings_csv(path, label_count=label_count)

    def test_out_of_range_label_rejected(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("id,label,e1\n0,9,0.5\n")
        with pytest.raises(ValueError, match="out of range"):
            load_embeddings_csv(path, label_count=4)

    def test_mixed_empty_labels_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("id,label,e1\n0,1,0.5\n1,,0.25\n")
        with pytest.raises(ValueError, match="line 3"):
            load_embeddings_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("label,id,e1\n0,1,0.5\n")
        with pytest.raises(ValueError, match="line 1"):
            load_embeddings_csv(path)
