import struct
import tracemalloc

import numpy as np
import pytest

from mags.data import (SYNTH_CHUNK_ROWS, Dataset, client_views, make_splits, one_hot, read_idx,
                       scale_pixels, split_patches, synth_dataset)
from mags.errors import ConfigError, IdxFormatError

from helpers import pairwise_patch_columns, save_idx


def write_idx_fixture(tmp_path, pixels, labels):
    """Author an IDX pair byte-by-byte."""
    n = len(labels)
    side = int(np.sqrt(len(pixels[0])))
    img = tmp_path / "imgs.idx"
    lbl = tmp_path / "lbls.idx"
    img.write_bytes(struct.pack(">iiii", 0x00000803, n, side, side) + bytes(
        b for row in pixels for b in row))
    lbl.write_bytes(struct.pack(">ii", 0x00000801, n) + bytes(labels))
    return img, lbl


class TestLoadIdx:
    def test_hand_built_fixture_recovers_exact_pixels(self, tmp_path):
        pixels = [[0, 51, 102, 255], [10, 20, 30, 40]]
        img, lbl = write_idx_fixture(tmp_path, pixels, [3, 7])
        got, labels, class_count = read_idx(img, lbl)
        assert got.shape == (2, 4) and got.dtype == np.uint8
        assert np.array_equal(scale_pixels(got) * 255.0, np.array(pixels, dtype=float))
        assert labels.tolist() == [3, 7] and labels.dtype == np.int64
        assert class_count == 8  # max label + 1 when unspecified
        assert read_idx(img, lbl, class_count=10)[2] == 10

    def test_canonical_shape_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.random((10000, 784)), rng.integers(0, 10, 10000).astype(np.int64), 10)
        save_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        pixels, labels, _ = read_idx(tmp_path / "i.idx", tmp_path / "l.idx", class_count=10)
        assert pixels.shape == (10000, 784)
        assert np.array_equal(labels, ds.labels)
        # quantization to uint8 then rescaling is exact on the byte grid
        assert np.array_equal(np.round(scale_pixels(pixels) * 255), np.round(ds.features * 255))

    def test_bad_image_magic_names_value(self, tmp_path):
        img = tmp_path / "bad.idx"
        img.write_bytes(struct.pack(">iiii", 0x00000802, 1, 2, 2) + bytes(4))
        lbl = tmp_path / "l.idx"
        lbl.write_bytes(struct.pack(">ii", 0x00000801, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="0x00000802"):
            read_idx(img, lbl)

    def test_bad_label_magic(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, [[0, 0, 0, 0]], [1])
        lbl.write_bytes(struct.pack(">ii", 0x00000777, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="0x00000777"):
            read_idx(img, lbl)

    def test_truncated_file(self, tmp_path):
        img = tmp_path / "t.idx"
        img.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + bytes(3))
        lbl = tmp_path / "l.idx"
        lbl.write_bytes(struct.pack(">ii", 0x00000801, 2) + bytes(2))
        with pytest.raises(IdxFormatError, match="expected"):
            read_idx(img, lbl)

    def test_count_mismatch_between_files(self, tmp_path):
        img, _ = write_idx_fixture(tmp_path, [[0, 0, 0, 0]], [1])
        lbl = tmp_path / "l2.idx"
        lbl.write_bytes(struct.pack(">ii", 0x00000801, 2) + bytes([1, 2]))
        with pytest.raises(IdxFormatError, match="does not match"):
            read_idx(img, lbl)

    def test_no_images(self, tmp_path):
        # a header-only pair (28 x 28 images, no image and no label)
        img, lbl = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        img.write_bytes(struct.pack(">iiii", 0x00000803, 0, 28, 28))
        lbl.write_bytes(struct.pack(">ii", 0x00000801, 0))
        with pytest.raises(IdxFormatError, match="imgs.idx: holds 0 images, needs at least 1"):
            read_idx(img, lbl)

    @pytest.mark.parametrize("rows,cols,payload", [(0, 0, 0), (-1, -1, 30), (1, 0, 0)],
                             ids=["0x0", "-1x-1", "1x0"])
    def test_images_without_pixels(self, tmp_path, rows, cols, payload):
        # 30 images of 0 x 0 pixels made mags train die with an
        # OverflowError; 30 of (-1) x (-1) pixels read as 1-pixel images
        img, lbl = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        img.write_bytes(struct.pack(">iiii", 0x00000803, 30, rows, cols) + bytes(payload))
        lbl.write_bytes(struct.pack(">ii", 0x00000801, 30) + bytes(30))
        with pytest.raises(IdxFormatError, match=rf"imgs.idx: images of {rows} x {cols} "
                                                 r"pixels, need at least 1 x 1$"):
            read_idx(img, lbl)

    def test_label_at_or_above_the_class_count(self, tmp_path):
        # such a label used to reach one_hot and fail there with an IndexError
        img, lbl = write_idx_fixture(tmp_path, [[0, 0, 0, 0]] * 2, [1, 4])
        with pytest.raises(IdxFormatError, match="label 4 is not below the class count 4"):
            read_idx(img, lbl, class_count=4)
        assert read_idx(img, lbl, class_count=5)[2] == 5
        assert read_idx(img, lbl)[2] == 5
        # a malformed file is a config error: mags train and mags eval print
        # it and exit 2
        assert issubclass(IdxFormatError, ConfigError)


class TestSplitPatches:
    @pytest.mark.parametrize("g,per_client", [(2, 196), (4, 49), (7, 16)])
    def test_patch_sizes(self, g, per_client):
        spec = split_patches(784, g)
        assert spec.client_count == g * g
        assert spec.patch_dims() == [per_client] * (g * g)

    def test_row_major_client_order(self):
        # client c = g*row + col + 1; client 2 of g=4 owns columns 7..13 of row 0
        spec = split_patches(784, 4)
        assert spec.client_columns[1][0] == 7
        assert spec.client_columns[4][0] == 7 * 28  # second patch row starts at image row 7

    def test_partition_is_disjoint_and_complete(self):
        spec = split_patches(784, 4)
        allcols = np.concatenate(spec.client_columns)
        assert len(allcols) == 784
        assert len(np.unique(allcols)) == 784

    def test_reassembly_inverts_partition(self):
        rng = np.random.default_rng(1)
        x = rng.random((5, 784))
        for g in (2, 4, 7):
            spec = split_patches(784, g)
            views = client_views(x, spec)
            flat = np.concatenate(views, axis=1)
            perm = np.concatenate(spec.client_columns)
            rebuilt = np.empty_like(x)
            rebuilt[:, perm] = flat
            assert np.array_equal(rebuilt, x)

    def test_views_are_one_client_major_stack(self):
        x = np.random.default_rng(2).random((6, 784))
        spec = split_patches(784, 4)
        views = client_views(x, spec)
        assert views.shape == (16, 6, 49) and views.flags.c_contiguous
        for c, cols in enumerate(spec.client_columns):
            assert np.array_equal(views[c], x[:, cols])
        idx = np.array([4, 1])
        assert np.array_equal(views[:, idx][3], x[idx][:, spec.client_columns[3]])

    @pytest.mark.parametrize("g", [1, 2, 4, 7])
    def test_matches_the_pixel_by_pixel_construction(self, g):
        spec = split_patches(784, g)
        expected = pairwise_patch_columns(784, g)
        assert isinstance(spec.client_columns, list) and len(spec.client_columns) == g * g
        for cols, want in zip(spec.client_columns, expected):
            assert cols.dtype == np.int64 and np.array_equal(cols, want)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ConfigError):
            split_patches(784, 3)
        with pytest.raises(ConfigError):
            split_patches(100, 4)  # 10x10 image, 4 does not divide the side
        split_patches(100, 2)


class TestMakeSplits:
    def test_canonical_sixty_thousand(self):
        tr, va = make_splits(60000, seed=1)
        assert (len(tr), len(va)) == (48000, 12000)

    def test_proportional_rule(self):
        tr, va = make_splits(100, seed=1)
        assert (len(tr), len(va)) == (80, 20)

    def test_same_seed_gives_identical_partition(self):
        a_tr, a_va = make_splits(50, seed=9)
        b_tr, b_va = make_splits(50, seed=9)
        assert np.array_equal(a_tr, b_tr)
        assert np.array_equal(a_va, b_va)
        c_tr, _ = make_splits(50, seed=10)
        assert not np.array_equal(a_tr, c_tr)

    def test_split_is_a_partition(self):
        tr, va = make_splits(40, seed=0)
        assert np.array_equal(np.sort(np.concatenate([tr, va])), np.arange(40))

    def test_rows_follow_the_seeded_pcg64_permutation(self):
        # the split is the PCG64 permutation of the seed, cut at 80%
        order = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3))).permutation(30)
        tr, va = make_splits(30, seed=3)
        assert np.array_equal(np.concatenate([tr, va]), order)
        assert len(tr) == 24


def class_means(ds):
    """Each class's image in a noise-0 dataset: its first sample's."""
    return np.stack([ds.features[ds.labels == k][0] for k in range(ds.class_count)])


class TestSynthDataset:
    def test_zero_noise_nearest_mean_is_exact(self):
        ds = synth_dataset(300, 10, 4, seed=7, noise=0.0)
        means = class_means(ds)
        assert np.array_equal(ds.features, means[ds.labels])  # one image per class
        d2 = ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(d2.argmin(axis=1), ds.labels)

    def test_linear_probe_beats_95_percent(self):
        # oracle: closed-form least-squares probe onto one-hot targets
        ds = synth_dataset(2000, 10, 4, seed=7, noise=0.3)
        xtr = np.hstack([ds.features[:1600], np.ones((1600, 1))])
        w, *_ = np.linalg.lstsq(xtr, one_hot(ds.labels[:1600], 10), rcond=None)
        xte = np.hstack([ds.features[1600:], np.ones((400, 1))])
        acc = ((xte @ w).argmax(axis=1) == ds.labels[1600:]).mean()
        assert acc > 0.95

    def test_same_seed_is_bit_identical(self):
        a = synth_dataset(100, 10, 4, seed=3, noise=0.3)
        b = synth_dataset(100, 10, 4, seed=3, noise=0.3)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_features_stay_in_unit_range(self):
        ds = synth_dataset(500, 10, 4, seed=5, noise=0.8)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_every_patch_distinguishes_classes(self):
        means = class_means(synth_dataset(300, 10, 4, seed=7, noise=0.0))
        spec = split_patches(784, 4)
        for cols in spec.client_columns:
            patch = means[:, cols]
            assert len({p.tobytes() for p in patch}) == 10

    def test_idx_export_round_trip(self, tmp_path):
        ds = synth_dataset(50, 10, 4, seed=1, noise=0.3)
        save_idx(ds, tmp_path / "s.idx", tmp_path / "sl.idx")
        pixels, labels, _ = read_idx(tmp_path / "s.idx", tmp_path / "sl.idx", class_count=10)
        assert np.array_equal(labels, ds.labels)
        assert np.max(np.abs(scale_pixels(pixels) - ds.features)) <= 0.5 / 255

    def test_rejects_degenerate_params(self):
        with pytest.raises(ConfigError):
            synth_dataset(10, 1, 4, seed=0, noise=0.1)
        with pytest.raises(ConfigError):
            synth_dataset(10, 10, 5, seed=0, noise=0.1)
        for rows in ((-1, 5), (6, 5), (0, 11)):
            with pytest.raises(ConfigError, match="not within"):
                synth_dataset(10, 10, 4, seed=0, noise=0.1, rows=rows)
        for noise in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="must be finite"):
                synth_dataset(10, 10, 4, seed=0, noise=noise)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("rows", [(0, 700), (SYNTH_CHUNK_ROWS, 2 * SYNTH_CHUNK_ROWS + 5),
                                      (SYNTH_CHUNK_ROWS + 300, 2500), (1900, 2500),
                                      (2500, 2500), (500, SYNTH_CHUNK_ROWS + 700)],
                             ids=["from-0", "on-chunk-boundary", "inside-chunk", "to-n", "empty",
                                  "across-a-boundary"])
    def test_row_range_is_the_pool_sliced_bit_for_bit(self, noise, rows):
        full = synth_dataset(2500, 10, 4, seed=11, noise=noise)
        part = synth_dataset(2500, 10, 4, seed=11, noise=noise, rows=rows)
        lo, hi = rows
        assert part.features.shape == (hi - lo, 784) and part.class_count == 10
        assert part.features.tobytes() == full.features[lo:hi].tobytes()
        assert part.labels.dtype == np.int64
        assert np.array_equal(part.labels, full.labels[lo:hi])

    def test_build_holds_one_chunk_beyond_the_rows_it_keeps(self):
        # whole-pool arithmetic held two pool-sized arrays at its peak (120.5
        # MB for a 59.8 MB pool); a chunked build adds one chunk of scratch
        n, d = 6 * SYNTH_CHUNK_ROWS, 784
        chunk = SYNTH_CHUNK_ROWS * d * 8
        for rows in (None, (4 * SYNTH_CHUNK_ROWS, n)):
            tracemalloc.start()
            try:
                ds = synth_dataset(n, 10, 4, seed=3, noise=0.3, rows=rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < ds.features.nbytes + chunk + 2**20, (rows, peak)
