import json
import os

import numpy as np
import pytest

import axvit as ax
from axvit import cli
from axvit import data as dt
from axvit.multipliers import approx_products, load_lut


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset plus a trained, calibrated checkpoint shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    ckpt = str(root / "model.ckpt")
    assert run("gen-data", "--out", data, "--num", "400", "--seed", "7") == 0
    assert run("init-model", "--out", ckpt, "--layers", "2", "--dim", "16",
               "--heads", "2", "--ffn-dim", "32", "--train-iters", "120",
               "--dataset", data, "--seed", "0") == 0
    return {"root": root, "data": data, "ckpt": ckpt}


class TestGenLut:
    def test_roundtrip_matches_functional(self, tmp_path):
        out = str(tmp_path / "t.axlut")
        assert run("gen-lut", "trunc8k2", "--out", out) == 0
        lut = load_lut(out)
        ops = np.arange(-128, 128)
        m = ax.parse_multiplier_spec("trunc8k2")
        assert np.array_equal(lut.entries,
                              approx_products(m, ops[:, None], ops[None, :]))

    def test_exact_preset_by_catalog_name(self, tmp_path):
        out = str(tmp_path / "e.axlut")
        assert run("gen-lut", "mul8s_1KV6", "--out", out) == 0
        lut = load_lut(out)
        assert lut.entries[lut.encode(7), lut.encode(-3)] == -21

    def test_refuses_large_bitwidth(self, tmp_path, capsys):
        out = str(tmp_path / "x.axlut")
        assert run("gen-lut", "exact13", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("axvit gen-lut: ") and err.count("\n") == 1
        assert "functional" in err
        assert not os.path.exists(out)


class TestErrorMetrics:
    def test_table_and_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "em.csv")
        assert run("error-metrics", "--out", out) == 0
        capsys.readouterr()
        _, columns, rows = cli.read_csv(out)
        table = {r[0]: dict(zip(columns, r)) for r in rows}
        exact = table["mul8s_1KV6"]
        assert (float(exact["mae_pct"]), float(exact["wce_pct"]),
                float(exact["mre_pct"])) == (0.0, 0.0, 0.0)
        powers = [float(table[n]["power_mw"]) for n in
                  ("mul8s_1KV6", "mul8s_1KV9", "mul8s_1L2H", "mul8s_1L2L")]
        assert powers == [0.425, 0.410, 0.301, 0.200]
        for name, m in ((r[0], r) for r in rows):
            em = ax.error_metrics(ax.builtin_catalog().get(name))
            assert float(table[name]["mae_pct"]) == em.mae_pct


class TestCalibrate:
    def test_deterministic_and_monotone(self, workspace, tmp_path):
        s1, s2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
        for out in (s1, s2):
            assert run("calibrate", "--model", workspace["ckpt"],
                       "--dataset", workspace["data"], "--out", out) == 0
        assert open(s1).read() == open(s2).read()
        s100 = str(tmp_path / "s100.json")
        assert run("calibrate", "--model", workspace["ckpt"],
                   "--dataset", workspace["data"], "--out", s100,
                   "--percentile", "100") == 0
        lo, hi = json.load(open(s1)), json.load(open(s100))
        assert all(v > 0 for v in lo.values())
        for key in lo:
            assert hi[key] >= lo[key] - 1e-12


class TestEval:
    def test_report_fields_and_baseline(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert run("eval", "--model", workspace["ckpt"], "--dataset",
                   workspace["data"], "--config", "mul8s_1KV6", "--probe",
                   "128", "--out", out) == 0
        capsys.readouterr()
        report = json.load(open(out))
        assert report["normalized_power"] == pytest.approx(1.0)
        assert report["power_reduction_pct"] == pytest.approx(0.0)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["samples"] == 128

    def test_probe_matches_search_surrogate(self, workspace, capsys):
        from axvit import search as se
        assert run("eval", "--model", workspace["ckpt"], "--dataset",
                   workspace["data"], "--config", "mul8s_1L2H", "--probe",
                   "128") == 0
        report = json.loads(capsys.readouterr().out)
        model = ax.load_checkpoint(workspace["ckpt"])
        imgs = dt.load_idx_images(os.path.join(workspace["data"], "images.idx"))
        labels = dt.load_idx_labels(os.path.join(workspace["data"], "labels.idx"))
        patches = dt.images_to_patches(imgs)
        want = se.predict_accuracy(model, ["mul8s_1L2H"] * 2, ax.builtin_catalog(),
                                   patches[:128], labels[:128])
        assert report["accuracy"] == want

    def test_unknown_multiplier(self, workspace, capsys):
        with pytest.raises(SystemExit):
            run("eval", "--model", workspace["ckpt"], "--dataset",
                workspace["data"], "--config", "nope")

    def test_checkpoint_without_tensors(self, workspace, tmp_path, capsys):
        blob = open(workspace["ckpt"], "rb").read()
        start = len(ax.model.CHECKPOINT_MAGIC) + 5
        hlen = int.from_bytes(blob[start - 4:start], "little")
        header = json.loads(blob[start:start + hlen])
        del header["tensors"]
        text = json.dumps(header).encode()
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob[:start - 4] + len(text).to_bytes(4, "little") + text)
        assert run("eval", "--model", str(ckpt), "--dataset", workspace["data"],
                   "--config", "mul8s_1KV6", "--probe", "8") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"axvit eval: {ckpt}: ") and err.count("\n") == 1

    def test_truncated_idx_header(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        labels = open(os.path.join(workspace["data"], "labels.idx"), "rb").read()
        (data / "labels.idx").write_bytes(labels)
        (data / "images.idx").write_bytes(b"\x00\x00\x08\x03\x00")
        assert run("eval", "--model", workspace["ckpt"], "--dataset", str(data),
                   "--config", "mul8s_1KV6", "--probe", "8") == 1
        err = capsys.readouterr().err
        assert err.startswith("axvit eval: ") and err.count("\n") == 1
        assert "truncated IDX header" in err

    def test_truncated_external_lut(self, workspace, tmp_path, capsys):
        lut_path = tmp_path / "bad.axlut"
        lut_path.write_bytes(b"AXLUT\x00\x01")
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([{"name": "bad", "bitwidth": 8, "kind": "external",
                                        "lut_path": str(lut_path)}]))
        assert run("eval", "--model", workspace["ckpt"], "--dataset",
                   workspace["data"], "--config", "bad", "--catalog",
                   str(catalog), "--probe", "8") == 1
        err = capsys.readouterr().err
        assert err.startswith("axvit eval: ") and err.count("\n") == 1
        assert "truncated AXLUT header" in err


class TestInitModel:
    def test_train_without_dataset(self, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        assert run("init-model", "--out", str(out), "--train-iters", "5") == 1
        err = capsys.readouterr().err
        assert err.startswith("axvit init-model: ") and err.count("\n") == 1
        assert "--dataset" in err
        assert not out.exists()


class TestFinetune:
    def test_zero_lr_keeps_weights(self, workspace, tmp_path):
        out = str(tmp_path / "ft")
        assert run("finetune", "--model", workspace["ckpt"], "--dataset",
                   workspace["data"], "--config", "mul8s_1L2H", "--out", out,
                   "--lr", "0", "--iters", "5", "--fraction", "1.0") == 0
        assert open(os.path.join(out, "finetuned.ckpt"), "rb").read() == \
            open(workspace["ckpt"], "rb").read()

    def test_loss_csv_row_count(self, workspace, tmp_path):
        out = str(tmp_path / "ft2")
        assert run("finetune", "--model", workspace["ckpt"], "--dataset",
                   workspace["data"], "--config", "mul8s_1L2H", "--out", out,
                   "--iters", "7", "--fraction", "1.0") == 0
        comments, columns, rows = cli.read_csv(os.path.join(out, "loss.csv"))
        assert columns == ["step", "loss"]
        assert len(rows) == 7
        assert all(np.isfinite(float(r[1])) for r in rows)


class TestSensitivity:
    def test_csv_shape(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "sens.csv")
        assert run("sensitivity", "--model", workspace["ckpt"], "--dataset",
                   workspace["data"], "--probe", "96", "--out", out) == 0
        capsys.readouterr()
        comments, columns, rows = cli.read_csv(out)
        assert len(rows) == 4 * 2  # four multipliers, two layers
        exact_rows = [r for r in rows if r[0] == "mul8s_1KV6"]
        assert all(float(r[2]) == 1.0 for r in exact_rows)
        assert float(comments["baseline_accuracy"]) > 0


class TestSearchCommand:
    def run_search(self, workspace, out, **flags):
        args = ["search", "--model", workspace["ckpt"], "--dataset",
                workspace["data"], "--out", out, "--sims", "60"]
        for key, val in flags.items():
            args += [f"--{key}", str(val)]
        return run(*args)

    def test_outputs_and_header(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "s")
        assert self.run_search(workspace, out, **{"lambda": 1.5}) == 0
        capsys.readouterr()
        comments, columns, rows = cli.read_csv(os.path.join(out, "search.csv"))
        assert comments["lambda"] == "1.5"
        assert len(rows) == 60
        assert columns[:2] == ["simulation_index", "config"]
        _, _, rrows = cli.read_csv(os.path.join(out, "rewards.csv"))
        assert len(rrows) == 60

    def test_deterministic_reruns(self, workspace, tmp_path):
        o1, o2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert self.run_search(workspace, o1, seed=4) == 0
        assert self.run_search(workspace, o2, seed=4) == 0
        for name in ("search.csv", "pareto.csv", "rewards.csv"):
            assert open(os.path.join(o1, name)).read() == \
                open(os.path.join(o2, name)).read()

    def test_pareto_is_subset_flagged_on_pareto(self, workspace, tmp_path):
        out = str(tmp_path / "s3")
        assert self.run_search(workspace, out) == 0
        _, cols, srows = cli.read_csv(os.path.join(out, "search.csv"))
        _, pcols, prows = cli.read_csv(os.path.join(out, "pareto.csv"))
        on = {tuple(r[1:5]) for r in srows if r[5] == "true"}
        assert {tuple(r) for r in prows} <= on

    def test_pareto_command_recomputes_front(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "s4")
        assert self.run_search(workspace, out) == 0
        recomputed = str(tmp_path / "p.csv")
        assert run("pareto", os.path.join(out, "search.csv"),
                   "--out", recomputed) == 0
        capsys.readouterr()
        _, _, prows = cli.read_csv(os.path.join(out, "pareto.csv"))
        _, _, rrows = cli.read_csv(recomputed)
        assert [r[:3] for r in prows] == [r[:3] for r in rrows]


class TestToy:
    def test_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "toy")
        assert run("toy", "mul8s_1KV6", "--out", out, "--iters", "40") == 0
        capsys.readouterr()
        _, columns, rows = cli.read_csv(os.path.join(out, "loss.csv"))
        assert columns == ["iteration", "mse"]
        assert len(rows) == 40
        losses = [float(r[1]) for r in rows]
        assert all(np.isfinite(losses))
        assert losses[-1] <= losses[0]
        _, hcols, hrows = cli.read_csv(os.path.join(out, "histogram.csv"))
        assert hcols == ["bin_left", "bin_right", "output_count", "target_count"]
        assert len(hrows) == 50


class TestDatasetFlag:
    def test_synthetic_spec(self, workspace, capsys):
        assert run("eval", "--model", workspace["ckpt"], "--dataset",
                   "synthetic:256:7", "--config", "mul8s_1KV6",
                   "--probe", "64") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 64

    def test_bad_synthetic_spec(self, workspace):
        with pytest.raises(SystemExit):
            run("eval", "--model", workspace["ckpt"], "--dataset",
                "synthetic:10", "--config", "mul8s_1KV6")
