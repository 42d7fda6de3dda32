import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import axvit as ax
from axvit import cli
from axvit import data as dt
from axvit import training as tr
from axvit.multipliers import AxMultiplier, approx_products, build_lut, load_lut, save_lut


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
        assert err == "axvit gen-lut: bitwidth must be in [2, 12], got 13\n"
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

    def test_foreign_parameter_in_catalog(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([{"name": "p", "bitwidth": 8,
                                        "kind": "perforate_pp", "k": 2}]))
        assert run("error-metrics", "--catalog", str(catalog)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"axvit error-metrics: {catalog}: entry 0: "
                       "perforate_pp multiplier takes no k, got 2\n")


class TestCatalogValues:
    """A catalog value of the wrong type or not finite ends in one line."""

    def run_with(self, tmp_path, workspace, command, row, *more_rows):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([{"name": "m", **row}, *more_rows]))
        argv = {"eval": ["--model", workspace["ckpt"], "--dataset", workspace["data"],
                         "--config", "m"],
                "search": ["--model", workspace["ckpt"], "--dataset", workspace["data"],
                           "--out", str(tmp_path / "run"), "--sims", "2"],
                "error-metrics": [],
                "gen-lut": ["m", "--out", str(tmp_path / "m.axlut")]}[command]
        assert run(command, "--catalog", str(catalog), *argv) == 1
        return catalog

    @pytest.mark.parametrize("command", ["eval", "error-metrics", "gen-lut"])
    @pytest.mark.parametrize("row", [
        {"bitwidth": 8.0, "kind": "exact"},
        {"bitwidth": 8, "kind": "truncate_lsb", "k": 2.0},
        {"bitwidth": 8, "kind": "perforate_pp", "r": 1.0}],
        ids=["bitwidth", "k", "r"])
    def test_non_integer_field(self, workspace, tmp_path, capsys, command, row):
        catalog = self.run_with(tmp_path, workspace, command, row)
        field = [f for f, v in row.items() if isinstance(v, float)][0]
        assert capsys.readouterr().err == (f"axvit {command}: {catalog}: entry 0: "
                       f"{field} must be an integer, got {row[field]!r}\n")
        assert not (tmp_path / "m.axlut").exists()

    @pytest.mark.parametrize("command", ["eval", "search", "error-metrics"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_hardware_figure(self, workspace, tmp_path, capsys, command,
                                        value):
        row = {"bitwidth": 8, "kind": "exact", "power_mw": value}
        catalog = self.run_with(tmp_path, workspace, command, row)
        assert capsys.readouterr().err == (f"axvit {command}: {catalog}: entry 0: "
                                           f"power_mw must be finite and >= 0, got {value!r}\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["eval", "search", "error-metrics"])
    def test_non_string_name(self, workspace, tmp_path, capsys, command):
        row = {"name": 5, "bitwidth": 8, "kind": "exact", "power_mw": 0.4}
        catalog = self.run_with(tmp_path, workspace, command, row)
        assert capsys.readouterr().err == (f"axvit {command}: {catalog}: entry 0: "
                                           f"name must be a non-empty string, got 5\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["eval", "search", "error-metrics"])
    def test_bitwidth_past_the_table_cap(self, workspace, tmp_path, capsys, command):
        """A multiplier no table can hold is rejected when the catalog loads,
        also by a command that would not use it (eval runs only "m")."""
        catalog = self.run_with(tmp_path, workspace, command,
                                {"bitwidth": 8, "kind": "exact", "power_mw": 0.425},
                                {"name": "wide", "bitwidth": 13, "kind": "truncate_lsb", "k": 2})
        assert capsys.readouterr().err == (f"axvit {command}: {catalog}: entry 1: "
                                           "bitwidth must be in [2, 12], got 13\n")
        assert not (tmp_path / "run").exists()


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

    def test_unallocatable_bin_count(self, workspace, tmp_path, capsys):
        # 10**15 float64 bins are 7.1 PiB, more than a 64-bit address space
        # holds, so the allocation fails at once
        out = tmp_path / "s.json"
        assert run("calibrate", "--model", workspace["ckpt"], "--dataset",
                   workspace["data"], "--out", str(out), "--bins", str(10**15)) == 1
        err = capsys.readouterr().err
        assert err.startswith("axvit calibrate: ") and err.count("\n") == 1
        assert "allocate" in err
        assert not out.exists()


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

    def test_accumulator_overflow_ends_in_one_line(self, tmp_path, capsys):
        """A 12-bit model whose second FFN matmul sums 2048 products near
        2**22 passes int32. K * max|T| = 2**33 is past the static bound, so
        the closed form scans its accumulator, and eval names the overflow in
        one line instead of a traceback."""
        model = ax.init_model(ax.ModelConfig(embed_dim=16, ffn_dim=2048), bitwidth=12)
        for i in range(2):
            model.params[f"block{i}.w2"][...] = 0.01
            model.params[f"block{i}.b1"][...] = 100.0
        imgs, _ = dt.synthetic_dataset(64, seed=1)
        ax.calibrate(model, dt.images_to_patches(imgs))
        ckpt, catalog = tmp_path / "m12.ckpt", tmp_path / "cat12.json"
        ax.save_checkpoint(model, str(ckpt))
        catalog.write_text(json.dumps([{"name": "exact12", "bitwidth": 12, "kind": "exact"}]))
        assert run("eval", "--model", str(ckpt), "--dataset", "synthetic:64:1",
                   "--config", "exact12", "--catalog", str(catalog)) == 1
        assert capsys.readouterr() == ("", "axvit eval: 32-bit accumulator overflow "
                                           "in axx_matmul\n")

    def test_unknown_multiplier(self, workspace, capsys):
        assert run("eval", "--model", workspace["ckpt"], "--dataset",
                   workspace["data"], "--config", "nope") == 1
        err = capsys.readouterr().err
        assert err == "axvit eval: --config: unknown multiplier 'nope'\n"

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

    @pytest.mark.parametrize("command", ["eval", "search"])
    def test_checkpoint_with_nan_weight(self, workspace, tmp_path, capsys, command):
        model = ax.load_checkpoint(workspace["ckpt"])
        model.params["block0.w1"][0, 0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        ax.save_checkpoint(model, str(ckpt))
        argv = {"eval": ["--config", "mul8s_1KV6"],
                "search": ["--sims", "2", "--out", str(tmp_path / "out")]}[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(command, "--model", str(ckpt), "--dataset", "synthetic:64:1", *argv)
        assert code == 1 and caught == []
        err = capsys.readouterr().err
        assert err == f"axvit {command}: {ckpt}: tensor block0.w1 holds non-finite values\n"

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
        """A cut header, and a saved 8-bit table 3 bytes short (not a whole
        int32 entry), each end in one line that names the file."""
        lut_path = tmp_path / "bad.axlut"
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([{"name": "bad", "bitwidth": 8, "kind": "external",
                                        "lut_path": str(lut_path)}]))
        save_lut(build_lut(AxMultiplier("exact8", 8, "exact")), str(lut_path))
        saved = lut_path.read_bytes()
        for content, message in [(b"AXLUT\x00\x01", "truncated AXLUT header"),
                                 (saved[:-3], "truncated AXLUT payload")]:
            lut_path.write_bytes(content)
            assert run("eval", "--model", workspace["ckpt"], "--dataset",
                       workspace["data"], "--config", "bad", "--catalog",
                       str(catalog), "--probe", "8") == 1
            assert capsys.readouterr().err == f"axvit eval: {lut_path}: {message}\n"


class TestInitModel:
    def test_train_without_dataset(self, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        assert run("init-model", "--out", str(out), "--train-iters", "5") == 1
        err = capsys.readouterr().err
        assert err.startswith("axvit init-model: ") and err.count("\n") == 1
        assert "--dataset" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["init-model", "finetune"])
    def test_empty_training_set(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--out", str(out), "--dataset", "synthetic:0:1"]
        if command == "init-model":
            argv += ["--train-iters", "5"]
        else:
            argv += ["--model", workspace["ckpt"], "--config", "mul8s_1KV6"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err == f"axvit {command}: the training set has no samples\n"
        assert not out.exists()

    @pytest.mark.parametrize("bitwidth", ["1", "13", "40"])
    def test_bitwidth_out_of_range(self, tmp_path, capsys, bitwidth):
        # the model's bitwidth stops at the table cap, 12 bits
        out = tmp_path / "m.ckpt"
        assert run("init-model", "--out", str(out), "--bitwidth", bitwidth) == 1
        err = capsys.readouterr().err
        assert err == f"axvit init-model: bitwidth must be an integer in [2, 12], got {bitwidth}\n"
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

    @pytest.mark.parametrize("config, lr", [("mul8s_1L2H", "1e300"), ("mul8s_1KV6", "1e308")])
    def test_overflowing_final_weights_are_not_written(self, workspace, tmp_path, capsys,
                                                       config, lr):
        """A last update whose weights overflow the next forward pass ends in
        one line, and no file is written."""
        out = tmp_path / "ft"
        assert run("finetune", "--model", workspace["ckpt"], "--dataset", workspace["data"],
                   "--config", config, "--out", str(out), "--iters", "1", "--lr", lr,
                   "--fraction", "1") == 1
        assert capsys.readouterr().err == \
            "axvit finetune: training diverged: the final weights give non-finite logits\n"
        assert not out.exists()


class TestOverflowingCheckpoint:
    """A checkpoint of finite weights whose forward pass overflows ends each
    command in its one-line error, with no numpy warning before it."""

    @pytest.fixture(scope="class")
    def overflowing(self, workspace):
        """The library finetune's one step at a rate of 1e308, which leaves
        finite weights that overflow (axvit finetune refuses to write them)."""
        model = ax.load_checkpoint(workspace["ckpt"])
        patches, labels = cli._load_dataset(workspace["data"])
        hp = tr.TrainHyperparams(learning_rate=1e308, iterations=1, data_fraction=1.0)
        tr.finetune(model, ["mul8s_1KV6"] * 2, patches, labels, hp, ax.builtin_catalog())
        ckpt = str(workspace["root"] / "overflow.ckpt")
        ax.save_checkpoint(model, ckpt)
        ax.load_checkpoint(ckpt)  # its weights are finite
        return ckpt

    @pytest.mark.parametrize("command, argv, message", [
        ("eval", ["--config", "mul8s_1KV6"],
         "the forward pass gave non-finite logits: an activation overflowed"),
        ("search", ["--sims", "2", "--out"],
         "the forward pass gave non-finite logits: an activation overflowed"),
        ("sensitivity", [], "the forward pass gave non-finite logits: an activation overflowed"),
        ("calibrate", ["--out"], "calibration data contains NaN or Inf"),
    ], ids=["eval", "search", "sensitivity", "calibrate"])
    def test_one_line_error_without_warnings(self, workspace, overflowing, tmp_path, capsys,
                                            command, argv, message):
        out = tmp_path / "out"
        if argv[-1:] == ["--out"]:
            argv = argv + [str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, "--model", overflowing, "--dataset", workspace["data"],
                       *argv) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"axvit {command}: {message}\n"
        assert not out.exists()


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
        assert open(recomputed).read() == open(os.path.join(out, "pareto.csv")).read()

    @pytest.mark.parametrize("text,message", [
        ("", "no CSV header row"),
        ("config,predicted_accuracy,normalized_power,reward\na|b,0.5\n",
         "a row has a different field count than the header")], ids=["empty", "short row"])
    def test_pareto_malformed_csv(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run("pareto", str(path)) == 1
        assert capsys.readouterr().err == f"axvit pareto: {path}: {message}\n"

    @pytest.mark.parametrize("column", ["predicted_accuracy", "normalized_power", "reward"])
    @pytest.mark.parametrize("text", ["x", "nan", "inf"])
    def test_pareto_non_finite_field(self, tmp_path, capsys, column, text):
        """A field that is not a finite number, in the second data row, ends
        in one line naming the file, row and column; nothing is written."""
        row = {"config": "a|b", "predicted_accuracy": "0.5", "normalized_power": "0.75",
               "reward": "0.25"}
        path, out = tmp_path / "search.csv", tmp_path / "pareto.csv"
        path.write_text("".join(",".join(r) + "\n"
                                for r in (row, row.values(), {**row, column: text}.values())))
        assert run("pareto", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"axvit pareto: {path}: row 2: {column} "
                                           f"{text!r} is not a finite number\n")
        assert not out.exists()


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

    def test_multiplier_bitwidth(self, tmp_path, capsys):
        out = str(tmp_path / "toy4")
        assert run("toy", "trunc4k1", "--out", out, "--iters", "20") == 0
        capsys.readouterr()
        comments, _, rows = cli.read_csv(os.path.join(out, "loss.csv"))
        assert comments["multiplier"] == "trunc4k1"
        assert len(rows) == 20 and all(np.isfinite(float(r[1])) for r in rows)


class TestDatasetFlag:
    def test_synthetic_spec(self, workspace, capsys):
        assert run("eval", "--model", workspace["ckpt"], "--dataset",
                   "synthetic:256:7", "--config", "mul8s_1KV6",
                   "--probe", "64") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 64

    def test_bad_synthetic_spec(self, workspace, capsys):
        assert run("eval", "--model", workspace["ckpt"], "--dataset",
                   "synthetic:10", "--config", "mul8s_1KV6") == 1
        err = capsys.readouterr().err
        assert err.startswith("axvit eval: --dataset: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["init-model", "eval"])
    @pytest.mark.parametrize("spec, field, text", [
        ("synthetic:x:1", "<num>", "x"),
        ("synthetic::1", "<num>", ""),
        ("synthetic:2.5:1", "<num>", "2.5"),
        ("synthetic:-5:1", "<num>", "-5"),
        ("synthetic:64:x", "<seed>", "x"),
        ("synthetic:64:1e3", "<seed>", "1e3"),
        ("synthetic:64:-1", "<seed>", "-1"),
    ])
    def test_bad_synthetic_field(self, workspace, tmp_path, capsys, command, spec, field,
                                 text):
        """A non-integer or negative <num> or <seed> names the flag, not an
        int() literal or numpy's shape or seed error."""
        out = tmp_path / "out"
        argv = {"init-model": ["--train-iters", "2", "--out", str(out)],
                "eval": ["--model", workspace["ckpt"], "--config", "mul8s_1KV6"]}[command]
        assert run(command, "--dataset", spec, *argv) == 1
        err = capsys.readouterr().err
        assert err == (f"axvit {command}: --dataset: {field} must be a non-negative "
                       f"integer, got {text!r} in {spec!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sensitivity", "calibrate", "search"])
    def test_empty_dataset(self, workspace, tmp_path, capsys, command):
        """A dataset without samples ends in the forward pass's one input
        check, whichever command runs it."""
        out = tmp_path / "out"
        argv = {"eval": ["--config", "mul8s_1KV6"], "sensitivity": [],
                "calibrate": ["--out", str(out)], "search": ["--out", str(out)]}[command]
        assert run(command, "--model", workspace["ckpt"], "--dataset", "synthetic:0:1",
                   *argv) == 1
        assert capsys.readouterr().err == f"axvit {command}: empty dataset\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["init-model", "finetune", "eval"])
    def test_image_label_count_mismatch(self, workspace, tmp_path, capsys, command):
        data = tmp_path / "data"
        data.mkdir()
        imgs, labels = dt.synthetic_dataset(100, 1)
        dt.save_idx_images(str(data / "images.idx"), imgs)
        dt.save_idx_labels(str(data / "labels.idx"), labels[:50])
        out = tmp_path / "out"
        argv = {"init-model": ["--train-iters", "3"],
                "finetune": ["--model", workspace["ckpt"], "--config", "mul8s_1KV6",
                             "--iters", "3"],
                "eval": ["--model", workspace["ckpt"], "--config", "mul8s_1KV6"]}[command]
        assert run(command, "--dataset", str(data), "--out", str(out), *argv) == 1
        err = capsys.readouterr().err
        assert err == f"axvit {command}: {data}: 100 images but 50 labels\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["init-model", "finetune", "eval"])
    def test_label_outside_the_classes(self, workspace, tmp_path, capsys, command):
        data = tmp_path / "data"
        data.mkdir()
        imgs, labels = dt.synthetic_dataset(64, 1)
        labels[3] = 200
        dt.save_idx_images(str(data / "images.idx"), imgs)
        dt.save_idx_labels(str(data / "labels.idx"), labels)
        out = tmp_path / "out"
        argv = {"init-model": ["--train-iters", "2"],
                "finetune": ["--model", workspace["ckpt"], "--config", "mul8s_1KV6"],
                "eval": ["--model", workspace["ckpt"], "--config", "mul8s_1KV6"]}[command]
        assert run(command, "--dataset", str(data), "--out", str(out), *argv) == 1
        err = capsys.readouterr().err
        assert err == (f"axvit {command}: labels span [0, 200], "
                       "outside the model's 10 classes [0, 9]\n")
        assert not out.exists()


class TestPowerBaseline:
    def test_catalog_without_builtin_exact_name(self, workspace, tmp_path, capsys):
        catalog = tmp_path / "two.json"
        catalog.write_text(json.dumps([
            {"name": "ex", "bitwidth": 8, "kind": "exact", "power_mw": 0.5},
            {"name": "t2", "bitwidth": 8, "kind": "truncate_lsb", "k": 2,
             "power_mw": 0.3}]))
        assert run("eval", "--model", workspace["ckpt"], "--dataset",
                   workspace["data"], "--config", "ex", "--catalog", str(catalog),
                   "--probe", "16") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["normalized_power"] == 1.0


# Each count is checked where it is owned: TrainHyperparams (iterations,
# batch_size), SearchParams (probe_batch_size), toy_attention_experiment
# (iterations), synthetic_dataset (num_samples) and the probe slice that eval
# and sensitivity share.
BAD_COUNTS = {
    "init-model --train-iters -1": (
        ["init-model", "--train-iters", "-1", "--dataset", "synthetic:64:1"],
        "iterations must be >= 0"),
    "finetune --iters -3": (["finetune", "--config", "mul8s_1KV6", "--iters", "-3"],
                            "iterations must be >= 0"),
    "finetune --batch 0": (["finetune", "--config", "mul8s_1KV6", "--batch", "0"],
                           "batch_size must be >= 1"),
    "eval --probe -5": (["eval", "--config", "mul8s_1KV6", "--probe", "-5"],
                        "--probe must be >= 1"),
    "eval --probe 0": (["eval", "--config", "mul8s_1KV6", "--probe", "0"],
                       "--probe must be >= 1"),
    "search --probe -60": (["search", "--probe", "-60"], "probe_batch_size must be >= 1"),
    "sensitivity --probe -5": (["sensitivity", "--probe", "-5"], "--probe must be >= 1"),
    "toy --iters 0": (["toy", "mul8s_1KV6", "--iters", "0"], "iterations must be >= 1"),
    "gen-data --num -1": (["gen-data", "--num", "-1"], "num_samples must be >= 0, got -1"),
}


# Non-finite floats are rejected where they are owned: SearchParams (lam, c)
# and TrainHyperparams (learning_rate).
NON_FINITE = {
    "search --lambda nan --policy random": (["search", "--lambda", "nan", "--policy", "random"],
                                            "lambda must be finite and >= 0, got nan"),
    "search --lambda nan": (["search", "--lambda", "nan"],
                            "lambda must be finite and >= 0, got nan"),
    "search --lambda inf": (["search", "--lambda", "inf"],
                            "lambda must be finite and >= 0, got inf"),
    "search --c nan": (["search", "--c", "nan"],
                       "exploration constant must be finite and >= 0, got nan"),
    "search --c inf": (["search", "--c", "inf"],
                       "exploration constant must be finite and >= 0, got inf"),
    "finetune --lr nan": (["finetune", "--config", "mul8s_1KV6", "--lr", "nan"],
                          "learning_rate must be finite and >= 0, got nan"),
    "finetune --lr inf": (["finetune", "--config", "mul8s_1KV6", "--lr", "inf"],
                          "learning_rate must be finite and >= 0, got inf"),
}


# A negative seed is rejected before numpy sees it: SearchParams and
# TrainHyperparams own the check, and main makes it for every --seed flag.
NEGATIVE_SEED = {
    command: (argv + ["--seed=-1"], "seed must be >= 0, got -1") for command, argv in {
        "search": ["search"],
        "finetune": ["finetune", "--config", "mul8s_1KV6"],
        "init-model": ["init-model"],
        "gen-data": ["gen-data", "--num", "8"],
        "toy": ["toy", "mul8s_1KV6", "--iters", "2"],
    }.items()
}

# A finite rate too large to train with ends in the training loop's own error.
DIVERGING = {
    "finetune --lr 1e308": (["finetune", "--config", "mul8s_1KV6", "--lr=1e308",
                             "--iters=3", "--batch=8", "--fraction=1"], "training diverged"),
    "init-model --lr 1e308": (["init-model", "--train-iters=3", "--lr=1e308",
                               "--dataset", "synthetic:64:1"], "training diverged"),
}


def assert_rejected(workspace, tmp_path, capsys, argv, message):
    command = argv[0]
    if command not in ("init-model", "toy", "gen-data"):
        argv = argv + ["--model", workspace["ckpt"], "--dataset", workspace["data"]]
    if command != "eval" and command != "sensitivity":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"axvit {command}: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", list(BAD_COUNTS))
def test_out_of_range_count(workspace, tmp_path, capsys, case):
    assert_rejected(workspace, tmp_path, capsys, *BAD_COUNTS[case])


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_flag(workspace, tmp_path, capsys, case):
    assert_rejected(workspace, tmp_path, capsys, *NON_FINITE[case])


@pytest.mark.parametrize("case", list(NEGATIVE_SEED))
def test_negative_seed(workspace, tmp_path, capsys, case):
    assert_rejected(workspace, tmp_path, capsys, *NEGATIVE_SEED[case])


@pytest.mark.parametrize("case", list(DIVERGING))
def test_diverging_rate(workspace, tmp_path, capsys, case):
    assert_rejected(workspace, tmp_path, capsys, *DIVERGING[case])


# Numeric flags of the commands that read a model and a dataset. Counts that
# set the amount of work stay small so an example runs in a fraction of a
# second; floats mix the edge values with in-range and arbitrary ones.
FLAG_FLOATS = (st.sampled_from([0.0, math.nan, math.inf, -math.inf, 1e308, -1e308])
               | st.floats(0, 2) | st.floats())
SEEDS = st.integers(-3, 3)
FUZZED_FLAGS = {
    "eval": {"--probe": st.integers(-3, 40)},
    "sensitivity": {"--probe": st.integers(-3, 40)},
    "search": {"--lambda": FLAG_FLOATS, "--c": FLAG_FLOATS, "--sims": st.integers(-3, 3),
               "--probe": st.integers(-3, 16), "--seed": SEEDS,
               "--policy": st.sampled_from(["hw", "random"])},
    "finetune": {"--lr": FLAG_FLOATS, "--iters": st.integers(-3, 3),
                 "--batch": st.integers(-3, 16), "--fraction": FLAG_FLOATS, "--seed": SEEDS},
    "calibrate": {"--percentile": FLAG_FLOATS, "--bins": st.integers(-3, 3000)},
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_numeric_flags_exit_cleanly(workspace, data):
    command = data.draw(st.sampled_from(sorted(FUZZED_FLAGS)), label="command")
    # --flag=value, so that argparse reads a value like -inf as a value
    flags = [f"{flag}={data.draw(values, label=flag)}"
             for flag, values in FUZZED_FLAGS[command].items()]
    err = io.StringIO()
    with tempfile.TemporaryDirectory(dir=workspace["root"]) as tmp:
        out = os.path.join(tmp, "out")
        fixed = {"eval": ["--config", "mul8s_1L2H"], "sensitivity": [],
                 "search": ["--out", out], "calibrate": ["--out", out],
                 "finetune": ["--config", "mul8s_1L2H", "--out", out]}[command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, "--model", workspace["ckpt"], "--dataset",
                       workspace["data"], *fixed, *flags)
    if code != 0:
        assert code == 1
        assert err.getvalue().startswith(f"axvit {command}: ")
        assert err.getvalue().count("\n") == 1
