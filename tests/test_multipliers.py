import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from axvit.multipliers import (
    LUT_MAGIC,
    AxMultiplier,
    Catalog,
    ProductLut,
    approx_product,
    approx_products,
    build_lut,
    builtin_catalog,
    error_metrics,
    load_catalog,
    load_lut,
    lut_checksum,
    lut_lookup,
    parse_multiplier_spec,
    save_lut,
)
from oracles import brute_force_error_metrics, perforated_product, truncated_product


def mult(kind, b=8, **kw):
    return AxMultiplier(f"test_{kind}", b, kind, **kw)


class TestApproxProduct:
    def test_exact_examples(self):
        m = mult("exact")
        assert approx_product(m, 7, -3) == -21
        assert approx_product(m, 127, 127) == 16129
        assert approx_product(m, 0, -55) == 0

    def test_truncate_example(self):
        assert approx_product(mult("truncate_lsb", k=2), 7, -3) == -16

    def test_perforate_r0_is_exact(self):
        assert approx_product(mult("perforate_pp", r=0), -128, -128) == 16384

    def test_matches_bit_level_oracle_sampled(self):
        rng = np.random.default_rng(11)
        xs = rng.integers(-128, 128, size=300)
        ys = rng.integers(-128, 128, size=300)
        tm = mult("truncate_lsb", k=3)
        pm = mult("perforate_pp", r=2)
        for x, y in zip(xs.tolist(), ys.tolist()):
            assert approx_product(tm, x, y) == truncated_product(x, y, 8, 3)
            assert approx_product(pm, x, y) == perforated_product(x, y, 8, 2)

    def test_out_of_range_names_operand(self):
        with pytest.raises(ValueError, match="operand x"):
            approx_product(mult("exact"), 128, 0)
        with pytest.raises(ValueError, match="operand y"):
            approx_product(mult("exact"), 0, -129)

    def test_array_version_matches_scalar(self):
        m = mult("perforate_pp", r=1)
        xs = np.arange(-128, 128)
        got = approx_products(m, xs[:, None], xs[None, ::8])
        for i, x in enumerate(xs.tolist()):
            for j, y in enumerate(xs[::8].tolist()):
                assert got[i, j] == approx_product(m, x, y)


class TestBuildLut:
    def test_exact_2bit_corner(self):
        lut = build_lut(mult("exact", b=2))
        assert lut.entries[lut.encode(-2), lut.encode(-2)] == 4

    def test_exact_8bit_is_product_table(self):
        lut = build_lut(mult("exact"))
        ops = np.arange(-128, 128)
        assert np.array_equal(lut.entries, ops[:, None] * ops[None, :])

    def test_truncate_matches_functional_exhaustively(self):
        m = mult("truncate_lsb", k=2)
        lut = build_lut(m)
        ops = np.arange(-128, 128)
        assert np.array_equal(lut.entries,
                              approx_products(m, ops[:, None], ops[None, :]))

    @pytest.mark.parametrize("b", range(2, 7))
    def test_perforate_matches_bit_level_oracle_exhaustively(self, b):
        ops = np.arange(-(1 << (b - 1)), 1 << (b - 1))
        for r in range(b):
            m = mult("perforate_pp", b=b, r=r)
            want = [[perforated_product(x, y, b, r) for y in ops.tolist()]
                    for x in ops.tolist()]
            assert np.array_equal(approx_products(m, ops[:, None], ops[None, :]), want)
            assert np.array_equal(build_lut(m).entries, want)

    def test_refuses_large_bitwidth(self):
        """No multiplier is wider than the table cap, so every one has a LUT."""
        for b in (13, 16):
            with pytest.raises(ValueError, match=rf"^bitwidth must be in \[2, 12\], got {b}$"):
                mult("exact", b=b)

    def test_entries_immutable(self):
        lut = build_lut(mult("exact", b=4))
        with pytest.raises(ValueError):
            lut.entries[0, 0] = 1

    def test_entries_outside_int32_raise(self):
        f = np.array([-2, -1, 0, 1 << 16])
        with pytest.raises(ValueError, match=r"\[-131072, 4294967296\], outside the int32"):
            ProductLut(2, np.outer(f, f))  # 2**16 * 2**16 wraps to 0 in int32
        for bad in (1 << 31, -(1 << 31) - 1):
            entries = np.zeros((4, 4), dtype=np.int64)
            entries[3, 3] = bad
            with pytest.raises(ValueError, match="outside the int32 range"):
                ProductLut(2, entries)
        entries[3, 2:] = -(1 << 31), (1 << 31) - 1  # the int32 limits themselves fit
        lut = ProductLut(2, entries)
        assert lut.max_abs == 1 << 31 and lut.entries.dtype == np.int32


class TestLutLookup:
    def test_examples(self):
        exact = build_lut(mult("exact"))
        assert lut_lookup(exact, 127, 127) == 16129
        assert lut_lookup(exact, 0, -55) == 0
        k3 = build_lut(mult("truncate_lsb", k=3))
        assert lut_lookup(k3, 5, 9) == 0

    def test_out_of_range(self):
        lut = build_lut(mult("exact", b=4))
        with pytest.raises(ValueError, match="out of range"):
            lut_lookup(lut, 8, 0)


class TestErrorMetrics:
    def test_exact_is_zero(self):
        em = error_metrics(mult("exact"))
        assert (em.mae_pct, em.wce_pct, em.mre_pct) == (0.0, 0.0, 0.0)

    def test_truncate_k1_matches_brute_force(self):
        em = error_metrics(mult("truncate_lsb", k=1))
        mae, wce, mre = brute_force_error_metrics(
            lambda x, y: truncated_product(x, y, 8, 1), 8)
        assert em.mae_pct == pytest.approx(mae, abs=0)
        assert em.wce_pct == pytest.approx(wce, abs=0)
        assert em.mre_pct == pytest.approx(mre, rel=1e-12)

    def test_mae_monotone_in_k(self):
        maes = [error_metrics(mult("truncate_lsb", k=k)).mae_pct for k in range(5)]
        assert all(a <= b for a, b in zip(maes, maes[1:]))

    def test_mae_le_wce_for_catalog(self):
        for m in builtin_catalog():
            em = error_metrics(m)
            assert 0.0 <= em.mae_pct <= em.wce_pct

    def test_k0_and_r0_equal_exact_exhaustively(self):
        exact = build_lut(mult("exact")).entries
        assert np.array_equal(build_lut(mult("truncate_lsb", k=0)).entries, exact)
        assert np.array_equal(build_lut(mult("perforate_pp", r=0)).entries, exact)


class TestLutFile:
    def test_roundtrip(self, tmp_path):
        lut = build_lut(mult("truncate_lsb", k=2))
        path = str(tmp_path / "t.axlut")
        save_lut(lut, path)
        loaded = load_lut(path)
        assert loaded.bitwidth == lut.bitwidth
        assert np.array_equal(loaded.entries, lut.entries)
        assert lut_checksum(path) == lut_checksum(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_roundtrip_is_bit_exact(self, data):
        """Any table of 2- to 6-bit operands, its entries anywhere in int32,
        loads back with the same bitwidth and entries."""
        bitwidth = data.draw(st.integers(2, 6), label="bitwidth")
        n = 1 << bitwidth
        lo, hi = -2**31, 2**31 - 1
        entries = data.draw(arrays(np.int64, (n, n), elements=st.sampled_from([lo, hi, 0, -1])
                                   | st.integers(lo, hi)), label="entries")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.axlut")
            save_lut(ProductLut(bitwidth, entries), path)
            assert os.path.getsize(path) == len(LUT_MAGIC) + 3 + 4 * n * n
            loaded = load_lut(path)
        assert loaded.bitwidth == bitwidth and loaded.entries.dtype == np.int32
        assert loaded.entries.tobytes() == entries.astype(np.int32).tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.axlut"
        path.write_bytes(b"NOTALUT" * 4)
        with pytest.raises(ValueError, match="magic"):
            load_lut(str(path))

    @pytest.mark.parametrize("cut", [1, 2, 3, 4, 8])
    def test_truncated_payload(self, tmp_path, cut):
        lut = build_lut(mult("exact", b=4))
        path = tmp_path / "t.axlut"
        save_lut(lut, str(path))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated AXLUT payload$"):
            load_lut(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.axlut"
        path.write_bytes(LUT_MAGIC + b"\x01")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated AXLUT header"):
            load_lut(str(path))

    @pytest.mark.parametrize("bitwidth", [0, 1, 13, 16, 255])
    def test_bitwidth_out_of_range(self, tmp_path, bitwidth):
        # checked before the payload read: 16 bits would ask for 16 GiB
        path = tmp_path / "bw.axlut"
        path.write_bytes(LUT_MAGIC + bytes([1, bitwidth, 1]))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: AXLUT bitwidth"):
            load_lut(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.axlut"
        save_lut(build_lut(mult("exact", b=4)), str(path))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: trailing bytes"):
            load_lut(str(path))

    @settings(max_examples=200, deadline=None)
    @given(header=st.binary(max_size=3), payload=st.binary(max_size=80))
    def test_fuzzed_file_loads_or_raises_value_error(self, tmp_path_factory, header, payload):
        path = tmp_path_factory.getbasetemp() / "fuzz.axlut"
        path.write_bytes(LUT_MAGIC + header + payload)
        try:
            lut = load_lut(str(path))
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert len(payload) == 4 * lut.entries.size

    def test_external_multiplier_uses_file(self, tmp_path):
        path = str(tmp_path / "ext.axlut")
        save_lut(build_lut(mult("truncate_lsb", k=1)), path)
        ext = AxMultiplier("ext", 8, "external", lut_path=path)
        assert approx_product(ext, 7, -3) == truncated_product(7, -3, 8, 1)


class TestCatalog:
    def test_builtin_presets(self):
        cat = builtin_catalog()
        assert cat.names() == ["mul8s_1KV6", "mul8s_1KV9", "mul8s_1L2H", "mul8s_1L2L"]
        base = cat.get("mul8s_1KV6")
        assert base.kind == "exact"
        assert (base.power_mw, base.area_um2, base.delay_ns) == (0.425, 729.8, 1.48)
        assert [cat.get(n).power_mw for n in cat.names()] == [0.425, 0.410, 0.301, 0.200]
        assert [getattr(cat.get(n), "k") for n in cat.names()[1:]] == [1, 2, 3]

    def test_roundtrip(self, tmp_path):
        rows = [
            {"name": "ex", "bitwidth": 8, "kind": "exact", "power_mw": 0.425,
             "area_um2": 729.8, "delay_ns": 1.48},
            {"name": "t3", "bitwidth": 8, "kind": "truncate_lsb", "k": 3, "power_mw": 0.2},
            {"name": "p2", "bitwidth": 6, "kind": "perforate_pp", "r": 2, "area_um2": 12.5},
            {"name": "ext", "bitwidth": 8, "kind": "external", "lut_path": "ext.axlut",
             "delay_ns": 0.9},
        ]
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(rows, indent=2))
        loaded = load_catalog(str(path))
        assert loaded.names() == [row["name"] for row in rows]
        for row in rows:
            assert loaded.get(row["name"]) == AxMultiplier(**row)

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[\n{"name": "x",}\n]\n')
        with pytest.raises(ValueError, match=r":2:"):
            load_catalog(str(path))

    @pytest.mark.parametrize("text", ["5", "null", '{"name": "a"}'])
    def test_top_level_must_be_a_list(self, tmp_path, text):
        path = tmp_path / "cat.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected a JSON list"):
            load_catalog(str(path))

    def test_duplicate_name_rejected(self):
        cat = Catalog([mult("exact")])
        with pytest.raises(ValueError):
            cat.add(mult("exact"))

    def test_lut_cache_returns_same_object(self, catalog):
        assert catalog.lut("mul8s_1L2H") is catalog.lut("mul8s_1L2H")

    def test_new_catalog_reads_rewritten_external_lut(self, tmp_path):
        path = str(tmp_path / "ext.axlut")
        ext = AxMultiplier("ext", 8, "external", lut_path=path)
        entries = build_lut(mult("exact")).entries.copy()
        save_lut(ProductLut(8, entries), path)
        assert Catalog([ext]).lut("ext").entries[0, 0] == 16384
        entries[0, 0] += 1
        save_lut(ProductLut(8, entries), path)
        assert Catalog([ext]).lut("ext").entries[0, 0] == 16385


class TestSpecParsing:
    @pytest.mark.parametrize("text,kind,param", [
        ("exact8", "exact", None),
        ("trunc8k2", "truncate_lsb", 2),
        ("perf8r1", "perforate_pp", 1),
    ])
    def test_valid(self, text, kind, param):
        m = parse_multiplier_spec(text)
        assert m.kind == kind and m.bitwidth == 8
        if kind == "truncate_lsb":
            assert m.k == param
        if kind == "perforate_pp":
            assert m.r == param

    @pytest.mark.parametrize("text", ["", "trunc8", "trunc8r2", "exact8k1",
                                      "perf8k1", "bogus8"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_multiplier_spec(text)


class TestValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            AxMultiplier("m", 8, "truncate_lsb", k=8)
        with pytest.raises(ValueError):
            AxMultiplier("m", 8, "perforate_pp", r=-1)
        with pytest.raises(ValueError):
            AxMultiplier("m", 1, "exact")
        with pytest.raises(ValueError):
            AxMultiplier("m", 8, "exact", power_mw=-0.1)

    @pytest.mark.parametrize("field", ["bitwidth", "k", "r"])
    @pytest.mark.parametrize("value", [2.0, True, np.int64(2), "2"])
    def test_integer_fields_must_be_int(self, field, value):
        kind = {"bitwidth": "exact", "k": "truncate_lsb", "r": "perforate_pp"}[field]
        fields = {"bitwidth": 8, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            AxMultiplier("m", kind=kind, **fields)

    @pytest.mark.parametrize("name", [5, "", None, b"m"])
    def test_name_must_be_a_non_empty_string(self, name):
        with pytest.raises(ValueError, match="name must be a non-empty string"):
            AxMultiplier(name, 8)

    def test_catalog_entry_with_a_non_string_name(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([{"name": 5, "bitwidth": 8, "kind": "exact",
                                     "power_mw": 0.4}]))
        with pytest.raises(ValueError) as exc:
            load_catalog(str(path))
        assert str(exc.value) == f"{path}: entry 0: name must be a non-empty string, got 5"

    @pytest.mark.parametrize("field", ["power_mw", "area_um2", "delay_ns"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
    def test_hardware_figures_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            AxMultiplier("m", 8, **{field: value})

    @pytest.mark.parametrize("kind,param", [
        ("perforate_pp", {"k": 2}), ("truncate_lsb", {"r": 3}),
        ("exact", {"lut_path": "x"}), ("external", {"lut_path": "x", "k": 1})],
        ids=["perforate_pp k", "truncate_lsb r", "exact lut_path", "external k"])
    def test_foreign_parameter(self, kind, param):
        with pytest.raises(ValueError, match="takes no"):
            AxMultiplier("m", 8, kind, **param)

    def test_foreign_parameter_at_its_default(self):
        assert (AxMultiplier("m", 8, "perforate_pp", r=1, k=0, lut_path=None)
                == AxMultiplier("m", 8, "perforate_pp", r=1))
