"""Sweep engine, peak refinement, power-law fits, preset bundles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhlab import (NumericalError, ParamSpec, SweepSpec, ValidationError,
                   apply_params, coupling_scaling, exponent_vs_delta,
                   find_peak, fit_power_law, matrix_size_scaling,
                   point_gap_residual, preset, preset_manifest, probe_state,
                   qfi, run_sweep, size_scaling, spectral_winding,
                   state_derivative)
from nhlab import harness
from nhlab.harness import PRESET_NAMES


def hn_base(L=10):
    return preset("FIG2_HN").resized(L)


def at_critical(bundle):
    ps = ParamSpec(bundle.param_labels, bundle.critical,
                   (1e-5,) * len(bundle.param_labels))
    return apply_params(bundle.params, ps)


def test_sweep_spec_validation():
    base = hn_base()
    with pytest.raises(ValidationError):
        SweepSpec(base=base, axis="XX", grid=(0.1, 0.2),
                  observables=frozenset(["QFI"]))
    with pytest.raises(ValidationError):
        SweepSpec(base=base, axis="JR", grid=(0.2, 0.1),
                  observables=frozenset(["QFI"]))
    with pytest.raises(ValidationError):
        SweepSpec(base=base, axis="JR", grid=(0.1, 0.2),
                  observables=frozenset(["NOPE"]))
    with pytest.raises(ValidationError):
        SweepSpec(base=base, axis="JR", grid=(0.1, 0.2),
                  observables=frozenset())


def test_sweep_columns_are_ordered():
    spec = SweepSpec(base=hn_base(), axis="JR", grid=(-2.6, -2.4),
                     observables=frozenset(["SLOPE", "GAP_RESIDUAL", "PR"]))
    assert spec.columns == ("value", "GAP_RESIDUAL", "SLOPE", "PR", "error")


def test_run_sweep_is_deterministic():
    spec = SweepSpec(base=hn_base(), axis="JR",
                     grid=(-2.8, -2.5, -2.2, -2.0),
                     observables=frozenset(["GAP_RESIDUAL", "SLOPE"]))
    t1 = run_sweep(spec)
    t2 = run_sweep(spec)
    for c in t1.columns[:-1]:
        assert np.array_equal(t1.column(c), t2.column(c))
    # the residual root sits on the grid
    res = t1.column("GAP_RESIDUAL")
    assert res[-1] == 0.0 and np.all(res[:-1] > 0)


def test_parallel_sweep_matches_serial():
    spec = SweepSpec(base=hn_base(), axis="JR",
                     grid=(-2.8, -2.6, -2.4, -2.2),
                     observables=frozenset(["GAP_RESIDUAL", "SLOPE",
                                            "WINDING_SPECTRAL"]))
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    for c in spec.columns[:-1]:
        assert np.array_equal(serial.column(c), parallel.column(c))
    want = [spectral_winding(hn_base().with_updates(JR=x), 0j).value
            for x in spec.grid]
    assert serial.column("WINDING_SPECTRAL").tolist() == want


def test_current_basis_is_built_once_per_sweep(monkeypatch):
    calls = []
    build = harness.current_basis

    def counted(p):
        calls.append(p.D)
        return build(p)

    monkeypatch.setattr(harness, "current_basis", counted)
    spec = preset("FIG4_HN").sweep(("QFI", "CFI_CURRENT"),
                                   grid=(-0.4, -0.38, -0.36, -0.34))
    serial = run_sweep(spec, workers=1)
    assert calls == [150]
    calls.clear()
    find_peak(serial, "CFI_CURRENT")
    assert calls == [150]
    calls.clear()
    run_sweep(preset("FIG4_HN").sweep(("QFI",), grid=(-0.41, -0.4)), workers=1)
    assert calls == []
    # each pool worker builds its own; the rows stay bit for bit the same
    parallel = run_sweep(spec, workers=2)
    for c in spec.columns[:-1]:
        assert np.array_equal(serial.column(c), parallel.column(c))
    assert serial.column("error") == parallel.column("error") == [""] * 4


def test_sweep_qfi_is_the_probe_state_qfi():
    # at L=100 the raw dense solve picks a different steady state (overlap
    # 0.04 with the balanced one); the sweep must use the same state as
    # probe_state, so the two QFIs agree exactly
    base = hn_base(L=100)
    spec = SweepSpec(base=base, axis="JR", grid=(-3.0,),
                     observables=frozenset(["QFI"]))
    ps = ParamSpec(("JR",), (-3.0,), (1e-5,))
    direct = qfi(probe_state(base, ps), state_derivative(base, ps, 0))
    assert run_sweep(spec).column("QFI")[0] == direct


def test_sweep_tags_failing_points():
    base = preset("FIG4_HN").params
    grid = tuple(np.round(np.arange(-0.48, -0.299, 0.02), 10)) + (-0.22,)
    spec = SweepSpec(base=base, axis="JR", grid=grid,
                     observables=frozenset(["QFI"]))
    table = run_sweep(spec)
    bad = [row for row in table if row["error"]]
    assert len(bad) == 1
    assert bad[0]["value"] == -0.22
    assert np.isnan(bad[0]["QFI"])
    assert "QFI" in bad[0]["error"]


def test_sweep_aborts_when_most_points_fail():
    spec = SweepSpec(base=hn_base(8), axis="JR", grid=(-2.6, -2.4, -2.2),
                     observables=frozenset(["WINDING_BAND"]))
    with pytest.raises(NumericalError):
        run_sweep(spec)


def test_find_peak_refines_an_interior_maximum():
    base = preset("FIG4_HN").resized(16)
    spec = SweepSpec(base=base, axis="JR",
                     grid=tuple(np.round(np.arange(-0.5, -0.299, 0.02), 10)),
                     observables=frozenset(["QFI"]))
    table = run_sweep(spec)
    pk = find_peak(table, "QFI")
    assert not pk.boundary
    # the refined location lies strictly inside the coarse argmax's bracket
    i = int(np.nanargmax(table.column("QFI")))
    assert 0 < i < len(spec.grid) - 1
    assert spec.grid[i - 1] < pk.location < spec.grid[i + 1]
    assert pk.value >= float(np.nanmax(table.column("QFI")))
    with pytest.raises(ValidationError):
        find_peak(table, "value")


def test_find_peak_flags_boundary_maxima():
    spec = SweepSpec(base=hn_base(12), axis="JR", grid=(-3.0, -2.8, -2.6),
                     observables=frozenset(["SLOPE"]))
    pk = find_peak(run_sweep(spec), "SLOPE")
    assert pk.boundary
    assert pk.location == -3.0


def test_fit_power_law_recovers_exact_exponent():
    N = np.array([10, 20, 40, 80])
    fit = fit_power_law(N, 3.0 * N.astype(float) ** 2)
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.Ngrid == (10, 20, 40, 80)
    with pytest.raises(ValidationError):
        fit_power_law([10, 20, 40], [1.0, 2.0, 3.0])


@settings(derandomize=True, deadline=None, max_examples=20)
@given(c=st.floats(1e-3, 1e3, allow_nan=False))
def test_fit_power_law_scale_equivariance(c):
    N = np.array([8, 16, 32, 64, 128])
    y = 1.7 * N.astype(float) ** 1.3
    a = fit_power_law(N, y)
    b = fit_power_law(N, c * y)
    assert b.exponent == pytest.approx(a.exponent, abs=1e-9)
    assert b.prefactor == pytest.approx(c * a.prefactor, rel=1e-9)


def test_preset_bundles_are_consistent():
    manifest = preset_manifest()
    for name in PRESET_NAMES:
        b = preset(name)
        assert b.name == name
        assert name in manifest
        assert len(b.critical) >= 1
        if b.axis is None:
            # matrix families: one critical coordinate per label
            assert len(b.critical) == len(b.param_labels)
        if b.grid is not None:
            assert np.all(np.diff(b.grid) > 0)
    # every number the manifest writes parses back as a float
    parsed = 0
    for line in manifest.splitlines():
        key, _, value = line.partition(" = ")
        if key in ("grid_min", "grid_max", "critical"):
            for item in value.split(","):
                float(item)
            parsed += 1
    axes = sum(preset(name).axis is not None for name in PRESET_NAMES)
    assert parsed == len(PRESET_NAMES) + 2 * axes
    with pytest.raises(ValidationError):
        preset("FIG9_NOPE")


def test_preset_critical_points_close_the_point_gap():
    for name in ("FIG2_HN", "FIG2_SSH", "FIG4_HN", "FIG4_SSH"):
        b = preset(name)
        ps = ParamSpec(b.param_labels, b.critical[:1], (1e-5,))
        assert point_gap_residual(apply_params(b.params, ps)) < 1e-12, name
    for name in ("FIG5_TOP", "FIG5_BOTTOM"):
        assert point_gap_residual(at_critical(preset(name))) < 1e-10, name


def test_size_scaling_rows():
    rows = size_scaling("FIG4_HN", Lgrid=(6, 8, 10, 12), delta=0.1)
    assert [r["L"] for r in rows] == [6, 8, 10, 12]
    for r in rows:
        assert r["N"] == 3 * r["L"]
        assert r["location"] == pytest.approx(-0.5)
        assert np.isfinite(r["value"]) and r["value"] > 0
    fit = fit_power_law([r["N"] for r in rows], [r["value"] for r in rows])
    assert 0.0 <= fit.r2 <= 1.0


def test_exponent_vs_delta_rows():
    rows = exponent_vs_delta("FIG4_HN", (0.3, 0.6), Lgrid=(6, 8, 10, 12))
    assert [r["delta"] for r in rows] == [0.3, 0.6]
    for r in rows:
        assert np.isfinite(r["exponent"])
        assert 0.0 <= r["r2"] <= 1.0
    with pytest.raises(ValidationError):
        exponent_vs_delta("FIG4_HN", (-0.1,), Lgrid=(6, 8, 10, 12))


def test_coupling_scaling_slope():
    rows, slope, r2 = coupling_scaling((0.4, 0.55), L=20)
    assert len(rows) == 2
    assert -2.3 < slope < -1.6
    assert r2 > 0.95


def test_matrix_size_scaling_rows():
    rows = matrix_size_scaling("FIG5_TOP", Lgrid=(6, 9))
    for r in rows:
        assert r["N"] == 3 * r["L"]
        assert r["F_JR_re"] > 0 and r["F_JR_im"] > 0
        assert r["inv_trace_bound"] > 0
        w = r["F_eigenvalues"]
        assert list(w) == sorted(w)
        assert abs(sum(w) - r["F_JR_re"] - r["F_JR_im"]) <= 1e-9 * w[-1]
        # 1/Tr(F^-1) = 1/sum(1/w_i) cannot exceed the smallest eigenvalue
        assert r["inv_trace_bound"] <= w[0] * (1.0 + 1e-9)
    a, b = rows[-1]["F_JR_re"], rows[-1]["F_JR_im"]
    assert abs(a - b) < 1e-3 * abs(a)
