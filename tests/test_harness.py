"""Sweep engine, peak refinement, power-law fits, preset bundles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from nhlab import (DEFAULT_STEP, DerivativeIllDefinedError, NumericalError,
                   ParamSpec, SweepSpec, ValidationError, apply_params,
                   coupling_scaling, exponent_vs_delta, find_peak,
                   fit_power_law, matrix_size_scaling, participation_ratio,
                   point_gap_residual, preset, preset_manifest, probe_state,
                   make_params, qfi, run_sweep, size_scaling,
                   spectral_winding, state_derivative)
from nhlab import harness, metrology
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


def test_parallel_fisher_sweep_matches_serial():
    # every point builds its own measurement bases; the rows stay bit for
    # bit the same across worker counts
    spec = preset("FIG4_HN").sweep(("QFI", "CFI_POSITION", "CFI_CURRENT"),
                                   grid=(-0.4, -0.38, -0.36, -0.34))
    serial = run_sweep(spec, workers=1)
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


def test_sweep_pr_alone_takes_the_probe_state(monkeypatch):
    base = hn_base()
    calls = []
    monkeypatch.setattr(harness, "state_derivatives",
                        lambda *a: calls.append(a))
    spec = SweepSpec(base=base, axis="JR", grid=(-2.6,),
                     observables=frozenset(["PR"]))
    ps = ParamSpec(("JR",), (-2.6,), (DEFAULT_STEP,))
    want = participation_ratio(probe_state(base, ps))
    table = run_sweep(spec)
    assert table.column("PR")[0] == want and calls == []
    assert table.column("error") == [""]


def test_sweep_pr_survives_an_ill_defined_derivative(monkeypatch):
    # the state exists where its derivative does not: PR is still read,
    # QFI carries NaN and the error
    base = hn_base()

    def ill_defined(p, ps):
        raise DerivativeIllDefinedError("steady eigenvalue not isolated")

    monkeypatch.setattr(harness, "state_derivatives", ill_defined)
    spec = SweepSpec(base=base, axis="JR", grid=(-2.6,),
                     observables=frozenset(["PR", "QFI"]))
    row = harness._sweep_row(spec, -2.6)
    ps = ParamSpec(("JR",), (-2.6,), (DEFAULT_STEP,))
    assert row["PR"] == participation_ratio(probe_state(base, ps))
    assert np.isfinite(row["PR"]) and np.isnan(row["QFI"])
    assert row["error"] == "QFI: steady eigenvalue not isolated"


def test_sweep_pr_reads_the_kept_solve_where_qfi_fails(monkeypatch):
    # JR_im = 1e-8 on this short chain: the steady eigenvalue is not
    # isolated, so QFI fails after its solve, and PR's state reads that
    # solve instead of making a second one
    base = make_params(1, 3, 2, JL=1, JR=0.5, Jm=1, JmP=0.5)
    spec = SweepSpec(base=base, axis="JR_im", grid=(1e-8,),
                     observables=frozenset(["QFI", "PR"]))
    solves = []
    solve = metrology.full_spectrum
    monkeypatch.setattr(metrology, "full_spectrum",
                        lambda *a, **k: solves.append(a) or solve(*a, **k))
    row = harness._sweep_row(spec, 1e-8)
    assert len(solves) == 1
    assert row["PR"] == 2.518688438923277 and np.isnan(row["QFI"])
    assert row["error"] == "QFI: steady eigenvalue not isolated at step 4.883e-09"


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


def fisher_bracket():
    """-QFI on FIG4_HN at L = 34 over the bracket find_peak refines."""
    spec = SweepSpec(base=preset("FIG4_HN").resized(34), axis="JR",
                     grid=(-0.4, -0.39, -0.38), observables=frozenset(["QFI"]))

    def f(x):
        return -harness._sweep_row(spec, x)["QFI"]
    return f, -0.4, -0.38


BRENT_CASES = {"parabola": (lambda x: (x - 0.3217) ** 2 + 1.5, -1.0, 2.0),
               "flat": (lambda x: 4.0, 0.0, 1.0),
               "lower end": (lambda x: x, -0.6, -0.2),
               "upper end": (lambda x: -x, -0.6, -0.2),
               "cusp": (lambda x: abs(x - 0.123), -0.5, 0.5)}


@pytest.mark.parametrize("case", list(BRENT_CASES) + ["FIG4_HN"])
def test_bounded_brent_is_scipys_fminbound(case):
    # the same minimum, value and evaluation count as scipy's bounded
    # search, bit for bit
    f, a, b = fisher_bracket() if case == "FIG4_HN" else BRENT_CASES[case]
    evals = []

    def counted(x):
        evals.append(x)
        return f(x)

    want = minimize_scalar(counted, method="bounded", bounds=(a, b),
                           options={"xatol": harness.PEAK_TOL})
    assert want.nfev == len(evals)
    want_evals, evals[:] = evals[:], []
    got = harness._bounded_brent(counted, a, b, harness.PEAK_TOL)
    assert got == (float(want.x), float(want.fun))
    assert evals == want_evals


def scipy_brent(func, a, b, xatol):
    res = minimize_scalar(func, method="bounded", bounds=(a, b),
                          options={"xatol": xatol})
    return res.x, res.fun


@pytest.mark.parametrize("name, L, axis", [("FIG4_HN", 20, "JR"),
                                           ("FIG4_HN", 34, "JR"),
                                           ("FIG4_HN", 50, "JR"),
                                           ("FIG5_TOP", 34, "JR_im")])
def test_find_peak_matches_scipys_search(monkeypatch, name, L, axis):
    b = preset(name)
    center = b.critical[b.param_labels.index(axis)]
    spec = SweepSpec(base=b.resized(L), axis=axis,
                     grid=harness._grid(center - 0.05, center + 0.05, 0.01),
                     observables=frozenset(["QFI"]))
    table = run_sweep(spec)
    got = find_peak(table, "QFI")
    monkeypatch.setattr(harness, "_bounded_brent", scipy_brent)
    want = find_peak(table, "QFI")
    assert not got.boundary and got == want
    assert all(type(v) is type(w) for v, w in zip(got, want))


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


def test_sweep_row_makes_at_most_one_fisher_call(monkeypatch):
    # every Fisher column and PR of a row read one state_derivatives call,
    # in a sweep and in a peak search alike; a row without a Fisher column
    # makes none
    calls, per_row = [], []
    derivatives, row = metrology.state_derivatives, harness._sweep_row
    monkeypatch.setattr(harness, "state_derivatives",
                        lambda p, ps: calls.append(ps) or derivatives(p, ps))

    def counted(spec, x):
        before = len(calls)
        out = row(spec, x)
        per_row.append(len(calls) - before)
        return out
    monkeypatch.setattr(harness, "_sweep_row", counted)
    base = preset("FIG4_HN").resized(16)
    grid = tuple(np.round(np.arange(-0.5, -0.299, 0.02), 10))
    tables = {}
    for obs, want in ((("QFI", "CFI_POSITION", "CFI_CURRENT", "PR"), 1),
                      (("PR", "SLOPE", "GAP_RESIDUAL"), 0)):
        per_row.clear()
        tables[want] = run_sweep(SweepSpec(base=base, axis="JR", grid=grid,
                                           observables=frozenset(obs)),
                                 workers=1)
        assert per_row == [want] * len(grid)
    for column, want in (("QFI", 1), ("PR", 0)):
        per_row.clear()
        find_peak(tables[want], column)
        assert per_row and per_row == [want] * len(per_row)


@pytest.mark.parametrize("call, message", [
    (lambda: exponent_vs_delta("FIG4_HN", (0.05, 0.1, -0.1)),
     "delta grid must be nonnegative"),
    (lambda: exponent_vs_delta("FIG4_HN", (0.05,), Lgrid=(50, 34, 20, 10)),
     "size grid must be strictly increasing"),
    (lambda: exponent_vs_delta("FIG4_HN", (0.05,), Lgrid=(10, 20, 34)),
     "scaling fit needs at least 4 sizes"),
    (lambda: coupling_scaling([0.5], L=10),
     "coupling fit needs at least 2 couplings"),
], ids=["negative delta", "decreasing sizes", "three sizes", "one coupling"])
def test_scaling_inputs_fail_before_any_solve(monkeypatch, call, message):
    solves = []
    solve = metrology.full_spectrum
    monkeypatch.setattr(metrology, "full_spectrum",
                        lambda *a, **k: solves.append(a) or solve(*a, **k))
    with pytest.raises(ValidationError, match=message):
        call()
    assert solves == []


def qfi_table(*values):
    """A QFI sweep table on hn_base(8) holding the given QFI column."""
    spec = SweepSpec(base=hn_base(8), axis="JR", grid=(-2.6, -2.4, -2.2),
                     observables=frozenset(["QFI"]))
    rows = tuple({"value": x, "QFI": v, "error": ""}
                 for x, v in zip(spec.grid, values))
    return harness.SweepTable(spec=spec, rows=rows)


def spec_on(grid):
    return SweepSpec(base=hn_base(8), axis="JR", grid=grid,
                     observables=frozenset(["PR"]))


HARNESS_INPUT_CHECKS = {
    "empty grid": (lambda: spec_on(()), "sweep grid is empty"),
    "finite grid": (lambda: spec_on((-2.6, np.inf)), "sweep grid must be finite"),
    "table column": (lambda: qfi_table().column("SLOPE"),
                     "no column 'SLOPE' in sweep table"),
    "worker count": (lambda: run_sweep(spec_on((-2.6,)), workers="two"),
                     "worker count must be an integer"),
    "peak points": (lambda: find_peak(qfi_table(1.0, np.nan, 2.0), "QFI"),
                    "peak search needs at least 3 valid points"),
    "size order": (lambda: fit_power_law([40, 30, 20, 10], [1.0, 2.0, 3.0, 4.0]),
                   "size grid must be strictly increasing"),
    "fit shapes": (lambda: fit_power_law([1, 2, 3], [1.0, 2.0]),
                   "size and value lists must match one-to-one"),
    "fit finite": (lambda: fit_power_law([1, 2, 3, 4], [1.0, np.nan, 3.0, 4.0]),
                   "power-law fit needs finite data"),
    "fit positive": (lambda: fit_power_law([1, 2, 3, 4], [1.0, -2.0, 3.0, 4.0]),
                     "power-law fit needs positive data"),
    "sweep axis": (lambda: preset("FIG5_TOP").sweep(("QFI",)),
                   "preset FIG5_TOP has no sweep axis"),
    "contrast": (lambda: preset("FIG2_SSH").contrast_sweep(("QFI",)),
                 "preset FIG2_SSH has no contrast model"),
    "size axis": (lambda: size_scaling("FIG5_TOP"),
                  "size_scaling needs a one-axis preset"),
    "coupling sign": (lambda: coupling_scaling([-0.5, 0.5], L=10),
                      "coupling grid must be positive"),
    "coupling order": (lambda: coupling_scaling([0.6, 0.5], L=10),
                       "coupling grid must be strictly increasing"),
}


@pytest.mark.parametrize("case", list(HARNESS_INPUT_CHECKS))
def test_harness_input_checks(case):
    call, message = HARNESS_INPUT_CHECKS[case]
    with pytest.raises(ValidationError) as exc:
        call()
    assert message in str(exc.value)
