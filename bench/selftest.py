"""Tests of the benchmark's tracer against the package's known work counts.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

The counts are those of the current finite-difference derivative and
golden-section peak search: a QFI sweep point on FIG4_HN at L=50 costs 6
``full_spectrum`` calls (5 inside ``state_derivative``), a ``find_peak``
costs 24 point evaluations, and a QFIM point costs 1+5l solves (11 on
FIG5_TOP, 16 on FIG5_BOTTOM).  A change that alters them on purpose
changes these expectations with it.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nhlab  # noqa: E402
from tracer import FUNCTIONS, Tracer  # noqa: E402


def traced(fn):
    """Run fn under a fresh tracer; return the tracer."""
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def calls(tracer, key):
    return tracer.stats[key].calls


def test_every_binding_is_wrapped_and_restored():
    tracer = Tracer()
    assert tracer.missing == []
    bindings = len(tracer.bindings_left())
    tracer.install()
    try:
        assert tracer.bindings_left() == []
        # the re-exports in the package namespace and the by-name imports
        # in other modules are bindings too
        assert tracer.patched == bindings > len(FUNCTIONS)
        assert nhlab.full_spectrum is nhlab.metrology.full_spectrum
        assert nhlab.full_spectrum is not nhlab.full_spectrum.__wrapped__
    finally:
        tracer.uninstall()
    assert len(tracer.bindings_left()) == bindings
    assert not hasattr(nhlab.full_spectrum, "__wrapped__")
    assert not hasattr(nhlab.harness.full_spectrum, "__wrapped__")


def test_qfi_sweep_point_makes_six_solves():
    spec = nhlab.preset("FIG4_HN").sweep(("QFI",), grid=(-0.4,))
    tracer = traced(lambda: nhlab.run_sweep(spec, workers=1))
    assert calls(tracer, "spectral.full_spectrum") == 6
    assert calls(tracer, "metrology.state_derivative") == 1
    assert tracer.eig_in_derivative == 5
    assert tracer.work_d3 == 6 * 150 ** 3


def test_peak_search_makes_24_evaluations():
    spec = nhlab.preset("FIG4_HN").sweep(("QFI",), grid=(-0.41, -0.4, -0.39))
    table = nhlab.run_sweep(spec, workers=1)
    tracer = traced(lambda: nhlab.find_peak(table, "QFI"))
    assert calls(tracer, "harness.find_peak") == 1
    assert tracer.qfi_in_peak == 24
    assert calls(tracer, "metrology.qfi") == 24


def test_qfim_point_makes_one_plus_five_l_solves():
    for name, solves in (("FIG5_TOP", 11), ("FIG5_BOTTOM", 16)):
        b = nhlab.preset(name)
        base = b.resized(34)
        ps = nhlab.ParamSpec(b.param_labels, b.critical,
                             (nhlab.DEFAULT_STEP,) * len(b.critical))

        def point():
            psi = nhlab.probe_state(base, ps)
            dpsis = [nhlab.state_derivative(base, ps, i) for i in range(ps.l)]
            nhlab.qfim(psi, dpsis, ps)

        tracer = traced(point)
        assert calls(tracer, "spectral.full_spectrum") == solves, name
        assert tracer.eig_in_derivative == solves - 1, name


def test_builder_bytes_count_outermost_calls_only():
    p = nhlab.preset("FIG3").params
    tracer = traced(lambda: nhlab.chiral_blocks(p, 1.0 + 0j))
    # chiral_blocks builds a 4x4 generalized Bloch matrix internally and
    # returns two 2x2 blocks; only what it returns counts
    assert calls(tracer, "model.build_generalized_bloch") == 1
    assert tracer.bytes_built == 2 * 2 * 2 * 16


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print("FAIL %s: %s" % (name, exc))
            else:
                print("ok   %s" % name)
    sys.exit(1 if failures else 0)
