"""Per-layer call tracer for nhlab, installed from outside the package.

The package modules import each other's functions by name (``metrology``,
``harness``, ``topology`` and ``cli`` each hold their own
``full_spectrum``, ``build_hamiltonian`` and so on), so wrapping only the
defining module would miss most calls.  ``Tracer.install`` therefore
replaces every module-level binding of a traced function in every loaded
``nhlab`` module, the package namespace included, and ``uninstall`` puts
the originals back.

Counts and times are aggregated in place, one record per function: the
Bloch kernels run tens of thousands of times per pass, and keeping one
span per call would cost more than the calls themselves.  A function's
self time is its wall time minus the wall time of the traced calls it
made.
"""

import importlib
import sys
import time
from collections import Counter

LAYERS = {
    "model": ("build_hamiltonian", "build_bloch", "build_generalized_bloch",
              "chiral_blocks", "build_current_operator"),
    "spectral": ("full_spectrum", "steady_state", "cumulative_population",
                 "participation_ratio"),
    "gbz": ("gbz_contour", "skin_frame", "point_gap_residual"),
    "metrology": ("probe_state", "state_derivative", "family_state_derivative",
                  "qfi", "qfim", "cfi", "cfim", "current_basis",
                  "total_variance_bound"),
    "topology": ("spectral_winding", "band_winding", "line_gap_minima",
                 "direct_band_minimum", "count_spectral_loops",
                 "obc_central_gap", "obc_side_gap", "edge_states"),
    "harness": ("run_sweep", "find_peak"),
    "cli": ("main",),
}

FUNCTIONS = tuple("%s.%s" % (layer, name)
                  for layer, names in LAYERS.items() for name in names)
BUILDERS = frozenset("model." + name for name in LAYERS["model"])


class FunctionStats:
    __slots__ = ("calls", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0


def _nbytes(result):
    if isinstance(result, tuple):
        return sum(_nbytes(part) for part in result)
    return int(getattr(result, "nbytes", 0))


def _is_nhlab(name):
    return name == "nhlab" or name.startswith("nhlab.")


class Tracer:
    """Aggregated call counts, self times and failures per traced function.

    Besides the per-function records it keeps the counts the derived
    metrics need, each taken where the work happens:

    * ``eig_in_derivative``: ``full_spectrum`` calls made while a
      ``state_derivative`` call is open;
    * ``qfi_in_peak``: ``qfi`` calls made while ``find_peak`` is open, one
      per point evaluation of the peak search;
    * ``work_d3``: the sum of D**3 over every ``full_spectrum`` call;
    * ``bytes_built``: the ``nbytes`` of every matrix a builder returns to
      a caller outside the model builders (nested builder calls are not
      counted twice).
    """

    def __init__(self):
        self.stats = {key: FunctionStats() for key in FUNCTIONS}
        self.missing = []
        self.eig_in_derivative = 0
        self.qfi_in_peak = 0
        self.work_d3 = 0
        self.bytes_built = 0
        self._open = Counter()
        self._build_depth = 0
        self._child_time = []
        self._patches = []
        self._originals = {}
        for key in FUNCTIONS:
            layer, name = key.split(".")
            fn = getattr(importlib.import_module("nhlab." + layer), name, None)
            if fn is None:
                # a function a later version removed is called zero times
                self.missing.append(key)
            else:
                self._originals[id(fn)] = (key, fn)

    def install(self):
        """Replace every binding of a traced function in the nhlab modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, mod in sorted(sys.modules.items()):
            if not _is_nhlab(mod_name) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                entry = self._originals.get(id(value))
                if entry is None or entry[1] is not value:
                    continue
                key, fn = entry
                if key not in wrappers:
                    wrappers[key] = self._wrap(key, fn)
                setattr(mod, attr, wrappers[key])
                self._patches.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches = []

    def bindings_left(self):
        """Module-level names in nhlab that still hold an unwrapped function."""
        left = []
        for mod_name, mod in sys.modules.items():
            if not _is_nhlab(mod_name) or mod is None:
                continue
            for attr, value in vars(mod).items():
                entry = self._originals.get(id(value))
                if entry is not None and entry[1] is value:
                    left.append("%s.%s" % (mod_name, attr))
        return sorted(left)

    @property
    def patched(self):
        return len(self._patches)

    def _wrap(self, key, fn):
        stats = self.stats[key]
        open_calls = self._open
        child_time = self._child_time
        clock = time.perf_counter
        is_builder = key in BUILDERS
        is_cli = key == "cli.main"
        after = {"spectral.full_spectrum": self._after_eig,
                 "metrology.qfi": self._after_qfi}.get(key)

        def traced(*args, **kwargs):
            outermost_build = is_builder and not self._build_depth
            self._build_depth += is_builder
            open_calls[key] += 1
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            else:
                if is_cli and result != 0:
                    stats.failed += 1
                if outermost_build:
                    self.bytes_built += _nbytes(result)
                if after is not None:
                    after(args, kwargs)
                return result
            finally:
                elapsed = clock() - t0
                stats.calls += 1
                stats.self_s += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                open_calls[key] -= 1
                self._build_depth -= is_builder

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _after_eig(self, args, kwargs):
        H = args[0] if args else kwargs["H"]
        self.work_d3 += len(H) ** 3
        if self._open["metrology.state_derivative"]:
            self.eig_in_derivative += 1

    def _after_qfi(self, args, kwargs):
        if self._open["harness.find_peak"]:
            self.qfi_in_peak += 1

    def self_total(self):
        """Sum of the self times of every traced function so far."""
        return sum(st.self_s for st in self.stats.values())

    def metrics(self, passes, ops, untraced_study_s, traced_study_s,
                traced_self_s):
        """Per-pass layer metrics, keyed as in BENCHMARK.json.

        traced_study_s and traced_self_s are the wall time and the summed
        self times of the same traced pass.
        """
        out = {}
        failed = Counter()
        for key in FUNCTIONS:
            st = self.stats[key]
            out[key + ".calls"] = (st.calls / passes, "count")
            out[key + ".self_s"] = (st.self_s / passes, "s")
            failed[key.split(".")[0]] += st.failed
        for layer in LAYERS:
            out[layer + ".failed"] = (failed[layer] / passes, "count")
        derivs = self.stats["metrology.state_derivative"].calls
        peaks = self.stats["harness.find_peak"].calls
        eigs = self.stats["spectral.full_spectrum"].calls
        out["metrology.eig_per_derivative"] = (
            self.eig_in_derivative / derivs if derivs else 0.0, "ratio")
        out["harness.evals_per_peak"] = (
            self.qfi_in_peak / peaks if peaks else 0.0, "ratio")
        out["spectral.eig_per_op"] = (eigs / ops if ops else 0.0, "ratio")
        out["spectral.work_D3"] = (self.work_d3 / passes, "count")
        out["model.bytes_built"] = (self.bytes_built / passes, "B")
        out["trace.overhead_frac"] = (
            (traced_study_s - untraced_study_s) / untraced_study_s, "fraction")
        out["trace.unaccounted_frac"] = (
            (untraced_study_s - traced_self_s) / untraced_study_s, "fraction")
        return out
