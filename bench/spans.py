"""Outside-in tracing: spans around calls into digitop's public functions.

Every entry of ``SITES`` names a module and the public attributes wrapped
there. Wrapping at the import site (``digitop.homotopy.assignments_in_context``
rather than ``digitop.enumeration.assignments_in_context``) catches the calls
one layer makes into another. A span's layer is the module that defines the
wrapped function. No underscore name is wrapped, so private helpers count
as the self time of their caller. Spans stay in memory; ``layer_sums``
reduces them when the traced work is done.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("enumeration", "homotopy", "spectra", "homotopy_spectra", "verify", "fileio", "cli")

_LIBRARY_API = (
    "enumerate_continuous_maps", "count_continuous_maps", "one_step_neighbors",
    "homotopy_class", "are_homotopic", "is_nullhomotopic", "is_contractible",
    "is_rigid_image", "is_rigid_map",
    "coincidence_spectrum", "coincidence_spectrum_by_search", "coincidence_spectrum_union",
    "coincidence_spectra_by_arity", "fixed_point_spectrum", "common_fixed_spectrum",
    "common_fixed_spectrum_union",
    "hcs", "hfs", "hcs_of_classes", "hfs_of_classes", "mc", "mcf", "m_j_of_map",
    "self_coincidence_sequence",
    "conjecture_search", "run_suite",
    "load_image", "load_map", "dump_image", "dump_map",
)

# import site -> public attributes wrapped there
SITES = {
    "digitop": _LIBRARY_API,
    "digitop.homotopy": ("assignments_in_context", "one_step_neighbors"),
    "digitop.spectra": ("enumerate_assignments",),
    "digitop.homotopy_spectra": ("homotopy_class",),
    "digitop.verify": (
        "enumerate_continuous_maps", "homotopy_class", "is_contractible", "is_rigid_image",
        "hcs_of_classes", "hfs_of_classes", "self_coincidence_sequence",
        "coincidence_spectra_by_arity", "coincidence_spectrum",
        "coincidence_spectrum_by_search", "fixed_point_spectrum",
    ),
    "digitop.cli": (
        "cli_dispatch", "count_continuous_maps", "enumerate_continuous_maps",
        "load_image", "load_map", "dump_image",
        "are_homotopic", "homotopy_class", "is_contractible", "is_rigid_image", "is_rigid_map",
        "hcs", "hfs", "mc", "mcf", "self_coincidence_sequence",
        "coincidence_spectrum", "coincidence_spectrum_union", "common_fixed_spectrum",
        "common_fixed_spectrum_union", "fixed_point_spectrum",
        "conjecture_search", "run_suite",
    ),
}

# indices into a span record
LAYER, NAME, PARENT, START, END, RESULT = range(6)


def _summary(result):
    """Work counts read from a public return value, or None."""
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[0], list):
        return ("enum", len(result[0]), result[2])
    if hasattr(result, "nodes_used") and hasattr(result, "maps"):
        return ("enum", len(result.maps), result.nodes_used)
    if hasattr(result, "members") and hasattr(result, "representative"):
        return ("class", len(result.members))
    if isinstance(result, list) and result and hasattr(result[0], "check_id"):
        return ("reports", len(result))
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.saved: list[tuple] = []
        self.missing: list[str] = []
        self.layers_seen: set[str] = set()

    def _wrap(self, fn, cache):
        wrapper = cache.get(id(fn))
        if wrapper is not None:
            return wrapper
        layer = fn.__module__.rpartition(".")[2]
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, fn.__name__, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[RESULT] = _summary(result)
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        cache[id(fn)] = traced
        self.layers_seen.add(layer)
        return traced

    def install(self) -> None:
        """Wrap every listed attribute; a missing one is noted, not fatal."""
        cache: dict = {}
        for site, names in SITES.items():
            try:
                module = importlib.import_module(site)
            except ImportError:
                self.missing.append(site)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn) or isinstance(fn, type):
                    self.missing.append(f"{site}.{name}")
                    continue
                self.saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn, cache))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self.saved):
            setattr(module, name, fn)
        self.saved.clear()

    def absent_layers(self) -> list[str]:
        return [layer for layer in LAYERS if layer not in self.layers_seen]

    def layer_sums(self) -> dict:
        """Additive per-layer totals of one sweep (or one CLI command)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        sums = {f"{layer}.{key}": 0 for layer in LAYERS for key in ("calls", "self_s")}
        for key in ("enumeration.nodes", "enumeration.maps_out", "homotopy.class_members",
                    "homotopy.inner_enumerations", "homotopy.class_enum_maps",
                    "spectra.pool_maps", "verify.reports", "cli.import_s"):
            sums[key] = 0
        for k, span in enumerate(spans):
            layer = span[LAYER]
            if layer not in LAYERS:
                continue
            parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
            sums[f"{layer}.self_s"] += span[END] - span[START] - child_time[k]
            if parent is not None and parent[LAYER] == layer:
                continue  # a call inside its own layer is not an entry
            sums[f"{layer}.calls"] += 1
            result = span[RESULT]
            if result is None:
                continue
            if result[0] == "enum":
                sums["enumeration.maps_out"] += result[1]
                sums["enumeration.nodes"] += result[2]
                if parent is not None and parent[LAYER] == "homotopy":
                    sums["homotopy.inner_enumerations"] += 1
                    if parent[RESULT] is not None and parent[RESULT][0] == "class":
                        sums["homotopy.class_enum_maps"] += result[1]
                if parent is not None and parent[LAYER] == "spectra":
                    sums["spectra.pool_maps"] += result[1]
            elif result[0] == "class":
                sums["homotopy.class_members"] += result[1]
            elif result[0] == "reports":
                sums["verify.reports"] += result[1]
        return sums

