"""In-memory span recording around the public functions of each layer.

The layers are the package's modules.  A traced function is replaced by a
wrapper at every binding the package holds for it: ``udesign.cli`` imports
``simulate``, ``search`` and others by name, ``udesign.povm`` imports
``class_projector`` and ``jamiolkowski`` by name, and the package namespace
binds ``udesign.search`` to the *function*, so patching only the defining
module would miss most calls.  The program itself is never edited.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# Public functions timed per layer, as '<module>.<function>' under udesign.
TRACED = (
    'cli.main',
    'io.load_design', 'io.save_design', 'io.write_report', 'io.write_search_log',
    'designs.certify', 'designs.group_closure', 'designs.merge_phase_duplicates',
    'linalg.class_projector', 'linalg.herm_basis', 'linalg.log_unitary',
    'channels.channel_from_spec', 'channels.jamiolkowski',
    'povm.povm_from_design', 'povm.tight_check', 'povm.frame_superop',
    'povm.canonical_dual', 'povm.outcome_probabilities', 'povm.simulate',
    'povm.sample_counts', 'povm.reconstruct',
    'search.search', 'search.objective_and_gradient',
)

# Groups of traced functions whose share of op time justifies each workload:
# sampling dominates tomo-qubit; preparation, duals and reconstruction
# outweigh sampling on tomo-qutrit; the objective dominates search-mix.
SHARES = {
    'povm.sample_counts': ('povm.sample_counts',),
    'prep_dual_reconstruct': ('io.load_design', 'povm.povm_from_design', 'povm.tight_check',
                              'povm.frame_superop', 'linalg.class_projector', 'povm.canonical_dual',
                              'povm.outcome_probabilities', 'povm.reconstruct'),
    'search.objective_and_gradient': ('search.objective_and_gradient',),
}

# Files each io writer produced, from its positional arguments and result;
# their sizes give io.bytes_written.
WRITTEN = {
    'io.save_design': lambda args, result: [args[1]],
    'io.write_search_log': lambda args, result: [args[0]],
    'io.write_report': lambda args, result: [args[0], result],
}


class Tracer:
    """Spans as [name, start, end, parent index, op id], kept in memory.

    Calls are single-threaded, so an open-span stack gives each span its
    parent.  ``io.bytes_written`` is measured after the writer's span has
    closed, from the sizes of the files it wrote.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.bytes_written = 0
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        written = WRITTEN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if written:
                self.bytes_written += sum(os.path.getsize(p) for p in written(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every udesign binding of each traced function by a wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == 'udesign' or key.startswith('udesign.'))]
        for target in TRACED:
            layer, func = target.split('.')
            original = getattr(importlib.import_module(f'udesign.{layer}'), func)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def layer_totals(spans: list[list], lo: int = 0, hi: int | None = None) -> dict[str, dict]:
    """Per name: call count, inclusive seconds and self seconds over spans[lo:hi].

    Self time is the span's duration minus that of its direct children; on
    one thread the children of a span are disjoint and lie inside it.
    """
    hi = len(spans) if hi is None else hi
    child_time = [0.0] * (hi - lo)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child_time[parent - lo] += end - start
    totals = {name: {'calls': 0, 's': 0.0, 'self_s': 0.0} for name in TRACED}
    for k, (name, start, end, _, _) in enumerate(spans[lo:hi]):
        entry = totals[name]
        entry['calls'] += 1
        entry['s'] += end - start
        entry['self_s'] += end - start - child_time[k]
    return totals


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with span nesting: a child must lie inside its parent and share its op id."""
    problems = []
    for k, (name, start, end, parent, op_id) in enumerate(spans):
        if not start <= end:
            problems.append(f"span {k} ({name}) ends before it starts")
        if parent < 0:
            continue
        p_name, p_start, p_end, _, p_op = spans[parent]
        if parent >= k or not (p_start <= start and end <= p_end) or p_op != op_id:
            problems.append(f"span {k} ({name}) does not nest in span {parent} ({p_name})")
    return problems


def covered_time(spans: list[list], names, lo: int = 0, hi: int | None = None) -> float:
    """Seconds of operation time inside any span named in ``names``, over spans[lo:hi].

    Spans recorded during set-up (op id ending in ':setup') are skipped.  A
    span nested in another span of the group is counted once, through its
    outermost ancestor in the group.
    """
    hi = len(spans) if hi is None else hi
    names = set(names)
    total = 0.0
    for name, start, end, parent, op_id in spans[lo:hi]:
        if name not in names or str(op_id).endswith(':setup'):
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total
