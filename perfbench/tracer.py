"""Spans around pseudofermion's public functions, installed from outside the package.

`Tracer.install` replaces every traced function under each name that binds
it (``from .x import y`` makes several bindings), so calls made inside the
package are traced as well as calls made by the benchmark.  Spans stay in
memory; `Tracer.uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time

# Traced functions as (module, qualified name).  `overlaps.overlap` is left
# out: a Gram matrix calls it ~M^2/2 times, so its spans would dominate.
TRACED = (
    ("overlaps", "gram_block"),
    ("blocks", "realize_basis_cholesky"),
    ("blocks", "synthesize_ladders"),
    ("blocks", "build_block_system"),
    ("blocks", "verify_block_system"),
    ("blocks", "deformed_number_operators"),
    ("assembly", "assemble"),
    ("assembly", "global_resolution_check"),
    ("fock", "build_fock_rep"),
    ("fock", "nogo_joint_kernel"),
    ("bicoherent", "build_family"),
    ("bicoherent", "states_at"),
    ("bicoherent", "resolution_of_identity"),
    ("bicoherent", "upper_symbol"),
    ("fixtures", "closed_form_m1"),
    ("fixtures", "closed_form_m2"),
    ("cli", "main"),
    ("cli", "run_gram"),
    ("cli", "run_block"),
    ("cli", "run_nogo"),
    ("cli", "run_assemble"),
    ("cli", "run_bicoherent"),
    ("cli", "run_verify_fixtures"),
    ("cli", "ReportDocument.to_json"),
)

PACKAGE = "pseudofermion"

OP_SPAN = "op"

# Calls timed per repeat when measuring what one span costs.
SPAN_COST_CALLS = 20000

# Span record fields.
NAME, START, END, PARENT, OP_ID, ERROR = range(6)


class Tracer:
    """Records nested spans ``[name, start_ns, end_ns, parent, op_id, error]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self._op_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int) -> list:
        self._op_id = op_id
        return self._open(OP_SPAN)

    def end_op(self, record: list) -> None:
        self._close(record)
        self._op_id = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                self._close(record)

        return traced

    def install(self) -> None:
        """Wrap every function of `TRACED` that the package still defines."""
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, qualname in TRACED:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner).get(attr)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{module_name}.{qualname}", original)
            if owner_name:
                self._bind(owner, attr, original, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, key, original, wrapper)

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def span_cost_ns() -> float:
    """Extra time one traced call costs over a plain call, best of three."""

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)

    def per_call(fn) -> float:
        t0 = time.perf_counter_ns()
        for _ in range(SPAN_COST_CALLS):
            fn()
        return (time.perf_counter_ns() - t0) / SPAN_COST_CALLS

    return max(0.0, min(per_call(traced) for _ in range(3)) - min(per_call(noop) for _ in range(3)))


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for record in spans:
        if record[PARENT] >= 0:
            children.setdefault(record[PARENT], []).append((record[START], record[END]))
    result = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def layer_metrics(spans: list[list]) -> dict[str, dict[str, float]]:
    """``<module>.<function>`` -> summed self time (ms), calls and errors."""
    table = {
        f"{module_name}.{qualname}": {"self_ms": 0.0, "calls": 0, "errors": 0}
        for module_name, qualname in TRACED
    }
    for record, self_ns in zip(spans, self_times_ns(spans)):
        row = table.get(record[NAME])
        if row is None:
            continue
        row["self_ms"] += self_ns / 1e6
        row["calls"] += 1
        row["errors"] += int(record[ERROR])
    return table


def op_summaries(spans: list[list]) -> list[dict]:
    """Per traced op: its wall time and the summed self time of its traced calls."""
    selfs = self_times_ns(spans)
    ops: dict[int, dict] = {}
    for record, self_ns in zip(spans, selfs):
        op = ops.setdefault(
            record[OP_ID],
            {"op_id": record[OP_ID], "wall_ms": 0.0, "traced_self_ms": 0.0, "spans": 0},
        )
        if record[NAME] == OP_SPAN:
            op["wall_ms"] = (record[END] - record[START]) / 1e6
        else:
            op["traced_self_ms"] += self_ns / 1e6
            op["spans"] += 1
    return [ops[key] for key in sorted(ops)]
