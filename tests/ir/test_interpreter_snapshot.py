"""Output snapshot of the IR interpreter.

Pins what the interpreter computes, bit for bit, on every path the
paper's evaluation takes through it, against ``interpreter_snapshot.json``:

* ``small/<kernel>/<config>`` — the 15 SMALL kernels under the
  ``baseline`` and ``optimized`` recipes on the static backend: for both
  final modules (adaptor and HLS-C++ flow) the sha256 of every output
  array and the step count of a ``run_kernel`` on the seed-17 inputs, plus
  ``verify_flow_equivalence``'s ``(equivalent, max_abs_error)``;
* ``mini-descriptor/<kernel>`` — the 15 MINI kernels' pre-adaptor modules
  under ``run_kernel`` on the seed-5 inputs;
* ``random/<seed>`` — 40 ``RandomModuleGenerator`` modules run with a
  fixed argument policy: the return value's ``repr`` or the exception's
  type and message, the step count and each pointer buffer's sha256.

``np.allclose``-based checks cannot see a drift in the last bits; this
file can.  Interpreter refactors must leave it untouched; a deliberate
semantic change regenerates it with::

    pytest tests/ir/test_interpreter_snapshot.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.flows import compare_flows, run_adaptor_flow
from repro.flows.compare import verify_flow_equivalence
from repro.ir.interpreter import (
    Interpreter,
    InterpreterError,
    MemoryBuffer,
    run_kernel,
)
from repro.observability import StatisticsRegistry, use_statistics
from repro.service.service import resolve_config
from repro.testing import RandomModuleGenerator
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

SNAPSHOT = Path(__file__).with_name("interpreter_snapshot.json")

SMALL_SEED = 17
DESCRIPTOR_SEED = 5
CASES = [f"small/{kernel}/{config}" for kernel in sorted(SUITE_SIZES["SMALL"])
         for config in ("baseline", "optimized")]
CASES += [f"mini-descriptor/{kernel}" for kernel in sorted(SUITE_SIZES["MINI"])]
CASES += [f"random/{seed}" for seed in range(40)]


def _sha256(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def _traced_run(runner, *args) -> dict:
    """Outputs of one ``run_kernel``-style call with its step count."""
    with use_statistics(StatisticsRegistry()) as stats:
        outputs = runner(*args)
    return {
        "outputs": {
            name: _sha256(np.ascontiguousarray(array).tobytes())
            for name, array in outputs.items()
        },
        "steps": stats.get("interpreter", "steps"),
    }


def small_case(kernel: str, config: str) -> dict:
    sizes = SUITE_SIZES["SMALL"][kernel]
    comparison = compare_flows(
        kernel, sizes, resolve_config(config),
        check_equivalence=False, backend="static",
    )
    spec = build_kernel(kernel, **sizes)
    arrays = spec.make_inputs(SMALL_SEED)
    data = {
        flow: _traced_run(
            run_kernel, module, kernel,
            {k: v.copy() for k, v in arrays.items()}, spec.scalar_args,
        )
        for flow, module in (("adaptor", comparison.adaptor.ir_module),
                             ("cpp", comparison.cpp.ir_module))
    }
    equivalent, max_abs_error = verify_flow_equivalence(
        build_kernel(kernel, **sizes), comparison.adaptor.ir_module,
        comparison.cpp.ir_module, seed=SMALL_SEED,
    )
    data["equivalence"] = [equivalent, max_abs_error]
    return data


def descriptor_case(kernel: str) -> dict:
    sizes = SUITE_SIZES["MINI"][kernel]
    result = run_adaptor_flow(build_kernel(kernel, **sizes), keep_modern_snapshot=True)
    spec = build_kernel(kernel, **sizes)
    arrays = spec.make_inputs(DESCRIPTOR_SEED)
    return _traced_run(
        run_kernel, result.modern_ir_module, kernel, arrays,
        spec.scalar_args,
    )


def random_case(seed: int) -> dict:
    module = RandomModuleGenerator(seed=seed).generate()
    fn = module.get_function("kernel")
    args = [
        MemoryBuffer(4096, a.name) if a.type.is_pointer
        else 3 if a.type.is_integer else 1.25
        for a in fn.arguments
    ]
    interp = Interpreter(module)
    try:
        outcome = repr(interp.run(fn, args))
    except InterpreterError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return {
        "outcome": outcome,
        "steps": interp.steps,
        "buffers": [_sha256(a.data) for a in args if isinstance(a, MemoryBuffer)],
    }


def compute_case(case: str) -> dict:
    kind, _, rest = case.partition("/")
    if kind == "small":
        return small_case(*rest.split("/"))
    if kind == "mini-descriptor":
        return descriptor_case(rest)
    return random_case(int(rest))


@pytest.fixture(scope="module")
def snapshot(request):
    update = request.config.getoption("--update-goldens")
    data = {} if update or not SNAPSHOT.exists() else json.loads(SNAPSHOT.read_text())
    yield data
    if update:
        SNAPSHOT.write_text(json.dumps(data, indent=1) + "\n")


@pytest.mark.parametrize("case", CASES)
def test_interpreter_matches_snapshot(snapshot, update_goldens, case):
    actual = compute_case(case)
    if update_goldens:
        snapshot[case] = actual
        pytest.skip(f"snapshot updated: {case}")
    assert case in snapshot, (
        f"missing snapshot case {case}; rerun with --update-goldens"
    )
    # Compare serialised text so float reprs and key order are pinned too.
    assert json.dumps(actual, indent=1) == json.dumps(snapshot[case], indent=1), (
        f"{case} drifted from {SNAPSHOT.name}"
    )
