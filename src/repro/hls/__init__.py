"""Vitis-style HLS substrate: strict IR frontend, scheduling (incl.
iterative modulo scheduling for pipelined loops), binding, memory
modelling, and csynth-style latency/resource reports.

The engine consumes mini-LLVM IR plus HLS directive metadata — either from
the adaptor flow or from the HLS-C++ flow — and produces the quantities the
paper reports from Xilinx Vitis: latency in cycles and LUT/FF/DSP/BRAM
usage.

Engines are constructed through the backend registry
(``repro.backends.create_backend("static")``); :mod:`repro.hls.engine`
holds the loop-tree synthesizer they share.
"""

from .device import Device, DEVICES
from .frontend import FrontendError, HLSFrontend, FrontendDiagnostics
from .operators import OperatorLibrary, OpSpec, DEFAULT_LIBRARY
from .report import LoopReport, SynthReport

__all__ = [
    "Device",
    "DEVICES",
    "FrontendError",
    "HLSFrontend",
    "FrontendDiagnostics",
    "OperatorLibrary",
    "OpSpec",
    "DEFAULT_LIBRARY",
    "LoopReport",
    "SynthReport",
]

