"""Platform cost models: CPU (E3-CPU), GPU (E3-GPU), FPGA (E3-INAX).

All three price the same :mod:`repro.hw.workload` records in seconds
and watts; the calibration constants live in
:mod:`repro.hw.calibration` and are documented there.
"""

from repro.hw import calibration
from repro.hw.bp_fpga_model import (
    BPAcceleratorSpec,
    estimate_bp_accelerator_resources,
)
from repro.hw.clan_model import CLANConfig, CLANModel
from repro.hw.cpu_model import CPUModel, PhaseTimes
from repro.hw.fpga_model import (
    FPGADevice,
    INAXPlatformModel,
    ResourceEstimate,
    ZCU104,
    estimate_fpga_power,
    estimate_inax_resources,
)
from repro.hw.gpu_model import GPUModel
from repro.hw.workload import GenerationWorkload, IndividualWork, RunWorkload

__all__ = [
    "BPAcceleratorSpec",
    "CLANConfig",
    "CLANModel",
    "CPUModel",
    "FPGADevice",
    "GPUModel",
    "GenerationWorkload",
    "INAXPlatformModel",
    "IndividualWork",
    "PhaseTimes",
    "ResourceEstimate",
    "RunWorkload",
    "ZCU104",
    "calibration",
    "estimate_bp_accelerator_resources",
    "estimate_fpga_power",
    "estimate_inax_resources",
]
