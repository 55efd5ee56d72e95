"""The four workloads, by name (``pb.spec.WORKLOADS`` says why each)."""

from pb.workloads.chaos_small import ChaosSmall
from pb.workloads.fig51_des import Fig51Des
from pb.workloads.model_decide import ModelDecide
from pb.workloads.par_sweep import ParSweep

REGISTRY = {cls.name: cls
            for cls in (Fig51Des, ChaosSmall, ModelDecide, ParSweep)}
