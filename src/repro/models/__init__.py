"""Analytic performance models (paper Sections 2.2, 3 and 4).

Layers:

* :mod:`repro.models.postal` — the postal model (eq. 2.1) and the
  max-rate model (eq. 2.2);
* :mod:`repro.models.submodels` — the paper's composable terms:
  ``T_on`` (4.1), ``T_on_split`` (4.2), ``T_off`` (4.3), ``T_off_DA``
  (4.4) and ``T_copy`` (4.5);
* :mod:`repro.models.strategies` — the full per-strategy models of
  Table 6, driven by a :class:`PatternSummary` of the standard
  communication pattern;
* :mod:`repro.models.scenarios` — Section 4.6 scenario generation
  (Figure 4.3) and pattern summarization for SpMV validation
  (Figure 4.2).

The models are scored against the DES in one place:
:func:`repro.sparse.suite.measure_matrix_panel` records
:func:`repro.core.selector.predict_times` beside the measured times of
every SUITE panel (Figure 4.2 is the audikw_1 panel).
"""

from repro.models.postal import postal_time, max_rate_time
from repro.models.submodels import (
    t_on,
    t_on_hierarchical,
    t_on_split,
    t_off,
    t_off_device_aware,
    t_copy,
)
from repro.models.pattern_summary import PatternSummary
from repro.models.strategies import (
    StrategyModel,
    StandardStagedModel,
    StandardDeviceModel,
    ThreeStepStagedModel,
    ThreeStepDeviceModel,
    TwoStepStagedModel,
    TwoStepDeviceModel,
    TwoStepBestCaseStagedModel,
    TwoStepBestCaseDeviceModel,
    SplitMDModel,
    SplitDDModel,
    all_strategy_models,
)
from repro.models.scenarios import (Scenario, fused_scenario_times,
                                    scenario_summary, sweep_scenario)
from repro.models.regime_map import (
    RegimeMap,
    compute_regime_map,
    render_regime_map,
)

__all__ = [
    "postal_time",
    "max_rate_time",
    "t_on",
    "t_on_hierarchical",
    "t_on_split",
    "t_off",
    "t_off_device_aware",
    "t_copy",
    "PatternSummary",
    "StrategyModel",
    "StandardStagedModel",
    "StandardDeviceModel",
    "ThreeStepStagedModel",
    "ThreeStepDeviceModel",
    "TwoStepStagedModel",
    "TwoStepDeviceModel",
    "TwoStepBestCaseStagedModel",
    "TwoStepBestCaseDeviceModel",
    "SplitMDModel",
    "SplitDDModel",
    "all_strategy_models",
    "Scenario",
    "scenario_summary",
    "sweep_scenario",
    "fused_scenario_times",
    "RegimeMap",
    "compute_regime_map",
    "render_regime_map",
]
