"""Experiment harness: one module per table/figure of the paper.

Index (see DESIGN.md for the full mapping):

==========  =====================================================
Artefact    Module
==========  =====================================================
Fig 1       :mod:`repro.experiments.fig1_province_map`
Fig 4       :mod:`repro.experiments.fig4_vehicle_mix`
Fig 5       :mod:`repro.experiments.fig5_online`
Table I     :mod:`repro.experiments.table1_main`
Table II    :mod:`repro.experiments.table2_sampling` (+ Figs 6, 8)
Table III   :mod:`repro.experiments.table3_timing` (+ Fig 7)
Fig 9       :mod:`repro.experiments.fig9_mrq_length`
Table IV    :mod:`repro.experiments.table4_gamma`
Fig 10      :mod:`repro.experiments.fig10_guangdong_share`
Table V     :mod:`repro.experiments.table5_guangdong`
Fig 11      :mod:`repro.experiments.fig11_hubei`
Table VI    :mod:`repro.experiments.table6_iid`
(extra)     :mod:`repro.experiments.stability` — multi-seed shapes
==========  =====================================================
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "runner": ("ExperimentContext", "ExperimentSettings", "MethodScores"),
})
