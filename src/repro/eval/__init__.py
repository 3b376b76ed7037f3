"""Evaluation: tracking callbacks, online replay, report rendering."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "online": ("OnlineReplayResult", "replay_online_test"),
    "policy": (
        "OperatingPoint", "threshold_for_bad_debt", "threshold_for_fpr_cap",
        "threshold_for_refusal_budget",
    ),
    "reports": ("format_series", "format_table", "highlight_best"),
    "tracking": ("KSTrackingCallback",),
})
