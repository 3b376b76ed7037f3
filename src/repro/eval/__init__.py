"""Evaluation: tracking callbacks, online replay, report rendering."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "online": ("OnlineReplayResult", "replay_online_test"),
    "reports": ("format_series", "format_table", "highlight_best"),
    "tracking": ("KSTrackingCallback",),
})
