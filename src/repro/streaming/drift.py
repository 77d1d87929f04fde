"""Covariance-shift drift detection for streaming sessions.

The only data-dependent state of the FDX pipeline is a second-moment
matrix, so dependency drift *is* covariance shift: when the correlation
structure of recent batches stops matching the long-run (decayed)
accumulator, the FD set the session reports is going stale.

:class:`DriftDetector` keeps a sliding window of the last ``K`` batch
contributions (each batch's second moment and sample count, summed in
window order into the window estimate) and scores the shift as the mean
absolute difference between the off-diagonal *correlation* entries of
the window estimate and the baseline estimate. Correlations, not
covariances, so the score is scale-free and comparable across sessions;
off-diagonal only, because the diagonal carries no dependency structure.

The score lives in ``[0, 2]`` (practically ``[0, ~0.5]``); ``alert``
fires when it exceeds the configured threshold *and* both estimates have
seen enough samples to be trustworthy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..linalg.covariance import correlation_from_covariance

#: Defaults shared by sessions and the CLI.
DEFAULT_WINDOW_BATCHES = 8
DEFAULT_THRESHOLD = 0.15
DEFAULT_MIN_SAMPLES = 64


@dataclass(frozen=True)
class DriftStatus:
    """Point-in-time drift assessment for one session."""

    score: float
    alert: bool
    #: False while either side lacks ``min_samples`` (score is 0 then).
    ready: bool
    window_batches: int
    window_samples: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "alert": self.alert,
            "ready": self.ready,
            "window_batches": self.window_batches,
            "window_samples": self.window_samples,
            "threshold": self.threshold,
        }


class DriftDetector:
    """Sliding-window covariance-shift detector.

    Not thread-safe on its own; the owning session serializes access.
    ``update`` is O(p²) bookkeeping (no solve), so it rides the append
    path without showing up in latency.
    """

    def __init__(
        self,
        window_batches: int = DEFAULT_WINDOW_BATCHES,
        threshold: float = DEFAULT_THRESHOLD,
        min_samples: int = DEFAULT_MIN_SAMPLES,
    ) -> None:
        if window_batches < 1:
            raise ValueError("window_batches must be >= 1")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.window_batches = window_batches
        self.threshold = threshold
        self.min_samples = min_samples
        #: Newest-last ``(outer, n_samples)`` batch contributions.
        self._window: deque[tuple[np.ndarray, float]] = deque(maxlen=window_batches)
        self.alerts_total = 0
        self._last_alert = False
        #: Optional callable invoked with an event dict on each alert
        #: *onset* (the not-alerting -> alerting edge); the service wires
        #: the flight recorder here. Must not raise (errors are swallowed).
        self.event_hook = None

    def reset(self) -> None:
        self._window.clear()
        self._last_alert = False

    def update(self, outer: np.ndarray, n_samples: float) -> None:
        """Push one batch's (undecayed) second-moment contribution."""
        if n_samples <= 0:
            return
        outer = np.asarray(outer, dtype=np.float64)
        if self._window and self._window[-1][0].shape != outer.shape:
            # Schema changed (session reset mid-stream): restart the window.
            self._window.clear()
        self._window.append((outer.copy(), float(n_samples)))

    def _window_covariance(self) -> tuple[np.ndarray | None, float]:
        """The window's summed second moment over its summed sample
        count, both added in window order."""
        n_samples = sum(n for _, n in self._window)
        if n_samples <= 0:
            return None, 0.0
        return sum(outer for outer, _ in self._window) / n_samples, float(n_samples)

    def status(
        self, baseline_outer: np.ndarray | None, baseline_samples: float
    ) -> DriftStatus:
        """Score the window against the long-run (decayed) accumulator.

        ``baseline_outer`` / ``baseline_samples`` are the session
        engine's accumulated ``Σ XᵀX`` and sample count — the decayed
        view of all history, window included.
        """
        window_cov, window_samples = self._window_covariance()
        ready = (
            window_cov is not None
            and baseline_outer is not None
            and baseline_samples >= self.min_samples
            and window_samples >= self.min_samples
            and np.shape(baseline_outer) == window_cov.shape
        )
        if not ready:
            self._last_alert = False
            return DriftStatus(
                score=0.0, alert=False, ready=False,
                window_batches=len(self._window),
                window_samples=window_samples,
                threshold=self.threshold,
            )
        baseline_cov = np.asarray(baseline_outer, dtype=float) / baseline_samples
        r_base = correlation_from_covariance(baseline_cov)
        r_window = correlation_from_covariance(window_cov)
        p = r_base.shape[0]
        if p < 2:
            score = 0.0
        else:
            off = ~np.eye(p, dtype=bool)
            score = float(np.mean(np.abs(r_base[off] - r_window[off])))
        alert = score > self.threshold
        if alert and not self._last_alert:
            self.alerts_total += 1  # count alert *onsets*, not every poll
            if self.event_hook is not None:
                try:
                    self.event_hook(
                        {
                            "event": "drift.alert",
                            "score": score,
                            "threshold": self.threshold,
                            "window_samples": window_samples,
                        }
                    )
                except Exception:
                    pass
        self._last_alert = alert
        return DriftStatus(
            score=score, alert=alert, ready=True,
            window_batches=len(self._window),
            window_samples=window_samples,
            threshold=self.threshold,
        )

    # -- checkpointing -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "window_batches": self.window_batches,
            "threshold": self.threshold,
            "min_samples": self.min_samples,
            "alerts_total": self.alerts_total,
            "last_alert": self._last_alert,
            "window": [
                {"outer": outer.tolist(), "n_samples": n_samples}
                for outer, n_samples in self._window
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DriftDetector":
        detector = cls(
            window_batches=int(payload.get("window_batches", DEFAULT_WINDOW_BATCHES)),
            threshold=float(payload.get("threshold", DEFAULT_THRESHOLD)),
            min_samples=int(payload.get("min_samples", DEFAULT_MIN_SAMPLES)),
        )
        detector.alerts_total = int(payload.get("alerts_total", 0))
        detector._last_alert = bool(payload.get("last_alert", False))
        for entry in payload.get("window", []):
            detector.update(
                np.asarray(entry["outer"], dtype=np.float64),
                float(entry["n_samples"]),
            )
        return detector
