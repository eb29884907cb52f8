"""Background refresh scheduling for an online :class:`~repro.api.ServiceKernel`.

A deployment does not want to call ``service.refresh()`` by hand;
:class:`RefreshPolicy` runs a daemon thread that wakes up every
``interval_seconds``, checks how many harvested pairs the service has not yet
folded into its surrogate, and triggers a refresh once ``min_new_pairs`` have
accumulated.  The refresh itself happens on the policy thread — serving
threads are never blocked by training, only by the microsecond-scale pointer
swap at the end of it.

Use it as a context manager::

    with RefreshPolicy(service, interval_seconds=30.0, min_new_pairs=200):
        ...  # serve traffic; refreshes happen in the background

Errors raised by a background refresh are captured on :attr:`last_error`
(with :attr:`num_errors` counting them) and the most recent one is re-raised
by :meth:`stop`; the loop itself keeps running after a failure and retries on
the next tick, so a transient training error cannot silently freeze the model
at an ever-staler generation.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.exceptions import ValidationError


class RefreshPolicy:
    """Periodically refreshes a service once enough new pairs are logged.

    Parameters
    ----------
    service:
        Anything exposing ``pending_log_entries`` and ``refresh()`` — a
        :class:`~repro.api.kernel.ServiceKernel` configured with a query
        log, or a whole :class:`~repro.api.tenancy.ModelRegistry` (refreshed
        fleet-wide via ``refresh_all``).
    interval_seconds:
        How often the policy thread checks the log.
    min_new_pairs:
        Unconsumed pairs required before a refresh is triggered (1 refreshes
        on any new data).
    """

    def __init__(self, service, interval_seconds: float = 60.0, min_new_pairs: int = 100):
        if interval_seconds <= 0:
            raise ValidationError(f"interval_seconds must be > 0, got {interval_seconds}")
        if min_new_pairs < 1:
            raise ValidationError(f"min_new_pairs must be >= 1, got {min_new_pairs}")
        self.service = service
        self.interval_seconds = float(interval_seconds)
        self.min_new_pairs = int(min_new_pairs)
        self.num_refreshes = 0
        self.num_errors = 0
        self.last_outcome = None
        self.last_error: Optional[BaseException] = None
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ lifecycle
    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "RefreshPolicy":
        """Launch the background thread (idempotent while running)."""
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="surf-refresh-policy", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 10.0, reraise: bool = True) -> None:
        """Stop the thread, wait for it, and re-raise any background error.

        If the thread is still mid-refresh when ``timeout`` expires the handle
        is kept, so :attr:`running` stays truthful, a repeated ``stop()`` can
        join again, and a premature ``start()`` cannot launch a second policy
        thread alongside the one still finishing.  With ``reraise=False`` a
        captured background error stays on :attr:`last_error` for later
        inspection instead of being raised (and cleared) here.
        """
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            if not thread.is_alive():
                self._thread = None
        if reraise and self.last_error is not None:
            error, self.last_error = self.last_error, None
            raise error

    def __enter__(self) -> "RefreshPolicy":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # Don't mask an in-flight exception with a background one — but don't
        # lose the background error either: when the with-body raised, the
        # refresh failure is kept on last_error for the caller to inspect.
        self.stop(reraise=exc is None)

    # ------------------------------------------------------------------ the loop
    def run_once(self) -> bool:
        """One policy tick: refresh if enough pairs are pending.  Returns whether it did."""
        if self.service.pending_log_entries < self.min_new_pairs:
            return False
        # A ModelRegistry exposes the same pending_log_entries surface but
        # refreshes fleet-wide; a single kernel/service refreshes itself.
        if hasattr(self.service, "refresh_all"):
            self.last_outcome = self.service.refresh_all()
        else:
            self.last_outcome = self.service.refresh()
        self.num_refreshes += 1
        return True

    def _run(self) -> None:
        # A failed refresh (e.g. a transient training error) must not kill the
        # loop: the thread records the error for stop() and keeps trying on
        # the next tick — dying here would silently serve an ever-staler
        # model, the exact failure mode this policy exists to prevent.
        while not self._stop_event.wait(self.interval_seconds):
            try:
                self.run_once()
            except BaseException as error:  # noqa: BLE001 - surfaced via stop()
                self.last_error = error
                self.num_errors += 1
