"""Admission-control policies: who gets in when the server is drowning.

The paper's httpd2 sheds load *accidentally*: the kernel backlog fills,
SYNs are silently dropped, and clients burn whole 3 s/6 s/12 s
retransmission periods before giving up.  The policies here make that
decision deliberate and pluggable, so any server model can choose *what*
to refuse instead of letting the kernel decide.

The one consult point is **arrival** (a SYN reaching the listen socket):
refuse before any state is built — the cheap place to shed, producing
client-side connect failures rather than mid-session resets.  Every
decision takes an explicit ``now`` (the simulator clock) and the accept
queue's standing delay, so given the same sequence of both a policy
makes the same decisions, which keeps simulated experiments
deterministic per seed.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = [
    "AdmissionPolicy",
    "AlwaysAdmit",
    "TokenBucket",
    "CoDelShedder",
]


class AdmissionPolicy:
    """Base class: counts decisions, subclasses supply the judgement.

    Hosts call :meth:`on_arrival`; subclasses override :meth:`_arrival`.
    The counters (``admitted``, ``shed``) accumulate on the policy
    object, which ``build_server`` copies afresh for every server it
    builds.
    """

    name = "policy"

    def __init__(self) -> None:
        self.admitted = 0
        self.shed = 0

    def on_arrival(self, now: float, queue_delay: float) -> bool:
        """Admit or shed a brand-new connection attempt.

        ``queue_delay`` is how long the oldest connection in the accept
        queue has been waiting (0.0 when the queue is empty).
        """
        ok = self._arrival(now, queue_delay)
        if ok:
            self.admitted += 1
        else:
            self.shed += 1
        return ok

    def _arrival(self, now: float, queue_delay: float) -> bool:
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} admitted={self.admitted} shed={self.shed}>"


class AlwaysAdmit(AdmissionPolicy):
    """No admission control — the baseline every comparison starts from."""

    name = "always"


class TokenBucket(AdmissionPolicy):
    """Rate-limit admissions to ``rate`` connections/s with ``burst`` slack.

    Caps the *session establishment rate* near the server's sustainable
    capacity, so the population of concurrent sessions — and with it the
    pool of idle keep-alive connections the server would otherwise reap
    and reset — stays bounded under any offered load.
    """

    name = "token-bucket"

    def __init__(self, rate: float, burst: float = 32.0) -> None:
        super().__init__()
        if rate <= 0 or burst < 1:
            raise ValueError("need rate > 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last: Optional[float] = None

    def _arrival(self, now: float, queue_delay: float) -> bool:
        if self._last is None:
            self._last = now
        elapsed = max(0.0, now - self._last)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class CoDelShedder(AdmissionPolicy):
    """CoDel-style shedding keyed on accept-queue *delay*, not depth.

    Nichols & Jacobson's controlled-delay insight, applied to the accept
    queue: depth is a bad overload signal (a deep queue that drains fast
    is healthy), but *standing delay* is unambiguous.  When the oldest
    waiter has been queued longer than ``target`` continuously for
    ``interval``, start shedding arrivals, at a frequency growing with
    the square root of the drop count (the CoDel control law) until the
    delay comes back under target.
    """

    name = "codel"

    def __init__(self, target: float = 0.05, interval: float = 0.5) -> None:
        super().__init__()
        if target <= 0 or interval <= 0:
            raise ValueError("need target > 0 and interval > 0")
        self.target = target
        self.interval = interval
        self._above_since: Optional[float] = None
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0

    def _arrival(self, now: float, queue_delay: float) -> bool:
        if queue_delay < self.target:
            # Delay back under target: leave dropping state entirely.
            self._above_since = None
            self._dropping = False
            self._drop_count = 0
            return True
        if self._above_since is None:
            self._above_since = now
        if not self._dropping:
            if now - self._above_since >= self.interval:
                # Standing queue confirmed: first drop, arm the control law.
                self._dropping = True
                self._drop_count = 1
                self._drop_next = now + self.interval / math.sqrt(2)
                return False
            return True
        if now >= self._drop_next:
            self._drop_count += 1
            self._drop_next = now + self.interval / math.sqrt(
                self._drop_count + 1
            )
            return False
        return True
