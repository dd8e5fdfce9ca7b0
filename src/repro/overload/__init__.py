"""Overload control: admission policies and accept-queue disciplines.

The paper shows architecture determines *failure* behaviour under
saturation — httpd2 sheds load accidentally (full backlogs, client
timeouts, connection resets) while the event-driven server degrades
gracefully.  This package makes the shedding decision deliberate: build
an :class:`OverloadControl` from an admission policy and a queue
discipline and mount it on any simulated server via
``ServerSpec(overload=...)``.
"""

from .control import OverloadControl
from .policies import AdmissionPolicy, AlwaysAdmit, CoDelShedder, TokenBucket
from .queueing import FIFO, LIFO, QueueDiscipline

__all__ = [
    "OverloadControl",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "CoDelShedder",
    "TokenBucket",
    "FIFO",
    "LIFO",
    "QueueDiscipline",
]
