"""Virtual air link: a lossless, ordered, bidirectional PDU channel
between exactly two controller instances.  It stands in for the radio;
there is no hopping, loss or timing model.
"""

from __future__ import annotations

from collections import deque

from ..errors import AlreadyLinked

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .controller import Controller

# Traffic kinds carried by the link.
KIND_LMP = "lmp"
KIND_LCP = "lcp"
KIND_ACL = "acl"
KIND_RESET = "reset"  # out-of-band: peer dropped off the air


class VirtualLink:
    def __init__(self, a: "Controller", b: "Controller"):
        if a is b or a.mac == b.mac:
            raise ValueError("a link needs two distinct controllers")
        if a.link is not None or b.link is not None:
            raise AlreadyLinked(
                f"{'both' if a.link and b.link else 'one of'} the controllers is already linked"
            )
        self._ends = (a, b)
        self._queue: deque[tuple["Controller", "Controller", str, object]] = deque()
        self._pumping = False
        a.link = self
        b.link = self

    def peer_of(self, ctrl: "Controller") -> "Controller":
        a, b = self._ends
        return b if ctrl is a else a

    def transmit(self, src: "Controller", kind: str, data: object) -> None:
        """Queue one unit for the peer; order is preserved per direction
        (and globally, since the queue is a single FIFO)."""
        a, b = self._ends  # peer_of, inline: it runs for every PDU
        self._queue.append((src, b if src is a else a, kind, data))

    def drop_inbound(self, ctrl: "Controller") -> None:
        """Forget queued traffic addressed to a controller that just
        reset -- its radio went away mid-flight."""
        self._queue = deque(item for item in self._queue if item[1] is not ctrl)

    def pump(self) -> None:
        """Deliver queued traffic until the link is quiet.  Reentrant
        calls (a delivery transmitting more) just extend the queue."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._queue:
                src, dst, kind, data = self._queue.popleft()
                dst.deliver_air(src.mac, kind, data)
        finally:
            self._pumping = False
