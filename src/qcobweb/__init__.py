"""Zero-sum-amplitude entangled states and the universal-entangling protocol.

The protocol runs exactly on the N slot amplitudes a one-hot state can hold;
every closed form in its entanglement accounting has an independent dense
linear-algebra oracle.
"""

from .measures import cobweb_spectrum
from .protocol import BellOutcome, run_protocol
from .session import run_session
from .states import UnknownQubit, roots_of_unity_zsa

__version__ = "0.1.0"
